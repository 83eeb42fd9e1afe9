"""Command line front end.

Every subcommand builds a CommandRequest and goes through run(), which maps
domain failures to exit code 1 and input or file problems to exit code 2.
Commands that produce an artifact (a configuration, control schedule, or
trajectory) print it to stdout, or write it to --out and print a short
report instead. Reports echo the tolerances and seeds that were in effect.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .configspace import (
    RANK_TOL,
    configuration_rank,
    format_configuration_csv,
    format_configuration_json,
    load_configuration,
    local_chart,
    sample_configuration,
)
from .digraph import (
    Digraph,
    StructuralKind,
    coarse_scd,
    load_graph,
    structural_verdict,
    transitive_closure,
)
from .dynamics import (
    GraphSchedule,
    SteerOptions,
    TrackOptions,
    format_control_schedule_csv,
    format_trajectory_csv,
    parse_control_schedule_csv,
    parse_graph_schedule,
    parse_waypoints,
    simulate,
    steer,
    track_path,
)
from .errors import DomainError, InputFormatError
from .larc import construct_witness_basis, format_witness_csv, lie_algebra_at
from .liealg import LieBasis, edge_generators, lie_closure, span_equal

__all__ = ["CommandRequest", "run", "main"]


@dataclass
class CommandRequest:
    """One invocation: the subcommand plus every option it may consume."""

    command: str
    graph: str | None = None
    config: str | None = None
    target: str | None = None
    schedule: str | None = None
    controls: str | None = None
    waypoints: str | None = None
    out: str | None = None
    controls_out: str | None = None
    format: str = "text"
    n: int | None = None
    N: int | None = None
    k: int | None = None
    kind: str = "uniform"
    seed: int = 0
    tol: float = RANK_TOL
    steer_tol: float = 1e-8
    T: float = 1.0
    dt: float = 0.05
    segments: int = 4
    epsilon: float = 0.01


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _require(value, flag: str):
    if value is None:
        raise InputFormatError(f"this command requires {flag}")
    return value


def _load_graph(req: CommandRequest) -> Digraph:
    return load_graph(_require(req.graph, "--graph"))


def _load_config(path_flag: str, path: str | None):
    return load_configuration(_require(path, path_flag))


def _load_schedule(req: CommandRequest) -> GraphSchedule:
    if req.schedule is not None:
        base = os.path.dirname(os.path.abspath(req.schedule))
        return parse_graph_schedule(_read(req.schedule), req.T, base_dir=base)
    if req.graph is not None:
        return GraphSchedule.constant(load_graph(req.graph), req.T)
    raise InputFormatError("this command requires --schedule or --graph")


def _components_lines(report) -> list[str]:
    lines = [f"components: {len(report.components)}"]
    for label, comp in enumerate(report.components, start=1):
        lines.append(f"  {label}: {{{', '.join(map(str, comp))}}}")
    return lines


def _cmd_analyze(req: CommandRequest):
    g = _load_graph(req)
    report = coarse_scd(g)
    skeleton = report.skeleton
    maximal = sorted(report.maximal_set)
    if req.format == "json":
        payload = {
            "vertices": g.num_vertices,
            "edges": sorted(g.edges),
            "components": [list(c) for c in report.components],
            "skeleton_edges": sorted(skeleton.edges),
            "maximal_components": maximal,
        }
        if req.n is not None:
            verdict = structural_verdict(g, req.n)
            payload["n"] = req.n
            payload["verdict"] = verdict.kind.value
            payload["offending_components"] = list(verdict.offending_components)
        return json.dumps(payload, indent=2), None
    lines = [f"graph: {g.num_vertices} vertices, {len(g.edges)} edges"]
    lines.extend(_components_lines(report))
    lines.append("skeleton edges: " +
                 (", ".join(f"{a}->{b}" for a, b in sorted(skeleton.edges)) or "none"))
    lines.append("maximal components: " + ", ".join(map(str, maximal)))
    if req.n is not None:
        verdict = structural_verdict(g, req.n)
        lines.append(f"verdict (n={req.n}): {verdict.kind.value}")
        if verdict.offending_components:
            lines.append("offending components: " +
                         ", ".join(map(str, verdict.offending_components)))
    return "\n".join(lines), None


def _cmd_closure(req: CommandRequest):
    g = _load_graph(req)
    closed = transitive_closure(g)
    basis = lie_closure(edge_generators(g))
    closed_basis = LieBasis(g.num_vertices,
                            (e.dense() for e in edge_generators(closed)))
    match = span_equal(basis, closed_basis)
    verdict = "PASS" if match else "FAIL"
    if req.format == "json":
        payload = {
            "generators": len(g.edges),
            "closure_edges": len(closed.edges),
            "closure_dimension": basis.dimension,
            "span_match": match,
        }
        return json.dumps(payload, indent=2), None
    lines = [
        f"generators: {len(g.edges)}",
        f"closure edges: {len(closed.edges)}",
        f"closure dimension: {basis.dimension}",
        f"span match: {verdict}",
    ]
    return "\n".join(lines), None


def _cmd_larc(req: CommandRequest):
    g = _load_graph(req)
    p = _load_config("--config", req.config)
    report = lie_algebra_at(p, g, tol=req.tol)
    verdict = "PASS" if report.passes else "FAIL"
    if req.format == "json":
        payload = {
            "n": p.n,
            "N": p.N,
            "rank_tolerance": req.tol,
            "closure_edges": report.closure_edge_count,
            "per_agent_ranks": list(report.per_agent_ranks),
            "dim": report.dimension,
            "required": report.required,
            "passes": report.passes,
        }
        return json.dumps(payload, indent=2), None
    lines = [
        f"configuration: n={p.n}, N={p.N}",
        f"rank tolerance: {req.tol:g}",
        f"closure edges: {report.closure_edge_count}",
        "per-agent ranks: " + ", ".join(map(str, report.per_agent_ranks)),
        f"dim {report.dimension} / {report.required}: {verdict}",
    ]
    return "\n".join(lines), None


def _cmd_witness(req: CommandRequest):
    g = _load_graph(req)
    p = _load_config("--config", req.config)
    basis = construct_witness_basis(p, g, tol=req.tol)
    csv_text = format_witness_csv(basis)
    required = p.n * p.N
    summary = "\n".join([
        f"configuration: n={p.n}, N={p.N}",
        f"rank tolerance: {req.tol:g}",
        f"witness vectors: {len(basis.vectors)}",
        f"witness rank {required} / {required}: PASS",
    ])
    if req.format == "csv" or req.out:
        return summary, csv_text
    return summary, None


def _cmd_chart(req: CommandRequest):
    p = _load_config("--config", req.config)
    k = configuration_rank(p, tol=req.tol) if req.k is None else req.k
    chart = local_chart(p, k, tol=req.tol)
    v = chart.forward(p)
    err = float(np.max(np.abs(chart.inverse(v).coords - p.coords)))
    forced = chart.forced_zero_indices
    if req.format == "json":
        payload = {
            "n": p.n,
            "N": p.N,
            "stratum": k,
            "chart_dimension": v.size - len(forced),
            "chosen_agents": list(chart.index_choice),
            "forced_zero_count": len(forced),
            "round_trip_error": err,
            "rank_tolerance": req.tol,
        }
        return json.dumps(payload, indent=2), None
    lines = [
        f"configuration: n={p.n}, N={p.N}",
        f"stratum k: {k}",
        f"chart dimension: {v.size - len(forced)}",
        "chosen agents: " + ", ".join(map(str, chart.index_choice)),
        f"forced zeros: {len(forced)}",
        f"round-trip error: {err:.3e}",
        f"rank tolerance: {req.tol:g}",
    ]
    return "\n".join(lines), None


def _cmd_sample(req: CommandRequest):
    n = _require(req.n, "--n")
    count = _require(req.N, "--N")
    p = sample_configuration(n, count, kind=req.kind, k=req.k, seed=req.seed)
    fmt = req.format
    if fmt == "text":
        fmt = "csv" if (req.out or "").endswith(".csv") else "json"
    artifact = (format_configuration_csv(p) if fmt == "csv"
                else format_configuration_json(p))
    summary = (f"sampled configuration: n={n}, N={count}, kind={req.kind}, "
               f"seed={req.seed}, rank={configuration_rank(p)}")
    return summary, artifact


def _cmd_simulate(req: CommandRequest):
    schedule = _load_schedule(req)
    controls = parse_control_schedule_csv(_read(_require(req.controls, "--controls")))
    p0 = _load_config("--config", req.config)
    traj = simulate(schedule, controls, p0, req.dt)
    summary = "\n".join([
        f"simulate: T={schedule.horizon:g}, dt={req.dt:g}",
        f"samples: {len(traj.times)}",
        f"final configuration rank: {configuration_rank(traj.final)}",
    ])
    return summary, format_trajectory_csv(traj)


def _cmd_steer(req: CommandRequest):
    g = _load_graph(req)
    p0 = _load_config("--config", req.config)
    p1 = _load_config("--target", req.target)
    opts = SteerOptions(tolerance=req.steer_tol, seed=req.seed)
    result = steer(g, p0, p1, req.segments, req.T, opts)
    lines = [
        f"steering: N={p0.N}, edges={len(g.edges)}, segments={req.segments}, "
        f"T={req.T:g}",
        f"seed: {req.seed}",
        f"target residual: {req.steer_tol:g}",
        f"residual: {result.residual:.3e} (start {result.start_index}, "
        f"{result.iterations} iterations)",
        f"converged: {'yes' if result.residual <= req.steer_tol else 'no'}",
        f"no progress: {'yes' if result.no_progress else 'no'}",
    ]
    lines.extend(f"warning: {w}" for w in result.warnings)
    return "\n".join(lines), format_control_schedule_csv(result.controls)


def _cmd_track(req: CommandRequest):
    schedule = _load_schedule(req)
    waypoint_path = _require(req.waypoints, "--waypoints")
    base = os.path.dirname(os.path.abspath(waypoint_path))
    wps = parse_waypoints(_read(waypoint_path), base_dir=base)
    start = load_configuration(req.config) if req.config else None
    opts = TrackOptions(segments_per_leg=req.segments,
                        steer=SteerOptions(seed=req.seed))
    result = track_path(schedule, wps, req.epsilon, start=start, opts=opts)
    if req.controls_out:
        with open(req.controls_out, "w", encoding="utf-8") as fh:
            fh.write(format_control_schedule_csv(result.controls))
    summary = "\n".join([
        f"tracking: {len(wps)} waypoints, epsilon={req.epsilon:g}, "
        f"segments per leg: {req.segments}",
        f"seed: {req.seed}",
        "per-leg residuals: " +
        ", ".join(f"{r:.3e}" for r in result.leg_residuals),
        f"max deviation: {result.max_deviation:.3e}",
    ])
    return summary, format_trajectory_csv(result.trajectory)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "closure": _cmd_closure,
    "larc": _cmd_larc,
    "witness": _cmd_witness,
    "chart": _cmd_chart,
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "steer": _cmd_steer,
    "track": _cmd_track,
}


def run(request: CommandRequest, stdout=None, stderr=None) -> int:
    """Execute one request. Returns 0, or 1 for domain errors, 2 for bad input."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    handler = _HANDLERS.get(request.command)
    try:
        if handler is None:
            raise InputFormatError(f"unknown command {request.command!r}")
        report, artifact = handler(request)
        if artifact is None:
            if request.out:
                with open(request.out, "w", encoding="utf-8") as fh:
                    fh.write(report if report.endswith("\n") else report + "\n")
            else:
                print(report, file=stdout)
        else:
            if request.out:
                with open(request.out, "w", encoding="utf-8") as fh:
                    fh.write(artifact)
                print(report, file=stdout)
            else:
                print(artifact, file=stdout, end="" if artifact.endswith("\n") else "\n")
    except InputFormatError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formctl",
        description="Analysis and steering of bilinear formation dynamics "
                    "on directed graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *flag_groups):
        p = sub.add_parser(name, help=help_text)
        for group in flag_groups:
            group(p)
        return p

    def f_graph(p):
        p.add_argument("--graph", help="graph file (N header plus edge lines)")

    def f_config(p):
        p.add_argument("--config", help="configuration file (.json or .csv)")

    def f_out(p):
        p.add_argument("--out", help="write the output artifact to this path")

    def f_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text", help="report format")

    def f_tol(p):
        p.add_argument("--tol", type=float, default=RANK_TOL,
                       help="rank tolerance")

    def f_seed(p):
        p.add_argument("--seed", type=int, default=0, help="random seed")

    def f_schedule(p):
        p.add_argument("--schedule", help="graph schedule JSON file")
        p.add_argument("--T", type=float, default=1.0, help="horizon")

    add("analyze", "coarse strong component decomposition and verdict",
        f_graph, f_format, f_out,
        lambda p: p.add_argument("--n", type=int,
                                 help="ambient dimension for the verdict"))
    add("closure", "Lie closure of the edge generators",
        f_graph, f_format, f_out)
    add("larc", "rank of the controllability Lie algebra at a configuration",
        f_graph, f_config, f_format, f_out, f_tol)
    add("witness", "explicit spanning vector fields at a configuration",
        f_graph, f_config, f_format, f_out, f_tol)
    add("chart", "local chart on the rank stratum through a configuration",
        f_config, f_format, f_out, f_tol,
        lambda p: p.add_argument("--k", type=int,
                                 help="stratum rank (default: the actual rank)"))
    add("sample", "draw a random configuration",
        f_format, f_out, f_seed,
        lambda p: p.add_argument("--n", type=int, required=True),
        lambda p: p.add_argument("--N", type=int, required=True),
        lambda p: p.add_argument("--kind", choices=("uniform", "rank_k"),
                                 default="uniform"),
        lambda p: p.add_argument("--k", type=int, help="target rank for rank_k"))
    add("simulate", "integrate a control schedule",
        f_graph, f_config, f_schedule, f_out,
        lambda p: p.add_argument("--controls", help="control schedule CSV"),
        lambda p: p.add_argument("--dt", type=float, default=0.05))
    add("steer", "two-point steering on a fixed graph",
        f_graph, f_config, f_out, f_seed,
        lambda p: p.add_argument("--target", help="target configuration file"),
        lambda p: p.add_argument("--segments", type=int, default=4),
        lambda p: p.add_argument("--T", type=float, default=1.0),
        lambda p: p.add_argument("--steer-tol", type=float, default=1e-8,
                                 help="target residual"))
    add("track", "track waypoints through a switching schedule",
        f_graph, f_config, f_schedule, f_out, f_seed,
        lambda p: p.add_argument("--waypoints", help="waypoint JSON file"),
        lambda p: p.add_argument("--epsilon", type=float, default=0.01),
        lambda p: p.add_argument("--segments", type=int, default=4,
                                 help="steering segments per leg"),
        lambda p: p.add_argument("--controls-out",
                                 help="also write the planned controls CSV here"))
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    kwargs = {}
    for field in dataclasses.fields(CommandRequest):
        if hasattr(ns, field.name):
            kwargs[field.name] = getattr(ns, field.name)
    return run(CommandRequest(**kwargs))


if __name__ == "__main__":
    sys.exit(main())
