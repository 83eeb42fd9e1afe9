"""Command line front end.

main() parses argv and hands the namespace to run(), which calls the
subcommand's handler and maps domain failures to exit code 1 and input or
file problems to exit code 2; argparse refuses missing or conflicting
options with exit code 2 before any handler runs. A handler returns a text
report and, for a command that makes one, an artifact (a configuration,
control schedule, or trajectory). The output is the artifact if there is
one, else the report; it goes to stdout, or to --out, and beside a saved
artifact the report is printed. analyze, closure, larc and chart build one
record of (JSON key, value, text line) entries, so their --format json
report holds the text report's fields in the same order; a field that the
text folds into another field's line has no line of its own. Reports echo
the tolerances that were in effect, and sample's the seed it drew with. Each
distinct warning a command raises goes to stderr once, as a "warning:" line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .configspace import (
    RANK_TOL,
    configuration_rank,
    format_configuration_csv,
    format_configuration_json,
    is_csv_path,
    load_configuration,
    local_chart,
    sample_configuration,
)
from .digraph import coarse_scd, load_graph, structural_verdict, transitive_closure
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

__all__ = ["run", "main"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_schedule(args) -> GraphSchedule:
    if args.graph is not None:
        return GraphSchedule.constant(load_graph(args.graph), args.T)
    base = os.path.dirname(os.path.abspath(args.schedule))
    return parse_graph_schedule(_read(args.schedule), args.T, base_dir=base)


def _listed(values) -> str:
    return ", ".join(map(str, values))


def _report(args, record):
    """The JSON object of a record's keys and values, or its text lines in order."""
    if args.format == "json":
        return json.dumps({key: value for key, value, _ in record}, indent=2), None
    return "\n".join(line for _, _, line in record if line is not None), None


def _shape(p) -> list:
    return [("n", p.n, f"configuration: n={p.n}, N={p.N}"), ("N", p.N, None)]


def _cmd_analyze(args):
    g = load_graph(args.graph)
    report = coarse_scd(g)
    components = [list(c) for c in report.components]
    skeleton = sorted(report.skeleton.edges)
    maximal = sorted(report.maximal_set)
    record = [
        ("vertices", g.num_vertices, f"graph: {g.num_vertices} vertices, {len(g.edges)} edges"),
        ("edges", sorted(g.edges), None),
        ("components", components, "\n".join(
            [f"components: {len(components)}"] +
            [f"  {label}: {{{_listed(c)}}}" for label, c in enumerate(components, 1)])),
        ("skeleton_edges", skeleton, "skeleton edges: " +
         (", ".join(f"{a}->{b}" for a, b in skeleton) or "none")),
        ("maximal_components", maximal, "maximal components: " + _listed(maximal)),
    ]
    if args.n is not None:
        verdict = structural_verdict(g, args.n)
        offending = list(verdict.offending_components)
        record += [
            ("n", args.n, None),
            ("verdict", verdict.kind.value, f"verdict (n={args.n}): {verdict.kind.value}"),
            ("offending_components", offending,
             "offending components: " + _listed(offending) if offending else None),
        ]
    return _report(args, record)


def _cmd_closure(args):
    g = load_graph(args.graph)
    closed = transitive_closure(g)
    basis = lie_closure(edge_generators(g))
    closed_basis = LieBasis(g.num_vertices,
                            (e.dense() for e in edge_generators(closed)))
    match = span_equal(basis, closed_basis)
    return _report(args, [
        ("generators", len(g.edges), f"generators: {len(g.edges)}"),
        ("closure_edges", len(closed.edges), f"closure edges: {len(closed.edges)}"),
        ("closure_dimension", basis.dimension, f"closure dimension: {basis.dimension}"),
        ("span_match", match, f"span match: {'PASS' if match else 'FAIL'}"),
    ])


def _cmd_larc(args):
    g = load_graph(args.graph)
    p = load_configuration(args.config)
    report = lie_algebra_at(p, g)
    verdict = "PASS" if report.passes else "FAIL"
    return _report(args, _shape(p) + [
        ("rank_tolerance", RANK_TOL, f"rank tolerance: {RANK_TOL:g}"),
        ("closure_edges", report.closure_edge_count,
         f"closure edges: {report.closure_edge_count}"),
        ("per_agent_ranks", list(report.per_agent_ranks),
         "per-agent ranks: " + _listed(report.per_agent_ranks)),
        ("dim", report.dimension, None),
        ("required", report.required, None),
        ("passes", report.passes, f"dim {report.dimension} / {report.required}: {verdict}"),
    ])


def _cmd_witness(args):
    g = load_graph(args.graph)
    p = load_configuration(args.config)
    basis = construct_witness_basis(p, g)
    required = p.n * p.N
    summary = "\n".join([
        f"configuration: n={p.n}, N={p.N}",
        f"rank tolerance: {RANK_TOL:g}",
        f"witness vectors: {len(basis.vectors)}",
        f"witness rank {required} / {required}: PASS",
    ])
    return summary, (format_witness_csv(basis)
                     if args.format == "csv" or args.out else None)


def _cmd_chart(args):
    p = load_configuration(args.config)
    k = configuration_rank(p) if args.k is None else args.k
    chart = local_chart(p, k)
    v = chart.forward(p)
    err = float(np.max(np.abs(chart.inverse(v).coords - p.coords)))
    forced = len(chart.forced_zero_indices)
    return _report(args, _shape(p) + [
        ("stratum", k, f"stratum k: {k}"),
        ("chart_dimension", v.size - forced, f"chart dimension: {v.size - forced}"),
        ("chosen_agents", list(chart.index_choice),
         "chosen agents: " + _listed(chart.index_choice)),
        ("forced_zero_count", forced, f"forced zeros: {forced}"),
        ("round_trip_error", err, f"round-trip error: {err:.3e}"),
        ("rank_tolerance", RANK_TOL, f"rank tolerance: {RANK_TOL:g}"),
    ])


def _cmd_sample(args):
    p = sample_configuration(args.n, args.N, kind=args.kind, k=args.k, seed=args.seed)
    fmt = args.format
    if fmt is None:
        fmt = "csv" if is_csv_path(args.out or "") else "json"
    artifact = (format_configuration_csv(p) if fmt == "csv"
                else format_configuration_json(p))
    summary = (f"sampled configuration: n={args.n}, N={args.N}, kind={args.kind}, "
               f"seed={args.seed}, rank={configuration_rank(p)}")
    return summary, artifact


def _cmd_simulate(args):
    schedule = _load_schedule(args)
    controls = parse_control_schedule_csv(_read(args.controls))
    p0 = load_configuration(args.config)
    traj = simulate(schedule, controls, p0, args.dt)
    summary = "\n".join([
        f"simulate: T={schedule.horizon:g}, dt={args.dt:g}",
        f"samples: {len(traj.times)}",
        f"final configuration rank: {configuration_rank(traj.final)}",
    ])
    return summary, format_trajectory_csv(traj)


def _cmd_steer(args):
    g = load_graph(args.graph)
    p0 = load_configuration(args.config)
    p1 = load_configuration(args.target)
    result = steer(g, p0, p1, args.segments, args.T, SteerOptions(tolerance=args.steer_tol))
    lines = [
        f"steering: N={p0.N}, edges={len(g.edges)}, "
        f"segments={len(result.controls.values)}, T={args.T:g}",
        f"target residual: {args.steer_tol:g}",
        f"residual: {result.residual:.3e} (round {result.start_index}, "
        f"{result.iterations} iterations)",
        f"converged: {'yes' if result.residual <= args.steer_tol else 'no'}",
        f"no progress: {'yes' if result.no_progress else 'no'}",
    ]
    return "\n".join(lines), format_control_schedule_csv(result.controls)


def _cmd_track(args):
    schedule = _load_schedule(args)
    base = os.path.dirname(os.path.abspath(args.waypoints))
    wps = parse_waypoints(_read(args.waypoints), base_dir=base)
    start = load_configuration(args.config) if args.config else None
    result = track_path(schedule, wps, args.epsilon, start=start,
                        opts=TrackOptions(segments_per_leg=args.segments))
    if args.controls_out:
        with open(args.controls_out, "w", encoding="utf-8") as fh:
            fh.write(format_control_schedule_csv(result.controls))
    summary = "\n".join([
        f"tracking: {len(wps)} waypoints, epsilon={args.epsilon:g}",
        f"segments: {len(result.controls.values)}",
        "per-leg residuals: " + ", ".join(f"{r:.3e}" for r in result.leg_residuals),
        f"max deviation at waypoints: {result.max_deviation:.3e}",
    ])
    return summary, format_trajectory_csv(result.trajectory)


def _show_warnings(caught, stderr) -> None:
    """Each distinct UserWarning once as a "warning:" line; others as Python shows them."""
    for text in dict.fromkeys(str(w.message) for w in caught
                              if issubclass(w.category, UserWarning)):
        print(f"warning: {text}", file=stderr)
    for w in caught:
        if not issubclass(w.category, UserWarning):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def run(args: argparse.Namespace, stdout=None, stderr=None) -> int:
    """Execute a parsed command line: 0, or 1 for domain errors, 2 for bad input."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                report, artifact = args.handler(args)
        finally:
            _show_warnings(caught, stderr)
        output = report if artifact is None else artifact
        output += "" if output.endswith("\n") else "\n"
        if not args.out:
            stdout.write(output)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
            if artifact is not None:
                print(report, file=stdout)
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

    def add(name, handler, help_text, formats=()):
        """Subparser with --out, and --format when the command prints more than text."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if formats:
            p.add_argument("--format", choices=("text", *formats), default="text",
                           help="report format")
        p.add_argument("--out", help="write the output artifact to this path")
        return p

    graph_help = "graph file (N header plus edge lines)"

    def graph(p):
        p.add_argument("--graph", required=True, help=graph_help)

    def config(p, required=True):
        p.add_argument("--config", required=required,
                       help="configuration file (.json or .csv)")

    def horizon(p):
        p.add_argument("--T", type=float, default=1.0, help="horizon")

    def graph_or_schedule(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph", help=graph_help)
        source.add_argument("--schedule", help="graph schedule JSON file")
        horizon(p)

    def segments(p, help_text):
        p.add_argument("--segments", type=int, default=TrackOptions.segments_per_leg,
                       help=help_text + ", doubled, at most 3 times, while the search "
                                        "misses the target residual")

    p = add("analyze", _cmd_analyze,
            "coarse strong component decomposition and verdict", ("json",))
    graph(p)
    p.add_argument("--n", type=int, help="ambient dimension for the verdict")

    graph(add("closure", _cmd_closure, "Lie closure of the edge generators", ("json",)))

    p = add("larc", _cmd_larc,
            "rank of the controllability Lie algebra at a configuration", ("json",))
    graph(p)
    config(p)

    p = add("witness", _cmd_witness,
            "explicit spanning vector fields at a configuration", ("csv",))
    graph(p)
    config(p)

    p = add("chart", _cmd_chart,
            "local chart on the rank stratum through a configuration", ("json",))
    config(p)
    p.add_argument("--k", type=int, help="stratum rank (default: the actual rank)")

    p = add("sample", _cmd_sample, "draw a random configuration")
    p.add_argument("--format", choices=("json", "csv"),
                   help="artifact format (default: csv if --out ends in .csv, else json)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--kind", choices=("uniform", "rank_k"), default="uniform")
    p.add_argument("--k", type=int, help="target rank for rank_k")

    p = add("simulate", _cmd_simulate, "integrate a control schedule")
    graph_or_schedule(p)
    config(p)
    p.add_argument("--controls", required=True, help="control schedule CSV")
    p.add_argument("--dt", type=float, default=0.05)

    p = add("steer", _cmd_steer, "two-point steering on a fixed graph")
    graph(p)
    config(p)
    p.add_argument("--target", required=True, help="target configuration file")
    segments(p, "steering segments")
    horizon(p)
    p.add_argument("--steer-tol", type=float, default=SteerOptions.tolerance,
                   help="target residual")

    p = add("track", _cmd_track, "track waypoints through a switching schedule")
    graph_or_schedule(p)
    config(p, required=False)
    p.add_argument("--waypoints", required=True, help="waypoint JSON file")
    p.add_argument("--epsilon", type=float, default=0.01)
    segments(p, "steering segments per leg")
    p.add_argument("--controls-out", help="also write the planned controls CSV here")
    return parser


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
