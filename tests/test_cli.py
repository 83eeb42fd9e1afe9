"""Command line behaviors: reports, artifacts, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from formctl.cli import main
from formctl.configspace import (
    _OVERFLOW,
    format_configuration_json,
    load_configuration,
    sample_configuration,
)
from formctl.digraph import Digraph
from formctl.dynamics import parse_control_schedule_csv

from helpers import far_source_k4, format_graph_text, parse_trajectory_csv, two_k4_sinks


def invoke(*argv):
    """Exit code, stdout and stderr of ``formctl argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def refused(*argv):
    """Exit code and stderr of a command line that argparse refuses."""
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        main([str(a) for a in argv])
    return exc.value.code, err.getvalue()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ring.txt").write_text("N 3\n1 2\n2 3\n3 1\n")
    (tmp_path / "k5.txt").write_text(format_graph_text(Digraph.complete(5)))
    (tmp_path / "two.txt").write_text(
        "N 6\n1 2\n2 3\n3 1\n6 1\n6 4\n4 5\n5 4\n")
    for name, seed in (("p0.json", 3), ("p1.json", 4)):
        p = sample_configuration(2, 5, seed=seed)
        (tmp_path / name).write_text(format_configuration_json(p))
    return tmp_path


class TestAnalyze:
    def test_text_report(self, workdir):
        code, out, _ = invoke("analyze", "--graph", workdir / "two.txt", "--n", 2)
        assert code == 0
        assert "components: 3" in out
        assert "maximal components: 1, 2" in out
        assert "verdict (n=2): controllable-set-empty" in out
        assert "offending components: 1, 2" in out

    def test_json_report(self, workdir):
        code, out, _ = invoke("analyze", "--graph", workdir / "two.txt", "--n", 2,
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["maximal_components"] == [1, 2]
        assert payload["verdict"] == "controllable-set-empty"
        assert payload["offending_components"] == [1, 2]

    def test_without_n_no_verdict(self, workdir):
        code, out, _ = invoke("analyze", "--graph", workdir / "ring.txt")
        assert code == 0
        assert "verdict" not in out

    def test_report_to_file(self, workdir):
        target = workdir / "report.txt"
        code, out, _ = invoke("analyze", "--graph", workdir / "ring.txt",
                              "--out", target)
        assert code == 0
        assert "components: 1" in target.read_text()

    def test_missing_file_is_exit_2(self, workdir):
        code, _, err = invoke("analyze", "--graph", workdir / "absent.txt")
        assert code == 2
        assert "error:" in err


class TestClosure:
    def test_ring_closure_passes(self, workdir):
        code, out, _ = invoke("closure", "--graph", workdir / "ring.txt")
        assert code == 0
        assert "closure edges: 6" in out
        assert "closure dimension: 6" in out
        assert "span match: PASS" in out

    def test_json(self, workdir):
        code, out, _ = invoke("closure", "--graph", workdir / "ring.txt",
                              "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["span_match"] is True
        assert payload["closure_dimension"] == 6


class TestLarc:
    def test_pass_line(self, workdir):
        code, out, _ = invoke("larc", "--graph", workdir / "k5.txt",
                              "--config", workdir / "p0.json")
        assert code == 0
        assert "dim 10 / 10: PASS" in out
        assert "rank tolerance" in out

    def test_fail_line_on_coincident_agents(self, workdir):
        flat = workdir / "flat.json"
        flat.write_text(json.dumps(
            {"n": 2, "N": 5, "agents": [[1.0, 1.0]] * 5}))
        code, out, _ = invoke("larc", "--graph", workdir / "k5.txt", "--config", flat)
        assert code == 0
        assert "FAIL" in out

    def test_overflowing_differences_are_refused_with_empty_stdout(self, workdir):
        # finite coordinates whose differences overflow; LAPACK would print to fd 1
        (workdir / "k4.txt").write_text(format_graph_text(Digraph.complete(4)))
        (workdir / "huge.json").write_text(json.dumps(
            {"n": 3, "N": 4, "agents": [[-1.0, -1.0, 0.0], [0.0, 0.0, 0.0],
                                        [0.0, -1e308, 0.0], [1e308, 1e308, 1.0]]}))
        proc = fresh_python("-m", "formctl.cli", "larc", "--graph", "k4.txt",
                            "--config", "huge.json", cwd=workdir)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "must be finite" in proc.stderr

    def test_overflowing_differences_are_named_without_a_numpy_warning(self, workdir):
        # the coordinates are finite; the fault is their difference, and the
        # subtraction's RuntimeWarning must not reach stderr
        (workdir / "k4.txt").write_text(format_graph_text(Digraph.complete(4)))
        (workdir / "huge.json").write_text(json.dumps(
            {"n": 3, "N": 4, "agents": [[-1, -1, 0], [0, 0, 0],
                                        [0, -1e308, 0], [1e308, 1e308, 1]]}))
        proc = fresh_python("-m", "formctl.cli", "larc", "--graph", "k4.txt",
                            "--config", "huge.json", cwd=workdir)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "RuntimeWarning" not in proc.stderr
        assert "error: coordinate differences overflow" in proc.stderr

    def test_missing_config_is_exit_2(self, workdir):
        code, err = refused("larc", "--graph", workdir / "k5.txt")
        assert code == 2
        assert "--config" in err


class TestWitness:
    def test_writes_csv(self, workdir):
        target = workdir / "witness.csv"
        code, out, _ = invoke("witness", "--graph", workdir / "k5.txt",
                              "--config", workdir / "p0.json", "--out", target)
        assert code == 0
        assert "witness vectors: 10" in out
        rows = [r for r in target.read_text().splitlines() if r.strip()]
        assert len(rows) == 10
        assert all(len(r.split(",")) == 11 for r in rows)

    def test_certifies_a_sink_at_scale_1e_minus_9(self, workdir):
        g, p = two_k4_sinks(1e-9)
        (workdir / "sinks.txt").write_text(format_graph_text(g))
        (workdir / "sinks.json").write_text(format_configuration_json(p))
        code, out, err = invoke("witness", "--graph", workdir / "sinks.txt",
                                "--config", workdir / "sinks.json")
        assert (code, err) == (0, "")
        assert "witness vectors: 18" in out

    def test_certifies_an_attachment_at_the_rank_margin(self, workdir):
        g, p = far_source_k4()
        (workdir / "far.txt").write_text(format_graph_text(g))
        (workdir / "far.json").write_text(format_configuration_json(p))
        code, out, err = invoke("witness", "--graph", workdir / "far.txt",
                                "--config", workdir / "far.json")
        assert (code, err) == (0, "")
        assert "witness rank 10 / 10: PASS" in out

    def test_overflowing_differences_are_one_error_line(self, workdir):
        # finite agents; agent 5's differences from the 4-cycle overflow
        (workdir / "ovf.txt").write_text("N 5\n1 2\n2 3\n3 4\n4 1\n1 3\n5 1\n")
        (workdir / "ovf.json").write_text(json.dumps(
            {"n": 2, "N": 5, "agents": [[-1e308, 0], [-9e307, 1e307], [-8e307, -1e307],
                                        [-7e307, 5e306], [1e308, 0]]}))
        proc = fresh_python("-m", "formctl.cli", "witness", "--graph", "ovf.txt",
                            "--config", "ovf.json", cwd=workdir)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {_OVERFLOW}\n"

    def test_witness_leaves_numpy_ma_unloaded(self, workdir):
        # numpy loads numpy.ma lazily (about 20 ms) for some set routines
        g, p = two_k4_sinks()
        proc = fresh_python("-c", "import sys; from formctl.larc import construct_witness_basis; "
                            "from formctl.configspace import Configuration; "
                            "from formctl.digraph import Digraph; "
                            f"construct_witness_basis(Configuration.from_agents({p.agents.tolist()}), "
                            f"Digraph({g.num_vertices}, {sorted(g.edges)})); "
                            "print('numpy.ma' in sys.modules)", cwd=workdir)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr

    def test_refuses_small_components(self, workdir):
        p = workdir / "p3.json"
        p.write_text(format_configuration_json(sample_configuration(2, 3, seed=1)))
        code, _, err = invoke("witness", "--graph", workdir / "ring.txt", "--config", p)
        assert code == 1
        assert "controllable-set-disconnected" in err
        assert "offending" in err


class TestChart:
    def test_full_rank_report(self, workdir):
        code, out, _ = invoke("chart", "--config", workdir / "p0.json")
        assert code == 0
        assert "stratum k: 2" in out
        assert "chart dimension: 10" in out
        assert "forced zeros: 0" in out

    def test_rank_one_stratum(self, workdir):
        p = workdir / "line.json"
        p.write_text(format_configuration_json(
            sample_configuration(2, 4, kind="rank_k", k=1, seed=5)))
        code, out, _ = invoke("chart", "--config", p)
        assert code == 0
        assert "stratum k: 1" in out
        assert "forced zeros: 2" in out

    def test_wrong_k_is_domain_error(self, workdir):
        code, _, err = invoke("chart", "--config", workdir / "p0.json", "--k", 1)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("agents", [
        # the differences are finite; the stratum chart's frame applied to them is not
        [[-1, -1, 0], [0, 0, 0], [0, -1e308, 0], [1e308, 1e308, 1], [2, 0, 3]],
        # a difference itself overflows
        [[-1e308, 0, 0], [1e308, 1, 0], [0, 5, 0], [0, 0, 1]],
    ])
    def test_overflowing_differences_are_named_without_a_numpy_warning(
            self, workdir, agents):
        (workdir / "huge.json").write_text(json.dumps({"n": 3, "N": len(agents),
                                                       "agents": agents}))
        proc = fresh_python("-m", "formctl.cli", "chart", "--config", "huge.json",
                            cwd=workdir)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {_OVERFLOW}\n"


class TestSample:
    def test_json_artifact_feeds_other_commands(self, workdir):
        target = workdir / "fresh.json"
        code, out, _ = invoke("sample", "--n", 2, "--N", 5, "--seed", 11,
                              "--out", target)
        assert code == 0
        assert "seed=11" in out
        p = load_configuration(str(target))
        assert (p.n, p.N) == (2, 5)
        code2, out2, _ = invoke("larc", "--graph", workdir / "k5.txt", "--config", target)
        assert code2 == 0 and "PASS" in out2

    def test_other_extension_round_trips(self, workdir):
        target = workdir / "p.txt"
        code, _, _ = invoke("sample", "--n", 2, "--N", 5, "--seed", 4, "--out", target)
        assert code == 0
        code2, out2, err2 = invoke("larc", "--graph", workdir / "k5.txt", "--config", target)
        assert code2 == 0, err2
        assert "PASS" in out2

    def test_csv_artifact(self, workdir):
        target = workdir / "fresh.csv"
        code, _, _ = invoke("sample", "--n", 3, "--N", 4, "--seed", 2,
                            "--out", target, "--format", "csv")
        assert code == 0
        p = load_configuration(str(target))
        assert (p.n, p.N) == (3, 4)

    def test_stdout_json_when_no_out(self):
        code, out, _ = invoke("sample", "--n", 2, "--N", 3, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 3

    def test_deterministic(self, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        invoke("sample", "--n", 2, "--N", 6, "--seed", 9, "--out", a)
        invoke("sample", "--n", 2, "--N", 6, "--seed", 9, "--out", b)
        assert a.read_text() == b.read_text()

    def test_refuses_text_format(self):
        code, err = refused("sample", "--n", 2, "--N", 3, "--format", "text")
        assert code == 2
        assert "--format" in err

    def test_rank_k_needs_valid_k(self):
        code, _, err = invoke("sample", "--n", 2, "--N", 4, "--kind", "rank_k", "--k", 7)
        assert code == 1
        assert "error:" in err


class TestSteerSimulateTrack:
    def steer_controls(self, workdir, segments):
        controls = workdir / "controls.csv"
        code, out, _ = invoke("steer", "--graph", workdir / "k5.txt",
                              "--config", workdir / "p0.json",
                              "--target", workdir / "p1.json",
                              "--segments", segments, "--T", 1.0, "--out", controls)
        assert code == 0
        return controls, out

    def test_steer_then_simulate_round_trip(self, workdir):
        controls, out = self.steer_controls(workdir, 6)
        assert "converged: yes" in out
        assert "rank tolerance" not in out  # steer ranks at the default tolerance
        schedule = parse_control_schedule_csv(controls.read_text())
        assert len(schedule.values) == 6

        traj_file = workdir / "traj.csv"
        code2, out2, _ = invoke("simulate", "--graph", workdir / "k5.txt",
                                "--config", workdir / "p0.json", "--controls", controls,
                                "--T", 1.0, "--dt", 0.05, "--out", traj_file)
        assert code2 == 0
        traj = parse_trajectory_csv(traj_file.read_text())
        target = load_configuration(str(workdir / "p1.json"))
        assert np.linalg.norm(traj.final.coords - target.coords) < 1e-6

    def test_steer_warning_is_one_stderr_line(self, workdir):
        (workdir / "k4.txt").write_text(format_graph_text(Digraph.complete(4)))
        (workdir / "line.json").write_text(json.dumps(
            {"n": 2, "N": 4, "agents": [[0, 0], [1, 0], [2, 0], [3, 0]]}))
        (workdir / "target.json").write_text(
            format_configuration_json(sample_configuration(2, 4, seed=2)))
        argv = ("-m", "formctl.cli", "steer", "--graph", "k4.txt", "--config", "line.json",
                "--target", "target.json", "--segments", "3", "--T", "1.0")
        warning = ("warning: initial configuration fails the rank condition on this "
                   "graph; steering may stall\n")
        printed = fresh_python(*argv, cwd=workdir)
        written = fresh_python(*argv, "--out", "u.csv", cwd=workdir)
        assert (printed.returncode, written.returncode) == (0, 0)
        assert printed.stdout == (workdir / "u.csv").read_text()
        assert printed.stderr == written.stderr == warning
        assert "steering:" in written.stdout and "warning:" not in written.stdout

    def test_steer_report_names_the_grid_it_used(self, workdir):
        # the directed cycle C5 misses this target on 6 segments and reaches
        # it on 12, in the first refinement round
        (workdir / "c5.txt").write_text("N 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
        rng = np.random.default_rng(13)
        for name in ("c5_p0.json", "c5_p1.json"):
            (workdir / name).write_text(json.dumps(
                {"n": 2, "N": 5, "agents": rng.standard_normal((5, 2)).tolist()}))
        controls = workdir / "u.csv"
        code, out, _ = invoke("steer", "--graph", workdir / "c5.txt",
                              "--config", workdir / "c5_p0.json",
                              "--target", workdir / "c5_p1.json",
                              "--segments", 6, "--T", 1.0, "--out", controls)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "steering: N=5, edges=5, segments=12, T=1"
        assert "(round 1, " in lines[2]
        assert "converged: yes" in lines
        assert not any(line.startswith("seed") for line in lines)
        assert len(parse_control_schedule_csv(controls.read_text()).values) == 12

    def test_simulate_step_too_large_is_domain_error(self, workdir):
        controls, _ = self.steer_controls(workdir, 2)
        code, _, err = invoke("simulate", "--graph", workdir / "k5.txt",
                              "--config", workdir / "p0.json", "--controls", controls,
                              "--T", 1.0, "--dt", 0.9)
        assert code == 1
        assert "error:" in err

    def test_track_through_schedule(self, workdir):
        sched = workdir / "sched.json"
        sched.write_text(json.dumps(
            [{"t": 0.0, "graph": "k5.txt"}, {"t": 0.5, "graph": "k5.txt"}]))
        p = load_configuration(str(workdir / "p0.json"))
        rng = np.random.default_rng(0)
        wps = []
        agents = p.agents
        for t in (0.0, 0.5, 1.0):
            wps.append({"t": t, "config":
                        {"n": 2, "N": 5, "agents": agents.tolist()}})
            agents = agents + 0.1 * rng.normal(size=agents.shape)
        wp_file = workdir / "wps.json"
        wp_file.write_text(json.dumps(wps))
        traj_file = workdir / "track.csv"
        controls_file = workdir / "track_controls.csv"
        code, out, _ = invoke("track", "--schedule", sched, "--T", 1.0,
                              "--waypoints", wp_file, "--epsilon", 0.01,
                              "--out", traj_file, "--controls-out", controls_file)
        assert code == 0
        assert "max deviation" in out
        traj = parse_trajectory_csv(traj_file.read_text())
        assert traj.times[-1] == 1.0
        assert len(parse_control_schedule_csv(
            controls_file.read_text()).values) == 8

    def test_track_report_names_the_segments_the_controls_hold(self, workdir):
        # the C5 target of test_steer_report_names_the_grid_it_used as one leg:
        # 6 segments per leg miss it, and the leg refines to 12
        (workdir / "c5.txt").write_text("N 5\n1 2\n2 3\n3 4\n4 5\n5 1\n")
        rng = np.random.default_rng(13)
        wps = [{"t": t, "config": {"n": 2, "N": 5, "agents": rng.standard_normal((5, 2)).tolist()}}
               for t in (0.0, 1.0)]
        (workdir / "wps.json").write_text(json.dumps(wps))
        controls = workdir / "tu.csv"
        code, out, _ = invoke("track", "--graph", workdir / "c5.txt", "--T", 1.0,
                              "--waypoints", workdir / "wps.json", "--epsilon", 2e-8,
                              "--segments", 6, "--out", workdir / "traj.csv",
                              "--controls-out", controls)
        assert code == 0
        lines = out.splitlines()
        assert "segments: 12" in lines
        assert not any("per leg" in line for line in lines)
        assert any(line.startswith("max deviation at waypoints: ") for line in lines)
        assert len(parse_control_schedule_csv(controls.read_text()).values) == 12

    def test_track_missing_waypoints_flag(self, workdir):
        code, err = refused("track", "--graph", workdir / "k5.txt", "--T", 1.0)
        assert code == 2
        assert "--waypoints" in err

    def test_track_needs_graph_or_schedule(self, workdir):
        code, err = refused("track", "--waypoints", workdir / "wps.json")
        assert code == 2
        assert "--graph" in err and "--schedule" in err

    @pytest.mark.parametrize("u", ["nan", "inf"])
    def test_simulate_refuses_non_finite_control_file(self, workdir, u):
        controls = workdir / "controls.csv"
        controls.write_text(f"t_start,t_end,i,j,u\n0,0.5,1,2,{u}\n0.5,1,3,4,-0.3\n")
        code, out, err = invoke("simulate", "--graph", workdir / "k5.txt",
                                "--config", workdir / "p0.json", "--controls", controls)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: fields must be finite")

    def test_simulate_refuses_graph_and_schedule(self, workdir):
        controls, _ = self.steer_controls(workdir, 2)
        sched = workdir / "sched.json"
        sched.write_text(json.dumps([{"t": 0.0, "graph": "k5.txt"}]))
        code, err = refused("simulate", "--graph", workdir / "k5.txt",
                            "--schedule", sched, "--config", workdir / "p0.json",
                            "--controls", controls)
        assert code == 2
        assert "not allowed with" in err


class TestFormats:
    @pytest.mark.parametrize("command", ["analyze", "closure", "larc", "chart"])
    def test_csv_refused_where_only_json_is_printed(self, workdir, command):
        inputs = {
            "analyze": ["--graph", workdir / "ring.txt"],
            "closure": ["--graph", workdir / "ring.txt"],
            "larc": ["--graph", workdir / "k5.txt", "--config", workdir / "p0.json"],
            "chart": ["--config", workdir / "p0.json"],
        }[command]
        code, err = refused(command, *inputs, "--format", "csv")
        assert code == 2
        assert "--format" in err

    def test_witness_refuses_json(self, workdir):
        code, err = refused("witness", "--graph", workdir / "k5.txt",
                            "--config", workdir / "p0.json", "--format", "json")
        assert code == 2
        assert "--format" in err


def listed(values):
    return ", ".join(map(str, values))


def text_report(command, r):
    """The text lines of a report, built from its JSON values (README, Command line)."""
    if command == "analyze":
        lines = [f"graph: {r['vertices']} vertices, {len(r['edges'])} edges",
                 f"components: {len(r['components'])}",
                 *(f"  {k}: {{{listed(c)}}}" for k, c in enumerate(r["components"], 1)),
                 "skeleton edges: " + (", ".join(f"{a}->{b}" for a, b in r["skeleton_edges"])
                                       or "none"),
                 f"maximal components: {listed(r['maximal_components'])}"]
        if "n" in r:
            lines.append(f"verdict (n={r['n']}): {r['verdict']}")
            if r["offending_components"]:
                lines.append(f"offending components: {listed(r['offending_components'])}")
        return lines
    if command == "closure":
        return [f"generators: {r['generators']}",
                f"closure edges: {r['closure_edges']}",
                f"closure dimension: {r['closure_dimension']}",
                f"span match: {'PASS' if r['span_match'] else 'FAIL'}"]
    shape = f"configuration: n={r['n']}, N={r['N']}"
    tolerance = f"rank tolerance: {r['rank_tolerance']:g}"
    if command == "larc":
        return [shape, tolerance,
                f"closure edges: {r['closure_edges']}",
                f"per-agent ranks: {listed(r['per_agent_ranks'])}",
                f"dim {r['dim']} / {r['required']}: {'PASS' if r['passes'] else 'FAIL'}"]
    return [shape,
            f"stratum k: {r['stratum']}",
            f"chart dimension: {r['chart_dimension']}",
            f"chosen agents: {listed(r['chosen_agents'])}",
            f"forced zeros: {r['forced_zero_count']}",
            f"round-trip error: {r['round_trip_error']:.3e}",
            tolerance]


REPORT_KEYS = {
    "analyze": ["vertices", "edges", "components", "skeleton_edges", "maximal_components"],
    "closure": ["generators", "closure_edges", "closure_dimension", "span_match"],
    "larc": ["n", "N", "rank_tolerance", "closure_edges", "per_agent_ranks", "dim",
             "required", "passes"],
    "chart": ["n", "N", "stratum", "chart_dimension", "chosen_agents", "forced_zero_count",
              "round_trip_error", "rank_tolerance"],
}


class TestReportForms:
    """The text report and the JSON report of one command hold the same fields."""

    @pytest.fixture
    def files(self, workdir):
        (workdir / "flat.json").write_text(json.dumps(
            {"n": 2, "N": 5, "agents": [[1.0, 1.0]] * 5}))
        (workdir / "line.json").write_text(format_configuration_json(
            sample_configuration(2, 4, kind="rank_k", k=1, seed=5)))
        return workdir

    @pytest.mark.parametrize("argv", [
        ["analyze", "--graph", "two.txt"],
        ["analyze", "--graph", "two.txt", "--n", "2"],
        ["analyze", "--graph", "ring.txt", "--n", "2"],
        ["analyze", "--graph", "k5.txt", "--n", "2"],
        ["closure", "--graph", "two.txt"],
        ["larc", "--graph", "k5.txt", "--config", "p0.json"],
        ["larc", "--graph", "k5.txt", "--config", "flat.json"],
        ["chart", "--config", "p0.json"],
        ["chart", "--config", "line.json", "--k", "1"],
    ], ids=" ".join)
    def test_text_holds_the_json_fields(self, files, argv):
        argv = [files / a if a.endswith((".txt", ".json")) else a for a in argv]
        code, text, _ = invoke(*argv)
        json_code, out, _ = invoke(*argv, "--format", "json")
        assert code == json_code == 0
        report = json.loads(out)
        with_n = ["n", "verdict", "offending_components"] if "--n" in argv else []
        assert list(report) == REPORT_KEYS[argv[0]] + with_n
        assert text.splitlines() == text_report(argv[0], report)


class TestEntryPoint:
    def test_main_parses_and_runs(self, workdir, capsys):
        code = main(["analyze", "--graph", str(workdir / "ring.txt"), "--n", "2"])
        assert code == 0
        assert "verdict" in capsys.readouterr().out

    def test_main_rejects_unknown_subcommand(self):
        code, _ = refused("explode")
        assert code == 2

    @pytest.mark.parametrize("command", ["larc", "witness", "chart", "steer"])
    def test_rejects_tol(self, workdir, command):
        inputs = {
            "larc": ["--graph", workdir / "k5.txt", "--config", workdir / "p0.json"],
            "witness": ["--graph", workdir / "k5.txt", "--config", workdir / "p0.json"],
            "chart": ["--config", workdir / "p0.json"],
            "steer": ["--graph", workdir / "k5.txt", "--config", workdir / "p0.json",
                      "--target", workdir / "p1.json"],
        }[command]
        code, err = refused(command, *inputs, "--tol", "1e-3")
        assert code == 2
        assert "--tol" in err


# run in a fresh interpreter: scipy may already be imported by this one
NO_SCIPY = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
from formctl.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def fresh_python(*args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestWithoutScipy:
    def test_import_leaves_scipy_unloaded(self, tmp_path):
        proc = fresh_python("-c", "import sys, formctl.cli; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
                            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        (tmp_path / "k4.txt").write_text(format_graph_text(Digraph.complete(4)))
        for name, seed in (("p0.json", 5), ("p1.json", 6)):
            p = sample_configuration(2, 4, seed=seed)
            (tmp_path / name).write_text(format_configuration_json(p))
        argvs = [
            ["analyze", "--graph", "k4.txt", "--n", "2"],
            ["steer", "--graph", "k4.txt", "--config", "p0.json", "--target", "p1.json",
             "--segments", "3", "--T", "1.0", "--out", "controls.csv"],
            ["simulate", "--graph", "k4.txt", "--config", "p0.json",
             "--controls", "controls.csv", "--T", "1.0", "--dt", "0.1",
             "--out", "traj.csv"],
        ]
        proc = fresh_python("-c", NO_SCIPY, json.dumps(argvs), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "converged: yes" in proc.stdout
        final = parse_trajectory_csv((tmp_path / "traj.csv").read_text()).final
        target = load_configuration(str(tmp_path / "p1.json"))
        assert np.linalg.norm(final.coords - target.coords) < 1e-6


# argv after the command's graph and configuration, and the refusal it must print
NON_FINITE_SETTINGS = [
    (["simulate", "--controls", "u.csv", "--dt", "nan"], "dt"),
    (["simulate", "--controls", "u.csv", "--T", "inf"], "horizon"),
    (["steer", "--target", "p1.json", "--T", "nan"], "horizon"),
    (["steer", "--target", "p1.json", "--T", "inf"], "horizon"),
    (["steer", "--target", "p1.json", "--steer-tol", "nan"], "tolerance"),
    (["steer", "--target", "p1.json", "--steer-tol", "-1"], "tolerance"),
    (["track", "--waypoints", "wps.json", "--epsilon", "nan"], "epsilon"),
    (["track", "--waypoints", "wps.json", "--T", "nan"], "horizon"),
]


class TestNonFiniteSettings:
    """Non-finite or non-positive real settings are refused before any numeric work."""

    @pytest.mark.parametrize("argv, setting", NON_FINITE_SETTINGS,
                             ids=[" ".join(a[:1] + a[-2:]) for a, _ in NON_FINITE_SETTINGS])
    def test_one_error_line(self, tmp_path, argv, setting):
        (tmp_path / "k4.txt").write_text(format_graph_text(Digraph.complete(4)))
        for name, seed in (("p0.json", 5), ("p1.json", 6)):
            (tmp_path / name).write_text(
                format_configuration_json(sample_configuration(2, 4, seed=seed)))
        (tmp_path / "u.csv").write_text("t_start,t_end,i,j,u\n0,0.5,1,2,0.4\n0.5,1,3,4,-0.3\n")
        (tmp_path / "wps.json").write_text(json.dumps(
            [{"t": 0, "config": "p0.json"}, {"t": 1, "config": "p1.json"}]))
        proc = fresh_python("-m", "formctl.cli", argv[0], "--graph", "k4.txt",
                            "--config", "p0.json", *argv[1:], cwd=tmp_path)
        assert proc.returncode != 0
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {setting} must be positive and finite, got ")


class TestHorizonExitCode:
    """--T is not part of a schedule file, so a bad one exits 1 with either source."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "k4.txt").write_text(format_graph_text(Digraph.complete(4)))
        for name, seed in (("p0.json", 5), ("p1.json", 6)):
            (tmp_path / name).write_text(
                format_configuration_json(sample_configuration(2, 4, seed=seed)))
        (tmp_path / "u.csv").write_text("t_start,t_end,i,j,u\n0,0.5,1,2,0.4\n0.5,1,3,4,-0.3\n")
        (tmp_path / "wps.json").write_text(json.dumps(
            [{"t": 0, "config": "p0.json"}, {"t": 1, "config": "p1.json"}]))
        (tmp_path / "sched.json").write_text(json.dumps([{"t": 0, "graph": "k4.txt"}]))
        return tmp_path

    COMMANDS = {"simulate": ["--config", "p0.json", "--controls", "u.csv"],
                "track": ["--waypoints", "wps.json"]}

    @pytest.mark.parametrize("T", ["0", "nan", "inf", "-1"])
    @pytest.mark.parametrize("source", ["--graph k4.txt", "--schedule sched.json"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_horizon_exits_1(self, files, command, source, T):
        proc = fresh_python("-m", "formctl.cli", command, *source.split(),
                            *self.COMMANDS[command], f"--T={T}", cwd=files)
        assert proc.returncode == 1
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: horizon must be positive and finite, got ")

    @pytest.mark.parametrize("T", ["0", "nan", "inf", "-1"])
    def test_bad_steer_horizon_exits_1(self, files, T):
        proc = fresh_python("-m", "formctl.cli", "steer", "--graph", "k4.txt",
                            "--config", "p0.json", "--target", "p1.json", f"--T={T}",
                            cwd=files)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [
            f"error: horizon must be positive and finite, got {float(T)}"]

    @pytest.mark.parametrize("entries, message", [
        ([{"t": 0, "graph": "k4.txt"}, {"t": 0.6, "graph": "k4.txt"},
          {"t": 0.3, "graph": "k4.txt"}], "error: segment start times must strictly increase"),
        ([{"t": 0, "graph": {"N": 4, "edges": [[1.5, 2], [2, 3]]}}],
         "error: bad inline graph: edge (1.5, 2) needs Python ints; convert with int()"),
    ], ids=["times-out-of-order", "float-edge"])
    def test_bad_schedule_file_exits_2(self, files, entries, message):
        (files / "bad.json").write_text(json.dumps(entries))
        proc = fresh_python("-m", "formctl.cli", "simulate", "--schedule", "bad.json",
                            *self.COMMANDS["simulate"], "--T", "1", cwd=files)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(message)


    @pytest.mark.parametrize("t", [10**400, -10**400], ids=["401-digits", "minus-401-digits"])
    @pytest.mark.parametrize("flag", ["--waypoints", "--schedule"])
    def test_time_beyond_the_float_range_exits_2(self, files, monkeypatch, flag, t):
        # a JSON int too large for a float is a bad time, not an OverflowError
        bad = {"--waypoints": [{"t": 0, "config": "p0.json"}, {"t": t, "config": "p1.json"}],
               "--schedule": [{"t": 0, "graph": "k4.txt"}, {"t": t, "graph": "k4.txt"}]}[flag]
        (files / "bad.json").write_text(json.dumps(bad))
        source = (["--graph", "k4.txt", "--waypoints", "bad.json"] if flag == "--waypoints"
                  else ["--schedule", "bad.json", "--waypoints", "wps.json"])
        monkeypatch.chdir(files)
        code, out, err = invoke("track", *source, "--T", "1")
        assert (code, out) == (2, "")
        item = "waypoint" if flag == "--waypoints" else "segment"
        assert err.splitlines() == [f"error: bad {item} time {t}"]


class TestRefusedByTheTypeBuilt:
    """A configuration file is refused by the type it becomes, with one
    error: line and nothing on stdout."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "k4.txt").write_text(format_graph_text(Digraph.complete(4)))
        (tmp_path / "target.json").write_text(
            format_configuration_json(sample_configuration(2, 4, seed=2)))
        return tmp_path

    @pytest.mark.parametrize("config", [
        {"n": 0, "N": 1, "agents": [[]]},
        {"n": 1, "N": 0, "agents": []},
        {"n": 2.0, "N": 2, "agents": [[0, 0], [1, 0]]},
    ], ids=["n=0", "N=0", "n=2.0"])
    @pytest.mark.parametrize("where", ["file", "inline waypoint"])
    def test_bad_count_in_a_configuration_exits_2(self, files, config, where):
        (files / "bad.json").write_text(json.dumps(config))
        (files / "wps.json").write_text(json.dumps(
            [{"t": 0, "config": config}, {"t": 1, "config": "target.json"}]))
        argv = (["chart", "--config", files / "bad.json"] if where == "file" else
                ["track", "--graph", files / "k4.txt", "--T", "1.0",
                 "--waypoints", files / "wps.json"])
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: need Python ints n >= 1 and N >= 1, got n={config['n']!r}, "
            f"N={config['N']!r}"]
