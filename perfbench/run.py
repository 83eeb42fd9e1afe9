#!/usr/bin/env python3
"""formctl benchmark: one closed-loop client, BLAS pinned to one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Runs one workload (certify, steer or cli, see workloads.py) from the
root of a source checkout, importing formctl from ``src/``. Inputs come from
the seed alone. With ``--trace 0`` the cases run back to back in whole rounds
until ``--seconds`` have passed and the end-to-end metrics are reported; with
``--trace 1`` a fixed list of cases runs once untraced and once traced, and
the per-layer metrics of tracing.py are reported together with the tracing
overhead. Every case's output is checked against an independent
oracle. A report goes to stdout; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import sys

# pin every BLAS before numpy is first imported; subprocesses inherit this
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TAIL_BEYOND = 10         # samples required above the tail percentile
WORKLOADS = ("certify", "steer", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest input sizes (used by the self-test)")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up the workload and exit (timed by the parent for setup_s)")
    return p.parse_args(argv)


def import_formctl():
    """Import formctl from this checkout's src/, never from site-packages."""
    if not os.path.isdir(os.path.join(SRC, "formctl")):
        sys.exit(f"error: no formctl sources under {SRC}")
    sys.path.insert(0, SRC)
    import formctl
    if not os.path.abspath(formctl.__file__).startswith(os.path.join(SRC, "formctl")):
        sys.exit(f"error: formctl imported from {formctl.__file__}, not {SRC}")


def set_up(args, workdir: str):
    import workloads
    workload = workloads.make(args.workload, ROOT, workdir, tiny=args.tiny)
    pool = workload.build(args.seed)
    workload.warm_up(pool)
    return workload, pool


def setup_seconds(args) -> float:
    """Wall time of a fresh interpreter that imports, generates inputs and warms up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    t0 = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - t0


def run_case(workload, case, call=None):
    """Time one case; returns (seconds, failure or None, output)."""
    t0 = perf_counter()
    try:
        out = (call or workload.run)(case)
        failure = None
    except Exception as exc:  # a raising case is a recorded failure, not an abort
        out, failure = None, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    if failure is None:
        try:
            failure = workload.check(case, out)
        except Exception as exc:
            failure = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, failure, out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def timed_run(args, workload, pool):
    """Closed loop over whole rounds until the time is spent.

    The set-up probes run before, halfway through and after the loop, so
    setup_s is not taken from one passing state of a shared machine.
    """
    latencies, failures, kinds, child_rss = [], [], {}, 0.0
    setup = [setup_seconds(args)]
    spent = 0.0                     # loop time, the probes excluded
    rounds = 0
    while spent < args.seconds:
        t0 = perf_counter()
        for case in pool[rounds % len(pool)]:
            elapsed, failure, out = run_case(workload, case)
            latencies.append(elapsed)
            kinds[case.label] = kinds.get(case.label, 0) + 1
            if failure is not None:
                failures.append(f"{case.label}: {failure}")
            if args.workload == "cli" and out is not None:
                child_rss = max(child_rss, out[3])
        rounds += 1
        spent += perf_counter() - t0
        if len(setup) == 1 and spent >= args.seconds / 2:
            setup.append(setup_seconds(args))
    setup.append(setup_seconds(args))
    if args.workload == "cli":
        peak_rss = child_rss
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_ms, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "cases_per_s": len(latencies) / sum(latencies),
        "case_p50_ms": 1000.0 * statistics.median(latencies),
        "case_tail_ms": 1000.0 * tail_ms,
        "peak_rss_mb": peak_rss,
    }
    info = {"rounds": rounds, "cases_by_kind": kinds, "tail_percentile": tail_pct,
            "tail_samples_beyond": beyond, "timed_s": sum(latencies),
            "fail_frac": len(failures) / len(latencies), "setup_samples_s": setup}
    return len(latencies), failures, metrics, info


def traced_run(args, workload, pool):
    import tracing
    import workloads
    cases = [c for r in range(workload.trace_rounds(args.seconds))
             for c in pool[r % len(pool)]]
    failures, walls = [], []
    plain = traced = 0.0
    tracer = tracing.Tracer()
    # each case runs untraced, then traced, so both see the same state of the machine
    for index, case in enumerate(cases):
        if args.workload == "cli":
            elapsed, failure, _ = run_case(workload, case)
            walls.append(elapsed)
            if failure is not None:
                failures.append(f"{case.label}: {failure}")
        elapsed, failure, _ = run_case(workload, case, workload.traced_call)
        plain += elapsed
        if failure is not None:
            failures.append(f"{case.label} (untraced): {failure}")
        tracer.case = index
        tracer.install()
        try:
            elapsed, failure, _ = run_case(workload, case, workload.traced_call)
        finally:
            tracer.uninstall()
        traced += elapsed
        if failure is not None:
            failures.append(f"{case.label} (traced): {failure}")
    layer = tracer.metrics()
    layer["cli.import_ms"] = workloads.import_ms(ROOT, repeats=3)
    runs = layer["cli.run.calls"]
    layer["cli.run_ms"] = layer["cli.run.total_ms"] / runs if runs else 0.0
    layer["cli.startup_share"] = (layer["cli.import_ms"] / (1000.0 * statistics.median(walls))
                                  if walls else 0.0)
    layer["trace.overhead_frac"] = traced / plain - 1.0
    path = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    info = {"traced_cases": len(cases), "spans": len(tracer.spans), "span_file": path,
            "untraced_s": plain, "traced_s": traced}
    runs_per_case = 3 if args.workload == "cli" else 2
    return runs_per_case * len(cases), failures, layer, info


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    import_formctl()
    sys.path.insert(0, HERE)
    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.setup_probe:
            set_up(args, workdir)
            return 0
        workload, pool = set_up(args, workdir)
        if args.trace:
            attempted, failures, values, info = traced_run(args, workload, pool)
        else:
            attempted, failures, values, info = timed_run(args, workload, pool)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("env " + json.dumps(environment(args)))
    print("run " + json.dumps(info))
    for name, value in sorted(values.items()):
        print(f"metric {name} {value:.6g}")
    for failure in failures[:20]:
        print("FAILED " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
