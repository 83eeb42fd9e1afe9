#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once with ``--trace 0`` and once with ``--trace 1``
(``--tiny --seconds 1``) and checks that the last line is the result object,
that every check passed and that every metric named in BENCHMARK.json is
emitted with its unit as a finite number. A second traced run of one
workload checks that the exact counts repeat. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = ("digraph.coarse_scd.calls", "digraph.transitive_closure.calls",
          "liealg.insert.calls", "configspace.numeric_rank.calls",
          "configspace.extend_simplex_with_point.calls", "larc.errors",
          "dynamics.flow_constant.calls", "dynamics.expm.calls",
          "dynamics.gn_iterations", "dynamics.restarts")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {got}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    traced = {}
    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                result = run(w, trace)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as exc:
                problems.append(f"{w} trace={trace}: {exc}")
                continue
            problems += check(result, bench[key], f"{w} trace={trace}")
            if trace:
                traced[w] = result["metrics"]
            print(f"ok {w} trace={trace}: {result['attempted']} attempted", flush=True)
    if "cli" in traced:
        again = run("cli", 1)["metrics"]
        for name in COUNTS:
            if again[name]["value"] != traced["cli"][name]["value"]:
                problems.append(f"cli: {name} differs between two traced runs")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
