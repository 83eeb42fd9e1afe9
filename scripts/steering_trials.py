"""Batch steering experiments on the complete digraph.

Draws random start and target configurations, solves each two-point problem
by shooting, and prints the residual distribution, iteration counts, and the
success rate at the requested tolerance.
"""

from __future__ import annotations

import argparse
import warnings
from time import perf_counter

import numpy as np

from formctl.configspace import Configuration
from formctl.digraph import Digraph
from formctl.dynamics import SteerOptions, steer


def run_trials(cfg: argparse.Namespace) -> None:
    g = Digraph.complete(cfg.agents)
    residuals = []
    iterations = []
    times = []
    for trial in range(cfg.trials):
        rng = np.random.default_rng((cfg.seed, trial))
        p0 = Configuration.from_agents(
            rng.standard_normal((cfg.agents, cfg.dimension)))
        p1 = Configuration.from_agents(
            rng.standard_normal((cfg.agents, cfg.dimension)))
        t0 = perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = steer(g, p0, p1, cfg.segments, cfg.horizon,
                           SteerOptions(tolerance=1e-6))
        times.append(perf_counter() - t0)
        residuals.append(result.residual)
        iterations.append(result.iterations)
        flag = "ok" if result.residual <= cfg.success_residual else "MISS"
        print(f"trial {trial:>3}: residual {result.residual:.3e} "
              f"iters {result.iterations:>3} segments {len(result.controls.values)} "
              f"{times[-1]:6.2f}s {flag}")
    residuals = np.array(residuals)
    hits = int((residuals <= cfg.success_residual).sum())
    print(f"\nsuccess {hits}/{cfg.trials} at {cfg.success_residual:g}; "
          f"median residual {np.median(residuals):.3e}; "
          f"median iterations {int(np.median(iterations))}; "
          f"median time {np.median(times):.2f}s")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, default=5)
    parser.add_argument("--dimension", type=int, default=2)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--segments", type=int, default=6)
    parser.add_argument("--horizon", type=float, default=1.0)
    parser.add_argument("--success-residual", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    run_trials(parser.parse_args())


if __name__ == "__main__":
    main()
