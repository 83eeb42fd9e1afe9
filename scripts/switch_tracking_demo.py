"""Track a moving formation through a graph switch.

Builds a two-segment schedule (the complete digraph, then the same graph
with one edge removed), lays waypoints along a drifting path, plans controls
leg by leg, and reports the deviation at each waypoint. Optionally writes
the planned controls and the sampled trajectory as CSV.
"""

from __future__ import annotations

import argparse

import numpy as np

from formctl.configspace import Configuration
from formctl.digraph import Digraph
from formctl.dynamics import (
    GraphSchedule,
    TrackOptions,
    format_control_schedule_csv,
    format_trajectory_csv,
    track_path,
)


def run(cfg: argparse.Namespace) -> None:
    full = Digraph.complete(cfg.agents)
    pruned = Digraph(cfg.agents, [e for e in full.edges if e != (1, 2)])
    schedule = GraphSchedule(((0.0, full), (cfg.switch_time, pruned)),
                             cfg.horizon)
    rng = np.random.default_rng(cfg.seed)
    agents = rng.standard_normal((cfg.agents, 2))
    step = cfg.horizon / (cfg.waypoints - 1)
    times = [round(k * step, 12) for k in range(cfg.waypoints)]
    if not any(abs(t - cfg.switch_time) < 1e-9 for t in times):
        raise SystemExit("switch time must coincide with a waypoint; "
                         "adjust --waypoints or --switch-time")
    drift = cfg.drift * rng.standard_normal((cfg.agents, 2))
    wps = []
    for t in times:
        wps.append((t, Configuration.from_agents(agents)))
        agents = agents + drift + 0.25 * cfg.drift * rng.standard_normal(
            (cfg.agents, 2))

    result = track_path(schedule, wps, cfg.epsilon,
                        opts=TrackOptions(segments_per_leg=3))
    print(f"schedule: switch at t={cfg.switch_time}, horizon {cfg.horizon}")
    print(f"waypoints: {cfg.waypoints}, epsilon {cfg.epsilon}")
    for leg, res in enumerate(result.leg_residuals):
        print(f"leg {leg:>2} [{times[leg]:.2f}, {times[leg + 1]:.2f}]: "
              f"residual {res:.3e}")
    print(f"max deviation at waypoints: {result.max_deviation:.3e}")
    if cfg.trajectory_out:
        with open(cfg.trajectory_out, "w", encoding="utf-8") as fh:
            fh.write(format_trajectory_csv(result.trajectory))
        print(f"trajectory written to {cfg.trajectory_out}")
    if cfg.controls_out:
        with open(cfg.controls_out, "w", encoding="utf-8") as fh:
            fh.write(format_control_schedule_csv(result.controls))
        print(f"controls written to {cfg.controls_out}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--agents", type=int, default=5)
    parser.add_argument("--waypoints", type=int, default=10)
    parser.add_argument("--horizon", type=float, default=0.9)
    parser.add_argument("--switch-time", type=float, default=0.4)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--drift", type=float, default=0.08)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trajectory-out")
    parser.add_argument("--controls-out")
    run(parser.parse_args())


if __name__ == "__main__":
    main()
