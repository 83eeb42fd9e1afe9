"""Survey Lie closure dimensions over random digraphs.

For each sampled graph the closure of the edge generators is compared with
the generator span of the transitive closure, and the dimension is checked
against the closed graph's edge count. Reports agreement counts and timing
per vertex count.
"""

from __future__ import annotations

import argparse
import random
from time import perf_counter

from formctl.digraph import Digraph, transitive_closure
from formctl.liealg import LieBasis, edge_generators, lie_closure, span_equal


def random_connected_digraph(rng: random.Random, n: int, extra: float = 0.3) -> Digraph:
    """Random weakly connected digraph: oriented random tree plus extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[rng.randrange(k)], order[k]
        edges.add((a, b) if rng.random() < 0.5 else (b, a))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < extra:
                edges.add((i, j))
    return Digraph(n, edges)


def survey(cfg: argparse.Namespace) -> None:
    rng = random.Random(cfg.seed)
    print(f"{'N':>3} {'graphs':>7} {'agree':>6} {'mean dim':>9} "
          f"{'mean edges':>11} {'secs':>7}")
    for size in range(cfg.min_vertices, cfg.max_vertices + 1):
        agree = 0
        dims = []
        edge_counts = []
        t0 = perf_counter()
        for _ in range(cfg.graphs_per_size):
            g = random_connected_digraph(rng, size)
            basis = lie_closure(edge_generators(g))
            closed = transitive_closure(g)
            closed_basis = LieBasis(
                size, tuple(e.dense() for e in edge_generators(closed)))
            ok = (basis.dimension == len(closed.edges)
                  and span_equal(basis, closed_basis))
            agree += ok
            dims.append(basis.dimension)
            edge_counts.append(len(g.edges))
        dt = perf_counter() - t0
        print(f"{size:>3} {cfg.graphs_per_size:>7} {agree:>6} "
              f"{sum(dims) / len(dims):>9.2f} "
              f"{sum(edge_counts) / len(edge_counts):>11.2f} {dt:>7.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--graphs-per-size", type=int, default=50)
    parser.add_argument("--min-vertices", type=int, default=3)
    parser.add_argument("--max-vertices", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    survey(parser.parse_args())


if __name__ == "__main__":
    main()
