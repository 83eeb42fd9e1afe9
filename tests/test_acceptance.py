"""Acceptance gate: every headline property, at its stated tolerance.

Each test prints one PASS or FAIL line (visible with pytest -s, or in this
file's captured output). Oracles here are independent of the library:
exhaustive partition search is vectorized numpy over every labeled digraph,
brackets are recomputed densely, and targets for steering are manufactured
by composing known flows.
"""

from __future__ import annotations

import math
import random
import warnings
from contextlib import contextmanager
from itertools import combinations
from time import perf_counter

import numpy as np

from formctl.configspace import (
    Configuration,
    configuration_rank,
    extend_simplex_with_point,
    in_controllable_set,
    local_chart,
    sample_configuration,
)
from formctl.digraph import (
    Digraph,
    StructuralKind,
    coarse_scd,
    structural_verdict,
    transitive_closure,
)
from formctl.dynamics import (
    ControlSchedule,
    GraphSchedule,
    SteerOptions,
    TrackOptions,
    flow_constant,
    simulate,
    steer,
    track_path,
)
from formctl.larc import construct_witness_basis, larc_passes, lie_algebra_at
from formctl.liealg import (
    EdgeGenerator,
    LieBasis,
    bracket,
    edge_generators,
    lie_closure,
    span_equal,
)
from helpers import (
    affine_hull,
    cycle_graph,
    extended_matrix_rank,
    intersect_affine,
    minimum_scd_partitions,
    rank_k_near,
    random_connected_digraph,
    sink_component_graph,
    structural_bracket,
    subspace_distance,
    verify_scd_closure_commutation,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {label}: FAIL", flush=True)
        raise
    print(f"[criterion {num:2d}] {label}: PASS", flush=True)


def test_criterion_01_closure_spans_closed_graph_generators():
    with criterion(1, "lie closure equals the closed graph's span (100 graphs, exact)"):
        rng = random.Random(101)
        t0 = perf_counter()
        for _ in range(100):
            g = random_connected_digraph(rng, rng.randint(3, 8))
            basis = lie_closure(edge_generators(g))
            closed = transitive_closure(g)
            assert basis.dimension == len(closed.edges)
            closed_basis = LieBasis(
                g.num_vertices, tuple(e.dense() for e in edge_generators(closed)))
            assert span_equal(basis, closed_basis)
        assert perf_counter() - t0 < 30.0


def test_criterion_02_bracket_case_table_is_exact():
    with criterion(2, "bracket case table matches dense brackets (all pairs, N <= 6)"):
        t0 = perf_counter()
        for size in range(2, 7):
            pairs = [(i, j) for i in range(1, size + 1)
                     for j in range(1, size + 1) if i != j]
            for (i, j) in pairs:
                for (p, q) in pairs:
                    a = EdgeGenerator(i, j, size)
                    b = EdgeGenerator(p, q, size)
                    dense = bracket(a.dense(), b.dense())
                    assert np.all(dense.array.sum(axis=1) == 0)
                    combo = structural_bracket(a, b)
                    assert np.array_equal(combo.dense(size).array, dense.array)
        assert perf_counter() - t0 < 5.0


def _all_partitions(n: int):
    if n == 1:
        yield (frozenset({0}),)
        return
    for part in _all_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + (part[i] | {n - 1},) + part[i + 1:]
        yield part + (frozenset({n - 1}),)


def _oracle_minimum_partitions(size: int):
    """For every weakly connected labeled digraph on `size` vertices, the
    index of the unique minimum-cardinality partition into strongly connected
    induced subgraphs. Pure numpy; no library code involved.

    Returns (edge slots, masks of weakly connected graphs, partitions,
    winner index per graph).
    """
    slots = [(i, j) for i in range(size) for j in range(size) if i != j]
    total = 1 << len(slots)
    masks = np.arange(total, dtype=np.uint32)
    adj = np.zeros((total, size, size), dtype=bool)
    for b, (i, j) in enumerate(slots):
        adj[:, i, j] = (masks >> np.uint32(b)) & 1

    eye = np.eye(size, dtype=bool)
    reach = adj | adj.transpose(0, 2, 1) | eye
    for k in range(size):
        reach |= reach[:, :, k][:, :, None] & reach[:, k, :][:, None, :]
    weak = np.flatnonzero(reach.all(axis=(1, 2)))

    strong: dict[tuple[int, ...], np.ndarray] = {}
    for r in range(1, size + 1):
        for subset in combinations(range(size), r):
            idx = np.array(subset)
            sub = adj[np.ix_(weak, idx, idx)]
            sub |= np.eye(r, dtype=bool)
            for k in range(r):
                sub |= sub[:, :, k][:, :, None] & sub[:, k, :][:, None, :]
            strong[subset] = sub.all(axis=(1, 2))

    parts = list(_all_partitions(size))
    card = np.array([len(p) for p in parts])
    valid = np.empty((len(parts), weak.size), dtype=bool)
    for pi, part in enumerate(parts):
        v = np.ones(weak.size, dtype=bool)
        for block in part:
            v &= strong[tuple(sorted(block))]
        valid[pi] = v
    card_m = np.where(valid, card[:, None], size + 1)
    min_card = card_m.min(axis=0)
    at_min = card_m == min_card[None, :]
    # the minimal partition must exist and be unique for every graph
    assert (at_min.sum(axis=0) == 1).all()
    winners = at_min.argmax(axis=0)
    return slots, weak, parts, winners


def test_criterion_03_decomposition_matches_exhaustive_search():
    label = ("coarse decomposition equals the unique minimal partition "
             "(all N <= 5, 50 random N = 6)")
    with criterion(3, label):
        t0 = perf_counter()
        single = coarse_scd(Digraph(1))
        assert single.components == ((1,),)
        for size in (2, 3, 4, 5):
            slots, weak, parts, winners = _oracle_minimum_partitions(size)
            index_of = {frozenset(p): pi for pi, p in enumerate(parts)}
            edge_of_bit = [(i + 1, j + 1) for (i, j) in slots]
            bits = len(slots)
            for pos, mask in enumerate(weak):
                m = int(mask)
                edges = [edge_of_bit[b] for b in range(bits) if (m >> b) & 1]
                rep = coarse_scd(Digraph(size, edges))
                key = frozenset(frozenset(v - 1 for v in comp)
                                for comp in rep.components)
                assert index_of[key] == winners[pos]
        rng = random.Random(303)
        for _ in range(50):
            g = random_connected_digraph(rng, 6)
            minima = minimum_scd_partitions(g)
            assert len(minima) == 1
            rep = coarse_scd(g)
            assert frozenset(frozenset(c) for c in rep.components) == minima[0]
        assert perf_counter() - t0 < 60.0


def test_criterion_04_decomposition_commutes_with_closure():
    with criterion(4, "decomposition commutes with transitive closure (100 graphs)"):
        rng = random.Random(404)
        for _ in range(100):
            g = random_connected_digraph(rng, rng.randint(2, 8))
            assert verify_scd_closure_commutation(g)


def _nondegenerate_sample(n: int, N: int, seed: int) -> Configuration:
    for attempt in range(50):
        p = sample_configuration(n, N, seed=seed + 7919 * attempt)
        if configuration_rank(p) == n:
            return p
    raise AssertionError("could not sample a non-degenerate configuration")


def test_criterion_05_minimal_strongly_connected_full_dimension():
    label = "closure algebra dimension is n(n+1) on strongly connected N = n+1"
    with criterion(5, label):
        for n in (1, 2, 3):
            N = n + 1
            for g in (cycle_graph(N), Digraph.complete(N)):
                for trial in range(25):
                    p = _nondegenerate_sample(n, N, seed=1000 * n + trial)
                    report = lie_algebra_at(p, g)
                    assert report.dimension == n * (n + 1)
                    assert report.passes


def _hypothesis_graphs(count: int, seed: int):
    """Graphs whose maximal components all have at least 4 vertices (n = 2)."""
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        sinks = rng.choice([[4], [5], [4, 4], [4, 5]])
        comps = len(sinks) + rng.randint(1, 2)
        g = sink_component_graph(rng, comps, sinks)
        verdict = structural_verdict(g, 2)
        if verdict.kind is StructuralKind.GENERICALLY_CONTROLLABLE:
            graphs.append(g)
    return graphs


def _degenerate_on_component(p: Configuration, comp: tuple[int, ...],
                             rng: np.random.Generator) -> Configuration:
    """Collapse one component's agents onto a line, so its rank drops below 2."""
    pts = p.agents.copy()
    base = pts[comp[0] - 1]
    direction = rng.standard_normal(p.n)
    direction /= np.linalg.norm(direction)
    for pos, v in enumerate(comp):
        pts[v - 1] = base + 0.3 * pos * direction
    return Configuration.from_agents(pts)


def test_criterion_06_rank_condition_on_and_off_the_controllable_set():
    label = ("rank condition: 100/100 pass inside the controllable set, "
             "100/100 fail degenerate (20 graphs)")
    with criterion(6, label):
        graphs = _hypothesis_graphs(20, seed=606)
        rng = np.random.default_rng(607)
        for g in graphs:
            rep = coarse_scd(g)
            maximal = sorted(rep.maximal_set)
            comps = [rep.components[w - 1] for w in maximal]
            passed = failed = 0
            for trial in range(100):
                seed = int(rng.integers(1 << 31))
                p = sample_configuration(2, g.num_vertices, seed=seed)
                while not in_controllable_set(p, rep):
                    seed += 1
                    p = sample_configuration(2, g.num_vertices, seed=seed)
                passed += larc_passes(p, g)
                comp = comps[int(rng.integers(len(comps)))]
                q = _degenerate_on_component(p, comp, rng)
                failed += not larc_passes(q, g)
            assert passed == 100
            assert failed == 100


def test_criterion_07_witness_bases_span_with_block_orthogonality():
    label = "witness bases: nN vectors, rank nN, cross-agent products <= 1e-12"
    with criterion(7, label):
        graphs = _hypothesis_graphs(20, seed=606)
        rng = np.random.default_rng(607)
        for g in graphs:
            rep = coarse_scd(g)
            n, N = 2, g.num_vertices
            for trial in range(100):
                seed = int(rng.integers(1 << 31))
                p = sample_configuration(n, N, seed=seed)
                while not in_controllable_set(p, rep):
                    seed += 1
                    p = sample_configuration(n, N, seed=seed)
                basis = construct_witness_basis(p, g)
                assert len(basis.vectors) == n * N
                mat = basis.matrix
                s = np.linalg.svd(mat, compute_uv=False)
                assert s[-1] > 1e-9 * s[0]
                sources = np.array([v.edge[0] for v in basis.vectors])
                gram = mat.T @ mat
                cross = ~np.equal.outer(sources, sources)
                assert np.abs(gram[cross]).max() <= 1e-12


def test_criterion_08_stratum_charts_and_extended_rank():
    label = ("charts: round trip 1e-10, slice zeros, forced-zero count, "
             "extended rank on 500 samples")
    with criterion(8, label):
        combos = ((4, 2), (5, 2), (5, 3))
        for (N, n) in combos:
            for k in range(n):
                p = sample_configuration(n, N, kind="rank_k", k=k,
                                         seed=800 + 10 * N + k)
                chart = local_chart(p, k)
                forced = chart.forced_zero_indices
                assert len(forced) == (n - k) * (N - k - 1)
                rng = np.random.default_rng(801 + k)
                for _ in range(10):
                    near = Configuration(
                        n, N, p.coords + 0.02 * rng.standard_normal(n * N))
                    v = chart.forward(near)
                    assert np.abs(chart.inverse(v).coords - near.coords).max() < 1e-10
                for _ in range(10):
                    q = rank_k_near(p, k, chart.index_choice, rng)
                    assert configuration_rank(q) == k
                    v = chart.forward(q)
                    assert max(abs(v[i]) for i in forced) < 1e-10
        count = 0
        seed = 0
        while count < 500:
            N, n = combos[count % 3]
            k = count % (n + 1)
            p = sample_configuration(n, N, kind="rank_k", k=k, seed=9000 + seed)
            seed += 1
            assert configuration_rank(p) == k
            assert extended_matrix_rank(p) == k + 1
            count += 1


def test_criterion_09_affine_identities_and_simplex_extension():
    label = ("affine hulls: face intersections match complements, vertex "
             "singletons, empty total, leave-one-out extension")
    with criterion(9, label):
        for n in (2, 3):
            rng = np.random.default_rng(900 + n)
            for trial in range(100):
                p = sample_configuration(n, n + 1, kind="rank_k", k=n,
                                         seed=910 + 1000 * n + trial)
                faces = {i: affine_hull([p.agents[j - 1] for j in range(1, n + 2)
                                         if j != i])
                         for i in range(1, n + 2)}
                all_idx = set(range(1, n + 2))
                for r in range(1, n + 1):
                    for chosen in combinations(sorted(all_idx), r):
                        inter = intersect_affine([faces[i] for i in chosen])
                        rest = sorted(all_idx - set(chosen))
                        hull = affine_hull([p.agents[j - 1] for j in rest])
                        assert inter is not None
                        assert subspace_distance(inter, hull) <= 1e-8
                for i in range(1, n + 2):
                    others = [faces[j] for j in sorted(all_idx - {i})]
                    vertex = intersect_affine(others)
                    assert vertex is not None and vertex.dim == 0
                    assert np.linalg.norm(vertex.base_point - p.agents[i - 1]) <= 1e-8
                assert intersect_affine(list(faces.values())) is None
                x = rng.standard_normal(n)
                kept = extend_simplex_with_point(p, x)
                assert len(kept) == n


def test_criterion_10_flow_exactness():
    with criterion(10, "flows: closed form, semigroup, refinement all within 1e-10"):
        g = Digraph(2, [(1, 2)])
        p = Configuration.from_agents([[2.5], [-1.0]])
        for h in (0.1, 0.9, 2.3):
            q = flow_constant(g, {(1, 2): 1.0}, p, h)
            expect = p.agents[1] + (p.agents[0] - p.agents[1]) * math.exp(-h)
            assert abs(q.agents[0][0] - expect[0]) <= 1e-10
            assert q.agents[1][0] == p.agents[1][0]
        rng = np.random.default_rng(1000)
        for _ in range(50):
            N = int(rng.integers(3, 6))
            gg = Digraph.complete(N)
            u = {e: float(rng.uniform(-1, 1)) for e in gg.edges}
            p0 = Configuration.from_agents(rng.standard_normal((N, 2)))
            h1, h2 = rng.uniform(0.1, 1.0, size=2)
            two = flow_constant(gg, u, flow_constant(gg, u, p0, h1), h2)
            one = flow_constant(gg, u, p0, h1 + h2)
            assert np.abs(two.coords - one.coords).max() <= 1e-10
            sched = GraphSchedule.constant(gg, 1.0)
            cs = ControlSchedule((0.0, 0.5, 1.0), (u, u))
            coarse = simulate(sched, cs, p0, 0.5)
            fine = simulate(sched, cs, p0, 0.05)
            assert np.abs(coarse.final.coords - fine.final.coords).max() <= 1e-10


def _target_from_known_controls(g, p0, segments, T, rng):
    edges = sorted(g.edges)
    theta = rng.uniform(-0.4, 0.4, size=segments * len(edges))
    p = p0
    for s in range(segments):
        u = dict(zip(edges, theta[s * len(edges):(s + 1) * len(edges)]))
        p = flow_constant(g, u, p, T / segments)
    return p


def test_criterion_11_steering_and_tracking():
    label = ("steering: exact recovery <= 1e-8, >= 18/20 random trials <= 1e-3, "
             "switch tracking deviation < 0.05")
    with criterion(11, label):
        g = Digraph.complete(5)
        rng = np.random.default_rng(1100)
        p0 = Configuration.from_agents(rng.standard_normal((5, 2)))
        p1 = _target_from_known_controls(g, p0, 6, 1.0, rng)
        result = steer(g, p0, p1, 6, 1.0)
        assert result.residual <= 1e-8

        successes = 0
        for trial in range(20):
            trial_rng = np.random.default_rng(1200 + trial)
            a = Configuration.from_agents(trial_rng.standard_normal((5, 2)))
            b = Configuration.from_agents(trial_rng.standard_normal((5, 2)))
            t0 = perf_counter()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = steer(g, a, b, 6, 1.0, SteerOptions(tolerance=1e-6))
            assert perf_counter() - t0 < 30.0
            successes += out.residual <= 1e-3
        assert successes >= 18

        g_b = Digraph(5, [e for e in Digraph.complete(5).edges if e != (1, 2)])
        sched = GraphSchedule(((0.0, g), (0.4, g_b)), 0.9)
        path_rng = np.random.default_rng(1300)
        start = Configuration.from_agents(path_rng.standard_normal((5, 2)))
        drift = 0.08 * path_rng.standard_normal((5, 2))
        wps = []
        agents = start.agents
        for k in range(10):
            wps.append((0.1 * k, Configuration.from_agents(agents)))
            agents = agents + drift + 0.02 * path_rng.standard_normal((5, 2))
        track = track_path(sched, wps, 0.05,
                           opts=TrackOptions(segments_per_leg=3))
        assert track.max_deviation < 0.05


def test_criterion_12_rank_monotone_along_simulations():
    with criterion(12, "configuration rank never increases along 200 simulations"):
        rng = random.Random(1212)
        np_rng = np.random.default_rng(1212)
        for sim in range(200):
            g = random_connected_digraph(rng, rng.randint(3, 6))
            N = g.num_vertices
            n = rng.choice([2, 3])
            k = rng.choice([n, n, max(1, n - 1)])
            k = min(k, N - 1)
            p0 = sample_configuration(n, N, kind="rank_k", k=k, seed=sim)
            intervals = rng.randint(2, 4)
            T = 1.0
            grid = tuple(T * m / intervals for m in range(intervals + 1))
            values = tuple(
                {e: float(np_rng.uniform(-1.5, 1.5)) for e in g.edges}
                for _ in range(intervals))
            traj = simulate(GraphSchedule.constant(g, T),
                            ControlSchedule(grid, values), p0, T / intervals / 2)
            ranks = [configuration_rank(s) for s in traj.states]
            assert all(b <= a for a, b in zip(ranks, ranks[1:]))
