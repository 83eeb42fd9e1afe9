"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's algorithms: reachability is
a plain DFS, decompositions come from enumerating set partitions, and spans
are compared through numpy rank computations on stacked matrices. Affine
hulls (``affine_hull``, an ``AffineFlat`` each), their intersections
(``intersect_affine``) and the distance between two flats
(``subspace_distance``) check the simplex face identities. The directed
cycle and path (``cycle_graph``, ``path_graph``) are built here.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from formctl.configspace import (
    Configuration,
    _rank_of,
    find_nondegenerate_simplex,
    in_controllable_set,
    numeric_rank,
)
from formctl.digraph import (
    Digraph,
    ScdReport,
    StructuralKind,
    coarse_scd,
    structural_verdict,
    transitive_closure,
)
from formctl.dynamics import Trajectory, expm
from formctl.errors import (
    InvalidIndices,
    NotInControllableSet,
    SizeMismatch,
    StructuralFailure,
)
from formctl.larc import WitnessBasis, WitnessVector
from formctl.liealg import EdgeGenerator, ZeroRowSumMatrix


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def cycle_graph(n: int) -> Digraph:
    """The directed cycle 1 -> 2 -> ... -> n -> 1."""
    return Digraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n: int) -> Digraph:
    """The directed path 1 -> 2 -> ... -> n."""
    return Digraph(n, [(i, i + 1) for i in range(1, n)])


def random_connected_digraph(rng: random.Random, n: int, extra: float = 0.3) -> Digraph:
    """Random weakly connected digraph: oriented random tree plus extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[rng.randrange(k)], order[k]
        edges.add((a, b) if rng.random() < 0.5 else (b, a))
    for e in all_pairs(n):
        if rng.random() < extra:
            edges.add(e)
    return Digraph(n, edges)


@st.composite
def digraphs(draw, min_n: int = 2, max_n: int = 6, connected: bool = True):
    n = draw(st.integers(min_n, max_n))
    pairs = all_pairs(n)
    edges = set(draw(st.sets(st.sampled_from(pairs)))) if pairs else set()
    if connected and n > 1:
        order = draw(st.permutations(range(1, n + 1)))
        for k in range(1, n):
            parent = order[draw(st.integers(0, k - 1))]
            child = order[k]
            if draw(st.booleans()):
                edges.add((parent, child))
            else:
                edges.add((child, parent))
    return Digraph(n, edges)


# -- independent digraph oracles ------------------------------------------

def reachable_within(g: Digraph, part: frozenset[int], start: int) -> set[int]:
    out: dict[int, list[int]] = {v: [] for v in part}
    for i, j in g.edges:
        if i in part and j in part:
            out[i].append(j)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def part_strongly_connected(g: Digraph, part: frozenset[int]) -> bool:
    """Induced subgraph on ``part`` is strongly connected (size 1 counts)."""
    if len(part) == 1:
        return True
    start = next(iter(part))
    if reachable_within(g, part, start) != part:
        return False
    rev = Digraph(g.num_vertices, [(j, i) for i, j in g.edges])
    return reachable_within(rev, part, start) == part


def set_partitions(items: list[int]):
    """All partitions of ``items`` as lists of frozensets."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [sub[k] | {head}] + sub[k + 1:]
        yield [frozenset({head})] + sub


def minimum_scd_partitions(g: Digraph) -> list[frozenset[frozenset[int]]]:
    """Every minimum-cardinality partition into strongly connected parts."""
    best: list[frozenset[frozenset[int]]] = []
    best_size = g.num_vertices + 1
    for partition in set_partitions(list(range(1, g.num_vertices + 1))):
        if len(partition) > best_size:
            continue
        if all(part_strongly_connected(g, part) for part in partition):
            if len(partition) < best_size:
                best_size = len(partition)
                best = [frozenset(partition)]
            else:
                best.append(frozenset(partition))
    return best


def edge_reachability(g: Digraph) -> set[tuple[int, int]]:
    """Pairs (i, j), i != j, joined by a nonempty path; plain per-vertex DFS."""
    pairs = set()
    everything = frozenset(range(1, g.num_vertices + 1))
    out = {v: [] for v in everything}
    for i, j in g.edges:
        out[i].append(j)
    for s in everything:
        seen: set[int] = set()
        stack = list(out[s])
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(out[v])
        for t in seen:
            if t != s:
                pairs.add((s, t))
    return pairs


def is_weakly_connected(g: Digraph) -> bool:
    """True iff the undirected shadow of g is connected (vacuously for N=1)."""
    n = g.num_vertices
    shadow: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.edges:
        shadow[i - 1].append(j - 1)
        shadow[j - 1].append(i - 1)
    seen = {0}
    stack = [0]
    while stack:
        for w in shadow[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def verify_scd_closure_commutation(g: Digraph) -> bool:
    """Check that decomposition and transitive closure commute for g.

    True iff the closure has the same component partition, every closed
    component is complete, and the closure's skeleton equals the transitive
    closure of g's skeleton.
    """
    scd = coarse_scd(g)
    closed = transitive_closure(g)
    scd_closed = coarse_scd(closed)
    if scd_closed.components != scd.components:
        return False
    for comp in scd_closed.components:
        for i in comp:
            for j in comp:
                if i != j and (i, j) not in closed.edges:
                    return False
    return scd_closed.skeleton == transitive_closure(scd.skeleton)


def skeleton_sinks(scd: ScdReport) -> frozenset[int]:
    """Labels of the components without an outgoing skeleton edge."""
    sources = {i for i, _ in scd.skeleton.edges}
    return frozenset(w for w in range(1, len(scd.components) + 1) if w not in sources)


# -- symbolic brackets, the case table checked against dense commutators ---

class GeneratorCombination:
    """Integer linear combination of edge generators, keyed by (i, j)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] = ()):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in dict(terms).items():
            if i == j:
                raise InvalidIndices(f"combination key ({i}, {j}) has i = j")
            c = int(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        object.__setattr__(self, "terms", clean)

    def dense(self, size: int) -> ZeroRowSumMatrix:
        # each diagonal entry is minus its row's sum of coefficients
        arr = np.zeros((size, size), dtype=object)
        for (i, j), c in self.terms.items():
            if not (1 <= i <= size and 1 <= j <= size):
                raise InvalidIndices(f"edge {i}->{j} out of range 1..{size}")
            arr[i - 1, j - 1] += c
            arr[i - 1, i - 1] -= c
        return ZeroRowSumMatrix(arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorCombination):
            return NotImplemented
        return self.terms == other.terms

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorCombination is immutable")

    def __repr__(self) -> str:
        items = ", ".join(f"A_{i}{j}: {c:+d}" for (i, j), c in sorted(self.terms.items()))
        return f"GeneratorCombination({{{items}}})"


def structural_bracket(a: EdgeGenerator, b: EdgeGenerator) -> GeneratorCombination:
    """Symbolic commutator of two edge generators, from the case table.

    Covers every index pattern; the 2-cycle pair gives [A_ij, A_ji] = A_ji - A_ij.
    """
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")
    i, j, p, q = a.i, a.j, b.i, b.j
    if (i, j) == (p, q):
        terms = {}
    elif j == p and q == i:
        terms = {(j, i): 1, (i, j): -1}
    elif i == p:
        terms = {(i, j): 1, (i, q): -1}
    elif j == p:
        terms = {(i, q): 1, (i, j): -1}
    elif q == i:
        terms = {(p, i): 1, (p, j): -1}
    else:
        terms = {}
    return GeneratorCombination(terms)


# -- matrices and spans ----------------------------------------------------

def random_zero_row_sum(rng: random.Random, n: int, lo: int = -3, hi: int = 3) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i, j] = rng.randint(lo, hi)
        m[i, i] = -m[i].sum()
    return m


def span_rank(mats: list[np.ndarray]) -> int:
    if not mats:
        return 0
    stacked = np.stack([m.reshape(-1) for m in mats]).astype(float)
    return int(np.linalg.matrix_rank(stacked, tol=1e-9))


def same_span(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    ra, rb = span_rank(a), span_rank(b)
    return ra == rb == span_rank(a + b)


def stacked_field_rank(p, g: Digraph, tol: float = 1e-9) -> int:
    """Rank of every control field D(A_ij) p over the reachable pairs of g.

    The fields are stacked into one (nN x pairs) matrix and ranked as a whole,
    with no per-agent split; singular values count above tol times the largest.
    """
    cols = []
    for i, j in sorted(edge_reachability(g)):
        col = np.zeros(p.n * p.N)
        col[np.arange(p.n) * p.N + (i - 1)] = p.agents[j - 1] - p.agents[i - 1]
        cols.append(col)
    if not cols:
        return 0
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0


def larc_per_agent(p, g: Digraph) -> tuple[tuple[int, ...], int]:
    """Per-agent LARC ranks rank{x_j - x_i} over agent i's out-neighbours in
    the transitive closure, one SVD per agent, and the closure's edge count."""
    closed = transitive_closure(g)
    pts = p.agents
    ranks = tuple(numeric_rank((pts[[j - 1 for j in closed.adjacency[i - 1]]] - pts[i - 1]).T)
                  for i in range(1, p.N + 1))
    return ranks, len(closed.edges)


def witness_per_agent(p: Configuration, g: Digraph):
    """The witness basis ranked one agent and one face at a time.

    Each agent tries the faces of its simplex in turn, one ``numeric_rank``
    per face, and the first failing agent is refused as soon as it is met.
    """
    n = p.n
    scd = coarse_scd(g)
    verdict = structural_verdict(g, n)
    if verdict.kind is not StructuralKind.GENERICALLY_CONTROLLABLE:
        raise StructuralFailure(
            f"graph verdict is {verdict.kind.value}; offending maximal components "
            f"{list(verdict.offending_components)}")
    membership = in_controllable_set(p, scd)
    if not membership:
        failing = [w for w, r in membership.component_ranks if r != n]
        raise NotInControllableSet(
            f"maximal components {failing} are degenerate at this configuration")

    pts = p.agents
    fields = np.zeros((n * p.N, n * p.N))   # one row per field, n rows per agent
    labels: list[tuple[str, int, tuple[int, int]]] = []

    def leave_one_out(rows: np.ndarray, x: np.ndarray, drops) -> tuple[int, ...] | None:
        for drop in drops:
            keep = [k for k in range(len(rows)) if k != drop - 1]
            if numeric_rank((rows[keep] - x).T) == x.size:
                return tuple(k + 1 for k in keep)
        return None

    def attach(kind: str, w: int, i: int, simplex: tuple[int, ...], drops) -> None:
        kept = leave_one_out(pts[[a - 1 for a in simplex]], pts[i - 1], drops)
        if kept is None:
            raise StructuralFailure(f"witness fields of agent {i} are numerically dependent")
        targets = [simplex[l - 1] for l in kept]
        rows = slice(len(labels), len(labels) + n)
        fields[rows, np.arange(n) * p.N + (i - 1)] = pts[[j - 1 for j in targets]] - pts[i - 1]
        labels.extend((kind, w, (i, j)) for j in targets)

    maximal = sorted(scd.maximal_set)
    reach = edge_reachability(g)
    simplices: dict[int, tuple[int, ...]] = {}
    for w in maximal:
        comp = scd.components[w - 1]
        local = find_nondegenerate_simplex(p.subconfiguration(comp))
        simplex = simplices[w] = tuple(comp[l - 1] for l in local)
        for k, a in enumerate(simplex, start=1):
            attach("simplex", w, a, simplex, [k])

    for j in sorted(set(range(1, p.N + 1)).difference(*simplices.values())):
        w = next(k for k, comp in enumerate(scd.components, 1) if j in comp)
        if w not in scd.maximal_set:
            # smallest-label maximal component that j reaches
            w = next(m for m in maximal if (j, scd.components[m - 1][0]) in reach)
        attach("attachment", w, j, simplices[w], range(1, n + 2))
    fields.setflags(write=False)
    vectors = tuple(WitnessVector(*label, row) for label, row in zip(labels, fields))
    return WitnessBasis(n, p.N, vectors, fields.T)


def sink_component_graph(rng: random.Random, n_comps: int, comp_sizes: list[int]) -> Digraph:
    """Weakly connected digraph whose maximal components have the given sizes.

    The first ``len(comp_sizes)`` components are cycles of those sizes; the
    rest are single vertices feeding into them. With several sinks at least
    one feeder is forced so the graph stays weakly connected, bumping
    ``n_comps`` if needed.
    """
    feeders_needed = 1 if len(comp_sizes) > 1 else 0
    n_comps = max(n_comps, len(comp_sizes) + feeders_needed)
    labels: list[list[int]] = []
    next_v = 1
    for size in comp_sizes:
        labels.append(list(range(next_v, next_v + size)))
        next_v += size
    for _ in range(n_comps - len(comp_sizes)):
        labels.append([next_v])
        next_v += 1
    edges: set[tuple[int, int]] = set()
    for comp in labels:
        if len(comp) > 1:
            for a, b in zip(comp, comp[1:] + comp[:1]):
                edges.add((a, b))
            for a, b in combinations(comp, 2):
                if rng.random() < 0.3:
                    edges.add((a, b))
    # the first feeder touches every sink so two sinks never end up in
    # separate weak components; later feeders pick targets at random
    for k in range(len(comp_sizes), len(labels)):
        if k == len(comp_sizes):
            for target in range(len(comp_sizes)):
                edges.add((labels[k][0], labels[target][0]))
        else:
            edges.add((labels[k][0], labels[rng.randrange(len(comp_sizes))][0]))
        for other in range(len(comp_sizes), k):
            if rng.random() < 0.3:
                edges.add((labels[k][0], labels[other][0]))
    return Digraph(next_v - 1, edges)


def lift_block_diagonal(a, n: int) -> np.ndarray:
    """Matrix of D(a) = Diag(a, ..., a) with n blocks, acting coordinate-major."""
    return np.kron(np.eye(n, dtype=np.int64), a.array)


def forward_jacobian(shooting, fwd) -> np.ndarray:
    """Shooting Jacobian in forward form, the oracle for the adjoint one.

    Column (s, e) is x_{s-1} (Suf_s L(hM_s, hA_e))^T with the suffix product
    Suf_s = E_S ... E_{s+1} and L the Frechet derivative of the exponential,
    read from the Van Loan blocks [[hM_s, hA_e], [0, hM_s]]: S E blocks, one
    per (segment, edge).
    """
    S, (E, N, _) = shooting.segments, shooting.h_generators.shape
    blocks = np.zeros((S, E, 2 * N, 2 * N))
    blocks[:, :, :N, :N] = fwd.hm[:, None]
    blocks[:, :, N:, N:] = fwd.hm[:, None]
    blocks[:, :, :N, N:] = shooting.h_generators
    frechet = expm(blocks)[:, :, :N, N:]
    suffix = np.empty_like(fwd.exps)
    suffix[-1] = np.eye(N)
    for s in range(S - 1, 0, -1):
        suffix[s - 1] = suffix[s] @ fwd.exps[s]
    d_exps = suffix[:, None] @ frechet
    cols = fwd.states[:-1, None] @ d_exps.transpose(0, 1, 3, 2)
    return cols.reshape(S * E, shooting.x0.size).T


def two_k4_sinks(scale: float = 1e-9, seed: int = 0) -> tuple[Digraph, Configuration]:
    """Two K4 sinks fed by source 9, in the plane; the second sink shrunk by scale.

    Each agent's fields still span R^2 at their own scale, but the smallest
    singular values of the whole witness matrix fall below RANK_TOL times
    its largest.
    """
    edges = [(a, b) for block in (range(1, 5), range(5, 9))
             for a in block for b in block if a != b]
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(9, 2))
    pts[4:8] *= scale
    return Digraph(9, edges + [(9, 1), (9, 5)]), Configuration.from_agents(pts)


def far_source_k4() -> tuple[Digraph, Configuration]:
    """A K4 sink at scale 1 fed by agent 5, about 2.3e5 away, through 5 -> 1.

    With x_5, the simplex face {2, 3} has rank 2 as differences from agent 2
    but rank 1 as differences from x_5, the fields agent 5 would emit; the
    face {1, 3} has rank 2 from x_5.
    """
    sink = [[0.5653015835205883, -0.03538384824050378],
            [0.9974851856996167, 0.9573939518361083],
            [0.16970273981238648, -0.983872923043849], [-0.3, 0.4]]
    edges = [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
    return Digraph(5, edges + [(5, 1)]), Configuration.from_agents(
        sink + [[91088.2523649101, 213490.06161589033]])


def border_source_k4(far=(1e3, 300.0)) -> tuple[Digraph, Configuration]:
    """A K4 sink on {2..5}, a unit square scaled to 1e-6, fed by agent 1 at
    ``far`` through 1 -> 2.

    Agent 1 reaches the sink, so its rank is the sink's, 2. Ranked on its
    own, with agent 1 at (1e3, 300), its reach set's second singular value
    falls below RANK_TOL times the first; so does every face agent 1 could
    attach to, and the witness refuses it. At (1e2, 30) both pass.
    """
    edges = [(1, 2)] + [(a, b) for a in range(2, 6) for b in range(2, 6) if a != b]
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) * 1e-6
    return Digraph(5, edges), Configuration.from_agents(np.vstack([far, square]))


def greedy_simplex(p: Configuration) -> tuple[int, ...] | None:
    """The simplex search one agent at a time: keep each agent, in index
    order, whose differences with the kept ones (from agent 1) raise the
    rank, until it reaches n; None when it never does."""
    pts = p.agents
    chosen, rank = [0], 0
    for i in range(1, p.N):
        if rank == p.n:
            break
        r = numeric_rank((pts[chosen[1:] + [i]] - pts[0]).T)
        if r > rank:
            chosen.append(i)
            rank = r
    return tuple(i + 1 for i in chosen) if rank == p.n else None


# -- affine oracles ---------------------------------------------------------

def extended_matrix_rank(p: Configuration) -> int:
    """Rank of the N x (n+1) matrix whose columns are 1, x^1, ..., x^n."""
    xe = np.column_stack([np.ones(p.N), p.coords.reshape(p.n, p.N).T])
    return numeric_rank(xe)


class AffineFlat:
    """The affine subspace base_point + span(basis), basis columns orthonormal."""

    def __init__(self, base_point: np.ndarray, basis: np.ndarray):
        self.base_point = base_point
        self.basis = basis
        self.ambient, self.dim = basis.shape

    def distance(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.base_point
        return float(np.linalg.norm(d - self.basis @ (self.basis.T @ d)))


def affine_hull(points: Sequence) -> AffineFlat:
    """Smallest flat containing the points; its dimension is their rank."""
    pts = np.asarray(points, dtype=float)
    u, s, _ = np.linalg.svd((pts[1:] - pts[0]).T, full_matrices=False)
    return AffineFlat(pts[0], u[:, :_rank_of(s)])


def subspace_distance(a: AffineFlat, b: AffineFlat) -> float:
    """Zero iff the flats coincide: compares projectors and base points."""
    gap = float(np.linalg.norm(a.basis @ a.basis.T - b.basis @ b.basis.T, 2))
    return max(gap, a.distance(b.base_point), b.distance(a.base_point))


def intersect_affine(subspaces: Sequence[AffineFlat]) -> AffineFlat | None:
    """Common intersection, or None when the flats share no point.

    A candidate point from stacked least squares is accepted when its
    distance to every flat is at most 1e-8 * (1 + scale), with scale the
    largest coordinate magnitude involved. Besides the rank rule, that bound
    is the only threshold the result depends on.
    """
    subs = list(subspaces)
    if not subs:
        raise ValueError("intersect_affine needs at least one flat")
    ambient = subs[0].ambient
    # stack the normal-space conditions P_m (x - b_m) = 0
    projectors = [np.eye(ambient) - s.basis @ s.basis.T for s in subs]
    a = np.vstack(projectors)
    rhs = np.concatenate([pr @ s.base_point for pr, s in zip(projectors, subs)])
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    scale = max(
        [float(np.max(np.abs(s.base_point), initial=0.0)) for s in subs]
        + [float(np.max(np.abs(x), initial=0.0))])
    if any(s.distance(x) > 1e-8 * (1.0 + scale) for s in subs):
        return None
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    dim = ambient - _rank_of(sv)
    basis = vt[ambient - dim:].T if dim else np.zeros((ambient, 0))
    return AffineFlat(x, basis)


# -- file format halves the library itself never needs ---------------------

def format_graph_text(g: Digraph) -> str:
    lines = [f"N {g.num_vertices}"]
    lines.extend(f"{i} {j}" for i, j in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_trajectory_csv(text: str) -> Trajectory:
    """Read the CSV `t,agent,x1..xn` written by format_trajectory_csv."""
    by_time: dict[float, list[list[float]]] = {}
    for line in text.splitlines()[1:]:
        t, _, *coords = line.split(",")
        by_time.setdefault(float(t), []).append([float(x) for x in coords])
    times = sorted(by_time)
    return Trajectory(tuple(times),
                      tuple(Configuration.from_agents(by_time[t]) for t in times))


def rank_k_near(center, k: int, chosen: tuple[int, ...],
                rng: np.random.Generator, magnitude: float = 0.05):
    """Perturb center within the rank-k stratum: move the chosen agents
    freely and keep the rest at (perturbed) affine combinations of them."""
    pts = center.agents.copy()
    weights = {}
    base = pts[chosen[0] - 1]
    anchors = pts[[i - 1 for i in chosen]]
    diffs = (anchors[1:] - anchors[0]).T
    for i in range(1, center.N + 1):
        if i not in chosen:
            w, *_ = np.linalg.lstsq(diffs, pts[i - 1] - base, rcond=None)
            weights[i] = w + magnitude * rng.standard_normal(k)
    pts[[i - 1 for i in chosen]] += magnitude * rng.standard_normal((k + 1, center.n))
    new_anchors = pts[[i - 1 for i in chosen]]
    new_diffs = (new_anchors[1:] - new_anchors[0]).T
    for i, w in weights.items():
        pts[i - 1] = new_anchors[0] + new_diffs @ w
    return Configuration.from_agents(pts)
