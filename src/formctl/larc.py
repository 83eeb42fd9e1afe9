"""Lie algebra rank condition at a configuration.

The control fields at p are the lifted generators D(A) p for A ranging over
the closure algebra, where D(A) repeats A once per coordinate. By the
closure characterization, their span is determined by the transitive closure
of the interaction graph, and because the field of edge i->j is supported on
agent i's coordinate slots alone, the span dimension decomposes into a sum
of small per-agent ranks. One helper takes those ranks, both for the rank
condition and for the witness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configspace import (
    Configuration,
    find_nondegenerate_simplex,
    extend_simplex_with_point,
    in_controllable_set,
    numeric_rank,
)
from .digraph import (
    Digraph,
    StructuralKind,
    coarse_scd,
    structural_verdict,
    transitive_closure,
)
from .errors import NotInControllableSet, SizeMismatch, StructuralFailure

__all__ = [
    "LarcReport",
    "WitnessVector",
    "WitnessBasis",
    "lie_algebra_at",
    "larc_passes",
    "construct_witness_basis",
    "format_witness_csv",
]


def _field_at(i: int, j: int, p: Configuration) -> np.ndarray:
    """D(A_ij) p: the difference x_j - x_i in agent i's slots, coordinate-major."""
    out = np.zeros(p.n * p.N)
    diff = p.agent(j) - p.agent(i)
    out[np.arange(p.n) * p.N + (i - 1)] = diff
    return out


def _field_rank(pts: np.ndarray, i: int, targets) -> int:
    """rank{x_j - x_i : j in targets}, the span of agent i's fields toward targets."""
    return numeric_rank((pts[[j - 1 for j in targets]] - pts[i - 1]).T)


@dataclass(frozen=True)
class LarcReport:
    """Span dimension of the control fields at one configuration."""

    dimension: int
    required: int
    per_agent_ranks: tuple[int, ...]
    closure_edge_count: int

    @property
    def passes(self) -> bool:
        return self.dimension == self.required


def lie_algebra_at(p: Configuration, g: Digraph) -> LarcReport:
    """Dimension of span{D(A) p : A in the closure algebra of g}.

    Per agent i, the fields of edges i->j in the transitive closure occupy
    agent i's coordinate slots only, so the total dimension is the sum over
    agents of rank{x_j - x_i}.
    """
    if p.N != g.num_vertices:
        raise SizeMismatch(
            f"graph has {g.num_vertices} vertices, configuration has {p.N} agents")
    closed = transitive_closure(g)
    pts = p.agents
    ranks = [_field_rank(pts, i, closed.adjacency[i - 1]) for i in range(1, p.N + 1)]
    return LarcReport(sum(ranks), p.n * p.N, tuple(ranks), len(closed.edges))


def larc_passes(p: Configuration, g: Digraph) -> bool:
    return lie_algebra_at(p, g).passes


@dataclass(frozen=True)
class WitnessVector:
    """One witness field: its value at p and where it came from."""

    kind: str               # "simplex" or "attachment"
    component: int          # maximal component label
    edge: tuple[int, int]   # generating edge i -> j
    values: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class WitnessBasis:
    """Explicit nN independent control fields certifying the rank condition."""

    n: int
    N: int
    vectors: tuple[WitnessVector, ...]

    @property
    def matrix(self) -> np.ndarray:
        """(nN, count) matrix with one witness field per column."""
        return np.column_stack([np.asarray(v.values) for v in self.vectors]) \
            if self.vectors else np.zeros((self.n * self.N, 0))

    def __repr__(self) -> str:
        return f"WitnessBasis(n={self.n}, N={self.N}, count={len(self.vectors)})"


def construct_witness_basis(p: Configuration, g: Digraph) -> WitnessBasis:
    """The explicit nN-vector certificate for a structurally sound pair.

    Per maximal component: a non-degenerate simplex of n+1 of its agents
    contributes the n(n+1) fields of all ordered simplex pairs. Every other
    agent attaches to the smallest-label maximal component it reaches: the
    simplex there is extended with the agent's position and the n fields
    toward the kept simplex agents are emitted. All generating edges lie in
    the transitive closure, so the result spans a subspace of the control
    span. Every agent is the source of exactly n fields in its own slots, so
    the certificate holds iff each agent's n fields have rank n, counted by
    the same per-agent rule as ``lie_algebra_at``.
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
    vectors: list[WitnessVector] = []

    def emit(kind: str, w: int, i: int, targets) -> None:
        if _field_rank(pts, i, targets) != n:
            raise StructuralFailure(f"witness fields of agent {i} are numerically dependent")
        vectors.extend(WitnessVector(kind, w, (i, j), tuple(_field_at(i, j, p)))
                       for j in targets)

    closed = transitive_closure(g)
    maximal = sorted(scd.maximal_set)
    simplices: dict[int, tuple[tuple[int, ...], Configuration]] = {}
    for w in maximal:
        comp = scd.components[w - 1]
        local = find_nondegenerate_simplex(p.subconfiguration(comp))
        simplex = tuple(comp[l - 1] for l in local)
        simplices[w] = (simplex, p.subconfiguration(simplex))
        for a in simplex:
            emit("simplex", w, a, [b for b in simplex if b != a])

    in_simplex = {a for simplex, _ in simplices.values() for a in simplex}
    for j in range(1, p.N + 1):
        if j in in_simplex:
            continue
        w = scd.component_of(j)
        if w not in scd.maximal_set:
            # smallest-label maximal component that j reaches
            w = next(m for m in maximal
                     if (j, scd.components[m - 1][0]) in closed.edges)
        simplex, simplex_conf = simplices[w]
        kept_local = extend_simplex_with_point(simplex_conf, p.agent(j))
        emit("attachment", w, j, [simplex[l - 1] for l in kept_local])
    return WitnessBasis(n, p.N, tuple(vectors))


# -- serialization ---------------------------------------------------------

def format_witness_csv(basis: WitnessBasis) -> str:
    """One vector per row, its provenance label in the trailing column."""
    lines = []
    for v in basis.vectors:
        label = f"{v.kind}:{v.component}:{v.edge[0]}->{v.edge[1]}"
        lines.append(",".join(f"{x:.17g}" for x in v.values) + "," + label)
    return "\n".join(lines) + "\n"
