"""Lie algebra rank condition at a configuration.

The control fields at p are the lifted generators D(A) p for A ranging over
the closure algebra, where D(A) repeats A once per coordinate. By the
closure characterization, their span is determined by the transitive closure
of the interaction graph, and because the field of edge i->j is supported on
agent i's coordinate slots alone, the span dimension decomposes into a sum
of small per-agent ranks.
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
    ranks = []
    for i in range(1, p.N + 1):
        nbrs = closed.adjacency[i - 1]
        if not nbrs:
            ranks.append(0)
            continue
        diffs = pts[[j - 1 for j in nbrs]] - pts[i - 1]
        ranks.append(numeric_rank(diffs.T))
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


class WitnessBasis:
    """Explicit nN independent control fields certifying the rank condition."""

    __slots__ = ("n", "N", "vectors")

    def __init__(self, n: int, N: int, vectors: tuple[WitnessVector, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "vectors", vectors)

    @property
    def matrix(self) -> np.ndarray:
        """(nN, count) matrix with one witness field per column."""
        return np.column_stack([np.asarray(v.values) for v in self.vectors]) \
            if self.vectors else np.zeros((self.n * self.N, 0))

    def __setattr__(self, name, value):
        raise AttributeError("WitnessBasis is immutable")

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
    span; its rank is checked to be exactly nN.
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

    closed = transitive_closure(g)
    maximal = sorted(scd.maximal_set)
    simplices: dict[int, tuple[int, ...]] = {}
    vectors: list[WitnessVector] = []
    for w in maximal:
        comp = scd.components[w - 1]
        local = find_nondegenerate_simplex(p.subconfiguration(comp))
        simplices[w] = tuple(comp[l - 1] for l in local)
        for a in simplices[w]:
            for b in simplices[w]:
                if a != b:
                    vectors.append(WitnessVector(
                        "simplex", w, (a, b), tuple(_field_at(a, b, p))))

    in_simplex = {a for idx in simplices.values() for a in idx}
    for j in range(1, p.N + 1):
        if j in in_simplex:
            continue
        w = scd.component_of(j)
        if w not in scd.maximal_set:
            # smallest-label maximal component that j reaches
            w = next(m for m in maximal
                     if (j, scd.components[m - 1][0]) in closed.edges)
        simplex_conf = p.subconfiguration(simplices[w])
        kept_local = extend_simplex_with_point(simplex_conf, p.agent(j))
        for l in kept_local:
            k = simplices[w][l - 1]
            vectors.append(WitnessVector(
                "attachment", w, (j, k), tuple(_field_at(j, k, p))))

    basis = WitnessBasis(n, p.N, tuple(vectors))
    if len(vectors) != n * p.N:
        raise StructuralFailure(
            f"witness construction produced {len(vectors)} vectors, expected {n * p.N}")
    if numeric_rank(basis.matrix) != n * p.N:
        raise StructuralFailure("witness vectors are numerically dependent")
    return basis


# -- serialization ---------------------------------------------------------

def format_witness_csv(basis: WitnessBasis) -> str:
    """One vector per row, its provenance label in the trailing column."""
    lines = []
    for v in basis.vectors:
        label = f"{v.kind}:{v.component}:{v.edge[0]}->{v.edge[1]}"
        lines.append(",".join(f"{x:.17g}" for x in v.values) + "," + label)
    return "\n".join(lines) + "\n"
