"""Lie algebra rank condition at a configuration.

The control fields at p are the lifted generators D(A) p for A ranging over
the closure algebra, where D(A) repeats A once per coordinate. By the
closure characterization, their span is determined by the transitive closure
of the interaction graph, and because the field of edge i->j is supported on
agent i's coordinate slots alone, the span dimension decomposes into a sum
of per-agent ranks of the differences x_j - x_i. An agent i of strong
component C reaches exactly R(C), the agents C reaches, C included, so its
rank is dim aff R(C): one rank per component, read from the graph's cached
reach sets, never from the closure's edges. The witness ranks per agent:
every agent takes the first face of its simplex whose differences from the
agent have rank n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configspace import (
    Configuration,
    _check_spread,
    _leave_one_out,
    configuration_rank,
    find_nondegenerate_simplex,
    in_controllable_set,
)
from .digraph import Digraph, StructuralKind, coarse_scd, structural_verdict
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
    agents of rank{x_j - x_i}. For i in strong component C that rank is
    dim aff R(C), taken once per component. g need not be weakly connected.

    Raises SizeMismatch when some coordinate's spread over the agents
    overflows, even if no agent reaches across it.
    """
    if p.N != g.num_vertices:
        raise SizeMismatch(
            f"graph has {g.num_vertices} vertices, configuration has {p.N} agents")
    _check_spread(p)
    reach = g._reach
    ranks = [0] * p.N
    for comp in g._tarjan[0]:
        rank = configuration_rank(p, reach[comp[0] - 1])
        for i in comp:
            ranks[i - 1] = rank
    return LarcReport(sum(ranks), p.n * p.N, tuple(ranks),
                      sum(len(reached) - 1 for reached in reach))


def larc_passes(p: Configuration, g: Digraph) -> bool:
    return lie_algebra_at(p, g).passes


@dataclass(frozen=True, eq=False)
class WitnessVector:
    """One witness field: its value at p and where it came from.

    ``values`` is a read-only view of the field's column in its basis's
    ``matrix``, not a copy.
    """

    kind: str               # "simplex" or "attachment"
    component: int          # maximal component label
    edge: tuple[int, int]   # generating edge i -> j
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class WitnessBasis:
    """Explicit nN independent control fields certifying the rank condition.

    ``matrix`` is the (nN, nN) read-only array with one witness field per
    column, in the order of ``vectors``; each vector's ``values`` is a view
    of its column.
    """

    n: int
    N: int
    vectors: tuple[WitnessVector, ...]
    matrix: np.ndarray

    def __repr__(self) -> str:
        return f"WitnessBasis(n={self.n}, N={self.N}, count={len(self.vectors)})"


def construct_witness_basis(p: Configuration, g: Digraph) -> WitnessBasis:
    """The explicit nN-vector certificate for a structurally sound pair.

    Each maximal component holds a non-degenerate simplex of n+1 agents.
    Every agent takes the first face of a simplex whose differences from the
    agent have rank n and emits the n fields toward it: a simplex agent the
    face opposite itself, any other agent a face of the simplex of the
    smallest-label maximal component it reaches, dropping indices in
    ascending order. All generating edges lie in the transitive closure, so
    the result spans a subspace of the control span; each agent's n fields
    lie in its own slots with rank n, as ``lie_algebra_at`` counts it.
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

    def attach(kind: str, w: int, i: int, simplex: tuple[int, ...], drops) -> None:
        kept = _leave_one_out(pts[[a - 1 for a in simplex]], pts[i - 1], drops)
        if kept is None:
            raise StructuralFailure(f"witness fields of agent {i} are numerically dependent")
        targets = [simplex[l - 1] for l in kept]
        rows = slice(len(labels), len(labels) + n)
        fields[rows, np.arange(n) * p.N + (i - 1)] = pts[[j - 1 for j in targets]] - pts[i - 1]
        labels.extend((kind, w, (i, j)) for j in targets)

    maximal = sorted(scd.maximal_set)
    simplices: dict[int, tuple[int, ...]] = {}
    for w in maximal:
        comp = scd.components[w - 1]
        local = find_nondegenerate_simplex(p.subconfiguration(comp))
        simplex = simplices[w] = tuple(comp[l - 1] for l in local)
        for k, a in enumerate(simplex, start=1):
            attach("simplex", w, a, simplex, [k])

    for j in sorted(set(range(1, p.N + 1)).difference(*simplices.values())):
        w = scd.component_of(j)
        if w not in scd.maximal_set:
            # smallest-label maximal component that j reaches
            w = next(m for m in maximal if scd.components[m - 1][0] in g._reach[j - 1])
        attach("attachment", w, j, simplices[w], range(1, n + 2))
    fields.setflags(write=False)
    vectors = tuple(WitnessVector(*label, row) for label, row in zip(labels, fields))
    return WitnessBasis(n, p.N, vectors, fields.T)


# -- serialization ---------------------------------------------------------

def format_witness_csv(basis: WitnessBasis) -> str:
    """One vector per row, its provenance label in the trailing column."""
    lines = []
    for v in basis.vectors:
        label = f"{v.kind}:{v.component}:{v.edge[0]}->{v.edge[1]}"
        lines.append(",".join(f"{x:.17g}" for x in v.values.tolist()) + "," + label)
    return "\n".join(lines) + "\n"
