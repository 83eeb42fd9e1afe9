"""Lie algebra rank condition at a configuration.

The control fields at p are the lifted generators D(A) p for A ranging over
the closure algebra, where D(A) repeats A once per coordinate. By the
closure characterization, their span is determined by the transitive closure
of the interaction graph, and because the field of edge i->j is supported on
agent i's coordinate slots alone, the span dimension decomposes into a sum
of per-agent ranks of the differences x_j - x_i. An agent i of strong
component C reaches exactly R(C), the agents C reaches, C included, so its
rank is dim aff R(C): one rank per labelled component, read from the
condensation's ``ScdReport.reach``, never from the closure's edges. R(C)
contains the reach set of every successor of C, so the rank is monotone
down the condensation: a component with a successor of rank n has rank n
without an SVD. The witness ranks the faces of all agents in batches, at
most one stacked SVD per drop position; the rule is unchanged: every agent
takes the first face of its simplex whose differences from the agent have
rank n. The witness keeps that rule where the rank condition inherits
rank n: an agent far from a small sink passes LARC, yet each face it could
attach to may be too ill conditioned to count as rank n, and the witness
refuses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configspace import (
    _OVERFLOW,
    Configuration,
    _check_spread,
    _face,
    _first_faces,
    _subset_rank,
    find_nondegenerate_simplex,
    in_controllable_set,
)
from .digraph import Digraph, StructuralKind, coarse_scd, structural_verdict
from .errors import Degenerate, NotInControllableSet, SizeMismatch, StructuralFailure

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
    dim aff R(C), taken once per component. R(C) contains R(S) for each
    successor S of C, so a component with a successor of rank n has rank n
    and takes no SVD; the components are walked successors first. The
    others are ranked by ``configuration_rank``, which p keeps, so a
    maximal component ranked by ``in_controllable_set`` is not ranked
    again. g need not be weakly connected.

    Raises SizeMismatch when some coordinate's spread over the agents
    overflows, even if no agent reaches across it.
    """
    if p.N != g.num_vertices:
        raise SizeMismatch(
            f"graph has {g.num_vertices} vertices, configuration has {p.N} agents")
    _check_spread(p)
    scd = g._scd   # the condensation; coarse_scd would refuse a graph not weakly connected
    n, owner, adjacency = p.n, scd._owner, scd._adjacency
    by_label = [0] * (len(scd.components) + 1)
    ranks = [0] * p.N
    closure_edges = 0
    for comp in scd._emitted:      # reverse topological: every successor first
        k = owner[comp[0]]
        reached = scd.reach[k - 1]
        # an edge inside C reads C's own entry, still 0
        full = any(by_label[owner[j]] == n for i in comp for j in adjacency[i - 1])
        rank = by_label[k] = n if full else _subset_rank(p, reached)
        for i in comp:
            ranks[i - 1] = rank
        closure_edges += len(comp) * (len(reached) - 1)
    return LarcReport(sum(ranks), p.n * p.N, tuple(ranks), closure_edges)


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

    Every maximal component's simplex is picked first; then the faces of all
    agents are ranked in batches, at most one stacked SVD per drop position
    (``configspace._first_faces``), and each agent takes the face it would
    take if its faces were ranked one at a time. The fields come simplex
    agents first, by component, then the other agents in ascending label,
    and a refusal names the first agent in that order that no face serves.
    A component whose simplex search fails (Degenerate) is refused after
    the simplex agents of the components before it. Raises SizeMismatch
    when some coordinate's spread over the agents overflows.
    """
    n, N = p.n, p.N
    scd = coarse_scd(g)
    verdict = structural_verdict(g, n)
    if verdict.kind is not StructuralKind.GENERICALLY_CONTROLLABLE:
        raise StructuralFailure(
            f"graph verdict is {verdict.kind.value}; offending maximal components "
            f"{list(verdict.offending_components)}")
    _check_spread(p)
    membership = in_controllable_set(p, scd)
    if not membership:
        failing = [w for w, r in membership.component_ranks if r != n]
        raise NotInControllableSet(
            f"maximal components {failing} are degenerate at this configuration")

    pts = p.agents
    owner, adjacency = scd._owner, scd._adjacency
    maximal = sorted(scd.maximal_set)
    home = [0] * (len(scd.components) + 1)  # by label: smallest-label maximal component reached
    for comp in scd._emitted:               # reverse topological: every successor first
        k = owner[comp[0]]
        home[k] = k if k in scd.maximal_set else \
            min(home[owner[j]] for i in comp for j in adjacency[i - 1] if owner[j] != k)
    home = np.array(home)[owner]            # by agent label
    simplex = np.zeros((len(scd.components) + 1, n + 1), dtype=int)  # by component label
    heads: list[int] = []                   # simplex agents, by component
    degenerate = None
    for w in maximal:
        comp = scd.components[w - 1]
        try:
            local = find_nondegenerate_simplex(p.subconfiguration(comp))
        except Degenerate as exc:
            # refused after the simplex agents of the components before w
            degenerate = exc
            break
        simplex[w] = [comp[l - 1] for l in local]
        heads += simplex[w].tolist()
    # simplex agents by component, then every other agent in ascending label
    order = np.array(heads if degenerate else
                     heads + sorted(set(range(1, N + 1)).difference(heads)), dtype=int)
    own = np.zeros(order.size, dtype=int)
    own[:len(heads)] = np.tile(np.arange(1, n + 2), len(heads) // (n + 1))
    faces = simplex[home[order]]            # per agent, its simplex's agents
    drop = _first_faces(pts[faces - 1], pts[order - 1], own)
    _refuse_first(order, drop)
    if degenerate:
        raise degenerate
    targets = np.take_along_axis(faces, _face(drop, n), axis=1)

    fields = np.zeros((n * N, n * N))   # one row per field, n rows per agent
    fields[np.arange(n * N).reshape(N, n, 1), (np.arange(n) * N + order[:, None] - 1)[:, None]] \
        = pts[targets - 1] - pts[order - 1][:, None]
    fields.setflags(write=False)
    kinds = ["simplex"] * (n * len(heads)) + ["attachment"] * (n * (N - len(heads)))
    vectors = tuple(map(WitnessVector, kinds, np.repeat(home[order], n).tolist(),
                        zip(np.repeat(order, n).tolist(), targets.ravel().tolist()), fields))
    return WitnessBasis(n, N, vectors, fields.T)


def _refuse_first(agents, drop: np.ndarray) -> None:
    """Refuse for the first of the agents whose drop (``_first_faces``) failed."""
    failed = np.flatnonzero(drop <= 0)
    if failed.size:
        if drop[failed[0]] < 0:
            raise SizeMismatch(_OVERFLOW)
        raise StructuralFailure(
            f"witness fields of agent {agents[failed[0]]} are numerically dependent")


# -- serialization ---------------------------------------------------------

def format_witness_csv(basis: WitnessBasis) -> str:
    """One vector per row, its provenance label in the trailing column."""
    lines = []
    for v in basis.vectors:
        label = f"{v.kind}:{v.component}:{v.edge[0]}->{v.edge[1]}"
        lines.append(",".join(f"{x:.17g}" for x in v.values.tolist()) + "," + label)
    return "\n".join(lines) + "\n"
