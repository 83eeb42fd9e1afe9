"""Directed graphs, coarse strong component decompositions, and closures.

Vertices are labeled 1..N throughout, matching the on-disk graph format.
Everything here is exact combinatorics; no floating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .errors import InputFormatError, InvalidIndices, NotWeaklyConnected

__all__ = [
    "Digraph",
    "ScdReport",
    "StructuralKind",
    "StructuralVerdict",
    "coarse_scd",
    "transitive_closure",
    "structural_verdict",
    "parse_graph_text",
    "load_graph",
]


class _cached:
    """Attribute computed on first access and stored on the instance.

    functools.cached_property without its lock, which Python 3.12 dropped
    too. Under Python 3.11 on a 2-core Xeon the lock cost about 1 us per
    first access, close to a tenth of ``coarse_scd`` on a five-vertex graph.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Digraph:
    """Immutable directed graph without self-loops or duplicate edges."""

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        n = int(num_vertices)
        if n < 1:
            raise InvalidIndices(f"num_vertices must be >= 1, got {num_vertices}")
        es = frozenset((int(i), int(j)) for i, j in edges)
        for i, j in es:
            if i == j:
                raise InvalidIndices(f"self-loop {i}->{j} is not allowed")
            if not (1 <= i <= n and 1 <= j <= n):
                raise InvalidIndices(f"edge {i}->{j} out of range 1..{n}")
        self.num_vertices = n
        self.edges = es

    # Digraph.complete / cycle / path cover the constructions used in tests
    # and examples without each caller re-deriving the edge sets.
    @classmethod
    def complete(cls, n: int) -> "Digraph":
        return cls(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j])

    @classmethod
    def cycle(cls, n: int) -> "Digraph":
        return cls(n, [(i, i % n + 1) for i in range(1, n + 1)])

    @classmethod
    def path(cls, n: int) -> "Digraph":
        return cls(n, [(i, i + 1) for i in range(1, n)])

    @_cached
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbors per vertex, ascending; index 0 holds vertex 1."""
        out: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for i, j in self.edges:
            out[i - 1].append(j)
        return tuple(tuple(sorted(nbrs)) for nbrs in out)

    @_cached
    def _tarjan(self) -> tuple[tuple[tuple[int, ...], ...], bool]:
        """The one graph search: strong components in emission order, weak connectivity."""
        return _tarjan_components(self)

    @_cached
    def _reach(self) -> tuple[tuple[int, ...], ...]:
        """Entry v - 1: the vertices v's strong component reaches, its own
        included. The vertices of one component share one tuple."""
        comps, _ = self._tarjan
        owner = [0] * (self.num_vertices + 1)
        for k, comp in enumerate(comps):
            for v in comp:
                owner[v] = k
        # reverse topological order: every successor's reach is final when read
        masks: list[int] = []               # bitmask over component indices
        reach: list[tuple[int, ...]] = [()] * self.num_vertices
        for k, comp in enumerate(comps):
            mask = 1 << k
            for i in comp:
                for j in self.adjacency[i - 1]:
                    c = owner[j]
                    if c != k:
                        mask |= masks[c]
            masks.append(mask)
            reached: list[int] = []
            while mask:
                low = mask & -mask
                reached.extend(comps[low.bit_length() - 1])
                mask ^= low
            shared = tuple(reached)
            for v in comp:
                reach[v - 1] = shared
        return tuple(reach)

    @_cached
    def _closure(self) -> "Digraph":
        # j != i drops the vertex itself, whether or not it lies on a cycle
        return Digraph(self.num_vertices, [(i, j) for i, reached in enumerate(self._reach, 1)
                                           for j in reached if j != i])

    @_cached
    def _scd(self) -> "ScdReport | None":
        """The coarse decomposition, or None when Tarjan's pass finds g not weakly connected."""
        comps, connected = self._tarjan
        if not connected:
            return None
        return ScdReport(self.num_vertices, self.edges, tuple(sorted(comps)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.num_vertices == other.num_vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edges))

    def __repr__(self) -> str:
        return f"Digraph({self.num_vertices}, {sorted(self.edges)})"


def _tarjan_components(g: Digraph) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Maximal strongly connected vertex sets, each sorted ascending, and
    whether g is weakly connected.

    Iterative Tarjan. A component is emitted only after every component it
    reaches, so the emission order is reverse topological. An edge between
    two DFS trees runs from the later tree into an earlier one, which would
    otherwise have entered it, so merging trees along such edges leaves one
    part iff g is weakly connected.
    """
    n = g.num_vertices
    adj = g.adjacency
    index = [0] * n          # 0 = unvisited, else 1-based discovery index
    lowlink = [0] * n
    onstack = [False] * n
    tree = [0] * n           # root of the DFS tree that discovered each vertex
    link = list(range(n))    # union-find over tree roots
    parts = 0                # weak components among the trees so far
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    counter = 1

    def find(a: int) -> int:
        while link[a] != a:
            link[a] = a = link[link[a]]
        return a

    for root in range(n):
        if index[root]:
            continue
        parts += 1
        # each frame: (vertex, iterator position into its neighbor tuple)
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                tree[v] = root
                counter += 1
                stack.append(v)
                onstack[v] = True
            nbrs = adj[v]
            advanced = False
            while pi < len(nbrs):
                w = nbrs[pi] - 1
                pi += 1
                if not index[w]:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
                elif tree[w] != root:
                    # root leads its own part until a later tree's search begins
                    a = find(tree[w])
                    if a != root:
                        link[a] = root
                        parts -= 1
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w + 1)
                    if w == v:
                        break
                comp.sort()
                comps.append(tuple(comp))
            if work:
                u = work[-1][0]
                if lowlink[v] < lowlink[u]:
                    lowlink[u] = lowlink[v]
    return tuple(comps), parts == 1


class ScdReport:
    """Coarse strong component decomposition of a weakly connected digraph.

    Components are labeled 1..q in order of their smallest vertex. ``skeleton``
    is the acyclic digraph of inter-component flows; ``maximal_set`` holds the
    skeleton vertices with no outgoing edges. One report is cached per graph;
    it keeps the graph's vertex count and edge set rather than the graph, so
    the cache forms no reference cycle.
    """

    def __init__(self, num_vertices: int, edges: frozenset[tuple[int, int]],
                 components: tuple[tuple[int, ...], ...]):
        self.num_vertices = num_vertices
        self._edges = edges
        self.components = components

    @_cached
    def component_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    @_cached
    def _component_of(self) -> dict[int, int]:
        owner: dict[int, int] = {}
        for label, comp in enumerate(self.components, start=1):
            for v in comp:
                owner[v] = label
        return owner

    def component_of(self, vertex: int) -> int:
        """1-based label of the component containing ``vertex``."""
        return self._component_of[vertex]

    @_cached
    def skeleton(self) -> Digraph:
        owner = self._component_of
        edges = set()
        for i, j in self._edges:
            ci, cj = owner[i], owner[j]
            if ci != cj:
                edges.add((ci, cj))
        return Digraph(len(self.components), edges)

    @_cached
    def maximal_set(self) -> frozenset[int]:
        sources = {i for i, _ in self.skeleton.edges}
        return frozenset(w for w in range(1, len(self.components) + 1) if w not in sources)

    def __repr__(self) -> str:
        return f"ScdReport(components={self.components})"


def coarse_scd(g: Digraph) -> ScdReport:
    """Unique minimum-cardinality partition into induced strongly connected parts.

    The maximal strongly connected components realize it: any partition whose
    parts induce strongly connected subgraphs refines the maximal components,
    so no partition can be coarser, and equality forces part = component.

    Computed once per graph, from the Tarjan pass that also decides weak
    connectivity, and shared by every caller. Raises NotWeaklyConnected when
    that pass leaves more than one weak component.
    """
    report = g._scd
    if report is None:
        raise NotWeaklyConnected(f"graph on {g.num_vertices} vertices is not weakly connected")
    return report


def transitive_closure(g: Digraph) -> Digraph:
    """Digraph with an edge i->j wherever g has a nonempty path, i != j.

    Computed once per graph from the reach sets of the component
    condensation: vertices of one strongly connected component of size >= 2
    see each other, and a component sees every vertex of every component
    reachable from it.
    """
    return g._closure


class StructuralKind(enum.Enum):
    GENERICALLY_CONTROLLABLE = "generically-controllable"
    CONTROLLABLE_SET_EMPTY = "controllable-set-empty"
    CONTROLLABLE_SET_DISCONNECTED = "controllable-set-disconnected"


@dataclass(frozen=True)
class StructuralVerdict:
    """Outcome of the size test on maximal components for ambient dimension n.

    ``offending_components`` lists the maximal components whose vertex count
    is at most n+1 (ascending); empty when generically controllable.
    """

    kind: StructuralKind
    offending_components: tuple[int, ...]


def structural_verdict(g: Digraph, n: int) -> StructuralVerdict:
    """Classify g for agents in R^n by the sizes of its maximal components.

    Generically controllable when every maximal component has more than n+1
    vertices; the controllable set is empty when some maximal component has
    at most n vertices, and disconnected when the smallest maximal component
    has exactly n+1.
    """
    if n < 1:
        raise InvalidIndices(f"ambient dimension must be >= 1, got {n}")
    scd = coarse_scd(g)
    sizes = scd.component_sizes
    offending = tuple(sorted(w for w in scd.maximal_set if sizes[w - 1] <= n + 1))
    if not offending:
        kind = StructuralKind.GENERICALLY_CONTROLLABLE
    elif any(sizes[w - 1] <= n for w in offending):
        kind = StructuralKind.CONTROLLABLE_SET_EMPTY
    else:
        kind = StructuralKind.CONTROLLABLE_SET_DISCONNECTED
    return StructuralVerdict(kind, offending)


# -- text format -----------------------------------------------------------

def parse_graph_text(text: str) -> Digraph:
    """Parse the graph format: header ``N <count>``, one ``i j`` line per edge.

    Lines starting with ``#`` and blank lines are ignored.
    """
    num_vertices = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if num_vertices is None:
            if len(parts) != 2 or parts[0] != "N":
                raise InputFormatError(f"line {lineno}: expected header 'N <count>', got {raw!r}")
            try:
                num_vertices = int(parts[1])
            except ValueError:
                raise InputFormatError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            continue
        if len(parts) != 2:
            raise InputFormatError(f"line {lineno}: expected '<i> <j>', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: bad edge {raw!r}") from None
        edges.append((i, j))
    if num_vertices is None:
        raise InputFormatError("missing 'N <count>' header")
    try:
        return Digraph(num_vertices, edges)
    except InvalidIndices as exc:
        raise InputFormatError(str(exc)) from None


def load_graph(path) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())
