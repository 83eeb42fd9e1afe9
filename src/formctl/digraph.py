"""Directed graphs, coarse strong component decompositions, and closures.

Vertices are labeled 1..N throughout, matching the on-disk graph format.
Everything here is exact combinatorics; no floating point. Each graph has
one condensation, an ``ScdReport`` from one Tarjan pass, and every fact of
reachability is read from its reach sets.
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
    """Immutable directed graph without self-loops or duplicate edges.

    The constructor is the one check on vertex input, and it converts
    nothing. ``num_vertices`` is a Python int >= 1; each edge given is a
    hashable (i, j) pair, in practice a tuple, of Python ints with i != j in
    1..N. Bools, floats, strings, numpy integers and list pairs such as
    [1, 2] are refused with InvalidIndices, as are self-loops and vertices
    out of range; convert with int() and tuple() first. The closure and the
    skeleton, made from a graph that passed it, skip it (``_unchecked``).
    """

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]] = ()):
        n = num_vertices
        if type(n) is not int or n < 1:
            raise InvalidIndices(f"num_vertices must be a Python int >= 1, got {n!r}")
        try:
            # every pair given is checked, not the set: (1.0, 2) == (1, 2) would merge
            edges = tuple(edges)
            for i, j in edges:
                if not (type(i) is int and type(j) is int and i != j and 0 < i <= n and 0 < j <= n):
                    raise InvalidIndices(f"edge {i}->{j} must join two distinct vertices in 1..{n}"
                                         if type(i) is type(j) is int else
                                         f"edge {(i, j)!r} needs Python ints; convert with int()")
            self.edges = frozenset(edges)
        except (TypeError, ValueError) as exc:  # not a pair, or unhashable such as [1, 2]
            raise InvalidIndices(f"each edge must be an (i, j) tuple of ints: {exc}") from None
        self.num_vertices = n

    @classmethod
    def _unchecked(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "Digraph":
        """The graph on edges whose vertices come from a checked graph."""
        g = cls.__new__(cls)
        g.num_vertices, g.edges = num_vertices, frozenset(edges)
        return g

    @classmethod
    def complete(cls, n: int) -> "Digraph":
        """The complete digraph K_n: every ordered pair of distinct vertices."""
        return cls(n, [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j])

    @_cached
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbors per vertex, ascending; index 0 holds vertex 1."""
        out: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for i, j in self.edges:
            out[i - 1].append(j)
        return tuple(tuple(sorted(nbrs)) for nbrs in out)

    @_cached
    def _closure(self) -> "Digraph":
        scd = self._scd
        labelled = zip(scd.components, scd.reach)
        # j != i drops the vertex itself, whether or not it lies on a cycle
        return Digraph._unchecked(self.num_vertices, [
            (i, j) for comp, reached in labelled for i in comp for j in reached if j != i])

    @_cached
    def _scd(self) -> "ScdReport":
        """The one condensation, from the one Tarjan pass, weakly connected or not."""
        return ScdReport(self.adjacency, *_tarjan_components(self))

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
    """The coarse strong component decomposition, the one condensation of a digraph.

    Components are labeled 1..q in order of their smallest vertex, each a
    tuple of its vertices ascending. ``reach[label - 1]`` holds the vertices
    R(C) that component C reaches, C included, ascending; ``maximal_set``
    (the components with R(C) = C), the transitive closure and the LARC
    ranks are read from it. The acyclic ``skeleton`` is built only on request.
    One report is cached per graph, weakly connected or not (``coarse_scd``
    refuses one that is not); it keeps the adjacency rather than the graph,
    so the cache forms no reference cycle.
    """

    def __init__(self, adjacency: tuple[tuple[int, ...], ...],
                 emitted: tuple[tuple[int, ...], ...], weakly_connected: bool):
        self.num_vertices = len(adjacency)
        self.components = tuple(sorted(emitted))
        self._adjacency = adjacency
        self._emitted = emitted             # Tarjan's reverse topological order
        self._weakly_connected = weakly_connected

    @_cached
    def component_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.components)

    @_cached
    def _owner(self) -> list[int]:
        """Entry v: the label of vertex v's component; entry 0 is unused."""
        owner = [0] * (self.num_vertices + 1)
        for label, comp in enumerate(self.components, start=1):
            for v in comp:
                owner[v] = label
        return owner

    @_cached
    def reach(self) -> tuple[tuple[int, ...], ...]:
        """Per label, the vertices R(C) its component C reaches, C included, ascending."""
        owner, comps = self._owner, self.components
        masks = [0] * (len(comps) + 1)      # masks[k]: bit l - 1 for each label l that k reaches
        # Tarjan emits a component after every one it reaches, so a mask is final when read
        for comp in self._emitted:
            k = owner[comp[0]]
            mask = 1 << (k - 1)
            for i in comp:
                for j in self._adjacency[i - 1]:
                    mask |= masks[owner[j]]
            masks[k] = mask
        reach = []
        for mask in masks[1:]:
            reached: list[int] = []
            while mask:
                low = mask & -mask
                reached.extend(comps[low.bit_length() - 1])
                mask ^= low
            reach.append(tuple(sorted(reached)))
        return tuple(reach)

    @_cached
    def skeleton(self) -> Digraph:
        owner = self._owner
        return Digraph._unchecked(len(self.components), {
            (owner[i], owner[j]) for i, nbrs in enumerate(self._adjacency, 1)
            for j in nbrs if owner[i] != owner[j]})

    @_cached
    def maximal_set(self) -> frozenset[int]:
        return frozenset(w for w, (comp, reached) in enumerate(zip(self.components, self.reach), 1)
                         if len(reached) == len(comp))

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
    if not report._weakly_connected:
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
    if type(n) is not int or n < 1:
        raise InvalidIndices(f"ambient dimension must be a Python int >= 1, got {n!r}")
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
