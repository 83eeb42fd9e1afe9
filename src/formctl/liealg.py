"""Exact arithmetic on zero row-sum matrices and their Lie algebra closures.

All matrices here carry integer entries and zero row sums, so every question
about spans and brackets can be answered exactly. Independence bookkeeping
runs over the off-diagonal coordinates: a zero row-sum matrix is determined
by its off-diagonal part, and in those coordinates the edge generators form
the standard lattice basis.

Arithmetic stays in int64 while safe and falls back to Python integers when
a product or a row sum could overflow, so results are exact at any
coefficient size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping

import numpy as np

from .digraph import Digraph
from .errors import (
    EmptyGeneratorSet,
    InvalidIndices,
    NotZeroRowSum,
    RankMismatch,
    SizeMismatch,
)

__all__ = [
    "ZeroRowSumMatrix",
    "EdgeGenerator",
    "GeneratorCombination",
    "LieBasis",
    "edge_generators",
    "bracket",
    "structural_bracket",
    "lie_closure",
    "span_equal",
    "span_contains",
    "IntRowEchelon",
]

# int64 products are computed only when operands fit under this bound;
# otherwise the computation switches to Python integers.
_INT64_SAFE = 2**62


def _abs_max(arr: np.ndarray) -> int:
    """Largest |entry| of an int64 array; np.abs would wrap -2^63 to itself."""
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _as_int_array(entries) -> np.ndarray:
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SizeMismatch(f"expected a square matrix, got shape {arr.shape}")
    if arr.dtype == object:
        if not all(isinstance(x, int) for x in arr.reshape(-1)):
            raise NotZeroRowSum("entries must be integers")
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise NotZeroRowSum("entries must be integers")
        arr = rounded
    return arr.astype(np.int64, copy=True)


class ZeroRowSumMatrix:
    """Square integer matrix whose rows each sum to zero."""

    __slots__ = ("array",)

    def __init__(self, entries):
        arr = _as_int_array(entries)
        # row sums are bounded by max |entry| times n; past that, exact ints
        wide = arr.dtype != object and _abs_max(arr) * arr.shape[0] >= _INT64_SAFE
        sums = (arr.astype(object) if wide else arr).sum(axis=1)
        if np.any(sums != 0):
            bad = int(np.flatnonzero(sums)[0]) + 1
            raise NotZeroRowSum(f"row {bad} sums to {sums[bad - 1]}, expected 0")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @property
    def size(self) -> int:
        return self.array.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZeroRowSumMatrix):
            return NotImplemented
        return self.size == other.size and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.size, self.array.tobytes() if self.array.dtype != object
                     else tuple(map(int, self.array.reshape(-1)))))

    def __setattr__(self, name, value):
        raise AttributeError("ZeroRowSumMatrix is immutable")

    def __repr__(self) -> str:
        return f"ZeroRowSumMatrix({self.array.tolist()})"


@dataclass(frozen=True)
class EdgeGenerator:
    """Symbolic generator for edge i -> j on ``size`` vertices.

    Densifies to a matrix whose only nonzero row is row i: -1 in column i
    and +1 in column j.
    """

    i: int
    j: int
    size: int

    def __post_init__(self):
        if self.i == self.j:
            raise InvalidIndices(f"edge generator needs i != j, got {self.i}")
        if not (1 <= self.i <= self.size and 1 <= self.j <= self.size):
            raise InvalidIndices(
                f"edge {self.i}->{self.j} out of range 1..{self.size}")

    def dense(self) -> ZeroRowSumMatrix:
        arr = np.zeros((self.size, self.size), dtype=np.int64)
        arr[self.i - 1, self.i - 1] = -1
        arr[self.i - 1, self.j - 1] = 1
        return ZeroRowSumMatrix(arr)


def edge_generators(g: Digraph) -> list[EdgeGenerator]:
    """One generator per edge of g, sorted by (i, j)."""
    return [EdgeGenerator(i, j, g.num_vertices) for i, j in sorted(g.edges)]


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
        row_abs: dict[int, int] = {}
        for (i, _), c in self.terms.items():
            row_abs[i] = row_abs.get(i, 0) + abs(c)
        huge = max(row_abs.values(), default=0) >= _INT64_SAFE
        arr = np.zeros((size, size), dtype=object if huge else np.int64)
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


def _bracket_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype == object or b.dtype == object:
        return a @ b - b @ a
    bound = int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0)) * a.shape[0]
    if 2 * bound >= _INT64_SAFE:
        ao = a.astype(object)
        bo = b.astype(object)
        return ao @ bo - bo @ ao
    return a @ b - b @ a


def bracket(a: ZeroRowSumMatrix, b: ZeroRowSumMatrix) -> ZeroRowSumMatrix:
    """Commutator ab - ba; zero row sums are preserved."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")
    return ZeroRowSumMatrix(_bracket_arrays(a.array, b.array))


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


# -- exact rank bookkeeping ------------------------------------------------

def _gcd_normalize(row: np.ndarray) -> np.ndarray:
    """Divide by the gcd of the entries and make the pivot positive."""
    if row.dtype == object:
        g = 0
        for x in row:
            g = gcd(g, abs(int(x)))
            if g == 1:
                break
        if g > 1:
            row = np.array([int(x) // g for x in row], dtype=object)
        nz = [k for k, x in enumerate(row) if x != 0]
        if nz and row[nz[0]] < 0:
            row = np.array([-int(x) for x in row], dtype=object)
        if all(abs(int(x)) < _INT64_SAFE for x in row):
            row = row.astype(np.int64)
        return row
    g = int(np.gcd.reduce(np.abs(row)))
    if g > 1:
        row = row // g
    nz = np.flatnonzero(row)
    if nz.size and row[nz[0]] < 0:
        row = -row
    return row


def _combine(v: np.ndarray, r: np.ndarray, vp: int, rp: int) -> np.ndarray:
    """rp * v - vp * r, escalating to Python integers when int64 could wrap."""
    if v.dtype != object and r.dtype != object:
        bound = abs(rp) * int(np.abs(v).max(initial=0)) + abs(vp) * int(np.abs(r).max(initial=0))
        if bound < _INT64_SAFE:
            return rp * v - vp * r
    vo = v.astype(object) if v.dtype != object else v
    ro = r.astype(object) if r.dtype != object else r
    return rp * vo - vp * ro


class IntRowEchelon:
    """Incremental exact reduced row-echelon form over integer vectors.

    Rows are gcd-reduced with a positive pivot and kept ordered by pivot
    column; every pivot column is zero in all other rows, so a single
    elimination pass decides membership.
    """

    __slots__ = ("width", "rows", "pivots")

    def __init__(self, width: int):
        self.width = width
        self.rows: list[np.ndarray] = []
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, vec: np.ndarray) -> np.ndarray:
        """Remainder of vec after eliminating against the stored rows."""
        v = vec
        for p, r in zip(self.pivots, self.rows):
            vp = v[p]
            if vp != 0:
                v = _gcd_normalize(_combine(v, r, int(vp), int(r[p])))
        return v

    def insert(self, vec: np.ndarray) -> bool:
        """Adjoin vec if independent of the stored rows; True when rank grew."""
        if vec.shape != (self.width,):
            raise SizeMismatch(f"expected width {self.width}, got {vec.shape}")
        v = self.residual(vec if vec.dtype == object else vec.astype(np.int64))
        nz = np.flatnonzero(v != 0) if v.dtype == object else np.flatnonzero(v)
        if nz.size == 0:
            return False
        v = _gcd_normalize(v)
        pivot = int(nz[0])
        # clear the new pivot column from the existing rows; their own pivots
        # are untouched because v is already zero there
        for k, r in enumerate(self.rows):
            if r[pivot] != 0:
                self.rows[k] = _gcd_normalize(_combine(r, v, int(r[pivot]), int(v[pivot])))
        k = 0
        while k < len(self.pivots) and self.pivots[k] < pivot:
            k += 1
        self.pivots.insert(k, pivot)
        self.rows.insert(k, v)
        return True

    def contains(self, vec: np.ndarray) -> bool:
        v = self.residual(vec if vec.dtype == object else vec.astype(np.int64))
        return not np.any(v != 0)


def _offdiag_coords(arr: np.ndarray) -> np.ndarray:
    """Off-diagonal entries row by row; a bijection on zero row-sum matrices."""
    n = arr.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return arr[mask]


class LieBasis:
    """Ordered, exactly independent zero row-sum matrices of one size."""

    __slots__ = ("size", "elements", "_echelon")

    def __init__(self, size: int, elements: Iterable[ZeroRowSumMatrix]):
        elems = tuple(elements)
        ech = IntRowEchelon(size * (size - 1))
        for m in elems:
            if m.size != size:
                raise SizeMismatch(f"element size {m.size} != basis size {size}")
            if not ech.insert(_offdiag_coords(m.array)):
                raise RankMismatch("basis elements are linearly dependent")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_echelon", ech)

    @property
    def dimension(self) -> int:
        return len(self.elements)

    def __setattr__(self, name, value):
        raise AttributeError("LieBasis is immutable")

    def __repr__(self) -> str:
        return f"LieBasis(size={self.size}, dimension={self.dimension})"


def span_contains(basis: LieBasis, m: ZeroRowSumMatrix) -> bool:
    """Exact membership of m in the span of the basis."""
    if m.size != basis.size:
        raise SizeMismatch(f"sizes differ: {m.size} vs {basis.size}")
    return basis._echelon.contains(_offdiag_coords(m.array))


def span_equal(b1: LieBasis, b2: LieBasis) -> bool:
    """True iff both bases span the same subspace (exact)."""
    if b1.size != b2.size:
        raise SizeMismatch(f"sizes differ: {b1.size} vs {b2.size}")
    if b1.dimension != b2.dimension:
        return False
    return all(span_contains(b1, m) for m in b2.elements)


def lie_closure(generators: Iterable[EdgeGenerator | ZeroRowSumMatrix]) -> LieBasis:
    """Basis of the smallest bracket-closed subspace containing the generators.

    Worklist saturation: keep an exactly independent set, bracket every
    ordered pair once (first-in-first-out), and adjoin brackets that grow the
    rank. Terminates at dimension <= N(N-1).
    """
    gens = list(generators)
    if not gens:
        raise EmptyGeneratorSet("lie_closure needs at least one generator")
    size = gens[0].size
    mats: list[ZeroRowSumMatrix] = []
    for g in gens:
        if g.size != size:
            raise SizeMismatch(f"generator sizes differ: {g.size} vs {size}")
        mats.append(g.dense() if isinstance(g, EdgeGenerator) else g)

    ambient = size * (size - 1)
    ech = IntRowEchelon(ambient)
    basis: list[ZeroRowSumMatrix] = []
    pairs: deque[tuple[int, int]] = deque()
    for m in mats:
        if ech.insert(_offdiag_coords(m.array)):
            basis.append(m)
            k = len(basis) - 1
            pairs.extend((a, k) for a in range(k))

    while pairs and ech.rank < ambient:
        a, b = pairs.popleft()
        cand = ZeroRowSumMatrix(_bracket_arrays(basis[a].array, basis[b].array))
        if ech.insert(_offdiag_coords(cand.array)):
            basis.append(cand)
            k = len(basis) - 1
            pairs.extend((x, k) for x in range(k))
    return LieBasis(size, basis)
