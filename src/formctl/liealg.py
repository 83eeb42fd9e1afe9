"""Exact arithmetic on zero row-sum matrices and their Lie algebra closures.

All matrices here carry integer entries and zero row sums, so every question
about spans and brackets can be answered exactly. Independence bookkeeping
runs over the off-diagonal coordinates: a zero row-sum matrix is determined
by its off-diagonal part, and in those coordinates the edge generators form
the standard lattice basis.

Every sum, product, bracket and elimination runs on Python integers, so
results are exact at any coefficient size. Storage is decided in one place:
a matrix's ``array`` is int64 when every entry fits, and an object array of
Python integers otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import Iterable

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
    "LieBasis",
    "edge_generators",
    "bracket",
    "lie_closure",
    "span_equal",
    "span_contains",
    "IntRowEchelon",
]


def _exact(arr: np.ndarray) -> np.ndarray:
    """Copy of an integer array as Python integers; all arithmetic runs on these."""
    return arr.astype(object)


def _as_int_array(entries) -> np.ndarray:
    """Square integer array: int64 when every entry fits, else Python integers."""
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SizeMismatch(f"expected a square matrix, got shape {arr.shape}")
    flat = arr.reshape(-1).tolist()
    try:
        ints = [int(x) for x in flat]
    except (TypeError, ValueError, OverflowError):
        raise NotZeroRowSum("entries must be integers") from None
    if ints != flat:
        raise NotZeroRowSum("entries must be integers")
    fits = not ints or (-2**63 <= min(ints) and max(ints) < 2**63)
    return np.array(ints, dtype=np.int64 if fits else object).reshape(arr.shape)


class ZeroRowSumMatrix:
    """Square integer matrix whose rows each sum to zero."""

    __slots__ = ("array",)

    def __init__(self, entries):
        arr = _as_int_array(entries)
        sums = _exact(arr).sum(axis=1)
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
        return hash(tuple(self.array.reshape(-1).tolist()))

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
        if not (type(self.i) is type(self.j) is type(self.size) is int):
            raise InvalidIndices(f"edge generator indices must be Python ints, got "
                                 f"{self.i!r}->{self.j!r} on {self.size!r}")
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


def bracket(a: ZeroRowSumMatrix, b: ZeroRowSumMatrix) -> ZeroRowSumMatrix:
    """Commutator ab - ba; zero row sums are preserved."""
    if a.size != b.size:
        raise SizeMismatch(f"sizes differ: {a.size} vs {b.size}")
    x, y = _exact(a.array), _exact(b.array)
    return ZeroRowSumMatrix(x @ y - y @ x)


# -- exact rank bookkeeping ------------------------------------------------

def _gcd_normalize(row: np.ndarray) -> np.ndarray:
    """Divide a Python-int row by the gcd of its entries; make the pivot positive."""
    nz = np.flatnonzero(row)
    if nz.size == 0:
        return row
    g = gcd(*row)
    return row // (g if row[nz[0]] > 0 else -g)


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
                v = _gcd_normalize(r[p] * v - vp * r)
        return v

    def _exact_row(self, vec: np.ndarray) -> np.ndarray:
        """vec as Python integers, refused unless integer-typed and of the width."""
        if vec.shape != (self.width,):
            raise SizeMismatch(f"expected width {self.width}, got {vec.shape}")
        if vec.dtype.kind not in "iuO":
            raise NotZeroRowSum("entries must be integers")
        return _exact(vec)

    def insert(self, vec: np.ndarray) -> bool:
        """Adjoin vec if independent of the stored rows; True when rank grew."""
        v = self.residual(self._exact_row(vec))
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        v = _gcd_normalize(v)
        pivot = int(nz[0])
        # clear the new pivot column from the existing rows; their own pivots
        # are untouched because v is already zero there
        for k, r in enumerate(self.rows):
            if r[pivot] != 0:
                self.rows[k] = _gcd_normalize(v[pivot] * r - r[pivot] * v)
        k = 0
        while k < len(self.pivots) and self.pivots[k] < pivot:
            k += 1
        self.pivots.insert(k, pivot)
        self.rows.insert(k, v)
        return True

    def contains(self, vec: np.ndarray) -> bool:
        return np.flatnonzero(self.residual(self._exact_row(vec))).size == 0


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
        self._fill(size, elems, ech)

    @classmethod
    def _on_echelon(cls, size: int, elements: tuple, echelon: IntRowEchelon) -> "LieBasis":
        """A basis on the echelon that already took in, and proved independent, every element."""
        basis = object.__new__(cls)
        basis._fill(size, elements, echelon)
        return basis

    def _fill(self, size: int, elements: tuple, echelon: IntRowEchelon) -> None:
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_echelon", echelon)

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
    exact: list[np.ndarray] = []  # Python-int copy of each basis element
    pairs: deque[tuple[int, int]] = deque()
    for m in mats:
        if ech.insert(_offdiag_coords(m.array)):
            basis.append(m)
            exact.append(_exact(m.array))
            k = len(basis) - 1
            pairs.extend((a, k) for a in range(k))

    # a bracket of zero row-sum matrices has zero row sums, so candidates
    # stay raw arrays and only the accepted ones are validated and wrapped
    while pairs and ech.rank < ambient:
        a, b = pairs.popleft()
        cand = exact[a] @ exact[b] - exact[b] @ exact[a]
        if ech.insert(_offdiag_coords(cand)):
            basis.append(ZeroRowSumMatrix(cand))
            exact.append(cand)
            k = len(basis) - 1
            pairs.extend((x, k) for x in range(k))
    return LieBasis._on_echelon(size, tuple(basis), ech)
