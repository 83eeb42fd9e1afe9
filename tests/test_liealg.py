"""Bracket identities, exact rank bookkeeping, and closure tests."""

from __future__ import annotations

import random
import warnings
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formctl.digraph import Digraph, transitive_closure
from formctl.errors import (
    EmptyGeneratorSet,
    InvalidIndices,
    NotZeroRowSum,
    RankMismatch,
    SizeMismatch,
)
from formctl.liealg import (
    EdgeGenerator,
    IntRowEchelon,
    LieBasis,
    ZeroRowSumMatrix,
    bracket,
    edge_generators,
    lie_closure,
    span_contains,
    span_equal,
    _offdiag_coords,
)

from helpers import GeneratorCombination, cycle_graph, digraphs, path_graph, structural_bracket

# exact arithmetic must never pass through a numpy cast or overflow
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@st.composite
def zero_row_sum_matrices(draw, min_n: int = 2, max_n: int = 5, bound: int = 6):
    n = draw(st.integers(min_n, max_n))
    offdiag = draw(st.lists(st.integers(-bound, bound),
                            min_size=n * (n - 1), max_size=n * (n - 1)))
    arr = np.zeros((n, n), dtype=np.int64)
    it = iter(offdiag)
    for i in range(n):
        for j in range(n):
            if i != j:
                arr[i, j] = next(it)
        arr[i, i] = -arr[i].sum()
    return ZeroRowSumMatrix(arr)


def A(i, j, n):
    return EdgeGenerator(i, j, n).dense()


class TestZeroRowSumMatrix:
    def test_validates_row_sums(self):
        with pytest.raises(NotZeroRowSum):
            ZeroRowSumMatrix([[1, 0], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(SizeMismatch):
            ZeroRowSumMatrix([[0, 0, 0], [0, 0, 0]])

    def test_rejects_fractional_entries(self):
        with pytest.raises(NotZeroRowSum):
            ZeroRowSumMatrix([[0.5, -0.5], [0.0, 0.0]])

    def test_accepts_integral_floats(self):
        m = ZeroRowSumMatrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
        assert m == ZeroRowSumMatrix([[-1, 1], [0, 0]])
        # past int64 the conversion is exact too
        big = ZeroRowSumMatrix([[1e19, -1e19], [0.0, 0.0]])
        assert big.array.tolist() == [[10**19, -10**19], [0, 0]]

    def test_immutable(self):
        m = ZeroRowSumMatrix([[0, 0], [0, 0]])
        with pytest.raises(AttributeError):
            m.array = None
        with pytest.raises(ValueError):
            m.array[0, 0] = 5

    def test_hashable(self):
        a = ZeroRowSumMatrix([[-1, 1], [0, 0]])
        b = ZeroRowSumMatrix(np.array([[-1, 1], [0, 0]], dtype=object))
        assert hash(a) == hash(b) and a == b
        assert len({a, b}) == 1

    @pytest.mark.parametrize("rows", [[[2**62] * 4] * 4, [[-2**63, -2**63], [0, 0]]])
    def test_row_sums_past_int64_are_exact(self, rows):
        # the true row sums are +-2^64, which int64 wraps to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotZeroRowSum, match="sums to -?18446744073709551616"):
                ZeroRowSumMatrix(rows)


class TestEdgeGenerator:
    def test_definition_instances(self):
        assert A(1, 2, 2).array.tolist() == [[-1, 1], [0, 0]]
        assert A(2, 1, 2).array.tolist() == [[0, 0], [1, -1]]

    def test_single_nonzero_row(self):
        m = A(2, 4, 5).array
        assert m[1, 1] == -1 and m[1, 3] == 1
        assert np.count_nonzero(m) == 2

    def test_rejects_diagonal_and_out_of_range(self):
        with pytest.raises(InvalidIndices):
            EdgeGenerator(2, 2, 3)
        with pytest.raises(InvalidIndices):
            EdgeGenerator(1, 4, 3)
        with pytest.raises(InvalidIndices):
            EdgeGenerator(0, 1, 3)

    @pytest.mark.parametrize("i, j, size", [(1.5, 2, 3), (True, 2, 3), (1, 2, 3.0),
                                            (np.int64(1), 2, 3)])
    def test_rejects_indices_that_are_not_python_ints(self, i, j, size):
        with pytest.raises(InvalidIndices):
            EdgeGenerator(i, j, size).dense()

    def test_generators_of_graph_sorted_and_independent(self):
        g = Digraph(4, [(3, 1), (1, 2), (2, 3)])
        gens = edge_generators(g)
        assert [(e.i, e.j) for e in gens] == [(1, 2), (2, 3), (3, 1)]
        basis = LieBasis(4, [e.dense() for e in gens])
        assert basis.dimension == 3


class TestBracket:
    def test_known_identities(self):
        n = 3
        assert bracket(A(1, 2, n), A(2, 3, n)) == GeneratorCombination(
            {(1, 3): 1, (1, 2): -1}).dense(n)
        assert bracket(A(1, 2, n), A(1, 3, n)) == GeneratorCombination(
            {(1, 2): 1, (1, 3): -1}).dense(n)

    def test_disjoint_edges_commute(self):
        z = bracket(A(1, 2, 4), A(3, 4, 4))
        assert not np.any(z.array)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            bracket(A(1, 2, 3), A(1, 2, 4))

    @given(zero_row_sum_matrices(), zero_row_sum_matrices())
    @settings(max_examples=100, deadline=None)
    def test_preserves_zero_row_sums(self, a, b):
        if a.size != b.size:
            return
        bracket(a, b)  # constructor validates row sums

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_jacobi_identity(self, data):
        n = data.draw(st.integers(2, 4))
        a = data.draw(zero_row_sum_matrices(min_n=n, max_n=n))
        b = data.draw(zero_row_sum_matrices(min_n=n, max_n=n))
        c = data.draw(zero_row_sum_matrices(min_n=n, max_n=n))
        total = (bracket(a, bracket(b, c)).array
                 + bracket(b, bracket(c, a)).array
                 + bracket(c, bracket(a, b)).array)
        assert not np.any(total)

    def test_result_is_int64_when_entries_fit(self):
        # entries of 2^62 fit int64, so that is how the bracket is stored
        a = ZeroRowSumMatrix([[-2**31, 2**31], [0, 0]])
        b = ZeroRowSumMatrix([[0, 0], [2**31, -2**31]])
        c = bracket(a, b)
        assert c.array.dtype == np.int64
        assert c.array.tolist() == [[2**62, -2**62], [2**62, -2**62]]

    def test_antisymmetry(self):
        x, y = A(1, 3, 4), A(3, 2, 4)
        assert np.array_equal(bracket(x, y).array, -bracket(y, x).array)


class TestStructuralBracket:
    def test_chain_identity(self):
        got = structural_bracket(EdgeGenerator(1, 2, 3), EdgeGenerator(2, 3, 3))
        assert got == GeneratorCombination({(1, 3): 1, (1, 2): -1})

    def test_second_chain_identity(self):
        got = structural_bracket(EdgeGenerator(2, 3, 4), EdgeGenerator(3, 4, 4))
        assert got == GeneratorCombination({(2, 4): 1, (2, 3): -1})

    def test_disjoint_empty(self):
        got = structural_bracket(EdgeGenerator(1, 2, 4), EdgeGenerator(3, 4, 4))
        assert got == GeneratorCombination({})

    def test_two_cycle_is_the_generator_difference(self):
        got = structural_bracket(EdgeGenerator(1, 2, 2), EdgeGenerator(2, 1, 2))
        assert got == GeneratorCombination({(2, 1): 1, (1, 2): -1})
        assert got.dense(2) == bracket(A(1, 2, 2), A(2, 1, 2))

    def test_two_cycle_dense_still_zero_row_sum(self):
        m = bracket(A(1, 2, 2), A(2, 1, 2))
        assert m.array.tolist() == [[1, -1], [1, -1]]

    def test_shared_source_into_target(self):
        # heads differ, second's target equals first's source
        got = structural_bracket(EdgeGenerator(1, 2, 3), EdgeGenerator(3, 1, 3))
        assert got == GeneratorCombination({(3, 1): 1, (3, 2): -1})

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_dense_on_all_pairs(self, n):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for (i, j), (p, q) in product(pairs, repeat=2):
            dense = bracket(A(i, j, n), A(p, q, n))
            sym = structural_bracket(EdgeGenerator(i, j, n), EdgeGenerator(p, q, n))
            assert sym.dense(n) == dense, ((i, j), (p, q))


def _offdiag_combination(m: ZeroRowSumMatrix) -> GeneratorCombination:
    """Edge generators weighted by m's off-diagonal coordinates, row by row."""
    keys = [(i, j) for i in range(1, m.size + 1) for j in range(1, m.size + 1) if i != j]
    return GeneratorCombination(dict(zip(keys, map(int, _offdiag_coords(m.array)))))


class TestDenseToCombination:
    # the off-diagonal coordinates that rank bookkeeping runs on are exactly
    # the edge-generator coefficients, so they determine the matrix
    @given(zero_row_sum_matrices())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, m):
        assert _offdiag_combination(m).dense(m.size) == m

    def test_coefficients_are_offdiagonal_entries(self):
        m = ZeroRowSumMatrix([[-3, 1, 2], [0, 0, 0], [4, 0, -4]])
        combo = _offdiag_combination(m)
        assert combo.terms == {(1, 2): 1, (1, 3): 2, (3, 1): 4}

    def test_diagonal_past_int64_is_exact(self):
        # each coefficient fits int64, their row sum does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = GeneratorCombination({(1, j): 2**61 - 1 for j in range(2, 7)}).dense(6)
        assert m.array[0, 0] == -5 * (2**61 - 1) == -11529215046068469755
        assert _offdiag_combination(m) == GeneratorCombination(
            {(1, j): 2**61 - 1 for j in range(2, 7)})


class TestIntRowEchelon:
    def test_rank_and_dependence(self):
        e = IntRowEchelon(3)
        assert e.insert(np.array([1, 2, 3]))
        assert e.insert(np.array([0, 1, 1]))
        assert not e.insert(np.array([2, 5, 7]))  # sum of the first two
        assert e.rank == 2

    def test_out_of_order_pivots(self):
        # second insert has an earlier pivot; dependence must still be seen
        e = IntRowEchelon(3)
        assert e.insert(np.array([0, 1, 1]))
        assert e.insert(np.array([1, 1, 0]))
        assert e.contains(np.array([1, 0, -1]))
        assert not e.insert(np.array([1, 0, -1]))
        assert e.rank == 2

    def test_scaling_invariance(self):
        e = IntRowEchelon(2)
        e.insert(np.array([2, 4]))
        assert e.contains(np.array([3, 6]))
        assert not e.contains(np.array([1, 1]))

    def test_exact_with_huge_entries(self):
        big = 7 ** 40
        e = IntRowEchelon(2)
        e.insert(np.array([big, big + 1], dtype=object))
        assert e.contains(np.array([2 * big, 2 * big + 2], dtype=object))
        assert not e.contains(np.array([2 * big, 2 * big + 1], dtype=object))

    def test_width_checked(self):
        e = IntRowEchelon(3)
        with pytest.raises(SizeMismatch):
            e.insert(np.array([1, 2]))

    def test_float_vectors_refused(self):
        e = IntRowEchelon(2)
        assert e.insert(np.array([1, 2]))
        with pytest.raises(NotZeroRowSum, match="integers"):
            e.insert(np.array([1.0, 3.0]))
        with pytest.raises(NotZeroRowSum, match="integers"):
            e.contains(np.array([2.0, 4.0]))
        assert e.rank == 1


class TestLieClosure:
    def test_path_closure_dimension(self):
        b = lie_closure(edge_generators(path_graph(4)))
        assert b.dimension == 6
        closed = transitive_closure(path_graph(4))
        assert b.dimension == len(closed.edges)
        target = LieBasis(4, [A(i, j, 4) for i, j in sorted(closed.edges)])
        assert span_equal(b, target)

    def test_complete_graph_already_closed(self):
        gens = edge_generators(Digraph.complete(3))
        b = lie_closure(gens)
        assert b.dimension == 6
        assert span_equal(b, LieBasis(3, [e.dense() for e in gens]))

    def test_single_generator(self):
        assert lie_closure([EdgeGenerator(1, 2, 3)]).dimension == 1

    def test_empty_input(self):
        with pytest.raises(EmptyGeneratorSet):
            lie_closure([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(SizeMismatch):
            lie_closure([EdgeGenerator(1, 2, 3), EdgeGenerator(1, 2, 4)])

    def test_deterministic(self):
        gens = edge_generators(cycle_graph(5))
        b1 = lie_closure(gens)
        b2 = lie_closure(gens)
        assert all(x == y for x, y in zip(b1.elements, b2.elements))

    @given(digraphs(min_n=2, max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_dimension_matches_closure_edges(self, g):
        b = lie_closure(edge_generators(g))
        assert b.dimension == len(transitive_closure(g).edges)

    @given(digraphs(min_n=2, max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_contains_all_closure_edge_generators(self, g):
        b = lie_closure(edge_generators(g))
        for i, j in transitive_closure(g).edges:
            assert span_contains(b, A(i, j, g.num_vertices))

    def test_result_keeps_the_closure_echelon(self, monkeypatch):
        # the elements are not inserted a second time into a fresh echelon
        widths = []
        init = IntRowEchelon.__init__

        def counted(echelon, width):
            widths.append(width)
            init(echelon, width)

        monkeypatch.setattr(IntRowEchelon, "__init__", counted)
        b = lie_closure(edge_generators(path_graph(4)))
        assert widths == [12]
        assert b.dimension == b._echelon.rank == 6
        for i, j in transitive_closure(path_graph(4)).edges:
            assert span_contains(b, A(i, j, 4))
        assert not span_contains(b, A(2, 1, 4))

    def test_closure_is_a_fixed_point(self):
        b = lie_closure(edge_generators(path_graph(4)))
        again = lie_closure(list(b.elements))
        assert span_equal(b, again)
        assert again.dimension == b.dimension


class TestSpanPredicates:
    def test_scaling(self):
        one = LieBasis(2, [A(1, 2, 2)])
        two = LieBasis(2, [ZeroRowSumMatrix(2 * A(1, 2, 2).array)])
        assert span_equal(one, two)

    def test_different_supports(self):
        assert not span_equal(LieBasis(2, [A(1, 2, 2)]), LieBasis(2, [A(2, 1, 2)]))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            span_equal(LieBasis(2, [A(1, 2, 2)]), LieBasis(3, [A(1, 2, 3)]))

    def test_dependent_elements_rejected(self):
        with pytest.raises(RankMismatch):
            LieBasis(2, [A(1, 2, 2), ZeroRowSumMatrix(3 * A(1, 2, 2).array)])

    def test_contains_element_holding_int64_extremes(self):
        # negating -2^63 in int64 wraps to itself
        m = ZeroRowSumMatrix([[2**63 - 1, -2**63, 1], [0, 0, 0], [0, 0, 0]])
        assert m.array.dtype == np.int64
        assert span_contains(LieBasis(3, [m]), m)

    def test_dimension_bounded_by_ambient(self):
        b = lie_closure(edge_generators(Digraph.complete(4)))
        assert b.dimension == 4 * 3

