"""Digraph decomposition, closure, and verdict tests."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formctl.digraph import (
    Digraph,
    StructuralKind,
    coarse_scd,
    load_graph,
    parse_graph_text,
    structural_verdict,
    transitive_closure,
)
from formctl.errors import InputFormatError, InvalidIndices, NotWeaklyConnected

from helpers import (
    cycle_graph,
    digraphs,
    edge_reachability,
    format_graph_text,
    is_weakly_connected,
    minimum_scd_partitions,
    path_graph,
    random_connected_digraph,
    skeleton_sinks,
    verify_scd_closure_commutation,
)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidIndices):
            Digraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidIndices):
            Digraph(3, [(1, 4)])
        with pytest.raises(InvalidIndices):
            Digraph(3, [(0, 2)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(InvalidIndices):
            Digraph(0)

    # the constructor converts nothing; each of these is an InvalidIndices,
    # never a truncated edge, a TypeError or a ValueError
    @pytest.mark.parametrize("num_vertices, edges", [
        (3, [(1.7, 2.9)]),
        (3, [(True, 2)]),
        (3, [(1, 2), (True, 2)]),
        (3, [(1, 2), (1.0, 2)]),
        (3, [("1", "3")]),
        (3.9, [(1, 2)]),
        (True, []),
        (3, [(np.int64(1), np.int64(2))]),
        (np.int64(3), [(1, 2)]),
        (3, [[1, 2]]),
        (3, [(1, 2, 3)]),
        (3, [5]),
        (3, 5),
    ], ids=["floats", "bool", "bool-duplicate", "float-duplicate", "strings", "float-count",
            "bool-count", "numpy-pair", "numpy-count", "list-pair", "triple", "non-iterable-edge",
            "non-iterable-edges"])
    def test_refuses_all_but_python_int_pairs(self, num_vertices, edges):
        with pytest.raises(InvalidIndices):
            Digraph(num_vertices, edges)

    def test_refusal_says_to_convert(self):
        with pytest.raises(InvalidIndices, match=r"\(1\.7, 2\.9\).*convert with int\(\)"):
            Digraph(3, [(1.7, 2.9)])

    def test_any_iterable_of_int_tuples(self):
        edges = {(1, 2), (2, 3)}
        assert Digraph(3, iter(edges)) == Digraph(3, sorted(edges)) == Digraph(3, edges)

    def test_duplicate_edges_collapse(self):
        g = Digraph(3, [(1, 2), (1, 2), (2, 3)])
        assert len(g.edges) == 2

    def test_equality_and_hash(self):
        a = Digraph(3, [(1, 2), (2, 3)])
        b = Digraph(3, [(2, 3), (1, 2)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Digraph(4, [(1, 2), (2, 3)])

    def test_adjacency_sorted(self):
        g = Digraph(4, [(1, 4), (1, 2), (3, 1)])
        assert g.adjacency == ((2, 4), (), (1,), ())


class TestWeakConnectivity:
    def test_single_vertex(self):
        assert coarse_scd(Digraph(1)).components == ((1,),)

    def test_directed_path_counts(self):
        assert coarse_scd(path_graph(4)).components == ((1,), (2,), (3,), (4,))

    def test_connected_only_through_the_last_dfs_tree(self):
        # DFS from 1 and from 2 finds nothing; vertex 3's tree joins both
        assert coarse_scd(Digraph(3, [(3, 1), (3, 2)])).maximal_set == {1, 2}

    def test_disconnected(self):
        for g in (Digraph(4, [(1, 2), (3, 4)]), Digraph(2), Digraph(4, [(3, 1), (4, 2)])):
            with pytest.raises(NotWeaklyConnected):
                coarse_scd(g)

    @given(digraphs(min_n=1, max_n=8, connected=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_shadow_search(self, g):
        try:
            coarse_scd(g)
        except NotWeaklyConnected:
            assert not is_weakly_connected(g)
        else:
            assert is_weakly_connected(g)


class TestCoarseScd:
    def test_cycle_is_one_component(self):
        scd = coarse_scd(cycle_graph(5))
        assert scd.components == ((1, 2, 3, 4, 5),)
        assert scd.maximal_set == {1}

    def test_path_gives_singletons(self):
        scd = coarse_scd(path_graph(4))
        assert scd.components == ((1,), (2,), (3,), (4,))
        assert scd.skeleton.edges == {(1, 2), (2, 3), (3, 4)}
        assert scd.maximal_set == {4}

    def test_requires_weak_connectivity(self):
        with pytest.raises(NotWeaklyConnected):
            coarse_scd(Digraph(4, [(1, 2), (3, 4)]))

    def test_two_cycles_with_bridge(self):
        g = Digraph(6, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)])
        scd = coarse_scd(g)
        assert scd.components == ((1, 2, 3), (4, 5, 6))
        assert scd.skeleton.edges == {(1, 2)}
        assert scd.maximal_set == {2}

    def test_component_labels_follow_smallest_vertex(self):
        g = Digraph(5, [(5, 4), (4, 5), (4, 1), (1, 2), (2, 1), (2, 3)])
        scd = coarse_scd(g)
        assert scd.components == ((1, 2), (3,), (4, 5))
        assert scd.component_sizes == (2, 1, 2)

    @given(digraphs(min_n=2, max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_partition_search(self, g):
        scd = coarse_scd(g)
        winners = minimum_scd_partitions(g)
        assert len(winners) == 1, "minimum-cardinality decomposition must be unique"
        assert winners[0] == frozenset(frozenset(c) for c in scd.components)

    @given(digraphs(min_n=2, max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_relabeling_invariance(self, g, rnd):
        perm = list(range(1, g.num_vertices + 1))
        rnd.shuffle(perm)
        relabel = {v: perm[v - 1] for v in range(1, g.num_vertices + 1)}
        h = Digraph(g.num_vertices, [(relabel[i], relabel[j]) for i, j in g.edges])
        base = {frozenset(c) for c in coarse_scd(g).components}
        mapped = {frozenset(relabel[v] for v in c) for c in base}
        assert mapped == {frozenset(c) for c in coarse_scd(h).components}

    @given(digraphs(min_n=2, max_n=7))
    @settings(max_examples=100, deadline=None)
    def test_skeleton_is_acyclic_and_maximal_set_reachable(self, g):
        scd = coarse_scd(g)
        skel = scd.skeleton
        closed = transitive_closure(skel)
        assert all(i != j for i, j in closed.edges)  # no cycle survives
        reach = edge_reachability(skel)
        for w in range(1, skel.num_vertices + 1):
            if w in scd.maximal_set:
                assert not any(a == w for a, _ in skel.edges)
            else:
                assert any((w, m) in reach for m in scd.maximal_set)

    @given(st.booleans().flatmap(lambda connected: digraphs(1, 8, connected)))
    @example(Digraph(4, [(4, 3), (3, 2), (2, 1)]))  # smallest-label order is not topological
    @example(Digraph(5, [(1, 2), (2, 1), (4, 5)]))  # not weakly connected
    @settings(max_examples=150, deadline=None)
    def test_reach_and_maximal_set_match_the_oracles(self, g):
        scd = g._scd   # the condensation of any graph; coarse_scd needs weak connectivity
        pairs = edge_reachability(g)
        assert len(scd.reach) == len(scd.components)
        for comp, reached in zip(scd.components, scd.reach):
            assert reached == tuple(sorted(reached))
            for v in comp:
                assert set(reached) == {v} | {t for s, t in pairs if s == v}
        assert scd.maximal_set == skeleton_sinks(scd)

    def test_deterministic_across_calls(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_digraph(rng, 6)
            assert coarse_scd(g).components == coarse_scd(g).components


class TestTransitiveClosure:
    def test_path(self):
        closed = transitive_closure(path_graph(4))
        assert closed.edges == {(i, j) for i in range(1, 5) for j in range(i + 1, 5)}

    def test_cycle_becomes_complete(self):
        assert transitive_closure(cycle_graph(4)) == Digraph.complete(4)

    def test_handles_disconnected_input(self):
        closed = transitive_closure(Digraph(4, [(1, 2), (3, 4)]))
        assert closed.edges == {(1, 2), (3, 4)}

    def test_no_self_loops_even_on_cycles(self):
        closed = transitive_closure(cycle_graph(3))
        assert all(i != j for i, j in closed.edges)

    @given(digraphs(min_n=1, max_n=7, connected=False))
    @example(Digraph(4, [(4, 3), (3, 2), (2, 1)]))  # smallest-label order is not topological
    @settings(max_examples=150, deadline=None)
    def test_matches_dfs_reachability(self, g):
        assert transitive_closure(g).edges == edge_reachability(g)

    @given(digraphs(min_n=1, max_n=7, connected=False))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, g):
        once = transitive_closure(g)
        assert transitive_closure(once) == once


class TestCommutation:
    @given(digraphs(min_n=2, max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_closure_commutes_with_decomposition(self, g):
        assert verify_scd_closure_commutation(g)

    def test_closed_components_complete(self):
        g = random_connected_digraph(random.Random(3), 7)
        closed = transitive_closure(g)
        for comp in coarse_scd(closed).components:
            for i in comp:
                for j in comp:
                    if i != j:
                        assert (i, j) in closed.edges


class TestStructuralVerdict:
    def test_large_single_component_controllable(self):
        v = structural_verdict(Digraph.complete(4), n=2)
        assert v.kind is StructuralKind.GENERICALLY_CONTROLLABLE
        assert v.offending_components == ()

    def test_small_sink_component_empty_set(self):
        # vertex 3 is a sink component of size 1 <= n
        g = Digraph(3, [(1, 2), (2, 1), (1, 3)])
        v = structural_verdict(g, n=2)
        assert v.kind is StructuralKind.CONTROLLABLE_SET_EMPTY
        assert v.offending_components == (2,)

    def test_borderline_component_disconnects_set(self):
        # sink component {3,4,5} has exactly n+1 = 3 vertices
        g = Digraph(5, [(1, 2), (2, 1), (1, 3), (3, 4), (4, 5), (5, 3)])
        v = structural_verdict(g, n=2)
        assert v.kind is StructuralKind.CONTROLLABLE_SET_DISCONNECTED
        assert v.offending_components == (2,)

    def test_empty_wins_over_borderline(self):
        g = Digraph(
            6,
            [(1, 2), (2, 3), (3, 1), (6, 1), (6, 4), (4, 5), (5, 4)],
        )
        v = structural_verdict(g, n=2)
        assert v.kind is StructuralKind.CONTROLLABLE_SET_EMPTY
        assert v.offending_components == (1, 2)

    def test_dimension_one_path(self):
        v = structural_verdict(cycle_graph(3), n=1)
        assert v.kind is StructuralKind.GENERICALLY_CONTROLLABLE

    def test_rejects_bad_dimension(self):
        for n in (0, 2.5, 2.0, True):
            with pytest.raises(InvalidIndices):
                structural_verdict(Digraph.complete(4), n=n)

    @given(digraphs(min_n=2, max_n=7), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_verdict_agrees_with_component_sizes(self, g, n):
        scd = coarse_scd(g)
        sizes = [len(scd.components[w - 1]) for w in sorted(scd.maximal_set)]
        v = structural_verdict(g, n)
        if min(sizes) > n + 1:
            assert v.kind is StructuralKind.GENERICALLY_CONTROLLABLE
        elif min(sizes) <= n:
            assert v.kind is StructuralKind.CONTROLLABLE_SET_EMPTY
        else:
            assert v.kind is StructuralKind.CONTROLLABLE_SET_DISCONNECTED


class TestTextFormat:
    def test_round_trip(self):
        g = Digraph(4, [(2, 1), (1, 3), (3, 4)])
        assert parse_graph_text(format_graph_text(g)) == g

    def test_comments_and_blanks_ignored(self):
        text = "# a graph\n\nN 3\n1 2\n# middle\n2 3\n"
        assert parse_graph_text(text) == Digraph(3, [(1, 2), (2, 3)])

    def test_edge_lines_in_any_order(self):
        g = parse_graph_text("N 3\n3 1\n1 2\n1 3\n")
        assert g == parse_graph_text("N 3\n1 2\n1 3\n3 1\n")
        assert g == Digraph(3, [(1, 2), (1, 3), (3, 1)])

    def test_missing_header(self):
        with pytest.raises(InputFormatError):
            parse_graph_text("1 2\n")

    def test_bad_edge_line(self):
        with pytest.raises(InputFormatError):
            parse_graph_text("N 3\n1 2 3\n")
        with pytest.raises(InputFormatError):
            parse_graph_text("N 3\none two\n")

    def test_out_of_range_edge_is_format_error(self):
        with pytest.raises(InputFormatError):
            parse_graph_text("N 2\n1 3\n")

    def test_load_graph(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("N 2\n1 2\n")
        assert load_graph(p) == Digraph(2, [(1, 2)])
