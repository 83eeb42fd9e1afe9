"""Rank-condition evaluation and witness-basis tests."""

from __future__ import annotations

import random
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formctl import configspace, digraph
from formctl.configspace import (
    _OVERFLOW,
    Configuration,
    configuration_rank,
    in_controllable_set,
    sample_configuration,
)
from formctl.digraph import Digraph, coarse_scd, structural_verdict, transitive_closure
from formctl.errors import (
    Degenerate,
    FormctlError,
    NotInControllableSet,
    NotWeaklyConnected,
    SizeMismatch,
    StructuralFailure,
)
from formctl.larc import (
    construct_witness_basis,
    format_witness_csv,
    larc_passes,
    lie_algebra_at,
)
from formctl.liealg import EdgeGenerator, ZeroRowSumMatrix, bracket

from helpers import (
    border_source_k4,
    cycle_graph,
    digraphs,
    far_source_k4,
    larc_per_agent,
    lift_block_diagonal,
    path_graph,
    random_zero_row_sum,
    sink_component_graph,
    stacked_field_rank,
    two_k4_sinks,
    witness_per_agent,
)


class TestLift:
    def test_zero_lifts_to_zero(self):
        z = ZeroRowSumMatrix(np.zeros((3, 3), dtype=np.int64))
        p = sample_configuration(2, 3, seed=0)
        assert not np.any(lift_block_diagonal(z, 2) @ p.coords)

    def test_edge_field_support(self):
        p = Configuration.from_agents([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        field = lift_block_diagonal(EdgeGenerator(1, 2, 3).dense(), 2) @ p.coords
        # coordinate-major: agent 1 occupies slots 0 and 3
        assert field[0] == 3.0 and field[3] == 4.0
        assert not np.any(np.delete(field, [0, 3]))

    def test_block_structure(self):
        a = ZeroRowSumMatrix(random_zero_row_sum(random.Random(0), 3))
        d = lift_block_diagonal(a, 2)
        assert d.shape == (6, 6)
        assert np.array_equal(d[:3, :3], a.array)
        assert np.array_equal(d[3:, 3:], a.array)
        assert not np.any(d[:3, 3:]) and not np.any(d[3:, :3])

    @given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_lift_is_a_bracket_homomorphism(self, N, n, seed):
        rng = random.Random(seed)
        a = ZeroRowSumMatrix(random_zero_row_sum(rng, N))
        b = ZeroRowSumMatrix(random_zero_row_sum(rng, N))
        lifted_bracket = lift_block_diagonal(bracket(a, b), n)
        da, db = lift_block_diagonal(a, n), lift_block_diagonal(b, n)
        assert np.array_equal(lifted_bracket, da @ db - db @ da)

    def test_lifted_field_evaluate(self):
        # every witness vector is the lifted field D(A_ij) p of its edge
        p = sample_configuration(2, 4, "rank_k", k=2, seed=9)
        wb = construct_witness_basis(p, cycle_graph(4))
        for v in wb.vectors:
            expected = lift_block_diagonal(EdgeGenerator(*v.edge, 4).dense(), 2) @ p.coords
            assert np.allclose(v.values, expected)


class TestLieAlgebraAt:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimal_nondegenerate_dimension(self, n):
        N = n + 1
        p = sample_configuration(n, N, "rank_k", k=n, seed=n)
        g = Digraph.complete(N)
        rep = lie_algebra_at(p, g)
        assert rep.dimension == stacked_field_rank(p, g) == n * (n + 1)
        assert rep.passes

    def test_coincident_agents(self):
        p = Configuration.from_agents([[2.0, 2.0]] * 4)
        rep = lie_algebra_at(p, cycle_graph(4))
        assert rep.dimension == 0
        assert rep.per_agent_ranks == (0, 0, 0, 0)
        assert not rep.passes

    def test_collinear_bounded_by_agent_count(self):
        p = Configuration.from_agents([[float(i), 0.0] for i in range(5)])
        rep = lie_algebra_at(p, cycle_graph(5))
        assert rep.dimension == stacked_field_rank(p, cycle_graph(5))
        assert rep.dimension <= 5
        assert not rep.passes

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            lie_algebra_at(sample_configuration(2, 3, seed=0), cycle_graph(4))

    def test_report_bookkeeping(self):
        g = path_graph(4)
        p = sample_configuration(2, 4, seed=5)
        rep = lie_algebra_at(p, g)
        assert rep.dimension == sum(rep.per_agent_ranks)
        assert rep.closure_edge_count == len(transitive_closure(g).edges)
        assert rep.required == 8

    @given(digraphs(min_n=2, max_n=8), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_fast_and_slow_paths_agree(self, g, n, seed):
        p = sample_configuration(n, g.num_vertices, seed=seed)
        assert lie_algebra_at(p, g).dimension == stacked_field_rank(p, g)

    @given(st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_strata_fail(self, n, seed):
        k = seed % n if n > 1 else 0
        N = n + 2
        p = sample_configuration(n, N, "rank_k", k=k, seed=seed)
        g = Digraph.complete(N)
        rep = lie_algebra_at(p, g)
        assert rep.dimension < n * N
        assert rep.dimension <= k * N + (n - k) * 0 + k  # coarse sanity cap

    def test_canonical_degenerate_dimension_cap(self):
        # agents confined to the first k coordinates: every difference lives
        # there too, so each per-agent rank is at most k
        n, k, N = 3, 1, 5
        rng = np.random.default_rng(8)
        pts = np.zeros((N, n))
        pts[:, :k] = rng.uniform(-1, 1, size=(N, k))
        rep = lie_algebra_at(Configuration.from_agents(pts), Digraph.complete(N))
        assert rep.dimension <= k * N

    def test_too_few_agents_never_pass(self):
        for n in (2, 3):
            for N in range(1, n + 1):
                g = Digraph.complete(N) if N > 1 else Digraph(1)
                p = sample_configuration(n, N, seed=N)
                assert not larc_passes(p, g)


class TestRankPerStrongComponent:
    def test_one_rank_per_component(self, monkeypatch):
        # two K4 sinks and their source are three components: two ranks, not
        # nine, since the source reaches a sink of rank n and inherits it
        shapes = []
        numeric_rank = configspace.numeric_rank

        def recorded(mat):
            shapes.append(np.shape(mat))
            return numeric_rank(mat)

        monkeypatch.setattr(configspace, "numeric_rank", recorded)
        g, p = two_k4_sinks(1.0)
        rep = lie_algebra_at(p, g)
        assert len(shapes) == 2
        assert rep.per_agent_ranks == (2,) * 9

    def test_certificate_chain_builds_no_closure(self):
        g, p = two_k4_sinks(1.0)
        lie_algebra_at(p, g)
        construct_witness_basis(p, g)
        assert "_closure" not in g.__dict__

    @given(st.booleans().flatmap(lambda c: digraphs(min_n=1, max_n=8, connected=c)),
           st.integers(1, 3), st.none() | st.integers(0, 3), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_matches_per_agent_ranks_over_the_closure(self, g, n, k, seed):
        N = g.num_vertices
        p = (sample_configuration(n, N, seed=seed) if k is None else
             sample_configuration(n, N, "rank_k", k=min(k, n, N - 1), seed=seed))
        rep = lie_algebra_at(p, g)
        assert (rep.per_agent_ranks, rep.closure_edge_count) == larc_per_agent(p, g)

    def test_overflowing_spread_is_refused_even_between_unreached_agents(self):
        # neither agent reaches the other, yet their spread overflows
        p = Configuration.from_agents([[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]])
        with pytest.raises(SizeMismatch, match="overflow"):
            lie_algebra_at(p, Digraph(3, [(1, 3), (2, 3)]))


@st.composite
def sink_instances(draw):
    """Generically controllable sink-component graphs, each strong component
    scaled by its own power of ten in 1e-12..1e12: a reach set ranked on its
    own then sits at the margin when a far source feeds a small sink."""
    n = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    sizes = draw(st.lists(st.integers(n + 2, n + 4), min_size=1, max_size=2))
    g = sink_component_graph(rng, draw(st.integers(len(sizes) + 1, 5)), sizes)
    scd = coarse_scd(g)
    decades = draw(st.lists(st.integers(-12, 12), min_size=len(scd.components),
                            max_size=len(scd.components)))
    label = {v: k for k, comp in enumerate(scd.components) for v in comp}
    scale = [10.0 ** decades[label[i]] for i in range(1, g.num_vertices + 1)]
    pts = sample_configuration(n, g.num_vertices, seed=draw(st.integers(0, 10**6))).agents
    return g, Configuration.from_agents(pts * np.array(scale)[:, None])


class TestMonotoneRank:
    """A component reaches all its successors reach, so its rank is at least theirs."""

    def test_border_source_inherits_the_sink_rank(self):
        g, p = border_source_k4()
        assert in_controllable_set(p, coarse_scd(g)).passes
        rep = lie_algebra_at(p, g)
        assert rep.per_agent_ranks == (2, 2, 2, 2, 2) and rep.passes
        # ranked on its own, agent 1's reach set falls below the margin
        assert configuration_rank(p, range(1, 6)) == 1

    def test_witness_keeps_its_one_rank_rule_at_the_border(self):
        # every face agent 1 could attach to is as ill conditioned as its reach set
        g, p = border_source_k4()
        with pytest.raises(StructuralFailure, match="agent 1 are numerically dependent"):
            construct_witness_basis(p, g)
        g, p = border_source_k4((1e2, 30.0))
        assert len(construct_witness_basis(p, g).vectors) == 10

    @given(sink_instances())
    @settings(max_examples=120, deadline=None)
    def test_membership_implies_larc(self, instance):
        g, p = instance
        assert structural_verdict(g, p.n).kind.value == "generically-controllable"
        if in_controllable_set(p, coarse_scd(g)):
            assert lie_algebra_at(p, g).passes


class TestSufficiencyAndNecessity:
    def test_sound_structures_pass_on_sampled_configurations(self):
        rng = random.Random(21)
        for trial in range(10):
            g = sink_component_graph(rng, 3, [4, 5])
            scd = coarse_scd(g)
            assert all(len(scd.components[w - 1]) >= 4 for w in scd.maximal_set)
            p = sample_configuration(2, g.num_vertices, seed=trial)
            assert larc_passes(p, g)

    def test_degenerate_maximal_component_fails(self):
        rng = random.Random(3)
        g = sink_component_graph(rng, 2, [4])
        scd = coarse_scd(g)
        comp = scd.components[sorted(scd.maximal_set)[0] - 1]
        p = sample_configuration(2, g.num_vertices, seed=1)
        pts = p.agents.copy()
        for a in comp[1:]:
            pts[a - 1] = pts[comp[0] - 1]  # collapse the maximal component
        assert not larc_passes(Configuration.from_agents(pts), g)


class TestWitnessBasis:
    def make(self, seed=9):
        g = cycle_graph(4)
        p = sample_configuration(2, 4, "rank_k", k=2, seed=seed)
        return p, g, construct_witness_basis(p, g)

    def test_count_and_rank(self):
        p, g, wb = self.make()
        m = wb.matrix
        assert m.shape == (8, 8)
        assert np.linalg.matrix_rank(m) == 8

    def test_fields_are_read_only_views_of_one_array(self):
        _, _, wb = self.make()
        assert not wb.matrix.flags.writeable
        for k, v in enumerate(wb.vectors):
            assert not v.values.flags.writeable
            assert np.shares_memory(wb.matrix, v.values)
            assert np.array_equal(wb.matrix[:, k], v.values)

    def test_block_composition(self):
        _, _, wb = self.make()
        kinds = [v.kind for v in wb.vectors]
        assert kinds.count("simplex") == 6  # n(n+1)
        assert kinds.count("attachment") == 2  # n per remaining agent

    def test_cross_agent_orthogonality(self):
        _, _, wb = self.make()
        m = wb.matrix
        for a, b in combinations(range(len(wb.vectors)), 2):
            if wb.vectors[a].edge[0] != wb.vectors[b].edge[0]:
                assert abs(float(m[:, a] @ m[:, b])) <= 1e-12

    def test_span_matches_control_span(self):
        p, g, wb = self.make()
        closed = transitive_closure(g)
        fields = np.column_stack([
            lift_block_diagonal(EdgeGenerator(i, j, 4).dense(), 2) @ p.coords
            for i, j in sorted(closed.edges)])
        both = np.column_stack([wb.matrix, fields])
        assert np.linalg.matrix_rank(both) == np.linalg.matrix_rank(wb.matrix) == 8

    def test_two_maximal_components_give_two_simplex_blocks(self):
        g = Digraph(9, [(1, 2), (2, 3), (3, 4), (4, 1),
                        (5, 6), (6, 7), (7, 8), (8, 5), (9, 1), (9, 5)])
        p = sample_configuration(1, 9, seed=4)
        wb = construct_witness_basis(p, g)
        comps = {v.component for v in wb.vectors if v.kind == "simplex"}
        assert len(comps) == 2
        assert len(wb.vectors) == 9
        assert np.linalg.matrix_rank(wb.matrix) == 9

    def test_generating_edges_lie_in_closure(self):
        rng = random.Random(5)
        g = sink_component_graph(rng, 3, [4, 4])
        p = sample_configuration(2, g.num_vertices, seed=6)
        wb = construct_witness_basis(p, g)
        closed = transitive_closure(g)
        assert all(v.edge in closed.edges for v in wb.vectors)

    def test_refuses_unsound_structure(self):
        # sink component of size n+1 = 3: verdict is not generically controllable
        g = Digraph(4, [(4, 1), (1, 2), (2, 3), (3, 1)])
        p = sample_configuration(2, 4, seed=0)
        with pytest.raises(StructuralFailure):
            construct_witness_basis(p, g)

    def test_refuses_degenerate_configuration(self):
        g = cycle_graph(4)
        p = Configuration.from_agents([[float(i), 0.0] for i in range(4)])
        with pytest.raises(NotInControllableSet):
            construct_witness_basis(p, g)

    def test_certifies_wherever_the_rank_condition_passes(self):
        # the second sink at scale 1e-9: every agent's fields have rank n
        g, p = two_k4_sinks(1e-9)
        assert lie_algebra_at(p, g).passes
        wb = construct_witness_basis(p, g)
        assert len(wb.vectors) == 18
        assert sorted(v.edge[0] for v in wb.vectors) == sorted(list(range(1, 10)) * 2)

    def test_certifies_an_attachment_at_the_rank_margin(self):
        # the face a far agent attaches to is ranked from that agent
        g, p = far_source_k4()
        assert lie_algebra_at(p, g).passes
        wb = construct_witness_basis(p, g)
        assert len(wb.vectors) == 10
        assert [v.edge for v in wb.vectors if v.edge[0] == 5] == [(5, 1), (5, 3)]

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_ranks_only_per_agent_blocks(self, monkeypatch, scale):
        # 2 square ranks in the simplex searches; the 9 agents' faces are
        # ranked as stacks of n x n blocks, at most one stack per maximal
        # component and drop position
        shapes, stacks = [], []
        numeric_rank, stacked_rank = configspace.numeric_rank, configspace._stacked_rank

        def recorded(mat):
            shapes.append(np.shape(mat))
            return numeric_rank(mat)

        def recorded_stack(mats):
            stacks.append(np.shape(mats))
            return stacked_rank(mats)

        monkeypatch.setattr(configspace, "numeric_rank", recorded)
        monkeypatch.setattr(configspace, "_stacked_rank", recorded_stack)
        g, p = two_k4_sinks(scale)
        construct_witness_basis(p, g)
        assert shapes.count((2, 2)) == 2
        assert all(len(shape) == 2 and shape[0] == 2 for shape in shapes)
        assert all(shape[1:] == (2, 2) for shape in stacks)
        assert sum(shape[0] for shape in stacks) == 9
        assert len(stacks) <= 2 * 3

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_random_instances_certify(self, seed):
        rng = random.Random(seed)
        g = sink_component_graph(rng, rng.randint(1, 3), [4] * rng.randint(1, 2))
        p = sample_configuration(2, g.num_vertices, seed=seed)
        wb = construct_witness_basis(p, g)
        nN = 2 * g.num_vertices
        assert len(wb.vectors) == nN
        assert np.linalg.matrix_rank(wb.matrix) == nN


def witness_outcome(build, p, g):
    """Everything a witness build shows: labels, matrix bytes, or its refusal."""
    try:
        wb = build(p, g)
    except FormctlError as exc:
        return type(exc), str(exc)
    return (repr(wb), format_witness_csv(wb),
            [(v.kind, v.component, v.edge) for v in wb.vectors], wb.matrix.tobytes())


@st.composite
def witness_instances(draw):
    """Sink-component graphs with generic, rank-k, collapsed or one-far-agent
    configurations, at scale 1, 1e-9 or 1e9."""
    n = draw(st.sampled_from([2, 3]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    sizes = draw(st.lists(st.sampled_from([n + 1, n + 2, n + 2, n + 3]), min_size=1, max_size=2))
    g = sink_component_graph(rng, draw(st.integers(1, 4)), sizes)
    N, seed = g.num_vertices, draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["generic", "rank_k", "collapsed", "far"]))
    if kind == "rank_k":
        k = draw(st.integers(0, min(n, N - 1)))
        agents = sample_configuration(n, N, "rank_k", k=k, seed=seed).agents.copy()
    else:
        agents = sample_configuration(n, N, seed=seed).agents.copy()
    if kind == "collapsed":
        onto = draw(st.integers(0, N - 1))
        agents[draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N))] = agents[onto]
    if kind == "far":   # faces seen from far away approach the rank margin
        agents[draw(st.integers(0, N - 1))] *= 10.0 ** draw(st.integers(4, 12))
    scale = draw(st.sampled_from([1.0, 1e-9, 1e9]))
    return g, Configuration.from_agents(agents * scale)


class TestWitnessMatchesPerAgentRanks:
    """The batched witness against the per-agent oracle, bit for bit."""

    @given(witness_instances())
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, instance):
        g, p = instance
        assert witness_outcome(construct_witness_basis, p, g) == \
            witness_outcome(witness_per_agent, p, g)

    @pytest.mark.parametrize("case", ["far_source_k4", "two_k4_sinks"])
    def test_rank_margin_examples(self, case):
        g, p = far_source_k4() if case == "far_source_k4" else two_k4_sinks()
        assert witness_outcome(construct_witness_basis, p, g) == \
            witness_outcome(witness_per_agent, p, g)

    @pytest.mark.parametrize("far, huge", [(5, 6), (6, 5)])
    def test_first_refusal_in_label_order(self, far, huge):
        # a K4 sink fed by an agent too far for any face to reach rank 2
        # and by one whose faces' norms overflow; the smaller label decides
        agents = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], None, None]
        agents[far - 1], agents[huge - 1] = [1e12, 1e12], [1.7e308, 1.7e308]
        g = Digraph(6, [(a, b) for a in range(1, 5) for b in range(1, 5) if a != b]
                    + [(5, 1), (6, 1)])
        p = Configuration.from_agents(agents)
        got = witness_outcome(construct_witness_basis, p, g)
        assert got == witness_outcome(witness_per_agent, p, g)
        assert got[0] is (StructuralFailure if far < huge else SizeMismatch)


class TestTwoSinkRefusal:
    """The first sink's refused simplex agent is named, whatever the second
    sink's simplex search finds."""

    L = 1e4   # agent 3 of sink 1 sits at (L, 1.5e-9 L^2): its own face misses the margin

    def instance(self, second):
        sink1 = [[0, 0], [1, 0], [self.L, 1.5e-9 * self.L ** 2], [0.3, 0.7]]
        if second == "refused":     # a shifted copy of sink 1: its agent 7 is refused too
            sink2 = [[x + 10, y + 10] for x, y in sink1]
        else:                       # 100 agents whose greedy search stops at rank 1,
            # though together they have rank 2
            sink2 = [[10, 10], [11, 10]] + [[10, 10 + 5e-10]] * 100
        pts = sink1 + sink2 + [[5, 5]]
        N, m = len(pts), len(sink2)
        cycle2 = [(5 + k, 5 + (k + 1) % m) for k in range(m)]
        g = Digraph(N, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)] + cycle2 + [(N, 1), (N, 5)])
        return g, Configuration.from_agents(pts)

    @pytest.mark.parametrize("second", ["refused", "degenerate"])
    def test_first_refused_simplex_agent_is_named(self, second):
        g, p = self.instance(second)
        assert in_controllable_set(p, coarse_scd(g)).passes
        got = witness_outcome(construct_witness_basis, p, g)
        assert got == (StructuralFailure, "witness fields of agent 3 are numerically dependent")
        assert got == witness_outcome(witness_per_agent, p, g)

    def test_degenerate_second_sink_alone_is_refused(self):
        g, p = self.instance("degenerate")
        pts = p.agents.copy()
        pts[2] = [0, 1]             # sink 1 is now well conditioned
        with pytest.raises(Degenerate, match="configuration rank 1 < n = 2"):
            construct_witness_basis(Configuration.from_agents(pts), g)


class TestWitnessOverflow:
    # finite agents whose differences overflow: agent 5 against the 4-cycle
    AGENTS = [[-1e308, 0], [-9e307, 1e307], [-8e307, -1e307], [-7e307, 5e306], [1e308, 0]]
    EDGES = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (5, 1)]

    def test_overflowing_differences_are_named_without_a_warning(self):
        p = Configuration.from_agents(self.AGENTS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizeMismatch) as exc:
                construct_witness_basis(p, Digraph(5, self.EDGES))
        assert str(exc.value) == _OVERFLOW


class TestSerialization:
    def test_witness_csv_shape(self):
        g = cycle_graph(4)
        p = sample_configuration(2, 4, "rank_k", k=2, seed=9)
        wb = construct_witness_basis(p, g)
        lines = format_witness_csv(wb).strip().splitlines()
        assert len(lines) == 8
        for line in lines:
            fields = line.split(",")
            assert len(fields) == 9  # nN values plus label
            kind = fields[-1].split(":")[0]
            assert kind in ("simplex", "attachment")


class TestGraphAnalysisOnce:
    def test_certificate_chain_runs_tarjan_once(self, monkeypatch):
        calls = []
        tarjan = digraph._tarjan_components

        def counted(g):
            calls.append(g)
            return tarjan(g)

        monkeypatch.setattr(digraph, "_tarjan_components", counted)
        g = sink_component_graph(random.Random(5), 3, [4, 4])
        p = sample_configuration(2, g.num_vertices, seed=6)
        coarse_scd(g)
        structural_verdict(g, 2)
        transitive_closure(g)
        lie_algebra_at(p, g)
        construct_witness_basis(p, g)
        assert calls == [g]

    def test_disconnected_graph_is_refused_after_one_search(self, monkeypatch):
        calls = []
        tarjan = digraph._tarjan_components

        def counted(g):
            calls.append(g)
            return tarjan(g)

        monkeypatch.setattr(digraph, "_tarjan_components", counted)
        g = Digraph(8, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7), (7, 8), (8, 5)])
        p = sample_configuration(2, 8, seed=6)
        with pytest.raises(NotWeaklyConnected):
            construct_witness_basis(p, g)
        with pytest.raises(NotWeaklyConnected):
            structural_verdict(g, 2)
        assert calls == [g]

    def test_certificate_chain_builds_no_skeleton(self, monkeypatch):
        built = []
        skeleton = digraph.ScdReport.skeleton.fn

        def counted(report):
            built.append(report)
            return skeleton(report)

        monkeypatch.setattr(digraph.ScdReport.skeleton, "fn", counted)
        g = sink_component_graph(random.Random(5), 3, [4, 4])
        p = sample_configuration(2, g.num_vertices, seed=6)
        scd = coarse_scd(g)
        structural_verdict(g, 2)
        in_controllable_set(p, scd)
        lie_algebra_at(p, g)
        construct_witness_basis(p, g)
        assert built == []
