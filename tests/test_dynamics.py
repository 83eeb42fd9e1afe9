"""Flows, simulation, steering, and tracking."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formctl import digraph, dynamics
from formctl.configspace import Configuration, configuration_rank
from formctl.digraph import Digraph
from formctl.dynamics import (
    ControlSchedule,
    GraphSchedule,
    SteerOptions,
    TrackOptions,
    Trajectory,
    flow_constant,
    format_control_schedule_csv,
    format_trajectory_csv,
    parse_control_schedule_csv,
    parse_graph_schedule,
    parse_waypoints,
    simulate,
    steer,
    track_path,
)
from formctl.errors import (
    DimensionMismatch,
    InconsistentSchedule,
    InputFormatError,
    NegativeDuration,
    SegmentFailure,
    StepTooLarge,
    StructuralFailure,
    UnknownEdge,
)

from helpers import cycle_graph, forward_jacobian, parse_trajectory_csv, path_graph


# every time grid refuses a time that is not finite as it does one out of order
NON_FINITE = [math.nan, math.inf, -math.inf]
FINITE_AND_INCREASING = "must strictly increase and be finite"


def two_agent_line():
    return Digraph(2, [(1, 2)]), Configuration.from_agents([[1.0, 3.0], [4.0, -1.0]])


class TestGraphSchedule:
    def test_constant(self):
        g = Digraph.complete(3)
        s = GraphSchedule.constant(g, 2.0)
        assert s.active(0.0) is g
        assert s.active(2.0) is g
        assert s.switch_times == ()

    def test_right_continuous_at_switch(self):
        g1, g2 = cycle_graph(3), Digraph.complete(3)
        s = GraphSchedule(((0.0, g1), (0.5, g2)), 1.0)
        assert s.active(0.5 - 1e-9) is g1
        assert s.active(0.5) is g2
        assert s.active(1.0) is g2

    def test_rejects_bad_horizon(self):
        with pytest.raises(InconsistentSchedule):
            GraphSchedule(((0.0, cycle_graph(3)),), 0.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(InconsistentSchedule, match="finite"):
            GraphSchedule(((0.0, cycle_graph(3)),), horizon)

    def test_rejects_nonzero_first_start(self):
        with pytest.raises(InconsistentSchedule):
            GraphSchedule(((0.1, cycle_graph(3)),), 1.0)

    def test_rejects_unsorted_starts(self):
        g = cycle_graph(3)
        with pytest.raises(InconsistentSchedule):
            GraphSchedule(((0.0, g), (0.5, g), (0.5, g)), 1.0)

    def test_rejects_start_at_horizon(self):
        g = cycle_graph(3)
        with pytest.raises(InconsistentSchedule):
            GraphSchedule(((0.0, g), (1.0, g)), 1.0)

    @pytest.mark.parametrize("t", NON_FINITE, ids=str)
    def test_rejects_start_times_that_are_not_finite(self, t):
        g = cycle_graph(3)
        with pytest.raises(InconsistentSchedule, match=FINITE_AND_INCREASING):
            GraphSchedule(((0.0, g), (t, g), (0.5, g)), 1.0)

    def test_rejects_mixed_vertex_counts(self):
        with pytest.raises(InconsistentSchedule):
            GraphSchedule(((0.0, cycle_graph(3)), (0.5, cycle_graph(4))), 1.0)

    def test_active_outside_horizon(self):
        s = GraphSchedule.constant(cycle_graph(3), 1.0)
        with pytest.raises(InconsistentSchedule):
            s.active(1.5)


class TestControlSchedule:
    def test_rejects_short_grid(self):
        with pytest.raises(InconsistentSchedule):
            ControlSchedule((0.0,), ())

    def test_rejects_value_count_mismatch(self):
        with pytest.raises(InconsistentSchedule):
            ControlSchedule((0.0, 1.0), ({}, {}))

    @pytest.mark.parametrize("grid", [(0.0, t, 1.0) for t in NON_FINITE] +
                             [(0.0, 0.5, t) for t in NON_FINITE] +
                             [(t, 0.5, 1.0) for t in NON_FINITE], ids=str)
    def test_rejects_grid_times_that_are_not_finite(self, grid):
        with pytest.raises(InconsistentSchedule, match="control grid " + FINITE_AND_INCREASING):
            ControlSchedule(grid, ({(1, 2): 1.0}, {(1, 2): 2.0}))

    def test_interval_lookup(self):
        cs = ControlSchedule((0.0, 0.5, 1.0), ({(1, 2): 1.0}, {(1, 2): 2.0}))
        assert cs.interval_of(0.0) == 0
        assert cs.interval_of(0.5) == 1
        assert cs.interval_of(1.0) == 1

    def test_validate_needs_full_cover(self):
        s = GraphSchedule.constant(Digraph(2, [(1, 2)]), 1.0)
        cs = ControlSchedule((0.0, 0.5), ({(1, 2): 1.0},))
        with pytest.raises(InconsistentSchedule):
            cs.validate_against(s)

    def test_validate_needs_switch_breakpoints(self):
        g = Digraph.complete(3)
        s = GraphSchedule(((0.0, g), (0.4, g)), 1.0)
        cs = ControlSchedule((0.0, 0.5, 1.0), ({}, {}))
        with pytest.raises(InconsistentSchedule):
            cs.validate_against(s)

    def test_validate_flags_foreign_edges(self):
        s = GraphSchedule.constant(Digraph(3, [(1, 2)]), 1.0)
        cs = ControlSchedule((0.0, 1.0), ({(2, 3): 1.0},))
        with pytest.raises(UnknownEdge):
            cs.validate_against(s)


class TestTrajectory:
    @pytest.mark.parametrize("times", [(0.0, t, 1.0) for t in NON_FINITE] +
                             [(0.0, 0.5, t) for t in NON_FINITE] + [(t,) for t in NON_FINITE],
                             ids=str)
    def test_rejects_sample_times_that_are_not_finite(self, times):
        _, p = two_agent_line()
        with pytest.raises(InconsistentSchedule, match="sample times " + FINITE_AND_INCREASING):
            Trajectory(times, (p,) * len(times))

    def test_rejects_unsorted_times(self):
        _, p = two_agent_line()
        with pytest.raises(InconsistentSchedule, match="sample times must strictly increase"):
            Trajectory((0.0, 0.5, 0.5), (p, p, p))


class TestFlowConstant:
    def test_closed_form_two_agents(self):
        g, p = two_agent_line()
        for h in (0.0, 0.3, 1.7):
            q = flow_constant(g, {(1, 2): 1.0}, p, h)
            expect = p.agents[1] + (p.agents[0] - p.agents[1]) * math.exp(-h)
            assert np.allclose(q.agents[0], expect, atol=1e-12)
            assert np.array_equal(q.agents[1], p.agents[1])

    def test_zero_control_returns_input_unchanged(self):
        g, p = two_agent_line()
        assert flow_constant(g, {(1, 2): 0.0}, p, 0.9) is p
        assert flow_constant(g, {}, p, 0.9) is p

    def test_zero_duration_is_identity(self):
        g, p = two_agent_line()
        assert flow_constant(g, {(1, 2): 2.0}, p, 0.0) is p

    def test_negative_duration_rejected(self):
        g, p = two_agent_line()
        with pytest.raises(NegativeDuration):
            flow_constant(g, {(1, 2): 1.0}, p, -0.1)

    def test_unknown_edge_rejected(self):
        g, p = two_agent_line()
        with pytest.raises(UnknownEdge):
            flow_constant(g, {(2, 1): 1.0}, p, 0.5)

    def test_agent_count_mismatch(self):
        g, _ = two_agent_line()
        p3 = Configuration.from_agents([[0.0], [1.0], [2.0]])
        with pytest.raises(DimensionMismatch):
            flow_constant(g, {(1, 2): 1.0}, p3, 0.5)

    @given(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.integers(0, 10 ** 6))
    @example(1.0, 2.0, 65)   # repelling controls, |x| near 625 at h = 3
    @settings(max_examples=30, deadline=None)
    def test_semigroup(self, h1, h2, seed):
        rng = np.random.default_rng(seed)
        g = Digraph.complete(4)
        u = {e: float(rng.uniform(-1, 1)) for e in g.edges}
        p = Configuration.from_agents(rng.normal(size=(4, 2)))
        ab = flow_constant(g, u, flow_constant(g, u, p, h1), h2)
        once = flow_constant(g, u, p, h1 + h2)
        assert np.max(np.abs(ab.coords - once.coords)) < 1e-10

    @pytest.mark.parametrize("seed,h", [(65, 1.0), (65, 3.0), (7, 2.0), (1234, 1.5)])
    def test_matches_high_precision_reference(self, seed, h):
        # 40-digit exponential; the error bound is relative to the state's scale
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        g = Digraph.complete(4)
        u = {e: float(rng.uniform(-1, 1)) for e in g.edges}
        p = Configuration.from_agents(rng.normal(size=(4, 2)))
        m = np.zeros((4, 4))
        for (i, j), w in u.items():
            m[i - 1, i - 1] -= w
            m[i - 1, j - 1] += w
        with mpmath.workdps(40):
            e = mpmath.expm(mpmath.matrix((h * m).tolist()))
            x = mpmath.matrix(p.coords.reshape(2, 4).tolist())
            ref = np.array((x * e.T).tolist(), dtype=float).reshape(-1)
        got = flow_constant(g, u, p, h).coords
        assert np.max(np.abs(got - ref)) <= 5e-14 * max(1.0, np.max(np.abs(ref)))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_translation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        g = Digraph.complete(4)
        u = {e: float(rng.uniform(-1, 1)) for e in g.edges}
        p = Configuration.from_agents(rng.normal(size=(4, 3)))
        shift = rng.normal(size=3)
        moved = Configuration.from_agents(p.agents + shift)
        q, q_moved = flow_constant(g, u, p, 0.6), flow_constant(g, u, moved, 0.6)
        assert np.allclose(q_moved.agents, q.agents + shift, atol=1e-10)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_rank_preserved(self, seed):
        rng = np.random.default_rng(seed)
        g = Digraph.complete(5)
        u = {e: float(rng.uniform(-1.5, 1.5)) for e in g.edges}
        p = Configuration.from_agents(rng.normal(size=(5, 2)))
        q = flow_constant(g, u, p, 0.8)
        assert configuration_rank(q) == configuration_rank(p)


def generator_stack(rng, N, S, norm):
    """(S, N, N) stack of control matrices h M_s on K_N, largest 1-norm equal to norm."""
    hm = np.zeros((S, N, N))
    for i in range(N):
        hm[:, i] = rng.uniform(-1, 1, size=(S, N))
        hm[:, i, i] = 0.0
        hm[:, i, i] = -hm[:, i].sum(axis=1)
    return hm * (norm / np.abs(hm).sum(axis=1).max())


def van_loan_stack(hm):
    """(S, E, 2N, 2N) blocks [[hM_s, A_e], [0, hM_s]] over the edges of K_N."""
    S, N, _ = hm.shape
    edges = sorted(Digraph.complete(N).edges)
    blocks = np.zeros((S, len(edges), 2 * N, 2 * N))
    blocks[:, :, :N, :N] = hm[:, None]
    blocks[:, :, N:, N:] = hm[:, None]
    for k, (i, j) in enumerate(edges):
        blocks[:, k, i - 1, N + i - 1] = -1.0
        blocks[:, k, i - 1, N + j - 1] = 1.0
    return blocks


# largest 1-norms that select each Pade degree (3, 5, 7, 9) and some above
# the degree-9 bound 2.0978, which are scaled and squared back
PADE_NORMS = [0.01, 0.2, 0.9, 2.0, 2.4, 8.0, 60.0]


def agreement(norm):
    # above 5.37 both sides scale and square; scipy's own error there reaches
    # 2.5e-13 of the scale against a 40-digit reference, so the reference
    # test below holds expm to the tighter bound
    return 1e-14 if norm <= 5.37 else 1e-12


def frechet_case(norm):
    """(3, 4, 4) generator stack of largest 1-norm norm and four rank-one
    directions per matrix, the shape of the shooting Jacobian's directions."""
    rng = np.random.default_rng(17)
    hm = generator_stack(rng, 4, 3, norm)
    return hm, rng.standard_normal((3, 4, 4, 1)) * rng.standard_normal((3, 4, 1, 4))


class TestExpm:
    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_segment_stack_matches_scipy(self, norm):
        linalg = pytest.importorskip("scipy.linalg")
        hm = generator_stack(np.random.default_rng(5), 5, 6, norm)
        got, ref = dynamics.expm(hm), linalg.expm(hm)
        scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
        assert np.max(np.abs(got - ref) / scale) <= agreement(norm)

    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_van_loan_stack_matches_scipy(self, norm):
        linalg = pytest.importorskip("scipy.linalg")
        blocks = van_loan_stack(generator_stack(np.random.default_rng(8), 4, 3, 1.0))
        blocks *= norm / np.abs(blocks).sum(axis=-2).max()
        got, ref = dynamics.expm(blocks), linalg.expm(blocks)
        scale = np.abs(ref).max(axis=(2, 3), keepdims=True)
        assert np.max(np.abs(got - ref) / scale) <= agreement(norm)

    @pytest.mark.parametrize("norm", [8.0, 60.0])
    def test_scaled_stack_matches_high_precision_reference(self, norm):
        mpmath = pytest.importorskip("mpmath")
        hm = generator_stack(np.random.default_rng(5), 5, 6, norm)
        got = dynamics.expm(hm)
        for s in range(6):
            with mpmath.workdps(40):
                ref = np.array(mpmath.expm(mpmath.matrix(hm[s].tolist())).tolist(),
                               dtype=float)
            assert np.max(np.abs(got[s] - ref)) <= 5e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("norm", [0.3, 1.5, 6.0])
    def test_van_loan_block_is_the_frechet_derivative(self, norm):
        linalg = pytest.importorskip("scipy.linalg")
        hm = generator_stack(np.random.default_rng(13), 4, 2, norm)
        blocks = van_loan_stack(hm)
        frechet = dynamics.expm(blocks)[:, :, :4, 4:]
        for s in range(2):
            for e in range(blocks.shape[1]):
                ref = linalg.expm_frechet(hm[s], blocks[s, e, :4, 4:], compute_expm=False)
                assert np.max(np.abs(frechet[s, e] - ref)) <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_frechet_derivatives_match_scipy(self, norm):
        linalg = pytest.importorskip("scipy.linalg")
        hm, e = frechet_case(norm)
        got = dynamics._frechet(dynamics._pade_exp(hm), e)
        for s in range(len(hm)):
            for d in range(e.shape[1]):
                ref = linalg.expm_frechet(hm[s], e[s, d], compute_expm=False)
                assert np.max(np.abs(got[s, d] - ref)) <= agreement(norm) * np.abs(ref).max()

    @pytest.mark.parametrize("norm", [8.0, 60.0])
    def test_scaled_frechet_matches_high_precision_reference(self, norm):
        mpmath = pytest.importorskip("mpmath")
        hm, e = frechet_case(norm)
        got = dynamics._frechet(dynamics._pade_exp(hm), e)
        for s in range(len(hm)):
            for d in range(e.shape[1]):
                block = np.block([[hm[s], e[s, d]], [np.zeros((4, 4)), hm[s]]])
                with mpmath.workdps(40):
                    ref = np.array(mpmath.expm(mpmath.matrix(block.tolist())).tolist(),
                                   dtype=float)[:4, 4:]
                assert np.max(np.abs(got[s, d] - ref)) <= 5e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_exponential_with_directions_is_expm(self, norm):
        # the Jacobian differentiates the flow's own evaluation, whose
        # exponentials are expm's, bit for bit
        hm, e = frechet_case(norm)
        shooting = dynamics._ShootingMap(Digraph.complete(4), np.ones((2, 4)), len(hm), 1.0)
        shooting.h_generators = hm      # control 1 on generator s in segment s
        fwd = shooting.forward(np.eye(len(hm)).reshape(-1))
        assert np.array_equal(fwd.hm, hm)
        assert fwd.exps is fwd.pade.exp
        assert np.array_equal(fwd.exps, dynamics.expm(hm))
        assert dynamics._frechet(fwd.pade, e).shape == e.shape

    @pytest.mark.parametrize("norm", PADE_NORMS)
    def test_agent_without_controls_stays_fixed_exactly(self, norm):
        # agent 3 has no outgoing control on any segment: its row is e_3, bit for bit
        hm = generator_stack(np.random.default_rng(21), 4, 5, 1.0)
        hm[:, 2] = 0.0
        hm *= norm / np.abs(hm).sum(axis=1).max()
        exps = dynamics.expm(hm)
        assert np.array_equal(exps[:, 2], np.tile(np.eye(4)[2], (5, 1)))
        assert not np.array_equal(exps[:, 1], np.tile(np.eye(4)[1], (5, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_slice_gives_nan(self, bad):
        hm = generator_stack(np.random.default_rng(3), 4, 4, 1.0)
        hm[2, 1, 3] = bad
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            exps = dynamics.expm(hm)
            frechet = dynamics.expm(van_loan_stack(hm))
        assert exps.shape == hm.shape and np.isnan(exps).all()
        assert frechet.shape == (4, 12, 8, 8) and np.isnan(frechet).all()

    def test_matrix_and_empty_stack(self):
        m = generator_stack(np.random.default_rng(4), 3, 1, 1.0)
        assert np.array_equal(dynamics.expm(m[0]), dynamics.expm(m)[0])
        assert dynamics.expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def switching_setup():
    g1 = Digraph(3, [(1, 2), (2, 3), (3, 1)])
    g2 = Digraph(3, [(1, 3), (2, 1), (3, 2)])
    sched = GraphSchedule(((0.0, g1), (0.5, g2)), 1.0)
    cs = ControlSchedule(
        (0.0, 0.25, 0.5, 0.75, 1.0),
        ({(1, 2): 1.0}, {(2, 3): -0.5}, {(1, 3): 0.8}, {(3, 2): 0.3}))
    p0 = Configuration.from_agents([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return sched, cs, p0


class TestSimulate:
    def test_samples_cover_breakpoints_and_dt(self):
        sched, cs, p0 = switching_setup()
        traj = simulate(sched, cs, p0, 0.1)
        for t in (0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.3, 0.9):
            assert any(abs(t - s) < 1e-9 for s in traj.times)

    def test_matches_manual_flow_composition(self):
        sched, cs, p0 = switching_setup()
        traj = simulate(sched, cs, p0, 0.25)
        p = p0
        gs = [sched.active(t) for t in (0.0, 0.25, 0.5, 0.75)]
        for g, u in zip(gs, cs.values):
            p = flow_constant(g, u, p, 0.25)
        assert np.max(np.abs(traj.final.coords - p.coords)) < 1e-12

    def test_refinement_agrees(self):
        sched, cs, p0 = switching_setup()
        coarse = simulate(sched, cs, p0, 0.25)
        fine = simulate(sched, cs, p0, 0.01)
        assert np.max(np.abs(coarse.final.coords - fine.final.coords)) < 1e-10

    def test_one_expm_call_per_simulation(self, monkeypatch):
        calls = []
        expm = dynamics.expm

        def counted(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(dynamics, "expm", counted)
        sched, cs, p0 = switching_setup()
        traj = simulate(sched, cs, p0, 0.1)
        assert calls == [(len(traj.times) - 1, 3, 3)]

    def test_zero_control_fixed_point_exact(self):
        g = Digraph.complete(3)
        sched = GraphSchedule.constant(g, 2.0)
        cs = ControlSchedule((0.0, 1.0, 2.0), ({e: 0.0 for e in g.edges}, {}))
        p0 = Configuration.from_agents([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
        traj = simulate(sched, cs, p0, 0.5)
        assert all(s is p0 for s in traj.states)

    @pytest.mark.parametrize("switches, grid, horizon", [
        ((0.3,), (0.0, 0.1 * 3, 0.6), 0.6),    # grid point 5.6e-17 past the switch
        ((), (0.0, 0.3, 0.6, 0.3 * 3), 0.9),   # grid end 1.1e-16 short of the horizon
    ])
    def test_breakpoints_are_the_validated_grid(self, switches, grid, horizon):
        g1, g2 = cycle_graph(3), Digraph(3, [(1, 3), (2, 1), (3, 2)])
        segments = ((0.0, g1),) + tuple((t, g2) for t in switches)
        sched = GraphSchedule(segments, horizon)
        values = tuple({sorted(sched.active(t).edges)[0]: 0.7} for t in grid[:-1])
        cs = ControlSchedule(grid, values)
        p0 = Configuration.from_agents([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        traj = simulate(sched, cs, p0, 0.1)
        assert min(b - a for a, b in zip(traj.times, traj.times[1:])) > 0.09
        p = p0
        for k, u in enumerate(values):
            p = flow_constant(sched.active(grid[k]), u, p, grid[k + 1] - grid[k])
        assert np.max(np.abs(traj.final.coords - p.coords)) < 1e-12

    def test_step_too_large(self):
        sched, cs, p0 = switching_setup()
        with pytest.raises(StepTooLarge):
            simulate(sched, cs, p0, 0.3)

    def test_rejects_nonpositive_dt(self):
        sched, cs, p0 = switching_setup()
        with pytest.raises(StepTooLarge):
            simulate(sched, cs, p0, 0.0)

    def test_rejects_nan_dt(self):
        sched, cs, p0 = switching_setup()
        with pytest.raises(StepTooLarge, match="finite"):
            simulate(sched, cs, p0, math.nan)

    def test_rejects_grid_missing_switch(self):
        sched, _, p0 = switching_setup()
        bad = ControlSchedule((0.0, 0.4, 1.0), ({(1, 2): 1.0}, {(1, 3): 1.0}))
        with pytest.raises(InconsistentSchedule):
            simulate(sched, bad, p0, 0.1)

    def test_rejects_agent_count_mismatch(self):
        sched, cs, _ = switching_setup()
        p_bad = Configuration.from_agents([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(InconsistentSchedule):
            simulate(sched, cs, p_bad, 0.1)

    def test_rank_never_increases_along_exact_path(self):
        rng = np.random.default_rng(3)
        g = Digraph.complete(4)
        sched = GraphSchedule.constant(g, 1.0)
        u = {e: float(rng.uniform(-1, 1)) for e in g.edges}
        cs = ControlSchedule((0.0, 0.5, 1.0), (u, u))
        p0 = Configuration.from_agents(rng.normal(size=(4, 2)))
        traj = simulate(sched, cs, p0, 0.1)
        ranks = [configuration_rank(s) for s in traj.states]
        assert all(b <= a for a, b in zip(ranks, ranks[1:]))


def tracked_pair(seed=11):
    rng = np.random.default_rng(seed)
    g = Digraph.complete(5)
    p0 = Configuration.from_agents(rng.normal(size=(5, 2)))
    edges = sorted(g.edges)
    theta = rng.uniform(-0.4, 0.4, size=6 * len(edges))
    p1 = p0
    for s in range(6):
        u = dict(zip(edges, theta[s * len(edges):(s + 1) * len(edges)]))
        p1 = flow_constant(g, u, p1, 1.0 / 6)
    return g, p0, p1


class TestSteer:
    def test_inverse_crime_recovers_target(self):
        # K5 reaches a target of known controls on the caller's grid
        g, p0, p1 = tracked_pair()
        result = steer(g, p0, p1, 6, 1.0)
        assert result.residual <= 1e-8
        assert result.start_index == 0
        assert result.controls.grid == tuple(k / 6 for k in range(6)) + (1.0,)
        final = p0
        for k, u in enumerate(result.controls.values):
            final = flow_constant(g, u, final,
                                  result.controls.grid[k + 1] - result.controls.grid[k])
        assert np.linalg.norm(final.coords - p1.coords) <= 1e-8

    def test_identical_endpoints_need_no_control(self):
        g, p0, _ = tracked_pair()
        result = steer(g, p0, p0, 3, 1.0)
        assert result.residual == 0.0
        assert result.iterations == 0
        assert all(all(v == 0.0 for v in u.values()) for u in result.controls.values)

    def test_deterministic_repeat(self):
        g, p0, p1 = tracked_pair(5)
        a = steer(g, p0, p1, 4, 1.0)
        b = steer(g, p0, p1, 4, 1.0)
        assert a.controls == b.controls
        assert a.residual == b.residual
        assert a.start_index == b.start_index

    def test_missed_target_is_reached_on_a_refined_grid(self):
        # the directed cycle C5, pair 13: six segments end at residual 0.128,
        # and the second round, each segment split in two, reaches the target
        g = Digraph(5, [(i, i % 5 + 1) for i in range(1, 6)])
        rng = np.random.default_rng(13)
        p0, p1 = (Configuration.from_agents(rng.standard_normal((5, 2))) for _ in range(2))
        result = steer(g, p0, p1, 6, 1.0)
        assert result.residual <= 1e-8
        assert result.start_index == 1
        grid = result.controls.grid
        assert len(result.controls.values) == 12
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.allclose(np.diff(grid), 1.0 / 12, rtol=0, atol=1e-15)
        p = p0
        for k, u in enumerate(result.controls.values):
            p = flow_constant(g, u, p, grid[k + 1] - grid[k])
        miss = float(np.linalg.norm(p.coords - p1.coords))
        assert abs(miss - result.residual) <= 1e-9

    def test_schedule_shape(self):
        g, p0, p1 = tracked_pair(8)
        result = steer(g, p0, p1, 5, 2.0)
        assert result.controls.grid == tuple(2.0 * k / 5 for k in range(5)) + (2.0,)
        assert all(set(u) == g.edges for u in result.controls.values)

    def test_rejects_bad_horizon(self):
        # the one horizon check, with the type and message of GraphSchedule's
        g, p0, p1 = tracked_pair()
        for T in (0.0, -1.0):
            with pytest.raises(InconsistentSchedule,
                               match=f"horizon must be positive and finite, got {T}"):
                steer(g, p0, p1, 4, T)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, T):
        g, p0, p1 = tracked_pair()
        with pytest.raises(InconsistentSchedule,
                           match=f"horizon must be positive and finite, got {T}"):
            steer(g, p0, p1, 4, T)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_tolerance(self, tol):
        g, p0, p1 = tracked_pair()
        with pytest.raises(InconsistentSchedule, match="tolerance"):
            steer(g, p0, p1, 4, 1.0, SteerOptions(tolerance=tol))

    def test_rejects_single_segment(self):
        g, p0, p1 = tracked_pair()
        with pytest.raises(InconsistentSchedule):
            steer(g, p0, p1, 1, 1.0)

    @pytest.mark.parametrize("segments", [4.5, 4.0, True, np.int64(4)])
    def test_rejects_segments_that_are_not_python_ints(self, segments):
        g, p0, p1 = tracked_pair()
        with pytest.raises(InconsistentSchedule, match="segments"):
            steer(g, p0, p1, segments, 1.0)

    # the iteration cap and the round count are fixed (_MAX_ITERATIONS,
    # _ROUNDS) and refinement needs no seed, so a caller's setting of any of
    # them is refused before any search
    @pytest.mark.parametrize("setting", [
        dict(max_iterations=-1), dict(max_iterations=0), dict(max_iterations=2.5),
        dict(max_iterations=True), dict(multi_start=-3), dict(multi_start=0),
        dict(multi_start=2.0), dict(multi_start=np.int64(2)), dict(seed=0),
    ], ids=lambda d: "=".join(map(str, *d.items())))
    def test_rejects_counts_before_any_search(self, setting, monkeypatch):
        g, p0, p1 = tracked_pair()
        monkeypatch.setattr(dynamics, "expm", None)  # no flow may be formed
        with pytest.raises(TypeError, match=next(iter(setting))):
            steer(g, p0, p1, 4, 1.0, SteerOptions(**setting))

    def test_options_hold_only_the_settings_in_force(self):
        assert [f.name for f in dataclasses.fields(SteerOptions)] == ["tolerance"]
        assert [f.name for f in dataclasses.fields(TrackOptions)] == ["segments_per_leg"]

    def test_rejects_shape_mismatch(self):
        g, p0, _ = tracked_pair()
        other = Configuration.from_agents(np.zeros((4, 2)))
        with pytest.raises(InconsistentSchedule):
            steer(g, p0, other, 4, 1.0)

    def test_warns_on_degenerate_endpoint(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_ITERATIONS", 3)
        monkeypatch.setattr(dynamics, "_ROUNDS", 1)
        g = Digraph.complete(5)
        coincident = Configuration.from_agents(np.ones((5, 2)))
        target = Configuration.from_agents(np.random.default_rng(0).normal(size=(5, 2)))
        with pytest.warns(UserWarning, match="rank condition"):
            steer(g, coincident, target, 2, 1.0)

    def test_builds_closure_once(self, monkeypatch):
        # both endpoint rank checks read one closure, so Tarjan runs once on g
        calls = []
        tarjan = digraph._tarjan_components

        def counted(g):
            calls.append(g)
            return tarjan(g)

        monkeypatch.setattr(digraph, "_tarjan_components", counted)
        monkeypatch.setattr(dynamics, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(dynamics, "_ROUNDS", 1)
        g = Digraph.complete(5)
        rng = np.random.default_rng(1)
        p0, p1 = (Configuration.from_agents(rng.normal(size=(5, 2))) for _ in range(2))
        steer(g, p0, p1, 2, 1.0)
        assert calls == [g]

    def test_exact_jacobian_matches_central_differences(self):
        g, p0, _ = tracked_pair(21)
        edges = sorted(g.edges)
        segments, h = 3, 1.0 / 3
        rng = np.random.default_rng(4)
        theta = rng.uniform(-0.3, 0.3, size=segments * len(edges))
        shooting = dynamics._ShootingMap(g, p0.coords.reshape(p0.n, p0.N), segments, h)
        exact = shooting.jacobian(shooting.forward(theta))

        def phi(th):
            p = p0
            for s in range(segments):
                u = dict(zip(edges, th[s * len(edges):(s + 1) * len(edges)]))
                p = flow_constant(g, u, p, h)
            return p.coords

        central = np.empty_like(exact)
        for c in range(theta.size):
            d = 1e-6 * max(1.0, abs(theta[c]))
            up, down = theta.copy(), theta.copy()
            up[c] += d
            down[c] -= d
            central[:, c] = (phi(up) - phi(down)) / (2 * d)
        assert np.max(np.abs(exact - central)) <= 1e-6 * np.max(np.abs(central))

    def test_expm_calls_and_jacobian_work_do_not_grow_with_edges(self, monkeypatch):
        # every trial's forward pass makes one Pade evaluation of the segment
        # flows and no expm call; a Jacobian forms no exponential, but
        # differentiates that evaluation along n N directions in one Frechet
        # call, and is formed once at the start and once per accepted step,
        # except where the residual meets the tolerance
        flows, pades, frechets, trials = [], [], [], []
        expm, pade_exp, frechet = dynamics.expm, dynamics._pade_exp, dynamics._frechet
        evaluate = dynamics._evaluate

        def counted(a):
            flows.append(a.shape)
            return expm(a)

        def counted_pade(a):
            pades.append(a.shape)
            return pade_exp(a)

        def counted_frechet(pade, e):
            frechets.append((pade.exp.shape, e.shape))
            return frechet(pade, e)

        def recorded(shooting, target, theta, tolerance, bound):
            out = evaluate(shooting, target, theta, tolerance, bound)
            trials.append(out[2])
            return out

        monkeypatch.setattr(dynamics, "expm", counted)
        monkeypatch.setattr(dynamics, "_pade_exp", counted_pade)
        monkeypatch.setattr(dynamics, "_frechet", counted_frechet)
        monkeypatch.setattr(dynamics, "_evaluate", recorded)
        monkeypatch.setattr(dynamics, "_ROUNDS", 1)
        rejected = 0
        for N in (4, 6):
            pades.clear()
            frechets.clear()
            trials.clear()
            rng = np.random.default_rng(N)
            p0, p1 = (Configuration.from_agents(rng.normal(size=(N, 2))) for _ in range(2))
            result = steer(Digraph.complete(N), p0, p1, 3, 1.0)
            assert pades == [(3, N, N)] * len(trials) == [(3, N, N)] * (result.iterations + 1)
            assert flows == []
            jacobian = ((3, N, N), (3, 2 * N, N, N))
            assert set(frechets) <= {jacobian}
            accepted, current = 0, trials[0]
            for res in trials[1:]:
                if res < current:
                    accepted, current = accepted + 1, res
            met = result.residual <= 1e-8
            assert len(frechets) == 1 + accepted - met
            rejected += result.iterations - accepted
        assert rejected > 0     # some trial was rejected and formed no Jacobian

    def test_failed_svd_ends_the_start(self, monkeypatch):
        calls = []

        def failing_svd(*args, **kwargs):
            calls.append(args)
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(dynamics, "larc_passes", lambda p, g: True)
        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        g = Digraph.complete(4)
        rng = np.random.default_rng(3)
        p0, p1 = (Configuration.from_agents(rng.normal(size=(4, 2))) for _ in range(2))
        result = steer(g, p0, p1, 3, 1.0)
        assert len(calls) == dynamics._ROUNDS
        assert result.iterations == 1
        assert result.no_progress is True

    def test_start_without_accepted_step_reports_no_progress(self, monkeypatch):
        # every trial overflows the flow and is rejected, until the damping
        # passes 1e12 after 16 trials, in each of the _ROUNDS rounds
        monkeypatch.setattr(dynamics, "_damped_step",
                            lambda svd, r, lam: np.full(svd[2].shape[1], 1e300))
        g, p0, p1 = tracked_pair()
        result = steer(g, p0, p1, 3, 1.0)
        assert result.residual == float(np.linalg.norm(p1.coords - p0.coords))
        assert (result.start_index, result.iterations) == (dynamics._ROUNDS - 1, 16)
        assert len(result.controls.values) == 3 * 2 ** (dynamics._ROUNDS - 1)
        assert result.no_progress is True

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_generator_gives_a_rejected_jacobian(self, bad):
        g, p0, p1 = tracked_pair()
        shooting = dynamics._ShootingMap(g, p0.coords.reshape(p0.n, p0.N), 3, 1.0 / 3)
        theta = np.random.default_rng(2).uniform(-0.5, 0.5, size=3 * len(g.edges))
        shooting.h_generators[1, 0, 2] = bad    # every segment's exponent sees it
        fwd = shooting.forward(theta)
        assert fwd.pade is None
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            jac = shooting.jacobian(fwd)
            _, _, res, rejected = dynamics._evaluate(
                shooting, p1.coords.reshape(p1.n, p1.N), theta, 1e-8, math.inf)
        assert jac.shape == (p0.n * p0.N, 3 * len(g.edges))
        assert not np.isfinite(jac).any()
        assert (res, rejected) == (math.inf, None)

    @pytest.mark.parametrize("graph, segments, scale", [
        (Digraph.complete(5), 6, 1.0),
        (Digraph.complete(8), 8, 1.0),
        (Digraph(6, [(i, i % 6 + 1) for i in range(1, 7)]), 6, 1.0),
        # without the power-of-two scaling of the directions this misses by 2.7e-13
        (Digraph.complete(5), 6, 1e3),
    ])
    def test_adjoint_jacobian_matches_forward_form(self, graph, segments, scale):
        rng = np.random.default_rng(3)
        x0 = scale * rng.standard_normal((2, graph.num_vertices))
        theta = rng.uniform(-0.5, 0.5, size=segments * len(graph.edges))
        shooting = dynamics._ShootingMap(graph, x0, segments, 1.0 / segments)
        fwd = shooting.forward(theta)
        ref = forward_jacobian(shooting, fwd)
        got = shooting.jacobian(fwd)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lam", [1e-3, 1.0])
    @pytest.mark.parametrize("graph, n, segments", [
        (Digraph.complete(5), 2, 6),                              # J is 10 x 120
        (Digraph(5, [(i, i % 5 + 1) for i in range(1, 6)]), 3, 2),  # J is 15 x 10
    ])
    def test_svd_step_solves_the_normal_equations(self, graph, n, segments, lam):
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((n, graph.num_vertices))
        theta = rng.uniform(-0.5, 0.5, size=segments * len(graph.edges))
        shooting = dynamics._ShootingMap(graph, x0, segments, 1.0 / segments)
        jac = shooting.jacobian(shooting.forward(theta))
        r = rng.standard_normal(x0.size)
        normal = jac.T @ jac + lam * np.eye(jac.shape[1])
        ref = np.linalg.solve(normal, -jac.T @ r)
        got = dynamics._damped_step(np.linalg.svd(jac, full_matrices=False), r, lam)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_overflowing_trial_is_rejected_not_raised(self, monkeypatch):
        # a trial step from this collinear, far target overflows the flow
        monkeypatch.setattr(dynamics, "_ROUNDS", 2)
        g = Digraph.complete(4)
        rng = np.random.default_rng(5)
        for _ in range(8):
            a = rng.standard_normal((4, 2))
            d = rng.standard_normal(2)
            t = rng.standard_normal(4)
        p0 = Configuration.from_agents(a)
        p1 = Configuration.from_agents(30 * np.outer(t, d))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)      # collinear target
            warnings.simplefilter("error", RuntimeWarning)    # overflow stays inside
            result = steer(g, p0, p1, 2, 1.0)
        assert math.isfinite(result.residual)
        assert result.residual < np.linalg.norm(p1.coords - p0.coords)

    def test_states_are_the_reported_flow(self):
        g, p0, p1 = tracked_pair()
        result = steer(g, p0, p1, 3, 1.0)
        assert len(result.states) == 4
        assert result.states[0] == p0
        miss = float(np.linalg.norm(result.states[-1].coords - p1.coords))
        assert miss == result.residual
        scale = max(1.0, float(np.abs(p0.coords).max()))
        p = p0
        for k, u in enumerate(result.controls.values):
            p = flow_constant(g, u, p, result.controls.grid[k + 1] - result.controls.grid[k])
            assert np.abs(p.coords - result.states[k + 1].coords).max() < 1e-12 * scale

    def test_stall_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_ITERATIONS", 2)
        monkeypatch.setattr(dynamics, "_ROUNDS", 1)
        g, p0, p1 = tracked_pair(2)
        result = steer(g, p0, p1, 2, 1e-4, SteerOptions(tolerance=1e-14))
        assert result.residual > 1e-14
        assert isinstance(result.no_progress, bool)


def switch_track_setup(seed=11):
    rng = np.random.default_rng(seed)
    g_a = Digraph.complete(4)
    g_b = Digraph(4, [(i, j) for i in range(1, 5) for j in range(1, 5)
                      if i != j and (i, j) != (1, 2)])
    sched = GraphSchedule(((0.0, g_a), (0.5, g_b)), 1.0)
    w0 = Configuration.from_agents(rng.normal(size=(4, 2)))
    w1 = Configuration.from_agents(w0.agents + 0.12 * rng.normal(size=(4, 2)))
    w2 = Configuration.from_agents(w1.agents + 0.12 * rng.normal(size=(4, 2)))
    return sched, [(0.0, w0), (0.5, w1), (1.0, w2)]


class TestTrackPath:
    def test_tracks_across_switch(self):
        sched, wps = switch_track_setup()
        result = track_path(sched, wps, 0.01)
        assert result.max_deviation < 0.01
        assert all(r <= 0.005 for r in result.leg_residuals)
        assert result.trajectory.times[0] == 0.0
        assert result.trajectory.times[-1] == 1.0

    def test_computes_each_flow_only_inside_steer(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("tracking recomputed a flow")

        built = []

        class CountingMap(dynamics._ShootingMap):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(dynamics, "simulate", forbidden)
        monkeypatch.setattr(dynamics, "flow_constant", forbidden)
        monkeypatch.setattr(dynamics, "_ShootingMap", CountingMap)
        sched, wps = switch_track_setup()
        result = track_path(sched, wps, 0.01)
        assert len(built) == len(result.leg_residuals) == 2

    @pytest.mark.parametrize("uneven", [False, True])
    def test_trajectory_sampled_at_control_breakpoints(self, uneven):
        sched, wps = switch_track_setup()
        if uneven:
            sched = GraphSchedule.constant(Digraph.complete(4), 0.9)
            wps = [(0.0, wps[0][1]), (0.4, wps[1][1]), (0.9, wps[2][1])]
        result = track_path(sched, wps, 0.01, opts=TrackOptions(segments_per_leg=3))
        traj, controls = result.trajectory, result.controls
        assert traj.times == controls.grid
        assert len(traj.times) == 7
        assert traj.states[0] == wps[0][1]
        scale = max(1.0, max(float(np.abs(p.coords).max()) for _, p in wps))
        for k, u in enumerate(controls.values):
            a, b = controls.grid[k], controls.grid[k + 1]
            p = flow_constant(sched.active(a), u, traj.states[k], b - a)
            assert np.abs(p.coords - traj.states[k + 1].coords).max() < 1e-12 * scale

    def test_final_state_is_last_legs_steered_state(self, monkeypatch):
        results = []

        def recording_steer(*args, **kwargs):
            results.append(steer(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(dynamics, "steer", recording_steer)
        sched, wps = switch_track_setup()
        result = track_path(sched, wps, 0.01)
        assert len(results) == 2
        assert np.array_equal(result.trajectory.final.coords, results[-1].states[-1].coords)
        assert result.max_deviation == max(
            float(np.linalg.norm(r.states[-1].coords - p.coords))
            for r, (_, p) in zip(results, wps[1:]))

    def test_start_offset_counts_toward_deviation(self):
        sched, wps = switch_track_setup()
        rng = np.random.default_rng(0)
        off = Configuration.from_agents(wps[0][1].agents + 2e-3 * rng.normal(size=(4, 2)))
        result = track_path(sched, wps, 0.01, start=off)
        offset = float(np.linalg.norm(off.coords - wps[0][1].coords))
        assert result.max_deviation >= offset

    def test_segment_failure_carries_leg_info(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(dynamics, "_ROUNDS", 1)
        sched, wps = switch_track_setup()
        with pytest.raises(SegmentFailure) as err:
            track_path(sched, wps, 1e-9)
        assert err.value.leg == 0
        assert err.value.residual > err.value.target

    def test_structural_gate(self):
        g = Digraph(3, [(1, 2), (2, 3), (3, 1), (1, 3)])
        sched = GraphSchedule.constant(path_graph(3), 1.0)
        del g
        rng = np.random.default_rng(1)
        w0 = Configuration.from_agents(rng.normal(size=(3, 2)))
        w1 = Configuration.from_agents(rng.normal(size=(3, 2)))
        with pytest.raises(StructuralFailure):
            track_path(sched, [(0.0, w0), (1.0, w1)], 0.1)

    def test_waypoints_must_hit_switches(self):
        sched, wps = switch_track_setup()
        with pytest.raises(InconsistentSchedule):
            track_path(sched, [wps[0], wps[2]], 0.01)

    def test_waypoints_must_start_at_zero(self):
        sched, wps = switch_track_setup()
        shifted = [(0.1, wps[0][1])] + wps[1:]
        with pytest.raises(InconsistentSchedule):
            track_path(sched, shifted, 0.01)

    @pytest.mark.parametrize("t", NON_FINITE, ids=str)
    @pytest.mark.parametrize("position", [1, 2])
    def test_rejects_waypoint_times_that_are_not_finite(self, position, t):
        sched, wps = switch_track_setup()
        wps[position] = (t, wps[position][1])
        with pytest.raises(InconsistentSchedule, match="waypoint times " + FINITE_AND_INCREASING):
            track_path(sched, wps, 0.01)

    def test_rejects_bad_epsilon(self):
        sched, wps = switch_track_setup()
        with pytest.raises(InconsistentSchedule):
            track_path(sched, wps, 0.0)

    @pytest.mark.parametrize("segments", [1, 0, 3.0, 2.5, True])
    def test_rejects_bad_segments_per_leg(self, segments):
        sched, wps = switch_track_setup()
        with pytest.raises(InconsistentSchedule, match="segments_per_leg"):
            track_path(sched, wps, 0.01, opts=TrackOptions(segments_per_leg=segments))

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        sched, wps = switch_track_setup()
        with pytest.raises(InconsistentSchedule, match="finite"):
            track_path(sched, wps, epsilon)

    def test_far_waypoints_warn(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_MAX_ITERATIONS", 5)
        monkeypatch.setattr(dynamics, "_ROUNDS", 1)
        g = Digraph.complete(4)
        sched = GraphSchedule.constant(g, 1.0)
        rng = np.random.default_rng(9)
        w0 = Configuration.from_agents(rng.normal(size=(4, 2)))
        w1 = Configuration.from_agents(w0.agents + 10.0)
        with pytest.warns(UserWarning, match="apart"):
            try:
                track_path(sched, [(0.0, w0), (1.0, w1)], 0.5)
            except SegmentFailure:
                pass


class TestFileFormats:
    def test_graph_schedule_inline(self):
        text = ('[{"t": 0.0, "graph": {"N": 3, "edges": [[1, 2], [2, 3], [3, 1]]}},'
                ' {"t": 0.5, "graph": {"N": 3, "edges": [[1, 3], [3, 2], [2, 1]]}}]')
        sched = parse_graph_schedule(text, 1.0)
        assert sched.horizon == 1.0
        assert sched.switch_times == (0.5,)
        assert sched.active(0.7).edges == frozenset({(1, 3), (3, 2), (2, 1)})

    def test_graph_schedule_path_entries(self, tmp_path):
        gfile = tmp_path / "ring.txt"
        gfile.write_text("N 3\n1 2\n2 3\n3 1\n")
        sched = parse_graph_schedule('[{"t": 0.0, "graph": "ring.txt"}]', 2.0,
                                     base_dir=str(tmp_path))
        assert sched.active(1.0).edges == frozenset({(1, 2), (2, 3), (3, 1)})

    @pytest.mark.parametrize("bad", [
        "not json",
        "[]",
        '[{"t": 0.0}]',
        '[{"t": "zero", "graph": {"N": 2, "edges": []}}]',
        '[{"t": 0.0, "graph": 7}]',
        '[{"t": 0.0, "graph": {"N": 2, "edges": [[1, 1]]}}]',
        # indices must be integers, as in configuration files
        '[{"t": 0.0, "graph": {"N": 3.5, "edges": [[1, 2], [2, 3]]}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": [[1.7, 2], [2, 3]]}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": [[true, 3], [2, 3]]}}]',
        '[{"t": 0.0, "graph": {"N": true, "edges": []}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": [[1, 2], "2 3"]}}]',
        # the JSON shape is checked here, the vertices by the Digraph constructor
        '[{"t": 0.0, "graph": {"N": "3", "edges": [[1, 2]]}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": [["1", 2]]}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": [[1, 2, 3]]}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": [[1]]}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": [[1, [2]]]}}]',
        '[{"t": 0.0, "graph": {"N": 3, "edges": {"1": 2}}}]',
        '[{"t": 0.0, "graph": {"edges": [[1, 2]]}}]',
        # segment times out of order are the file's fault, unlike a bad horizon
        '[{"t": 0.0, "graph": {"N": 2, "edges": [[1, 2]]}},'
        ' {"t": 0.6, "graph": {"N": 2, "edges": [[2, 1]]}},'
        ' {"t": 0.3, "graph": {"N": 2, "edges": [[1, 2]]}}]',
    ])
    def test_graph_schedule_rejects(self, bad):
        with pytest.raises(InputFormatError):
            parse_graph_schedule(bad, 1.0)

    # the horizon is not part of the file: refused as with a constant
    # schedule (exit 1), while a bad file stays an InputFormatError (exit 2)
    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
    def test_bad_horizon_is_not_a_file_error(self, horizon):
        with pytest.raises(InconsistentSchedule, match="horizon"):
            parse_graph_schedule('[{"t": 0.0, "graph": {"N": 2, "edges": [[1, 2]]}}]', horizon)

    def test_waypoints_inline_and_path(self, tmp_path):
        cfile = tmp_path / "p.json"
        cfile.write_text('{"n": 2, "N": 2, "agents": [[0.0, 0.0], [1.0, 1.0]]}')
        text = ('[{"t": 0.0, "config": "p.json"},'
                ' {"t": 1.0, "config": {"n": 2, "N": 2,'
                ' "agents": [[0.5, 0.5], [1.5, 1.5]]}}]')
        wps = parse_waypoints(text, base_dir=str(tmp_path))
        assert [t for t, _ in wps] == [0.0, 1.0]
        assert np.allclose(wps[1][1].agents[1], [1.5, 1.5])

    def test_waypoints_reject_bad(self):
        with pytest.raises(InputFormatError):
            parse_waypoints('[{"t": 0.0}]')

    # an inline configuration is refused by the same rules as a file
    @pytest.mark.parametrize("config", [
        {"n": 0, "N": 1, "agents": [[]]},
        {"n": 1, "N": 0, "agents": []},
        {"n": 2.0, "N": 2, "agents": [[0, 0], [1, 0]]},
    ], ids=["n=0", "N=0", "n=2.0"])
    def test_waypoints_refuse_inline_counts_as_configuration_does(self, config):
        text = json.dumps([{"t": 0.0, "config": config}])
        with pytest.raises(InputFormatError, match="need Python ints n >= 1 and N >= 1"):
            parse_waypoints(text)

    def test_control_csv_round_trip(self):
        cs = ControlSchedule(
            (0.0, 1 / 3, 2 / 3, 1.0),
            ({(1, 2): 0.1234567890123456789, (2, 3): -1.5},
             {(1, 2): 0.0}, {(3, 1): math.pi}))
        back = parse_control_schedule_csv(format_control_schedule_csv(cs))
        assert back == cs

    def test_control_csv_rejects_bad_rows(self):
        with pytest.raises(InputFormatError):
            parse_control_schedule_csv("t_start,t_end,i,j,u\n0.0,1.0,1\n")
        with pytest.raises(InputFormatError):
            parse_control_schedule_csv("")

    @pytest.mark.parametrize("row", ["0,0.5,1,2,nan", "0,0.5,1,2,inf", "0,0.5,1,2,-inf",
                                     "0,nan,1,2,0.4", "inf,0.5,1,2,0.4"])
    def test_control_csv_rejects_non_finite_fields(self, row):
        text = f"t_start,t_end,i,j,u\n0.5,1,3,4,-0.3\n{row}\n"
        with pytest.raises(InputFormatError, match="line 3: fields must be finite"):
            parse_control_schedule_csv(text)

    def test_trajectory_csv_round_trip(self):
        sched, cs, p0 = switching_setup()
        traj = simulate(sched, cs, p0, 0.25)
        back = parse_trajectory_csv(format_trajectory_csv(traj))
        assert back.times == traj.times
        for a, b in zip(back.states, traj.states):
            assert np.array_equal(a.coords, b.coords)
