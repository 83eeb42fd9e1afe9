"""Rank, stratum, chart, simplex, and affine-hull tests."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formctl.configspace import (
    AffineSubspace,
    Configuration,
    affine_hull,
    component_sign,
    configuration_rank,
    extend_simplex_with_point,
    extended_matrix_rank,
    find_nondegenerate_simplex,
    format_configuration_csv,
    format_configuration_json,
    in_controllable_set,
    intersect_affine,
    load_configuration,
    local_chart,
    numeric_rank,
    parse_configuration_csv,
    parse_configuration_json,
    sample_configuration,
    subspace_distance,
)
from formctl.digraph import Digraph, coarse_scd
from helpers import rank_k_near
from formctl.errors import (
    Degenerate,
    DimensionMismatch,
    EmptyInput,
    EmptySubset,
    IndexOutOfRange,
    InputFormatError,
    InvalidStratum,
    RankMismatch,
    SimplexDegenerate,
    SizeMismatch,
)


def config(rows) -> Configuration:
    return Configuration.from_agents(np.asarray(rows, dtype=float))


class TestConfiguration:
    def test_layout_is_coordinate_major(self):
        p = config([[1, 4], [2, 5], [3, 6]])
        assert p.coords.tolist() == [1, 2, 3, 4, 5, 6]
        assert p.agents.tolist() == [[1, 4], [2, 5], [3, 6]]

    def test_agent_accessor(self):
        p = config([[1, 4], [2, 5], [3, 6]])
        assert p.agent(2).tolist() == [2, 5]
        with pytest.raises(IndexOutOfRange):
            p.agent(4)

    def test_round_trip_is_bijective(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((5, 3))
        p = Configuration.from_agents(pts)
        assert np.array_equal(p.agents, pts)
        assert Configuration(3, 5, p.coords) == p

    def test_rejects_non_finite(self):
        with pytest.raises(SizeMismatch):
            config([[0.0, np.nan]])
        with pytest.raises(SizeMismatch):
            Configuration(1, 2, [1.0, np.inf])

    def test_rejects_wrong_length(self):
        with pytest.raises(SizeMismatch):
            Configuration(2, 3, [0.0] * 5)

    def test_subconfiguration(self):
        p = config([[0, 0], [1, 0], [2, 0], [3, 0]])
        sub = p.subconfiguration([3, 1])
        assert sub.agents.tolist() == [[0, 0], [2, 0]]
        with pytest.raises(EmptySubset):
            p.subconfiguration([])
        with pytest.raises(IndexOutOfRange):
            p.subconfiguration([5])

    def test_immutable(self):
        p = config([[0, 0]])
        with pytest.raises(AttributeError):
            p.n = 3


class TestRanks:
    def test_collinear(self):
        assert configuration_rank(config([[0, 0], [1, 0], [2, 0]])) == 1

    def test_simplex(self):
        assert configuration_rank(config([[0, 0], [1, 0], [0, 1]])) == 2

    def test_coincident(self):
        assert configuration_rank(config([[3, 3], [3, 3], [3, 3]])) == 0

    def test_single_agent(self):
        assert configuration_rank(config([[1, 2, 3]])) == 0

    def test_subset_rank(self):
        p = config([[0, 0], [1, 0], [2, 0], [0, 1]])
        assert configuration_rank(p, [1, 2, 3]) == 1
        assert configuration_rank(p, [1, 4]) == 1
        assert configuration_rank(p) == 2

    def test_subset_errors(self):
        p = config([[0, 0], [1, 0]])
        with pytest.raises(EmptySubset):
            configuration_rank(p, [])
        with pytest.raises(IndexOutOfRange):
            configuration_rank(p, [3])

    @pytest.mark.parametrize("call", [
        lambda: Configuration(2, 1, [np.nan, 0.0]),
        lambda: numeric_rank(np.array([[np.nan, 0.0], [1.0, 1.0]])),
        lambda: numeric_rank(np.array([[np.inf, 0.0], [1.0, 1.0]])),
        lambda: extend_simplex_with_point(config([[0, 0], [1, 0], [0, 1]]), [np.nan, 0.0]),
        lambda: affine_hull([[0.0, 0.0], [np.nan, 1.0]]),
        lambda: affine_hull([[0.0, 0.0], [np.inf, 1.0]]),
        lambda: AffineSubspace([np.nan, 0.0], [[1.0], [0.0]]),
        lambda: AffineSubspace([np.inf, 0.0], [[1.0], [0.0]]),
        lambda: AffineSubspace([0.0, 0.0], [[np.nan], [0.0]]),
        lambda: affine_hull([[np.nan, 0.0]]),
        lambda: numeric_rank(np.array([[1.5e308], [1.5e308]])),  # its norm overflows
    ], ids=["Configuration", "rank-nan", "rank-inf", "extend-nan", "hull-nan", "hull-inf",
            "subspace-nan", "subspace-inf", "subspace-basis-nan", "hull-point-nan",
            "rank-overflow"])
    def test_non_finite_input_is_refused_like_a_configuration(self, call):
        with pytest.raises(SizeMismatch, match="must be finite"):
            call()

    def test_non_finite_input_is_refused_before_lapack_prints(self, capfd):
        inf = np.inf
        with pytest.raises(SizeMismatch, match="must be finite"):
            numeric_rank(np.array([[inf, -0.77, 0.46], [0.85, 0.94, inf], [0.73, 0.96, inf]]))
        assert capfd.readouterr() == ("", "")

    def test_numeric_rank_empty(self):
        assert numeric_rank(np.zeros((2, 0))) == 0
        assert numeric_rank(np.zeros((3, 3))) == 0

    def test_extended_matrix_examples(self):
        assert extended_matrix_rank(config([[0, 0], [1, 0], [0, 1]])) == 3
        assert extended_matrix_rank(config([[5, 5], [5, 5]])) == 1
        collinear4 = config([[0, 0], [1, 0], [2, 0], [3, 0]])
        assert extended_matrix_rank(collinear4) == 2

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 1000))
    @settings(max_examples=120, deadline=None)
    def test_extended_rank_offset_identity(self, n, k, seed):
        k = min(k, n)
        N = n + 3
        p = sample_configuration(n, N, "rank_k", k=k, seed=seed)
        assert extended_matrix_rank(p) == configuration_rank(p) + 1


class TestControllableSetMembership:
    def setup_method(self):
        self.graph = Digraph(4, [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2), (4, 1)])
        self.scd = coarse_scd(self.graph)  # maximal component {1,2,3}

    def test_nondegenerate_maximal_component_passes(self):
        rep = in_controllable_set(config([[0, 0], [1, 0], [0, 1], [9, 9]]), self.scd)
        assert rep
        assert rep.component_ranks == ((1, 2),)

    def test_collinear_maximal_component_fails(self):
        rep = in_controllable_set(config([[0, 0], [1, 0], [2, 0], [0, 1]]), self.scd)
        assert not rep
        assert rep.component_ranks == ((1, 1),)

    def test_degenerate_non_maximal_component_is_ignored(self):
        # agent 4 is outside the maximal component; coincidence with agent 1
        # imposes nothing
        rep = in_controllable_set(config([[0, 0], [1, 0], [0, 1], [0, 0]]), self.scd)
        assert rep

    def test_strongly_connected_whole_graph(self):
        scd = coarse_scd(Digraph.cycle(3))
        assert in_controllable_set(config([[0, 0], [1, 0], [0, 1]]), scd)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            in_controllable_set(config([[0, 0], [1, 0]]), self.scd)

    def test_membership_is_open(self):
        rng = np.random.default_rng(11)
        p = config([[0, 0], [1, 0], [0, 1], [2, 2]])
        assert in_controllable_set(p, self.scd)
        for _ in range(20):
            bumped = Configuration(
                p.n, p.N, p.coords + 1e-6 * rng.standard_normal(p.coords.size))
            assert in_controllable_set(bumped, self.scd)


class TestLocalChart:
    def make(self, n, N, k, seed=0):
        p = sample_configuration(n, N, "rank_k", k=k, seed=seed)
        return p, local_chart(p, k)

    @pytest.mark.parametrize("n,N,k", [(2, 4, 1), (2, 5, 0), (3, 5, 2), (2, 4, 2)])
    def test_center_maps_to_zero(self, n, N, k):
        # exactly: forward rebuilds the frame L_map was built from
        for seed in range(40):
            _, ch = self.make(n, N, k, seed)
            assert not ch.forward(ch.center).any()

    @pytest.mark.parametrize("n,N,k", [(2, 4, 1), (2, 5, 0), (3, 5, 2), (3, 6, 3)])
    def test_round_trip(self, n, N, k):
        p, ch = self.make(n, N, k)
        rng = np.random.default_rng(42)
        for _ in range(10):
            near = Configuration(n, N, p.coords + 0.02 * rng.standard_normal(n * N))
            v = ch.forward(near)
            assert np.abs(ch.inverse(v).coords - near.coords).max() < 1e-10

    @pytest.mark.parametrize("n,N,k", [(2, 4, 1), (3, 6, 2), (2, 5, 1)])
    def test_stratum_slice_is_zero(self, n, N, k):
        p, ch = self.make(n, N, k)
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = rank_k_near(p, k, ch.index_choice, rng)
            assert configuration_rank(q) == k
            v = ch.forward(q)
            assert max(abs(v[i]) for i in ch.forced_zero_indices) < 1e-10

    def test_translation_stays_on_slice(self):
        p, ch = self.make(2, 5, 1)
        shifted = Configuration.from_agents(p.agents + np.array([3.0, -7.0]))
        v = ch.forward(shifted)
        assert max(abs(v[i]) for i in ch.forced_zero_indices) < 1e-10

    def test_off_stratum_coordinates_nonzero(self):
        p, ch = self.make(2, 4, 1)
        rng = np.random.default_rng(3)
        bumped = Configuration(2, 4, p.coords + 0.05 * rng.standard_normal(8))
        assert configuration_rank(bumped) == 2
        v = ch.forward(bumped)
        assert max(abs(v[i]) for i in ch.forced_zero_indices) > 1e-6

    @pytest.mark.parametrize("n,N,k", [(2, 4, 0), (2, 4, 1), (2, 4, 2),
                                       (3, 5, 1), (3, 5, 2)])
    def test_forced_zero_count(self, n, N, k):
        _, ch = self.make(n, N, k)
        assert len(ch.forced_zero_indices) == (n - k) * (N - k - 1)
        # the rank-k stratum has dimension -k^2 + k(N+n-1) + n
        assert len(ch.forced_zero_indices) == n * N - (-k * k + k * (N + n - 1) + n)

    def test_frame_shape_and_orthogonality(self):
        _, ch = self.make(3, 5, 2)
        assert ch.A_part.shape == (3, 2)
        assert ch.B_part.shape == (3, 1)
        assert np.abs(ch.B_part.T @ ch.A_part).max() < 1e-12
        assert np.allclose(ch.B_part.T @ ch.B_part, np.eye(1))
        assert abs(np.linalg.det(ch.L_map)) > 1e-12

    def test_rank_mismatch(self):
        p = sample_configuration(2, 4, "rank_k", k=1, seed=1)
        with pytest.raises(RankMismatch):
            local_chart(p, 2)
        with pytest.raises(IndexOutOfRange):
            local_chart(p, 5)


class TestSimplexSearch:
    def test_full_set_when_minimal(self):
        p = config([[0, 0], [1, 0], [0, 1]])
        assert find_nondegenerate_simplex(p) == (1, 2, 3)

    def test_greedy_skips_collinear(self):
        p = config([[0, 0], [1, 0], [2, 0], [0, 1]])
        assert find_nondegenerate_simplex(p) == (1, 2, 4)

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            find_nondegenerate_simplex(config([[0, 0], [1, 0], [2, 0]]))

    @given(st.integers(2, 3), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_result_is_nondegenerate(self, n, seed):
        p = sample_configuration(n, n + 4, "rank_k", k=n, seed=seed)
        idx = find_nondegenerate_simplex(p)
        assert len(idx) == n + 1
        assert configuration_rank(p, idx) == n

    def test_subset_count_lower_bound(self):
        # every non-degenerate configuration with N > n has at least N - n
        # non-degenerate (n+1)-agent subsets
        for n in (2, 3):
            for extra in (1, 2, 3):
                N = n + 1 + extra
                for seed in range(5):
                    p = sample_configuration(n, N, "rank_k", k=n, seed=seed)
                    count = sum(
                        1 for sub in combinations(range(1, N + 1), n + 1)
                        if configuration_rank(p, sub) == n)
                    assert count >= N - n


class TestSimplexExtension:
    def setup_method(self):
        self.tri = config([[0, 0], [1, 0], [0, 1]])

    def check(self, kept, x):
        pts = np.vstack([self.tri.agents[[i - 1 for i in kept]], np.atleast_2d(x)])
        assert configuration_rank(Configuration.from_agents(pts)) == 2

    def test_interior_point(self):
        kept = extend_simplex_with_point(self.tri, [0.2, 0.3])
        assert kept == (2, 3)  # dropping agent 1 already works
        self.check(kept, [0.2, 0.3])

    def test_point_on_vertex(self):
        kept = extend_simplex_with_point(self.tri, [1.0, 0.0])
        assert 2 not in kept
        self.check(kept, [1.0, 0.0])

    def test_point_on_side_hyperplane(self):
        # x on the line through agents 2 and 3 (the hull without agent 1)
        x = [0.5, 0.5]
        kept = extend_simplex_with_point(self.tri, x)
        self.check(kept, x)
        assert kept == (1, 2) or kept == (1, 3)

    def test_smallest_dropped_index_wins(self):
        kept = extend_simplex_with_point(self.tri, [5.0, 7.0])
        assert kept == (2, 3)

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(SimplexDegenerate):
            extend_simplex_with_point(config([[0, 0], [1, 0], [2, 0]]), [0, 1])

    def test_wrong_sizes(self):
        with pytest.raises(SizeMismatch):
            extend_simplex_with_point(config([[0, 0], [1, 0]]), [0, 1])
        with pytest.raises(SizeMismatch):
            extend_simplex_with_point(self.tri, [0, 1, 2])

    @given(st.integers(2, 3), st.integers(0, 300))
    @settings(max_examples=80, deadline=None)
    def test_always_finds_extension(self, n, seed):
        rng = np.random.default_rng(seed)
        simplex = sample_configuration(n, n + 1, "rank_k", k=n, seed=seed)
        x = rng.uniform(-2, 2, size=n)
        kept = extend_simplex_with_point(simplex, x)
        pts = np.vstack([simplex.agents[[i - 1 for i in kept]], x[None, :]])
        assert configuration_rank(Configuration.from_agents(pts)) == n


class TestAffineHulls:
    def test_single_point(self):
        h = affine_hull([[1.0, 2.0]])
        assert h.dim == 0 and h.base_point.tolist() == [1.0, 2.0]

    def test_coincident_points(self):
        assert affine_hull([[1, 1], [1, 1]]).dim == 0

    def test_hyperplane_from_simplex_face(self):
        for n in (2, 3):
            p = sample_configuration(n, n + 1, "rank_k", k=n, seed=4)
            face = [p.agent(i) for i in range(2, n + 2)]
            assert affine_hull(face).dim == n - 1

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            affine_hull([])

    def test_subspace_api(self):
        h = affine_hull([[0, 0], [2, 0]])
        assert h.distance([1.0, 3.0]) == pytest.approx(3.0)
        assert h.project([1.0, 3.0]).tolist() == [1.0, 0.0]


class TestAffineIntersection:
    def faces(self, p: Configuration):
        N = p.N
        return {i: affine_hull([p.agent(j) for j in range(1, N + 1) if j != i])
                for i in range(1, N + 1)}

    def test_all_but_one_meet_in_vertex(self):
        for n in (2, 3):
            p = sample_configuration(n, n + 1, "rank_k", k=n, seed=8)
            s = self.faces(p)
            for i in range(1, n + 2):
                inter = intersect_affine([s[j] for j in range(1, n + 2) if j != i])
                assert inter is not None and inter.dim == 0
                assert np.linalg.norm(inter.base_point - p.agent(i)) < 1e-8

    def test_all_faces_have_empty_intersection(self):
        for n in (2, 3):
            p = sample_configuration(n, n + 1, "rank_k", k=n, seed=9)
            assert intersect_affine(list(self.faces(p).values())) is None

    def test_self_intersection(self):
        h = affine_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        again = intersect_affine([h, h])
        assert subspace_distance(h, again) < 1e-10

    def test_parallel_lines_empty(self):
        a = affine_hull([[0, 0], [1, 0]])
        b = affine_hull([[0, 1], [1, 1]])
        assert intersect_affine([a, b]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect_affine([affine_hull([[0, 0]]), affine_hull([[0, 0, 0]])])
        with pytest.raises(EmptyInput):
            intersect_affine([])

    @given(st.integers(2, 3), st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_face_intersections_match_hulls(self, n, seed):
        p = sample_configuration(n, n + 1, "rank_k", k=n, seed=seed)
        s = self.faces(p)
        all_idx = set(range(1, n + 2))
        for r in range(1, n + 1):
            for chosen in combinations(sorted(all_idx), r):
                inter = intersect_affine([s[i] for i in chosen])
                rest = sorted(all_idx - set(chosen))
                hull = affine_hull([p.agent(j) for j in rest])
                assert inter is not None
                assert subspace_distance(inter, hull) < 1e-8


class TestComponentSign:
    def test_identity_orientation(self):
        assert component_sign(config([[0, 0], [1, 0], [0, 1]])) == 1

    def test_swapped_orientation(self):
        assert component_sign(config([[0, 0], [0, 1], [1, 0]])) == -1

    def test_mirror_flips(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            p = sample_configuration(3, 4, "rank_k", k=3, seed=int(rng.integers(1e6)))
            mirrored = p.agents.copy()
            mirrored[:, 0] *= -1
            assert component_sign(Configuration.from_agents(mirrored)) == \
                -component_sign(p)

    def test_degenerate_rejected(self):
        with pytest.raises(Degenerate):
            component_sign(config([[0, 0], [1, 0], [2, 0]]))

    def test_wrong_agent_count(self):
        with pytest.raises(SizeMismatch):
            component_sign(config([[0, 0], [1, 0]]))

    def test_constant_along_rigid_motions(self):
        p = sample_configuration(2, 3, "rank_k", k=2, seed=5)
        base_sign = component_sign(p)
        for t in np.linspace(0.0, 1.0, 50):
            theta = t * 2 * np.pi
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            shift = np.array([3.0 * t, -2.0 * t])
            moved = Configuration.from_agents(p.agents @ rot.T + shift)
            assert component_sign(moved) == base_sign


class TestSampling:
    def test_seed_determinism(self):
        a = sample_configuration(3, 6, seed=77)
        b = sample_configuration(3, 6, seed=77)
        assert np.array_equal(a.coords, b.coords)

    def test_rank_zero_coincident(self):
        p = sample_configuration(2, 5, "rank_k", k=0, seed=1)
        assert np.abs(p.agents - p.agents[0]).max() == 0.0

    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_rank_k_exact(self, n, k, seed):
        k = min(k, n)
        p = sample_configuration(n, n + 3, "rank_k", k=k, seed=seed)
        assert configuration_rank(p) == k

    def test_invalid_requests(self):
        with pytest.raises(InvalidStratum):
            sample_configuration(2, 4, "gaussian")
        with pytest.raises(InvalidStratum):
            sample_configuration(2, 4, "rank_k", k=3)
        with pytest.raises(InvalidStratum):
            sample_configuration(2, 1, "rank_k", k=2)


class TestConfigurationFiles:
    def test_json_round_trip(self):
        p = sample_configuration(3, 4, seed=2)
        assert parse_configuration_json(format_configuration_json(p)) == p

    def test_csv_round_trip(self):
        p = sample_configuration(2, 6, seed=3)
        assert parse_configuration_csv(format_configuration_csv(p)) == p

    def test_json_shape(self):
        text = format_configuration_json(config([[1.5, -2.0]]))
        assert '"n": 2' in text and '"N": 1' in text

    def test_json_rejects_nan(self):
        with pytest.raises(InputFormatError):
            parse_configuration_json('{"n": 1, "N": 1, "agents": [[NaN]]}')

    def test_json_rejects_bad_counts(self):
        with pytest.raises(InputFormatError):
            parse_configuration_json('{"n": 2, "N": 2, "agents": [[1, 2]]}')
        with pytest.raises(InputFormatError):
            parse_configuration_json('{"n": 2, "N": 1, "agents": [[1]]}')

    def test_json_rejects_boolean_count(self):
        with pytest.raises(InputFormatError):
            parse_configuration_json(
                '{"n": true, "N": 3, "agents": [[0.0], [1.0], [2.0]]}')

    def test_json_rejects_boolean_coordinate(self):
        with pytest.raises(InputFormatError):
            parse_configuration_json('{"n": 1, "N": 2, "agents": [[true], [0.0]]}')

    def test_json_rejects_garbage(self):
        with pytest.raises(InputFormatError):
            parse_configuration_json("not json")
        with pytest.raises(InputFormatError):
            parse_configuration_json('{"n": 1}')

    def test_csv_rejects_inf(self):
        with pytest.raises(InputFormatError):
            parse_configuration_csv("1.0,2.0\n3.0,inf\n")

    def test_csv_rejects_ragged(self):
        with pytest.raises(InputFormatError):
            parse_configuration_csv("1.0,2.0\n3.0\n")

    def test_csv_rejects_text(self):
        with pytest.raises(InputFormatError):
            parse_configuration_csv("a,b\n")

    def test_csv_rejects_empty(self):
        with pytest.raises(InputFormatError):
            parse_configuration_csv("\n\n")

    def test_load_dispatch(self, tmp_path):
        p = sample_configuration(2, 3, seed=4)
        j = tmp_path / "p.json"
        c = tmp_path / "p.csv"
        j.write_text(format_configuration_json(p))
        c.write_text(format_configuration_csv(p))
        assert load_configuration(j) == p
        assert load_configuration(c) == p
