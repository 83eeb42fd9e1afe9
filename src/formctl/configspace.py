"""Configurations of N agents in R^n: ranks, strata, charts, and hulls.

A configuration stores its coordinates coordinate-major (all first
coordinates, then all second coordinates, ...), which is the layout the
lifted dynamics act on. File formats and the ``agents`` accessor are
agent-major; the two layouts differ by a fixed index permutation.

One rule decides every numeric rank in the package: count the singular
values above RANK_TOL times the largest one (``_rank_of``). Configuration
and control-field ranks, affine hulls and intersections all use it, and no
caller can change RANK_TOL. The only other threshold a result depends on
is ``intersect_affine``'s distance bound, 1e-8 * (1 + scale), for accepting
a common point. (Lie closure dimensions are exact integer ranks.)
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .digraph import ScdReport
from .errors import (
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

__all__ = [
    "RANK_TOL",
    "numeric_rank",
    "Configuration",
    "configuration_rank",
    "extended_matrix_rank",
    "ControllableSetMembership",
    "in_controllable_set",
    "StratumChart",
    "local_chart",
    "find_nondegenerate_simplex",
    "extend_simplex_with_point",
    "AffineSubspace",
    "affine_hull",
    "intersect_affine",
    "subspace_distance",
    "component_sign",
    "sample_configuration",
    "parse_configuration_json",
    "format_configuration_json",
    "parse_configuration_csv",
    "format_configuration_csv",
    "is_csv_path",
    "load_configuration",
]

RANK_TOL = 1e-9


def _rank_of(s: np.ndarray) -> int:
    """Count of the descending singular values s above RANK_TOL times s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def numeric_rank(mat: np.ndarray) -> int:
    """Numeric rank of a 2-D array under the one rank rule; refuses non-finite input."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or min(a.shape) == 0:
        return 0
    # checked first: LAPACK prints to stdout on some non-finite input
    if not np.isfinite(a).all():
        raise SizeMismatch("coordinates must be finite")
    s = np.linalg.svd(a, compute_uv=False)
    if math.isinf(s[0]):  # finite entries near the float limit can still overflow
        raise SizeMismatch(_OVERFLOW)
    return _rank_of(s)


_OVERFLOW = "coordinate differences overflow the float range; they must be finite"


class Configuration:
    """Immutable positions of N agents in R^n, stored coordinate-major."""

    __slots__ = ("n", "N", "coords")

    def __init__(self, n: int, N: int, coords):
        n, N = int(n), int(N)
        if n < 1 or N < 1:
            raise SizeMismatch(f"need n >= 1 and N >= 1, got n={n}, N={N}")
        arr = np.asarray(coords, dtype=float).reshape(-1)
        if arr.size != n * N:
            raise SizeMismatch(f"expected {n * N} coordinates, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise SizeMismatch("coordinates must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "coords", arr)

    @classmethod
    def from_agents(cls, agents) -> "Configuration":
        """Build from an (N, n) array-like with one agent per row."""
        arr = np.asarray(agents, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise SizeMismatch(f"expected an (N, n) array, got shape {arr.shape}")
        return cls(arr.shape[1], arr.shape[0], arr.T.reshape(-1))

    @property
    def agents(self) -> np.ndarray:
        """(N, n) array, one agent per row."""
        return self.coords.reshape(self.n, self.N).T

    def agent(self, i: int) -> np.ndarray:
        """Position of agent i (1-based)."""
        if not (1 <= i <= self.N):
            raise IndexOutOfRange(f"agent {i} out of range 1..{self.N}")
        return self.coords[np.arange(self.n) * self.N + (i - 1)].copy()

    def subconfiguration(self, indices: Iterable[int]) -> "Configuration":
        """Configuration of the listed agents (1-based, ascending)."""
        idx = sorted(set(int(i) for i in indices))
        if not idx:
            raise EmptySubset("subconfiguration needs at least one agent")
        for i in idx:
            if not (1 <= i <= self.N):
                raise IndexOutOfRange(f"agent {i} out of range 1..{self.N}")
        return Configuration.from_agents(self.agents[[i - 1 for i in idx]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (self.n, self.N) == (other.n, other.N) and np.array_equal(
            self.coords, other.coords)

    def __setattr__(self, name, value):
        raise AttributeError("Configuration is immutable")

    def __repr__(self) -> str:
        return f"Configuration(n={self.n}, N={self.N})"


def _difference_matrix(p: Configuration, idx: list[int]) -> np.ndarray:
    """Columns x_i - x_base for i in idx[1:], base = idx[0] (n x (m-1)).

    p is finite, so a difference that is not has overflowed; that is left to
    the caller's rank to refuse, without a numpy warning.
    """
    pts = p.agents
    with np.errstate(over="ignore"):
        return (pts[np.asarray(idx[1:], dtype=int) - 1] - pts[idx[0] - 1]).T


def configuration_rank(p: Configuration, subset: Iterable[int] | None = None) -> int:
    """Dimension of the span of differences within the subset (default: all)."""
    if subset is None:
        idx = list(range(1, p.N + 1))
    else:
        idx = sorted(set(int(i) for i in subset))
        if not idx:
            raise EmptySubset("configuration_rank needs a nonempty subset")
        for i in idx:
            if not (1 <= i <= p.N):
                raise IndexOutOfRange(f"agent {i} out of range 1..{p.N}")
    try:
        return numeric_rank(_difference_matrix(p, idx))
    except SizeMismatch:  # p is finite, so a difference overflowed
        raise SizeMismatch(_OVERFLOW) from None


def extended_matrix_rank(p: Configuration) -> int:
    """Rank of the N x (n+1) matrix whose columns are 1, x^1, ..., x^n."""
    xe = np.column_stack([np.ones(p.N), p.coords.reshape(p.n, p.N).T])
    return numeric_rank(xe)


@dataclass(frozen=True)
class ControllableSetMembership:
    """Per-maximal-component rank report; truthy iff all ranks reach n."""

    required_rank: int
    component_ranks: tuple[tuple[int, int], ...]  # (component label, rank)

    @property
    def passes(self) -> bool:
        return all(r == self.required_rank for _, r in self.component_ranks)

    def __bool__(self) -> bool:
        return self.passes


def in_controllable_set(p: Configuration, scd: ScdReport) -> ControllableSetMembership:
    """Check that every maximal component's sub-configuration spans R^n."""
    if scd.num_vertices != p.N:
        raise SizeMismatch(
            f"decomposition is over {scd.num_vertices} vertices, "
            f"configuration has {p.N} agents")
    ranks = []
    for w in sorted(scd.maximal_set):
        comp = scd.components[w - 1]
        ranks.append((w, configuration_rank(p, comp)))
    return ControllableSetMembership(p.n, tuple(ranks))


# -- local charts of the rank strata ---------------------------------------

def _orthonormalize(cols: np.ndarray, against: list[np.ndarray]) -> list[np.ndarray]:
    """Gram-Schmidt of the columns against the given orthonormal vectors."""
    out = list(against)
    for col in cols.T:
        v = col.astype(float)
        scale = np.linalg.norm(v)
        for q in out:
            v = v - (q @ v) * q
        norm = np.linalg.norm(v)
        if norm <= 1e-12 * max(scale, 1.0):
            raise Degenerate("vectors lost independence during orthonormalization")
        out.append(v / norm)
    return out[len(against):]


class StratumChart:
    """Local chart of the rank-k stratum around a center configuration.

    ``forward`` sends a nearby configuration to chart coordinates (flat,
    agent-major); the center maps to zero, and a configuration has rank k
    exactly when the ``forced_zero_indices`` coordinates vanish. ``inverse``
    reconstructs the configuration.

    The map shifts the chosen agents directly and applies the frame
    L = (A, B)^T to position differences from the first chosen agent for the
    rest. Differences, not absolute positions, keep the rank condition
    translation-invariant.
    """

    __slots__ = ("center", "k", "index_choice", "A_part", "B_part", "L_map",
                 "_rest", "_center_agents", "_center_rest_image")

    def __init__(self, center: Configuration, k: int, index_choice: tuple[int, ...]):
        n = center.n
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "index_choice", index_choice)
        pts = center.agents
        a_part = _difference_matrix(center, list(index_choice))
        qa = _orthonormalize(a_part, []) if k else []
        # deterministic orthonormal complement seed, fixed at construction
        full = np.linalg.svd(np.column_stack(qa) if qa else np.zeros((n, 0)),
                             full_matrices=True)[0] if qa else np.eye(n)
        b_seed = full[:, k:]
        b_part = np.column_stack(_orthonormalize(b_seed, qa)) if k < n else np.zeros((n, 0))
        object.__setattr__(self, "A_part", a_part)
        object.__setattr__(self, "B_part", b_part)
        # the frame forward and inverse rebuild, so the center maps to exactly 0
        l_map = self._frame_at(pts[[i - 1 for i in index_choice]])
        object.__setattr__(self, "L_map", l_map)
        chosen = set(index_choice)
        rest = tuple(i for i in range(1, center.N + 1) if i not in chosen)
        object.__setattr__(self, "_rest", rest)
        object.__setattr__(self, "_center_agents", pts)
        base = pts[index_choice[0] - 1]
        with np.errstate(over="ignore", invalid="ignore"):
            images = {i: l_map @ (pts[i - 1] - base) for i in rest}
        if not np.isfinite(list(images.values())).all():
            raise SizeMismatch(_OVERFLOW)
        object.__setattr__(self, "_center_rest_image", images)

    def _frame_at(self, chosen_pts: np.ndarray) -> np.ndarray:
        """L' = (A', B')^T for chosen agent positions (rows of chosen_pts)."""
        diffs = (chosen_pts[1:] - chosen_pts[0]).T
        qa = _orthonormalize(diffs, []) if self.k else []
        b_cols = _orthonormalize(self.B_part, qa) if self.k < self.center.n else []
        return np.vstack([diffs.T] + [c[None, :] for c in b_cols]) \
            if b_cols else diffs.T.reshape(self.k, self.center.n)

    def forward(self, p: Configuration) -> np.ndarray:
        """Chart coordinates of p, flat agent-major (length nN)."""
        if (p.n, p.N) != (self.center.n, self.center.N):
            raise SizeMismatch("configuration shape differs from the chart center")
        pts = p.agents
        out = np.zeros((p.N, p.n))
        for i in self.index_choice:
            out[i - 1] = pts[i - 1] - self._center_agents[i - 1]
        if self._rest:
            l_prime = self._frame_at(pts[[i - 1 for i in self.index_choice]])
            base = pts[self.index_choice[0] - 1]
            for i in self._rest:
                out[i - 1] = l_prime @ (pts[i - 1] - base) - self._center_rest_image[i]
        return out.reshape(-1)

    def inverse(self, v: np.ndarray) -> Configuration:
        """Configuration with chart coordinates v."""
        vv = np.asarray(v, dtype=float).reshape(-1)
        n, N = self.center.n, self.center.N
        if vv.size != n * N:
            raise SizeMismatch(f"expected {n * N} chart coordinates, got {vv.size}")
        vecs = vv.reshape(N, n)
        pts = np.zeros((N, n))
        for i in self.index_choice:
            pts[i - 1] = vecs[i - 1] + self._center_agents[i - 1]
        if self._rest:
            l_prime = self._frame_at(pts[[i - 1 for i in self.index_choice]])
            base = pts[self.index_choice[0] - 1]
            for i in self._rest:
                rhs = vecs[i - 1] + self._center_rest_image[i]
                pts[i - 1] = base + np.linalg.solve(l_prime, rhs)
        return Configuration.from_agents(pts)

    @property
    def forced_zero_indices(self) -> tuple[int, ...]:
        """Flat chart coordinates that vanish exactly on the rank-k stratum."""
        n, k = self.center.n, self.k
        out = []
        for i in self._rest:
            out.extend(range((i - 1) * n + k, i * n))
        return tuple(out)

    def __setattr__(self, name, value):
        raise AttributeError("StratumChart is immutable")

    def __repr__(self) -> str:
        return (f"StratumChart(k={self.k}, index_choice={self.index_choice}, "
                f"N={self.center.N}, n={self.center.n})")


def _greedy_rank_extension(p: Configuration, stop_rank: int) -> tuple[list[int], int]:
    """Scan agents in index order, keeping those that raise the affine rank."""
    chosen = [1]
    rank = 0
    for i in range(2, p.N + 1):
        if rank == stop_rank:
            break
        r = configuration_rank(p, chosen + [i])
        if r > rank:
            chosen.append(i)
            rank = r
    return chosen, rank


def local_chart(p: Configuration, k: int) -> StratumChart:
    """Chart of the rank-k stratum centered at p; p must have rank k."""
    if not (0 <= k <= p.n):
        raise IndexOutOfRange(f"need 0 <= k <= n, got k={k}, n={p.n}")
    actual = configuration_rank(p)
    if actual != k:
        raise RankMismatch(f"configuration has rank {actual}, chart wants {k}")
    chosen, rank = _greedy_rank_extension(p, k)
    if rank != k or len(chosen) != k + 1:
        raise RankMismatch(f"could not select {k + 1} agents realizing rank {k}")
    return StratumChart(p, k, tuple(chosen))


def find_nondegenerate_simplex(p: Configuration) -> tuple[int, ...]:
    """Indices of n+1 agents in general position, found greedily in index order."""
    chosen, rank = _greedy_rank_extension(p, p.n)
    if rank != p.n:
        raise Degenerate(f"configuration rank {rank} < n = {p.n}")
    return tuple(chosen)


def _leave_one_out(rows: np.ndarray, x: np.ndarray, drops) -> tuple[int, ...] | None:
    """Kept rows (1-based) of the first face, dropping each of drops in turn,
    whose differences from x, (rows[keep] - x).T, have rank n; else None."""
    for drop in drops:
        keep = [k for k in range(len(rows)) if k != drop - 1]
        if numeric_rank((rows[keep] - x).T) == x.size:
            return tuple(k + 1 for k in keep)
    return None


def extend_simplex_with_point(simplex: Configuration, x) -> tuple[int, ...]:
    """n of the n+1 simplex agents forming a non-degenerate set with x.

    Drops indices in ascending order and returns the first kept set whose
    differences from x have rank n, so ties go to the smallest dropped index.
    """
    n = simplex.n
    if simplex.N != n + 1:
        raise SizeMismatch(f"simplex needs n+1 = {n + 1} agents, got {simplex.N}")
    if configuration_rank(simplex) != n:
        raise SimplexDegenerate("simplex agents are affinely dependent")
    point = np.asarray(x, dtype=float).reshape(-1)
    if point.size != n:
        raise SizeMismatch(f"point must lie in R^{n}, got length {point.size}")
    kept = _leave_one_out(simplex.agents, point, range(1, n + 2))
    if kept is None:
        raise SimplexDegenerate("no leave-one-out choice is non-degenerate")
    return kept


# -- affine subspaces ------------------------------------------------------

class AffineSubspace:
    """Affine subspace base_point + span(basis); basis columns orthonormal."""

    __slots__ = ("base_point", "basis")

    def __init__(self, base_point, basis):
        bp = np.asarray(base_point, dtype=float).reshape(-1).copy()
        bs = np.asarray(basis, dtype=float)
        if bs.size == 0:
            bs = np.zeros((bp.size, 0))
        if bs.ndim != 2 or bs.shape[0] != bp.size:
            raise DimensionMismatch(
                f"basis shape {bs.shape} does not match ambient dimension {bp.size}")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(bs))):
            raise SizeMismatch("coordinates must be finite")
        gram = bs.T @ bs
        if not np.allclose(gram, np.eye(bs.shape[1]), atol=1e-8):
            raise DimensionMismatch("basis columns must be orthonormal")
        bs = bs.copy()
        bp.setflags(write=False)
        bs.setflags(write=False)
        object.__setattr__(self, "base_point", bp)
        object.__setattr__(self, "basis", bs)

    @property
    def ambient(self) -> int:
        return self.base_point.size

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, x) -> np.ndarray:
        """Closest point of the subspace to x."""
        d = np.asarray(x, dtype=float).reshape(-1) - self.base_point
        return self.base_point + self.basis @ (self.basis.T @ d)

    def distance(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x, dtype=float).reshape(-1)
                                    - self.project(x)))

    def __setattr__(self, name, value):
        raise AttributeError("AffineSubspace is immutable")

    def __repr__(self) -> str:
        return f"AffineSubspace(ambient={self.ambient}, dim={self.dim})"


def affine_hull(points: Sequence) -> AffineSubspace:
    """Smallest affine subspace containing the points."""
    pts = [np.asarray(q, dtype=float).reshape(-1) for q in points]
    if not pts:
        raise EmptyInput("affine_hull needs at least one point")
    base = pts[0]
    if len(pts) == 1:
        return AffineSubspace(base, np.zeros((base.size, 0)))
    diffs = np.column_stack([q - base for q in pts[1:]])
    # checked first: LAPACK's SVD with vectors can loop forever on inf entries
    if not np.all(np.isfinite(diffs)):
        raise SizeMismatch("coordinates must be finite")
    u, s, _ = np.linalg.svd(diffs, full_matrices=False)
    return AffineSubspace(base, u[:, :_rank_of(s)])


def intersect_affine(subspaces: Sequence[AffineSubspace]) -> AffineSubspace | None:
    """Common intersection, or None when the subspaces share no point.

    A candidate point from stacked least squares is accepted when its
    distance to every subspace is at most 1e-8 * (1 + scale), with scale the
    largest coordinate magnitude involved.
    """
    subs = list(subspaces)
    if not subs:
        raise EmptyInput("intersect_affine needs at least one subspace")
    ambient = subs[0].ambient
    for s in subs:
        if s.ambient != ambient:
            raise DimensionMismatch(
                f"ambient dimensions differ: {s.ambient} vs {ambient}")
    # stack the normal-space conditions P_m (x - b_m) = 0
    projectors = [np.eye(ambient) - s.basis @ s.basis.T for s in subs]
    a = np.vstack(projectors)
    rhs = np.concatenate([pr @ s.base_point for pr, s in zip(projectors, subs)])
    x, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    scale = max(
        [float(np.max(np.abs(s.base_point), initial=0.0)) for s in subs]
        + [float(np.max(np.abs(x), initial=0.0))])
    if any(s.distance(x) > 1e-8 * (1.0 + scale) for s in subs):
        return None
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    dim = ambient - _rank_of(sv)
    basis = vt[ambient - dim:].T if dim else np.zeros((ambient, 0))
    return AffineSubspace(x, basis)


def subspace_distance(a: AffineSubspace, b: AffineSubspace) -> float:
    """Zero iff the subspaces coincide: compares projectors and base points."""
    if a.ambient != b.ambient:
        raise DimensionMismatch(f"ambient dimensions differ: {a.ambient} vs {b.ambient}")
    pa = a.basis @ a.basis.T
    pb = b.basis @ b.basis.T
    gap = float(np.linalg.norm(pa - pb, 2)) if pa.size else 0.0
    return max(gap, a.distance(b.base_point), b.distance(a.base_point))


def component_sign(p_sub: Configuration) -> int:
    """Orientation sign of an (n+1)-agent non-degenerate configuration."""
    n = p_sub.n
    if p_sub.N != n + 1:
        raise SizeMismatch(f"need N = n+1 = {n + 1} agents, got {p_sub.N}")
    if configuration_rank(p_sub) != n:
        raise Degenerate("configuration is degenerate; sign undefined")
    det = float(np.linalg.det(_difference_matrix(p_sub, list(range(1, n + 2)))))
    return 1 if det > 0 else -1


def sample_configuration(n: int, N: int, kind: str = "uniform", *,
                         k: int | None = None, seed: int = 0) -> Configuration:
    """Deterministic pseudorandom configuration.

    kind "uniform" draws every coordinate from [-1, 1). kind "rank_k" places
    k+1 agents in general position and the rest at random affine
    combinations of them, then verifies the rank and resamples on failure.
    """
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return Configuration.from_agents(rng.uniform(-1.0, 1.0, size=(N, n)))
    if kind != "rank_k":
        raise InvalidStratum(f"unknown kind {kind!r}")
    if k is None or not (0 <= k <= n):
        raise InvalidStratum(f"rank_k needs 0 <= k <= n, got k={k}")
    if k + 1 > N:
        raise InvalidStratum(f"rank {k} needs at least {k + 1} agents, got {N}")
    for _ in range(100):
        anchors = rng.uniform(-1.0, 1.0, size=(k + 1, n))
        weights = rng.uniform(-1.0, 1.0, size=(N - k - 1, k))
        rest = anchors[0] + weights @ (anchors[1:] - anchors[0]) \
            if k else np.repeat(anchors[0][None, :], N - k - 1, axis=0)
        p = Configuration.from_agents(np.vstack([anchors, rest]))
        if configuration_rank(p) == k:
            return p
    raise InvalidStratum(f"could not sample a rank-{k} configuration")


# -- file formats ----------------------------------------------------------

def _check_finite_table(rows: list[list[float]]) -> None:
    for row in rows:
        for x in row:
            if not math.isfinite(x):
                raise InputFormatError("coordinates must be finite (no NaN/Inf)")


def parse_configuration_json(text: str) -> Configuration:
    """JSON object {"n": int, "N": int, "agents": [[...], ...]}, agent-major."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict) or not {"n", "N", "agents"} <= set(obj):
        raise InputFormatError('expected an object with keys "n", "N", "agents"')
    n, N, agents = obj["n"], obj["N"], obj["agents"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, N)):
        raise InputFormatError('"n" and "N" must be integers')
    if not isinstance(agents, list) or len(agents) != N:
        raise InputFormatError(f'"agents" must list exactly N = {N} rows')
    rows = []
    for row in agents:
        if not isinstance(row, list) or len(row) != n:
            raise InputFormatError(f"every agent needs exactly n = {n} coordinates")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row):
            raise InputFormatError("agent coordinates must be numbers")
        rows.append([float(x) for x in row])
    _check_finite_table(rows)
    return Configuration.from_agents(np.array(rows).reshape(N, n))


def format_configuration_json(p: Configuration) -> str:
    agents = [[float(f"{x:.17g}") for x in row] for row in p.agents]
    return json.dumps({"n": p.n, "N": p.N, "agents": agents}, indent=2) + "\n"


def parse_configuration_csv(text: str) -> Configuration:
    """One agent per row, comma-separated coordinates."""
    rows = []
    for record in csv.reader(io.StringIO(text)):
        if not record or all(not field.strip() for field in record):
            continue
        try:
            rows.append([float(field) for field in record])
        except ValueError:
            raise InputFormatError(f"bad CSV row {record!r}") from None
    if not rows:
        raise InputFormatError("empty configuration file")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputFormatError("CSV rows have inconsistent lengths")
    _check_finite_table(rows)
    return Configuration.from_agents(np.array(rows))


def format_configuration_csv(p: Configuration) -> str:
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in p.agents) + "\n"


def is_csv_path(path) -> bool:
    """Configuration files ending in .csv (any case) are CSV, all others JSON."""
    return str(path).lower().endswith(".csv")


def load_configuration(path) -> Configuration:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if is_csv_path(path):
        return parse_configuration_csv(text)
    return parse_configuration_json(text)
