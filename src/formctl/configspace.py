"""Configurations of N agents in R^n: ranks, strata, charts, and simplices.

A configuration stores its coordinates coordinate-major (all first
coordinates, then all second coordinates, ...), which is the layout the
lifted dynamics act on. File formats and the ``agents`` accessor are
agent-major; the two layouts differ by a fixed index permutation.

One rule decides every numeric rank in the package: count the singular
values above RANK_TOL times the largest one (``_rank_of``). Configuration,
control-field, simplex and face ranks all use it, and no caller can change
RANK_TOL. There is no other threshold: a stratum chart solves in one frame,
and a singular frame is an error (Degenerate). (Lie closure
dimensions are exact integer ranks.) A configuration keeps each subset
rank it has taken, so membership, LARC and the witness share one SVD per
maximal component.
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
    "ControllableSetMembership",
    "in_controllable_set",
    "StratumChart",
    "local_chart",
    "find_nondegenerate_simplex",
    "extend_simplex_with_point",
    "sample_configuration",
    "parse_configuration_json",
    "format_configuration_json",
    "parse_configuration_csv",
    "format_configuration_csv",
    "is_csv_path",
    "load_configuration",
]

RANK_TOL = 1e-9


def _rank_of(s: np.ndarray):
    """Count of the descending singular values above RANK_TOL times the largest:
    an int for one matrix's s, an array for a stack's (one row each)."""
    above = s > RANK_TOL * s[..., :1]
    return int(np.count_nonzero(above)) if s.ndim == 1 else above.sum(axis=-1)


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


def _check_sizes(n, N) -> None:
    if not (type(n) is int and type(N) is int and n >= 1 and N >= 1):
        raise SizeMismatch(f"need Python ints n >= 1 and N >= 1, got n={n!r}, N={N!r}")


class Configuration:
    """Immutable positions of N agents in R^n, stored coordinate-major."""

    __slots__ = ("n", "N", "coords", "_ranks")   # _ranks: set by configuration_rank

    def __init__(self, n: int, N: int, coords):
        _check_sizes(n, N)
        try:
            arr = np.asarray(coords, dtype=float).reshape(-1)
        except OverflowError:  # a Python int beyond the float range
            raise SizeMismatch("coordinates must be finite") from None
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
        try:
            arr = np.asarray(agents, dtype=float)
        except OverflowError:  # a Python int beyond the float range
            raise SizeMismatch("coordinates must be finite") from None
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise SizeMismatch(f"expected an (N, n) array, got shape {arr.shape}")
        return cls(arr.shape[1], arr.shape[0], arr.T.reshape(-1))

    @property
    def agents(self) -> np.ndarray:
        """(N, n) array, one agent per row."""
        return self.coords.reshape(self.n, self.N).T

    def subconfiguration(self, indices: Iterable[int]) -> "Configuration":
        """Configuration of the listed agents (1-based, ascending)."""
        idx = _agent_indices(self, indices)
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


def _agent_indices(p: Configuration, indices: Iterable[int]) -> list[int]:
    """The distinct agents listed, ascending; each must be a Python int in 1..N.

    Every index given is checked, before duplicates merge (1.0 == 1).
    """
    idx = list(indices)
    if not idx:
        raise EmptySubset("a subset of agents needs at least one agent")
    for i in idx:
        if type(i) is not int or not 1 <= i <= p.N:
            raise IndexOutOfRange(f"agent {i!r} is not a Python int in 1..{p.N}")
    return sorted(set(idx))


def _difference_matrix(p: Configuration, idx: Sequence[int]) -> np.ndarray:
    """Columns x_i - x_base for i in idx[1:], base = idx[0] (n x (m-1)).

    p is finite, so a difference that is not has overflowed; that is left to
    the caller's rank to refuse, without a numpy warning.
    """
    pts = p.agents
    with np.errstate(over="ignore"):
        return (pts[np.asarray(idx[1:], dtype=int) - 1] - pts[idx[0] - 1]).T


def configuration_rank(p: Configuration, subset: Iterable[int] | None = None) -> int:
    """Dimension of the span of differences within the subset (default: all).

    p keeps each rank it has taken, so a subset is ranked once per
    configuration (``_subset_rank``).
    """
    idx = range(1, p.N + 1) if subset is None else _agent_indices(p, subset)
    return _subset_rank(p, tuple(idx))


def _subset_rank(p: Configuration, idx: tuple[int, ...]) -> int:
    """configuration_rank of the agents idx, distinct and ascending.

    The rank is stored on p, keyed by idx, in a slot made on first use; a
    rank refused for overflow is not stored.
    """
    try:
        ranks = p._ranks
    except AttributeError:
        ranks = {}
        object.__setattr__(p, "_ranks", ranks)
    rank = ranks.get(idx)
    if rank is None:
        try:
            rank = ranks[idx] = numeric_rank(_difference_matrix(p, idx))
        except SizeMismatch:  # p is finite, so a difference overflowed
            raise SizeMismatch(_OVERFLOW) from None
    return rank


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
    return ControllableSetMembership(p.n, tuple(
        (w, _subset_rank(p, scd.components[w - 1])) for w in sorted(scd.maximal_set)))


# -- local charts of the rank strata ---------------------------------------

def _check_spread(p: Configuration) -> None:
    """Refuse p when a coordinate's spread over the agents, which bounds
    every difference of two agents, overflows (p itself is finite)."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.ptp(p.agents, axis=0)).all():
            raise SizeMismatch(_OVERFLOW)


class StratumChart:
    """Local chart of the rank-k stratum around a center configuration.

    ``forward`` sends a nearby configuration q to chart coordinates (flat,
    agent-major); the center maps to exactly zero, and q has rank k exactly
    when the ``forced_zero_indices`` coordinates vanish. ``inverse``
    reconstructs the configuration.

    The chosen agents shift directly. Every other agent's difference from
    the first chosen one is solved in the frame M(q) = [A(q) | B]: A(q)
    holds the chosen agents' differences in q (n x k), and B, fixed at
    construction, completes A at the center orthonormally (``B_part``). The
    chart reports these coefficients less the center's; the last n - k
    vanish exactly when the agent lies in the chosen agents' affine hull. A
    singular frame raises Degenerate; the chart has no threshold of its own.
    """

    __slots__ = ("center", "k", "index_choice", "B_part", "_chosen", "_rest",
                 "_center_coefficients")

    def __init__(self, center: Configuration, k: int, index_choice: tuple[int, ...]):
        _check_spread(center)
        a_part = _difference_matrix(center, list(index_choice))
        b_part = np.linalg.svd(a_part)[0][:, k:]
        chosen = np.asarray(index_choice, dtype=int) - 1
        rest = np.setdiff1d(np.arange(center.N), chosen)
        for name, value in (("center", center), ("k", k), ("index_choice", index_choice),
                            ("B_part", b_part), ("_chosen", chosen), ("_rest", rest)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_center_coefficients", self._coefficients(center.agents))

    def _frame(self, pts: np.ndarray) -> np.ndarray:
        """M = [A | B] for the agent positions pts (N x n); reads chosen rows only."""
        chosen = pts[self._chosen]
        return np.hstack([(chosen[1:] - chosen[0]).T, self.B_part])

    def _coefficients(self, pts: np.ndarray) -> np.ndarray:
        """Coefficients of the rest agents in the frame at pts, one row each."""
        diffs = (pts[self._rest] - pts[self._chosen[0]]).T
        try:
            return np.linalg.solve(self._frame(pts), diffs).T
        except np.linalg.LinAlgError:
            raise Degenerate("the chosen agents are affinely dependent") from None

    def forward(self, p: Configuration) -> np.ndarray:
        """Chart coordinates of p, flat agent-major (length nN)."""
        if (p.n, p.N) != (self.center.n, self.center.N):
            raise SizeMismatch("configuration shape differs from the chart center")
        _check_spread(p)
        pts = p.agents
        out = np.empty((p.N, p.n))
        out[self._chosen] = pts[self._chosen] - self.center.agents[self._chosen]
        out[self._rest] = self._coefficients(pts) - self._center_coefficients
        return out.reshape(-1)

    def inverse(self, v: np.ndarray) -> Configuration:
        """Configuration with chart coordinates v."""
        vv = np.asarray(v, dtype=float).reshape(-1)
        n, N = self.center.n, self.center.N
        if vv.size != n * N:
            raise SizeMismatch(f"expected {n * N} chart coordinates, got {vv.size}")
        vecs = vv.reshape(N, n)
        pts = np.empty((N, n))
        pts[self._chosen] = vecs[self._chosen] + self.center.agents[self._chosen]
        pts[self._rest] = pts[self._chosen[0]] + \
            (vecs[self._rest] + self._center_coefficients) @ self._frame(pts).T
        return Configuration.from_agents(pts)

    @property
    def forced_zero_indices(self) -> tuple[int, ...]:
        """Flat chart coordinates that vanish exactly on the rank-k stratum."""
        n, k = self.center.n, self.k
        return tuple(int(i) * n + j for i in self._rest for j in range(k, n))

    def __setattr__(self, name, value):
        raise AttributeError("StratumChart is immutable")

    def __repr__(self) -> str:
        return (f"StratumChart(k={self.k}, index_choice={self.index_choice}, "
                f"N={self.center.N}, n={self.center.n})")


def _greedy_rank_extension(p: Configuration, stop_rank: int) -> tuple[list[int], int]:
    """Scan agents in index order, keeping those that raise the affine rank.

    When the first stop_rank + 1 agents have rank stop_rank, the scan keeps
    exactly them: by interlacing, every prefix of their differences has full
    column rank, so each agent raises the rank. They are then ranked once.
    """
    head = tuple(range(1, stop_rank + 2))
    if p.N > stop_rank and _subset_rank(p, head) == stop_rank:
        return list(head), stop_rank
    chosen = [1]
    rank = 0
    for i in range(2, p.N + 1):
        if rank == stop_rank:
            break
        r = _subset_rank(p, (*chosen, i))
        if r > rank:
            chosen.append(i)
            rank = r
    return chosen, rank


def local_chart(p: Configuration, k: int) -> StratumChart:
    """Chart of the rank-k stratum centered at p; p must have rank k."""
    if type(k) is not int or not 0 <= k <= p.n:
        raise IndexOutOfRange(f"need a Python int 0 <= k <= n, got k={k!r}, n={p.n}")
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


def _stacked_rank(mats: np.ndarray) -> np.ndarray:
    """numeric_rank of each matrix of a stack (k, r, c), from one SVD call.

    Non-finite input is refused before LAPACK sees it; -1 marks a matrix
    whose largest singular value overflows, for the caller to refuse.
    """
    if not np.isfinite(mats).all():
        raise SizeMismatch(_OVERFLOW)
    s = np.linalg.svd(mats, compute_uv=False)
    return np.where(np.isinf(s[:, 0]), -1, _rank_of(s))


def _face(drop, n: int) -> np.ndarray:
    """Positions (0-based) of the n simplex agents kept when dropping position
    drop (1-based); one row per drop for an array of drops."""
    c = np.arange(n)
    return c + (c >= np.asarray(drop)[..., None] - 1)


def _first_faces(simplices: np.ndarray, pts: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Dropped position (1-based) of the simplex face each point takes.

    pts holds the points, one per row, and simplices (one per point, shape
    (points, n+1, n)) the n+1 agents of each point's simplex. A face serves
    x when its differences from x, (simplex[kept] - x).T, have rank n. A
    point with own > 0 is the simplex agent at that position and tries only
    the face opposite itself; every other point tries the drops in ascending
    order and takes the first face that serves it. Round d ranks, in one
    stacked SVD, the d-th face of every point still undecided (and in round
    1 the simplex agents' own faces). A point gets 0 when no face serves it
    and -1 when a face it tries overflows before one serves it
    (``_stacked_rank``).
    """
    n = simplices.shape[-1]
    drop = np.zeros(len(pts), dtype=int)
    with np.errstate(over="ignore"):  # _stacked_rank refuses what overflowed
        diffs = simplices - pts[:, None]
    todo = np.arange(len(pts))
    for d in range(1, n + 2):
        tried = np.where(own[todo] > 0, own[todo], d)
        ranks = _stacked_rank(diffs[todo[:, None], _face(tried, n)].transpose(0, 2, 1))
        drop[todo] = np.where(ranks == n, tried, np.minimum(ranks, 0))
        todo = todo[(drop[todo] == 0) & (own[todo] == 0)]
        if not todo.size:
            break
    return drop


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
    if not np.isfinite(point).all():
        raise SizeMismatch("coordinates must be finite")
    drop = int(_first_faces(simplex.agents[None], point[None], np.zeros(1, dtype=int))[0])
    if drop < 0:
        raise SizeMismatch(_OVERFLOW)
    if drop == 0:
        raise SimplexDegenerate("no leave-one-out choice is non-degenerate")
    return tuple(k for k in range(1, n + 2) if k != drop)


def sample_configuration(n: int, N: int, kind: str = "uniform", *,
                         k: int | None = None, seed: int = 0) -> Configuration:
    """Deterministic pseudorandom configuration.

    kind "uniform" draws every coordinate from [-1, 1). kind "rank_k" places
    k+1 agents in general position and the rest at random affine
    combinations of them, then verifies the rank and resamples on failure.
    n and N must be Python ints >= 1 (else SizeMismatch); k and seed Python
    ints >= 0 (else InvalidStratum).
    """
    _check_sizes(n, N)
    if type(seed) is not int or seed < 0:
        raise InvalidStratum(f"seed must be a Python int >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return Configuration.from_agents(rng.uniform(-1.0, 1.0, size=(N, n)))
    if kind != "rank_k":
        raise InvalidStratum(f"unknown kind {kind!r}")
    if type(k) is not int or not 0 <= k <= n:
        raise InvalidStratum(f"rank_k needs a Python int 0 <= k <= n, got k={k!r}")
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

def _file_configuration(n, N, rows: list[list]) -> Configuration:
    """Configuration(n, N, ...) of a table of agent rows, with its refusals
    as file errors; the columns are the coordinate-major layout."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise InputFormatError("agent rows must be equally long")
    try:
        p = Configuration(n, N, [x for column in zip(*rows) for x in column])
    except SizeMismatch as exc:
        raise InputFormatError(str(exc)) from None
    if len(rows[0]) != n:  # the table holds n N >= 1 numbers, so a first row
        raise InputFormatError(f"every agent needs exactly n = {n} coordinates")
    return p


def parse_configuration_json(text: str) -> Configuration:
    """JSON object {"n": int, "N": int, "agents": [[...], ...]}, agent-major."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON: {exc}") from None
    return _configuration_object(obj)


def _configuration_object(obj) -> Configuration:
    """Configuration of a decoded JSON object (a file or an inline waypoint);
    this checks the JSON shape, Configuration the sizes and the values."""
    if not isinstance(obj, dict) or not {"n", "N", "agents"} <= set(obj):
        raise InputFormatError('expected an object with keys "n", "N", "agents"')
    agents = obj["agents"]
    if not (isinstance(agents, list) and all(isinstance(row, list) for row in agents)):
        raise InputFormatError('"agents" must be a list of coordinate lists')
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool)
               for row in agents for x in row):
        raise InputFormatError("agent coordinates must be numbers")
    return _file_configuration(obj["n"], obj["N"], agents)


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
    return _file_configuration(len(rows[0]), len(rows), rows)


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
