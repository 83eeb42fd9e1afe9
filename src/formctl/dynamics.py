"""Simulation and steering of the bilinear formation dynamics.

With controls held constant on an interval the state map is the exact flow
p -> D(exp(h M)) p with M the weighted sum of edge generators, and D
repeating a matrix once per coordinate. Only the small N-by-N exponential is
ever formed, by one batched scaling-and-squaring Pade routine in numpy,
whose kept evaluation also gives the Frechet derivatives of the
exponential; simulate exponentiates all its sample intervals in one call.
Steering composes these exact flows and solves the two-point problem by
damped Gauss-Newton shooting on the stacked control values, splitting
every segment in two while it misses the target. The exact Jacobian
comes in adjoint form, from the Frechet derivatives of each segment
exponential along n N directions whatever the edge count, which
differentiate the forward pass's one Pade evaluation and one inverse of
its denominator; every damped step tried at one Jacobian comes from a
single thin SVD of it.
Tracking replans leg by leg across graph switches.
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .configspace import Configuration, _configuration_object, load_configuration
from .digraph import Digraph, StructuralKind, load_graph, structural_verdict
from .errors import (
    DimensionMismatch,
    InconsistentSchedule,
    InputFormatError,
    InvalidIndices,
    NegativeDuration,
    SegmentFailure,
    StepTooLarge,
    StructuralFailure,
    UnknownEdge,
)
from .larc import larc_passes

__all__ = [
    "GraphSchedule",
    "ControlSchedule",
    "Trajectory",
    "SteerOptions",
    "SteerResult",
    "TrackOptions",
    "TrackResult",
    "flow_constant",
    "simulate",
    "steer",
    "track_path",
    "parse_graph_schedule",
    "parse_waypoints",
    "format_control_schedule_csv",
    "parse_control_schedule_csv",
    "format_trajectory_csv",
]

# two time stamps closer than this (relative to the horizon) are one instant
_TIME_EPS = 1e-12


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= _TIME_EPS * max(1.0, scale)


def _check_positive(name: str, value: float) -> None:
    """Refuse a real setting (horizon, tolerance, epsilon) that is not positive and finite."""
    if not 0 < value < math.inf:
        raise InconsistentSchedule(f"{name} must be positive and finite, got {value}")


def _check_times(times: Sequence[float], name: str) -> None:
    """Refuse times that are not finite or do not strictly increase: `a < b`
    is False when either is NaN, and -inf and inf bound the ends."""
    for a, b in zip((-math.inf, *times), (*times, math.inf)):
        if not a < b:
            raise InconsistentSchedule(f"{name} must strictly increase and be finite")


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count that is not a Python int >= least; bools and floats included."""
    if type(value) is not int or value < least:
        raise InconsistentSchedule(f"{name} must be a Python int >= {least}, got {value!r}")


@dataclass(frozen=True)
class GraphSchedule:
    """Right-continuous piecewise-constant graph of interaction over [0, horizon]."""

    segments: tuple[tuple[float, Digraph], ...]
    horizon: float

    def __post_init__(self):
        _check_positive("horizon", self.horizon)
        if not self.segments:
            raise InconsistentSchedule("schedule needs at least one segment")
        starts = [t for t, _ in self.segments]
        if starts[0] != 0.0:
            raise InconsistentSchedule(f"first segment must start at 0, got {starts[0]}")
        _check_times(starts, "segment start times")
        if starts[-1] >= self.horizon:
            raise InconsistentSchedule("last segment starts at or after the horizon")
        sizes = {g.num_vertices for _, g in self.segments}
        if len(sizes) != 1:
            raise InconsistentSchedule("all segment graphs must share the vertex count")

    @classmethod
    def constant(cls, g: Digraph, horizon: float) -> "GraphSchedule":
        return cls(((0.0, g),), horizon)

    @property
    def num_vertices(self) -> int:
        return self.segments[0][1].num_vertices

    @property
    def switch_times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.segments[1:])

    def active(self, t: float) -> Digraph:
        """Graph in force at time t (right-continuous)."""
        if t < 0 or t > self.horizon:
            raise InconsistentSchedule(f"time {t} outside [0, {self.horizon}]")
        current = self.segments[0][1]
        for start, g in self.segments[1:]:
            if t >= start:
                current = g
            else:
                break
        return current


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant edge controls on a grid 0 = t_0 < ... < t_M = T."""

    grid: tuple[float, ...]
    values: tuple[dict[tuple[int, int], float], ...]

    def __post_init__(self):
        if len(self.grid) < 2:
            raise InconsistentSchedule("control grid needs at least two breakpoints")
        _check_times(self.grid, "control grid")
        if len(self.values) != len(self.grid) - 1:
            raise InconsistentSchedule(
                f"{len(self.grid) - 1} intervals but {len(self.values)} value maps")

    @property
    def horizon(self) -> float:
        return self.grid[-1]

    def interval_of(self, t: float) -> int:
        """Index of the interval containing t (right-continuous)."""
        for k in range(len(self.values) - 1, -1, -1):
            if t >= self.grid[k]:
                return k
        return 0

    def validate_against(self, schedule: GraphSchedule) -> None:
        """Grid must refine the switch times; edges must exist when referenced."""
        scale = schedule.horizon
        if not _close(self.grid[0], 0.0, scale) or \
                not _close(self.grid[-1], schedule.horizon, scale):
            raise InconsistentSchedule("control grid must cover [0, horizon] exactly")
        for s in schedule.switch_times:
            if not any(_close(s, t, scale) for t in self.grid):
                raise InconsistentSchedule(
                    f"graph switch at t={s} is not a control breakpoint")
        for k, u in enumerate(self.values):
            g = schedule.active(self.grid[k])
            for e in u:
                if e not in g.edges:
                    raise UnknownEdge(
                        f"control references edge {e[0]}->{e[1]} absent from the "
                        f"graph active at t={self.grid[k]}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: states[k] is the configuration at times[k]."""

    times: tuple[float, ...]
    states: tuple[Configuration, ...]

    def __post_init__(self):
        if len(self.times) != len(self.states) or not self.times:
            raise InconsistentSchedule("times and states must align and be nonempty")
        _check_times(self.times, "sample times")
        shapes = {(s.n, s.N) for s in self.states}
        if len(shapes) != 1:
            raise InconsistentSchedule("all states must share (n, N)")

    @property
    def final(self) -> Configuration:
        return self.states[-1]


def _control_matrix(g: Digraph, u: Mapping[tuple[int, int], float]) -> np.ndarray | None:
    """Weighted generator sum as an N x N array; None when every weight is zero."""
    m = None
    for (i, j), w in u.items():
        if (i, j) not in g.edges:
            raise UnknownEdge(f"edge {i}->{j} is not in the graph")
        if w == 0.0:
            continue
        if m is None:
            m = np.zeros((g.num_vertices, g.num_vertices))
        m[i - 1, i - 1] -= w
        m[i - 1, j - 1] += w
    return m


# Pade approximants r_m = (V + U) / (V - U) of degree m = 3, 5, 7, 9 from
# Higham (2005), Table 2.3 and eq. (2.2): theta_m, the largest 1-norm at
# which r_m(A) is exp(A) to double precision, and the coefficients b_0 .. b_m
_PADE = tuple((theta, np.array(b)) for theta, b in (
    (1.495585217958292e-2, (120., 60., 12., 1.)),
    (2.539398330063230e-1, (30240., 15120., 3360., 420., 30., 1.)),
    (9.504178996162932e-1, (17297280., 8648640., 1995840., 277200., 25200., 1512.,
                            56., 1.)),
    (2.097847961257068e0, (17643225600., 8821612800., 2075673600., 302702400.,
                           30270240., 2162160., 110880., 3960., 90., 1.)),
))

# each matrix is scaled by 2^-k to 1-norm at most theta_9, so degree 9 is
# the highest used: on 96,000 random K4 flows (controls in [-1, 1], h up to
# 4) it gave 22 cases whose semigroup error exceeds 1e-10, against 27 with
# degree 13 and scaling to 2.5 on the same draws
_SUBSTEP_NORM = _PADE[-1][0]

# doubles per working array: expm works through a stack in chunks of this
# size, so its temporaries stay in cache and in reused memory
_CHUNK = 1 << 14


def expm(a: np.ndarray) -> np.ndarray:
    """exp of each square matrix of the (..., n, n) stack a.

    Scaling and squaring (_pade_exp), batched over chunks of the stack. A
    stack that is not finite gives NaN.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    out = np.empty_like(flat)
    step = max(1, _CHUNK // (n * n))
    for start in range(0, len(flat), step):
        done = _pade_exp(flat[start:start + step])
        if done is None:
            return np.full(a.shape, np.nan)
        out[start:start + step] = done.exp
    return out.reshape(a.shape)


class _Pade(NamedTuple):
    """One evaluation of exp over a (B, n, n) stack, kept for _frechet."""
    squarings: np.ndarray  # (B,) k, each matrix A scaled to 2^-k A
    coefs: np.ndarray      # b_0 .. b_m of the one Pade degree used
    scaled: np.ndarray     # (B, n, n) 2^-k A
    powers: np.ndarray     # (m // 2, B, n, n) its even powers A^2, A^4, ...
    w: np.ndarray          # (B, n, n) W, with U = A W
    r_u: np.ndarray        # (B, n, n) U q^-1
    q_inv: np.ndarray      # (B, n, n) q^-1
    squares: tuple         # R before squaring k, of the matrices with k < squarings
    exp: np.ndarray        # (B, n, n) exp(A)


def _pade_exp(a: np.ndarray) -> _Pade | None:
    """exp(A) for each matrix of the (B, n, n) stack a, with the intermediates
    _frechet differentiates; None if a is not finite.

    Scaling and squaring (Higham 2005): each matrix is scaled by an exact
    power of two 2^-k to 1-norm at most _SUBSTEP_NORM, and one Pade degree,
    the lowest accurate at the stack's largest scaled norm, serves them all.
    U = A W with W = sum_k b_2k+1 A^2k and V = sum_k b_2k A^2k, each sum one
    product of its coefficients with the stacked even powers. With q = V - U,
    r = I + 2 U q^-1 (U and q commute), so a zero row of A (an agent without
    outgoing controls) stays an exact identity row.
    """
    n = a.shape[-1]
    norms = (np.ones(n) @ np.abs(a)).max(axis=1)
    if not np.isfinite(norms).all():
        return None
    squarings = np.ceil(np.log2(np.maximum(norms, _SUBSTEP_NORM) / _SUBSTEP_NORM))
    squarings = squarings.astype(np.intc)
    largest = np.ldexp(norms, -squarings).max()
    # log2 rounds, so the largest scaled norm can sit a few ulps above theta_9
    b = next((b for theta, b in _PADE if largest <= theta), _PADE[-1][1])
    scaled = np.ldexp(a, -squarings[:, None, None])
    powers = np.empty(((len(b) - 1) // 2,) + a.shape)
    np.matmul(scaled, scaled, out=powers[0])
    for k in range(1, len(powers)):
        np.matmul(powers[k - 1], powers[0], out=powers[k])
    w, v = _weighted(b[3::2], powers), _weighted(b[2::2], powers)
    w.reshape(len(w), -1)[:, ::n + 1] += b[1]
    v.reshape(len(v), -1)[:, ::n + 1] += b[0]
    u = scaled @ w
    q_inv = np.linalg.inv(v - u)
    r_u = u @ q_inv
    r = 2 * r_u
    r.reshape(len(r), -1)[:, ::n + 1] += 1
    squares = []
    for k in range(squarings.max()):
        sel = squarings > k
        rs = r[sel]
        squares.append(rs)
        r[sel] = rs @ rs
    return _Pade(squarings, b, scaled, powers, w, r_u, q_inv, tuple(squares), r)


def _weighted(coefs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """sum_k coefs[k] terms[k], as one product over the stacked terms."""
    return np.dot(coefs, terms.reshape(len(terms), -1)).reshape(terms.shape[1:])


def _frechet(pade: _Pade, e: np.ndarray) -> np.ndarray:
    """L(A, E), the Frechet derivative of exp at each matrix A of pade along
    each of its D directions in the (B, D, n, n) stack e.

    Al-Mohy & Higham 2009, Algorithm 6.4, on pade's own intermediates, with
    E scaled like A. The derivatives M_k of the even powers follow their
    recurrence A^2k = A^2k-2 A^2; L_W and L_V are the same sums over M_k,
    L_U = A L_W + E W, and L_r = 2 (L_U + U q^-1 (L_U - L_V)) q^-1 shares
    the one inverse of q (numpy's batched solve with the 2D + 1 blocks as
    right-hand sides took 0.44 ms, the inverse and one product 0.04 ms:
    eight K8 segments, 2-core Xeon, one BLAS thread). Each squaring R <- R^2
    takes L <- R L + L R.
    """
    a, powers = pade.scaled[:, None], pade.powers
    e = np.ldexp(e, -pade.squarings[:, None, None, None])
    derivs = np.empty((len(powers),) + e.shape)
    derivs[0] = a @ e + e @ a
    for k in range(1, len(powers)):
        derivs[k] = powers[k - 1][:, None] @ derivs[0] + derivs[k - 1] @ powers[0][:, None]
    l_w, l_v = _weighted(pade.coefs[3::2], derivs), _weighted(pade.coefs[2::2], derivs)
    l_u = a @ l_w + e @ pade.w[:, None]
    frechet = 2 * ((l_u + pade.r_u[:, None] @ (l_u - l_v)) @ pade.q_inv[:, None])
    for k, rs in enumerate(pade.squares):
        sel = pade.squarings > k
        fs = frechet[sel]
        frechet[sel] = rs[:, None] @ fs + fs @ rs[:, None]
    return frechet


def _apply_transition(p: Configuration, e: np.ndarray) -> Configuration:
    """Image of p under the per-coordinate transition matrix e."""
    x = p.coords.reshape(p.n, p.N)
    return Configuration(p.n, p.N, (x @ e.T).reshape(-1))


def flow_constant(g: Digraph, u: Mapping[tuple[int, int], float],
                  p: Configuration, h: float) -> Configuration:
    """Exact flow of the constant-control dynamics over duration h.

    Controls u are keyed by edges of g; missing edges mean zero. The zero
    control map returns p itself, bit for bit.
    """
    if h < 0:
        raise NegativeDuration(f"duration must be nonnegative, got {h}")
    if p.N != g.num_vertices:
        raise DimensionMismatch(
            f"graph has {g.num_vertices} vertices, configuration has {p.N} agents")
    m = _control_matrix(g, u)
    if m is None or h == 0.0:
        return p
    return _apply_transition(p, expm(h * m))


def _sample_grid(breakpoints: Sequence[float], dt: float, horizon: float) -> list[float]:
    """Breakpoints plus the dt lattice, deduplicated and sorted."""
    steps = int(math.floor(horizon / dt + 0.5 * _TIME_EPS))
    candidates = sorted(set(breakpoints) | {k * dt for k in range(steps + 1)} | {0.0, horizon})
    out: list[float] = []
    for t in candidates:
        if t < -_TIME_EPS or t > horizon * (1 + _TIME_EPS):
            continue
        if out and _close(out[-1], t, horizon):
            continue
        out.append(t)
    return out


def simulate(schedule: GraphSchedule, controls: ControlSchedule,
             p0: Configuration, dt: float) -> Trajectory:
    """Integrate the switched system, sampling at every breakpoint and every dt.

    The controls are piecewise constant, so each sample interval integrates
    exactly through a matrix exponential; one expm call forms all of them.
    An interval without controls keeps the state itself.
    """
    if p0.N != schedule.num_vertices:
        raise InconsistentSchedule(
            f"schedule is over {schedule.num_vertices} vertices, "
            f"configuration has {p0.N} agents")
    if not 0 < dt < math.inf:
        raise StepTooLarge(f"dt must be positive and finite, got {dt}")
    # the validated grid holds every switch and both ends, to within _TIME_EPS
    controls.validate_against(schedule)
    min_gap = min(b - a for a, b in zip(controls.grid, controls.grid[1:]))
    if dt > min_gap * (1 + 1e-9):
        raise StepTooLarge(
            f"dt={dt} exceeds the smallest breakpoint interval {min_gap}")

    times = _sample_grid(controls.grid, dt, schedule.horizon)
    exponents = []
    for a, b in zip(times, times[1:]):
        h = b - a
        m = _control_matrix(schedule.active(a),
                            controls.values[controls.interval_of(a + h / 2)])
        exponents.append(None if m is None else h * m)
    exps = iter(expm(np.array([hm for hm in exponents if hm is not None])
                     .reshape(-1, p0.N, p0.N)))
    states = [p0]
    for hm in exponents:
        states.append(states[-1] if hm is None else _apply_transition(states[-1], next(exps)))
    return Trajectory(tuple(times), tuple(states))


# -- steering --------------------------------------------------------------

# Gauss-Newton iterations per round, and rounds per steer: the caller's
# grid, then each segment split in two while the residual misses
_MAX_ITERATIONS = 200
_ROUNDS = 4


@dataclass(frozen=True)
class SteerOptions:
    """Target residual, positive and finite."""

    tolerance: float = 1e-8

    def __post_init__(self):
        _check_positive("tolerance", self.tolerance)


@dataclass(frozen=True)
class SteerResult:
    """Controls of the last round; states[k] is the configuration they reach at grid[k].

    start_index is that round, 0 on the caller's grid, and
    len(controls.values) the segment count it used.
    """

    controls: ControlSchedule
    states: tuple[Configuration, ...]
    residual: float
    start_index: int
    iterations: int
    no_progress: bool


class _ForwardPass(NamedTuple):
    hm: np.ndarray        # (S, N, N) segment exponents h M_s
    pade: _Pade | None    # their one Pade evaluation; None if hm is not finite
    exps: np.ndarray      # (S, N, N) segment transitions E_s = exp(h M_s)
    states: np.ndarray    # (S + 1, n, N) states x_0 .. x_S


class _ShootingMap:
    """theta -> states of the piecewise-constant flow from x0, on arrays only.

    theta holds one control value per (segment, edge), segment-major over the
    sorted edges. A state is an n x N array with one row per coordinate, the
    layout of Configuration.coords, and a segment maps x to x E_s^T.
    """

    def __init__(self, g: Digraph, x0: np.ndarray, segments: int, h: float):
        N = g.num_vertices
        edges = sorted(g.edges)
        # h A_e = h e_i (e_j - e_i)^T for the edge e = (i, j)
        gens = np.zeros((len(edges), N, N))
        for k, (i, j) in enumerate(edges):
            gens[k, i - 1, i - 1] = -h
            gens[k, i - 1, j - 1] = h
        self.h_generators = gens
        self.x0 = x0
        self.segments = segments

    def forward(self, theta: np.ndarray) -> _ForwardPass:
        S = self.segments
        hm = np.tensordot(theta.reshape(S, -1), self.h_generators, axes=1)
        pade = _pade_exp(hm)
        exps = np.full(hm.shape, np.nan) if pade is None else pade.exp
        states = np.empty((S + 1,) + self.x0.shape)
        states[0] = self.x0
        for s in range(S):
            states[s + 1] = states[s] @ exps[s].T
        return _ForwardPass(hm, pade, exps, states)

    def jacobian(self, fwd: _ForwardPass) -> np.ndarray:
        """d x_S / d theta, one column per (segment, edge), rows as coords.

        Adjoint form (Giles 2008): entry (d, k) of x_S is lam^T E_s x with
        x = x_{s-1,d} and lam row k of the suffix product Suf_s = E_S ...
        E_{s+1}, so its derivative along hA_e is <L(hM_s^T, lam x^T), hA_e>
        = <L(hM_s, x lam^T)^T, hA_e>, with L the Frechet derivative of the
        exponential. Each segment's n N derivatives along x lam^T, however
        many edges the graph has, differentiate the forward pass's own Pade
        evaluation of hM_s (_frechet), so no segment exponential is formed
        twice. Every lam and x is first scaled by a power of two to largest
        entry in [1/2, 1), and the scale is undone exactly on the result,
        which is linear in x lam^T.
        """
        S, (n, N) = self.segments, self.x0.shape
        if fwd.pade is None:  # a generator that is not finite gives no Jacobian
            return np.full((n * N, S * len(self.h_generators)), np.nan)
        suffix = np.empty_like(fwd.exps)
        suffix[-1] = np.eye(N)
        for s in range(S - 1, 0, -1):
            suffix[s - 1] = suffix[s] @ fwd.exps[s]
        lam, lam_exp = _unit_rows(suffix)
        x, x_exp = _unit_rows(fwd.states[:-1])
        directions = x[:, :, None, :, None] * lam[:, None, :, None, :]
        frechet = _frechet(fwd.pade, directions.reshape(S, n * N, N, N))
        cols = np.tensordot(frechet.reshape(directions.shape), self.h_generators,
                            axes=([3, 4], [2, 1]))
        cols = np.ldexp(cols, (lam_exp[:, None, :] + x_exp[:, :, None])[..., None])
        return cols.transpose(1, 2, 0, 3).reshape(n * N, -1)


def _unit_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a with each row scaled by 2^-e to largest magnitude in [1/2, 1), and the e."""
    _, e = np.frexp(np.abs(a).max(axis=-1))
    return np.ldexp(a, -e[..., None]), e


def steer(g: Digraph, p0: Configuration, p1: Configuration, segments: int,
          T: float, opts: SteerOptions = SteerOptions()) -> SteerResult:
    """Find piecewise-constant controls driving p0 toward p1 over [0, T].

    Single shooting over equal intervals: the unknowns are one control
    value per (interval, edge), the objective the final-state mismatch.
    Damped Gauss-Newton with the exact Jacobian of the shooting map, at most
    _MAX_ITERATIONS iterations per round, from zero controls on the caller's
    segments. While the residual is above the tolerance, up to _ROUNDS
    rounds in all, every segment is split in two and the search goes on
    from the same controls, repeated on the finer grid, so each round starts
    where the last ended. The last round's result is returned. A stalled
    round (no accepted step, or a last improvement below 1e-14, with the
    residual still above tolerance) is reported, not raised.
    """
    _check_positive("horizon", T)
    _check_count("segments", segments, 2)
    if (p0.n, p0.N) != (p1.n, p1.N):
        raise InconsistentSchedule("endpoint configurations must share (n, N)")
    if p0.N != g.num_vertices:
        raise InconsistentSchedule(
            f"graph has {g.num_vertices} vertices, configurations have {p0.N} agents")
    for name, p in (("initial", p0), ("target", p1)):
        if not larc_passes(p, g):
            warnings.warn(f"{name} configuration fails the rank condition on this "
                          "graph; steering may stall", stacklevel=2)

    edges = sorted(g.edges)
    x0 = p0.coords.reshape(p0.n, p0.N)
    target = p1.coords.reshape(p1.n, p1.N)
    theta = np.zeros((segments, len(edges)))
    for round_ in range(_ROUNDS):
        if round_:
            theta = np.repeat(theta, 2, axis=0)
        S = len(theta)
        theta, states, res, iters, stalled = _gauss_newton(
            _ShootingMap(g, x0, S, T / S), target, theta.reshape(-1), opts.tolerance)
        theta = theta.reshape(S, -1)
        if res <= opts.tolerance:
            break

    grid = tuple(k * T / S for k in range(S)) + (T,)
    values = tuple(dict(zip(edges, map(float, row))) for row in theta)
    achieved = tuple(Configuration(p0.n, p0.N, x) for x in states)
    return SteerResult(ControlSchedule(grid, values), achieved, float(res), round_,
                       iters, stalled)


def _gauss_newton(shooting: _ShootingMap, target: np.ndarray, theta: np.ndarray,
                  tolerance: float):
    """Damped Gauss-Newton; returns (theta, states, residual, iterations, stalled).

    states are the forward pass's x_0 .. x_S at the returned theta. A failed
    SVD ends the search; so do _MAX_ITERATIONS trials and damping above 1e12.
    """
    states, r, res, jac = _evaluate(shooting, target, theta, tolerance, math.inf)
    svd = None
    lam = 1e-3
    last_improvement = 0.0
    iters = 0
    while iters < _MAX_ITERATIONS and tolerance < res < math.inf:
        iters += 1
        if svd is None:
            try:
                svd = np.linalg.svd(jac, full_matrices=False)
            except np.linalg.LinAlgError:
                break
        trial = theta + _damped_step(svd, r, lam)
        states_trial, r_trial, res_trial, jac_trial = _evaluate(
            shooting, target, trial, tolerance, res)
        if res_trial < res:
            last_improvement = res - res_trial
            theta, states, r, res, jac = trial, states_trial, r_trial, res_trial, jac_trial
            svd = None
            lam = max(lam / 10, 1e-15)
        else:
            lam *= 10
            if lam > 1e12:
                break
    stalled = res > tolerance and last_improvement < 1e-14
    return theta, states, res, iters, stalled


def _damped_step(svd: Sequence[np.ndarray], r: np.ndarray, lam: float) -> np.ndarray:
    """Minimiser of |J step + r|^2 + lam |step|^2 from the thin SVD J = U S V^T.

    step = -V diag(s / (s^2 + lam)) U^T r is the solution of (J^T J + lam I)
    step = -J^T r without forming J^T J, whose condition number is the
    square of J's; the one SVD serves every lam tried at that Jacobian.
    """
    u, s, vt = svd
    return -(s / (s * s + lam) * (r @ u)) @ vt


def _evaluate(shooting: _ShootingMap, target: np.ndarray, theta: np.ndarray,
              tolerance: float, bound: float):
    """Forward states, residual vector, its norm and the Jacobian at theta.

    The norm reads inf when the flow or the Jacobian is not finite (the
    exponentials overflowed), so such a trial is rejected like one that does
    not improve. The Jacobian is formed only when the norm is below bound,
    the norm to beat, and above the tolerance; otherwise it is None.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = shooting.forward(theta)
        r = (fwd.states[-1] - target).reshape(-1)
        res = float(np.linalg.norm(r))
        if not math.isfinite(res):
            return fwd.states, r, math.inf, None
        if not tolerance < res < bound:
            return fwd.states, r, res, None
        jac = shooting.jacobian(fwd)
    if not np.all(np.isfinite(jac)):
        return fwd.states, r, math.inf, None
    return fwd.states, r, res, jac


# -- waypoint tracking -----------------------------------------------------

@dataclass(frozen=True)
class TrackOptions:
    """Steering segments each leg starts from, a Python int >= 2; each leg
    steers to tolerance epsilon/2."""

    segments_per_leg: int = 4

    def __post_init__(self):
        _check_count("segments_per_leg", self.segments_per_leg, 2)


@dataclass(frozen=True)
class TrackResult:
    controls: ControlSchedule
    trajectory: Trajectory
    max_deviation: float
    leg_residuals: tuple[float, ...]


def track_path(schedule: GraphSchedule,
               waypoints: Sequence[tuple[float, Configuration]],
               epsilon: float,
               start: Configuration | None = None,
               opts: TrackOptions = TrackOptions()) -> TrackResult:
    """Steer through the waypoints leg by leg, replanning from achieved states.

    Each leg targets residual epsilon/2 under the graph active during the
    leg; the waypoint times must include every switch time, so a leg never
    straddles a switch. Every segment graph in use must pass the structural
    size test. The reported deviation is the largest distance between the
    achieved state and the waypoint, measured at the waypoint times
    (including the start offset when tracking begins off the path). The
    trajectory is sampled at the control breakpoints, with the states each
    leg's steering reached there, so no flow is computed twice.
    """
    _check_positive("epsilon", epsilon)
    wps = list(waypoints)
    if len(wps) < 2:
        raise InconsistentSchedule("tracking needs at least two waypoints")
    times = [t for t, _ in wps]
    if times[0] != 0.0:
        raise InconsistentSchedule(f"first waypoint must sit at t=0, got {times[0]}")
    _check_times(times, "waypoint times")
    if times[-1] > schedule.horizon * (1 + _TIME_EPS):
        raise InconsistentSchedule("waypoints extend past the schedule horizon")
    for s in schedule.switch_times:
        if s < times[-1] and not any(_close(s, t, schedule.horizon) for t in times):
            raise InconsistentSchedule(
                f"graph switch at t={s} must coincide with a waypoint")

    n = wps[0][1].n
    for t, _ in wps[:-1]:
        g = schedule.active(t)
        verdict = structural_verdict(g, n)
        if verdict.kind is not StructuralKind.GENERICALLY_CONTROLLABLE:
            raise StructuralFailure(
                f"graph active at t={t} has verdict {verdict.kind.value}; "
                f"offending maximal components {list(verdict.offending_components)}")

    scale = max(1.0, max(float(np.max(np.abs(p.coords))) for _, p in wps))
    for (ta, pa), (tb, pb) in zip(wps, wps[1:]):
        gap = float(np.linalg.norm(pb.coords - pa.coords))
        if gap > 0.5 * scale:
            warnings.warn(
                f"waypoints at t={ta} and t={tb} are {gap:.3g} apart, above half "
                "the configuration scale; steering legs may struggle", stacklevel=2)

    current = wps[0][1] if start is None else start
    deviations = [float(np.linalg.norm(current.coords - wps[0][1].coords))]
    grid: list[float] = [0.0]
    values: list[dict[tuple[int, int], float]] = []
    states = [current]
    leg_residuals = []
    steer_opts = SteerOptions(epsilon / 2)
    for leg, ((t_a, _), (t_b, p_target)) in enumerate(zip(wps, wps[1:])):
        result = steer(schedule.active(t_a), current, p_target, opts.segments_per_leg,
                       t_b - t_a, steer_opts)
        if result.residual > epsilon / 2:
            raise SegmentFailure(leg, result.residual, epsilon / 2)
        leg_residuals.append(result.residual)
        grid.extend(t_a + t for t in result.controls.grid[1:])
        values.extend(result.controls.values)
        states.extend(result.states[1:])
        current = result.states[-1]
        deviations.append(float(np.linalg.norm(current.coords - p_target.coords)))

    return TrackResult(ControlSchedule(tuple(grid), tuple(values)),
                       Trajectory(tuple(grid), tuple(states)),
                       max(deviations), tuple(leg_residuals))


# -- file formats ----------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_timed_list(text: str, item: str, key: str, base_dir, load, inline) -> list:
    """(t, value) pairs of a JSON list [{"t": float, key: <path or inline>}].

    A string value is a path, resolved against base_dir and read by load;
    any other value is handed to inline. item names an entry in messages.
    """
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad JSON: {exc}") from None
    if not isinstance(entries, list) or not entries:
        raise InputFormatError(f"expected a nonempty JSON list of {item}s")
    out = []
    for entry in entries:
        if not isinstance(entry, dict) or "t" not in entry or key not in entry:
            raise InputFormatError(f'each {item} needs keys "t" and "{key}"')
        t = entry["t"]
        number = isinstance(t, (int, float)) and not isinstance(t, bool)
        # compared exactly: NaN, ±inf and an int beyond the float range fail
        if not (number and abs(t) <= sys.float_info.max):
            raise InputFormatError(f"bad {item} time {t!r}")
        spec = entry[key]
        if isinstance(spec, str):
            path = spec if base_dir is None else os.path.join(base_dir, spec)
            try:
                value = load(path)
            except OSError as exc:
                raise InputFormatError(f"cannot read {key} file {spec!r}: {exc}") from None
        else:
            value = inline(spec)
        out.append((float(t), value))
    return out


def _inline_graph(spec) -> Digraph:
    edges = spec.get("edges") if isinstance(spec, dict) else None
    if not (isinstance(edges, list) and "N" in spec and all(isinstance(e, list) for e in edges)):
        raise InputFormatError(
            'segment "graph" must be a path or {"N": ..., "edges": [[i, j], ...]}')
    try:
        return Digraph(spec["N"], [tuple(e) for e in edges])
    except InvalidIndices as exc:
        raise InputFormatError(f"bad inline graph: {exc}") from None


def parse_graph_schedule(text: str, horizon: float, base_dir=None) -> GraphSchedule:
    """JSON list [{"t": float, "graph": <path or {"N":., "edges":[[i,j],..]}>}].

    Path entries are resolved against base_dir. The horizon is supplied by
    the caller; it is not part of the file, so a bad one is refused as a
    domain error (InconsistentSchedule), as it is without a schedule file.
    """
    segments = _read_timed_list(text, "segment", "graph", base_dir, load_graph,
                                _inline_graph)
    _check_positive("horizon", horizon)
    try:
        return GraphSchedule(tuple(segments), horizon)
    except InconsistentSchedule as exc:
        raise InputFormatError(str(exc)) from None


def parse_waypoints(text: str, base_dir=None) -> list[tuple[float, Configuration]]:
    """JSON list [{"t": float, "config": <path or inline configuration>}]."""
    return _read_timed_list(text, "waypoint", "config", base_dir, load_configuration,
                            _configuration_object)


def format_control_schedule_csv(controls: ControlSchedule) -> str:
    lines = ["t_start,t_end,i,j,u"]
    for k, u in enumerate(controls.values):
        a, b = controls.grid[k], controls.grid[k + 1]
        for (i, j) in sorted(u):
            lines.append(f"{_fmt(a)},{_fmt(b)},{i},{j},{_fmt(u[(i, j)])}")
    return "\n".join(lines) + "\n"


def parse_control_schedule_csv(text: str) -> ControlSchedule:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("t_start"):
            continue
        parts = line.split(",")
        if len(parts) != 5:
            raise InputFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            row = (float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3]), float(parts[4]))
        except ValueError:
            raise InputFormatError(f"line {lineno}: bad field in {raw!r}") from None
        if not all(map(math.isfinite, row)):
            raise InputFormatError(f"line {lineno}: fields must be finite, got {raw!r}")
        rows.append(row)
    if not rows:
        raise InputFormatError("empty control schedule")
    intervals: dict[tuple[float, float], dict[tuple[int, int], float]] = {}
    for a, b, i, j, u in rows:
        intervals.setdefault((a, b), {})[(i, j)] = u
    ordered = sorted(intervals)
    grid = [ordered[0][0]]
    values = []
    for (a, b) in ordered:
        if not _close(a, grid[-1], abs(ordered[-1][1])):
            raise InputFormatError(f"interval [{a}, {b}] does not continue the grid")
        grid.append(b)
        values.append(intervals[(a, b)])
    try:
        return ControlSchedule(tuple(grid), tuple(values))
    except InconsistentSchedule as exc:
        raise InputFormatError(str(exc)) from None


def format_trajectory_csv(traj: Trajectory) -> str:
    n = traj.states[0].n
    header = "t,agent," + ",".join(f"x{d}" for d in range(1, n + 1))
    lines = [header]
    for t, state in zip(traj.times, traj.states):
        for i, row in enumerate(state.agents.tolist(), 1):
            lines.append(f"{_fmt(t)},{i}," + ",".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"
