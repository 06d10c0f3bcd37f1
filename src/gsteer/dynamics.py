"""Closed-form Markovian relaxation of (1+1)-mode states and the j2 decay scans.

Both modes couple identically to a squeezed thermal bath with damping rate
``lam``: cov(t) = w cov(0) + (1 - w) cov_inf with w = exp(-lam t), and the
mean decays as exp(-lam t / 2).  j2 is convex over covariance mixing, so
j2(t) <= w j2(0) + (1 - w) j2(inf), the envelope every sweep carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DEFAULT_PSD_TOL, ValidationError, require_number, require_real
from .states import GaussianState, _Record, ensure_bona_fide
from .steering import _steering_spectra

SWEEP_BLOCK = 1024  # sweep's times per eigendecomposition, which bounds its memory
# first_passage_time's grid times per eigendecomposition, and the size of a
# sweep's first block (or SWEEP_BLOCK, if smaller), from which its blocks double
PASSAGE_BLOCK = 128


@dataclass(frozen=True)
class BathParameters:
    """Markovian bath, stored as floats: thermal photon number n_th in
    [0, inf), finite squeezing magnitude R and phase phi, damping rate lam in
    (0, inf).  A bath whose stationary covariance overflows is rejected."""

    n_th: float
    R: float
    phi: float
    lam: float

    def __post_init__(self):
        vars(self).update(  # frozen: the fields are stored past __setattr__
            n_th=require_number(self.n_th, "n_th", 0.0),
            R=require_number(self.R, "R", -math.inf, ends="()"),
            phi=require_number(self.phi, "phi", -math.inf, ends="()"),
            lam=require_number(self.lam, "lam", 0.0, ends="()"))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(gamma_infinity(self)).all()
        if not finite:
            raise ValidationError(
                f"bath parameters n_th = {self.n_th} and R = {self.R} give a "
                f"non-finite stationary covariance")

    @property
    def photon_number(self) -> float:
        """Effective photon number N = n_th (cosh^2 R + sinh^2 R) + sinh^2 R."""
        ch, sh = np.cosh(self.R), np.sinh(self.R)
        return float(self.n_th * (ch * ch + sh * sh) + sh * sh)

    @property
    def squeezing(self) -> complex:
        """Effective squeezing M = -(2 n_th + 1) cosh(R) sinh(R) e^{i phi}."""
        return complex(-(2.0 * self.n_th + 1.0) * np.cosh(self.R) * np.sinh(self.R)
                       * np.exp(1j * self.phi))


def gamma_infinity(bath: BathParameters) -> np.ndarray:
    """Stationary 4x4 covariance: two blocks 2 [[1/2 + N + Re M, Im M],
    [Im M, 1/2 + N - Re M]], exactly symmetric and finite.  Bona fide by
    construction: each block has det 1 + 4 n_th (n_th + 1) >= 1."""
    n = bath.photon_number
    m = bath.squeezing
    l_plus, l_minus = n + m.real, n - m.real
    block = 2.0 * np.array([[0.5 + l_plus, m.imag], [m.imag, 0.5 + l_minus]])
    cov = np.zeros((4, 4))
    cov[:2, :2] = block
    cov[2:, 2:] = block
    return cov


def stationary_state(bath: BathParameters) -> GaussianState:
    """Zero-mean state at :func:`gamma_infinity`, built without a check."""
    return GaussianState._by_construction(1, 1, gamma_infinity(bath), np.zeros(4))


def relaxation_covariances(state0: GaussianState,
                           bath: BathParameters) -> Callable[[np.ndarray], np.ndarray]:
    """The map t -> cov(t): a 4x4 matrix for one time, a ``(k, 4, 4)`` stack
    for k times t >= 0 (not checked).  ``state0`` is tested bona fide here,
    once; every cov(t) is a convex combination of it and :func:`gamma_infinity`,
    so finite, exactly symmetric and bona fide, and goes to the eigensolver
    unchecked."""
    if (state0.modes_a, state0.modes_b) != (1, 1):
        raise ValidationError("evolution is defined for (1+1)-mode states")
    ensure_bona_fide(state0)
    cov_inf = gamma_infinity(bath)

    def covs_at(t) -> np.ndarray:
        w = np.exp(-bath.lam * np.asarray(t, dtype=float))[..., None, None]
        return w * state0.cov + (1.0 - w) * cov_inf

    return covs_at


def _certificate_bounds(state0: GaussianState, bath: BathParameters) -> tuple[float, float]:
    """(S, E) of the certificates of :func:`sweep` and :func:`first_passage_time`.

    S = Tr cov0 + Tr cov_inf + 2 bounds the norm of every steering matrix of
    the relaxation, and E = 1e-12 S, with ample room, the error of a computed
    lambda_min and of a computed raw j2.  The steering matrix is affine in
    w = exp(-lam t), which never grows with t, so lambda_min is concave in w
    and raw j2 convex, with minimum 0 at w = 0."""
    # Tr cov_inf = 4 (1 + 2N) (see gamma_infinity)
    scale = float(np.add.reduce(state0.cov.diagonal())) + 6.0 + 8.0 * bath.photon_number
    return scale, 1e-12 * scale


def evolve(state0: GaussianState, bath: BathParameters, t: float) -> GaussianState:
    """State at time t in [0, inf), bona fide by :func:`relaxation_covariances`."""
    t = require_number(t, "t", 0.0)
    covs_at = relaxation_covariances(state0, bath)
    return GaussianState._by_construction(1, 1, covs_at(t),
                                          np.exp(-bath.lam * t / 2.0) * state0.mean)


def _require_increasing(times: np.ndarray, name: str) -> None:
    """The time rules of a sweep grid and a Trajectory, in this order."""
    if not np.all(np.isfinite(times)):
        raise ValidationError(f"{name} must be finite")
    if not np.all(np.diff(times) > 0):
        raise ValidationError(f"{name} must be strictly increasing")


@dataclass(frozen=True, eq=False)
class Trajectory(_Record):
    """j2 decay curve and its envelope: three real 1-D arrays of one shape,
    the times finite and strictly increasing."""

    times: np.ndarray
    j2_values: np.ndarray
    bound_values: np.ndarray

    _arrays = ("times", "j2_values", "bound_values")

    def __post_init__(self):
        times, vals, bounds = (require_real(getattr(self, name), name) for name in self._arrays)
        if not (times.shape == vals.shape == bounds.shape) or times.ndim != 1:
            raise ValidationError("trajectory arrays must share one 1-D shape")
        _require_increasing(times, "times")
        self._settle(times, vals, bounds)

    def _csv_rows(self):
        """The text of :meth:`to_csv` in newline-terminated pieces: the
        header, then blocks of SWEEP_BLOCK rows."""
        yield "t,j2,bound\n"
        for start in range(0, self.times.size, SWEEP_BLOCK):
            block = np.column_stack([values[start:start + SWEEP_BLOCK] for values in
                                     (self.times, self.j2_values, self.bound_values)])
            yield ("%.17g,%.17g,%.17g\n" * len(block)) % tuple(block.ravel().tolist())

    def to_csv(self) -> str:
        """CSV with header t,j2,bound, every value at 17 significant digits."""
        return "".join(self._csv_rows())


def sweep(state0: GaussianState, bath: BathParameters, t_grid,
          tol: float = DEFAULT_PSD_TOL) -> Trajectory:
    """j2 at each time of a nonempty, finite, strictly increasing,
    nonnegative grid, with the envelope; at most SWEEP_BLOCK times per
    eigensolve, so memory stays bounded.

    Early stop: once a stack holds a time whose computed lambda_min, and that
    at t = inf, are >= 2E - tol (:func:`_certificate_bounds`), no later time
    is solved.  Concavity gives each later time exact lambda_min >= E - tol,
    so computed lambda_min >= -tol: its j2 is the +0.0 an eigensolve gives.
    """
    t_grid = require_real(t_grid, "t_grid")  # a copy: the Trajectory freezes it
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValidationError("t_grid must be a nonempty 1-D array")
    _require_increasing(t_grid, "t_grid")
    if t_grid[0] < 0:
        raise ValidationError("t_grid must be nonnegative")
    covs_at = relaxation_covariances(state0, bath)
    tol = require_number(tol, "tol", 0.0)
    bar = 2.0 * _certificate_bounds(state0, bath)[1] - tol
    n = t_grid.size
    values = np.zeros(n + 2)  # j2 at the grid times, then at t = 0 and t = inf
    start, size, ends = 0, min(PASSAGE_BLOCK, SWEEP_BLOCK), [0.0, np.inf]
    while start < n:
        stop = min(start + size, n)
        ev, _, j2_vals = _steering_spectra(covs_at(np.append(t_grid[start:stop], ends)),
                                           1, 1, tol)
        values[start:stop] = j2_vals[:stop - start]
        if ends:  # the first block
            values[n:], ends = j2_vals[-2:], []
            if ev[-1, 0] < bar:
                bar = np.inf  # lambda_min at t = inf below the bar: no time is certified
        if (ev[:stop - start, 0] >= bar).any():
            break  # every later time is certified: its j2 is the +0.0 already there
        start, size = stop, min(2 * size, SWEEP_BLOCK)
    j2_start, j2_inf = values[n:]
    w = np.exp(-bath.lam * t_grid)
    return Trajectory._by_construction(t_grid, values[:n], w * j2_start + (1.0 - w) * j2_inf)


def first_passage_time(state0, bath: BathParameters, threshold: float,
                       t_max: float, dt: float) -> float:
    """The first time of ``np.arange(0.0, t_max + dt / 2, dt)``, the grid of
    ``gsteer sweep --tmax t_max --dt dt``, with j2 (at DEFAULT_PSD_TOL) below
    ``threshold``, or inf if there is none.

    dt is in (0, inf), t_max in [0, inf) and threshold in [-inf, inf];
    t_max / dt must be at most 2**52 and t_max + PASSAGE_BLOCK dt finite.
    Once these and ``state0`` are checked, a threshold <= 0 gives inf.

    Exact search: exact raw j2 is nonincreasing in t, a computed one is
    within E of it, and the rule clamps only where raw j2 <= 8 tol S
    (:func:`_certificate_bounds`).  So a computed j2 >= max(threshold,
    8 tol S) + 2E at a grid time certifies that no time up to it is below
    threshold.  Stacks of at most ten times find the last certified index and
    a scan goes on after it: the result is the first grid time whose
    computed j2 is below threshold.
    """
    dt = require_number(dt, "dt", 0.0, ends="()")
    t_max = require_number(t_max, "t_max", 0.0)
    threshold = require_number(threshold, "threshold", -math.inf, ends="[]")
    if t_max > dt * 2**52 or math.isinf(t_max + PASSAGE_BLOCK * dt):
        raise ValidationError(
            f"t_max = {t_max} and dt = {dt} give a grid the scan cannot finish: t_max / dt "
            f"must be at most 2**52 and t_max + {PASSAGE_BLOCK} dt finite")
    covs_at = relaxation_covariances(state0, bath)
    if threshold <= 0:
        return np.inf

    def j2_at(times: np.ndarray) -> np.ndarray:
        return _steering_spectra(covs_at(times), 1, 1, DEFAULT_PSD_TOL)[2]

    scale, err = _certificate_bounds(state0, bath)
    bar = max(threshold, 8.0 * DEFAULT_PSD_TOL * scale) + 2.0 * err
    n = math.ceil((t_max + dt / 2) / dt)  # np.arange's length, without its array
    lo, hi, j2_hi = -1, n, np.inf  # lo certified (or -1), hi not (or n: none seen yet)
    while hi - lo > 1:
        parts = min(10, hi - lo - 1)
        idx = lo + (hi - 1 - lo) * np.arange(1, parts + 1) // parts
        vals = j2_at(idx * dt)
        certified = np.flatnonzero(vals >= bar)
        first = certified[-1] + 1 if certified.size else 0  # uncertified from here on
        if first:
            lo = idx[first - 1]
        if first < parts:
            hi, j2_hi = idx[first], vals[first]
    if j2_hi < threshold:
        return float(hi * dt)
    for start in range(hi + 1, n, PASSAGE_BLOCK):
        times = np.arange(start, min(start + PASSAGE_BLOCK, n)) * dt
        below = np.flatnonzero(j2_at(times) < threshold)
        if below.size:
            return float(times[below[0]])
    return np.inf
