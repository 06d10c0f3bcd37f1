"""Closed-form Markovian evolution of (1+1)-mode covariance matrices.

Both modes couple identically to a squeezed thermal bath with damping rate
``lam``, so the covariance matrix relaxes exponentially toward a stationary
product state:

    cov(t) = exp(-lam t) cov(0) + (1 - exp(-lam t)) cov_inf.

First moments decay as exp(-lam t / 2); the steering quantities ignore them.
Convexity of j2 over covariance mixing gives the decay envelope

    j2(t) <= exp(-lam t) j2(0) + (1 - exp(-lam t)) j2(inf)

evaluated alongside every sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DEFAULT_PSD_TOL, ValidationError, require_real
from .states import GaussianState, _Record, ensure_bona_fide
from .steering import _steering_spectra

SWEEP_BLOCK = 1024  # sweep's times per eigendecomposition, which bounds its memory
PASSAGE_BLOCK = 128  # first_passage_time's grid times per eigendecomposition


@dataclass(frozen=True)
class BathParameters:
    """Markovian bath: thermal photon number, squeezing (magnitude, phase),
    and overall damping rate (inverse time units).  Parameters whose
    stationary covariance overflows (a large R or n_th) are rejected."""

    n_th: float
    R: float
    phi: float
    lam: float

    def __post_init__(self):
        if not np.isfinite(self.n_th) or self.n_th < 0:
            raise ValidationError(f"n_th must be >= 0, got {self.n_th}")
        for name in ("R", "phi"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not np.isfinite(self.lam) or self.lam <= 0:
            raise ValidationError(f"lam must be positive, got {self.lam}")
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
    """Stationary 4x4 covariance matrix: two identical single-mode squeezed
    thermal blocks 2 [[1/2 + L+, M_I], [M_I, 1/2 + L-]] with L+- = N +- Re M.

    Bona fide by construction: each block has det = (1 + 2N)^2 - 4|M|^2
    = 1 + 4 n_th (n_th + 1) >= 1, since N(N+1) - |M|^2 = n_th (n_th + 1).
    Exactly symmetric, and finite for every bath that BathParameters accepts."""
    n = bath.photon_number
    m = bath.squeezing
    l_plus, l_minus = n + m.real, n - m.real
    block = 2.0 * np.array([[0.5 + l_plus, m.imag], [m.imag, 0.5 + l_minus]])
    cov = np.zeros((4, 4))
    cov[:2, :2] = block
    cov[2:, 2:] = block
    return cov


def stationary_state(bath: BathParameters) -> GaussianState:
    """Zero-mean state at the stationary covariance (bona fide: see gamma_infinity)."""
    return GaussianState._by_construction(1, 1, gamma_infinity(bath), np.zeros(4))


def relaxation_covariances(state0: GaussianState,
                           bath: BathParameters) -> Callable[[np.ndarray], np.ndarray]:
    """The map from times t to the covariances cov(t) of the closed-form
    relaxation: a 4x4 matrix for one time, a ``(k, 4, 4)`` stack for k times.

    ``state0`` is validated here, once; the stationary covariance is bona fide
    by construction.  Every covariance the map returns is a convex combination
    of these two finite, exactly symmetric, bona fide covariances (t = 0 and
    t = inf give them exactly), so it is all three too: the stacks of
    :func:`sweep` and :func:`first_passage_time` go to the eigensolver with
    no structural check.  The times are not checked: the caller passes t >= 0.
    """
    if (state0.modes_a, state0.modes_b) != (1, 1):
        raise ValidationError("evolution is defined for (1+1)-mode states")
    ensure_bona_fide(state0)
    cov_inf = gamma_infinity(bath)

    def covs_at(t) -> np.ndarray:
        w = np.exp(-bath.lam * np.asarray(t, dtype=float))[..., None, None]
        return w * state0.cov + (1.0 - w) * cov_inf

    return covs_at


def evolve(state0: GaussianState, bath: BathParameters, t: float) -> GaussianState:
    """State at time t >= 0 under the closed-form relaxation (bona fide by
    convexity, see :func:`relaxation_covariances`)."""
    covs_at = relaxation_covariances(state0, bath)
    if not np.isfinite(t) or t < 0:
        raise ValidationError(f"time must be >= 0, got {t}")
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
    """j2 decay curve with its convexity envelope at the same time points."""

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
        """The lines of :meth:`to_csv`, newline-terminated, one at a time."""
        yield "t,j2,bound\n"
        for t, v, b in zip(self.times, self.j2_values, self.bound_values):
            yield f"{t:.17g},{v:.17g},{b:.17g}\n"

    def to_csv(self) -> str:
        """CSV with header t,j2,bound at 17 significant digits."""
        return "".join(self._csv_rows())


def sweep(state0: GaussianState, bath: BathParameters, t_grid,
          tol: float = DEFAULT_PSD_TOL) -> Trajectory:
    """j2 along a strictly increasing time grid, with the decay envelope.

    The grid times are evaluated in blocks of SWEEP_BLOCK times, one batched
    eigendecomposition each, so memory stays bounded however long the grid;
    t = 0 and t = inf, the envelope's ends, are the tail of the last block.
    A grid of up to SWEEP_BLOCK times is one block.
    """
    t_grid = require_real(t_grid, "t_grid")  # a copy: the Trajectory freezes it
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValidationError("t_grid must be a nonempty 1-D array")
    _require_increasing(t_grid, "t_grid")
    if t_grid[0] < 0:
        raise ValidationError("t_grid must be nonnegative")
    covs_at = relaxation_covariances(state0, bath)
    n = t_grid.size
    values = np.empty(n + 2)
    for start in range(0, n, SWEEP_BLOCK):
        times = t_grid[start:start + SWEEP_BLOCK]
        if start + SWEEP_BLOCK >= n:
            times = np.append(times, [0.0, np.inf])
        values[start:start + times.size] = _steering_spectra(covs_at(times), 1, 1, tol)[2]
    j2_start, j2_inf = values[n:]
    w = np.exp(-bath.lam * t_grid)
    return Trajectory._by_construction(t_grid, values[:n], w * j2_start + (1.0 - w) * j2_inf)


def first_passage_time(state0, bath: BathParameters, threshold: float,
                       t_max: float, dt: float) -> float:
    """First time on the grid 0, dt, 2 dt, ... (accumulated, up to t_max)
    with j2 (at DEFAULT_PSD_TOL) below threshold, or inf if there is none; dt
    must be finite and positive, t_max finite and nonnegative, threshold not NaN.
    A grid the scan could not finish is rejected: past t_max / dt = 2**52 a
    step t + dt can round back to t, and no grid time may overflow to inf.

    The grid is scanned in blocks of PASSAGE_BLOCK times, one batched
    eigendecomposition per block, so an early passage stops after its block.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise ValidationError(f"dt must be finite and positive, got {dt}")
    if not np.isfinite(t_max) or t_max < 0:
        raise ValidationError(f"t_max must be finite and nonnegative, got {t_max}")
    t_max, dt = float(t_max), float(dt)
    if t_max > dt * 2**52 or math.isinf(t_max + PASSAGE_BLOCK * dt):
        raise ValidationError(
            f"t_max = {t_max} and dt = {dt} give a grid the scan cannot finish: t_max / dt "
            f"must be at most 2**52 and t_max + {PASSAGE_BLOCK} dt finite")
    if np.isnan(threshold):
        raise ValidationError("threshold must not be NaN")
    covs_at = relaxation_covariances(state0, bath)
    t, t_end = 0.0, t_max + dt / 2
    steps = np.full(PASSAGE_BLOCK, dt)
    while t <= t_end:
        steps[0] = t
        times = np.add.accumulate(steps)
        times = times[times <= t_end]
        j2_vals = _steering_spectra(covs_at(times), 1, 1, DEFAULT_PSD_TOL)[2]
        below = np.flatnonzero(j2_vals < threshold)
        if below.size:
            return float(times[below[0]])
        t = times[-1] + dt
    return np.inf
