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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DEFAULT_PSD_TOL, ValidationError
from .states import GaussianState, ensure_bona_fide
from .steering import _steering_spectra


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
    t = inf give them exactly), so it is all three too and needs no check.
    The times are not checked: the caller passes t >= 0.
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


@dataclass(frozen=True)
class Trajectory:
    """j2 decay curve with its convexity envelope at the same time points."""

    times: np.ndarray
    j2_values: np.ndarray
    bound_values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        vals = np.array(self.j2_values, dtype=float)
        bounds = np.array(self.bound_values, dtype=float)
        if not (times.shape == vals.shape == bounds.shape) or times.ndim != 1:
            raise ValidationError("trajectory arrays must share one 1-D shape")
        if times.size and np.any(np.diff(times) <= 0):
            raise ValidationError("times must be strictly increasing")
        for name, arr in (("times", times), ("j2_values", vals),
                          ("bound_values", bounds)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_csv(self) -> str:
        """CSV with header t,j2,bound at 17 significant digits."""
        lines = ["t,j2,bound"]
        for t, v, b in zip(self.times, self.j2_values, self.bound_values):
            lines.append(f"{t:.17g},{v:.17g},{b:.17g}")
        return "\n".join(lines) + "\n"


def sweep(state0: GaussianState, bath: BathParameters, t_grid,
          tol: float = DEFAULT_PSD_TOL) -> Trajectory:
    """j2 along a strictly increasing time grid, with the decay envelope.

    The covariances of all grid times, then of t = 0 and t = inf for the
    envelope's ends, form one stack, which gets one batched
    eigendecomposition and, being symmetric and finite by construction (see
    :func:`relaxation_covariances`), no structural check.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValidationError("t_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(t_grid)):
        raise ValidationError("t_grid must be finite")
    if np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be strictly increasing")
    if np.any(t_grid < 0):
        raise ValidationError("t_grid must be nonnegative")
    covs = relaxation_covariances(state0, bath)(np.append(t_grid, [0.0, np.inf]))
    values = _steering_spectra(covs, 1, 1, tol)[2]
    j2_start, j2_inf = values[-2:]
    w = np.exp(-bath.lam * t_grid)
    return Trajectory(t_grid, values[:-2], w * j2_start + (1.0 - w) * j2_inf)
