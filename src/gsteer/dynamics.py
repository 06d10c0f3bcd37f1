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

from .linalg import DEFAULT_PSD_TOL, PsdReport, ValidationError, steering_form
from .states import GaussianState, ensure_bona_fide
from .steering import j2


@dataclass(frozen=True)
class BathParameters:
    """Markovian bath: thermal photon number, squeezing (magnitude, phase),
    and overall damping rate (inverse time units)."""

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
        # |M|^2 <= N(N+1) holds identically for this parametrization
        n, m = self.photon_number, self.squeezing
        if abs(m) ** 2 > n * (n + 1.0) + 1e-9 * max(1.0, n * (n + 1.0)):
            raise ValidationError(
                f"bath squeezing violates |M|^2 <= N(N+1): |M|^2 = {abs(m)**2}, "
                f"N(N+1) = {n * (n + 1.0)}")

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


def gamma_infinity(bath: BathParameters, tol: float = DEFAULT_PSD_TOL) -> np.ndarray:
    """Stationary 4x4 covariance matrix: two identical single-mode squeezed
    thermal blocks 2 [[1/2 + L+, M_I], [M_I, 1/2 + L-]] with L+- = N +- Re M."""
    n = bath.photon_number
    m = bath.squeezing
    l_plus, l_minus = n + m.real, n - m.real
    block = 2.0 * np.array([[0.5 + l_plus, m.imag], [m.imag, 0.5 + l_minus]])
    cov = np.zeros((4, 4))
    cov[:2, :2] = block
    cov[2:, 2:] = block
    rep = PsdReport.of_hermitian(cov + steering_form(0, 2), tol)
    if not rep.ok:
        raise ValidationError(
            f"stationary covariance is not bona fide (min eigenvalue "
            f"{rep.min_eigenvalue:.6e}); bath parameters are inconsistent")
    return cov


def stationary_state(bath: BathParameters, tol: float = DEFAULT_PSD_TOL) -> GaussianState:
    """Zero-mean state at the stationary covariance (bona fide: gamma_infinity tests it)."""
    return GaussianState(1, 1, gamma_infinity(bath, tol), np.zeros(4))


def relaxation(state0: GaussianState, bath: BathParameters,
               tol: float = DEFAULT_PSD_TOL) -> Callable[[float], GaussianState]:
    """The map t -> state at time t >= 0 under the closed-form relaxation.

    ``state0`` and the stationary covariance are validated here, once.  Every
    state the map returns has a convex combination of these two bona fide
    covariances, so it is bona fide by construction and is built without
    re-validation; only t is checked.
    """
    if (state0.modes_a, state0.modes_b) != (1, 1):
        raise ValidationError("evolution is defined for (1+1)-mode states")
    ensure_bona_fide(state0, tol)
    cov_inf = gamma_infinity(bath, tol)

    def state_at(t: float) -> GaussianState:
        if not np.isfinite(t) or t < 0:
            raise ValidationError(f"time must be >= 0, got {t}")
        w = np.exp(-bath.lam * t)
        return GaussianState(1, 1, w * state0.cov + (1.0 - w) * cov_inf,
                             np.exp(-bath.lam * t / 2.0) * state0.mean)

    return state_at


def evolve(state0: GaussianState, bath: BathParameters, t: float,
           tol: float = DEFAULT_PSD_TOL) -> GaussianState:
    """State at time t >= 0 under the closed-form relaxation."""
    return relaxation(state0, bath, tol)(t)


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
    """j2 along a strictly increasing time grid, with the decay envelope."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValidationError("t_grid must be a nonempty 1-D array")
    if np.any(np.diff(t_grid) <= 0):
        raise ValidationError("t_grid must be strictly increasing")
    if np.any(t_grid < 0):
        raise ValidationError("t_grid must be nonnegative")
    state_at = relaxation(state0, bath, tol)
    j2_start = j2(state0, tol)
    j2_inf = j2(stationary_state(bath, tol), tol)
    values = np.empty(t_grid.size)
    bounds = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        values[i] = j2(state_at(t), tol)
        w = np.exp(-bath.lam * t)
        bounds[i] = w * j2_start + (1.0 - w) * j2_inf
    return Trajectory(t_grid, values, bounds)


def j2_initial_squeezed(r: float) -> float:
    """Closed form 1 + sqrt(4 cosh^2(2r) - 3) - 2 cosh(2r) for the squeezed
    vacuum; exactly 0 at r = 0."""
    if not np.isfinite(r) or r < 0:
        raise ValidationError(f"squeezing parameter must be >= 0, got {r}")
    ch = np.cosh(2.0 * r)
    return float(1.0 + np.sqrt(4.0 * ch * ch - 3.0) - 2.0 * ch)
