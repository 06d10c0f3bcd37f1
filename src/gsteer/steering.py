"""A-to-B unsteerability criterion and the trace-norm steering quantifications.

A state with covariance matrix G is unsteerable from A to B under Gaussian
measurements on A iff G + 0_A (+) i*Omega_B >= 0.  The two quantifications
are the trace-norm excess of that matrix over the trace of G, in ratio form

    j1 = ||G + 0_A (+) i*Omega_B||_1 / Tr(G) - 1

and in difference form

    j2 = ||G + 0_A (+) i*Omega_B||_1 - Tr(G).

Omega_B is traceless, so j2 = 2 * sum|lambda_neg| over the steering matrix's
negative eigenvalues and j1 = j2 / Tr(G); both are computed in that form from
a single eigendecomposition, with no optimization.  Means never enter: every
function here depends on the covariance matrix only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (DEFAULT_PSD_TOL, PsdReport, ValidationError, psd_within_tol,
                     require_hermitian, steering_form)
from .states import GaussianState, check_standard_form_params


def steering_matrix(state: GaussianState) -> np.ndarray:
    """cov + 0_A (+) i*Omega_B, Hermitian by construction because
    GaussianState stores a symmetric cov."""
    return state.cov + steering_form(state.modes_a, state.modes_b)


def is_unsteerable(state: GaussianState, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Tolerant PSD verdict for the steering matrix (truthy report with margin)."""
    return PsdReport.of_hermitian(steering_matrix(state), tol)


def _excess(ev: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw (j1, j2) of steering-matrix spectra ``ev`` (..., d) and covariances
    ``cov`` (..., d, d).  j2 is positive if some lambda < 0, else +0.0: the
    spectrum is never all zeros, and a positive lambda adds max(-lambda, 0) = +0.0."""
    j2_val = 2.0 * np.maximum(-ev, 0.0).sum(-1)
    return j2_val / cov.trace(axis1=-2, axis2=-1), j2_val


def _diagnose(state: GaussianState, tol: float,
              clamp: bool = True) -> tuple[PsdReport, float, float]:
    """Verdict and (j1, j2) from one eigendecomposition of the steering matrix."""
    ev = np.linalg.eigvalsh(steering_matrix(state))
    report = PsdReport.from_eigenvalues(ev, tol)
    if clamp and report.ok:
        return report, 0.0, 0.0
    j1_val, j2_val = _excess(ev, state.cov)
    return report, float(j1_val), float(j2_val)


def j_values_stack(covs: np.ndarray, modes_a: int, modes_b: int,
                   tol: float = DEFAULT_PSD_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Clamped (j1, j2) arrays, j2 = 2 * sum|lambda_neg| and j1 = j2 / Tr(cov),
    for a ``(k, d, d)`` stack of covariance matrices.

    The stack gets the structural check of :class:`GaussianState` (finite,
    symmetric) and one batched eigendecomposition, and row i equals
    ``j_values(GaussianState(modes_a, modes_b, covs[i], mean), tol)`` bit for bit.
    """
    covs = require_hermitian(np.asarray(covs, dtype=float), name="cov")
    if modes_a < 1 or modes_b < 1:
        raise ValidationError(f"mode counts must be positive, got ({modes_a}, {modes_b})")
    dim = 2 * (modes_a + modes_b)
    if covs.ndim != 3 or covs.shape[1:] != (dim, dim):
        raise ValidationError(f"covs must have shape (k, {dim}, {dim}), got {covs.shape}")
    return _j_values_of_stack(covs, modes_a, modes_b, tol)


def _j_values_of_stack(covs: np.ndarray, modes_a: int, modes_b: int,
                       tol: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`j_values_stack` without its structural check, for a
    ``(k, d, d)`` stack that is finite and exactly symmetric by construction."""
    evs = np.linalg.eigvalsh(covs + steering_form(modes_a, modes_b))
    unsteerable = psd_within_tol(evs[:, 0], evs[:, -1], tol)
    j1_vals, j2_vals = _excess(evs, covs)
    return np.where(unsteerable, 0.0, j1_vals), np.where(unsteerable, 0.0, j2_vals)


def j_values(state: GaussianState, tol: float = DEFAULT_PSD_TOL,
             clamp: bool = True) -> tuple[float, float]:
    """(j1, j2) = (j2 / Tr(cov), 2 * sum|lambda_neg|) from one
    eigendecomposition of the steering matrix.

    With clamp=True (the default) j1 and j2 are exactly 0 if and only if the
    unsteerability verdict holds at the same tol (see :func:`is_unsteerable`),
    and positive otherwise, at every tol >= 0.  Pass clamp=False for the raw
    values, which are >= 0 and positive exactly when lambda_min < 0.
    """
    _, j1_val, j2_val = _diagnose(state, tol, clamp)
    return j1_val, j2_val


def j1(state: GaussianState, tol: float = DEFAULT_PSD_TOL, clamp: bool = True) -> float:
    """Ratio-form steering quantification (nonnegative, 0 iff unsteerable)."""
    return j_values(state, tol, clamp)[0]


def j2(state: GaussianState, tol: float = DEFAULT_PSD_TOL, clamp: bool = True) -> float:
    """Difference-form steering quantification (nonnegative, 0 iff unsteerable)."""
    return j_values(state, tol, clamp)[1]


@dataclass(frozen=True)
class SteeringReport:
    """Per-state record: verdict, both quantifications, margin, tolerance."""

    unsteerable: bool
    j1: float
    j2: float
    min_eigenvalue: float
    tol_used: float

    def to_json(self) -> str:
        return json.dumps({
            "unsteerable": self.unsteerable,
            "j1": self.j1,
            "j2": self.j2,
            "min_eigenvalue": self.min_eigenvalue,
            "tol_used": self.tol_used,
        }, indent=2)


def steering_report(state: GaussianState, tol: float = DEFAULT_PSD_TOL) -> SteeringReport:
    """Full steering diagnosis from a single eigendecomposition."""
    report, j1_val, j2_val = _diagnose(state, tol)
    return SteeringReport(report.ok, j1_val, j2_val, report.min_eigenvalue, tol)


def j_closed_schmidt(modes_a: int, modes_b: int, gammas) -> tuple[float, float]:
    """Closed-form (j1, j2) for a pure state in phase-space Schmidt form.

    For mixing factors gamma_k the steering matrix has eigenvalue quadruples
    (1 + 2g +- sqrt(4g^2 - 3))/2 and (2g - 1 +- sqrt(4g^2 - 3))/2 per factor,
    plus |modes_a - modes_b| pairs from the unpaired vacuum modes, giving

        j1 = [sum_k (1 + 2g_k + sqrt(4g_k^2 - 3)) + 2|n - m|]
             / [sum_k 4g_k + 2|n - m|] - 1
        j2 = sum_k (1 - 2g_k + sqrt(4g_k^2 - 3)).
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    if gammas.shape != (min(modes_a, modes_b),):
        raise ValidationError(
            f"expected {min(modes_a, modes_b)} mixing factors, got {gammas.shape}")
    if np.any(gammas < 1.0):
        raise ValidationError("all mixing factors must be >= 1")
    root = np.sqrt(4.0 * gammas**2 - 3.0)
    pad = 2.0 * abs(modes_b - modes_a)
    num = float(np.sum(1.0 + 2.0 * gammas + root)) + pad
    den = float(np.sum(4.0 * gammas)) + pad
    j1_val = num / den - 1.0
    j2_val = float(np.sum(1.0 - 2.0 * gammas + root))
    return j1_val, j2_val


def j_closed_standard(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Closed-form (j1, j2) for (1+1)-mode standard-form states with c = |d|.

    Covers the mixed thermal (c = d) and squeezed thermal (c = -d) families:

        j1 = max(0, (1 + a + b + sqrt((a - b + 1)^2 + 4c^2)) / (2(a + b)) - 1)
        j2 = max(0, 1 + sqrt((a - b + 1)^2 + 4c^2) - (a + b))

    and both vanish iff a(b - 1) - c^2 >= 0.
    """
    if abs(c - abs(d)) > 1e-12 * max(1.0, abs(c), abs(d)):
        raise ValidationError(f"requires c = |d|, got c = {c}, d = {d}")
    check_standard_form_params(a, b, c, d)
    root = np.sqrt((a - b + 1.0) ** 2 + 4.0 * c * c)
    j1_val = max(0.0, (1.0 + a + b + root) / (2.0 * (a + b)) - 1.0)
    j2_val = max(0.0, 1.0 + root - (a + b))
    return j1_val, j2_val


def pure_family_state(r: float) -> GaussianState:
    """The r-parametrized (1+1)-mode pure family: Schmidt form with gamma = r
    (bona fide: pure, every symplectic eigenvalue is 1)."""
    if not np.isfinite(r) or r < 1.0:
        raise ValidationError(f"family parameter must be >= 1, got {r}")
    r = float(r)
    s = math.sqrt(r * r - 1.0)  # a Python float overflows to inf without a warning
    if not math.isfinite(s):
        raise ValidationError("cov contains non-finite entries")
    cov = np.array([
        [r, 0.0, s, 0.0],
        [0.0, r, 0.0, -s],
        [s, 0.0, r, 0.0],
        [0.0, -s, 0.0, r],
    ])
    return GaussianState._by_construction(1, 1, cov, np.zeros(4))


def _pure_family_covs(r: np.ndarray) -> np.ndarray:
    """The ``(k, 4, 4)`` stack of :func:`pure_family_state` covariances, entry
    for entry, for a 1-D array of r >= 1 whose squares are finite."""
    s = np.sqrt(r * r - 1.0)
    covs = np.zeros((r.size, 4, 4))
    covs[:, [0, 1, 2, 3], [0, 1, 2, 3]] = r[:, None]
    covs[:, 0, 2] = covs[:, 2, 0] = s
    covs[:, 1, 3] = covs[:, 3, 1] = -s
    return covs


def n3_upper_bound_pure(r: float) -> float:
    """Closed-form upper bound 1 - 4/(r + 3) on the fidelity-based steering
    measure for the r-parametrized pure family; zero iff r = 1."""
    if not np.isfinite(r) or r < 1.0:
        raise ValidationError(f"family parameter must be >= 1, got {r}")
    return 1.0 - 4.0 / (r + 3.0)


def n3_bound_grid(r: float, grid_density: int = 30,
                  with_argmax: bool = False):
    """Grid estimate of the fidelity-based steering bound for the r-family.

    Maximizes the overlap with standard-form states over a grid with a, b in
    [1, r + 4] and c, d in [-sqrt(ab - 1), sqrt(ab - 1)], keeping only cells
    that satisfy the standard-form constraints plus the unsteerability
    inequality (ab - c^2)(ab - d^2) >= a^2, and returns 1 - best overlap.
    Estimates from nested (refined) grids never increase.  With
    ``with_argmax`` the achieved maximizer (a, b, c, d) is returned as well,
    for diagnosing where the optimum sits; ties go to the first cell in
    (a, b, c, d) order.

    The overlap with the pure r-family state is 4 / sqrt(det(cov_r + cov)),
    whose determinant factors into two closed-form block halves.  Each pass
    of the loop evaluates one value of a over all (b, c, d) cells, so memory
    grows as grid_density**3.
    """
    if not np.isfinite(r) or r < 1.0:
        raise ValidationError(f"family parameter must be >= 1, got {r}")
    if grid_density < 2:
        raise ValidationError(f"grid_density must be >= 2, got {grid_density}")
    axis = np.linspace(1.0, r + 4.0, grid_density)
    s = np.sqrt(r * r - 1.0)
    steps = np.arange(grid_density, dtype=float)
    b = axis[:, None, None]
    best = 0.0
    argmax = None
    for a in axis:
        ab = a * axis
        cmax = np.sqrt(np.maximum(ab - 1.0, 0.0))
        # np.linspace(-cmax, cmax, grid_density) for every b, term by term;
        # at a = b = 1 (cmax = 0) every cell is the single cell c = d = 0
        grid = steps * ((cmax - -cmax) / (grid_density - 1))[:, None] - cmax[:, None]
        grid[:, -1] = cmax
        cc, dd = grid[:, :, None], grid[:, None, :]          # (b, c, 1), (b, 1, d)
        ab_c, ab_d = ab[:, None, None] - cc**2, ab[:, None, None] - dd**2
        prod = ab_c * ab_d
        rr = (r + a) * (r + b)
        det = (rr - (s + cc) ** 2) * (rr - (-s + dd) ** 2)
        ok = (
            (a * ab_c - b >= 0.0)
            & (b * ab_d - a >= 0.0)
            & (prod + 1.0 - a * a - b * b - 2.0 * cc * dd >= 0.0)
            & (prod >= a * a)
            & (det > 0.0)
        )
        overlap = np.where(ok, 4.0 / np.sqrt(np.where(ok, det, 1.0)), -np.inf)
        k = int(np.argmax(overlap))
        if overlap.flat[k] > best:
            best = float(overlap.flat[k])
            i, j, m = np.unravel_index(k, overlap.shape)
            argmax = (float(a), float(axis[i]), float(grid[i, j]), float(grid[i, m]))
    bound = max(0.0, 1.0 - best)
    if with_argmax:
        return bound, argmax
    return bound
