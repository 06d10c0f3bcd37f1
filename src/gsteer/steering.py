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
from dataclasses import dataclass, fields

import numpy as np

from .linalg import DEFAULT_PSD_TOL, PsdReport, ValidationError, psd_spectra, steering_form
from .states import (
    GaussianState,
    _is_integer,
    _pure_pair_state,
    _schmidt_factors,
    standard_form_state,
)


def steering_matrix(state: GaussianState) -> np.ndarray:
    """cov + 0_A (+) i*Omega_B, Hermitian by construction because
    GaussianState stores a symmetric cov."""
    return state.cov + steering_form(state.modes_a, state.modes_b)


def is_unsteerable(state: GaussianState, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Tolerant PSD verdict for the steering matrix (truthy report with margin)."""
    return PsdReport.of_hermitian(steering_matrix(state), tol)


def _steering_spectra(covs: np.ndarray, modes_a: int, modes_b: int, tol: float,
                      clamp: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one steering-spectrum kernel: ascending spectra, verdicts and j2
    of the steering matrices of a ``(d, d)`` covariance or a ``(..., d, d)``
    stack, finite and exactly symmetric (the caller's record, check or
    algebra guarantees it; not checked).

    The spectra and verdicts are :func:`~gsteer.linalg.psd_spectra`'s; raw
    j2 = 2 * sum max(-lambda, 0) (positive if some lambda < 0, else +0.0).
    The verdict is taken even with clamp=False, so a bad ``tol`` is always
    rejected; with clamp=True j2 is 0.0 where it holds.
    """
    ev, unsteerable = psd_spectra(covs + steering_form(modes_a, modes_b), tol)
    j2_vals = 2.0 * np.maximum(-ev, 0.0).sum(-1)
    if clamp:
        j2_vals = j2_vals * ~unsteerable  # +0.0 where the verdict holds
    return ev, unsteerable, j2_vals


def _state_spectra(state: GaussianState, tol: float,
                   clamp: bool = True) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The kernel on one state, with j1 = j2 / Tr(cov): (ev, ok, j1, j2).
    A covariance whose trace, the denominator of j1, is not positive is
    rejected (a bona fide covariance has Tr(cov) >= d)."""
    trace = state.cov.trace()
    if not trace > 0.0:
        raise ValidationError(f"Tr(cov) must be positive, got {trace:.6e}")
    ev, ok, j2_val = _steering_spectra(state.cov, state.modes_a, state.modes_b, tol, clamp)
    return ev, ok, j2_val / trace, j2_val


def j_values(state: GaussianState, tol: float = DEFAULT_PSD_TOL,
             clamp: bool = True) -> tuple[float, float]:
    """(j1, j2) = (j2 / Tr(cov), 2 * sum|lambda_neg|) from one
    eigendecomposition of the steering matrix.

    With clamp=True (the default) j1 and j2 are exactly 0 if and only if the
    unsteerability verdict holds at the same tol (see :func:`is_unsteerable`),
    and positive otherwise, at every finite tol >= 0.  Pass clamp=False for
    the raw values, which are >= 0 and positive exactly when lambda_min < 0.
    A covariance with Tr(cov) <= 0 is rejected.
    """
    j1_val, j2_val = _state_spectra(state, tol, clamp)[2:]
    return float(j1_val), float(j2_val)


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
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)


def steering_report(state: GaussianState, tol: float = DEFAULT_PSD_TOL) -> SteeringReport:
    """Full steering diagnosis from a single eigendecomposition; a
    covariance with Tr(cov) <= 0 is rejected."""
    ev, ok, j1_val, j2_val = _state_spectra(state, tol)
    return SteeringReport(bool(ok), float(j1_val), float(j2_val), float(ev[0]), tol)


def j_closed_schmidt(modes_a: int, modes_b: int, gammas) -> tuple[float, float]:
    """Closed-form (j1, j2) for a pure state in phase-space Schmidt form.

    For mixing factors gamma_k the steering matrix has eigenvalue quadruples
    (1 + 2g +- sqrt(4g^2 - 3))/2 and (2g - 1 +- sqrt(4g^2 - 3))/2 per factor,
    plus |modes_a - modes_b| pairs from the unpaired vacuum modes, giving

        j2 = sum_k (1 - 2g_k + sqrt(4g_k^2 - 3)) = sum_k (1 - 3 / (2g_k + root_k))
        j1 = j2 / Tr(cov) = j2 / (sum_k 4g_k + 2|n - m|)

    with root_k = 2 sqrt(g_k^2 - 0.75), bit-equal to sqrt(4g_k^2 - 3).  The
    second form of j2 has no cancellation, so it tends to 1 per factor as g_k
    grows.  Factors whose squares overflow are rejected.
    """
    modes_a, modes_b, gammas = _schmidt_factors(modes_a, modes_b, gammas)
    root = 2.0 * np.sqrt(gammas**2 - 0.75)
    j2_val = float(np.sum(1.0 - 3.0 / (2.0 * gammas + root)))
    trace = float(np.sum(4.0 * gammas)) + 2.0 * abs(modes_b - modes_a)
    return j2_val / trace, j2_val


def j_closed_standard(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Closed-form (j1, j2) for (1+1)-mode standard-form states with c = |d|.

    Covers the mixed thermal (c = d) and squeezed thermal (c = -d) families:

        j1 = max(0, (1 + a + b + sqrt((a - b + 1)^2 + 4c^2)) / (2(a + b)) - 1)
        j2 = max(0, 1 + sqrt((a - b + 1)^2 + 4c^2) - (a + b))

    and both vanish iff a(b - 1) - c^2 >= 0.  The parameters get every check
    of :func:`~gsteer.states.standard_form_state`, bona fide test included;
    parameters whose root overflows are rejected.
    """
    if abs(c - abs(d)) > 1e-12 * max(1.0, abs(c), abs(d)):
        raise ValidationError(f"requires c = |d|, got c = {c}, d = {d}")
    standard_form_state(a, b, c, d)
    with np.errstate(over="ignore"):
        root = np.sqrt(np.float64(a - b + 1.0) ** 2 + 4.0 * c * c)
    if not np.isfinite(root):
        raise ValidationError(
            f"sqrt((a - b + 1)^2 + 4c^2) overflows at a = {a}, b = {b}, c = {c}")
    j1_val = max(0.0, (1.0 + a + b + root) / (2.0 * (a + b)) - 1.0)
    j2_val = max(0.0, 1.0 + root - (a + b))
    return float(j1_val), float(j2_val)


def _check_family_parameter(r: float) -> None:
    if not np.isfinite(r) or r < 1.0:
        raise ValidationError(f"family parameter must be >= 1, got {r}")


def pure_family_state(r: float) -> GaussianState:
    """The r-parametrized (1+1)-mode pure family (so bona fide): the Schmidt
    form that ``squeezed_vacuum_state`` fills too, here with g, s = r,
    sqrt(r^2 - 1).  The bound chain of ``gsteer verify`` stacks it."""
    _check_family_parameter(r)
    r = float(r)
    return _pure_pair_state(r, math.sqrt(r * r - 1.0))  # r * r overflows to inf silently


def n3_upper_bound_pure(r: float) -> float:
    """Closed-form upper bound 1 - 4/(r + 3) on the fidelity-based steering
    measure for the r-parametrized pure family; zero iff r = 1."""
    _check_family_parameter(r)
    return 1.0 - 4.0 / (r + 3.0)


def n3_bound_grid(r: float, grid_density: int = 30) -> float:
    """Grid estimate of the fidelity-based steering bound for the r-family.

    Maximizes the overlap with standard-form states over a grid with a, b in
    [1, r + 4] and c, d in [-sqrt(ab - 1), sqrt(ab - 1)], keeping only cells
    that satisfy the standard-form constraints plus the unsteerability
    inequality (ab - c^2)(ab - d^2) >= a^2, and returns 1 - best overlap.
    Estimates from nested (refined) grids never increase.

    The overlap with the pure r-family state is 4 / sqrt(det(cov_r + cov)),
    whose determinant factors into two closed-form block halves.  Each pass
    of the loop evaluates one value of a over all (b, c, d) cells, so memory
    grows as grid_density**3.  ``grid_density`` must be an integer >= 2 (a
    bool or a float is rejected), and an r whose largest determinant,
    about (2r + 4)^4, overflows (r above about 5.8e76) is rejected.
    """
    _check_family_parameter(r)
    if not _is_integer(grid_density) or grid_density < 2:
        raise ValidationError(f"grid_density must be an integer >= 2, got {grid_density!r}")
    edge = 2.0 * float(r) + 4.0  # det of the largest cell, a = b = r + 4, is ~ edge^4
    if not math.isfinite(edge * edge * edge * edge):
        raise ValidationError(f"the grid's determinant overflows at r = {r}")
    axis = np.linspace(1.0, r + 4.0, grid_density)
    s = np.sqrt(r * r - 1.0)
    steps = np.arange(grid_density, dtype=float)
    b = axis[:, None, None]
    best = 0.0
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
        best = max(best, float(overlap.max()))
    return max(0.0, 1.0 - best)
