"""A-to-B unsteerability criterion and the trace-norm steering quantifications.

A state with covariance matrix G is unsteerable from A to B under Gaussian
measurements on A iff G + 0_A (+) i*Omega_B >= 0.  The two quantifications
are the trace-norm excess of that matrix over the trace of G, in ratio form

    j1 = ||G + 0_A (+) i*Omega_B||_1 / Tr(G) - 1

and in difference form

    j2 = ||G + 0_A (+) i*Omega_B||_1 - Tr(G).

Both vanish exactly on unsteerable states and are computed from a single
eigendecomposition, with no optimization.  Means never enter: every function
here depends on the covariance matrix only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_PSD_TOL, PsdReport, ValidationError, steering_form
from .states import GaussianState, check_standard_form_params

# tolerance for "all symplectic eigenvalues equal 1" purity tests
PURITY_TOL = 1e-8


def steering_matrix(state: GaussianState) -> np.ndarray:
    """cov + 0_A (+) i*Omega_B, Hermitian by construction because
    GaussianState stores a symmetric cov."""
    return state.cov + steering_form(state.modes_a, state.modes_b)


def is_unsteerable(state: GaussianState, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Tolerant PSD verdict for the steering matrix (truthy report with margin)."""
    return PsdReport.of_hermitian(steering_matrix(state), tol)


def _diagnose(state: GaussianState, tol: float,
              clamp: bool = True) -> tuple[PsdReport, float, float]:
    """Verdict and (j1, j2) from one eigendecomposition of the steering matrix.

    With clamp=True both j values are exactly 0 when the verdict is
    unsteerable and positive when it is not; otherwise they are the raw
    trace-norm excesses.
    """
    ev = np.linalg.eigvalsh(steering_matrix(state))
    report = PsdReport.from_eigenvalues(ev, tol)
    if clamp and report.ok:
        return report, 0.0, 0.0
    tn = float(np.abs(ev).sum())
    tr = float(np.trace(state.cov))
    j1_val, j2_val = tn / tr - 1.0, tn - tr
    if clamp and not (j1_val > 0.0 and j2_val > 0.0):
        # at a tol near 0 a rounding-level negative eigenvalue can make the
        # verdict steerable while tn - tr rounds to <= 0; the same excess,
        # 2 * sum|negative eigenvalues|, is positive whenever one is negative
        j2_val = -2.0 * float(ev[ev < 0.0].sum())
        j1_val = j2_val / tr
    return report, j1_val, j2_val


def j_values(state: GaussianState, tol: float = DEFAULT_PSD_TOL,
             clamp: bool = True) -> tuple[float, float]:
    """(j1, j2) from one eigendecomposition of the steering matrix.

    With clamp=True (the default) j1 and j2 are exactly 0 if and only if the
    unsteerability verdict holds at the same tol (see :func:`is_unsteerable`),
    and positive otherwise, at every tol >= 0.  Pass clamp=False for the raw
    values, which rounding can leave at 0 or below for a steerable verdict.
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
    s = np.sqrt(r * r - 1.0)
    cov = np.array([
        [r, 0.0, s, 0.0],
        [0.0, r, 0.0, -s],
        [s, 0.0, r, 0.0],
        [0.0, -s, 0.0, r],
    ])
    return GaussianState(1, 1, cov, np.zeros(4))


def n3_upper_bound_pure(r: float) -> float:
    """Closed-form upper bound 1 - 4/(r + 3) on the fidelity-based steering
    measure for the r-parametrized pure family; zero iff r = 1."""
    if not np.isfinite(r) or r < 1.0:
        raise ValidationError(f"family parameter must be >= 1, got {r}")
    return 1.0 - 4.0 / (r + 3.0)


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Moduli of the eigenvalues of i*Omega*cov, sorted ascending.

    All equal to 1 exactly when the state is pure.
    """
    ev = np.linalg.eigvals(steering_form(0, state.n_modes) @ state.cov)
    return np.sort(np.abs(ev))


def pure_overlap_2mode(pure: GaussianState, other: GaussianState) -> float:
    """Overlap Tr(rho sigma) = 4 / sqrt(det(cov_p + cov_s)) for (1+1)-mode
    states with zero means, the first of which must be pure."""
    for name, st in (("first", pure), ("second", other)):
        if (st.modes_a, st.modes_b) != (1, 1):
            raise ValidationError(f"{name} state must be (1+1)-mode")
        if np.abs(st.mean).max() > 1e-12:
            raise ValidationError(f"{name} state must have zero mean")
    nu = symplectic_eigenvalues(pure)
    if np.abs(nu - 1.0).max() > PURITY_TOL:
        raise ValidationError(
            f"first state is not pure: symplectic eigenvalues {nu}")
    det = float(np.linalg.det(pure.cov + other.cov))
    if det <= 0:
        raise ValidationError(f"non-positive determinant {det} in overlap")
    return 4.0 / np.sqrt(det)


def _standard_form_overlap_grid(r: float, a: float, b: float,
                                c: np.ndarray, d: np.ndarray):
    """Best overlap of the r-family state with unsteerable standard forms on a
    (c, d) grid at fixed (a, b); closed-form block determinants.

    Returns (overlap, c, d) for the best cell, or None if no cell qualifies.
    """
    ab = a * b
    cc, dd = np.meshgrid(c, d, indexing="ij")
    s = np.sqrt(r * r - 1.0)
    det = (((r + a) * (r + b) - (s + cc) ** 2)
           * ((r + a) * (r + b) - (-s + dd) ** 2))
    ok = (
        (a * (ab - cc**2) - b >= 0.0)
        & (b * (ab - dd**2) - a >= 0.0)
        & ((ab - cc**2) * (ab - dd**2) + 1.0 - a * a - b * b - 2.0 * cc * dd >= 0.0)
        & ((ab - cc**2) * (ab - dd**2) >= a * a)
        & (det > 0.0)
    )
    if not ok.any():
        return None
    overlap = np.where(ok, 4.0 / np.sqrt(np.where(ok, det, 1.0)), -np.inf)
    i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
    return float(overlap[i, j]), float(cc[i, j]), float(dd[i, j])


def n3_bound_grid(r: float, grid_density: int = 30,
                  with_argmax: bool = False):
    """Grid estimate of the fidelity-based steering bound for the r-family.

    Maximizes the overlap with standard-form states over a grid with a, b in
    [1, r + 4] and c, d in [-sqrt(ab - 1), sqrt(ab - 1)], keeping only cells
    that satisfy the standard-form constraints plus the unsteerability
    inequality (ab - c^2)(ab - d^2) >= a^2, and returns 1 - best overlap.
    Estimates from nested (refined) grids never increase.  With
    ``with_argmax`` the achieved maximizer (a, b, c, d) is returned as well,
    for diagnosing where the optimum sits.
    """
    if not np.isfinite(r) or r < 1.0:
        raise ValidationError(f"family parameter must be >= 1, got {r}")
    if grid_density < 2:
        raise ValidationError(f"grid_density must be >= 2, got {grid_density}")
    axis = np.linspace(1.0, r + 4.0, grid_density)
    best = 0.0
    argmax = None
    for a in axis:
        for b in axis:
            cmax = np.sqrt(max(a * b - 1.0, 0.0))
            grid = np.linspace(-cmax, cmax, grid_density) if cmax > 0 else np.zeros(1)
            found = _standard_form_overlap_grid(r, a, b, grid, grid)
            if found is not None and found[0] > best:
                best = found[0]
                argmax = (float(a), float(b), found[1], found[2])
    bound = max(0.0, 1.0 - best)
    if with_argmax:
        return bound, argmax
    return bound


def standard_form_unsteerable_inequality(a: float, b: float, c: float, d: float) -> bool:
    """Unsteerability of a standard-form state as the closed inequality
    (ab - c^2)(ab - d^2) >= a^2 (A-to-B direction)."""
    ab = a * b
    return (ab - c * c) * (ab - d * d) >= a * a
