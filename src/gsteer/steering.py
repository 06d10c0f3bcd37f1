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

from .linalg import (
    DEFAULT_PSD_TOL,
    PsdReport,
    ValidationError,
    psd_spectra,
    require_count,
    require_number,
    steering_form,
)
from .states import (
    GaussianState,
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


def _raw_j2(ev: np.ndarray):
    """Raw j2 = 2 * sum max(-lambda, 0) over the last axis of spectra
    (positive if some lambda < 0, else +0.0)."""
    return 2.0 * np.add.reduce(np.maximum(-ev, 0.0), -1)  # ndarray.sum without its wrapper


def _steering_spectra(covs: np.ndarray, modes_a: int, modes_b: int, tol: float,
                      clamp: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one steering-spectrum kernel: ascending spectra, verdicts and j2
    of the steering matrices of a ``(d, d)`` covariance or a ``(..., d, d)``
    stack, finite and exactly symmetric (the caller's record, check or
    algebra guarantees it; not checked).

    The spectra and verdicts are :func:`~gsteer.linalg.psd_spectra`'s; raw
    j2 is :func:`_raw_j2`'s.  The verdict is taken even with clamp=False, so
    a bad ``tol`` is always rejected; with clamp=True j2 is 0.0 where it holds.
    """
    ev, unsteerable = psd_spectra(covs + steering_form(modes_a, modes_b), tol)
    j2_vals = _raw_j2(ev)
    if clamp:
        j2_vals = j2_vals * ~unsteerable  # +0.0 where the verdict holds
    return ev, unsteerable, j2_vals


def _state_spectra(state: GaussianState, tol: float,
                   clamp: bool = True) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The kernel on one state, with j1 = j2 / Tr(cov): (ev, ok, j1, j2),
    j1 and j2 as floats, bit for bit the row of the one-state stack.  A
    covariance whose trace, the denominator of j1, is not positive is
    rejected (a bona fide covariance has Tr(cov) >= d).

    j2 is 0.0 where the clamped verdict holds.  Otherwise, with at most two
    negative eigenvalues it is summed from the spectrum as floats: at most
    two terms max(-lambda, 0) are nonzero, and every summation order gives
    fl(t1 + t2), as addition commutes and t + 0 = t.  With three or more it
    is the stack's own :func:`_raw_j2`, whose order a plain sum need not
    follow to the last bit.
    """
    cov = state.cov
    trace = float(np.add.reduce(cov.diagonal()))  # the sum ndarray.trace takes, called directly
    if not trace > 0.0:
        raise ValidationError(f"Tr(cov) must be positive, got {trace:.6e}")
    ev, ok = psd_spectra(cov + steering_form(state.modes_a, state.modes_b), tol)
    if clamp and ok:
        return ev, ok, 0.0, 0.0
    vals = ev.tolist()  # ascending, d >= 4
    if vals[2] < 0.0:
        j2_val = float(_raw_j2(ev))
    else:  # max(0.0, x) is +0.0, never -0.0, for x = -0.0
        j2_val = 2.0 * (max(0.0, -vals[0]) + max(0.0, -vals[1]))
    return ev, ok, j2_val / trace, j2_val


def j_values(state: GaussianState, tol: float = DEFAULT_PSD_TOL,
             clamp: bool = True) -> tuple[float, float]:
    """(j1, j2) = (j2 / Tr(cov), 2 * sum|lambda_neg|) from one
    eigendecomposition of the steering matrix.

    With clamp=True (the default) j1 and j2 are exactly 0 if and only if the
    unsteerability verdict holds at the same tol (see :func:`is_unsteerable`),
    and positive otherwise, at every finite tol >= 0.  Pass clamp=False for
    the raw values, which are >= 0 and positive exactly when lambda_min < 0.
    Both equal the row of the stacked kernel bit for bit: j2 is a sum of at
    most two nonzero terms, the same float in any order, or the stack's own
    reduction.  A covariance with Tr(cov) <= 0 is rejected.
    """
    return _state_spectra(state, tol, clamp)[2:]


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
    covariance with Tr(cov) <= 0 is rejected.  ``tol_used`` is the float the
    rule reads ``tol`` as."""
    tol = require_number(tol, "tol", 0.0)
    ev, ok, j1_val, j2_val = _state_spectra(state, tol)
    return SteeringReport(bool(ok), j1_val, j2_val, float(ev[0]), tol)


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
    of :func:`~gsteer.states.standard_form_state`, bona fide test included,
    its finite-real-number rule before the c = |d| test; parameters whose
    root overflows are rejected.
    """
    a, b, c, d = (require_number(v, name, -math.inf, ends="()")
                  for v, name in zip((a, b, c, d), "abcd"))
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


def pure_family_state(r: float) -> GaussianState:
    """The r-parametrized (1+1)-mode pure family (so bona fide): the Schmidt
    form that ``squeezed_vacuum_state`` fills too, here with g, s = r,
    sqrt(r^2 - 1).  The bound chain of ``gsteer verify`` stacks it."""
    r = require_number(r, "r", 1.0)
    return _pure_pair_state(r, math.sqrt(r * r - 1.0))  # r * r overflows to inf silently


def n3_upper_bound_pure(r: float) -> float:
    """Closed-form upper bound 1 - 4/(r + 3) on the fidelity-based steering
    measure for the r-parametrized pure family; zero iff r = 1."""
    r = require_number(r, "r", 1.0)
    return 1.0 - 4.0 / (r + 3.0)


def n3_bound_grid(r: float, grid_density: int = 30) -> float:
    """Grid estimate of the fidelity-based steering bound for the r-family.

    Maximizes the overlap with standard-form states over a grid with a, b in
    [1, r + 4] and c, d in [-sqrt(ab - 1), sqrt(ab - 1)], keeping only cells
    that satisfy the standard-form constraints plus the unsteerability
    inequality (ab - c^2)(ab - d^2) >= a^2, and returns 1 - best overlap.
    Estimates from nested (refined) grids never increase.

    The overlap with the pure r-family state is 4 / sqrt(det(cov_r + cov)),
    whose determinant factors into the block halves X(a, b, c) Y(a, b, d),
    X = (r + a)(r + b) - (s + c)^2 and Y = (r + a)(r + b) - (-s + d)^2 with
    s = sqrt(r^2 - 1).  What depends on (a, b) or (a, b, c) alone is built
    once as an n^2 or n^3 array: ab, the c grid (which the d axis reuses),
    ab - c^2, X and Y, each half set to 0 where its one-sided constraint,
    a(ab - c^2) >= b or b(ab - d^2) >= a, fails, so that det > 0 fails too.
    The cells are then searched line by line, a line being the n cells d of
    one (a, b, c).  Each line's det = X Y is bounded below by |X| times the
    least nonzero |Y| of its (a, b) row (inf where X = 0 or the row has no
    nonzero Y: such a line holds only det = 0).  Lines are visited in
    increasing order of that bound, the n cheapest first and then at most
    n^2 at a time, and the search stops once no line left has a bound below
    the least admissible det found.  A visited line forms the product
    (ab - c^2)(ab - d^2), the two constraints coupling c and d, and det with
    the same expressions as a full scan.  Rounding is monotone, so
    |fl(X Y)| >= fl(|X| min|Y|): a skipped line holds no smaller admissible
    det, and the least det is exactly that of the full n^4-cell scan.
    Correctly rounded sqrt and division are monotone, so the largest
    admissible overlap is 4 / sqrt(smallest admissible det) bit for bit, and
    only that minimum is kept.  Memory grows as n^3, n = ``grid_density``,
    which must be an integer >= 2 (a bool or a float is rejected); an r
    whose largest determinant, about (2r + 4)^4, overflows (r above about
    5.8e76) is rejected.
    """
    r = require_number(r, "r", 1.0)
    grid_density = require_count(grid_density, "grid_density", 2)
    edge = 2.0 * r + 4.0  # det of the largest cell, a = b = r + 4, is ~ edge^4
    if not math.isfinite(edge * edge * edge * edge):
        raise ValidationError(f"the grid's determinant overflows at r = {r}")
    axis = np.linspace(1.0, r + 4.0, grid_density)
    s = np.sqrt(r * r - 1.0)
    steps = np.arange(grid_density, dtype=float)
    # (a, b) and (a, b, c) arrays; the d axis reuses the c grid
    ab = axis[:, None] * axis
    cmax = np.sqrt(np.maximum(ab - 1.0, 0.0))
    # np.linspace(-cmax, cmax, grid_density) for every (a, b), term by term;
    # at a = b = 1 (cmax = 0) every cell is the single cell c = d = 0
    grid = steps * ((cmax - -cmax) / (grid_density - 1))[..., None] - cmax[..., None]
    grid[..., -1] = cmax
    ab_c = ab[..., None] - grid**2
    a3, b3 = axis[:, None, None], axis[:, None]
    rr = ((r + axis)[:, None] * (r + axis))[..., None]
    # a det half is 0 where its one-sided constraint fails, so det > 0 fails too
    x_half = np.where(a3 * ab_c - b3 >= 0.0, rr - (s + grid) ** 2, 0.0)
    y_half = np.where(b3 * ab_c - a3 >= 0.0, rr - (-s + grid) ** 2, 0.0)
    # the bound of line (a, b, c): |X| times the least nonzero |Y| of row
    # (a, b); inf where X = 0 or no Y is nonzero, as the line holds only det = 0
    y_min = np.where(y_half != 0.0, np.abs(y_half), math.inf).min(axis=-1)
    bound = (np.where(x_half != 0.0, np.abs(x_half), math.inf) * y_min[..., None]).ravel()
    n = grid_density
    # rows (a, b) of the d axis; line k lies in row k // n at c = k % n
    ab_c, grid, x_half, y_half = (v.reshape(n * n, n) for v in (ab_c, grid, x_half, y_half))
    sq = axis * axis
    least = math.inf
    lines = np.argpartition(bound, n - 1)[:n]  # a first chunk: the n cheapest lines
    while lines.size:
        row, c = np.divmod(lines, n)
        a_sq, b_sq = sq[row // n, None], sq[row % n, None]
        prod = ab_c[row, c, None] * ab_c[row]
        coupled = prod + 1.0  # prod + 1 - a^2 - b^2 - 2cd, in that order
        coupled -= a_sq
        coupled -= b_sq
        coupled -= (2.0 * grid[row, c, None]) * grid[row]
        det = x_half[row, c, None] * y_half[row]
        ok = (coupled >= 0.0) & (prod >= a_sq) & (det > 0.0)
        least = float(np.minimum.reduce(det, None, where=ok, initial=least))
        bound[lines] = math.inf  # visited
        lines = np.flatnonzero(bound < least)
        if lines.size > n * n:  # the next chunk: the n^2 cheapest lines left
            lines = lines[np.argpartition(bound[lines], n * n - 1)[:n * n]]
    return max(0.0, 1.0 - 4.0 / math.sqrt(least))
