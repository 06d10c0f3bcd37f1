"""The A-to-B unsteerability criterion and the trace-norm quantifications.

A state of covariance G is unsteerable from A to B by Gaussian measurements
iff G + 0_A (+) i*Omega_B >= 0.  With T = ||G + 0_A (+) i*Omega_B||_1,
j1 = T / Tr(G) - 1 and j2 = T - Tr(G); Omega_B is traceless, so
j2 = 2 * sum|lambda_neg| and j1 = j2 / Tr(G), from one eigendecomposition.
Means never enter.
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
    """cov + 0_A (+) i*Omega_B, Hermitian because the record's cov is symmetric."""
    return state.cov + steering_form(state.modes_a, state.modes_b)


def is_unsteerable(state: GaussianState, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """The tolerance rule's report on the steering matrix: the criterion at ``tol``."""
    return PsdReport.of_hermitian(steering_matrix(state), tol)


def _raw_j2(ev: np.ndarray):
    """Raw j2 = 2 * sum max(-lambda, 0) over the last axis of spectra."""
    return 2.0 * np.add.reduce(np.maximum(-ev, 0.0), -1)  # ndarray.sum without its wrapper


def _steering_spectra(covs: np.ndarray, modes_a: int, modes_b: int, tol: float,
                      clamp: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one steering-spectrum kernel: spectra, verdicts and j2 of the
    steering matrices of a finite, symmetric (not checked) ``(d, d)``
    covariance or ``(..., d, d)`` stack.  The verdict is taken even with
    clamp=False, so a bad ``tol`` is always rejected; with clamp=True j2 is
    +0.0 where it holds."""
    ev, unsteerable = psd_spectra(covs + steering_form(modes_a, modes_b), tol)
    j2_vals = _raw_j2(ev)
    if clamp:
        j2_vals = j2_vals * ~unsteerable  # +0.0 where the verdict holds
    return ev, unsteerable, j2_vals


def _state_spectra(state: GaussianState, tol: float,
                   clamp: bool = True) -> tuple[np.ndarray, np.ndarray, float, float]:
    """The kernel on one state: (ev, ok, j1, j2), j1 = j2 / Tr(cov), both
    floats equal to the one-state stack's bit for bit (a sum of at most two
    nonzero terms is the same in any order; three or more take the stack's
    own reduction).  A covariance with Tr(cov) <= 0 is rejected."""
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
    """(j1, j2) from one eigendecomposition of the steering matrix.  With
    clamp=True both are exactly 0 iff :func:`is_unsteerable` holds at the
    same ``tol``, else positive; clamp=False gives the raw values, positive
    exactly when lambda_min < 0.  Tr(cov) <= 0 raises "Tr(cov) must be
    positive, got ..."."""
    return _state_spectra(state, tol, clamp)[2:]


def j1(state: GaussianState, tol: float = DEFAULT_PSD_TOL, clamp: bool = True) -> float:
    """j1 of :func:`j_values`."""
    return j_values(state, tol, clamp)[0]


def j2(state: GaussianState, tol: float = DEFAULT_PSD_TOL, clamp: bool = True) -> float:
    """j2 of :func:`j_values`."""
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
    """The verdict, j1, j2 and lambda_min of :func:`j_values`'s one
    eigendecomposition; ``tol_used`` is the float the rule reads."""
    tol = require_number(tol, "tol", 0.0)
    ev, ok, j1_val, j2_val = _state_spectra(state, tol)
    return SteeringReport(bool(ok), j1_val, j2_val, float(ev[0]), tol)


def j_closed_schmidt(modes_a: int, modes_b: int, gammas) -> tuple[float, float]:
    """Closed-form (j1, j2) of :func:`~gsteer.states.schmidt_pure_state`:
    j2 = sum_k (1 - 3 / (2 g_k + sqrt(4 g_k^2 - 3))), the cancellation-free
    form of sum_k (1 - 2 g_k + sqrt(4 g_k^2 - 3)), and
    j1 = j2 / (sum_k 4 g_k + 2 |modes_a - modes_b|)."""
    modes_a, modes_b, gammas = _schmidt_factors(modes_a, modes_b, gammas)
    root = 2.0 * np.sqrt(gammas**2 - 0.75)
    j2_val = float(np.sum(1.0 - 3.0 / (2.0 * gammas + root)))
    trace = float(np.sum(4.0 * gammas)) + 2.0 * abs(modes_b - modes_a)
    return j2_val / trace, j2_val


def j_closed_standard(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Closed-form (j1, j2) of :func:`~gsteer.states.standard_form_state`
    with c = |d|, tested between its number rule and its bona fide test:
    with root = sqrt((a - b + 1)^2 + 4c^2), which must not overflow,
    j2 = max(0, 1 + root - (a + b)) and j1 = max(0, (1 + a + b + root) /
    (2(a + b)) - 1); both vanish iff a(b - 1) >= c^2."""
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
    """The pure r-family, r in [1, inf): ``_pure_pair_state`` with g, s = r,
    sqrt(r^2 - 1), built without a check."""
    r = require_number(r, "r", 1.0)
    return _pure_pair_state(r, math.sqrt(r * r - 1.0))  # r * r overflows to inf silently


def n3_upper_bound_pure(r: float) -> float:
    """Closed-form upper bound 1 - 4/(r + 3) on the fidelity-based steering
    measure for the r-parametrized pure family; zero iff r = 1."""
    r = require_number(r, "r", 1.0)
    return 1.0 - 4.0 / (r + 3.0)


def n3_bound_grid(r: float, grid_density: int = 30) -> float:
    """1 - the largest overlap 4 / sqrt(det(cov_r + cov)) of
    ``pure_family_state(r)`` with the grid's standard-form cells that pass
    the standard-form constraints and (ab - c^2)(ab - d^2) >= a^2: a, b in
    [1, r + 4] and c, d in [-sqrt(ab - 1), sqrt(ab - 1)],
    ``grid_density`` (an integer >= 2) points each.  An r whose largest det,
    about (2r + 4)^4, overflows is rejected.  Memory grows as grid_density^3.

    Exact pruning: det = X(a, b, c) Y(a, b, d) and rounding is monotone, so
    fl(|X| min|Y|) bounds every det of a line of d from below; skipping the
    lines whose bound is not below the least admissible det found leaves
    that least det, and so the result, equal to a full scan's bit for bit.
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
