"""Independent, deliberately slow reference implementations for the tests.

Each one computes what a ``gsteer`` function computes by a separate route, or
by the scalar loop the library replaced with stacked evaluation, so the two
can be compared value for value.
"""

from __future__ import annotations

import numpy as np

from gsteer.dynamics import evolve, stationary_state
from gsteer.linalg import ValidationError, require_hermitian, steering_form
from gsteer.states import GaussianState
from gsteer.steering import j2, n3_upper_bound_pure, pure_family_state

# tolerance for "all symplectic eigenvalues equal 1" purity tests
PURITY_TOL = 1e-8


def real_embed(h: np.ndarray) -> np.ndarray:
    """Embed Hermitian h = A + iB as the real symmetric [[A, -B], [B, A]].

    The embedding's spectrum is the spectrum of h with every eigenvalue
    doubled in multiplicity, which gives an independent route to the complex
    eigenvalues through a purely real solver.
    """
    herm = require_hermitian(h)
    a, b = herm.real, herm.imag
    return np.block([[a, -b], [b, a]])


def jacobi_eigenvalues(mat: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Independent of the LAPACK-backed path so the two can be cross-checked;
    meant for small (<= ~32x32) matrices.
    """
    a = require_hermitian(np.array(mat, dtype=float))
    scale = max(1.0, float(np.abs(a).max()))
    n = a.shape[0]
    if n < 2:
        return np.diag(a).copy()
    for _ in range(max_sweeps):
        off = float(np.sqrt(max(0.0, (a * a).sum() - (np.diag(a) ** 2).sum())))
        if off <= 1e-14 * scale * n:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-18 * scale:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
    return np.sort(np.diag(a))


def standard_form_overlap_grid(r: float, a: float, b: float,
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


def n3_bound_grid_cells(r: float, grid_density: int):
    """``n3_bound_grid(r, grid_density, with_argmax=True)`` one (a, b) cell
    at a time, keeping the first cell that strictly beats the best so far."""
    axis = np.linspace(1.0, r + 4.0, grid_density)
    best = 0.0
    argmax = None
    for a in axis:
        for b in axis:
            cmax = np.sqrt(max(a * b - 1.0, 0.0))
            grid = np.linspace(-cmax, cmax, grid_density) if cmax > 0 else np.zeros(1)
            found = standard_form_overlap_grid(r, a, b, grid, grid)
            if found is not None and found[0] > best:
                best = found[0]
                argmax = (float(a), float(b), found[1], found[2])
    return max(0.0, 1.0 - best), argmax


def sweep_points(state0, bath, t_grid, tol: float):
    """(t, j2, bound) rows of ``sweep`` from one ``evolve`` per time point."""
    j2_start = j2(state0, tol)
    j2_inf = j2(stationary_state(bath), tol)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        w = np.exp(-bath.lam * t)
        rows.append((t, j2(evolve(state0, bath, t), tol),
                     w * j2_start + (1.0 - w) * j2_inf))
    return rows


def first_passage_scan(state0, bath, threshold: float, t_max: float, dt: float,
                       tol: float) -> float:
    """``first_passage_time`` as one ``evolve`` per accumulated grid time."""
    t = 0.0
    while t <= t_max + dt / 2:
        if j2(evolve(state0, bath, t), tol) < threshold:
            return t
        t += dt
    return np.inf


def bound_chain_scan(rs, z=n3_upper_bound_pure) -> tuple[bool, str]:
    """``verify``'s bound-chain check as one ``j2(pure_family_state(r))`` per
    r, in r order, against the closed bound ``z``."""
    for r in rs:
        z_r = z(r)
        val = j2(pure_family_state(r))
        if val - z_r < -1e-12 or (r > 1.0 + 1e-12 and val - z_r <= 1e-9):
            return False, f"violated at r = {r:.2f} (z = {z_r}, j2 = {val})"
        if r <= 1.0 + 1e-12 and abs(val - z_r) > 1e-9:
            return False, f"not equal at r = 1 (z = {z_r}, j2 = {val})"
    return True, ""


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


def standard_form_unsteerable_inequality(a: float, b: float, c: float, d: float) -> bool:
    """Unsteerability of a standard-form state as the closed inequality
    (ab - c^2)(ab - d^2) >= a^2 (A-to-B direction)."""
    ab = a * b
    return (ab - c * c) * (ab - d * d) >= a * a


def j2_initial_squeezed(r: float) -> float:
    """Closed form 1 + sqrt(4 cosh^2(2r) - 3) - 2 cosh(2r) for the squeezed
    vacuum; exactly 0 at r = 0."""
    if not np.isfinite(r) or r < 0:
        raise ValidationError(f"squeezing parameter must be >= 0, got {r}")
    ch = np.cosh(2.0 * r)
    return float(1.0 + np.sqrt(4.0 * ch * ch - 3.0) - 2.0 * ch)


def schur_complement(state: GaussianState) -> np.ndarray:
    """G_B - C^T G_A^-1 C for cov = [[G_A, C], [C^T, G_B]]: the B-side
    conditional covariance left after a Gaussian measurement on A."""
    k = 2 * state.modes_a
    g_a, c, g_b = state.cov[:k, :k], state.cov[:k, k:], state.cov[k:, k:]
    return g_b - c.T @ np.linalg.solve(g_a, c)


def schur_unsteerable_margin(state: GaussianState) -> float:
    """Margin of the Schur-complement form of the steering criterion
    (Wiseman, Jones & Doherty, PRL 98, 140402 (2007)): with G_A > 0, the
    state is unsteerable from A to B iff G_B - C^T G_A^-1 C + i*Omega_B >= 0.

    Returns lambda_min / max(1, |lambda_max|) of that 2n x 2n matrix, so the
    verdict is ``margin >= 0`` away from a rounding band around 0.
    """
    schur = schur_complement(state)
    ev = np.linalg.eigvalsh(schur + steering_form(0, state.modes_b))
    return float(ev[0] / max(1.0, abs(ev[-1])))
