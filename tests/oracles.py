"""Independent, deliberately slow reference implementations for the tests.

Each one computes what a ``gsteer`` function computes by a separate route, or
by the scalar loop the library replaced with stacked evaluation, so the two
can be compared value for value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.linalg

from gsteer import channels, verify
from gsteer.channels import (
    GaussianChannel,
    SampleReport,
    SamplingAbortError,
    _direct_sum,
    apply,
    is_unsteerable_channel,
    is_valid_gaussian,
    random_unsteerable_channel,
    sample_verify,
)
from gsteer.dynamics import evolve, stationary_state
from gsteer.linalg import (
    ValidationError,
    _orthogonal_from_normals,
    _orthogonal_symplectic_from_normals,
    steering_form,
    symplectic_exp,
    symplectic_form,
)
from gsteer.states import (
    GaussianState,
    _check_mode_counts,
    mix_covariances,
    random_state,
    validate_state,
)
from gsteer.steering import is_unsteerable, j2, j_values, n3_upper_bound_pure, pure_family_state

# tolerance for "all symplectic eigenvalues equal 1" purity tests
PURITY_TOL = 1e-8


def random_orthogonal(dim: int, rng) -> np.ndarray:
    """Random orthogonal matrix via QR of one ``(dim, dim)`` Gaussian draw."""
    rng = np.random.default_rng(rng)
    return _orthogonal_from_normals(rng.standard_normal((dim, dim)))


def random_orthogonal_symplectic(n_modes: int, rng) -> np.ndarray:
    """Random element of O(2n) intersected with Sp(2n, R) from two ``(n, n)``
    Gaussian draws, the real part first."""
    rng = np.random.default_rng(rng)
    re = rng.standard_normal((n_modes, n_modes))
    return _orthogonal_symplectic_from_normals(re, rng.standard_normal((n_modes, n_modes)))


def random_local_channel(modes_a: int, modes_b: int, rng) -> GaussianChannel:
    """The random A-side x B-side channel of ``verify.local_channel_trials``
    from one trial's draws, built from the engine's own draw and array
    helpers without a check: M_A is a Gram matrix, and M_B a Gram matrix plus
    the shift that certifies K_B."""
    modes_a, modes_b = _check_mode_counts(modes_a, modes_b)
    draws = verify._local_channel_draws(modes_a, modes_b, np.random.default_rng(rng))
    k, m = verify._local_channel_arrays(modes_a, modes_b, *draws)
    return GaussianChannel._by_construction(modes_a, modes_b, k, m, np.zeros(len(k)))


def random_psd(dim: int, rng) -> np.ndarray:
    """The random PSD matrix of the ``verify`` engines' channels from one
    ``(dim, dim)`` standard normal draw."""
    return verify._gram(rng.standard_normal((dim, dim)))


def random_symplectic(n_modes: int, rng, scale: float = 1.0) -> np.ndarray:
    """exp(Omega H) for random symmetric H with entries uniform in [-scale, scale]."""
    rng = np.random.default_rng(rng)
    return symplectic_exp(n_modes, rng.uniform(-scale, scale, (2 * n_modes, 2 * n_modes)))


def real_embed(h: np.ndarray) -> np.ndarray:
    """Embed Hermitian h = A + iB as the real symmetric [[A, -B], [B, A]].

    The embedding's spectrum is the spectrum of h with every eigenvalue
    doubled in multiplicity, which gives an independent route to the complex
    eigenvalues through a purely real solver.
    """
    herm = (h + np.conj(h).T) / 2.0
    a, b = herm.real, herm.imag
    return np.block([[a, -b], [b, a]])


def trace_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a (near-)Hermitian matrix; equals
    trace(h) exactly when h is PSD."""
    return float(np.abs(np.linalg.eigvalsh((h + np.conj(h).T) / 2.0)).sum())


def jacobi_eigenvalues(mat: np.ndarray, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Independent of the LAPACK-backed path so the two can be cross-checked;
    meant for small (<= ~32x32) matrices.
    """
    a = np.array(mat, dtype=float)
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValidationError("jacobi_eigenvalues needs a symmetric matrix")
    a = (a + a.T) / 2.0
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


def _standard_form_cells(r: float, a: float, b: float, c: np.ndarray, d: np.ndarray):
    """(cc, dd, det, ok) on the (c, d) grid at fixed (a, b): the closed-form
    block determinant det(cov_r + cov) of each standard form and whether the
    cell is an admissible (unsteerable, det > 0) standard form."""
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
    return cc, dd, det, ok


def standard_form_overlap_grid(r: float, a: float, b: float,
                               c: np.ndarray, d: np.ndarray):
    """Best overlap of the r-family state with unsteerable standard forms on a
    (c, d) grid at fixed (a, b); closed-form block determinants.

    Returns (overlap, c, d) for the best cell, or None if no cell qualifies.
    """
    cc, dd, det, ok = _standard_form_cells(r, a, b, c, d)
    if not ok.any():
        return None
    overlap = np.where(ok, 4.0 / np.sqrt(np.where(ok, det, 1.0)), -np.inf)
    i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
    return float(overlap[i, j]), float(cc[i, j]), float(dd[i, j])


def n3_grid_lines(r: float, grid_density: int):
    """Per line (a, b, c) of the ``n3_bound_grid`` grid, in (a, b, c) order:
    the line's search bound and its least admissible det (inf if none).

    The bound is |X| times the least nonzero |Y| over the (a, b) row, with
    X = (r + a)(r + b) - (s + c)^2 set to 0 where a(ab - c^2) >= b fails and
    Y = (r + a)(r + b) - (-s + d)^2 set to 0 where b(ab - d^2) >= a fails;
    it is inf where X = 0 or no Y is nonzero.  Both arrays have n^3 entries.
    """
    axis = np.linspace(1.0, r + 4.0, grid_density)
    s = np.sqrt(r * r - 1.0)
    bounds, leasts = [], []
    for a in axis:
        for b in axis:
            ab = a * b
            cmax = np.sqrt(max(ab - 1.0, 0.0))
            grid = np.linspace(-cmax, cmax, grid_density)
            rr = (r + a) * (r + b)
            x = np.where(a * (ab - grid**2) - b >= 0.0, rr - (s + grid) ** 2, 0.0)
            y = np.abs(np.where(b * (ab - grid**2) - a >= 0.0, rr - (-s + grid) ** 2, 0.0))
            y_min = y[y != 0.0].min(initial=math.inf)
            bounds.append(np.where(x != 0.0, np.abs(x), math.inf) * y_min)
            _, _, det, ok = _standard_form_cells(r, a, b, grid, grid)
            leasts.append(np.where(ok, det, math.inf).min(axis=1))
    return np.concatenate(bounds), np.concatenate(leasts)


def n3_bound_grid_cells(r: float, grid_density: int):
    """``n3_bound_grid(r, grid_density)`` and the maximizer (a, b, c, d) it
    reaches, one (a, b) cell at a time, keeping the first cell that strictly
    beats the best so far."""
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
    """``first_passage_time`` as one ``evolve`` per time of its grid, the
    array ``np.arange`` builds."""
    for t in np.arange(0.0, t_max + dt / 2, dt):
        if j2(evolve(state0, bath, t), tol) < threshold:
            return float(t)
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


STANDARD_FORM_INEQUALITIES = (
    "a >= 1",
    "b >= 1",
    "a(ab - c^2) - b >= 0",
    "b(ab - d^2) - a >= 0",
    "(ab - c^2)(ab - d^2) + 1 - a^2 - b^2 - 2cd >= 0",
)


def standard_form_violations(a: float, b: float, c: float, d: float) -> list[str]:
    """The names of the closed-form bona fide inequalities of the (1+1)-mode
    standard form [[a,0,c,0],[0,a,0,d],[c,0,b,0],[0,d,0,b]] that fail, with
    no slack: a route to cov + i*Omega >= 0 that needs no eigensolver."""
    ab = a * b
    values = (a - 1.0, b - 1.0, a * (ab - c * c) - b, b * (ab - d * d) - a,
              (ab - c * c) * (ab - d * d) + 1.0 - a * a - b * b - 2.0 * c * d)
    return [name for name, value in zip(STANDARD_FORM_INEQUALITIES, values) if not value >= 0.0]


def exact_psd(h: np.ndarray) -> bool:
    """Whether the Hermitian matrix h is PSD, decided exactly.

    Every float is a dyadic rational, so the entries of h are exact.  LDL^T
    with diagonal pivoting runs in ``fractions.Fraction`` on the real
    embedding [[A, -B], [B, A]] of h = A + iB (PSD iff h is): the largest
    remaining diagonal entry is the pivot; a negative pivot means not PSD,
    and a zero pivot requires the whole remaining block to be zero.  No
    eigensolver, no tolerance.
    """
    m = [[Fraction(x) for x in row] for row in real_embed(h).tolist()]
    active = list(range(len(m)))
    while active:
        p = max(active, key=lambda i: m[i][i])
        pivot = m[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            return all(m[i][j] == 0 for i in active for j in active)
        active.remove(p)
        row = m[p]
        for i in active:
            if row[i]:
                factor = row[i] / pivot
                target = m[i]
                for j in active:
                    target[j] -= factor * row[j]
    return True


def thermal_standard_form(r: float, n_th: float, lam: float, t: float) -> tuple[float, float]:
    """(a, c) of the squeezed vacuum of parameter r relaxed for a time t in a
    thermal bath (R = 0): cov(t) stays in standard form with a = b =
    w cosh 2r + (1 - w)(2 n_th + 1) and c = -d = w sinh 2r, w = exp(-lam t)."""
    w = math.exp(-lam * t)
    return w * math.cosh(2.0 * r) + (1.0 - w) * (2.0 * n_th + 1.0), w * math.sinh(2.0 * r)


def thermal_death_time(r: float, n_th: float, lam: float) -> float:
    """The time t* > 0 at which steering of the relaxing squeezed vacuum of
    :func:`thermal_standard_form` dies: the root w* in (0, 1) of
    a(a - 1) = c^2, a quadratic in w, and t* = -ln(w*) / lam.  At n_th = 0,
    w* = 1/2 for every r > 0."""
    ch, sh, m = math.cosh(2.0 * r), math.sinh(2.0 * r), 2.0 * n_th + 1.0
    x = ch - m
    # a = m + w x and c = w sh: (x^2 - sh^2) w^2 + x (2m - 1) w + m (m - 1) = 0
    roots = np.roots([x * x - sh * sh, x * (2.0 * m - 1.0), m * (m - 1.0)])
    (w_star,) = [w.real for w in roots if w.imag == 0.0 and 0.0 < w.real < 1.0]
    return -math.log(w_star) / lam


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


def random_cov(modes_a: int, modes_b: int, max_sympl_eigen: float, rng) -> np.ndarray:
    """One random covariance drawn by separate calls, as ``random_state`` drew
    it before the stacked sampler: nu by ``rng.uniform``, then H by
    ``rng.uniform``, S = expm(Omega H), and S diag(nu) S^T through an explicit
    diagonal matrix."""
    n = modes_a + modes_b
    nu = rng.uniform(1.0, max_sympl_eigen, n)
    h = rng.uniform(-1.0, 1.0, (2 * n, 2 * n))
    sympl = scipy.linalg.expm(symplectic_form(n) @ ((h + h.T) / 2.0))
    cov = sympl @ np.diag(np.repeat(nu, 2)) @ sympl.T
    return (cov + cov.T) / 2.0


def sample_verify_loop(ch: GaussianChannel, n_samples: int, rng,
                       predicate: str = "bona-fide", max_sympl_eigen: float = 5.0,
                       tol: float = 1e-8) -> SampleReport:
    """``channels.sample_verify`` as a loop over single samples: draw (and,
    for unsteerable-preserving, redraw until unsteerable), apply the channel
    to one state, take one ``PsdReport`` and fold its margin in."""
    rng = np.random.default_rng(rng)
    dim = 2 * ch.n_modes
    draws = violations = 0
    worst = np.inf
    margin_sum = 0.0
    first_counterexample = None
    for _ in range(n_samples):
        while True:
            draws += 1
            if draws > channels.MAX_OVERSAMPLING * n_samples:
                raise SamplingAbortError(
                    f"rejection sampling exceeded {channels.MAX_OVERSAMPLING}x oversampling "
                    f"({draws} draws for {predicate!r}); the input distribution "
                    f"rarely satisfies the predicate's precondition")
            state = GaussianState(ch.modes_a, ch.modes_b,
                                  random_cov(ch.modes_a, ch.modes_b, max_sympl_eigen, rng),
                                  np.zeros(dim))
            if predicate == "bona-fide" or is_unsteerable(state, tol).ok:
                break
        cov = ch.K @ state.cov @ ch.K.T + ch.M
        out = GaussianState(ch.modes_a, ch.modes_b, (cov + cov.T) / 2.0, np.zeros(dim))
        rep = validate_state(out, tol) if predicate == "bona-fide" \
            else is_unsteerable(out, tol)
        margin = rep.margin
        worst = min(worst, margin)
        margin_sum += margin
        if not rep.ok:
            violations += 1
            if first_counterexample is None:
                first_counterexample = state
    return SampleReport(predicate, n_samples, violations, float(worst),
                        margin_sum / n_samples, draws, first_counterexample)


# The seven property engines of ``gsteer.verify`` as loops over single
# trials, each trial single draws and single-matrix checks (a preservation
# trial: one channel, its certificates and one ``sample_verify`` input),
# counted by ``_count_loop``; the knobs are read from ``verify`` and
# ``channels`` at call time, so a test that patches them patches both.

def _count_loop(n_trials: int, rng, violated) -> int:
    """Run trials i = 0, ..., n_trials - 1 as ``violated(i, rng)`` on one
    Generator and count those that report a violation."""
    rng = np.random.default_rng(rng)
    return sum(1 for i in range(n_trials) if violated(i, rng))


def faithfulness_trials_loop(modes_a: int, modes_b: int, n_trials: int, rng) -> int:
    """``verify.faithfulness_trials`` one state at a time."""
    def violated(i, rng):
        s = random_state(modes_a, modes_b, verify.FAITHFULNESS_VMAX, rng)
        j1_val, j2_val = j_values(s)
        verdict = bool(is_unsteerable(s).ok)
        return not ((j1_val == 0.0) == (j2_val == 0.0) == verdict)
    return _count_loop(n_trials, rng, violated)


def local_symplectic_trials_loop(n_trials: int, rng) -> int:
    """``verify.local_symplectic_trials`` one trial, and one redraw, at a time."""
    def violated(i, rng):
        while True:
            s = random_state(1, 1, 2.0, rng)
            rep = is_unsteerable(s, verify.TRIAL_TOL)
            if abs(rep.margin) > verify.MARGIN_FLOOR:
                break
        k = _direct_sum(random_symplectic(1, rng, scale=0.5),
                        random_symplectic(1, rng, scale=0.5))
        ch = GaussianChannel._by_construction(1, 1, k, np.zeros((4, 4)), np.zeros(4))
        out = apply(ch, s)
        return bool(is_unsteerable(out, verify.TRIAL_TOL).ok) != bool(rep.ok)
    return _count_loop(n_trials, rng, violated)


def mixture_bound_trials_loop(n_trials: int, rng) -> int:
    """``verify.mixture_bound_trials`` one mix at a time."""
    def violated(i, rng):
        s1 = random_state(1, 1, 3.0, rng)
        s2 = random_state(1, 1, 3.0, rng)
        p1 = float(rng.random())
        mix = mix_covariances(s1, s2, p1)
        j1_mix, j2_mix = j_values(mix, clamp=False)
        j1_a, j2_a = j_values(s1, clamp=False)
        j1_b, j2_b = j_values(s2, clamp=False)
        return (j2_mix > p1 * j2_a + (1.0 - p1) * j2_b + verify.TRIAL_SLACK
                or j1_mix > j1_a + j1_b + 1.0 + verify.TRIAL_SLACK)
    return _count_loop(n_trials, rng, violated)


def orthogonal_monotonicity_trials_loop(n_trials: int, rng) -> int:
    """``verify.orthogonal_monotonicity_trials`` one channel at a time."""
    def violated(i, rng):
        modes_a, modes_b = verify._partition(i)
        s = random_state(modes_a, modes_b, 2.0, rng)
        da, db = 2 * modes_a, 2 * modes_b
        k = _direct_sum(random_orthogonal(da, rng), random_orthogonal_symplectic(modes_b, rng))
        m = _direct_sum(random_psd(da, rng), random_psd(db, rng))
        ch = GaussianChannel._by_construction(modes_a, modes_b, k, m, np.zeros(da + db))
        out = apply(ch, s)
        j1_in, j2_in = j_values(s, clamp=False)
        j1_out, j2_out = j_values(out, clamp=False)
        return (j1_out > j1_in + verify.TRIAL_SLACK
                or j2_out > j2_in + verify.TRIAL_SLACK)
    return _count_loop(n_trials, rng, violated)


def _preservation_trials_loop(n_trials: int, rng, draw_channel, *certificates) -> int:
    """A preservation engine of ``verify`` one trial at a time: the channel
    ``draw_channel(i, rng)``, each of ``certificates`` at TRIAL_TOL (a failed
    one is a violation, and no input is drawn), then one unsteerable input
    of ``sample_verify``."""
    def violated(i, rng):
        ch = draw_channel(i, rng)
        return (not all(cert(ch, verify.TRIAL_TOL).ok for cert in certificates)
                or sample_verify(ch, 1, rng, "unsteerable-preserving", verify.PRESERVATION_VMAX,
                                 verify.TRIAL_TOL).violations > 0)
    return _count_loop(n_trials, rng, violated)


def upward_closure_trials_loop(n_trials: int, rng) -> int:
    """``verify.upward_closure_trials`` one additive-noise channel at a time."""
    return _preservation_trials_loop(n_trials, rng, lambda i, rng: GaussianChannel._by_construction(
        1, 1, np.eye(4), random_psd(4, rng), np.zeros(4)))


def local_channel_trials_loop(n_trials: int, rng) -> int:
    """``verify.local_channel_trials`` one local channel at a time."""
    return _preservation_trials_loop(
        n_trials, rng, lambda i, rng: random_local_channel(1, 1, rng),
        is_unsteerable_channel)


def certified_channel_trials_loop(n_trials: int, rng) -> int:
    """``verify.certified_channel_trials`` one certified channel at a time."""
    return _preservation_trials_loop(
        n_trials, rng, lambda i, rng: random_unsteerable_channel(*verify._partition(i), rng),
        is_unsteerable_channel, is_valid_gaussian)
