"""Named regression and property checks replayed by the ``verify`` command.

Two suites: ``paper`` replays the numeric regressions (fixture channels and
states with known verdicts, the closed-form bound chain, decay curves, the
fidelity-bound grid); ``properties`` runs the randomized trial suites behind
the structural guarantees (faithfulness, upward closure, channel classes,
mixture bounds, monotonicity).  Every check reports expected vs got with its
tolerance so failures are directly actionable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fixtures
from .channels import (
    CHANNEL_SLACK,
    GaussianChannel,
    apply,
    certificate_matrix,
    is_unsteerable_channel,
    is_valid_gaussian,
    random_unsteerable_channel,
    sample_verify,
    side_a_channel,
    side_b_channel,
    tensor_local,
)
from .dynamics import BathParameters, relaxation_covariances, sweep
from .linalg import (
    DEFAULT_PSD_TOL,
    ValidationError,
    hermitian_eigenvalues,
    random_orthogonal,
    random_orthogonal_symplectic,
    random_symplectic,
    steering_form,
    trace_norm,
)
from .states import GaussianState, mix_covariances, random_state, squeezed_vacuum_state
from .steering import (
    _j_values_of_stack,
    _pure_family_covs,
    is_unsteerable,
    j2,
    j_values,
    n3_bound_grid,
    n3_upper_bound_pure,
    pure_family_state,
    steering_matrix,
    steering_report,
)

DEFAULT_SEED = 7
# fixed knobs of the randomized trial engines: tolerances, spectrum edge, slack
FAITHFULNESS_TOL = 1e-9
FAITHFULNESS_VMAX = 2.0
TRIAL_TOL = 1e-8
MARGIN_FLOOR = 1e-4
TRIAL_SLACK = 1e-9
# grid times per batched eigendecomposition in first_passage_time
PASSAGE_BLOCK = 128


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    got: str
    tolerance: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: expected {self.expected}, "
                f"got {self.got}, tolerance {self.tolerance}")


# ---------------------------------------------------------------------------
# randomized trial engines (shared with the test suite)

def _random_unsteerable(modes_a, modes_b, rng):
    while True:
        s = random_state(modes_a, modes_b, 5.0, rng)
        if is_unsteerable(s, TRIAL_TOL).ok:
            return s


def _random_psd(dim, rng, scale=0.5):
    w = rng.standard_normal((dim, dim)) * scale
    return w @ w.T


def faithfulness_trials(modes_a: int, modes_b: int, n_trials: int, rng) -> int:
    """Count states where (j1 == 0), (j2 == 0) and the PSD verdict disagree."""
    rng = np.random.default_rng(rng)
    violations = 0
    for _ in range(n_trials):
        s = random_state(modes_a, modes_b, FAITHFULNESS_VMAX, rng)
        j1_val, j2_val = j_values(s, FAITHFULNESS_TOL)
        verdict = bool(is_unsteerable(s, FAITHFULNESS_TOL).ok)
        if not ((j1_val == 0.0) == (j2_val == 0.0) == verdict):
            violations += 1
    return violations


def upward_closure_trials(n_trials: int, rng) -> int:
    """Adding a PSD matrix to an unsteerable covariance must stay unsteerable
    (the sum is bona fide, so it is built without a test)."""
    rng = np.random.default_rng(rng)
    violations = 0
    for _ in range(n_trials):
        s = _random_unsteerable(1, 1, rng)
        bigger = GaussianState(1, 1, s.cov + _random_psd(s.dim, rng), s.mean)
        if not is_unsteerable(bigger, TRIAL_TOL).ok:
            violations += 1
    return violations


def _random_side_a(modes: int, rng) -> GaussianChannel:
    dim = 2 * modes
    return side_a_channel(rng.uniform(-1.0, 1.0, (dim, dim)), _random_psd(dim, rng))


def local_channel_trials(n_trials: int, rng) -> int:
    """Tensor products of valid local channels: certified unsteerable and
    empirically unsteerability-preserving."""
    rng = np.random.default_rng(rng)
    violations = 0
    for _ in range(n_trials):
        ch = random_local_channel(1, 1, rng)
        if not is_unsteerable_channel(ch, TRIAL_TOL).ok:
            violations += 1
            continue
        s = _random_unsteerable(1, 1, rng)
        out = apply(ch, s, enforce=False)
        if not is_unsteerable(out, TRIAL_TOL).ok:
            violations += 1
    return violations


def random_local_channel(modes_a: int, modes_b: int, rng) -> GaussianChannel:
    """Random A-side x B-side channel satisfying both side conditions."""
    rng = np.random.default_rng(rng)
    ch_a = _random_side_a(modes_a, rng)
    dim_b = 2 * modes_b
    k_b = rng.uniform(-1.0, 1.0, (dim_b, dim_b))
    omega = steering_form(0, modes_b)
    part = certificate_matrix(k_b, 0.0, omega, omega)
    alpha = max(0.0, -float(np.linalg.eigvalsh(part)[0]))
    m_b = _random_psd(dim_b, rng) + (alpha + CHANNEL_SLACK) * np.eye(dim_b)
    ch_b = side_b_channel(k_b, m_b)
    return tensor_local(ch_a, ch_b)


def certified_channel_trials(n_trials: int, rng) -> int:
    """Channels passing the unsteerable certificate keep unsteerable states
    unsteerable; partitions alternate between (1+1) and (1+2)."""
    rng = np.random.default_rng(rng)
    violations = 0
    for i in range(n_trials):
        modes_a, modes_b = (1, 1) if i % 2 == 0 else (1, 2)
        ch = random_unsteerable_channel(modes_a, modes_b, rng)
        if not (is_unsteerable_channel(ch, TRIAL_TOL).ok
                and is_valid_gaussian(ch, TRIAL_TOL).ok):
            violations += 1
            continue
        s = _random_unsteerable(modes_a, modes_b, rng)
        if not is_unsteerable(apply(ch, s, enforce=False), TRIAL_TOL).ok:
            violations += 1
    return violations


def local_symplectic_trials(n_trials: int, rng) -> int:
    """Local symplectic conjugation preserves the unsteerable verdict.

    States whose steering-matrix margin sits within MARGIN_FLOOR of the
    boundary (relative) are redrawn: congruence preserves eigenvalue signs
    but not their size, so the tolerant verdict is only meaningful away from
    the boundary.
    """
    rng = np.random.default_rng(rng)
    violations = 0
    for _ in range(n_trials):
        while True:
            s = random_state(1, 1, 2.0, rng)
            rep = is_unsteerable(s, TRIAL_TOL)
            if abs(rep.min_eigenvalue) > MARGIN_FLOOR * max(1.0, abs(rep.max_eigenvalue)):
                break
        k = np.zeros((4, 4))
        k[:2, :2] = random_symplectic(1, rng, scale=0.5)
        k[2:, 2:] = random_symplectic(1, rng, scale=0.5)
        ch = GaussianChannel(1, 1, k, np.zeros((4, 4)), np.zeros(4))
        out = apply(ch, s, enforce=False)
        if bool(is_unsteerable(out, TRIAL_TOL).ok) != bool(rep.ok):
            violations += 1
    return violations


def mixture_bound_trials(n_trials: int, rng) -> int:
    """Raw j2 is convex and raw j1 subadditive-plus-one over covariance mixing."""
    rng = np.random.default_rng(rng)
    violations = 0
    for _ in range(n_trials):
        s1 = random_state(1, 1, 3.0, rng)
        s2 = random_state(1, 1, 3.0, rng)
        p1 = float(rng.random())
        mix = mix_covariances(s1, s2, p1)
        j1_mix, j2_mix = j_values(mix, clamp=False)
        j1_a, j2_a = j_values(s1, clamp=False)
        j1_b, j2_b = j_values(s2, clamp=False)
        if j2_mix > p1 * j2_a + (1.0 - p1) * j2_b + TRIAL_SLACK:
            violations += 1
        elif j1_mix > j1_a + j1_b + 1.0 + TRIAL_SLACK:
            violations += 1
    return violations


def orthogonal_monotonicity_trials(n_trials: int, rng) -> int:
    """j1 and j2 never increase under K_A orthogonal, K_B orthogonal
    symplectic, with arbitrary PSD local noise."""
    rng = np.random.default_rng(rng)
    violations = 0
    for i in range(n_trials):
        modes_a, modes_b = (1, 1) if i % 2 == 0 else (1, 2)
        s = random_state(modes_a, modes_b, 2.0, rng)
        da, db = 2 * modes_a, 2 * modes_b
        k = np.zeros((da + db, da + db))
        k[:da, :da] = random_orthogonal(da, rng)
        k[da:, da:] = random_orthogonal_symplectic(modes_b, rng)
        m = np.zeros_like(k)
        m[:da, :da] = _random_psd(da, rng)
        m[da:, da:] = _random_psd(db, rng)
        ch = GaussianChannel(modes_a, modes_b, k, m, np.zeros(da + db))
        out = apply(ch, s, enforce=False)
        j1_in, j2_in = j_values(s, clamp=False)
        j1_out, j2_out = j_values(out, clamp=False)
        if j1_out > j1_in + TRIAL_SLACK or j2_out > j2_in + TRIAL_SLACK:
            violations += 1
    return violations


def first_passage_time(state0, bath: BathParameters, threshold: float,
                       t_max: float, dt: float, tol: float = DEFAULT_PSD_TOL) -> float:
    """First time on the grid 0, dt, 2 dt, ... (accumulated, up to t_max)
    with j2 below threshold, or inf if there is none; dt must be finite and
    positive, t_max finite and nonnegative, threshold not NaN.

    The grid is scanned in blocks of PASSAGE_BLOCK times, one batched
    eigendecomposition per block, so an early passage stops after its block.
    The blocks are symmetric and finite by construction (see
    :func:`relaxation_covariances`) and get no structural check.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise ValidationError(f"dt must be finite and positive, got {dt}")
    if not np.isfinite(t_max) or t_max < 0:
        raise ValidationError(f"t_max must be finite and nonnegative, got {t_max}")
    if np.isnan(threshold):
        raise ValidationError("threshold must not be NaN")
    covs_at = relaxation_covariances(state0, bath)
    t, t_end = 0.0, t_max + dt / 2
    while t <= t_end:
        times = []
        while t <= t_end and len(times) < PASSAGE_BLOCK:
            times.append(t)
            t += dt
        below = np.flatnonzero(_j_values_of_stack(covs_at(times), 1, 1, tol)[1] < threshold)
        if below.size:
            return times[below[0]]
    return np.inf


# ---------------------------------------------------------------------------
# named checks

def _count_check(name: str, violations: int, n_trials: int, tol_text: str) -> CheckResult:
    return CheckResult(name, violations == 0, "0 violations",
                       f"{violations} violations in {n_trials} trials", tol_text)


def _bound_chain(rs: np.ndarray) -> tuple[bool, str]:
    """Whether z(r) <= j2(r) holds on the pure family at every r of ``rs``,
    strictly for r > 1 and with equality at r = 1; else the first failure in
    r order, described.  j2 comes from one batched eigendecomposition of the
    family's covariance stack, which is symmetric and finite by construction."""
    j2_vals = _j_values_of_stack(_pure_family_covs(rs), 1, 1, DEFAULT_PSD_TOL)[1]
    for r, val in zip(rs, j2_vals.tolist()):
        z = n3_upper_bound_pure(r)
        if val - z < -1e-12 or (r > 1.0 + 1e-12 and val - z <= 1e-9):
            return False, f"violated at r = {r:.2f} (z = {z}, j2 = {val})"
        if r <= 1.0 + 1e-12 and abs(val - z) > 1e-9:
            return False, f"not equal at r = 1 (z = {z}, j2 = {val})"
    return True, ""


def paper_suite(seed: int = DEFAULT_SEED, mc_samples: int = 10000,
                grid_density: int = 30) -> list[CheckResult]:
    results: list[CheckResult] = []

    # shear witness regression: j2 grows from ~0.0148 to ~0.0152
    state = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
    shear = fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)
    j2_in = j2(state)
    j2_out = j2(apply(shear, state))
    results.append(CheckResult("shear-witness-j2-input", abs(j2_in - 0.0148) <= 5e-4,
                               "0.0148", f"{j2_in:.6f}", "5e-4"))
    results.append(CheckResult("shear-witness-j2-output", abs(j2_out - 0.0152) <= 5e-4,
                               "0.0152", f"{j2_out:.6f}", "5e-4"))
    results.append(CheckResult("shear-witness-j2-increases", j2_out > j2_in,
                               "j2 output > j2 input", f"{j2_out:.6f} vs {j2_in:.6f}",
                               "strict"))

    # faithfulness on the tolerance band: the verdict and j1 = j2 = 0 agree
    band = fixtures.load_state(fixtures.STATE_TOLERANCE_BAND_WITNESS)
    rep = steering_report(band)
    verdict = bool(is_unsteerable(band).ok)
    faithful = (rep.unsteerable == verdict == (rep.j1 == 0.0) == (rep.j2 == 0.0)
                and j_values(band) == (rep.j1, rep.j2))
    results.append(CheckResult("tolerance-band-witness-faithful", faithful,
                               "unsteerable == (j1 == 0) == (j2 == 0)",
                               f"unsteerable={verdict}, j1={rep.j1:.6e}, j2={rep.j2:.6e}, "
                               f"min eigenvalue {rep.min_eigenvalue:.6e}", "1e-9"))

    # certificate sign regressions for the two non-certified channels
    ch1 = fixtures.load_channel(fixtures.CHANNEL_NONCERT_BONAFIDE)
    ch2 = fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)
    v1 = is_valid_gaussian(ch1)
    results.append(CheckResult("noncert-bonafide-validity-sign",
                               v1.min_eigenvalue < 0, "min eigenvalue < 0",
                               f"{v1.min_eigenvalue:.6e}", "sign"))
    v2 = is_valid_gaussian(ch2)
    results.append(CheckResult("noncert-unsteerable-validity-sign",
                               v2.min_eigenvalue >= -1e-9, "min eigenvalue >= -1e-9",
                               f"{v2.min_eigenvalue:.6e}", "1e-9"))
    u2 = is_unsteerable_channel(ch2)
    results.append(CheckResult("noncert-unsteerable-certificate-sign",
                               u2.min_eigenvalue < 0, "min eigenvalue < 0",
                               f"{u2.min_eigenvalue:.6e}", "sign"))

    # closed-form eigenvalues of the pure-family steering matrix at gamma = 2
    root13 = np.sqrt(13.0)
    expected = np.sort([(5.0 + root13) / 2, (5.0 - root13) / 2,
                        (3.0 + root13) / 2, (3.0 - root13) / 2])
    got = hermitian_eigenvalues(steering_matrix(pure_family_state(2.0)))
    results.append(CheckResult("pure-family-eigenvalues",
                               bool(np.abs(got - expected).max() <= 1e-10),
                               np.array2string(expected, precision=6),
                               np.array2string(got, precision=6), "1e-10"))
    tn = trace_norm(steering_matrix(pure_family_state(1.0)))
    results.append(CheckResult("pure-family-trace-norm-unsteerable",
                               abs(tn - 4.0) <= 1e-12, "4", f"{tn:.15f}", "1e-12"))

    # bound chain: closed bound <= j2 on the pure family, equality only at r=1
    chain_ok, detail = _bound_chain(np.arange(1.0, 10.0 + 1e-12, 0.01))
    results.append(CheckResult("bound-chain-pure-family", chain_ok,
                               "z(r) <= j2(r), equality only at r=1",
                               detail or "holds on r in [1, 10] step 0.01", "1e-9"))

    # Monte-Carlo falsification checks for the two non-certified channels
    rep1 = sample_verify(ch1, mc_samples, seed, "bona-fide")
    results.append(_count_check("mc-bonafide-preserved", rep1.violations,
                                mc_samples, "1e-8"))
    rep2 = sample_verify(ch2, mc_samples, seed + 1, "unsteerable-preserving")
    results.append(_count_check("mc-unsteerable-preserved", rep2.violations,
                                mc_samples, "1e-8"))

    # decay curves: monotone nonincreasing j2, terminal < 1e-3, envelope holds
    start = squeezed_vacuum_state(1.0)
    t_grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
    for phi in (10.0, 20.0, 30.0):
        bath = BathParameters(0.0, 1.0, phi, 0.1)
        traj = sweep(start, bath, t_grid)
        mono = bool(np.all(np.diff(traj.j2_values) <= 1e-12))
        final_ok = traj.j2_values[-1] < 1e-3
        envelope = bool(np.all(traj.j2_values <= traj.bound_values + 1e-9))
        results.append(CheckResult(
            f"decay-monotone-phi{phi:g}", mono and final_ok and envelope,
            "nonincreasing, final < 1e-3, within envelope",
            f"monotone={mono}, final={traj.j2_values[-1]:.2e}, envelope={envelope}",
            "1e-9"))

    # first-passage orderings: stronger bath squeezing / heat acts faster
    passages_r = [first_passage_time(start, BathParameters(0.0, rr, 0.0, 0.1),
                                     0.01, 10.0, 0.001) for rr in (2.0, 3.0, 5.0)]
    results.append(CheckResult("decay-ordering-bath-squeezing",
                               passages_r[0] > passages_r[1] > passages_r[2],
                               "first passage decreasing in R",
                               str(passages_r), "grid 1e-3"))
    passages_n = [first_passage_time(start, BathParameters(nth, 0.5, 0.0, 0.1),
                                     0.01, 10.0, 0.001) for nth in (10.0, 20.0, 30.0)]
    results.append(CheckResult("decay-ordering-thermal-number",
                               passages_n[0] > passages_n[1] > passages_n[2],
                               "first passage decreasing in n_th",
                               str(passages_n), "grid 1e-3"))

    # fidelity-bound grid estimates against the closed bound ordering
    v1_grid = n3_bound_grid(1.0, grid_density)
    results.append(CheckResult("fidelity-grid-r1", v1_grid <= 1e-3,
                               "<= 1e-3", f"{v1_grid:.6e}", "1e-3"))
    for r in (2.0, 3.0, 5.0):
        v = n3_bound_grid(r, grid_density)
        ok = 0.0 <= v <= j2(pure_family_state(r)) + 1e-6
        results.append(CheckResult(f"fidelity-grid-r{r:g}", ok,
                                   f"0 <= value <= j2({r:g}) + 1e-6",
                                   f"{v:.6f} (j2 = {j2(pure_family_state(r)):.6f}, "
                                   f"z = {n3_upper_bound_pure(r):.6f})", "1e-6"))
    return results


def properties_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    trials = 1000  # per randomized check
    short = partial(np.format_float_scientific, trim="-", exp_digits=1)  # "1e-9"
    clamp, tol = f"clamp {short(FAITHFULNESS_TOL)}", short(TRIAL_TOL)
    slack = f"slack {short(TRIAL_SLACK)}"
    checks = (("faithfulness-1p1", faithfulness_trials, (1, 1), clamp),
              ("faithfulness-1p2", faithfulness_trials, (1, 2), clamp),
              ("upward-closure", upward_closure_trials, (), tol),
              ("local-channels-unsteerable", local_channel_trials, (), tol),
              ("certified-channels-preserve", certified_channel_trials, (), tol),
              ("local-symplectic-verdict", local_symplectic_trials, (), tol),
              ("mixture-bounds", mixture_bound_trials, (), slack),
              ("orthogonal-monotonicity", orthogonal_monotonicity_trials, (), slack))
    results = [_count_check(name, engine(*lead, trials, seed + i), trials, text)
               for i, (name, engine, lead, text) in enumerate(checks)]
    state = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
    shear = fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)
    grew = j2(apply(shear, state)) > j2(state)
    results.append(CheckResult("monotonicity-failure-witness", grew,
                               "j2 increases under the non-orthogonal shear",
                               "increased" if grew else "did not increase", "strict"))
    return results


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if suite == "paper":
        return paper_suite(seed)
    if suite == "properties":
        return properties_suite(seed)
    if suite == "all":
        return paper_suite(seed) + properties_suite(seed)
    raise ValueError(f"unknown suite {suite!r}")
