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
    GaussianChannel,
    _certified_shift,
    _direct_sum,
    apply,
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
    psd_spectra,
    random_orthogonal,
    random_orthogonal_symplectic,
    random_symplectic,
    steering_form,
)
from .states import (
    ensure_bona_fide,
    mix_covariances,
    random_state,
    squeezed_vacuum_state,
)
from .steering import (
    _steering_spectra,
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
FAITHFULNESS_VMAX = 2.0
TRIAL_TOL = 1e-8
MARGIN_FLOOR = 1e-4
TRIAL_SLACK = 1e-9
# grid times per batched eigendecomposition in first_passage_time
PASSAGE_BLOCK = 128
# sizes of paper_suite's Monte-Carlo checks and fidelity-bound grids
MC_SAMPLES = 10000
GRID_DENSITY = 30


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

def _count(n_trials: int, rng, violated) -> int:
    """Run trials i = 0, ..., n_trials - 1 as ``violated(i, rng)`` on one
    Generator and count those that report a violation."""
    rng = np.random.default_rng(rng)
    return sum(1 for i in range(n_trials) if violated(i, rng))


def _partition(i: int) -> tuple[int, int]:
    return (1, 1) if i % 2 == 0 else (1, 2)


def _random_psd(dim, rng):
    w = rng.standard_normal((dim, dim)) * 0.5
    return w @ w.T


def faithfulness_trials(modes_a: int, modes_b: int, n_trials: int, rng) -> int:
    """Count states where (j1 == 0), (j2 == 0) and the PSD verdict disagree."""
    def violated(i, rng):
        s = random_state(modes_a, modes_b, FAITHFULNESS_VMAX, rng)
        j1_val, j2_val = j_values(s)
        verdict = bool(is_unsteerable(s).ok)
        return not ((j1_val == 0.0) == (j2_val == 0.0) == verdict)
    return _count(n_trials, rng, violated)


def _preservation_trials(n_trials: int, rng, draw_channel, *certificates) -> int:
    """Count channels ``draw_channel(i, rng)`` that fail one of ``certificates``
    (at TRIAL_TOL) or map a random unsteerable input of :func:`sample_verify`
    to a steerable output."""
    def violated(i, rng):
        ch = draw_channel(i, rng)
        if not all(cert(ch, TRIAL_TOL).ok for cert in certificates):
            return True  # one violation, and no state is drawn
        return sample_verify(ch, 1, rng, "unsteerable-preserving", tol=TRIAL_TOL).violations > 0
    return _count(n_trials, rng, violated)


def upward_closure_trials(n_trials: int, rng) -> int:
    """Adding a PSD matrix P to an unsteerable covariance must stay unsteerable:
    the additive-noise channel K = I, M = P (PSD by construction)."""
    return _preservation_trials(n_trials, rng, lambda i, rng: GaussianChannel._by_construction(
        1, 1, np.eye(4), _random_psd(4, rng), np.zeros(4)))


def local_channel_trials(n_trials: int, rng) -> int:
    """Tensor products of valid local channels: certified unsteerable and
    empirically unsteerability-preserving."""
    return _preservation_trials(n_trials, rng, lambda i, rng: random_local_channel(1, 1, rng),
                                is_unsteerable_channel)


def random_local_channel(modes_a: int, modes_b: int, rng) -> GaussianChannel:
    """Random A-side x B-side channel satisfying both side conditions."""
    rng = np.random.default_rng(rng)
    dim_a, dim_b = 2 * modes_a, 2 * modes_b
    ch_a = side_a_channel(rng.uniform(-1.0, 1.0, (dim_a, dim_a)), _random_psd(dim_a, rng))
    k_b = rng.uniform(-1.0, 1.0, (dim_b, dim_b))
    shift = _certified_shift(k_b, steering_form(0, modes_b))
    m_b = _random_psd(dim_b, rng) + shift * np.eye(dim_b)
    return tensor_local(ch_a, side_b_channel(k_b, m_b))


def certified_channel_trials(n_trials: int, rng) -> int:
    """Channels passing the unsteerable certificate keep unsteerable states
    unsteerable; partitions alternate between (1+1) and (1+2)."""
    return _preservation_trials(
        n_trials, rng, lambda i, rng: random_unsteerable_channel(*_partition(i), rng),
        is_unsteerable_channel, is_valid_gaussian)


def local_symplectic_trials(n_trials: int, rng) -> int:
    """Local symplectic conjugation preserves the unsteerable verdict.

    States whose steering-matrix margin (:attr:`PsdReport.margin`) is at most
    MARGIN_FLOOR in size are redrawn: congruence preserves eigenvalue signs
    but not their size, so the tolerant verdict is only meaningful away from
    the boundary.  The channel (M = 0) is built without a check.
    """
    def violated(i, rng):
        while True:
            s = random_state(1, 1, 2.0, rng)
            rep = is_unsteerable(s, TRIAL_TOL)
            if abs(rep.margin) > MARGIN_FLOOR:
                break
        k = _direct_sum(random_symplectic(1, rng, scale=0.5),
                        random_symplectic(1, rng, scale=0.5))
        ch = GaussianChannel._by_construction(1, 1, k, np.zeros((4, 4)), np.zeros(4))
        out = apply(ch, s)
        return bool(is_unsteerable(out, TRIAL_TOL).ok) != bool(rep.ok)
    return _count(n_trials, rng, violated)


def mixture_bound_trials(n_trials: int, rng) -> int:
    """Raw j2 is convex and raw j1 subadditive-plus-one over covariance mixing."""
    def violated(i, rng):
        s1 = random_state(1, 1, 3.0, rng)
        s2 = random_state(1, 1, 3.0, rng)
        p1 = float(rng.random())
        mix = mix_covariances(s1, s2, p1)
        j1_mix, j2_mix = j_values(mix, clamp=False)
        j1_a, j2_a = j_values(s1, clamp=False)
        j1_b, j2_b = j_values(s2, clamp=False)
        return (j2_mix > p1 * j2_a + (1.0 - p1) * j2_b + TRIAL_SLACK
                or j1_mix > j1_a + j1_b + 1.0 + TRIAL_SLACK)
    return _count(n_trials, rng, violated)


def orthogonal_monotonicity_trials(n_trials: int, rng) -> int:
    """j1 and j2 never increase under K_A orthogonal, K_B orthogonal
    symplectic, with arbitrary PSD local noise (a direct sum of Gram matrices,
    so the channel is built without a check)."""
    def violated(i, rng):
        modes_a, modes_b = _partition(i)
        s = random_state(modes_a, modes_b, 2.0, rng)
        da, db = 2 * modes_a, 2 * modes_b
        k = _direct_sum(random_orthogonal(da, rng), random_orthogonal_symplectic(modes_b, rng))
        m = _direct_sum(_random_psd(da, rng), _random_psd(db, rng))
        ch = GaussianChannel._by_construction(modes_a, modes_b, k, m, np.zeros(da + db))
        out = apply(ch, s)
        j1_in, j2_in = j_values(s, clamp=False)
        j1_out, j2_out = j_values(out, clamp=False)
        return j1_out > j1_in + TRIAL_SLACK or j2_out > j2_in + TRIAL_SLACK
    return _count(n_trials, rng, violated)


def first_passage_time(state0, bath: BathParameters, threshold: float,
                       t_max: float, dt: float) -> float:
    """First time on the grid 0, dt, 2 dt, ... (accumulated, up to t_max)
    with j2 (at DEFAULT_PSD_TOL) below threshold, or inf if there is none; dt
    must be finite and positive, t_max finite and nonnegative, threshold not NaN.

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
        j2_vals = _steering_spectra(covs_at(times), 1, 1, DEFAULT_PSD_TOL)[2]
        below = np.flatnonzero(j2_vals < threshold)
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
    :func:`pure_family_state` covariance stack, symmetric and finite by construction."""
    covs = np.array([pure_family_state(r).cov for r in rs])
    j2_vals = _steering_spectra(covs, 1, 1, DEFAULT_PSD_TOL)[2]
    for r, val in zip(rs, j2_vals.tolist()):
        z = n3_upper_bound_pure(r)
        if val - z < -1e-12 or (r > 1.0 + 1e-12 and val - z <= 1e-9):
            return False, f"violated at r = {r:.2f} (z = {z}, j2 = {val})"
        if r <= 1.0 + 1e-12 and abs(val - z) > 1e-9:
            return False, f"not equal at r = 1 (z = {z}, j2 = {val})"
    return True, ""


def _shear_witness_j2() -> tuple[float, float]:
    """j2 of the bundled shear witness state before and after the shear channel."""
    state = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
    shear = fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)
    return j2(state), j2(ensure_bona_fide(apply(shear, state)))


def paper_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    results: list[CheckResult] = []

    # shear witness regression: j2 grows from ~0.0148 to ~0.0152
    j2_in, j2_out = _shear_witness_j2()
    for side, got, want in (("input", j2_in, "0.0148"), ("output", j2_out, "0.0152")):
        results.append(CheckResult(f"shear-witness-j2-{side}", abs(got - float(want)) <= 5e-4,
                                   want, f"{got:.6f}", "5e-4"))
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
    got, _ = psd_spectra(steering_matrix(pure_family_state(2.0)), DEFAULT_PSD_TOL)
    results.append(CheckResult("pure-family-eigenvalues",
                               bool(np.abs(got - expected).max() <= 1e-10),
                               np.array2string(expected, precision=6),
                               np.array2string(got, precision=6), "1e-10"))
    ev_r1, _ = psd_spectra(steering_matrix(pure_family_state(1.0)), DEFAULT_PSD_TOL)
    tn = float(np.abs(ev_r1).sum())
    results.append(CheckResult("pure-family-trace-norm-unsteerable",
                               abs(tn - 4.0) <= 1e-12, "4", f"{tn:.15f}", "1e-12"))

    # bound chain: closed bound <= j2 on the pure family, equality only at r=1
    chain_ok, detail = _bound_chain(np.arange(1.0, 10.0 + 1e-12, 0.01))
    results.append(CheckResult("bound-chain-pure-family", chain_ok,
                               "z(r) <= j2(r), equality only at r=1",
                               detail or "holds on r in [1, 10] step 0.01", "1e-9"))

    # Monte-Carlo falsification checks for the two non-certified channels
    for name, ch, offset, predicate in (
            ("mc-bonafide-preserved", ch1, 0, "bona-fide"),
            ("mc-unsteerable-preserved", ch2, 1, "unsteerable-preserving")):
        report = sample_verify(ch, MC_SAMPLES, seed + offset, predicate)
        results.append(_count_check(name, report.violations, MC_SAMPLES, "1e-8"))

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
    for name, label, baths in (
            ("decay-ordering-bath-squeezing", "R",
             [BathParameters(0.0, rr, 0.0, 0.1) for rr in (2.0, 3.0, 5.0)]),
            ("decay-ordering-thermal-number", "n_th",
             [BathParameters(nth, 0.5, 0.0, 0.1) for nth in (10.0, 20.0, 30.0)])):
        passages = [first_passage_time(start, bath, 0.01, 10.0, 0.001) for bath in baths]
        results.append(CheckResult(name, passages[0] > passages[1] > passages[2],
                                   f"first passage decreasing in {label}",
                                   str(passages), "grid 1e-3"))

    # fidelity-bound grid estimates against the closed bound ordering
    v1_grid = n3_bound_grid(1.0, GRID_DENSITY)
    results.append(CheckResult("fidelity-grid-r1", v1_grid <= 1e-3,
                               "<= 1e-3", f"{v1_grid:.6e}", "1e-3"))
    for r in (2.0, 3.0, 5.0):
        v = n3_bound_grid(r, GRID_DENSITY)
        j2_r = j2(pure_family_state(r))
        results.append(CheckResult(f"fidelity-grid-r{r:g}", 0.0 <= v <= j2_r + 1e-6,
                                   f"0 <= value <= j2({r:g}) + 1e-6",
                                   f"{v:.6f} (j2 = {j2_r:.6f}, "
                                   f"z = {n3_upper_bound_pure(r):.6f})", "1e-6"))
    return results


def properties_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    trials = 1000  # per randomized check
    short = partial(np.format_float_scientific, trim="-", exp_digits=1)  # "1e-9"
    clamp, tol = f"clamp {short(DEFAULT_PSD_TOL)}", short(TRIAL_TOL)
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
    j2_in, j2_out = _shear_witness_j2()
    grew = j2_out > j2_in
    results.append(CheckResult("monotonicity-failure-witness", grew,
                               "j2 increases under the non-orthogonal shear",
                               "increased" if grew else "did not increase", "strict"))
    return results


SUITES = {"paper": (paper_suite,), "properties": (properties_suite,),
          "all": (paper_suite, properties_suite)}


def run_suite(suite: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [result for part in SUITES[suite] for result in part(seed)]
