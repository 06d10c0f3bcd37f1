"""The named checks of ``gsteer verify``, each reporting expected, got and
tolerance: ``paper`` replays the numeric regressions, ``properties`` runs
the randomized trial engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fixtures
from .channels import (
    SAMPLE_BLOCK,
    GaussianChannel,
    _act,
    _certified_shift,
    _channel_offsets,
    _direct_sum,
    _unsteerable_channel_arrays,
    apply,
    certificate_matrix,
    is_unsteerable_channel,
    is_valid_gaussian,
    sample_verify,
)
from .dynamics import BathParameters, first_passage_time, sweep
from .linalg import (
    DEFAULT_PSD_TOL,
    _orthogonal_from_normals,
    _orthogonal_symplectic_from_normals,
    psd_spectra,
    relative_margin,
    require_count,
    steering_form,
    symplectic_exp,
)
from .states import (
    _check_mode_counts,
    _covs_from_uniforms,
    _ensure_bona_fide_stack,
    _generator,
    _random_covs,
    ensure_bona_fide,
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
PRESERVATION_VMAX = 5.0  # max_sympl_eigen of the inputs, sample_verify's default
PRESERVATION_ROWS = 16  # first preservation stack: about twice the trials it keeps
TRIAL_TOL = 1e-8
MARGIN_FLOOR = 1e-4
TRIAL_SLACK = 1e-9
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

def _count(n_trials: int, rng, settle, rows: int = SAMPLE_BLOCK) -> int:
    """The violations among ``n_trials`` trials (a count, checked before any
    draw) on one Generator, equal to a loop over single trials, as is the
    Generator's end state.  ``settle(trials, rng)`` draws for a range of at
    most min(rows, SAMPLE_BLOCK) trials and returns the verdicts of its first
    j, leaving the Generator where that loop would after the j-th; the next
    range starts there and holds at most 2j + 1 trials."""
    n_trials = require_count(n_trials, "n_trials")
    rng = _generator(rng)
    done = count = 0
    while done < n_trials:
        verdicts = settle(range(done, min(done + rows, done + SAMPLE_BLOCK, n_trials)), rng)
        done += len(verdicts)
        count += int(np.count_nonzero(verdicts))
        rows = 2 * len(verdicts) + 1
    return count


def _partition(i: int) -> tuple[int, int]:
    return (1, 1) if i % 2 == 0 else (1, 2)


def _gram(g: np.ndarray) -> np.ndarray:
    """The random PSD w w^T, w = g / 2, of standard normals g or a stack."""
    w = g * 0.5
    return w @ w.swapaxes(-1, -2)


def _raw_j_values(covs: np.ndarray, modes_a: int, modes_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw (j1, j2) of :func:`j_values` on a stack of bona fide (not
    checked) covariances, in one eigensolve."""
    j2_vals = _steering_spectra(covs, modes_a, modes_b, DEFAULT_PSD_TOL, clamp=False)[2]
    return j2_vals / np.trace(covs, axis1=-2, axis2=-1), j2_vals


def faithfulness_trials(modes_a: int, modes_b: int, n_trials: int, rng) -> int:
    """Count random states where (j1 == 0), (j2 == 0) and
    :func:`is_unsteerable` disagree, one eigensolve per stack."""
    modes_a, modes_b = _check_mode_counts(modes_a, modes_b)

    def settle(trials, rng):
        covs = _random_covs((len(trials),), modes_a, modes_b, FAITHFULNESS_VMAX, rng)
        _, verdict, j2_vals = _steering_spectra(covs, modes_a, modes_b, DEFAULT_PSD_TOL)
        j1_zero = j2_vals / np.trace(covs, axis1=-2, axis2=-1) == 0.0
        j2_zero = j2_vals == 0.0
        return ~((j1_zero == j2_zero) & (j2_zero == verdict))
    return _count(n_trials, rng, settle)


def _preservation_trials(n_trials: int, rng, partition, draw, build, offsets=None) -> int:
    """Count the trials whose channel fails a certificate M + F - K F K^T >= 0
    at TRIAL_TOL, F of ``offsets(modes_a, modes_b)`` (no input is drawn
    then), or maps the unsteerable input of ``sample_verify(ch, 1, rng,
    "unsteerable-preserving", PRESERVATION_VMAX, TRIAL_TOL)`` to a steerable
    output.  Trial i draws ``draw(*partition(i), rng)``, then its inputs;
    ``build`` gives K and M from the draws, row by row on stacks.

    A stack judges each trial's channel and first candidate input; the first
    trial whose certificate fails or whose candidate is redrawn rewinds the
    Generator to just after its channel and finishes on the single path.
    """
    def stack(trials, rng):
        groups, after_channel = {}, []
        for pos, i in enumerate(trials):
            modes = partition(i)
            draws = draw(*modes, rng)
            after_channel.append(rng.bit_generator.state)
            n = sum(modes)
            group = groups.setdefault(modes, ([], [], []))
            group[0].append(pos)
            group[1].append(draws)
            group[2].append(rng.random(n + 4 * n * n))
        violated = np.empty(len(trials), dtype=bool)
        clean = np.empty(len(trials), dtype=bool)  # certified, and the candidate kept
        built = {}
        for modes, (pos, draws, u) in groups.items():
            k, m = build(*modes, *map(np.array, zip(*draws)))
            covs = _covs_from_uniforms(np.array(u), sum(modes), PRESERVATION_VMAX)
            steering = steering_form(*modes)
            # per trial: its certificates, its candidate and its output
            f = () if offsets is None else offsets(*modes)
            h = np.empty((len(pos), len(f) + 2, *covs.shape[1:]), dtype=complex)
            if len(f):
                h[:, :-2] = certificate_matrix(k[:, None], m[:, None], f, f)
            np.add(covs, steering, out=h[:, -2])
            np.add(_act(k, m, covs), steering, out=h[:, -1])
            ok = psd_spectra(h, TRIAL_TOL)[1]
            clean[pos] = ok[:, :-1].all(axis=1)
            violated[pos] = ~ok[:, -1]
            built[modes] = k, m, ok, pos
        cut = np.flatnonzero(~clean)
        if not cut.size:
            return violated
        c = int(cut[0])
        rng.bit_generator.state = after_channel[c]
        modes = partition(trials[c])
        k, m, ok, pos = built[modes]
        row = pos.index(c)
        if not ok[row, :-2].all():
            return [*violated[:c], True]
        ch = GaussianChannel._by_construction(*modes, k[row].copy(), m[row].copy(),
                                              np.zeros(k.shape[-1]))
        return [*violated[:c], sample_verify(
            ch, 1, rng, "unsteerable-preserving", PRESERVATION_VMAX, TRIAL_TOL).violations > 0]
    return _count(n_trials, rng, stack, PRESERVATION_ROWS)


def _one_partition(i: int) -> tuple[int, int]:
    return (1, 1)


def _unsteerable_offset(modes_a: int, modes_b: int) -> np.ndarray:
    """The unsteerable certificate's offset as a ``(1, d, d)`` stack."""
    return steering_form(modes_a, modes_b)[None]


def _noise_channel_arrays(modes_a: int, modes_b: int, g: np.ndarray):
    """K = I and M = :func:`_gram` of upward closure's additive-noise
    channel, from standard normals or a stack (K broadcast to M's shape)."""
    m = _gram(g)
    return np.broadcast_to(np.eye(m.shape[-1]), m.shape), m


def upward_closure_trials(n_trials: int, rng) -> int:
    """An unsteerable covariance plus a PSD matrix stays unsteerable."""
    return _preservation_trials(
        n_trials, rng, _one_partition,
        lambda modes_a, modes_b, rng: (rng.standard_normal((4, 4)),), _noise_channel_arrays)


def local_channel_trials(n_trials: int, rng) -> int:
    """Tensor products of valid local channels are certified unsteerable and
    preserve unsteerability."""
    return _preservation_trials(n_trials, rng, _one_partition, _local_channel_draws,
                                _local_channel_arrays, _unsteerable_offset)


def _local_channel_draws(modes_a: int, modes_b: int, rng) -> tuple[np.ndarray, ...]:
    """The draws of one local channel in stream order: K_A's uniforms, M_A's
    normals, then K_B's and M_B's."""
    dim_a, dim_b = 2 * modes_a, 2 * modes_b
    return (rng.random((dim_a, dim_a)), rng.standard_normal((dim_a, dim_a)),
            rng.random((dim_b, dim_b)), rng.standard_normal((dim_b, dim_b)))


def _local_channel_arrays(modes_a: int, modes_b: int, u_a, g_a, u_b, g_b):
    """K and M of :func:`_local_channel_draws`, row by row on stacks: the
    channel ``tensor_local(side_a_channel(K_A, M_A), side_b_channel(K_B,
    M_B))``, each side certified by construction (M_B carries K_B's shift)."""
    k_b = -1.0 + 2.0 * u_b
    shift = _certified_shift(k_b, _unsteerable_offset(0, modes_b))
    m_b = _gram(g_b) + shift[..., None, None] * np.eye(2 * modes_b)
    return _direct_sum(-1.0 + 2.0 * u_a, k_b), _direct_sum(_gram(g_a), m_b)


def certified_channel_trials(n_trials: int, rng) -> int:
    """Channels passing the unsteerable certificate keep unsteerable states
    unsteerable, on (1+1) and (1+2) partitions in turn."""
    return _preservation_trials(
        n_trials, rng, _partition,
        lambda modes_a, modes_b, rng: (rng.random((2 * (modes_a + modes_b),) * 2),),
        _unsteerable_channel_arrays, _channel_offsets)


def local_symplectic_trials(n_trials: int, rng) -> int:
    """Local symplectic conjugation preserves the unsteerable verdict.  A
    state whose margin is at most MARGIN_FLOOR in size is redrawn, as
    congruence keeps eigenvalue signs but not sizes.  A kept trial draws 26
    uniforms: 18 for the state, 4 for each side's exp(Omega H); the first
    redraw cuts a stack, the Generator rewound to just after its 18."""
    def stack(trials, rng):
        saved = rng.bit_generator.state
        u = rng.random((len(trials), 26))
        covs = _covs_from_uniforms(u[:, :18], 2, 2.0)
        ev, ok = psd_spectra(covs + steering_form(1, 1), TRIAL_TOL)
        kept = abs(relative_margin(ev[:, 0], ev[:, -1])) > MARGIN_FLOOR  # NaN is redrawn
        redrawn = np.flatnonzero(~kept)
        if redrawn.size:
            j = int(redrawn[0])
            rng.bit_generator.state = saved
            rng.random(26 * j + 18)
            u, covs, ok = u[:j], covs[:j], ok[:j]
            if not j:
                return ok
        # Generator.uniform(-0.5, 0.5) is -0.5 + 1.0 * u
        sympl = symplectic_exp(1, (-0.5 + 1.0 * u[:, 18:]).reshape(-1, 2, 2, 2))
        k = _direct_sum(sympl[:, 0], sympl[:, 1])
        out = _act(k, np.zeros((4, 4)), covs)
        return psd_spectra(out + steering_form(1, 1), TRIAL_TOL)[1] != ok
    return _count(n_trials, rng, stack)


def mixture_bound_trials(n_trials: int, rng) -> int:
    """Raw j2 is convex and raw j1 subadditive-plus-one over covariance
    mixing.  A trial draws 37 uniforms: two (1+1) states (18 each), then p1."""
    def settle(trials, rng):
        k = len(trials)
        u = rng.random((k, 37))
        covs = _covs_from_uniforms(u[:, :36].reshape(k, 2, 18), 2, 3.0)
        p1 = u[:, 36, None, None]
        # exactly symmetric, so mix_covariances' symmetrization leaves it unchanged
        mix = p1 * covs[:, 0] + (1.0 - p1) * covs[:, 1]
        _ensure_bona_fide_stack(mix, 2)
        j1_vals, j2_vals = _raw_j_values(np.stack([mix, covs[:, 0], covs[:, 1]]), 1, 1)
        p1 = p1[:, 0, 0]
        # | of the two comparisons is the loop's or: NaN compares False in both
        return ((j2_vals[0] > p1 * j2_vals[1] + (1.0 - p1) * j2_vals[2] + TRIAL_SLACK)
                | (j1_vals[0] > j1_vals[1] + j1_vals[2] + 1.0 + TRIAL_SLACK))
    return _count(n_trials, rng, settle)


def orthogonal_monotonicity_trials(n_trials: int, rng) -> int:
    """j1 and j2 never increase under orthogonal K_A and orthogonal
    symplectic K_B with PSD local noise.  A trial draws a state's n + d^2
    uniforms, then normals for K_A (2a x 2a), K_B's unitary (b x b, real
    then imaginary) and the two Gram matrices (2a x 2a, 2b x 2b)."""
    def settle(trials, rng):
        groups = {}
        for pos, i in enumerate(trials):
            modes_a, modes_b = _partition(i)
            n = modes_a + modes_b
            rows, uniforms, normals = groups.setdefault((modes_a, modes_b), ([], [], []))
            rows.append(pos)
            uniforms.append(rng.random(n + 4 * n * n))
            normals.append(rng.standard_normal(8 * modes_a**2 + 6 * modes_b**2))
        violated = np.empty(len(trials), dtype=bool)
        for modes, (rows, uniforms, normals) in groups.items():
            violated[rows] = _orthogonal_violations(*modes, np.array(uniforms), np.array(normals))
        return violated
    return _count(n_trials, rng, settle)


def _orthogonal_violations(modes_a: int, modes_b: int, u: np.ndarray,
                           g: np.ndarray) -> np.ndarray:
    """The verdicts of :func:`orthogonal_monotonicity_trials` on one
    partition's trials, from a row of uniforms and of normals each."""
    k, da, db = len(u), 2 * modes_a, 2 * modes_b
    orth, re, im, g_a, g_b = np.split(
        g, np.cumsum([da * da, modes_b**2, modes_b**2, da * da]), axis=1)
    re, im = re.reshape(k, modes_b, modes_b), im.reshape(k, modes_b, modes_b)
    covs = _covs_from_uniforms(u, modes_a + modes_b, 2.0)
    k_mat = _direct_sum(_orthogonal_from_normals(orth.reshape(k, da, da)),
                        _orthogonal_symplectic_from_normals(re, im))
    m_mat = _direct_sum(_gram(g_a.reshape(k, da, da)), _gram(g_b.reshape(k, db, db)))
    j1_vals, j2_vals = _raw_j_values(np.stack([covs, _act(k_mat, m_mat, covs)]), modes_a, modes_b)
    return (j1_vals[1] > j1_vals[0] + TRIAL_SLACK) | (j2_vals[1] > j2_vals[0] + TRIAL_SLACK)


# ---------------------------------------------------------------------------
# named checks

def _count_check(name: str, violations: int, n_trials: int, tol_text: str) -> CheckResult:
    return CheckResult(name, violations == 0, "0 violations",
                       f"{violations} violations in {n_trials} trials", tol_text)


def _bound_chain(rs: np.ndarray) -> tuple[bool, str]:
    """Whether z(r) <= j2(r) on the pure family at every r of ``rs``, strict
    for r > 1 and equal at r = 1, with j2 from one eigensolve; else the first
    failure, described."""
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
    """The numeric regressions: fixtures, bound chain, decay curves, fidelity grid."""
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
    """The trial engines at 1000 trials each, engine i on seed + i, and the
    shear witness."""
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
    """The results of the suites of ``SUITES[suite]``, in order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return [result for part in SUITES[suite] for result in part(seed)]
