"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check asserts at its stated tolerance and, where stated, its
runtime budget.
"""

import time

import numpy as np

from gsteer import fixtures
from gsteer.channels import (
    apply,
    is_unsteerable_channel,
    is_valid_gaussian,
    sample_verify,
)
from gsteer.dynamics import BathParameters, sweep
from gsteer.linalg import ValidationError
from gsteer.states import schmidt_pure_state, squeezed_vacuum_state, standard_form_state
from gsteer.steering import (
    j2,
    j_closed_schmidt,
    j_closed_standard,
    j_values,
    n3_bound_grid,
    n3_upper_bound_pure,
    pure_family_state,
)
from gsteer.verify import (
    certified_channel_trials,
    faithfulness_trials,
    first_passage_time,
    local_channel_trials,
    local_symplectic_trials,
    mixture_bound_trials,
    orthogonal_monotonicity_trials,
    upward_closure_trials,
)


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {status}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_01_shear_witness_regression():
    state = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
    shear = fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)
    output = apply(shear, state)
    j2(state)  # warm up caches outside the timed section

    t0 = time.perf_counter()
    j2_in = j2(state)
    j2_out = j2(output)
    elapsed = time.perf_counter() - t0

    ok = (abs(j2_in - 0.0148) <= 5e-4 and abs(j2_out - 0.0152) <= 5e-4
          and j2_out > j2_in and elapsed < 1e-3)
    _report(1, "shear-witness j2 regression (0.0148 -> 0.0152, tol 5e-4)", ok,
            f"j2_in={j2_in:.6f}, j2_out={j2_out:.6f}, {elapsed * 1e3:.3f} ms")


def test_criterion_02_certificate_sign_checks():
    ch1 = fixtures.load_channel(fixtures.CHANNEL_NONCERT_BONAFIDE)
    ch2 = fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)
    is_valid_gaussian(ch1)  # warm up

    t0 = time.perf_counter()
    m1 = is_valid_gaussian(ch1).min_eigenvalue
    m2 = is_valid_gaussian(ch2).min_eigenvalue
    m3 = is_unsteerable_channel(ch2).min_eigenvalue
    elapsed = time.perf_counter() - t0

    ok = m1 < 0 and m2 >= -1e-9 and m3 < 0 and elapsed < 10e-3
    _report(2, "certificate sign checks for the two non-certified channels", ok,
            f"m1={m1:.3e}, m2={m2:.3e}, m3={m3:.3e}, {elapsed * 1e3:.2f} ms")


def test_criterion_03_monte_carlo_10k():
    ch1 = fixtures.load_channel(fixtures.CHANNEL_NONCERT_BONAFIDE)
    ch2 = fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)

    t0 = time.perf_counter()
    rep1 = sample_verify(ch1, 10_000, 1001, "bona-fide", tol=1e-8)
    rep2 = sample_verify(ch2, 10_000, 1002, "unsteerable-preserving", tol=1e-8)
    elapsed = time.perf_counter() - t0

    ok = rep1.violations == 0 and rep2.violations == 0 and elapsed < 30.0
    _report(3, "10,000-sample Monte-Carlo checks of both channels", ok,
            f"violations=({rep1.violations}, {rep2.violations}), {elapsed:.1f} s")


def test_criterion_04_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0

    for gamma in np.arange(1.0, 10.0 + 1e-9, 0.01):
        closed = j_closed_schmidt(1, 1, [gamma])
        raw = j_values(schmidt_pure_state(1, 1, [gamma]), clamp=False)
        worst = max(worst, abs(closed[0] - max(raw[0], 0.0)),
                    abs(closed[1] - max(raw[1], 0.0)))

    axis = np.linspace(1.0, 6.0, 20)
    compared = 0
    for a in axis:
        for b in axis:
            cmax = np.sqrt(a * b - 1.0)
            for c in np.linspace(0.0, cmax, 20):
                for d in (c, -c):
                    try:
                        state = standard_form_state(a, b, c, d)
                    except ValidationError:
                        continue
                    closed = j_closed_standard(a, b, c, d)
                    raw = j_values(state, clamp=False)
                    worst = max(worst, abs(closed[0] - max(raw[0], 0.0)),
                                abs(closed[1] - max(raw[1], 0.0)))
                    compared += 1
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-10 and compared > 4000 and elapsed < 60.0
    _report(4, "closed forms match the eigensolver within 1e-10", ok,
            f"worst={worst:.2e} over 901 + {compared} points, {elapsed:.1f} s")


def test_criterion_05_bound_chain():
    t0 = time.perf_counter()
    ok = True
    detail = "holds on r in [1, 10] step 0.01"
    for r in np.arange(1.0, 10.0 + 1e-9, 0.01):
        z = n3_upper_bound_pure(r)
        val = j2(pure_family_state(r))
        if val < z - 1e-12:
            ok, detail = False, f"chain violated at r={r:.2f}"
            break
        if r <= 1.0 + 1e-12:
            if abs(val - z) > 1e-9:
                ok, detail = False, f"no equality at r=1 (diff {val - z:.2e})"
                break
        elif val - z <= 1e-9:
            ok, detail = False, f"spurious equality at r={r:.2f}"
            break
    elapsed = time.perf_counter() - t0

    ok = ok and elapsed < 5.0
    _report(5, "closed bound <= j2 on the pure family, equality only at r=1",
            ok, f"{detail}, {elapsed:.1f} s")


def test_criterion_06_faithfulness():
    v11 = faithfulness_trials(1, 1, 1000, 2001)
    v12 = faithfulness_trials(1, 2, 1000, 2002)
    ok = v11 == 0 and v12 == 0
    _report(6, "j1 = 0 iff j2 = 0 iff PSD criterion on 2000 random states", ok,
            f"disagreements=({v11}, {v12})")


def test_criterion_07_channel_property_suites():
    counts = {
        "upward-closure": upward_closure_trials(1000, 3001),
        "local-channels": local_channel_trials(1000, 3002),
        "certified-channels": certified_channel_trials(1000, 3003),
        "local-symplectic": local_symplectic_trials(1000, 3004),
    }
    ok = all(v == 0 for v in counts.values())
    _report(7, "upward closure, local, certified, and symplectic suites "
               "(1000 trials each)", ok, str(counts))


def test_criterion_08_convexity_and_monotonicity():
    mix_violations = mixture_bound_trials(1000, 4001)
    mono_violations = orthogonal_monotonicity_trials(1000, 4002)

    state = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
    shear = fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)
    witness_grew = j2(apply(shear, state)) > j2(state)

    ok = mix_violations == 0 and mono_violations == 0 and witness_grew
    _report(8, "mixture bounds and orthogonal monotonicity (1000 trials) "
               "plus the non-orthogonal failure witness", ok,
            f"violations=({mix_violations}, {mono_violations}), "
            f"witness_grew={witness_grew}")


def test_criterion_09_decay_curves():
    start = squeezed_vacuum_state(1.0)
    t_grid = np.arange(0.0, 60.0 + 1e-9, 0.1)

    t0 = time.perf_counter()
    curves_ok = True
    for phi in (10.0, 20.0, 30.0):
        traj = sweep(start, BathParameters(0.0, 1.0, phi, 0.1), t_grid)
        curves_ok &= bool(np.all(np.diff(traj.j2_values) <= 1e-12))
        curves_ok &= bool(traj.j2_values[-1] < 1e-3)
        curves_ok &= bool(np.all(traj.j2_values <= traj.bound_values + 1e-9))

    passages_r = [first_passage_time(start, BathParameters(0.0, rr, 0.0, 0.1),
                                     0.01, 10.0, 0.001) for rr in (2.0, 3.0, 5.0)]
    passages_n = [first_passage_time(start, BathParameters(nth, 0.5, 0.0, 0.1),
                                     0.01, 10.0, 0.001) for nth in (10.0, 20.0, 30.0)]
    orderings_ok = (passages_r[0] > passages_r[1] > passages_r[2]
                    and passages_n[0] > passages_n[1] > passages_n[2])
    elapsed = time.perf_counter() - t0

    ok = curves_ok and orderings_ok and elapsed < 10.0
    _report(9, "decay curves nonincreasing with envelope, first-passage "
               "orderings in R and n_th", ok,
            f"curves={curves_ok}, passages_R={passages_r}, "
            f"passages_nth={passages_n}, {elapsed:.1f} s")


def test_criterion_10_fidelity_bound_grid():
    t0 = time.perf_counter()
    at_one = n3_bound_grid(1.0, grid_density=30)
    values = {r: n3_bound_grid(r, grid_density=30) for r in (2.0, 3.0, 5.0)}
    elapsed = time.perf_counter() - t0

    ok = at_one <= 1e-3 and elapsed < 120.0
    detail = [f"r=1: {at_one:.2e}"]
    for r, v in values.items():
        hi = j2(pure_family_state(r)) + 1e-6
        ok = ok and (0.0 <= v <= hi)
        detail.append(f"r={r:g}: {v:.4f} (<= {hi:.4f})")
    _report(10, "fidelity-bound grid estimates at a 30^4 grid", ok,
            f"{', '.join(detail)}, {elapsed:.1f} s")
