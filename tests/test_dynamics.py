import inspect
import itertools
import math
import re
import signal
import tracemalloc

import numpy as np
import pytest

from gsteer import dynamics
from gsteer.dynamics import (
    PASSAGE_BLOCK,
    BathParameters,
    Trajectory,
    evolve,
    first_passage_time,
    gamma_infinity,
    stationary_state,
    sweep,
)
from gsteer.linalg import ValidationError
from gsteer.states import (
    BonaFideError,
    GaussianState,
    make_state,
    squeezed_vacuum_state,
    validate_state,
)
from gsteer.steering import j2, j_closed_standard
from oracles import (
    first_passage_scan,
    j2_initial_squeezed,
    sweep_points,
    thermal_death_time,
    thermal_standard_form,
)

SINH1_SQ = 1.3810978455418155      # sinh(1)^2
COSH1_SINH1 = 1.8134302039235093   # cosh(1) * sinh(1)


class TestBathParameters:
    def test_derived_quantities_vacuum_bath(self):
        bath = BathParameters(0.0, 0.0, 0.0, 0.1)
        assert bath.photon_number == 0.0
        assert bath.squeezing == 0.0

    def test_derived_quantities_squeezed_bath(self):
        bath = BathParameters(0.0, 1.0, 0.0, 0.1)
        assert bath.photon_number == pytest.approx(SINH1_SQ, abs=1e-12)
        assert bath.squeezing.real == pytest.approx(-COSH1_SINH1, abs=1e-12)
        assert bath.squeezing.imag == pytest.approx(0.0, abs=1e-12)

    def test_squeezing_inequality_holds_across_grid(self):
        # |M|^2 <= N(N+1) is an identity of the parametrization
        for nth in (0.0, 0.5, 3.0, 30.0):
            for R in (0.0, 0.5, 2.0):
                for phi in (0.0, 1.0, 10.0):
                    bath = BathParameters(nth, R, phi, 0.1)
                    n, m = bath.photon_number, bath.squeezing
                    assert abs(m) ** 2 <= n * (n + 1.0) + 1e-9 * max(1.0, n * n)
                    # N(N+1) - |M|^2 = n_th(n_th+1), so gamma_infinity is bona fide
                    assert n * (n + 1.0) - abs(m) ** 2 == pytest.approx(
                        nth * (nth + 1.0), abs=1e-9 * max(1.0, n * n))

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            BathParameters(-0.1, 0.0, 0.0, 0.1)
        with pytest.raises(ValidationError):
            BathParameters(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            BathParameters(0.0, np.inf, 0.0, 0.1)

    @pytest.mark.parametrize("nth, R", [(0.0, 800.0), (0.0, 360.0), (1e308, 1.0),
                                        (1e300, 200.0)])
    def test_overflowing_stationary_covariance_rejected(self, nth, R):
        # no numpy warning comes first (pytest would raise it)
        with pytest.raises(ValidationError, match=re.escape(
                f"bath parameters n_th = {nth} and R = {R} give a non-finite "
                f"stationary covariance")):
            BathParameters(nth, R, 0.3, 0.1)

    def test_large_finite_baths_accepted(self):
        for bath in (BathParameters(0.0, 354.0, 0.3, 0.1), BathParameters(1e300, 0.5, 0.0, 0.1)):
            assert np.isfinite(gamma_infinity(bath)).all()


class TestGammaInfinity:
    def test_vacuum_bath_gives_identity(self):
        bath = BathParameters(0.0, 0.0, 0.0, 0.1)
        assert np.allclose(gamma_infinity(bath), np.eye(4), atol=1e-15)

    def test_thermal_bath(self):
        # N = 1, M = 0: diagonal entries 2(1/2 + 1) = 3
        bath = BathParameters(1.0, 0.0, 0.0, 0.1)
        assert np.allclose(gamma_infinity(bath), 3.0 * np.eye(4), atol=1e-15)

    def test_squeezed_bath_blocks(self):
        bath = BathParameters(0.0, 1.0, 0.0, 0.1)
        g = gamma_infinity(bath)
        l_plus = SINH1_SQ - COSH1_SINH1
        l_minus = SINH1_SQ + COSH1_SINH1
        assert g[0, 0] == pytest.approx(2 * (0.5 + l_plus), abs=1e-12)
        assert g[1, 1] == pytest.approx(2 * (0.5 + l_minus), abs=1e-12)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(g[:2, :2], g[2:, 2:], atol=1e-15)
        assert np.array_equal(g[:2, 2:], np.zeros((2, 2)))

    def test_phase_rotates_into_off_diagonal(self):
        bath = BathParameters(0.0, 1.0, np.pi / 2, 0.1)
        g = gamma_infinity(bath)
        assert g[0, 1] == pytest.approx(2 * bath.squeezing.imag, abs=1e-12)

    def test_always_bona_fide(self):
        for nth in (0.0, 1.0, 10.0, 30.0):
            for R in (0.0, 0.5, 1.0, 3.0):
                for phi in (0.0, 10.0, 20.0):
                    bath = BathParameters(nth, R, phi, 0.1)
                    assert validate_state(stationary_state(bath)).ok


class TestEvolve:
    def test_time_zero_identity(self):
        s0 = squeezed_vacuum_state(1.0)
        bath = BathParameters(0.0, 1.0, 10.0, 0.1)
        out = evolve(s0, bath, 0.0)
        assert np.array_equal(out.cov, s0.cov)

    def test_long_time_limit(self):
        s0 = squeezed_vacuum_state(1.0)
        bath = BathParameters(0.5, 0.3, 0.0, 0.1)
        out = evolve(s0, bath, 1e4)
        assert np.allclose(out.cov, gamma_infinity(bath), atol=1e-10)

    def test_half_life_midpoint(self):
        s0 = squeezed_vacuum_state(0.8)
        bath = BathParameters(0.0, 1.0, 0.0, 0.1)
        out = evolve(s0, bath, np.log(2.0) / bath.lam)
        assert np.allclose(out.cov, (s0.cov + gamma_infinity(bath)) / 2.0, atol=1e-12)

    def test_semigroup_composition(self):
        s0 = squeezed_vacuum_state(1.0)
        bath = BathParameters(0.2, 0.7, 3.0, 0.25)
        one_step = evolve(s0, bath, 5.0)
        two_steps = evolve(evolve(s0, bath, 2.0), bath, 3.0)
        assert np.abs(one_step.cov - two_steps.cov).max() < 1e-10

    def test_mean_damping(self):
        from gsteer.states import make_state

        s0 = make_state(1, 1, 2.0 * np.eye(4), mean=[2.0, 0.0, -1.0, 1.0])
        bath = BathParameters(0.0, 0.0, 0.0, 0.5)
        out = evolve(s0, bath, 3.0)
        assert np.allclose(out.mean, np.exp(-0.75) * s0.mean, atol=1e-14)

    def test_evolved_states_stay_bona_fide(self):
        s0 = squeezed_vacuum_state(1.5)
        bath = BathParameters(0.0, 2.0, 7.0, 0.1)
        for t in np.linspace(0.0, 40.0, 100):
            assert validate_state(evolve(s0, bath, t)).ok

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            evolve(squeezed_vacuum_state(1.0), BathParameters(0, 1, 0, 0.1), -1.0)

    def test_non_bona_fide_start_rejected(self):
        bad = GaussianState(1, 1, 0.5 * np.eye(4), np.zeros(4))
        with pytest.raises(BonaFideError):
            evolve(bad, BathParameters(0.0, 1.0, 0.0, 0.1), 50.0)

    def test_rejects_wrong_partition(self):
        from gsteer.states import random_state

        with pytest.raises(ValidationError):
            evolve(random_state(1, 2, 2.0, 0), BathParameters(0, 1, 0, 0.1), 1.0)


class TestInitialValueFormula:
    def test_zero_at_rest(self):
        assert j2_initial_squeezed(0.0) == 0.0

    def test_matches_state_computation(self):
        for r in (0.0, 0.3, 1.0, 2.0):
            assert j2_initial_squeezed(r) == pytest.approx(
                j2(squeezed_vacuum_state(r)), abs=1e-10)

    def test_trend_on_grid(self):
        # tabulated on [0, 3]: strictly increasing toward the limit value 1
        grid = [j2_initial_squeezed(r) for r in np.linspace(0.0, 3.0, 61)]
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] > 0.99
        assert grid[-1] < 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            j2_initial_squeezed(-0.5)


class TestSweep:
    def test_constant_when_started_stationary(self):
        bath = BathParameters(0.5, 0.2, 0.0, 0.1)
        traj = sweep(stationary_state(bath), bath, np.linspace(0, 10, 11))
        assert np.abs(np.diff(traj.j2_values)).max() < 1e-12

    def test_monotone_decay_reference_curve(self):
        bath = BathParameters(0.0, 1.0, 10.0, 0.1)
        traj = sweep(squeezed_vacuum_state(1.0), bath, np.arange(0.0, 60.01, 0.1))
        assert traj.j2_values[0] == pytest.approx(j2_initial_squeezed(1.0), abs=1e-12)
        assert np.all(np.diff(traj.j2_values) <= 1e-12)
        assert traj.j2_values[-1] < 1e-3

    def test_envelope_bound_holds_everywhere(self):
        rng = np.random.default_rng(91)
        grid = np.linspace(0.0, 30.0, 61)
        for _ in range(100):
            r = float(rng.uniform(0.0, 2.0))
            bath = BathParameters(float(rng.uniform(0.0, 5.0)),
                                  float(rng.uniform(0.0, 2.0)),
                                  float(rng.uniform(0.0, 30.0)),
                                  float(rng.uniform(0.05, 1.0)))
            traj = sweep(squeezed_vacuum_state(r), bath, grid)
            assert np.all(traj.j2_values <= traj.bound_values + 1e-9)

    def test_grid_validation(self):
        bath = BathParameters(0.0, 1.0, 0.0, 0.1)
        s = squeezed_vacuum_state(1.0)
        with pytest.raises(ValidationError):
            sweep(s, bath, [0.0, 0.0, 1.0])
        with pytest.raises(ValidationError):
            sweep(s, bath, [-1.0, 0.0])
        with pytest.raises(ValidationError):
            sweep(s, bath, [])
        with pytest.raises(ValidationError, match="finite"):
            sweep(s, bath, [0.0, np.nan])
        with pytest.raises(ValidationError, match="finite"):
            sweep(s, bath, [0.0, np.inf])

    def test_non_bona_fide_start_rejected(self):
        bath = BathParameters(0.0, 1.0, 0.0, 0.1)
        bad = GaussianState(1, 1, 0.5 * np.eye(4), np.zeros(4))
        with pytest.raises(BonaFideError):
            sweep(bad, bath, [1.0, 2.0])

    @pytest.mark.parametrize("r, bath", [
        (1.0, BathParameters(0.0, 1.0, 10.0, 0.1)),
        (0.3, BathParameters(0.7, 0.4, 2.0, 0.15)),
        (1.7, BathParameters(0.1, 1.3, 5.5, 0.05)),
        (0.0, BathParameters(2.0, 0.0, 0.0, 0.2)),
    ])
    def test_csv_matches_per_point_evolve(self, r, bath):
        # the stacked sweep against one evolve and one j2 per time point,
        # byte for byte, for a pure and a slightly mixed start at both tols
        grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
        pure = squeezed_vacuum_state(r)
        mixed = make_state(1, 1, pure.cov + 1e-3 * np.eye(4))
        for state, tol in itertools.product((pure, mixed), (1e-9, 0.0)):
            expected = "t,j2,bound\n" + "".join(
                f"{t:.17g},{v:.17g},{b:.17g}\n"
                for t, v, b in sweep_points(state, bath, grid, tol))
            assert sweep(state, bath, grid, tol).to_csv() == expected

    def test_one_batched_eigensolve(self, count_eigvalsh):
        # state0's bona fide test and one call for all 601 grid points plus
        # the envelope's two ends
        grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
        sweep(squeezed_vacuum_state(1.0), BathParameters(0.3, 0.8, 1.0, 0.1), grid)
        assert len(count_eigvalsh) <= 2

    def test_blocks_match_one_stack(self, monkeypatch):
        # stack row i equals the one-matrix eigensolve bit for bit, so a
        # 601-point grid in blocks of 7 (86 blocks, the envelope's two ends
        # the tail of the last) reads as one stack
        grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
        args = (squeezed_vacuum_state(1.0), BathParameters(0.3, 0.8, 1.0, 0.1), grid)
        whole = sweep(*args)
        monkeypatch.setattr(dynamics, "SWEEP_BLOCK", 7)
        blocked = sweep(*args)
        for name in ("times", "j2_values", "bound_values"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()
        assert blocked.to_csv() == whole.to_csv()

    def test_long_grid_memory_bounded(self):
        # the returned Trajectory holds 2.3 MiB; the whole grid as one stack
        # would peak near 40 MiB.  A short sweep first fills the module
        # caches (the steering offsets), which are not the sweep's memory.
        # At 600,001 points the peak stays within 1.75x the returned arrays
        # (13.7 MiB): sweep hands them over and copies none of them, and
        # writes each block's j2 into one preallocated array.
        args = (squeezed_vacuum_state(1.0), BathParameters(0.3, 0.8, 1.0, 0.1))
        sweep(*args, [0.0, 1.0, 2.0])

        def traced(grid):
            """The sweep's tracemalloc peak and the bytes of its arrays."""
            tracemalloc.start()
            try:
                traj = sweep(*args, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, traj.times.nbytes + traj.j2_values.nbytes + traj.bound_values.nbytes

        assert traced(np.linspace(0.0, 60.0, 100_001))[0] < 10 * 2**20
        peak, held = traced(np.linspace(0.0, 60.0, 600_001))
        assert peak <= 1.75 * held, (peak, held)

    def test_stack_not_rechecked(self, count_require_hermitian):
        # the stack mixes two checked covariances: symmetric and finite by construction
        grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
        sweep(squeezed_vacuum_state(1.0), BathParameters(0.3, 0.8, 1.0, 0.1), grid)
        first_passage_time(squeezed_vacuum_state(1.0), BathParameters(0.0, 2.2, 0.0, 0.1),
                           0.01, 10.0, 1e-3)
        assert not count_require_hermitian


class TestFirstPassage:
    def test_never_below_threshold(self):
        bath = BathParameters(0.0, 0.0, 0.0, 0.1)
        assert first_passage_time(squeezed_vacuum_state(1.0), bath, -1.0, 1.0, 0.1) == np.inf

    @pytest.mark.parametrize("t_max, dt", [
        (1.0, 0.0), (1.0, -0.1), (1.0, np.nan), (1.0, np.inf),
        (-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
    ])
    def test_bad_grid_rejected(self, t_max, dt):
        # a threshold above j2(state0) would stop the scan at t = 0 if it ran
        bath = BathParameters(0.0, 0.0, 0.0, 0.1)
        with pytest.raises(ValidationError, match="dt must be|t_max must be"):
            first_passage_time(squeezed_vacuum_state(1.0), bath, 10.0, t_max, dt)

    @pytest.mark.parametrize("t_max, dt", [
        (1.0, 1e-300),           # 1e300 grid points
        (1.0, 5e-324),           # t_max / dt overflows to inf
        (2.0**52 + 1.0, 1.0),    # past 2**52 steps, t + dt can round back to t
        (1.7e308, 1e308),        # the grid end overflows to inf
    ])
    def test_unfinishable_grid_rejected(self, t_max, dt):
        # threshold -1 is never reached, so an accepted grid would be scanned
        # to its end; the alarm turns a scan that never ends into a failure
        def hung(signum, frame):
            raise TimeoutError(f"first_passage_time scanned t_max = {t_max}, dt = {dt}")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(5)
        try:
            with pytest.raises(ValidationError, match=r"at most 2\*\*52"):
                first_passage_time(squeezed_vacuum_state(1.0),
                                   BathParameters(0, 0, 0, 0.1), -1.0, t_max, dt)
            # the largest grid accepted, stopped at t = 0 by a threshold above j2
            assert first_passage_time(squeezed_vacuum_state(1.0),
                                      BathParameters(0, 0, 0, 0.1), 10.0, 2.0**52, 1.0) == 0.0
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_nan_threshold_rejected(self):
        # every comparison with NaN is false, so the scan would return inf
        with pytest.raises(ValidationError, match="threshold"):
            first_passage_time(squeezed_vacuum_state(1.0), BathParameters(0, 1, 0, 0.1),
                               np.nan, 1.0, 0.1)

    @pytest.mark.parametrize("r, bath, threshold, t_max, dt", [
        # strong squeezed baths: passage at t ~ 0.1-0.4
        (1.0, BathParameters(0.0, 2.0, 0.0, 0.1), 0.01, 10.0, 1e-3),
        (1.0, BathParameters(0.0, 2.37, 0.0, 0.1), 0.01, 10.0, 1e-3),
        # thermal baths
        (1.0, BathParameters(5.0, 0.5, 0.0, 0.1), 0.01, 10.0, 1e-3),
        (1.0, BathParameters(9.3, 0.5, 0.0, 0.1), 0.01, 10.0, 1e-3),
        # passage inside the first block, at t = 0, and never
        (0.5, BathParameters(0.0, 0.0, 0.0, 0.5), 0.3, 10.0, 0.01),
        (1.0, BathParameters(0.0, 1.0, 0.0, 0.1), 10.0, 1.0, 0.1),
        (1.0, BathParameters(0.0, 0.0, 0.0, 0.1), 0.01, 2.0, 1e-3),
    ])
    def test_matches_scalar_scan(self, r, bath, threshold, t_max, dt):
        state = squeezed_vacuum_state(r)
        got = first_passage_time(state, bath, threshold, t_max, dt)
        assert got == first_passage_scan(state, bath, threshold, t_max, dt, 1e-9)

    @pytest.mark.parametrize("bath, threshold, t_max", [
        (BathParameters(0.0, 2.2, 0.0, 0.1), 0.01, 10.0),
        (BathParameters(0.0, 0.0, 0.0, 0.1), -1.0, 1.0),
    ])
    def test_one_batched_eigensolve_per_block(self, count_eigvalsh, bath, threshold, t_max):
        # state0's bona fide test plus one call per block of grid times scanned
        dt = 1e-3
        t = first_passage_time(squeezed_vacuum_state(1.0), bath, threshold, t_max, dt)
        points = round(t / dt) + 1 if np.isfinite(t) else round(t_max / dt) + 1
        blocks = -(-points // PASSAGE_BLOCK)
        assert len(count_eigvalsh) <= blocks + 2


class TestThermalDeathTime:
    # a thermal bath (R = 0) keeps a squeezed-vacuum start in standard form,
    # so j2(t) and the time t* where steering dies have closed forms
    CASES = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.2), (2.0, 0.5)]
    LAM, DT = 0.1, 1e-3

    @pytest.mark.parametrize("r, n_th", CASES)
    def test_sweep_matches_closed_form(self, r, n_th):
        t_grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
        traj = sweep(squeezed_vacuum_state(r), BathParameters(n_th, 0.0, 0.0, self.LAM), t_grid)
        for t, got in zip(t_grid, traj.j2_values):
            a, c = thermal_standard_form(r, n_th, self.LAM, t)
            assert abs(got - j_closed_standard(a, a, c, -c)[1]) <= 1e-12, t
        assert traj.j2_values[0] > 0.0 and traj.j2_values[-1] == 0.0

    @pytest.mark.parametrize("r, n_th", CASES)
    def test_first_passage_lands_within_one_step_after_death(self, r, n_th):
        t_star = thermal_death_time(r, n_th, self.LAM)
        if n_th == 0.0:
            assert t_star == pytest.approx(math.log(2.0) / self.LAM, rel=1e-14)
        passage = first_passage_time(squeezed_vacuum_state(r),
                                     BathParameters(n_th, 0.0, 0.0, self.LAM),
                                     1e-300, 10.0, self.DT)
        assert t_star <= passage <= t_star + self.DT


class TestPureStartAtTolZero:
    # input is judged bona fide at the fixed DEFAULT_PSD_TOL, whatever the
    # analysis tol: the pure start would fail the bona fide test at tol 0
    START = squeezed_vacuum_state(1.0)
    BATH = BathParameters(0.0, 1.0, 10.0, 0.1)

    def test_start_fails_the_bona_fide_test_at_tol_zero(self):
        assert not validate_state(self.START, 0.0).ok

    def test_evolve(self):
        assert "tol" not in inspect.signature(evolve).parameters
        assert j2(evolve(self.START, self.BATH, 0.0), 0.0) == j2(self.START, 0.0)

    def test_sweep(self):
        traj = sweep(self.START, self.BATH, [0.0, 1.0], 0.0)
        assert traj.j2_values[0] == j2(self.START, 0.0) > 0.0

    def test_first_passage_time(self):
        assert "tol" not in inspect.signature(first_passage_time).parameters
        assert first_passage_time(self.START, self.BATH, 10.0, 1.0, 0.1) == 0.0


class TestTrajectory:
    def test_csv_format(self):
        traj = Trajectory(np.array([0.0, 0.5]), np.array([0.25, 0.125]),
                          np.array([0.5, 0.25]))
        lines = traj.to_csv().splitlines()
        assert lines[0] == "t,j2,bound"
        assert lines[1] == "0,0.25,0.5"
        assert len(lines) == 3

    def test_full_precision(self):
        v = 0.1234567890123456789
        traj = Trajectory(np.array([0.0]), np.array([v]), np.array([v]))
        field = traj.to_csv().splitlines()[1].split(",")[1]
        assert float(field) == v

    def test_length_and_order_validation(self):
        with pytest.raises(ValidationError):
            Trajectory(np.array([0.0, 1.0]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValidationError):
            Trajectory(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))
        with pytest.raises(ValidationError, match="strictly increasing"):
            Trajectory(np.array([0.0, 0.0]), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("times", [
        [0.0, np.nan, 1.0], [np.nan], [0.0, 1.0, np.inf], [-np.inf, 0.0], [np.inf],
    ])
    def test_nonfinite_times_rejected(self, times):
        # a NaN step compares false both ways, so no order test alone sees it
        with pytest.raises(ValidationError, match="times must be finite"):
            Trajectory(np.array(times), np.zeros(len(times)), np.zeros(len(times)))

    def test_value_equality(self):
        def traj(bound):
            return Trajectory([0.0, 0.5], [0.25, 0.125], [0.5, bound])
        a, same, other = traj(0.25), traj(0.25), traj(0.3)
        assert a == a and a == same and hash(a) == hash(same)
        assert a != other and not (a == other)
        assert a != Trajectory([0.0], [0.25], [0.5]) and a != "t,j2,bound"
        assert same in [other, a] and other not in [a]
        assert {a, same, other} == {a, other} and {a: 1}[same] == 1
