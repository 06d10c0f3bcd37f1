import inspect
import itertools
import math
import re
import signal
import tracemalloc

import numpy as np
import pytest

from gsteer import dynamics
from gsteer.cli import main
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
    random_state,
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

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [True, np.True_, "0.1", 0.1j, None])
    def test_bool_and_non_real_parameters_rejected(self, position, bad):
        # True would be stored as n_th = True and read as 1
        params = [0.5, 0.2, 0.3, 0.1]
        params[position] = bad
        name = ("n_th", "R", "phi", "lam")[position]
        with pytest.raises(ValidationError, match=f"^{name} must be a real number, got "):
            BathParameters(*params)

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

    @pytest.mark.parametrize("bad", [True, np.True_, "1", 1j, None])
    def test_bool_and_non_real_time_rejected(self, bad):
        # True would read as t = 1
        with pytest.raises(ValidationError, match="^t must be a real number, got "):
            evolve(squeezed_vacuum_state(1.0), BathParameters(0.0, 1.0, 0.0, 0.1), bad)

    def test_numpy_time_accepted(self):
        s0, bath = squeezed_vacuum_state(1.0), BathParameters(0.0, 1.0, 0.0, 0.1)
        assert evolve(s0, bath, np.float64(2.5)) == evolve(s0, bath, 2.5)
        assert evolve(s0, bath, np.int64(2)) == evolve(s0, bath, 2.0)

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

    def test_eigensolves_stop_at_the_certified_time(self, count_eigvalsh):
        # this bath's j2 is certifiably 0 from grid index 13 of 601, inside
        # the first block: state0's bona fide test, then one stack of the
        # first block and the envelope's two ends, and no more
        grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
        traj = sweep(squeezed_vacuum_state(1.0), BathParameters(0.3, 0.8, 1.0, 0.1), grid)
        assert count_eigvalsh == [1, PASSAGE_BLOCK + 2]
        assert np.all(traj.j2_values[PASSAGE_BLOCK:] == 0.0)
        assert not np.signbit(traj.j2_values[PASSAGE_BLOCK:]).any()

    @pytest.mark.parametrize("r, bath, grid, tol, solved", [
        # tol 0 with a pure stationary state: lambda_inf = 0 < 2E, no certificate
        (1.0, BathParameters(0.0, 0.8, 1.0, 0.1), np.arange(0.0, 60.0 + 1e-9, 0.1), 0.0,
         [1, 130, 256, 217]),
        # a death inside the first block
        (1.0, BathParameters(0.5, 0.3, 1.0, 0.1), np.arange(0.0, 60.0 + 1e-9, 0.1), 1e-9,
         [1, 130]),
        # small lam, fine dt: the death (index 2136) is in the fifth block
        (1.0, BathParameters(0.5, 0.3, 1.0, 0.01), np.arange(0.0, 30.0, 0.01), 1e-9,
         [1, 130, 256, 512, 1024, 1024]),
        # an irregular grid that does not start at 0, its death in the second block
        (0.7, BathParameters(0.5, 0.3, 1.0, 0.01),
         0.05 + np.cumsum(np.random.default_rng(36).uniform(0.01, 0.2, 400)), 1e-9,
         [1, 130, 256]),
        # a one-point grid
        (1.0, BathParameters(0.5, 0.3, 1.0, 0.1), np.array([7.5]), 1e-9, [1, 3]),
    ])
    def test_certified_tail_matches_per_point_evolve(self, r, bath, grid, tol, solved,
                                                     count_eigvalsh):
        # the certified tail's +0.0 against one evolve and one j2 per time
        # point, byte for byte; the eigensolved stacks show which case ran
        traj = sweep(squeezed_vacuum_state(r), bath, grid, tol)
        assert count_eigvalsh == solved
        expected = "t,j2,bound\n" + "".join(
            f"{t:.17g},{v:.17g},{b:.17g}\n"
            for t, v, b in sweep_points(squeezed_vacuum_state(r), bath, grid, tol))
        assert traj.to_csv() == expected

    def test_blocks_match_one_stack(self, monkeypatch):
        # stack row i equals the one-matrix eigensolve bit for bit, so a
        # 601-point grid in blocks of 7 (the envelope's two ends the tail of
        # the first) reads as one stack
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
        # writes each block's j2 into one preallocated array.  At tol 0 the
        # pure stationary state certifies no time, so every block is solved.
        args = (squeezed_vacuum_state(1.0), BathParameters(0.0, 0.8, 1.0, 0.1))
        sweep(*args, [0.0, 1.0, 2.0], 0.0)

        def traced(grid):
            """The sweep's tracemalloc peak and the bytes of its arrays."""
            tracemalloc.start()
            try:
                traj = sweep(*args, grid, 0.0)
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


SCAN_CASES = [
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
]

# paper_suite's decay orderings: its six passages and their grid indices
PAPER_PASSAGES = [
    *((1.0, BathParameters(0.0, rr, 0.0, 0.1), 0.01, 10.0, 1e-3, k)
      for rr, k in ((2.0, 415), (3.0, 53), (5.0, 1))),
    *((1.0, BathParameters(nth, 0.5, 0.0, 0.1), 0.01, 10.0, 1e-3, k)
      for nth, k in ((10.0, 170), (20.0, 86), (30.0, 58))),
]


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

    def test_threshold_at_or_below_zero_is_never_crossed(self, monkeypatch):
        # clamped j2 >= 0, so no scan: 1e12 grid points here would take days
        calls = _counted_stacks(monkeypatch)
        start, bath = squeezed_vacuum_state(1.0), BathParameters(0, 0, 0, 0.1)
        # short grids first, so that a scan fails here rather than hangs below
        assert first_passage_time(start, bath, 0.0, 1.0, 0.1) == np.inf
        assert first_passage_time(start, bath, -np.inf, 1.0, 0.1) == np.inf
        assert not calls
        assert first_passage_time(start, bath, -1.0, 1e9, 1e-3) == np.inf
        assert not calls
        # the argument checks and state0's bona fide test still come first
        with pytest.raises(ValidationError, match="dt must be"):
            first_passage_time(start, bath, -1.0, 1.0, 0.0)
        cov = np.diag([1.0, 1.0, 0.5, 0.5])  # not bona fide: det of B's block < 1
        with pytest.raises(BonaFideError):
            first_passage_time(GaussianState(1, 1, cov, np.zeros(4)), bath, -1.0, 1.0, 0.1)
        assert not calls

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", [True, np.True_, "1", 1j, None])
    def test_bool_and_non_real_arguments_rejected(self, position, bad):
        # a dt of True read as 1 and gave a passage on the grid 0, 1, 2, ...
        args = [0.01, 10.0, 0.1]
        args[position] = bad
        name = ("threshold", "t_max", "dt")[position]
        with pytest.raises(ValidationError, match=f"^{name} must be a real number, got "):
            first_passage_time(squeezed_vacuum_state(1.0), BathParameters(0.0, 2.0, 0.0, 0.1),
                               *args)

    def test_numpy_arguments_keep_the_passage(self):
        state, bath = squeezed_vacuum_state(1.0), BathParameters(0.0, 2.0, 0.0, 0.1)
        want = first_passage_time(state, bath, 0.01, 10.0, 1e-3)
        assert want == first_passage_scan(state, bath, 0.01, 10.0, 1e-3, 1e-9)
        assert first_passage_time(state, bath, np.float64(0.01), np.float64(10.0),
                                  np.float64(1e-3)) == want
        assert first_passage_time(state, bath, 0.01, np.int64(10), 1e-3) == want

    def test_grid_into_the_last_binade(self):
        # grid times at or above 2^1023 raised a bare OverflowError building the grid
        t = first_passage_time(squeezed_vacuum_state(1.0), BathParameters(0, 0, 0, 0.1),
                               0.01, 1e308, 1e300)
        assert t == 1e300  # j2 = 0 once exp(-lam t) underflows

    def test_nan_threshold_rejected(self):
        # every comparison with NaN is false, so the scan would return inf
        with pytest.raises(ValidationError, match="threshold"):
            first_passage_time(squeezed_vacuum_state(1.0), BathParameters(0, 1, 0, 0.1),
                               np.nan, 1.0, 0.1)

    @pytest.mark.parametrize("r, bath, threshold, t_max, dt", SCAN_CASES)
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


def _counted_stacks(monkeypatch) -> list[int]:
    """The number of grid times each call of the steering kernel in
    ``dynamics`` takes, one entry per call."""
    rows, steering_spectra = [], dynamics._steering_spectra

    def counted(covs, *args, **kwargs):
        rows.append(len(covs) if covs.ndim == 3 else 1)
        return steering_spectra(covs, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_steering_spectra", counted)
    return rows


def _random_relaxation(rng) -> tuple[GaussianState, BathParameters]:
    """A steerable start, squeezed vacuum or random, and a random thermal
    (R = 0) or squeezed bath, slow enough that j2 stays positive for a while."""
    if rng.random() < 0.5:
        state = squeezed_vacuum_state(float(rng.uniform(0.3, 1.5)))
    else:
        state = random_state(1, 1, float(rng.uniform(1.0, 2.0)), rng)
        while j2(state) < 0.2:
            state = random_state(1, 1, float(rng.uniform(1.0, 2.0)), rng)
    if rng.random() < 0.5:
        bath = BathParameters(float(rng.uniform(0.0, 0.1)), 0.0, 0.0, float(rng.uniform(0.01, 0.1)))
    else:
        bath = BathParameters(float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.1, 0.6)),
                              float(rng.uniform(0.0, 6.3)), float(rng.uniform(0.01, 0.1)))
    return state, bath


class TestCertifiedSearch:
    # a power of two, whose times k dt are exact; one with a bit 52 places
    # below its lead, whose products k dt round; and decimal steps
    DTS = [2.0**-7, 2.0**-7 + 2.0**-59, 0.01, 0.0075]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["at zero", "mid-grid", "never", "below the bound"])
    def test_matches_scan_on_random_baths(self, seed, kind, monkeypatch):
        rng = np.random.default_rng([seed, len(kind)])
        state, bath = _random_relaxation(rng)
        dt = self.DTS[seed % len(self.DTS)]
        t_max = float(rng.uniform(1.0, 3.0))
        if kind == "at zero":
            threshold = j2(state) + 1.0
        elif kind == "mid-grid":
            threshold = j2(evolve(state, bath, t_max / 3))
        elif kind == "never":
            threshold = 0.5 * j2(evolve(state, bath, t_max + dt))
        else:
            threshold = 1e-300
        if not threshold > 0.0:  # steering died before t_max: no "never" case here
            threshold = 1e-300
        rows = _counted_stacks(monkeypatch)
        got = first_passage_time(state, bath, threshold, t_max, dt)
        assert got == first_passage_scan(state, bath, threshold, t_max, dt, 1e-9)
        # the search: the last grid time and nine before it first
        assert rows[0] == 10
        if threshold == 1e-300:  # below the bar 8 tol S: the band scan settles it
            return
        assert {"at zero": got == 0.0, "mid-grid": 0.0 < got < t_max,
                "never": got == np.inf}[kind]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_scan_on_thresholds_in_the_clamp_band(self, seed, monkeypatch):
        # thresholds from 1e-12 to 1e-6 lie below 8 tol S, where the tolerance
        # rule may clamp j2 to 0: the search certifies down to the bar
        # 8 tol S + 2E and the band scan runs on from there.  A thermal bath
        # with lam = 1 kills steering well before t_max
        rng = np.random.default_rng([seed, 33])
        state, bath = _random_relaxation(rng)
        bath = BathParameters(bath.n_th + float(rng.uniform(0.1, 0.5)), bath.R, bath.phi, 1.0)
        dt = self.DTS[seed % len(self.DTS)]
        threshold = 10.0 ** rng.uniform(-12.0, -6.0)
        rows = _counted_stacks(monkeypatch)
        got = first_passage_time(state, bath, threshold, 20.0, dt)
        assert got == first_passage_scan(state, bath, threshold, 20.0, dt, 1e-9)
        assert 0.0 < got < 20.0
        assert rows[0] == 10

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_within_the_error_band_scans_on(self, seed, monkeypatch):
        # j2(t_k) lies in [threshold, threshold + 2E), so t_k is neither certified
        # nor a passage: the scan runs on from t_k + dt and finds t_(k+1)
        rng = np.random.default_rng(seed)
        state, bath = _random_relaxation(rng)
        dt = self.DTS[seed]
        times = np.arange(600) * dt
        vals = sweep(state, bath, times).j2_values
        # a time with j2 well above 0 and more than 1e-12 above the next one
        k = rng.choice(np.flatnonzero((vals[1:] > 1e-3) & (vals[:-1] - vals[1:] > 1e-9)))
        threshold = vals[k] - 1e-12
        rows = _counted_stacks(monkeypatch)
        got = first_passage_time(state, bath, threshold, 10.0, dt)
        assert got == first_passage_scan(state, bath, threshold, 10.0, dt, 1e-9) == times[k + 1]
        assert rows[-1] == PASSAGE_BLOCK

    def test_passage_400_times_in_takes_few_eigensolves(self, monkeypatch):
        # a scan of 128-time blocks sends 512 grid times to the eigensolver here
        state, bath = squeezed_vacuum_state(1.0), BathParameters(0.0, 2.0, 0.0, 0.1)
        rows = _counted_stacks(monkeypatch)
        t = first_passage_time(state, bath, 0.01, 10.0, 1e-3)
        assert 0.3 < t < 0.5
        assert sum(rows) <= 64, rows
        assert t == first_passage_scan(state, bath, 0.01, 10.0, 1e-3, 1e-9)

    @pytest.mark.parametrize("call", [
        # passes near the thermal death time ln 2 / lam, about 7e11 grid times in
        (BathParameters(0, 0, 0, 1e-9), 0.01, 1e12, 1e-3),
        # a grid of 1e12 times with no passage
        (BathParameters(0, 0, 0, 1e-12), 0.01, 1e9, 1e-3),
    ])
    def test_huge_grids_take_logarithmic_work(self, call, monkeypatch):
        state, (bath, threshold, t_max, dt) = squeezed_vacuum_state(1.0), call
        rows = _counted_stacks(monkeypatch)
        t = first_passage_time(state, bath, threshold, t_max, dt)
        assert sum(rows) < 2000, rows
        if math.isinf(t):
            assert j2(evolve(state, bath, t_max)) >= threshold
        else:
            assert j2(evolve(state, bath, t)) < threshold <= j2(evolve(state, bath, t - dt)) ++ 1e-12

    def test_threshold_below_the_bar_on_a_huge_grid(self, monkeypatch):
        # 1e-8 lies below the bar 8 tol S, about 1.7e-7 here: the search
        # certifies the 7e11 grid times down to the bar, and the band scan
        # tests the grid times from there to the passage, not from t = 0
        s, bath, dt = squeezed_vacuum_state(1.0), BathParameters(0, 0, 0, 1e-9), 1e-3
        rows = _counted_stacks(monkeypatch)
        t = first_passage_time(s, bath, 1e-8, 1e12, dt)
        assert math.isfinite(t)
        assert j2(evolve(s, bath, t)) < 1e-8 <= j2(evolve(s, bath, t - dt)) + 1e-12
        assert sum(rows) < 10**6, len(rows)


def _sweep_rows(r, bath, t_max, dt, capsys) -> tuple[np.ndarray, np.ndarray]:
    """The t and j2 columns of ``gsteer sweep`` with these flags."""
    flags = {"--r": r, "--nth": bath.n_th, "--R": bath.R, "--phi": bath.phi,
             "--lambda": bath.lam, "--tmax": t_max, "--dt": dt}
    assert main(["sweep", *itertools.chain.from_iterable(
        (flag, repr(value)) for flag, value in flags.items())]) == 0
    rows = np.loadtxt(capsys.readouterr().out.splitlines()[1:], delimiter=",", ndmin=2)
    return rows[:, 0], rows[:, 1]


class TestPassageOnTheSweepGrid:
    """A passage is a time of np.arange(0.0, t_max + dt / 2, dt), the grid
    ``gsteer sweep`` evaluates with the same flags."""

    @staticmethod
    def _check(r, bath, threshold, t_max, dt, capsys) -> float:
        t = first_passage_time(squeezed_vacuum_state(r), bath, threshold, t_max, dt)
        grid = np.arange(0.0, t_max + dt / 2, dt)
        times, j2s = _sweep_rows(r, bath, t_max, dt, capsys)
        assert np.array_equal(times, grid)
        if math.isinf(t):
            assert np.all(j2s >= threshold)
            return t
        assert type(t) is float
        assert t in grid
        k = int(np.flatnonzero(grid == t)[0])  # the sweep's row at t
        assert j2s[k] < threshold
        assert np.all(j2s[:k] >= threshold - 1e-12)
        return t

    @pytest.mark.parametrize("r, bath, threshold, t_max, dt", SCAN_CASES)
    def test_scan_cases(self, r, bath, threshold, t_max, dt, capsys):
        self._check(r, bath, threshold, t_max, dt, capsys)

    @pytest.mark.parametrize("r, bath, threshold, t_max, dt, k", PAPER_PASSAGES)
    def test_paper_suite_passages_keep_their_index(self, r, bath, threshold, t_max, dt, k,
                                                     capsys):
        assert self._check(r, bath, threshold, t_max, dt, capsys) == k * dt

    @pytest.mark.parametrize("dt", [1e-3, 0.1, 1 / 3, 2.0**-10, 2.0**-7 + 2.0**-59])
    @pytest.mark.parametrize("steps", [1000.0, 1000.5, 1001.5])
    def test_passage_on_the_last_grid_time(self, dt, steps):
        # t_max = (k + 1/2) dt puts t_max + dt / 2 on a grid time, where the
        # rounding of (t_max + dt / 2) / dt decides numpy's length.  A
        # threshold between j2 at the last two grid times gives the last one;
        # one between j2 there and at the time after it gives inf
        state, bath = squeezed_vacuum_state(1.0), BathParameters(0.0, 0.0, 0.0, 0.1 / (1000 * dt))
        t_max = steps * dt
        grid = np.arange(0.0, t_max + dt / 2, dt)
        after = len(grid) * dt
        before_last, last, past = sweep(state, bath, np.append(grid[-2:], after)).j2_values
        assert before_last - last > 1e-9 and last - past > 1e-9
        assert first_passage_time(state, bath, (before_last + last) / 2, t_max, dt) == grid[-1]
        assert first_passage_time(state, bath, (last + past) / 2, t_max, dt) == np.inf


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

    def test_csv_blocks_match_per_row_format(self):
        # the rows go out in blocks of SWEEP_BLOCK through one % format each;
        # the edge values sit on both sides of a block boundary
        edge = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, np.finfo(float).max]
        n = dynamics.SWEEP_BLOCK + len(edge)
        vals = np.linspace(-1.0, 1.0, n)
        vals[dynamics.SWEEP_BLOCK - 3:dynamics.SWEEP_BLOCK + 4] = edge
        times = np.arange(n) * 0.1
        times[1:3] = 5e-324, 1e-300
        traj = Trajectory(times, vals, vals[::-1].copy())
        expected = "t,j2,bound\n" + "".join(
            f"{t:.17g},{v:.17g},{b:.17g}\n" for t, v, b in zip(times, vals, vals[::-1]))
        assert traj.to_csv() == expected

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
