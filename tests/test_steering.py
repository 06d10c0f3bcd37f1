import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gsteer import fixtures
from gsteer.linalg import ValidationError
from gsteer.states import (
    BonaFideError,
    GaussianState,
    make_state,
    mix_covariances,
    random_state,
    schmidt_pure_state,
    squeezed_vacuum_state,
    standard_form_state,
)
from gsteer.steering import (
    SteeringReport,
    _steering_spectra,
    is_unsteerable,
    j1,
    j2,
    j_closed_schmidt,
    j_closed_standard,
    j_values,
    n3_bound_grid,
    n3_upper_bound_pure,
    pure_family_state,
    steering_matrix,
    steering_report,
)
from gsteer.verify import faithfulness_trials, mixture_bound_trials, upward_closure_trials
from oracles import (
    bound_chain_scan,
    n3_bound_grid_cells,
    n3_grid_lines,
    pure_overlap_2mode,
    random_orthogonal,
    random_orthogonal_symplectic,
    schur_complement,
    schur_unsteerable_margin,
    standard_form_unsteerable_inequality,
)

SQRT13 = 3.605551275463989
J1_GAMMA2 = 0.0756939094329987       # (5 + sqrt(13))/8 - 1
J2_GAMMA2 = 0.6055512754639891       # sqrt(13) - 3
MIN_EIG_R2 = -0.30277563773199456    # (3 - sqrt(13))/2


class TestSteeringMatrix:
    def test_vacuum_spectrum(self):
        s = make_state(1, 1, np.eye(4))
        m = steering_matrix(s)
        assert np.array_equal(m[:2, :2], np.eye(2))
        assert np.allclose(np.linalg.eigvalsh(m), [0.0, 1.0, 1.0, 2.0])

    def test_pure_family_r1_spectrum(self):
        ev = np.linalg.eigvalsh(steering_matrix(pure_family_state(1.0)))
        assert np.allclose(ev, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_pure_family_r2_negative_eigenvalue(self):
        ev = np.linalg.eigvalsh(steering_matrix(pure_family_state(2.0)))
        assert ev[0] == pytest.approx(MIN_EIG_R2, abs=1e-12)

    def test_offset_only_on_b_block(self):
        s = schmidt_pure_state(2, 1, [1.5])
        m = steering_matrix(s)
        assert np.array_equal(m[:4, :4].imag, np.zeros((4, 4)))
        assert np.allclose(m[4:, 4:].imag, [[0.0, 1.0], [-1.0, 0.0]])


class TestIsUnsteerable:
    def test_boundary_thermal_state(self):
        # a(b - 1) - c^2 = 2 - 1 = 1 >= 0 for a = b = 2, c = d = 1
        assert is_unsteerable(standard_form_state(2.0, 2.0, 1.0, 1.0)).ok

    def test_pure_family_r1(self):
        assert is_unsteerable(pure_family_state(1.0)).ok

    def test_pure_family_r2(self):
        rep = is_unsteerable(pure_family_state(2.0))
        assert not rep.ok
        assert rep.min_eigenvalue == pytest.approx(MIN_EIG_R2, abs=1e-12)


class TestJValues:
    def test_unsteerable_states_give_exact_zero(self):
        for s in (make_state(1, 1, np.eye(4)),
                  standard_form_state(2.0, 2.0, 1.0, 1.0),
                  pure_family_state(1.0)):
            assert j1(s) == 0.0
            assert j2(s) == 0.0

    def test_gamma2_closed_values(self):
        s = pure_family_state(2.0)
        assert j1(s) == pytest.approx(J1_GAMMA2, abs=1e-12)
        assert j2(s) == pytest.approx(J2_GAMMA2, abs=1e-12)

    def test_pure_family_formula_across_grid(self):
        # j2 = 1 - 2r + sqrt(4r^2 - 3) on the pure family
        for r in np.arange(1.0, 6.0, 0.25):
            expected = 1.0 - 2.0 * r + np.sqrt(4.0 * r * r - 3.0)
            assert j2(pure_family_state(r)) == pytest.approx(expected, abs=1e-11)

    def test_squeezed_vacuum_value(self):
        ch = np.cosh(2.0)
        expected = 1.0 + np.sqrt(4.0 * ch * ch - 3.0) - 2.0 * ch
        assert j2(squeezed_vacuum_state(1.0)) == pytest.approx(expected, abs=1e-12)

    def test_raw_values_unclamped(self):
        s = make_state(1, 1, np.eye(4))
        j1_raw, j2_raw = j_values(s, clamp=False)
        assert abs(j1_raw) < 1e-12 and abs(j2_raw) < 1e-12

    def test_report_fields(self):
        rep = steering_report(pure_family_state(2.0))
        assert isinstance(rep, SteeringReport)
        assert not rep.unsteerable
        assert rep.j1 == pytest.approx(J1_GAMMA2, abs=1e-12)
        assert rep.j2 == pytest.approx(J2_GAMMA2, abs=1e-12)
        assert rep.min_eigenvalue == pytest.approx(MIN_EIG_R2, abs=1e-12)
        assert rep.tol_used == 1e-9

    @pytest.mark.parametrize("cov", [-np.eye(4), np.zeros((4, 4))], ids=["negative", "zero"])
    @pytest.mark.parametrize("quantify", [j_values, j1, j2, steering_report])
    def test_rejects_nonpositive_trace(self, quantify, cov):
        # j1 = j2 / Tr(cov) would be negative, or infinite with a numpy
        # divide-by-zero warning; a bona fide covariance has Tr(cov) >= d
        state = GaussianState(1, 1, cov, np.zeros(4))
        with pytest.raises(ValidationError, match=r"^Tr\(cov\) must be positive, got "):
            quantify(state)

    def test_report_json_round_trip(self):
        import json

        rep = steering_report(pure_family_state(1.5))
        doc = json.loads(rep.to_json())
        # key order is part of the CLI's output bytes
        assert list(doc) == ["unsteerable", "j1", "j2", "min_eigenvalue", "tol_used"]
        assert doc == {key: getattr(rep, key) for key in doc}

    # the report once kept the caller's tol object, which json cannot
    # write, and a -0.0 tol printed as "tol_used": -0.0
    @pytest.mark.parametrize("tol", [np.float32(2.0**-20), Fraction(1, 2**20), np.int64(0),
                                     -0.0], ids=["float32", "Fraction", "int64", "-0.0"])
    def test_report_keeps_the_rules_float(self, tol):
        state = pure_family_state(1.5)
        rep = steering_report(state, tol)
        assert type(rep.tol_used) is float and math.copysign(1.0, rep.tol_used) == 1.0
        assert rep == steering_report(state, float(tol) + 0.0)
        assert json.loads(rep.to_json())["tol_used"] == float(tol)


def tolerance_band_witness():
    """(1+2)-mode state: A1/B1 in standard form with a = b = 5 and c = -d just
    past the steering boundary, B2 in vacuum; lambda_min is -1.05e-8."""
    c = 4.472135965565
    cov = np.eye(6)
    cov[:4, :4] = [[5.0, 0.0, c, 0.0], [0.0, 5.0, 0.0, -c],
                   [c, 0.0, 5.0, 0.0], [0.0, -c, 0.0, 5.0]]
    return make_state(1, 2, cov)


class TestJValuesStack:
    def test_rows_equal_single_state_values(self):
        # steerable and unsteerable rows, (1+1) and (1+2), at several tols;
        # equal, not close, to j_values on each matrix
        rng = np.random.default_rng(17)
        for modes_b in (1, 2):
            states = [random_state(1, modes_b, 4.0, rng) for _ in range(30)]
            covs = np.array([st.cov for st in states])
            traces = np.trace(covs, axis1=1, axis2=2)
            for tol in (1e-9, 1e-6, 0.0):
                _, _, j2s = _steering_spectra(covs, 1, modes_b, tol)
                assert list(zip(j2s / traces, j2s)) == [j_values(st, tol) for st in states]
                assert np.any(j2s == 0.0) and np.any(j2s > 0.0)

    def test_rounding_guard_and_band_witness_rows(self):
        # the rows where the verdict and the clamp decide: the band witness,
        # and rotated rows whose lambda_min is 0 up to rounding, so that at
        # tol 0 some are steerable with j2 = 2 * |lambda_min| at rounding level
        rows = [tolerance_band_witness()]
        for k in range(40):
            c, s_ = np.cos(0.1 * k), np.sin(0.1 * k)
            rot = np.array([[c, -s_], [s_, c]])
            cov = np.zeros((6, 6))
            cov[:2, :2] = 3.0 * np.eye(2)
            cov[2:4, 2:4] = rot @ np.diag([3.0, 1.0 / 3.0]) @ rot.T
            cov[4:, 4:] = np.eye(2)
            rows.append(make_state(1, 2, cov))
        covs = np.array([st.cov for st in rows])
        traces = np.trace(covs, axis1=1, axis2=2)
        for tol in (1e-9, 1e-8, 0.0):
            _, _, j2s = _steering_spectra(covs, 1, 2, tol)
            assert list(zip(j2s / traces, j2s)) == [j_values(st, tol) for st in rows]
        # at tol 0 rounding makes some rotated rows steerable
        assert np.count_nonzero(j2s[1:]) > 0

    def test_single_matrix_is_the_one_row_stack(self):
        # a (d, d) call and a (1, d, d) call: spectra, verdicts and j2 at
        # both clamps bit for bit; and the public single-state values, j1 over
        # ndarray.trace, are the rows of one stacked call, bit for bit.  The
        # rows have 0, 1, 2 and 3 or more negative steering eigenvalues, so
        # both ways the single-state j2 is summed meet the stack's rows; the
        # scaled-down covariances (not bona fide, built directly) supply the
        # rows with 3 to 5
        rng = np.random.default_rng(19)
        negatives = set()
        for modes_a, modes_b in ((1, 1), (1, 2), (2, 2), (3, 3), (1, 5)):
            dim = 2 * (modes_a + modes_b)
            rows = [random_state(modes_a, modes_b, 4.0, rng) for _ in range(30)]
            rows.append(make_state(modes_a, modes_b, 3.0 * np.eye(dim)))  # thermal: unsteerable
            if (modes_a, modes_b) == (1, 2):
                rows.append(tolerance_band_witness())
            if modes_b >= 3:
                rows += [GaussianState(modes_a, modes_b, scale * st.cov, st.mean)
                         for scale in (0.05, 0.2, 0.5) for st in rows[:10]]
            covs = np.array([st.cov for st in rows])
            verdicts = set()
            for tol in (1e-9, 0.0):
                for clamp in (True, False):
                    ev, ok, j2s = _steering_spectra(covs, modes_a, modes_b, tol, clamp)
                    verdicts.update(ok.tolist())
                    negatives.update(np.minimum(np.count_nonzero(ev < 0.0, axis=-1), 3).tolist())
                    for i, st in enumerate(rows):
                        single = _steering_spectra(st.cov, modes_a, modes_b, tol, clamp)
                        stacked = _steering_spectra(st.cov[None], modes_a, modes_b, tol, clamp)
                        assert [x.shape for x in single] == [(dim,), (), ()]
                        for one, stack, row in zip(single, stacked, (ev, ok, j2s)):
                            assert one.tobytes() == stack[0].tobytes() == row[i].tobytes()
                        j1_val, j2_val = j_values(st, tol, clamp)
                        assert type(j1_val) is type(j2_val) is float
                        assert (j1_val, j2_val) == (j2s[i] / st.cov.trace(), j2s[i])
                        assert j2_val.hex() == float(j2s[i]).hex()  # +0.0, not -0.0
                        if clamp:
                            assert steering_report(st, tol) == SteeringReport(
                                bool(ok[i]), j1_val, j2_val, float(ev[i, 0]), tol)
            assert verdicts == {True, False}, (modes_a, modes_b)
        assert negatives == {0, 1, 2, 3}


def unsteerable_states(count, seed):
    """The first ``count`` random (1+1) states unsteerable at tol 1e-9."""
    rng = np.random.default_rng(seed)
    states = []
    while len(states) < count:
        s = random_state(1, 1, 2.0, rng)
        if is_unsteerable(s).ok:
            states.append(s)
    return states


class TestNegativeSpectrumForm:
    # j2 = 2 * sum|lambda_neg| and j1 = j2 / Tr(cov), since i*Omega_B is traceless

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_j1_is_j2_over_trace(self, tol):
        # Tr(cov) is ndarray.trace, bit for bit: from d = 8 on numpy sums the
        # diagonal pairwise, and a left-to-right sum differs from it in the
        # last bit on many (2+2) and (3+3) states
        rng = np.random.default_rng(23)
        for modes_a, modes_b in ((1, 1), (1, 2), (2, 2), (3, 3)):
            j2_seen = []
            for s in [random_state(modes_a, modes_b, 4.0, rng) for _ in range(40)]:
                for clamp in (True, False):
                    j1_val, j2_val = j_values(s, tol, clamp)
                    assert j1_val == j2_val / np.trace(s.cov)
                    j2_seen.append(j2_val)
            assert any(val > 0.0 for val in j2_seen)

    def test_raw_values_never_negative_or_negative_zero(self):
        for s in [make_state(1, 1, np.eye(4))] + unsteerable_states(100, 29):
            for val in j_values(s, clamp=False):
                assert val >= 0.0
                assert math.copysign(1.0, val) == 1.0

    def test_squeezed_vacuum_matches_cancellation_free_closed_form(self):
        # 1 + sqrt(4 ch^2 - 3) - 2 ch with ch = cosh 2r, rewritten without
        # the difference of large terms
        for r in np.linspace(3.0 / 400, 3.0, 400):
            ch = np.cosh(2.0 * r)
            exact = 8.0 * np.sinh(r) ** 2 / (np.sqrt(4.0 * ch * ch - 3.0) + 2.0 * ch - 1.0)
            raw = j2(squeezed_vacuum_state(r), clamp=False)
            assert abs(raw - exact) <= 1e-11 * exact


class TestSchurComplementOracle:
    # margins this close to 0 are rounding-level on either route
    BAND = 1e-7

    @pytest.mark.parametrize("modes_b, max_eigen, seed", [(1, 2.0, 31), (2, 3.0, 37)])
    def test_agrees_with_is_unsteerable(self, modes_b, max_eigen, seed):
        rng = np.random.default_rng(seed)
        verdicts = []
        for _ in range(1000):
            s = random_state(1, modes_b, max_eigen, rng)
            margin = schur_unsteerable_margin(s)
            if abs(margin) <= self.BAND:
                continue
            verdicts.append(margin > 0.0)
            assert verdicts[-1] == is_unsteerable(s).ok
        assert len(verdicts) > 990
        assert 100 < sum(verdicts) < len(verdicts) - 100

    def test_one_mode_determinant_form(self):
        # for one B mode, G_B - C^T G_A^-1 C + i*Omega >= 0 iff the 2x2
        # Schur complement (positive definite here) has determinant >= 1
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(1000):
            s = random_state(1, 1, 2.0, rng)
            det = float(np.linalg.det(schur_complement(s)))
            if abs(det - 1.0) <= self.BAND:
                continue
            checked += 1
            assert (det > 1.0) == is_unsteerable(s).ok
        assert checked > 990


class TestToleranceBandWitness:
    # at tol 1e-9 the verdict threshold is 1e-8 (lambda_max ~ 10) but
    # j2 = 2.1e-8 lies below tol * Tr(cov) = 2.2e-8; at tol 1e-8 it is unsteerable
    @pytest.mark.parametrize("tol", [1e-9, 1e-8])
    def test_zero_iff_unsteerable(self, tol):
        s = tolerance_band_witness()
        rep = steering_report(s, tol)
        verdict = bool(is_unsteerable(s, tol).ok)
        j1_val, j2_val = j_values(s, tol)
        assert rep.unsteerable == verdict == (j1_val == 0.0) == (j2_val == 0.0)
        assert (rep.j1, rep.j2) == (j1_val, j2_val)

    def test_steerable_at_default_tol_with_raw_values(self):
        s = tolerance_band_witness()
        rep = steering_report(s)
        assert rep.min_eigenvalue == pytest.approx(-1.05e-8, rel=1e-3)
        assert not rep.unsteerable
        assert (rep.j1, rep.j2) == j_values(s, clamp=False)
        assert rep.j2 > 0.0

    def test_zero_iff_unsteerable_at_zero_tol(self):
        # B is a rotated pure squeezed state, so lambda_min is 0 up to
        # rounding; where rounding makes it negative the tol = 0 verdict is
        # steerable and both j values must be positive, not 0 or negative
        steerable = 0
        for k in range(40):
            c, s_ = np.cos(0.1 * k), np.sin(0.1 * k)
            rot = np.array([[c, -s_], [s_, c]])
            cov = np.zeros((4, 4))
            cov[:2, :2] = 3.0 * np.eye(2)
            cov[2:, 2:] = rot @ np.diag([3.0, 1.0 / 3.0]) @ rot.T
            s = make_state(1, 1, cov)
            rep = steering_report(s, 0.0)
            j1_val, j2_val = j_values(s, 0.0)
            assert rep.unsteerable == bool(is_unsteerable(s, 0.0).ok)
            assert rep.unsteerable == (j1_val == 0.0) == (j2_val == 0.0)
            assert j1_val >= 0.0 and j2_val >= 0.0
            steerable += not rep.unsteerable
        assert steerable > 0

    def test_bundled_fixture_is_the_witness(self):
        s = fixtures.load_state(fixtures.STATE_TOLERANCE_BAND_WITNESS)
        assert (s.modes_a, s.modes_b) == (1, 2)
        assert np.array_equal(s.cov, tolerance_band_witness().cov)


class TestClosedFormSchmidt:
    def test_all_ones_vanish(self):
        assert j_closed_schmidt(1, 1, [1.0]) == (0.0, 0.0)
        assert j_closed_schmidt(2, 2, [1.0, 1.0]) == (0.0, 0.0)

    def test_gamma2(self):
        j1_val, j2_val = j_closed_schmidt(1, 1, [2.0])
        assert j1_val == pytest.approx(J1_GAMMA2, abs=1e-15)
        assert j2_val == pytest.approx(J2_GAMMA2, abs=1e-15)

    def test_padding_terms(self):
        # unpaired vacuum modes enter numerator and denominator as 2|n - m|
        j1_val, j2_val = j_closed_schmidt(1, 3, [1.0])
        assert j1_val == 0.0 and j2_val == 0.0
        j1_pad, _ = j_closed_schmidt(1, 3, [2.0])
        j1_tight, _ = j_closed_schmidt(1, 1, [2.0])
        assert 0.0 < j1_pad < j1_tight

    def test_matches_assembled_states(self):
        for modes in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3)):
            rng = np.random.default_rng(sum(modes))
            gammas = 1.0 + 3.0 * rng.random(min(modes))
            closed = j_closed_schmidt(*modes, gammas)
            s = schmidt_pure_state(*modes, gammas)
            raw = j_values(s, clamp=False)
            assert abs(closed[0] - max(raw[0], 0.0)) < 1e-10
            assert abs(closed[1] - max(raw[1], 0.0)) < 1e-10

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValidationError):
            j_closed_schmidt(1, 1, [0.5])

    @pytest.mark.parametrize("modes, gammas", [((1, 1), [np.nan]), ((1, 1), [np.inf]),
                                               ((0, 1), []), ((1, 0), [])])
    def test_rejects_what_schmidt_pure_state_rejects(self, modes, gammas):
        # the closed form used to return (nan, nan), warn, or (0.0, 0.0) here
        for build in (j_closed_schmidt, schmidt_pure_state):
            with pytest.raises(ValidationError):
                build(*modes, gammas)


    @pytest.mark.parametrize("gamma, j2_want", [(1e8, 1.0 - 7.5e-9), (1e150, 1.0)])
    def test_large_factor_without_cancellation(self, gamma, j2_want):
        # exact j2 = 1 - 3 / (4 gamma) to first order; 1 - 2g + sqrt(4g^2 - 3)
        # gave 1.0 at 1e8 and 0.0 at 1e150
        j1_val, j2_val = j_closed_schmidt(1, 1, [gamma])
        assert j2_val == pytest.approx(j2_want, rel=1e-15)
        assert j1_val == j2_val / (4.0 * gamma)

    def test_overflowing_factor_rejected_without_warning(self):
        # the old closed form returned (inf, inf) after an overflow warning
        for build in (j_closed_schmidt, schmidt_pure_state):
            with pytest.raises(ValidationError, match="^cov contains non-finite entries$"):
                build(1, 1, [1e155])


class TestClosedFormStandard:
    def test_unsteerable_region(self):
        assert j_closed_standard(2.0, 2.0, 1.0, 1.0) == (0.0, 0.0)
        assert j_closed_standard(1.0, 1.0, 0.0, 0.0) == (0.0, 0.0)

    def test_squeezed_thermal_family(self):
        for r in (0.3, 0.8, 1.2):
            a = np.cosh(2 * r)
            c = np.sinh(2 * r)
            _, j2_val = j_closed_standard(a, a, c, -c)
            expected = 1.0 + np.sqrt(4.0 * a * a - 3.0) - 2.0 * a
            assert j2_val == pytest.approx(expected, abs=1e-12)

    def test_requires_c_equal_abs_d(self):
        with pytest.raises(ValidationError, match=r"c = \|d\|"):
            j_closed_standard(2.0, 2.0, 1.0, 0.5)

    @pytest.mark.parametrize("params, name", [
        ((2, 2, "x", 1), "c"), ((2, 2, 1, None), "d"), ((2, 2, 1j, 1), "c"), ((True, 2, 1, 1), "a"),
    ])
    def test_real_number_rule_comes_before_c_equal_abs_d(self, params, name):
        # "x" and None raised a bare TypeError, and 1j "requires c = |d|"
        with pytest.raises(ValidationError, match=f"^{name} must be a real number, got "):
            j_closed_standard(*params)

    def test_rejects_what_standard_form_state_rejects(self):
        # within the constraints' slack 1e-9 (ab)^2, but cov + i*Omega has
        # min eigenvalue -5.0e-4; the closed form returned (2.5e-4, 1.00025)
        for build in (standard_form_state, j_closed_standard):
            with pytest.raises(BonaFideError):
                build(1e3, 1e3, 1e3, -1e3)

    def test_slack_overflow_is_a_validation_error(self):
        # a valid two-mode thermal state whose (ab)^2 overflows: the eigen
        # test of make_state needs no slack and accepts it
        assert np.array_equal(standard_form_state(1e100, 1e100, 0.0, 0.0).cov,
                              1e100 * np.eye(4))
        # the states pass the bona fide test, but 4c^2 or (a - b + 1)^2
        # overflows the root; Python floats must not raise OverflowError
        for params, a_text in (((1e154, 1e154, 1e154, -1e154), r"1e\+154"),
                               ((1e200, 1.0, 0.0, 0.0), r"1e\+200")):
            for cast in (float, np.float64):
                with pytest.raises(ValidationError, match=f"overflows at a = {a_text}, "):
                    j_closed_standard(*map(cast, params))

    @pytest.mark.parametrize("params", [(2.0, 2.0, 1.0, 1.0), (3.0, 2.0, 2.0, -2.0)])
    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_returns_python_floats(self, params, cast):
        values = j_closed_standard(*map(cast, params))
        assert [type(v) for v in values] == [float, float]

    def test_matches_assembled_states_on_grid(self):
        for a in np.linspace(1.0, 6.0, 6):
            for b in np.linspace(1.0, 6.0, 6):
                cmax = np.sqrt(a * b - 1.0)
                for c in np.linspace(0.0, 0.95 * cmax, 5):
                    for d in (c, -c):
                        try:
                            s = standard_form_state(a, b, c, d)
                        except ValidationError:
                            continue
                        closed = j_closed_standard(a, b, c, d)
                        raw = j_values(s, clamp=False)
                        assert abs(closed[0] - max(raw[0], 0.0)) < 1e-10
                        assert abs(closed[1] - max(raw[1], 0.0)) < 1e-10


class TestBoundChain:
    # verify's bound-chain check stacks the pure_family_state covariances
    RS = np.arange(1.0, 10.0 + 1e-12, 0.01)

    def test_matches_per_r_loop(self):
        from gsteer.verify import _bound_chain

        assert _bound_chain(self.RS) == bound_chain_scan(self.RS) == (True, "")

    @pytest.mark.parametrize("z, first_failure", [
        (lambda r: j_closed_schmidt(1, 1, [r])[1] + 1e-6 if r > 4.365
         else n3_upper_bound_pure(r), "violated at r = 4.37"),
        (lambda r: j_closed_schmidt(1, 1, [r])[1] - 5e-10 if r > 2.495
         else n3_upper_bound_pure(r), "violated at r = 2.50"),
        (lambda r: -1e-6 if r == 1.0 else n3_upper_bound_pure(r), "not equal at r = 1"),
        (lambda r: 1e-6 if r == 1.0 else n3_upper_bound_pure(r), "violated at r = 1.00"),
    ])
    def test_same_first_failure_as_per_r_loop(self, monkeypatch, z, first_failure):
        import gsteer.verify as verify

        monkeypatch.setattr(verify, "n3_upper_bound_pure", z)
        ok, detail = verify._bound_chain(self.RS)
        assert (ok, detail) == bound_chain_scan(self.RS, z)
        assert not ok and detail.startswith(first_failure)


class TestFidelityBound:
    def test_closed_bound_values(self):
        assert n3_upper_bound_pure(1.0) == 0.0
        assert n3_upper_bound_pure(5.0) == pytest.approx(0.5)
        grid = [n3_upper_bound_pure(r) for r in np.linspace(1, 50, 40)]
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] < 1.0

    def test_rejects_r_below_one(self):
        with pytest.raises(ValidationError):
            n3_upper_bound_pure(0.5)

    @pytest.mark.parametrize("r", [0.5, np.nan, np.inf, -np.inf, True, np.True_])
    @pytest.mark.parametrize("build", [pure_family_state, n3_upper_bound_pure, n3_bound_grid])
    def test_one_family_parameter_rule(self, build, r):
        rule = r"in \[1, inf\)" if isinstance(r, float) else "a real number"
        with pytest.raises(ValidationError, match=f"^r must be {rule}, got "):
            build(r)

    @pytest.mark.parametrize("density", [30.0, 2.5, True, 1, "30"])
    def test_grid_density_must_be_an_integer(self, density):
        rule = r"in \[2, inf\)" if type(density) is int else "an integer"
        with pytest.raises(ValidationError, match=f"^grid_density must be {rule}, got "):
            n3_bound_grid(2.0, density)
        assert n3_bound_grid(2.0, np.int64(5)) == n3_bound_grid(2.0, 5)

    def test_rejects_r_whose_grid_overflows(self):
        # the largest cell's determinant is about (2r + 4)^4, finite up to
        # r ~ 5.79e76; beyond it numpy would warn on the overflow and inf - inf
        assert 0.0 <= n3_bound_grid(5e76, 3) <= 1.0
        for r in (1e77, 1e200, np.finfo(float).max):
            with pytest.raises(ValidationError, match=r"^the grid's determinant overflows at r = "):
                n3_bound_grid(r, 3)

    def test_overlap_vacuum_with_itself(self):
        vac = make_state(1, 1, np.eye(4))
        assert pure_overlap_2mode(vac, vac) == pytest.approx(1.0, abs=1e-14)

    def test_overlap_against_direct_determinant(self):
        vac = make_state(1, 1, np.eye(4))
        for r in (1.0, 2.0, 4.0):
            p = pure_family_state(r)
            direct = 4.0 / np.sqrt(np.linalg.det(p.cov + np.eye(4)))
            assert pure_overlap_2mode(p, vac) == pytest.approx(direct, abs=1e-14)
        # known value: overlap with vacuum is 2/(r + 1)
        assert pure_overlap_2mode(pure_family_state(2.0), vac) == pytest.approx(2 / 3, abs=1e-12)

    def test_overlap_symmetric_for_pure_pair(self):
        p1 = pure_family_state(1.5)
        p2 = squeezed_vacuum_state(0.5)
        assert pure_overlap_2mode(p1, p2) == pytest.approx(pure_overlap_2mode(p2, p1), abs=1e-13)

    def test_overlap_rejects_mixed_first_argument(self):
        thermal = make_state(1, 1, 2.0 * np.eye(4))
        with pytest.raises(ValidationError, match="pure"):
            pure_overlap_2mode(thermal, make_state(1, 1, np.eye(4)))

    def test_overlap_rejects_nonzero_mean(self):
        vac = make_state(1, 1, np.eye(4))
        shifted = make_state(1, 1, np.eye(4), mean=[1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="zero mean"):
            pure_overlap_2mode(vac, shifted)

    def test_overlap_rejects_wrong_partition(self):
        with pytest.raises(ValidationError):
            pure_overlap_2mode(schmidt_pure_state(1, 2, [1.0]),
                               schmidt_pure_state(1, 2, [1.0]))

    def test_grid_returns_zero_at_r1(self):
        # the vacuum grid point matches the r = 1 state exactly
        assert n3_bound_grid(1.0, grid_density=9) <= 1e-12

    def test_grid_refinement_never_increases(self):
        # densities 5 -> 9 -> 17 nest (same endpoints, doubled resolution)
        vals = [n3_bound_grid(2.0, grid_density=d) for d in (5, 9, 17)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_grid_between_closed_bound_and_j2(self):
        for r in (2.0, 3.0, 5.0):
            for density in (17, 20, 30):
                v = n3_bound_grid(r, grid_density=density)
                assert n3_upper_bound_pure(r) - 1e-12 <= v <= j2(pure_family_state(r)) + 1e-6

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 5.0, 10.0, 100.0])
    def test_closed_bound_attained_by_unsteerable_witness(self, r):
        # a = 2(r+1)/(r+3), b = (3r+1)/(r+3), c = -d = sqrt(ab - a) is a
        # standard form on the steering boundary (ab - c^2)(ab - d^2) = a^2
        # whose overlap with the r-family state gives the closed bound z(r)
        a = 2.0 * (r + 1.0) / (r + 3.0)
        b = (3.0 * r + 1.0) / (r + 3.0)
        c = math.sqrt(a * b - a)
        witness = standard_form_state(a, b, c, -c)
        assert is_unsteerable(witness, 1e-9).ok
        overlap = pure_overlap_2mode(pure_family_state(r), witness)
        assert abs((1.0 - overlap) - n3_upper_bound_pure(r)) <= 1e-12

    def test_grid_argmax_reproduces_bound_through_state_overlap(self):
        # independent route: rebuild the oracle's maximizer as a state and
        # recompute the overlap through the 4x4 determinant
        bound = n3_bound_grid(2.0, grid_density=13)
        a, b, c, d = n3_bound_grid_cells(2.0, 13)[1]
        sigma = standard_form_state(a, b, c, d)
        assert is_unsteerable(sigma, 1e-9).ok
        overlap = pure_overlap_2mode(pure_family_state(2.0), sigma)
        assert bound == pytest.approx(1.0 - overlap, abs=1e-12)

    @pytest.mark.parametrize("density", [2, 3, 4, 5, 13, 20, 30, 40, 50])
    def test_grid_matches_cell_by_cell_oracle(self, density):
        # equal, not close: same cells, same arithmetic.  Edges: density 2
        # (corners only); r = 1 at an even density, whose c grid has no
        # c = 0 line except at a = b = 1, and whose first chunk holds the
        # least det; r = 1e3; at density 3, r = 5e76 just below the overflow
        # gate; at density 50, r = 50, whose 32 cheapest lines hold no
        # admissible cell (TestGridSearch covers that and the other cases)
        rs = [1.0, 2.0, 3.0, 5.0] + np.random.default_rng(density).uniform(1.0, 6.0, 3).tolist()
        rs += [1e3] + [5e76] * (density == 3) + [50.0] * (density == 50)
        for r in rs:
            assert n3_bound_grid(r, density) == n3_bound_grid_cells(r, density)[0], r

    def test_inequality_matches_psd_criterion(self):
        # closed unsteerability inequality for standard forms vs the PSD test
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 200:
            a, b = 1.0 + 3.0 * rng.random(2)
            cmax = np.sqrt(a * b - 1.0)
            c, d = (2.0 * rng.random(2) - 1.0) * cmax
            try:
                s = standard_form_state(a, b, c, d)
            except ValidationError:
                continue
            checked += 1
            rep = is_unsteerable(s, 1e-9)
            margin = rep.min_eigenvalue / max(1.0, abs(rep.max_eigenvalue))
            if abs(margin) < 1e-6:
                continue
            assert standard_form_unsteerable_inequality(a, b, c, d) == rep.ok


class TestGridSearch:
    """The line search of n3_bound_grid: the n cheapest lines (a, b, c) by
    the bound |X| min|Y| first, then at most n^2 at a time, until no line
    left has a bound below the least admissible det found."""

    @pytest.mark.parametrize("r, density", [(1.0, 20), (2.0, 20), (3.0, 30), (5e76, 3)])
    def test_no_line_holds_an_admissible_det_below_its_bound(self, r, density):
        # what makes skipping a line exact (the stress cases check it too)
        bound, least = n3_grid_lines(r, density)
        assert np.all(least >= bound)

    @pytest.mark.parametrize("r, density, case", [
        (50.0, 50, "32 cheapest empty"),
        (1.8, 52, "first chunk empty"),
        (1e3, 50, "first chunk decides"),
        (5.0, 50, "three chunks or more"),
    ])
    def test_stress_cases_match_the_oracle(self, r, density, case):
        # each case's premise holds however ties in the bound are broken
        bound, least = n3_grid_lines(r, density)
        assert np.all(least >= bound)
        ranked = np.sort(bound)
        if case == "32 cheapest empty":
            assert np.all(least[bound <= ranked[31]] == math.inf)
        elif case == "first chunk empty":
            assert np.all(least[bound <= ranked[density - 1]] == math.inf)
        elif case == "first chunk decides":
            # the least det lies on a line that is surely in the first chunk,
            # and more lines than that chunk has bounds below it
            assert least[bound < ranked[density]].min() == least.min()
            assert np.count_nonzero(bound < least.min()) > density
        else:
            assert np.count_nonzero(bound < least.min()) > density + density**2
        assert n3_bound_grid(r, density) == n3_bound_grid_cells(r, density)[0]
        assert n3_bound_grid(r, density) == max(0.0, 1.0 - 4.0 / math.sqrt(least.min()))

    @pytest.mark.parametrize("r, n", [(2.0, 50), (50.0, 50), (1.8, 52)])
    def test_memory_stays_order_n_cubed(self, r, n):
        # traced peak of one call, in n^3 doubles: 9.3 at (2, 50), where a
        # chunk holds n^2 lines, and 6.8 at (50, 50), against 9.4 at both
        # for the scan of one a value at a time that the search replaced.
        # At (1.8, 52) the first chunk holds no admissible cell, so every
        # line with a finite bound is left: unchunked they would take about
        # 60.  A single n^4 array of cells would take n
        tracemalloc.start()
        try:
            n3_bound_grid(r, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n**3 * 8


class TestRandomizedProperties:
    def test_faithfulness_smoke(self):
        assert faithfulness_trials(1, 1, 200, 101) == 0

    def test_faithfulness_wider_partition(self):
        assert faithfulness_trials(2, 2, 100, 102) == 0

    def test_upward_closure_smoke(self):
        assert upward_closure_trials(200, 103) == 0

    def test_mixture_bounds_smoke(self):
        assert mixture_bound_trials(200, 105) == 0

    def test_local_orthogonal_symplectic_invariance(self):
        # O_A (+) O_B conjugation with O_B symplectic preserves j1 and j2.
        # A reflection on A can break the full bona fide condition without
        # touching the B-side offset, so the record is built unvalidated.
        from gsteer.states import GaussianState

        rng = np.random.default_rng(107)
        for _ in range(200):
            s = random_state(1, 1, 2.0, rng)
            k = np.zeros((4, 4))
            k[:2, :2] = random_orthogonal(2, rng)
            k[2:, 2:] = random_orthogonal_symplectic(1, rng)
            cov = k @ s.cov @ k.T
            conjugated = GaussianState(1, 1, (cov + cov.T) / 2, np.zeros(4))
            before = j_values(s, clamp=False)
            after = j_values(conjugated, clamp=False)
            assert abs(before[0] - after[0]) < 1e-9
            assert abs(before[1] - after[1]) < 1e-9
