import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsteer.linalg import ValidationError, symplectic_form
from gsteer.states import (
    BonaFideError,
    GaussianState,
    make_state,
    mix_covariances,
    random_state,
    schmidt_pure_state,
    squeezed_vacuum_state,
    standard_form_state,
    state_from_json,
    state_to_json,
    validate_state,
    williamson_inverse,
)
from gsteer.steering import pure_family_state
from oracles import standard_form_violations

COSH2 = 3.7621956910836314
SINH2 = 3.6268604078470186


def pure_family_cov(r):
    s = np.sqrt(r * r - 1.0)
    return np.array([
        [r, 0.0, s, 0.0],
        [0.0, r, 0.0, -s],
        [s, 0.0, r, 0.0],
        [0.0, -s, 0.0, r],
    ])


class TestMakeState:
    def test_two_vacua(self):
        s = make_state(1, 1, np.eye(4))
        assert validate_state(s).ok
        assert np.array_equal(s.mean, np.zeros(4))

    def test_pure_family_r2_valid(self):
        s = make_state(1, 1, pure_family_cov(2.0))
        assert validate_state(s).ok

    def test_uncertainty_violation(self):
        # eigenvalues of I/2 + i*Omega are -1/2 and 3/2 (each twice)
        with pytest.raises(BonaFideError) as err:
            make_state(1, 1, 0.5 * np.eye(4))
        assert err.value.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            make_state(1, 2, np.eye(4))

    def test_asymmetric_rejected(self):
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            make_state(1, 1, cov)

    def test_record_rejects_asymmetric(self):
        # GaussianState itself is the one structural check of a covariance
        cov = np.eye(4)
        cov[0, 1] = 0.5
        with pytest.raises(ValidationError, match="cov is not symmetric"):
            GaussianState(1, 1, cov, np.zeros(4))

    def test_rounding_asymmetry_stored_symmetrized(self):
        cov = np.eye(4)
        cov[0, 1] = 1e-14
        s = GaussianState(1, 1, cov, np.zeros(4))
        assert np.array_equal(s.cov, s.cov.T)
        assert s.cov[0, 1] == 5e-15

    def test_nonfinite_rejected(self):
        cov = np.eye(4)
        cov[0, 0] = np.nan
        with pytest.raises(ValidationError):
            make_state(1, 1, cov)

    def test_arrays_frozen(self):
        s = make_state(1, 1, np.eye(4))
        with pytest.raises(ValueError):
            s.cov[0, 0] = 5.0


class TestStandardForm:
    def test_vacuum(self):
        s = standard_form_state(1.0, 1.0, 0.0, 0.0)
        assert np.array_equal(s.cov, np.eye(4))

    def test_squeezed_vacuum_parameters(self):
        s = standard_form_state(COSH2, COSH2, SINH2, -SINH2)
        assert np.allclose(s.cov, squeezed_vacuum_state(1.0).cov, atol=1e-12)

    def test_mixed_thermal_type(self):
        # constraints at a=b=2, c=d=1: 2(4-1)-2 = 4 >= 0 twice and
        # (4-1)(4-1)+1-4-4-2 = 0 >= 0, so the state is valid (boundary)
        s = standard_form_state(2.0, 2.0, 1.0, 1.0)
        assert validate_state(s).ok

    def test_block_layout(self):
        s = standard_form_state(2.0, 3.0, 1.0, -1.0)
        expected = np.array([
            [2.0, 0.0, 1.0, 0.0],
            [0.0, 2.0, 0.0, -1.0],
            [1.0, 0.0, 3.0, 0.0],
            [0.0, -1.0, 0.0, 3.0],
        ])
        assert np.array_equal(s.cov, expected)

    @pytest.mark.parametrize("params,fragment", [
        ((0.5, 1.0, 0.0, 0.0), "a >= 1"),
        ((1.0, 0.5, 0.0, 0.0), "b >= 1"),
        ((1.0, 2.0, 1.2, 0.0), r"a\(ab - c\^2\) - b"),
        ((2.0, 1.0, 0.0, 1.2), r"b\(ab - d\^2\) - a"),
        ((2.0, 2.0, 1.7, 1.7), r"\(ab - c\^2\)\(ab - d\^2\)"),
    ])
    def test_violations_name_the_inequality(self, params, fragment):
        # the oracle names the inequality; the state raises what make_state
        # raises on the assembled matrix
        assert any(re.match(fragment, name) for name in standard_form_violations(*params))
        a, b, c, d = params
        cov = [[a, 0.0, c, 0.0], [0.0, a, 0.0, d], [c, 0.0, b, 0.0], [0.0, d, 0.0, b]]
        with pytest.raises(BonaFideError) as expected:
            make_state(1, 1, cov)
        with pytest.raises(BonaFideError, match=f"^{re.escape(str(expected.value))}$") as got:
            standard_form_state(*params)
        assert got.value.min_eigenvalue == expected.value.min_eigenvalue

    def test_numpy_scalar_overflow_rejected_without_warning(self):
        # c * c overflows in the closed-form inequalities; the eigen test of
        # make_state rejects the state, with no numpy warning (pytest fails on one)
        params = (2.0, 2.0, 1e200, 1e200)
        for cast in (float, np.float64):
            with pytest.raises(BonaFideError, match=r"^covariance matrix is not bona fide: "):
                standard_form_state(*map(cast, params))

    def test_non_finite_parameters_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            for params in ((bad, 1.0, 0.0, 0.0), (2.0, 2.0, bad, 0.0)):
                with pytest.raises(ValidationError, match="^cov contains non-finite entries$"):
                    standard_form_state(*params)

    def test_accepts_exactly_when_the_inequalities_hold(self):
        # the eigen test of make_state against the five closed-form
        # inequalities, away from the tolerance band
        rng = np.random.default_rng(41)
        outcomes = set()
        for _ in range(2000):
            a, b = rng.uniform(0.5, 4.0, 2)
            c, d = rng.uniform(-4.0, 4.0, 2)
            cov = [[a, 0.0, c, 0.0], [0.0, a, 0.0, d], [c, 0.0, b, 0.0], [0.0, d, 0.0, b]]
            if abs(validate_state(GaussianState(1, 1, cov, np.zeros(4))).margin) <= 1e-7:
                continue
            holds = not standard_form_violations(a, b, c, d)
            try:
                standard_form_state(a, b, c, d)
                accepted = True
            except BonaFideError:
                accepted = False
            assert accepted == holds, (a, b, c, d)
            outcomes.add(accepted)
        assert outcomes == {True, False}


class TestSchmidtForm:
    def test_gamma_one_is_vacuum(self):
        s = schmidt_pure_state(1, 1, [1.0])
        assert np.array_equal(s.cov, np.eye(4))

    def test_matches_pure_family(self):
        for r in (1.0, 1.5, 2.0, 5.0):
            s = schmidt_pure_state(1, 1, [r])
            assert np.allclose(s.cov, pure_family_cov(r), atol=1e-15)
            assert s.cov.tobytes() == pure_family_state(r).cov.tobytes()

    def test_unbalanced_padding(self):
        s = schmidt_pure_state(1, 2, [2.0])
        assert s.cov.shape == (6, 6)
        root3 = np.sqrt(3.0)
        assert np.array_equal(s.cov[4:, 4:], np.eye(2))
        assert np.allclose(s.cov[0:2, 2:4], np.diag([root3, -root3]))
        assert np.array_equal(s.cov[0:2, 4:6], np.zeros((2, 2)))
        assert validate_state(s).ok

    def test_more_a_modes_than_b(self):
        s = schmidt_pure_state(3, 1, [1.5])
        assert s.cov.shape == (8, 8)
        assert np.array_equal(s.cov[2:6, 2:6], np.eye(4))
        assert validate_state(s).ok

    def test_rejects_gamma_below_one(self):
        with pytest.raises(ValidationError, match=r"gamma\[1\]"):
            schmidt_pure_state(2, 2, [1.5, 0.9])

    def test_rejects_wrong_count(self):
        with pytest.raises(ValidationError):
            schmidt_pure_state(1, 2, [2.0, 2.0])

    def test_all_symplectic_eigenvalues_one(self):
        from oracles import symplectic_eigenvalues

        s = schmidt_pure_state(2, 3, [1.3, 2.7])
        assert np.abs(symplectic_eigenvalues(s) - 1.0).max() < 1e-10


class TestSqueezedVacuum:
    def test_r_zero_is_vacuum(self):
        assert np.array_equal(squeezed_vacuum_state(0.0).cov, np.eye(4))

    def test_r_one_entries(self):
        s = squeezed_vacuum_state(1.0)
        assert s.cov[0, 0] == pytest.approx(COSH2)
        assert s.cov[0, 2] == pytest.approx(SINH2)
        assert s.cov[1, 3] == pytest.approx(-SINH2)

    def test_equals_schmidt_at_cosh(self):
        for r in (0.0, 0.4, 1.0, 2.0):
            direct = squeezed_vacuum_state(r).cov
            via_schmidt = schmidt_pure_state(1, 1, [np.cosh(2 * r)]).cov
            assert np.allclose(direct, via_schmidt, atol=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            squeezed_vacuum_state(-0.1)

    @given(r=st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_always_bona_fide(self, r):
        assert validate_state(squeezed_vacuum_state(r)).ok


class TestRandomState:
    def test_deterministic_under_seed(self):
        a = random_state(1, 1, 3.0, 123)
        b = random_state(1, 1, 3.0, 123)
        assert np.array_equal(a.cov, b.cov)

    def test_different_seeds_differ(self):
        a = random_state(1, 1, 3.0, 1)
        b = random_state(1, 1, 3.0, 2)
        assert not np.array_equal(a.cov, b.cov)

    def test_williamson_identity_case(self):
        # degenerate recipe: unit symplectic spectrum and identity symplectic
        assert np.array_equal(williamson_inverse([1.0, 1.0], np.eye(4)), np.eye(4))

    def test_rejects_small_max_eigenvalue(self):
        with pytest.raises(ValidationError):
            random_state(1, 1, 0.5, 0)

    @pytest.mark.parametrize("modes", [(0, 1), (2, -1), (0, 0)])
    def test_rejects_nonpositive_mode_counts_before_drawing(self, modes):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        message = rf"^mode counts must be positive, got \({modes[0]}, {modes[1]}\)$"
        with pytest.raises(ValidationError, match=message):
            random_state(*modes, 5.0, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("vmax", [np.nan, np.inf])
    def test_rejects_nonfinite_max_eigenvalue(self, vmax):
        with pytest.raises(ValidationError, match="max_sympl_eigen must be >= 1"):
            random_state(1, 1, vmax, 0)

    def test_all_samples_bona_fide(self):
        # the sampler is valid by construction and runs no test; check each draw
        rng = np.random.default_rng(5)
        failures = sum(not validate_state(random_state(1, 1, 5.0, rng), 1e-9).ok
                       for _ in range(10_000))
        assert failures == 0

    def test_multimode_partition(self):
        s = random_state(2, 1, 2.0, 9)
        assert s.cov.shape == (6, 6)
        assert validate_state(s).ok


class TestBonaFideByConstruction:
    def test_built_without_eigensolve_and_bona_fide(self, count_eigvalsh):
        # these constructors are bona fide by their algebra: they build the
        # record directly, with no eigensolve, and still pass the test
        from gsteer.dynamics import BathParameters, gamma_infinity, stationary_state
        from gsteer.steering import pure_family_state

        bath = BathParameters(0.7, 0.9, 1.3, 0.1)
        builders = {
            "random_state 1+1": lambda: random_state(1, 1, 5.0, 3),
            "random_state 1+2": lambda: random_state(1, 2, 5.0, 4),
            "squeezed_vacuum_state": lambda: squeezed_vacuum_state(1.3),
            "schmidt_pure_state": lambda: schmidt_pure_state(1, 2, [2.5]),
            "pure_family_state": lambda: pure_family_state(4.0),
            "gamma_infinity": lambda: GaussianState(1, 1, gamma_infinity(bath), np.zeros(4)),
            "stationary_state": lambda: stationary_state(bath),
        }
        for name, build in builders.items():
            state = build()
            assert not count_eigvalsh, name
            assert validate_state(state).ok, name
            count_eigvalsh.clear()


class TestMixCovariances:
    def test_p1_one_returns_first(self):
        s1 = squeezed_vacuum_state(1.0)
        s2 = squeezed_vacuum_state(0.0)
        mix = mix_covariances(s1, s2, 1.0)
        assert np.array_equal(mix.cov, s1.cov)

    def test_equal_states_fixed_point(self):
        s = squeezed_vacuum_state(0.7)
        mix = mix_covariances(s, s, 0.5)
        assert np.allclose(mix.cov, s.cov, atol=1e-15)

    def test_entrywise_average(self):
        s1 = squeezed_vacuum_state(0.0)
        s2 = squeezed_vacuum_state(1.0)
        mix = mix_covariances(s1, s2, 0.5)
        assert np.allclose(mix.cov, (s1.cov + s2.cov) / 2, atol=1e-15)
        assert validate_state(mix).ok

    def test_partition_mismatch(self):
        with pytest.raises(ValidationError, match="partition"):
            mix_covariances(random_state(1, 1, 2.0, 0), random_state(1, 2, 2.0, 0), 0.5)

    def test_bad_weight(self):
        s = squeezed_vacuum_state(0.0)
        with pytest.raises(ValidationError):
            mix_covariances(s, s, 1.5)

    def test_thousand_random_pairs_stay_bona_fide(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            s1 = random_state(1, 1, 4.0, rng)
            s2 = random_state(1, 1, 4.0, rng)
            mix = mix_covariances(s1, s2, float(rng.random()))
            assert validate_state(mix).ok

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_convexity_hypothesis(self, p):
        s1 = squeezed_vacuum_state(1.2)
        s2 = standard_form_state(2.0, 2.0, 1.0, 1.0)
        assert validate_state(mix_covariances(s1, s2, p)).ok


class TestJson:
    def test_round_trip_bit_identical(self):
        s = random_state(1, 2, 3.0, 99)
        text = state_to_json(s)
        back = state_from_json(text)
        assert np.array_equal(back.cov, s.cov)
        assert np.array_equal(back.mean, s.mean)
        assert state_to_json(back) == text

    def test_schema_fields(self):
        doc = json.loads(state_to_json(squeezed_vacuum_state(0.5)))
        assert set(doc) == {"modes_a", "modes_b", "cov", "mean"}
        assert len(doc["cov"]) == 4 and len(doc["cov"][0]) == 4

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="missing"):
            state_from_json('{"modes_a": 1, "modes_b": 1, "cov": [[1]]}')

    def test_non_integer_modes(self):
        with pytest.raises(ValidationError):
            state_from_json('{"modes_a": 1.5, "modes_b": 1, "cov": [[1]], "mean": [0]}')

    def test_numpy_integer_modes_round_trip(self):
        s = GaussianState(np.int64(1), np.int64(2), np.eye(6), np.zeros(6))
        assert type(s.modes_a) is int and type(s.modes_b) is int
        back = state_from_json(state_to_json(s))
        assert (back.modes_a, back.modes_b) == (1, 2)

    @pytest.mark.parametrize("modes", [(True, 1), (1, False), (1.0, 1), (1, 2.0)])
    def test_record_rejects_what_its_document_rejects(self, modes):
        with pytest.raises(ValidationError, match="must be integers"):
            GaussianState(*modes, np.eye(4), np.zeros(4))

    @pytest.mark.parametrize("build", [lambda: random_state(1.0, 1, 2.0, 0),
                                       lambda: schmidt_pure_state(1.5, 1, [2.0])],
                             ids=["random_state", "schmidt_pure_state"])
    def test_constructors_reject_non_integer_modes(self, build):
        with pytest.raises(ValidationError, match="must be integers"):
            build()

    def test_deeply_nested_document(self):
        text = '{"modes_a": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ValidationError, match="state document is nested too deeply"):
            state_from_json(text)

    def test_unknown_keys_ignored(self):
        text = state_to_json(squeezed_vacuum_state(0.0))
        doc = json.loads(text)
        doc["description"] = "extra"
        state_from_json(json.dumps(doc))

    def test_validation_can_be_deferred(self):
        doc = {"modes_a": 1, "modes_b": 1,
               "cov": (0.5 * np.eye(4)).tolist(), "mean": [0.0] * 4}
        with pytest.raises(BonaFideError):
            state_from_json(json.dumps(doc))
        s = state_from_json(json.dumps(doc), require_bona_fide=False)
        assert isinstance(s, GaussianState)
        assert not validate_state(s).ok


class TestBlocks:
    def test_partition_blocks(self):
        s = schmidt_pure_state(1, 2, [2.0])
        assert s.block_a().shape == (2, 2)
        assert s.block_b().shape == (4, 4)
        assert s.block_c().shape == (2, 4)
        om = symplectic_form(s.n_modes)
        assert om.shape == (6, 6)
