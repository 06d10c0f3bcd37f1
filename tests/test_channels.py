import json

import numpy as np
import pytest

from gsteer import channels, fixtures
from gsteer.channels import (
    GaussianChannel,
    SamplingAbortError,
    apply,
    channel_from_json,
    channel_to_json,
    classify,
    identity_channel,
    is_steering_breaking,
    is_unsteerable_channel,
    is_valid_gaussian,
    random_unsteerable_channel,
    sample_verify,
    side_a_channel,
    side_b_channel,
    tensor_local,
)
from gsteer.linalg import ValidationError, random_symplectic
from gsteer.states import make_state, random_state, validate_state
from gsteer.steering import is_unsteerable, j2, pure_family_state
from gsteer.verify import (
    certified_channel_trials,
    local_channel_trials,
    local_symplectic_trials,
    orthogonal_monotonicity_trials,
    random_local_channel,
)

# reference output covariance for the shear channel on the witness state
SHEAR_OUTPUT = np.array([
    [7.14, 4.30, 6.66, 6.92],
    [4.30, 9.30, 0.82, -0.71],
    [6.66, 0.82, 12.92, 15.45],
    [6.92, -0.71, 15.45, 19.01],
])


@pytest.fixture(scope="module")
def shear_state():
    return fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)


@pytest.fixture(scope="module")
def shear_channel():
    return fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)


@pytest.fixture(scope="module")
def noncert_bonafide():
    return fixtures.load_channel(fixtures.CHANNEL_NONCERT_BONAFIDE)


@pytest.fixture(scope="module")
def noncert_unsteerable():
    return fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)


class TestConstruction:
    def test_m_must_be_symmetric(self):
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(ValidationError, match="symmetric"):
            GaussianChannel(1, 1, np.eye(4), m, np.zeros(4))

    def test_m_must_be_psd(self):
        with pytest.raises(ValidationError, match="PSD"):
            GaussianChannel(1, 1, np.eye(4), -np.eye(4), np.zeros(4))

    def test_shape_checks(self):
        with pytest.raises(ValidationError):
            GaussianChannel(1, 1, np.eye(3), np.eye(4), np.zeros(4))
        with pytest.raises(ValidationError):
            GaussianChannel(1, 1, np.eye(4), np.eye(4), np.zeros(3))

    def test_side_channels(self):
        a = side_a_channel(np.eye(2), np.zeros((2, 2)))
        assert (a.modes_a, a.modes_b) == (1, 0)
        b = side_b_channel(np.eye(2), np.zeros((2, 2)))
        assert (b.modes_a, b.modes_b) == (0, 1)


class TestApply:
    def test_identity_channel(self, shear_state):
        out = apply(identity_channel(1, 1), shear_state)
        assert np.allclose(out.cov, shear_state.cov, atol=1e-15)
        assert np.array_equal(out.mean, shear_state.mean)

    def test_shear_output_matrix(self, shear_channel, shear_state):
        out = apply(shear_channel, shear_state)
        assert np.abs(out.cov - SHEAR_OUTPUT).max() < 1e-12

    def test_classical_noise_adds_m(self):
        m = np.diag([0.5, 0.5, 1.0, 1.0])
        noise = GaussianChannel(1, 1, np.eye(4), m, np.zeros(4))
        s = make_state(1, 1, np.eye(4))
        out = apply(noise, s)
        assert np.allclose(out.cov, np.eye(4) + m, atol=1e-15)

    def test_mean_transforms(self):
        k = random_symplectic(2, np.random.default_rng(0), scale=0.3)
        dbar = np.array([1.0, -2.0, 0.5, 0.0])
        ch = GaussianChannel(1, 1, k, np.zeros((4, 4)), dbar)
        s = make_state(1, 1, np.eye(4), mean=[1.0, 1.0, 1.0, 1.0])
        out = apply(ch, s)
        assert np.allclose(out.mean, k @ s.mean + dbar, atol=1e-14)

    def test_partition_mismatch(self, shear_channel):
        with pytest.raises(ValidationError, match="partition"):
            apply(shear_channel, random_state(1, 2, 2.0, 0))

    # the partition rule runs before any array is built
    @pytest.mark.parametrize("build", [
        lambda: random_unsteerable_channel(0, 0, 1),
        lambda: random_unsteerable_channel(1.5, 1, 1),
        lambda: random_unsteerable_channel(-1, 2, 1),
        lambda: identity_channel(1.5, 1),
        lambda: identity_channel(0, 0),
    ], ids=["random (0, 0)", "random (1.5, 1)", "random (-1, 2)", "identity (1.5, 1)",
            "identity (0, 0)"])
    def test_partition_checked_first(self, build):
        with pytest.raises(ValidationError, match="partition|integers"):
            build()

    def test_valid_channel_output_validated(self):
        # a certified channel maps a bona fide state to a bona fide one
        ch = random_unsteerable_channel(1, 1, 5)
        out = apply(ch, random_state(1, 1, 3.0, 6))
        assert validate_state(out).ok


class TestCertificates:
    def test_identity_channel_valid_with_zero_margin(self):
        rep = is_valid_gaussian(identity_channel(1, 1))
        assert rep.ok
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_noncert_bonafide_fails_validity(self, noncert_bonafide):
        rep = is_valid_gaussian(noncert_bonafide)
        assert not rep.ok
        assert rep.min_eigenvalue < 0

    def test_noncert_unsteerable_passes_validity(self, noncert_unsteerable):
        rep = is_valid_gaussian(noncert_unsteerable)
        assert rep.ok
        assert rep.min_eigenvalue >= -1e-9

    def test_identity_channel_unsteerable(self):
        assert is_unsteerable_channel(identity_channel(1, 1)).ok

    def test_noncert_unsteerable_fails_certificate(self, noncert_unsteerable):
        rep = is_unsteerable_channel(noncert_unsteerable)
        assert not rep.ok
        assert rep.min_eigenvalue < 0

    def test_local_block_channels_certified(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ch = random_local_channel(1, 1, rng)
            assert is_unsteerable_channel(ch).ok

    def test_measure_and_reprepare_breaks_steering(self):
        ch = GaussianChannel(1, 1, np.zeros((4, 4)), np.eye(4), np.zeros(4))
        assert is_steering_breaking(ch).ok

    def test_identity_is_not_steering_breaking(self):
        assert not is_steering_breaking(identity_channel(1, 1)).ok
        # and indeed steering of the r = 2 pure state survives it
        out = apply(identity_channel(1, 1), pure_family_state(2.0))
        assert not is_unsteerable(out).ok

    def test_steering_breaking_consequence(self):
        ch = GaussianChannel(1, 1, np.zeros((4, 4)), np.eye(4), np.zeros(4))
        rng = np.random.default_rng(23)
        for _ in range(100):
            out = apply(ch, random_state(1, 1, 5.0, rng))
            assert is_unsteerable(out).ok

    @pytest.mark.parametrize("certificate", [
        is_valid_gaussian, is_unsteerable_channel, is_steering_breaking])
    def test_overflowing_certificate_rejected(self, certificate):
        # checked before the eigensolver sees it, with no numpy warning
        ch = GaussianChannel(1, 1, 1e200 * np.eye(4), np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValidationError,
                           match="^channel certificate contains non-finite entries$"):
            certificate(ch)

    def test_classification_bundle(self, noncert_unsteerable):
        c = classify(noncert_unsteerable)
        assert c.valid_gaussian.ok and not c.unsteerable.ok
        doc = json.loads(c.to_json())
        # key order is part of the CLI's output bytes
        assert list(doc) == ["valid_gaussian", "unsteerable", "steering_breaking"]
        for name, entry in doc.items():
            rep = getattr(c, name)
            assert entry == {"verdict": rep.ok, "min_eigenvalue": rep.min_eigenvalue,
                             "tol": rep.tol}
            assert list(entry) == ["verdict", "min_eigenvalue", "tol"]


class TestTensorLocal:
    def test_identity_sides(self):
        ch = tensor_local(side_a_channel(np.eye(2), np.zeros((2, 2))),
                          side_b_channel(np.eye(2), np.zeros((2, 2))))
        assert np.array_equal(ch.K, np.eye(4))
        assert (ch.modes_a, ch.modes_b) == (1, 1)

    def test_shear_channel_blocks(self, shear_channel):
        composed = tensor_local(
            side_a_channel(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2))),
            side_b_channel(np.eye(2), np.zeros((2, 2))))
        assert np.array_equal(composed.K, shear_channel.K)
        assert np.array_equal(composed.M, shear_channel.M)

    def test_random_valid_sides_always_certified(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            ch = random_local_channel(1, 2, rng)
            assert is_unsteerable_channel(ch).ok

    def test_invalid_b_side_rejected(self):
        # K_B doubles Omega-volume, M = 0 cannot compensate
        bad_b = side_b_channel(2.0 * np.eye(2), np.zeros((2, 2)))
        good_a = side_a_channel(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValidationError, match="side B"):
            tensor_local(good_a, bad_b)

    def test_wrong_side_roles_rejected(self):
        b = side_b_channel(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            tensor_local(b, b)

    def test_equals_checked_channel(self):
        # built without GaussianChannel's check, yet bit-equal to its output
        rng = np.random.default_rng(37)
        for modes_b in (1, 2) * 100:
            ch = random_local_channel(1, modes_b, rng)
            checked = GaussianChannel(ch.modes_a, ch.modes_b, ch.K, ch.M, ch.dbar)
            for name in ("K", "M", "dbar"):
                got, want = getattr(ch, name), getattr(checked, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), name
                assert not got.flags.writeable, name

    def test_dbar_concatenated(self):
        a = side_a_channel(np.eye(2), np.zeros((2, 2)), dbar=[1.0, 2.0])
        b = side_b_channel(np.eye(2), np.zeros((2, 2)), dbar=[3.0, 4.0])
        assert np.array_equal(tensor_local(a, b).dbar, [1.0, 2.0, 3.0, 4.0])


class TestRandomUnsteerableChannel:
    def test_deterministic(self):
        c1 = random_unsteerable_channel(1, 1, 42)
        c2 = random_unsteerable_channel(1, 1, 42)
        assert np.array_equal(c1.K, c2.K) and np.array_equal(c1.M, c2.M)

    def test_certificates_hold_by_construction(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            ch = random_unsteerable_channel(1, 1, rng)
            assert is_valid_gaussian(ch).ok
            assert is_unsteerable_channel(ch).ok

    def test_preserves_unsteerability(self):
        assert certified_channel_trials(100, 53) == 0


class TestSampleVerify:
    def test_identity_channel_no_violations(self):
        rep = sample_verify(identity_channel(1, 1), 50, 0, "bona-fide")
        assert rep.violations == 0
        assert rep.first_counterexample is None
        rep = sample_verify(identity_channel(1, 1), 50, 0, "unsteerable-preserving")
        assert rep.violations == 0

    def test_noncert_bonafide_channel(self, noncert_bonafide):
        rep = sample_verify(noncert_bonafide, 500, 1, "bona-fide")
        assert rep.violations == 0
        assert rep.worst_margin > 0

    def test_noncert_unsteerable_channel(self, noncert_unsteerable):
        rep = sample_verify(noncert_unsteerable, 500, 2, "unsteerable-preserving")
        assert rep.violations == 0
        assert rep.draws >= 500

    def test_rejection_abort(self, monkeypatch):
        # pure random states are steerable almost surely, so the
        # unsteerable-input rejection loop can never fill its quota
        monkeypatch.setattr(channels, "MAX_OVERSAMPLING", 20)
        with pytest.raises(SamplingAbortError, match="oversampling"):
            sample_verify(identity_channel(1, 1), 5, 3, "unsteerable-preserving",
                          max_sympl_eigen=1.0)

    def test_counterexample_reported(self):
        # noiseless attenuation scales every symplectic eigenvalue below 1
        att = GaussianChannel(1, 1, 0.1 * np.eye(4), np.zeros((4, 4)), np.zeros(4))
        rep = sample_verify(att, 20, 4, "bona-fide")
        assert rep.violations > 0
        assert rep.first_counterexample is not None
        assert rep.worst_margin < 0

    def test_unknown_predicate(self):
        with pytest.raises(ValidationError, match="predicate"):
            sample_verify(identity_channel(1, 1), 5, 0, "unitarity")

    def test_report_json(self, noncert_bonafide):
        rep = sample_verify(noncert_bonafide, 20, 5, "bona-fide")
        doc = json.loads(rep.to_json())
        # every field but the counterexample state, in field order (the
        # CLI's output bytes)
        assert list(doc) == ["predicate", "n_samples", "violations", "worst_margin",
                             "mean_margin", "draws"]
        assert doc == {key: getattr(rep, key) for key in doc}
        assert doc["violations"] == 0
        assert doc["n_samples"] == 20


class TestPropertySuitesSmoke:
    def test_local_channels(self):
        assert local_channel_trials(100, 61) == 0

    def test_local_symplectic_verdict_preserved(self):
        assert local_symplectic_trials(100, 67) == 0

    def test_orthogonal_monotonicity(self):
        assert orthogonal_monotonicity_trials(100, 71) == 0

    def test_monotonicity_fails_for_shear(self, shear_channel, shear_state):
        before = j2(shear_state)
        after = j2(apply(shear_channel, shear_state))
        assert after > before


class TestJson:
    def test_round_trip(self, noncert_unsteerable):
        text = channel_to_json(noncert_unsteerable)
        back = channel_from_json(text)
        assert np.array_equal(back.K, noncert_unsteerable.K)
        assert np.array_equal(back.M, noncert_unsteerable.M)
        assert channel_to_json(back) == text

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="missing"):
            channel_from_json('{"modes_a": 1, "modes_b": 1}')

    def test_deeply_nested_document(self):
        text = '{"modes_a": ' + "[" * 100_000 + "]" * 100_000 + "}"
        with pytest.raises(ValidationError, match="channel document is nested too deeply"):
            channel_from_json(text)

    def test_numpy_integer_modes_round_trip(self):
        ch = GaussianChannel(np.int64(1), np.int64(0), np.eye(2), np.zeros((2, 2)), np.zeros(2))
        assert type(ch.modes_a) is int and type(ch.modes_b) is int
        back = channel_from_json(channel_to_json(ch))
        assert (back.modes_a, back.modes_b) == (1, 0)

    @pytest.mark.parametrize("modes", [(True, 1), (1, False), (1.0, 1), (1, 1.0)])
    def test_record_rejects_what_its_document_rejects(self, modes):
        with pytest.raises(ValidationError, match="must be integers"):
            GaussianChannel(*modes, np.eye(4), np.zeros((4, 4)), np.zeros(4))

    def test_fixture_descriptions_ignored(self):
        doc = json.loads(fixtures.fixture_text(fixtures.CHANNEL_SHEAR_LOCAL))
        assert "description" in doc
        channel_from_json(json.dumps(doc))
