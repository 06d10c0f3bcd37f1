"""The stacked sampler and ``sample_verify``'s stacks against the loop over
single samples they replaced (``oracles.random_cov``, ``oracles.sample_verify_loop``)."""

import json

import numpy as np
import pytest

from gsteer import channels, fixtures
from gsteer.channels import (
    GaussianChannel,
    SamplingAbortError,
    identity_channel,
    random_unsteerable_channel,
    sample_verify,
    side_a_channel,
)
from gsteer.linalg import ValidationError
from gsteer.states import _random_covs, random_state

from oracles import random_cov, sample_verify_loop

PREDICATES = ("bona-fide", "unsteerable-preserving")
PARTITIONS = ((1, 1), (1, 2), (2, 1))


def certified_channel(modes):
    """A channel that passes both certificates, so it keeps both predicates."""
    return random_unsteerable_channel(*modes, 11)


def violating_channel(modes):
    """K = I/2, M = 0 shrinks every symplectic eigenvalue below 1 for most inputs."""
    dim = 2 * sum(modes)
    return GaussianChannel(*modes, 0.5 * np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))


def fixture_channel(predicate):
    name = (fixtures.CHANNEL_NONCERT_BONAFIDE if predicate == "bona-fide"
            else fixtures.CHANNEL_NONCERT_UNSTEERABLE)
    return fixtures.load_channel(name)


def assert_same_report(got, want):
    assert got.to_json() == want.to_json()
    assert type(got.n_samples) is int
    for name in ("worst_margin", "mean_margin"):
        value, expected = getattr(got, name), getattr(want, name)
        assert type(value) is float
        assert value.hex() == expected.hex(), name
    if want.first_counterexample is None:
        assert got.first_counterexample is None
    else:
        got_cx, want_cx = got.first_counterexample, want.first_counterexample
        assert (got_cx.modes_a, got_cx.modes_b) == (want_cx.modes_a, want_cx.modes_b)
        assert got_cx.cov.tobytes() == want_cx.cov.tobytes()
        assert got_cx.mean.tobytes() == want_cx.mean.tobytes()
        # a copied row, not a view that keeps the whole stack alive
        assert got_cx.cov.base is None


def reports_match(ch, n, seed, predicate, **kwargs):
    rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_verify(ch, n, rng, predicate, **kwargs)
    want = sample_verify_loop(ch, n, rng_loop, predicate, **kwargs)
    assert_same_report(got, want)
    assert rng.bit_generator.state == rng_loop.bit_generator.state
    return got


class TestRandomCovs:
    @pytest.mark.parametrize("modes", PARTITIONS + ((2, 2),))
    @pytest.mark.parametrize("k", [1, 7])
    def test_equals_random_state_calls(self, modes, k):
        rng, rng_calls, rng_loop = (np.random.default_rng(5) for _ in range(3))
        covs = _random_covs((k,), *modes, 3.0, rng)
        assert covs.shape == (k, 2 * sum(modes), 2 * sum(modes))
        for row in covs:
            assert row.tobytes() == random_state(*modes, 3.0, rng_calls).cov.tobytes()
            assert row.tobytes() == random_cov(*modes, 3.0, rng_loop).tobytes()
        assert rng.bit_generator.state == rng_calls.bit_generator.state
        assert rng.bit_generator.state == rng_loop.bit_generator.state

    @pytest.mark.parametrize("max_sympl_eigen", [1.0, 5.0, np.float32(2.7), 4])
    def test_scaling_equals_uniform(self, max_sympl_eigen):
        rng, rng_loop = np.random.default_rng(8), np.random.default_rng(8)
        cov = random_state(1, 1, max_sympl_eigen, rng).cov
        assert cov.tobytes() == random_cov(1, 1, max_sympl_eigen, rng_loop).tobytes()
        assert rng.random() == rng_loop.random()


class TestStackedSampleVerify:
    @pytest.mark.parametrize("n", [1, 5, 40, 2000])
    @pytest.mark.parametrize("modes", PARTITIONS, ids=str)
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_keeping_channel(self, predicate, modes, n):
        # (1+1) takes the predicate's non-certified fixture, as montecarlo does
        ch = fixture_channel(predicate) if modes == (1, 1) else certified_channel(modes)
        rep = reports_match(ch, n, 17 + n, predicate)
        assert rep.violations == 0

    @pytest.mark.parametrize("n", [1, 5, 40])
    @pytest.mark.parametrize("modes", PARTITIONS, ids=str)
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_violating_channel(self, predicate, modes, n):
        rep = reports_match(violating_channel(modes), n, 23 + n, predicate)
        assert rep.violations > 0 and rep.worst_margin < 0

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_blocks(self, monkeypatch, predicate):
        # 47 samples in blocks of 10: four full stacks and a ragged one, with
        # the worst margin, the sum and the first counterexample carried over
        monkeypatch.setattr(channels, "SAMPLE_BLOCK", 10)
        for ch in (fixture_channel(predicate), violating_channel((1, 2))):
            reports_match(ch, 47, 31, predicate)

    def test_longer_than_block(self):
        n = channels.SAMPLE_BLOCK + 300
        reports_match(violating_channel((1, 1)), n, 37, "bona-fide")

    def test_abort(self):
        # pure inputs are steerable almost surely, so every draw is rejected
        rng, rng_loop = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(SamplingAbortError) as got:
            sample_verify(identity_channel(1, 1), 3, rng, "unsteerable-preserving",
                          max_sympl_eigen=1.0)
        with pytest.raises(SamplingAbortError) as want:
            sample_verify_loop(identity_channel(1, 1), 3, rng_loop, "unsteerable-preserving",
                               max_sympl_eigen=1.0)
        assert str(got.value) == str(want.value)
        assert "(301 draws" in str(got.value)
        assert rng.random() == rng_loop.random()


class TestRefusedCalls:
    CHANNEL = fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)

    @pytest.mark.parametrize("args, kwargs, match", [
        ((CHANNEL, 5), {"predicate": "unitarity"}, "unknown predicate"),
        ((CHANNEL, 0), {}, r"n_samples must be in \[1, inf\), got 0$"),
        ((CHANNEL, -1), {}, r"n_samples must be in \[1, inf\), got -1$"),
        ((CHANNEL, True), {}, "n_samples must be an integer"),
        ((CHANNEL, 2.5), {}, "n_samples must be an integer"),
        ((CHANNEL, 5.0), {}, "n_samples must be an integer"),
        ((CHANNEL, "5"), {}, "n_samples must be an integer"),
        ((side_a_channel(np.eye(2), np.zeros((2, 2))), 5), {}, "bipartite"),
        ((CHANNEL, 5), {"max_sympl_eigen": np.nan}, "max_sympl_eigen"),
        ((CHANNEL, 5), {"max_sympl_eigen": np.inf}, "max_sympl_eigen"),
        ((CHANNEL, 5), {"max_sympl_eigen": 0.5}, "max_sympl_eigen"),
        ((CHANNEL, 5), {"tol": np.inf}, r"tol must be in \[0, inf\), got inf$"),
        ((CHANNEL, 5), {"tol": np.nan}, r"tol must be in \[0, inf\), got nan$"),
        ((CHANNEL, 5), {"tol": -1.0}, r"tol must be in \[0, inf\), got -1.0$"),
        ((CHANNEL, 5), {"max_sympl_eigen": True},
         "^max_sympl_eigen must be a real number, got True$"),
        ((CHANNEL, 5), {"max_sympl_eigen": "5"},
         "^max_sympl_eigen must be a real number, got '5'$"),
    ])
    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_generator_untouched(self, args, kwargs, match, predicate):
        kwargs = {"predicate": predicate, **kwargs}
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        with pytest.raises(ValidationError, match=match):
            sample_verify(args[0], args[1], rng, **kwargs)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [np.int64(3), np.uint8(3), 3])
    def test_integer_n_samples_stored_as_int(self, n):
        rep = sample_verify(self.CHANNEL, n, 4, "unsteerable-preserving")
        assert type(rep.n_samples) is int
        assert json.loads(rep.to_json())["n_samples"] == 3
        assert_same_report(rep, sample_verify(self.CHANNEL, 3, 4, "unsteerable-preserving"))


class TestSeeds:
    # each sampler that reads a seed, called with rng as its last argument
    CALLS = {
        "random_state": lambda rng: random_state(1, 2, 3.0, rng).cov,
        "random_unsteerable_channel": lambda rng: random_unsteerable_channel(1, 1, rng).K,
        "sample_verify": lambda rng: sample_verify(certified_channel((1, 1)), 5, rng,
                                                   "unsteerable-preserving").worst_margin,
    }

    @pytest.mark.parametrize("seed", [True, False, np.True_, np.False_])
    @pytest.mark.parametrize("name", CALLS)
    def test_bool_seed_rejected(self, name, seed):
        # numpy would seed with 0 or 1, although a bool is no count elsewhere
        with pytest.raises(ValidationError, match="^rng must be a seed or a Generator, not a bool"):
            self.CALLS[name](seed)

    @pytest.mark.parametrize("name", CALLS)
    def test_integer_seed_and_generator_draw_as_default_rng(self, name):
        call = self.CALLS[name]
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(call(rng), call(5))
        call(reference)
        assert rng.bit_generator.state == reference.bit_generator.state  # the same Generator advanced
        assert np.array_equal(call(np.int64(5)), call(5))
