"""The one trial loop behind the property engines of ``gsteer verify``."""

import numpy as np
import pytest

from gsteer import channels, verify
from gsteer.channels import GaussianChannel, apply
from gsteer.linalg import ValidationError
from gsteer.states import GaussianState, random_state

from oracles import random_local_channel, random_psd

# (engine, leading arguments) -> the next rng.random() after 40 trials at
# seeds 0, 1 and 2; every count is 0.  Recorded when each engine still ran
# its own loop, so they pin draw order and the Generator's final state;
# upward closure's were re-recorded when it became the additive-noise channel,
# which draws its noise before its input state.
NEXT_RANDOM = {
    ("faithfulness_trials", (1, 1)):
        (0.12442859823434937, 0.46082134286350085, 0.929980134834762),
    ("faithfulness_trials", (1, 2)):
        (0.7530611951948528, 0.6741544028160474, 0.2126790884037184),
    ("upward_closure_trials", ()):
        (0.1466882319095667, 0.708691782471572, 0.9772697912267297),
    ("local_channel_trials", ()):
        (0.1578820957249074, 0.03359696275689261, 0.781161613358343),
    ("certified_channel_trials", ()):
        (0.29578761141444876, 0.027232468865797888, 0.5835339339588961),
    ("local_symplectic_trials", ()):
        (0.0407623273086144, 0.559448179377736, 0.3852910138447013),
    ("mixture_bound_trials", ()):
        (0.47073436747045316, 0.10351906938606403, 0.5082839224813163),
    ("orthogonal_monotonicity_trials", ()):
        (0.09466299609774897, 0.297466122530351, 0.704433572192638),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("engine, lead", list(NEXT_RANDOM), ids=str)
def test_counts_and_draw_order_pinned(engine, lead, seed):
    rng = np.random.default_rng(seed)
    assert getattr(verify, engine)(*lead, 40, rng) == 0
    assert rng.random() == NEXT_RANDOM[engine, lead][seed]


class TestForcedViolations:
    """Every engine returns 0 on real inputs, so these force each trial to
    fail and check that every trial is counted once."""

    @pytest.mark.parametrize("engine", [verify.mixture_bound_trials,
                                        verify.orthogonal_monotonicity_trials])
    def test_no_slack_counts_every_trial(self, engine, monkeypatch):
        monkeypatch.setattr(verify, "TRIAL_SLACK", -np.inf)
        assert engine(7, 3) == 7

    @pytest.mark.parametrize("engine", [verify.local_channel_trials,
                                        verify.certified_channel_trials])
    def test_failed_certificate_counts_and_draws_no_state(self, engine, monkeypatch):
        # a negative slack fails every certificate: each trial is cut at
        # its channel, and the Generator ends as after six channels alone
        def no_state(*args):
            raise AssertionError("a state was drawn for a failed channel")

        monkeypatch.setattr(channels, "CHANNEL_SLACK", -1e3)
        monkeypatch.setattr(verify, "sample_verify", no_state)
        rng, rng_channels = np.random.default_rng(4), np.random.default_rng(4)
        assert engine(6, rng) == 6
        for i in range(6):
            if engine is verify.local_channel_trials:
                random_local_channel(1, 1, rng_channels)
            else:
                channels.random_unsteerable_channel(*verify._partition(i), rng_channels)
        assert rng.bit_generator.state == rng_channels.bit_generator.state

    def test_count_is_a_python_int(self):
        count = verify._count(5, 0, lambda trials, rng: np.array([i % 2 == 0 for i in trials]))
        assert count == 3 and type(count) is int


class TestCount:
    """``_count`` asks ``settle`` for the next range of trials and counts the
    verdicts it returns, however few; after j settled, the next range holds
    at most 2j + 1 trials."""

    def test_short_stacks_count_each_trial_once(self, monkeypatch):
        # each stack settles at most 2 of its trials, and every third none;
        # a settled trial draws one uniform, as a loop over trials would
        monkeypatch.setattr(verify, "SAMPLE_BLOCK", 5)
        ranges, settled = [], []

        def settle(trials, rng):
            ranges.append(trials)
            kept = [] if len(ranges) % 3 == 0 else trials[:2]
            settled.append(len(kept))
            return [rng.random() < 0.5 for _ in kept]

        rng, rng_loop = np.random.default_rng(3), np.random.default_rng(3)
        count = verify._count(11, rng, settle)
        want = sum(rng_loop.random() < 0.5 for _ in range(11))
        assert count == want
        assert rng.bit_generator.state == rng_loop.bit_generator.state
        assert [(r.start, r.stop) for r in ranges] == [
            (0, 5), (2, 7), (4, 9), (4, 5), (5, 8), (7, 11), (7, 8), (8, 11), (10, 11), (10, 11)]
        assert len(ranges[0]) == 5
        for r, j in zip(ranges[1:], settled):
            assert len(r) == min(5, 2 * j + 1, 11 - r.start)

    @pytest.mark.parametrize("rows, first", [(3, 3), (1, 1), (9, 5)])
    def test_first_range_holds_rows_up_to_the_block(self, rows, first, monkeypatch):
        monkeypatch.setattr(verify, "SAMPLE_BLOCK", 5)
        ranges = []

        def settle(trials, rng):
            ranges.append(trials)
            return [False] * len(trials)

        assert verify._count(20, 0, settle, rows) == 0
        assert len(ranges[0]) == first
        assert sum(map(len, ranges)) == 20


# engine -> leading arguments, one entry for each of the seven engines
ENGINES = {engine: lead for engine, lead in NEXT_RANDOM}


@pytest.mark.parametrize("n_trials", [True, -3, 2.5, "3", None, np.float64(2.0)])
@pytest.mark.parametrize("engine", ENGINES)
def test_bad_trial_counts_rejected_before_any_draw(engine, n_trials):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    rule = r"in \[0, inf\)" if type(n_trials) is int else "an integer"
    with pytest.raises(ValidationError, match=f"^n_trials must be {rule}, got "):
        getattr(verify, engine)(*ENGINES[engine], n_trials, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("seed", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("engine", ENGINES)
def test_bool_seed_rejected(engine, seed):
    # faithfulness_trials(1, 1, 3, True) once ran on the seed 1
    with pytest.raises(ValidationError, match="^rng must be a seed or a Generator, not a bool"):
        getattr(verify, engine)(*ENGINES[engine], 3, seed)


@pytest.mark.parametrize("engine", ENGINES)
def test_zero_and_numpy_trial_counts_accepted(engine):
    run, lead = getattr(verify, engine), ENGINES[engine]
    rng, rng_int = np.random.default_rng(0), np.random.default_rng(0)
    before = rng.bit_generator.state
    assert run(*lead, 0, rng) == 0
    assert rng.bit_generator.state == before
    assert run(*lead, np.int64(3), rng) == run(*lead, 3, rng_int) == 0
    assert rng.bit_generator.state == rng_int.bit_generator.state


def test_noise_channel_adds_its_noise_exactly():
    # upward closure tests cov + P through the channel K = I, M = P
    rng = np.random.default_rng(0)
    for _ in range(2000):
        noise = random_psd(4, rng)
        s = random_state(1, 1, 5.0, rng)
        ch = GaussianChannel._by_construction(1, 1, np.eye(4), noise, np.zeros(4))
        want = GaussianState(1, 1, s.cov + noise, s.mean)
        assert apply(ch, s).cov.tobytes() == want.cov.tobytes()


@pytest.mark.parametrize("engine", [verify.upward_closure_trials,
                                    verify.local_channel_trials,
                                    verify.local_symplectic_trials,
                                    verify.orthogonal_monotonicity_trials])
def test_channels_built_by_construction_are_not_rechecked(engine, count_require_hermitian):
    assert engine(6, 0) == 0
    assert count_require_hermitian == []
