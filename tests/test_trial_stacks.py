"""The seven property engines of ``gsteer verify`` run on stacks, the
settles of ``verify._count``; each must count, and leave its Generator,
exactly as the loop over single trials it replaced
(``oracles.*_trials_loop``).  Four of them speculate: local symplectic,
upward closure, local channels and certified channels draw a stack ahead and
settle only the trials up to its first cut, a preservation stack finishing
the cut trial itself; after j settled, ``_count`` sizes the next stack at
most 2j + 1."""

import numpy as np
import pytest

from gsteer import channels, linalg, verify

from oracles import (
    certified_channel_trials_loop,
    faithfulness_trials_loop,
    local_channel_trials_loop,
    local_symplectic_trials_loop,
    mixture_bound_trials_loop,
    orthogonal_monotonicity_trials_loop,
    upward_closure_trials_loop,
)

# (engine, its loop oracle, leading arguments)
ENGINES = {
    "faithfulness-1p1": (verify.faithfulness_trials, faithfulness_trials_loop, (1, 1)),
    "faithfulness-1p2": (verify.faithfulness_trials, faithfulness_trials_loop, (1, 2)),
    "local-symplectic": (verify.local_symplectic_trials, local_symplectic_trials_loop, ()),
    "mixture": (verify.mixture_bound_trials, mixture_bound_trials_loop, ()),
    "orthogonal": (verify.orthogonal_monotonicity_trials,
                   orthogonal_monotonicity_trials_loop, ()),
    "upward-closure": (verify.upward_closure_trials, upward_closure_trials_loop, ()),
    "local-channels": (verify.local_channel_trials, local_channel_trials_loop, ()),
    "certified-channels": (verify.certified_channel_trials, certified_channel_trials_loop, ()),
}
PRESERVATION = ("upward-closure", "local-channels", "certified-channels")
SPECULATIVE = ("local-symplectic", *PRESERVATION)
SEEDS = range(5)
SMALL_BLOCK = 16  # stands in for SAMPLE_BLOCK, so that stacks end inside short runs


def matches_loop(name, n, seed):
    """The engine's count on a fresh Generator, after checking that count and
    the Generator's end state against the loop's."""
    engine, loop, lead = ENGINES[name]
    rng, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    count = engine(*lead, n, rng)
    assert count == loop(*lead, n, rng_loop)
    assert type(count) is int
    assert rng.bit_generator.state == rng_loop.bit_generator.state
    return count


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, SMALL_BLOCK + 3])
@pytest.mark.parametrize("name", ENGINES)
def test_equals_loop(name, n, seed, monkeypatch):
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", SMALL_BLOCK)
    assert matches_loop(name, n, seed) == 0


@pytest.mark.parametrize("name", ENGINES)
def test_equals_loop_across_full_stacks(name):
    # two ranges of the real size, and at the default MARGIN_FLOOR a few
    # redraws inside them
    assert matches_loop(name, channels.SAMPLE_BLOCK + 3, 0) == 0


@pytest.mark.parametrize("seed", SEEDS[1:])
@pytest.mark.parametrize("name", PRESERVATION)
def test_preservation_equals_loop_across_full_stacks(name, seed):
    # at the default knobs, about a hundred cuts per run
    assert matches_loop(name, channels.SAMPLE_BLOCK + 3, seed) == 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ENGINES)
def test_spectra_equal_the_loops(name, seed, monkeypatch):
    # every matrix either side judges goes through linalg.hermitian_eigenvalues
    # (called only by psd_spectra); the spectra, row by row, must be the same
    # floats, which pins the states, channels and outputs, not only the
    # counts.  A speculative stack also judges the rows it drew past its cut.
    seen = []
    hermitian_eigenvalues = linalg.hermitian_eigenvalues

    def recorded(h):
        ev = hermitian_eigenvalues(h)
        seen.extend(map(tuple, ev.reshape(-1, ev.shape[-1]).tolist()))
        return ev

    monkeypatch.setattr(linalg, "hermitian_eigenvalues", recorded)
    monkeypatch.setattr(verify, "MARGIN_FLOOR", 0.05)  # redraws in local symplectic
    engine, loop, lead = ENGINES[name]
    engine(*lead, 40, seed)
    stacked = set(seen)
    seen.clear()
    loop(*lead, 40, seed)
    if name in SPECULATIVE:
        assert set(seen) <= stacked
    else:
        assert set(seen) == stacked


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("name", ["mixture", "orthogonal"])
def test_no_slack_counts_every_trial_as_the_loop(name, n, seed, monkeypatch):
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(verify, "TRIAL_SLACK", -np.inf)
    assert matches_loop(name, n, seed) == n


class TestRedraws:
    """A larger MARGIN_FLOOR makes local-symplectic redraws common (about 92%
    of states at 0.05, 99.9% at 0.2), inside stacks and at their first row."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_floor_005(self, n, seed, monkeypatch):
        monkeypatch.setattr(verify, "MARGIN_FLOOR", 0.05)
        matches_loop("local-symplectic", n, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_floor_02(self, seed, monkeypatch):
        monkeypatch.setattr(verify, "MARGIN_FLOOR", 0.2)
        matches_loop("local-symplectic", 2, seed)

    def test_a_stack_is_cut_by_a_redraw(self, monkeypatch):
        # rows drawn per stack, and trials kept from it: some stack keeps
        # trials and then redraws, so the redraw falls inside the stack
        drawn, kept = [], []
        build, count = verify._covs_from_uniforms, verify._count

        def recorded(n_trials, rng, settle):
            def settled(trials, rng):
                verdicts = settle(trials, rng)
                kept.append(len(verdicts))
                return verdicts
            return count(n_trials, rng, settled)

        monkeypatch.setattr(verify, "_covs_from_uniforms",
                            lambda u, *args: drawn.append(len(u)) or build(u, *args))
        monkeypatch.setattr(verify, "_count", recorded)
        monkeypatch.setattr(verify, "MARGIN_FLOOR", 0.05)
        matches_loop("local-symplectic", 40, 0)
        assert len(drawn) == len(kept)
        assert any(0 < j < rows for rows, j in zip(drawn, kept))


def record_stacks(monkeypatch):
    """(rows drawn, trials kept before the cut) of every stack the engines
    settle from now on.  A stack is cut when it finishes a trial itself; it
    finishes at most one, here on sample_verify: a failed certificate would
    finish one as a violation, and the recorded runs count none."""
    stacks, finished = [], []
    count, sample_verify = verify._count, verify.sample_verify

    def counted(n_trials, rng, settle, *rows):
        def recording(trials, rng):
            finished.clear()
            verdicts = settle(trials, rng)
            assert len(finished) <= 1 and not any(verdicts)
            stacks.append((len(trials), len(verdicts) - len(finished)))
            return verdicts
        return count(n_trials, rng, recording, *rows)

    def single(*args):
        finished.append(1)
        return sample_verify(*args)

    monkeypatch.setattr(verify, "_count", counted)
    monkeypatch.setattr(verify, "sample_verify", single)
    return stacks


@pytest.mark.parametrize("name, calls", [("faithfulness-1p1", 1), ("faithfulness-1p2", 1),
                                         ("mixture", 2), ("orthogonal", 2),
                                         ("upward-closure", 1), ("local-channels", 2),
                                         ("certified-channels", 4)])
def test_eigensolves_per_stack(name, calls, count_eigvalsh, monkeypatch):
    # the mixture's bona fide test and raw j values; one group per partition.
    # A preservation stack takes, per partition, the shift certificates its
    # channels need and then its certificates, candidates and outputs; it
    # keeps a prefix, so at 300 trials its calls are a bound per stack, plus
    # those of sample_verify on each cut trial
    engine, _, lead = ENGINES[name]
    if name in PRESERVATION:
        stacks, single = record_stacks(monkeypatch), []
        sample_verify = verify.sample_verify

        def counted(*args):
            before = len(count_eigvalsh)
            report = sample_verify(*args)
            single.append(len(count_eigvalsh) - before)
            return report

        monkeypatch.setattr(verify, "sample_verify", counted)
        assert engine(*lead, 300, 0) == 0
        assert len(count_eigvalsh) - sum(single) <= calls * len(stacks)
        assert len(single) == sum(kept < rows for rows, kept in stacks)
        return
    assert engine(*lead, 300, 0) == 0
    assert len(count_eigvalsh) == calls
    count_eigvalsh.clear()
    assert engine(*lead, channels.SAMPLE_BLOCK + 3, 0) == 0
    assert len(count_eigvalsh) == 2 * calls


def test_local_symplectic_eigensolves(count_eigvalsh, monkeypatch):
    # at most two per stack (input and output verdicts, the second skipped
    # when the stack keeps no trial); a redraw starts a new stack
    stacks = []
    build = verify._covs_from_uniforms
    monkeypatch.setattr(verify, "_covs_from_uniforms",
                        lambda u, *args: stacks.append(len(u)) or build(u, *args))
    assert verify.local_symplectic_trials(300, 0) == 0
    assert len(count_eigvalsh) <= 2 * len(stacks) < 12


class TestCuts:
    """Cuts of the preservation stacks.  A negative CHANNEL_SLACK fails every
    certificate (one violation, and no input drawn); a PRESERVATION_VMAX of
    1.5 draws purer candidates, so about 58% of the first (1+1) candidates
    and 90% of the (1+2) ones are redrawn, at the first row of stacks and
    inside them."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("name", ["local-channels", "certified-channels"])
    def test_failed_certificates(self, name, n, seed, monkeypatch):
        monkeypatch.setattr(channels, "CHANNEL_SLACK", -1e3)
        assert matches_loop(name, n, seed) == n

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("name", PRESERVATION)
    def test_redrawn_candidates(self, name, n, seed, monkeypatch):
        monkeypatch.setattr(verify, "PRESERVATION_VMAX", 1.5)
        assert matches_loop(name, n, seed) == 0

    @pytest.mark.parametrize("name", PRESERVATION)
    def test_cuts_at_the_first_row_and_inside_a_stack(self, name, monkeypatch):
        stacks = record_stacks(monkeypatch)
        monkeypatch.setattr(verify, "PRESERVATION_VMAX", 1.5)
        matches_loop(name, 40, 0)
        assert any(kept == 0 for _, kept in stacks)
        assert any(0 < kept < rows for rows, kept in stacks)

    @pytest.mark.parametrize("name", PRESERVATION)
    def test_stacks_stay_few_at_1000_trials(self, name, monkeypatch):
        # each stack holds at most 2j + 1 rows after one that settled j
        # trials, so the rows drawn in vain stay about as many as the trials,
        # and a cut costs a few stacks at most
        stacks = record_stacks(monkeypatch)
        assert ENGINES[name][0](1000, 0) == 0
        cuts = sum(kept < rows for rows, kept in stacks)
        assert sum(rows for rows, _ in stacks) <= verify.PRESERVATION_ROWS + 2 * 1000 + len(stacks)
        assert len(stacks) <= 3 * (cuts + 1)
