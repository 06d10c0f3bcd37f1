"""Gaussian channels (K, M, dbar): cov -> K cov K^T + M, mean -> K mean + dbar.

Three independent PSD certificates classify a channel, F = 0_A (+) i*Omega_B:

  valid Gaussian      M + i*Omega - i K Omega K^T >= 0
  unsteerable         M + F - K F K^T >= 0
  steering breaking   M + F - i K Omega K^T >= 0
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    DEFAULT_PSD_TOL,
    PsdReport,
    ValidationError,
    psd_spectra,
    relative_margin,
    require_count,
    require_finite,
    require_number,
    require_real,
    steering_form,
)
from .states import (
    GaussianState,
    _generator,
    _ModeRecord,
    _random_covs,
)


CHANNEL_SLACK = 1e-6  # margin of random_unsteerable_channel's M over both certificates
MAX_OVERSAMPLING = 100  # sample_verify's draws per requested sample before it aborts
SAMPLE_BLOCK = 1024  # sample_verify's samples per stack, which bounds its memory


class SamplingAbortError(RuntimeError):
    """Rejection sampling exceeded the allowed oversampling factor."""


@dataclass(frozen=True, eq=False)
class GaussianChannel(_ModeRecord):
    """Immutable channel record: the structural check of
    :class:`~gsteer.states.GaussianState`, one side possibly empty, and M
    tested PSD at DEFAULT_PSD_TOL."""

    modes_a: int
    modes_b: int
    K: np.ndarray
    M: np.ndarray
    dbar: np.ndarray

    _kind = "channel"
    _arrays = {"K": 2, "M": 2, "dbar": 1}
    _symmetrized = "M"

    @staticmethod
    def _partition(modes_a, modes_b) -> tuple[int, int]:  # each side >= 0, one mode at least
        modes_a, modes_b = require_count(modes_a, "modes_a"), require_count(modes_b, "modes_b")
        if modes_a + modes_b < 1:
            raise ValidationError(f"invalid mode partition ({modes_a}, {modes_b})")
        return modes_a, modes_b

    def __post_init__(self):
        super().__post_init__()
        rep = PsdReport.of_hermitian(self.M, DEFAULT_PSD_TOL)
        if not rep.ok:
            raise ValidationError(
                f"M must be PSD, min eigenvalue {rep.min_eigenvalue:.6e}")


def identity_channel(modes_a: int, modes_b: int) -> GaussianChannel:
    """K = I, M = 0, dbar = 0 on a checked partition, built without a check."""
    modes_a, modes_b = GaussianChannel._partition(modes_a, modes_b)
    dim = 2 * (modes_a + modes_b)
    return GaussianChannel._by_construction(modes_a, modes_b, np.eye(dim),
                                            np.zeros((dim, dim)), np.zeros(dim))


def side_a_channel(K, M, dbar=None) -> GaussianChannel:
    """Channel acting on A modes only (empty B side)."""
    k = np.atleast_2d(require_real(K, "K"))
    if dbar is None:
        dbar = np.zeros(k.shape[0])
    return GaussianChannel(k.shape[0] // 2, 0, k, M, dbar)


def side_b_channel(K, M, dbar=None) -> GaussianChannel:
    """Channel acting on B modes only (empty A side)."""
    k = np.atleast_2d(require_real(K, "K"))
    if dbar is None:
        dbar = np.zeros(k.shape[0])
    return GaussianChannel(0, k.shape[0] // 2, k, M, dbar)


def certificate_matrix(k: np.ndarray, m, f_out: np.ndarray, f_in: np.ndarray) -> np.ndarray:
    """The symmetrized M + F_out - K F_in K^T (m = 0 for the M-free part) of
    matrices or broadcast stacks, row i equal to the call on row i bit for
    bit; a huge K overflows it, which raises "channel certificate contains
    non-finite entries"."""
    with np.errstate(over="ignore", invalid="ignore"):
        cert = m + f_out - k @ f_in @ k.swapaxes(-1, -2)
        cert = (cert + np.conj(cert).swapaxes(-1, -2)) / 2.0
    return require_finite(cert, "channel certificate")


def is_valid_gaussian(ch: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Certificate M + i*Omega - i K Omega K^T >= 0."""
    omega = steering_form(0, ch.n_modes)
    return PsdReport.of_hermitian(certificate_matrix(ch.K, ch.M, omega, omega), tol)


def is_unsteerable_channel(ch: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Certificate M + F - K F K^T >= 0: sufficient, not necessary, for the
    channel to map unsteerable states to unsteerable states."""
    f = steering_form(ch.modes_a, ch.modes_b)
    return PsdReport.of_hermitian(certificate_matrix(ch.K, ch.M, f, f), tol)


def is_steering_breaking(ch: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Certificate M + F - i K Omega K^T >= 0; sufficient for every output
    state to be unsteerable."""
    f, omega = steering_form(ch.modes_a, ch.modes_b), steering_form(0, ch.n_modes)
    return PsdReport.of_hermitian(certificate_matrix(ch.K, ch.M, f, omega), tol)


@dataclass(frozen=True)
class ChannelClassification:
    """Three independent certificate verdicts with their eigenvalue margins."""

    valid_gaussian: PsdReport
    unsteerable: PsdReport
    steering_breaking: PsdReport

    def to_json(self) -> str:
        def entry(rep: PsdReport) -> dict:
            return {"verdict": rep.ok, "min_eigenvalue": rep.min_eigenvalue,
                    "tol": rep.tol}

        return json.dumps({f.name: entry(getattr(self, f.name)) for f in fields(self)}, indent=2)


def classify(ch: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> ChannelClassification:
    """The three certificate verdicts of ``ch`` at ``tol``."""
    return ChannelClassification(
        valid_gaussian=is_valid_gaussian(ch, tol),
        unsteerable=is_unsteerable_channel(ch, tol),
        steering_breaking=is_steering_breaking(ch, tol),
    )


def apply(ch: GaussianChannel, state: GaussianState) -> GaussianState:
    """The output state, tested finite but not bona fide, so a non-certified
    channel's output can be inspected (:func:`~gsteer.states.ensure_bona_fide`
    tests it)."""
    if (ch.modes_a, ch.modes_b) != (state.modes_a, state.modes_b):
        raise ValidationError(
            f"partition mismatch: channel ({ch.modes_a},{ch.modes_b}) vs "
            f"state ({state.modes_a},{state.modes_b})")
    # finite inputs can overflow, so the mean is tested too
    mean = require_finite(ch.K @ state.mean + ch.dbar, "mean")
    return GaussianState._by_construction(ch.modes_a, ch.modes_b,
                                          _act(ch.K, ch.M, state.cov), mean)


def _act(k: np.ndarray, m: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """K cov K^T + M, symmetrized and tested finite, for one cov or a stack,
    with one K and M or stacks; row i equals the call on row i bit for bit."""
    cov = k @ covs @ k.swapaxes(-1, -2) + m
    return require_finite((cov + cov.swapaxes(-1, -2)) / 2.0, "cov")


def _direct_sum(x_a: np.ndarray, x_b: np.ndarray) -> np.ndarray:
    """The block-diagonal x_a (+) x_b of two real square matrices, or of two
    ``(..., da, da)`` and ``(..., db, db)`` stacks row by row."""
    da = x_a.shape[-1]
    out = np.zeros((*x_a.shape[:-2], da + x_b.shape[-1], da + x_b.shape[-1]))
    out[..., :da, :da] = x_a
    out[..., da:, da:] = x_b
    return out


def tensor_local(ch_a: GaussianChannel, ch_b: GaussianChannel) -> GaussianChannel:
    """Direct sum of an A-side and a B-side channel that each pass their
    unsteerable certificate, so the sum passes it too; built without a check."""
    if ch_a.modes_b != 0:
        raise ValidationError("ch_a must act on A modes only (modes_b == 0)")
    if ch_b.modes_a != 0:
        raise ValidationError("ch_b must act on B modes only (modes_a == 0)")
    for name, side in (("A", ch_a), ("B", ch_b)):
        rep = is_unsteerable_channel(side)
        if not rep.ok:
            raise ValidationError(
                f"side {name} fails its validity condition "
                f"(min eigenvalue {rep.min_eigenvalue:.6e})")
    return GaussianChannel._by_construction(
        ch_a.modes_a, ch_b.modes_b, _direct_sum(ch_a.K, ch_b.K), _direct_sum(ch_a.M, ch_b.M),
        np.concatenate([ch_a.dbar, ch_b.dbar]))


@functools.lru_cache(maxsize=None)
def _channel_offsets(modes_a: int, modes_b: int) -> np.ndarray:
    """The offsets i*Omega and 0_A (+) i*Omega_B as one ``(2, d, d)`` stack,
    cached read-only."""
    f = np.stack([steering_form(0, modes_a + modes_b), steering_form(modes_a, modes_b)])
    f.setflags(write=False)
    return f


def _certified_shift(k: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The shift that makes M = shift * I pass M + F - K F K^T >= 0 by
    CHANNEL_SLACK for each F of ``offsets``, in one eigensolve; one per row
    of a K stack, equal to the single call's bit for bit."""
    lo = psd_spectra(certificate_matrix(k[..., None, :, :], 0.0, offsets, offsets), 0.0)[0]
    return np.maximum(0.0, -lo[..., 0].min(axis=-1)) + CHANNEL_SLACK


def _unsteerable_channel_arrays(modes_a: int, modes_b: int, u: np.ndarray):
    """K and M of :func:`random_unsteerable_channel` from its ``(d, d)``
    ``rng.random()`` draws u, or row by row from a stack."""
    dim = u.shape[-1]
    k = (-1.0 + 2.0 * u) / dim
    shift = _certified_shift(k, _channel_offsets(modes_a, modes_b))
    return k, shift[..., None, None] * np.eye(dim)


def random_unsteerable_channel(modes_a: int, modes_b: int, rng) -> GaussianChannel:
    """K uniform in [-1, 1] / (2(m+n)) and M = shift * I that passes the
    validity and unsteerable certificates by CHANNEL_SLACK: certified by
    construction, built without a check."""
    modes_a, modes_b = GaussianChannel._partition(modes_a, modes_b)
    dim = 2 * (modes_a + modes_b)
    k, m = _unsteerable_channel_arrays(modes_a, modes_b,
                                       _generator(rng).random((dim, dim)))
    return GaussianChannel._by_construction(modes_a, modes_b, k, m, np.zeros(dim))


@dataclass(frozen=True)
class SampleReport:
    """Outcome of :func:`sample_verify`: zero violations is evidence, not a
    certificate."""

    predicate: str
    n_samples: int
    violations: int
    worst_margin: float
    mean_margin: float
    draws: int
    first_counterexample: GaussianState | None

    def to_json(self) -> str:
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)
                           if f.name != "first_counterexample"}, indent=2)


PREDICATES = ("bona-fide", "unsteerable-preserving")


def sample_verify(ch: GaussianChannel, n_samples: int, rng,
                  predicate: str = "bona-fide",
                  max_sympl_eigen: float = 5.0,
                  tol: float = 1e-8) -> SampleReport:
    """Count the outputs of random input states that fail ``predicate``:
    bona fide outputs of bona fide inputs, or unsteerable outputs of
    unsteerable inputs, drawn by rejection (SamplingAbortError past
    MAX_OVERSAMPLING * n_samples draws).  Margins are the outputs'
    :func:`~gsteer.linalg.relative_margin`.

    Every argument is checked before the first draw, so a refused call
    leaves ``rng`` where it was.  Stacks of at most SAMPLE_BLOCK samples
    take one channel action and one eigensolve each; the report and the
    Generator's end state equal those of a loop over single samples.
    """
    if predicate not in PREDICATES:
        raise ValidationError(f"unknown predicate {predicate!r}, choose from {PREDICATES}")
    n_samples = require_count(n_samples, "n_samples", 1)
    if ch.modes_a < 1 or ch.modes_b < 1:
        raise ValidationError("sampling requires a bipartite channel partition")
    max_sympl_eigen = require_number(max_sympl_eigen, "max_sympl_eigen", 1.0)
    tol = require_number(tol, "tol", 0.0)
    rng = _generator(rng)
    modes = (ch.modes_a, ch.modes_b)
    steering = steering_form(*modes)
    # outputs are judged against i*Omega (bona fide) or 0_A (+) i*Omega_B
    judged = steering_form(0, ch.n_modes) if predicate == "bona-fide" else steering
    draws = violations = 0
    worst, margin_sum = math.inf, 0.0
    first_counterexample = None
    for start in range(0, n_samples, SAMPLE_BLOCK):
        k = min(SAMPLE_BLOCK, n_samples - start)
        if predicate == "bona-fide":
            covs = _random_covs((k,), *modes, max_sympl_eigen, rng)
            draws += k
        else:
            covs = np.empty((k, ch.dim, ch.dim))
            for i in range(k):
                while True:
                    draws += 1
                    if draws > MAX_OVERSAMPLING * n_samples:
                        raise SamplingAbortError(
                            f"rejection sampling exceeded {MAX_OVERSAMPLING}x oversampling "
                            f"({draws} draws for {predicate!r}); the input distribution "
                            f"rarely satisfies the predicate's precondition")
                    covs[i] = _random_covs((), *modes, max_sympl_eigen, rng)
                    if psd_spectra(covs[i] + steering, tol)[1]:
                        break
        ev, ok = psd_spectra(_act(ch.K, ch.M, covs) + judged, tol)
        margins = relative_margin(ev[:, 0], ev[:, -1]).tolist()
        worst = min(worst, *margins)
        for margin in margins:  # left to right: np.sum and sum() reorder the terms
            margin_sum += margin
        n_ok = int(np.count_nonzero(ok))
        violations += k - n_ok
        if first_counterexample is None and n_ok < k:
            # argmin of the verdicts is the first violation; its row is
            # copied so the report does not keep the stack alive
            first_counterexample = GaussianState._by_construction(
                *modes, covs[ok.argmin()].copy(), np.zeros(ch.dim))
    return SampleReport(predicate, n_samples, violations, worst,
                        margin_sum / n_samples, draws, first_counterexample)


def channel_to_json(ch: GaussianChannel) -> str:
    """Serialize to the channel document schema."""
    return ch._to_json()


def channel_from_json(text: str) -> GaussianChannel:
    """Parse a channel document; unknown keys are ignored."""
    return GaussianChannel._from_json(text)
