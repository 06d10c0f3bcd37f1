"""Gaussian channels (K, M, dbar) acting on covariance matrices and means.

A channel maps cov -> K cov K^T + M and mean -> K mean + dbar.  Three PSD
certificates classify it:

  valid Gaussian      M + i*Omega - i K Omega K^T >= 0
  unsteerable         M + F - K F K^T >= 0, F = 0_A (+) i*Omega_B
  steering breaking   M + F - i K Omega K^T >= 0

The unsteerable certificate guarantees the channel maps unsteerable states to
unsteerable states; it is sufficient but not necessary, so the three verdicts
are kept independent and each carries its own eigenvalue margin.  Monte-Carlo
sampling (``sample_verify``) can falsify, but never certify, the semantic
"maps every unsteerable state to an unsteerable state" property.

``GaussianChannel`` shares the structural check of ``states.GaussianState``
and adds only its own partition rule and M's PSD test.
"""

from __future__ import annotations

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
    require_finite,
    require_tol,
    steering_form,
)
from .states import (
    GaussianState,
    _check_max_sympl_eigen,
    _integer_counts,
    _is_integer,
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
    """Immutable channel record; M is symmetrized and required PSD.

    Composite channels built from checked channels, and certified random
    channels, skip the check through :meth:`_by_construction`.
    """

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
        modes_a, modes_b = _integer_counts(modes_a, modes_b)
        if modes_a < 0 or modes_b < 0 or modes_a + modes_b < 1:
            raise ValidationError(f"invalid mode partition ({modes_a}, {modes_b})")
        return modes_a, modes_b

    def __post_init__(self):
        super().__post_init__()
        rep = PsdReport.of_hermitian(self.M, DEFAULT_PSD_TOL)
        if not rep.ok:
            raise ValidationError(
                f"M must be PSD, min eigenvalue {rep.min_eigenvalue:.6e}")


def identity_channel(modes_a: int, modes_b: int) -> GaussianChannel:
    modes_a, modes_b = GaussianChannel._partition(modes_a, modes_b)
    dim = 2 * (modes_a + modes_b)
    return GaussianChannel(modes_a, modes_b, np.eye(dim), np.zeros((dim, dim)),
                           np.zeros(dim))


def side_a_channel(K, M, dbar=None) -> GaussianChannel:
    """Channel acting on A modes only (empty B side)."""
    k = np.atleast_2d(np.asarray(K))
    if dbar is None:
        dbar = np.zeros(k.shape[0])
    return GaussianChannel(k.shape[0] // 2, 0, k, M, dbar)


def side_b_channel(K, M, dbar=None) -> GaussianChannel:
    """Channel acting on B modes only (empty A side)."""
    k = np.atleast_2d(np.asarray(K))
    if dbar is None:
        dbar = np.zeros(k.shape[0])
    return GaussianChannel(0, k.shape[0] // 2, k, M, dbar)


def certificate_matrix(k: np.ndarray, m, f_out: np.ndarray, f_in: np.ndarray) -> np.ndarray:
    """The symmetrized certificate M + F_out - K F_in K^T for Hermitian
    offsets F_out and F_in; pass m = 0 for the M-free part.  A K large enough
    to overflow the product is rejected, not handed to the eigensolver."""
    with np.errstate(over="ignore", invalid="ignore"):
        cert = m + f_out - k @ f_in @ k.T
        cert = (cert + np.conj(cert).T) / 2.0
    return require_finite(cert, "channel certificate")


def is_valid_gaussian(ch: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Certificate M + i*Omega - i K Omega K^T >= 0."""
    omega = steering_form(0, ch.n_modes)
    return PsdReport.of_hermitian(certificate_matrix(ch.K, ch.M, omega, omega), tol)


def is_unsteerable_channel(ch: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Certificate M + F - K F K^T >= 0 with F = 0_A (+) i*Omega_B.

    Sufficient for the channel to map every unsteerable state to an
    unsteerable state; failing it does not prove the channel ever creates
    steering.
    """
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
    return ChannelClassification(
        valid_gaussian=is_valid_gaussian(ch, tol),
        unsteerable=is_unsteerable_channel(ch, tol),
        steering_breaking=is_steering_breaking(ch, tol),
    )


def apply(ch: GaussianChannel, state: GaussianState) -> GaussianState:
    """Apply the channel: cov' = K cov K^T + M, mean' = K mean + dbar.

    The output is finite and symmetric but not tested for the bona fide
    condition, so experiments on non-certified channels can inspect it;
    :func:`~gsteer.states.ensure_bona_fide` tests it.
    """
    if (ch.modes_a, ch.modes_b) != (state.modes_a, state.modes_b):
        raise ValidationError(
            f"partition mismatch: channel ({ch.modes_a},{ch.modes_b}) vs "
            f"state ({state.modes_a},{state.modes_b})")
    # finite inputs can overflow, so the mean is tested too
    mean = require_finite(ch.K @ state.mean + ch.dbar, "mean")
    return GaussianState._by_construction(ch.modes_a, ch.modes_b, _act(ch, state.cov), mean)


def _act(ch: GaussianChannel, covs: np.ndarray) -> np.ndarray:
    """K cov K^T + M for one ``(d, d)`` cov or a ``(..., d, d)`` stack, tested
    for finiteness after the symmetrization GaussianState applies (finite
    inputs can overflow either step); a stack's row i equals the ``(d, d)``
    call on ``covs[i]`` bit for bit."""
    cov = ch.K @ covs @ ch.K.T + ch.M
    return require_finite((cov + cov.swapaxes(-1, -2)) / 2.0, "cov")


def _direct_sum(x_a: np.ndarray, x_b: np.ndarray) -> np.ndarray:
    """The block-diagonal x_a (+) x_b of two real square matrices."""
    da = len(x_a)
    out = np.zeros((da + len(x_b),) * 2)
    out[:da, :da] = x_a
    out[da:, da:] = x_b
    return out


def tensor_local(ch_a: GaussianChannel, ch_b: GaussianChannel) -> GaussianChannel:
    """Direct sum of an A-side channel and a B-side channel.

    Requires each side to pass its own unsteerable certificate, which for an
    A-side channel reduces to M_A >= 0 and for a B-side channel to the full
    validity certificate; the composed channel then always passes the
    unsteerable certificate (its certificate is the direct sum of the sides').
    Its K, M and dbar are direct sums of the sides' checked arrays, so M is
    symmetric, finite and PSD by construction and is not checked again.
    """
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


def _certified_shift(k: np.ndarray, *offsets: np.ndarray) -> float:
    """max(0, -lambda_min of F - K F K^T for each F of ``offsets``) + CHANNEL_SLACK:
    M = shift * I passes each certificate M + F - K F K^T by CHANNEL_SLACK."""
    return max(0.0, *(-float(psd_spectra(certificate_matrix(k, 0.0, f, f), 0.0)[0][0])
                      for f in offsets)) + CHANNEL_SLACK


def random_unsteerable_channel(modes_a: int, modes_b: int, rng) -> GaussianChannel:
    """Random channel passing both the validity and unsteerable certificates.

    Draws K with entries uniform in [-1, 1] scaled by 1/(2(m+n)), then sets
    M = (alpha + CHANNEL_SLACK) * I where alpha compensates the most negative
    eigenvalue of the two M-free certificate parts, so both certificates are
    PSD by construction.
    """
    modes_a, modes_b = GaussianChannel._partition(modes_a, modes_b)
    rng = np.random.default_rng(rng)
    n = modes_a + modes_b
    dim = 2 * n
    k = rng.uniform(-1.0, 1.0, (dim, dim)) / dim
    shift = _certified_shift(k, steering_form(0, n), steering_form(modes_a, modes_b))
    return GaussianChannel._by_construction(modes_a, modes_b, k, shift * np.eye(dim),
                                            np.zeros(dim))


@dataclass(frozen=True)
class SampleReport:
    """Outcome of a Monte-Carlo predicate check over random input states.

    Sampling can only falsify a channel property; zero violations is
    evidence, not a certificate.
    """

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
    """Push random states through the channel and count predicate violations.

    ``bona-fide`` checks that outputs of random valid states satisfy the bona
    fide condition; ``unsteerable-preserving`` restricts inputs to unsteerable
    states (by rejection, one draw at a time) and checks outputs stay
    unsteerable.  Rejection beyond MAX_OVERSAMPLING times n_samples aborts
    with a diagnostic.  Margins are the relative minimum eigenvalues of the
    output certificates.

    Every argument is checked before the first draw, so a refused call
    leaves ``rng`` where it was.  Samples run in stacks of at most
    SAMPLE_BLOCK: bona-fide inputs are drawn as one stack, and each stack's
    outputs take one channel action and one ``eigvalsh``.  The report, and
    the Generator's end state, equal those of a loop over single samples.
    """
    if predicate not in PREDICATES:
        raise ValidationError(f"unknown predicate {predicate!r}, choose from {PREDICATES}")
    if not _is_integer(n_samples):
        raise ValidationError(f"n_samples must be an integer, got {n_samples!r}")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if ch.modes_a < 1 or ch.modes_b < 1:
        raise ValidationError("sampling requires a bipartite channel partition")
    max_sympl_eigen = _check_max_sympl_eigen(max_sympl_eigen)
    require_tol(tol)
    rng = np.random.default_rng(rng)
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
        ev, ok = psd_spectra(_act(ch, covs) + judged, tol)
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
