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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PSD_TOL,
    PsdReport,
    ValidationError,
    require_finite,
    require_hermitian,
    steering_form,
)
from .states import GaussianState, ensure_bona_fide, mode_counts, random_state, validate_state
from .steering import is_unsteerable


CHANNEL_SLACK = 1e-6  # margin of random_unsteerable_channel's M over both certificates


class SamplingAbortError(RuntimeError):
    """Rejection sampling exceeded the allowed oversampling factor."""


@dataclass(frozen=True)
class GaussianChannel:
    """Immutable channel record; M is symmetrized and required PSD.

    Composite channels built from checked channels skip the check through
    :meth:`_by_construction`.
    """

    modes_a: int
    modes_b: int
    K: np.ndarray
    M: np.ndarray
    dbar: np.ndarray

    def __post_init__(self):
        if self.modes_a < 0 or self.modes_b < 0 or self.modes_a + self.modes_b < 1:
            raise ValidationError(
                f"invalid mode partition ({self.modes_a}, {self.modes_b})")
        dim = self.dim
        k = require_finite(np.array(self.K, dtype=float), "K")
        m = np.array(self.M, dtype=float)
        dbar = require_finite(np.array(self.dbar, dtype=float), "dbar")
        if k.shape != (dim, dim):
            raise ValidationError(f"K must have shape ({dim}, {dim}), got {k.shape}")
        if m.shape != (dim, dim):
            raise ValidationError(f"M must have shape ({dim}, {dim}), got {m.shape}")
        if dbar.shape != (dim,):
            raise ValidationError(f"dbar must have length {dim}, got {dbar.shape}")
        m = require_hermitian(m, name="M")
        rep = PsdReport.of_hermitian(m, DEFAULT_PSD_TOL)
        if not rep.ok:
            raise ValidationError(
                f"M must be PSD, min eigenvalue {rep.min_eigenvalue:.6e}")
        for name, arr in (("K", k), ("M", m), ("dbar", dbar)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _by_construction(cls, modes_a: int, modes_b: int, k: np.ndarray,
                         m: np.ndarray, dbar: np.ndarray) -> GaussianChannel:
        """The record of fresh float arrays of the right shapes that are
        finite, with M exactly symmetric and PSD by the caller's algebra:
        they are taken over and frozen, not copied or checked."""
        for arr in (k, m, dbar):
            arr.setflags(write=False)
        channel = object.__new__(cls)
        for name, value in (("modes_a", modes_a), ("modes_b", modes_b),
                            ("K", k), ("M", m), ("dbar", dbar)):
            object.__setattr__(channel, name, value)
        return channel

    @property
    def n_modes(self) -> int:
        return self.modes_a + self.modes_b

    @property
    def dim(self) -> int:
        return 2 * self.n_modes


def identity_channel(modes_a: int, modes_b: int) -> GaussianChannel:
    dim = 2 * (modes_a + modes_b)
    return GaussianChannel(modes_a, modes_b, np.eye(dim), np.zeros((dim, dim)),
                           np.zeros(dim))


def side_a_channel(K, M, dbar=None) -> GaussianChannel:
    """Channel acting on A modes only (empty B side)."""
    k = np.atleast_2d(np.asarray(K, dtype=float))
    if dbar is None:
        dbar = np.zeros(k.shape[0])
    return GaussianChannel(k.shape[0] // 2, 0, k, M, dbar)


def side_b_channel(K, M, dbar=None) -> GaussianChannel:
    """Channel acting on B modes only (empty A side)."""
    k = np.atleast_2d(np.asarray(K, dtype=float))
    if dbar is None:
        dbar = np.zeros(k.shape[0])
    return GaussianChannel(0, k.shape[0] // 2, k, M, dbar)


def certificate_matrix(k: np.ndarray, m, f_out: np.ndarray, f_in: np.ndarray) -> np.ndarray:
    """The symmetrized certificate M + F_out - K F_in K^T for Hermitian
    offsets F_out and F_in; pass m = 0 for the M-free part."""
    cert = m + f_out - k @ f_in @ k.T
    return (cert + np.conj(cert).T) / 2.0


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

        return json.dumps({
            "valid_gaussian": entry(self.valid_gaussian),
            "unsteerable": entry(self.unsteerable),
            "steering_breaking": entry(self.steering_breaking),
        }, indent=2)


def classify(ch: GaussianChannel, tol: float = DEFAULT_PSD_TOL) -> ChannelClassification:
    return ChannelClassification(
        valid_gaussian=is_valid_gaussian(ch, tol),
        unsteerable=is_unsteerable_channel(ch, tol),
        steering_breaking=is_steering_breaking(ch, tol),
    )


def apply(ch: GaussianChannel, state: GaussianState,
          enforce: bool | None = None) -> GaussianState:
    """Apply the channel: cov' = K cov K^T + M, mean' = K mean + dbar.

    When the channel passes the validity certificate the output is tested
    for the bona fide condition, both at DEFAULT_PSD_TOL (a failure signals a
    numerical bug); otherwise it is returned untested so experiments on
    non-certified channels can inspect the result.  ``enforce`` overrides it.
    """
    if (ch.modes_a, ch.modes_b) != (state.modes_a, state.modes_b):
        raise ValidationError(
            f"partition mismatch: channel ({ch.modes_a},{ch.modes_b}) vs "
            f"state ({state.modes_a},{state.modes_b})")
    # finite inputs can overflow, so both are tested; cov then gets the
    # symmetrization GaussianState applies, and is exactly symmetric
    cov = require_finite(ch.K @ state.cov @ ch.K.T + ch.M, "cov")
    mean = require_finite(ch.K @ state.mean + ch.dbar, "mean")
    out = GaussianState._by_construction(ch.modes_a, ch.modes_b, (cov + cov.T) / 2.0, mean)
    if enforce is None:
        enforce = bool(is_valid_gaussian(ch).ok)
    return ensure_bona_fide(out) if enforce else out


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
    da, db = ch_a.dim, ch_b.dim
    k = np.zeros((da + db, da + db))
    m = np.zeros((da + db, da + db))
    k[:da, :da] = ch_a.K
    k[da:, da:] = ch_b.K
    m[:da, :da] = ch_a.M
    m[da:, da:] = ch_b.M
    return GaussianChannel._by_construction(ch_a.modes_a, ch_b.modes_b, k, m,
                                            np.concatenate([ch_a.dbar, ch_b.dbar]))


def random_unsteerable_channel(modes_a: int, modes_b: int, rng) -> GaussianChannel:
    """Random channel passing both the validity and unsteerable certificates.

    Draws K with entries uniform in [-1, 1] scaled by 1/(2(m+n)), then sets
    M = (alpha + CHANNEL_SLACK) * I where alpha compensates the most negative
    eigenvalue of the two M-free certificate parts, so both certificates are
    PSD by construction.
    """
    rng = np.random.default_rng(rng)
    n = modes_a + modes_b
    dim = 2 * n
    k = rng.uniform(-1.0, 1.0, (dim, dim)) / dim
    omega, f = steering_form(0, n), steering_form(modes_a, modes_b)
    alpha = max(0.0,
                -float(np.linalg.eigvalsh(certificate_matrix(k, 0.0, omega, omega))[0]),
                -float(np.linalg.eigvalsh(certificate_matrix(k, 0.0, f, f))[0]))
    m = (alpha + CHANNEL_SLACK) * np.eye(dim)
    return GaussianChannel(modes_a, modes_b, k, m, np.zeros(dim))


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
        return json.dumps({
            "predicate": self.predicate,
            "n_samples": self.n_samples,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "mean_margin": self.mean_margin,
            "draws": self.draws,
        }, indent=2)


PREDICATES = ("bona-fide", "unsteerable-preserving")


def sample_verify(ch: GaussianChannel, n_samples: int, rng,
                  predicate: str = "bona-fide",
                  max_sympl_eigen: float = 5.0,
                  tol: float = 1e-8,
                  max_oversampling: int = 100) -> SampleReport:
    """Push random states through the channel and count predicate violations.

    ``bona-fide`` checks that outputs of random valid states satisfy the bona
    fide condition; ``unsteerable-preserving`` restricts inputs to unsteerable
    states (by rejection) and checks outputs stay unsteerable.  Rejection
    beyond ``max_oversampling`` times n_samples aborts with a diagnostic.
    Margins are the relative minimum eigenvalues of the output certificates.
    """
    if predicate not in PREDICATES:
        raise ValidationError(f"unknown predicate {predicate!r}, choose from {PREDICATES}")
    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if ch.modes_a < 1 or ch.modes_b < 1:
        raise ValidationError("sampling requires a bipartite channel partition")
    rng = np.random.default_rng(rng)
    draws = 0
    violations = 0
    worst = np.inf
    margin_sum = 0.0
    first_counterexample = None
    for _ in range(n_samples):
        while True:
            draws += 1
            if draws > max_oversampling * n_samples:
                raise SamplingAbortError(
                    f"rejection sampling exceeded {max_oversampling}x oversampling "
                    f"({draws} draws for {predicate!r}); the input distribution "
                    f"rarely satisfies the predicate's precondition")
            state = random_state(ch.modes_a, ch.modes_b, max_sympl_eigen, rng)
            if predicate == "bona-fide" or is_unsteerable(state, tol).ok:
                break
        out = apply(ch, state, enforce=False)
        rep = validate_state(out, tol) if predicate == "bona-fide" \
            else is_unsteerable(out, tol)
        margin = rep.margin
        worst = min(worst, margin)
        margin_sum += margin
        if not rep.ok:
            violations += 1
            if first_counterexample is None:
                first_counterexample = state
    return SampleReport(predicate, n_samples, violations, float(worst),
                        margin_sum / n_samples, draws, first_counterexample)


def channel_to_json(ch: GaussianChannel) -> str:
    """Serialize to the channel document schema."""
    return json.dumps({
        "modes_a": ch.modes_a,
        "modes_b": ch.modes_b,
        "K": ch.K.tolist(),
        "M": ch.M.tolist(),
        "dbar": ch.dbar.tolist(),
    }, indent=2)


def channel_from_json(text: str) -> GaussianChannel:
    """Parse a channel document; unknown keys are ignored."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValidationError("channel document must be a JSON object")
    missing = {"modes_a", "modes_b", "K", "M", "dbar"} - set(doc)
    if missing:
        raise ValidationError(f"channel document missing keys: {sorted(missing)}")
    modes_a, modes_b = mode_counts(doc)
    try:
        k = np.array(doc["K"], dtype=float)
        m = np.array(doc["M"], dtype=float)
        dbar = np.array(doc["dbar"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"K/M/dbar must be numeric arrays: {exc}") from None
    return GaussianChannel(modes_a, modes_b, k, m, dbar)
