"""(m+n)-mode Gaussian states as covariance matrix plus mean vector records.

A state of m modes on side A and n modes on side B is fully described by its
2(m+n) x 2(m+n) covariance matrix and its mean vector, both in the
(Q1, P1, Q2, P2, ...) quadrature ordering with the A modes first.  A
covariance matrix is physical ("bona fide") iff cov + i*Omega >= 0, where
Omega is the symplectic form.  Input is judged bona fide at the fixed
DEFAULT_PSD_TOL (1e-9), whatever the analysis ``tol``.

Two ways in, so that each covariance is checked once:

- Caller input takes the structural check of :class:`GaussianState` (shape,
  finiteness, symmetry): ``GaussianState(...)`` itself, and ``make_state``,
  ``standard_form_state``, ``mix_covariances`` and ``state_from_json``, which
  add the bona fide test.
- Constructors whose covariance is exactly symmetric with the right shape by
  their own algebra build the record directly (``GaussianState._by_construction``),
  with no structural check and no eigensolve.  Each is bona fide by
  construction and keeps only the finiteness test its algebra cannot spare:
  ``schmidt_pure_state`` and ``squeezed_vacuum_state`` (and
  ``steering.pure_family_state``) fill the symmetric pure-state pattern from
  scalars and reject a scalar that overflows; ``random_state`` symmetrizes
  S diag(nu) S^T, which overflows for a huge ``max_sympl_eigen``, so its
  covariance is tested for finiteness; ``channels.apply`` symmetrizes
  K cov K^T + M after testing it and the mean for finiteness;
  ``dynamics.stationary_state`` and ``dynamics.evolve`` take a bath's
  stationary covariance (finite for every bath ``BathParameters`` accepts)
  and its convex combinations with a checked state's covariance.

Mean vectors are carried everywhere even though the steering quantities
ignore them, because channels act on them and file round-trips must be
faithful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PSD_TOL,
    PsdReport,
    ValidationError,
    random_symplectic,
    require_finite,
    require_hermitian,
    steering_form,
)


class BonaFideError(ValidationError):
    """Covariance matrix violates cov + i*Omega >= 0."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


@dataclass(frozen=True)
class GaussianState:
    """Immutable (modes_a + modes_b)-mode Gaussian state record.

    The one structural check of a covariance matrix: shape, finiteness and
    symmetry within HERMITICITY_TOL; the cov stored is symmetrized.  It
    does not test bona fide; :func:`make_state` does.  The arrays are frozen.
    Constructors that build an exactly symmetric, finite covariance of the
    right shape skip the check through :meth:`_by_construction`.
    """

    modes_a: int
    modes_b: int
    cov: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        cov = require_hermitian(np.asarray(self.cov, dtype=float), name="cov")
        if self.modes_a < 1 or self.modes_b < 1:
            raise ValidationError(
                f"mode counts must be positive, got ({self.modes_a}, {self.modes_b})")
        dim = 2 * (self.modes_a + self.modes_b)
        mean = np.array(self.mean, dtype=float)
        if cov.shape != (dim, dim):
            raise ValidationError(f"cov must have shape ({dim}, {dim}), got {cov.shape}")
        if mean.shape != (dim,):
            raise ValidationError(f"mean must have length {dim}, got shape {mean.shape}")
        require_finite(mean, "mean")
        cov.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "mean", mean)

    @classmethod
    def _by_construction(cls, modes_a: int, modes_b: int, cov: np.ndarray,
                         mean: np.ndarray) -> GaussianState:
        """The record of fresh float arrays that are finite, of the right
        shape, and (cov) exactly symmetric by the caller's algebra: they are
        taken over and frozen, not copied or checked."""
        cov.setflags(write=False)
        mean.setflags(write=False)
        state = object.__new__(cls)
        for name, value in (("modes_a", modes_a), ("modes_b", modes_b),
                            ("cov", cov), ("mean", mean)):
            object.__setattr__(state, name, value)
        return state

    @property
    def n_modes(self) -> int:
        return self.modes_a + self.modes_b

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def block_a(self) -> np.ndarray:
        return self.cov[: 2 * self.modes_a, : 2 * self.modes_a]

    def block_b(self) -> np.ndarray:
        return self.cov[2 * self.modes_a :, 2 * self.modes_a :]

    def block_c(self) -> np.ndarray:
        return self.cov[: 2 * self.modes_a, 2 * self.modes_a :]


def validate_state(state: GaussianState, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Bona fide report: tolerant PSD test of cov + i*Omega."""
    return PsdReport.of_hermitian(state.cov + steering_form(0, state.n_modes), tol)


def ensure_bona_fide(state: GaussianState) -> GaussianState:
    """Return ``state`` unchanged if it passes the bona fide test at the fixed
    DEFAULT_PSD_TOL (1e-9), whatever the analysis ``tol``, else raise
    BonaFideError carrying the minimum eigenvalue of cov + i*Omega."""
    report = validate_state(state)
    if not report.ok:
        raise BonaFideError(
            f"covariance matrix is not bona fide: min eigenvalue of cov + i*Omega "
            f"is {report.min_eigenvalue:.6e} (tol {report.tol:g})", report.min_eigenvalue)
    return state


def make_state(modes_a: int, modes_b: int, cov, mean=None) -> GaussianState:
    """Validated constructor: the checks of :class:`GaussianState` plus the
    bona fide condition; the mean defaults to zero."""
    cov = np.asarray(cov, dtype=float)
    if mean is None:
        mean = np.zeros(cov.shape[:1])
    return ensure_bona_fide(GaussianState(modes_a, modes_b, cov, mean))


def mode_counts(doc: dict) -> tuple[int, int]:
    """``modes_a`` and ``modes_b`` of a parsed document, which must be JSON
    integers (``true``/``false`` are rejected, though Python counts bool as int)."""
    counts = doc["modes_a"], doc["modes_b"]
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in counts):
        raise ValidationError(
            f"modes_a and modes_b must be integers, got {counts[0]!r} and {counts[1]!r}")
    return counts


def check_standard_form_params(a: float, b: float, c: float, d: float) -> None:
    """Verify the (1+1)-mode standard-form constraints, naming any failure.

    Constraints: a >= 1, b >= 1, a(ab - c^2) - b >= 0, b(ab - d^2) - a >= 0,
    (ab - c^2)(ab - d^2) + 1 - a^2 - b^2 - 2cd >= 0.  A relative slack absorbs
    rounding in parameter values supplied from closed-form expressions.
    """
    slack = 1e-9 * max(1.0, (a * b) ** 2)
    checks = [
        ("a >= 1", a - 1.0),
        ("b >= 1", b - 1.0),
        ("a(ab - c^2) - b >= 0", a * (a * b - c * c) - b),
        ("b(ab - d^2) - a >= 0", b * (a * b - d * d) - a),
        ("(ab - c^2)(ab - d^2) + 1 - a^2 - b^2 - 2cd >= 0",
         (a * b - c * c) * (a * b - d * d) + 1.0 - a * a - b * b - 2.0 * c * d),
    ]
    for name, value in checks:
        if not np.isfinite(value) or value < -slack:
            raise ValidationError(
                f"standard-form constraint violated: {name} (value {value:.6e})")


def standard_form_state(a: float, b: float, c: float, d: float) -> GaussianState:
    """(1+1)-mode state with covariance [[a,0,c,0],[0,a,0,d],[c,0,b,0],[0,d,0,b]]."""
    check_standard_form_params(a, b, c, d)
    cov = np.array([
        [a, 0.0, c, 0.0],
        [0.0, a, 0.0, d],
        [c, 0.0, b, 0.0],
        [0.0, d, 0.0, b],
    ])
    return make_state(1, 1, cov)


def schmidt_pure_state(modes_a: int, modes_b: int, gammas) -> GaussianState:
    """Pure-state covariance in phase-space Schmidt form (bona fide: pure, every
    symplectic eigenvalue is 1).

    Each mixing factor gamma_k >= 1 couples mode A_k to mode B_k through the
    off-diagonal block diag(sqrt(gamma_k^2 - 1), -sqrt(gamma_k^2 - 1)); the
    |modes_a - modes_b| unpaired modes on the larger side are vacuum.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    k = min(modes_a, modes_b)
    if modes_a < 1 or modes_b < 1:
        raise ValidationError(
            f"mode counts must be positive, got ({modes_a}, {modes_b})")
    if gammas.shape != (k,):
        raise ValidationError(
            f"expected {k} mixing factors for a ({modes_a}+{modes_b})-mode state, "
            f"got {gammas.shape}")
    for idx, g in enumerate(gammas):
        if not np.isfinite(g) or g < 1.0:
            raise ValidationError(f"mixing factor gamma[{idx}] = {g} must be >= 1")
    with np.errstate(over="ignore"):
        couplings = np.sqrt(gammas**2 - 1.0)
    if not np.isfinite(couplings).all():
        raise ValidationError("cov contains non-finite entries")
    a_diag = np.ones(modes_a)
    b_diag = np.ones(modes_b)
    a_diag[:k] = gammas
    b_diag[:k] = gammas
    cov = np.zeros((2 * (modes_a + modes_b), 2 * (modes_a + modes_b)))
    cov[: 2 * modes_a, : 2 * modes_a] = np.diag(np.repeat(a_diag, 2))
    cov[2 * modes_a :, 2 * modes_a :] = np.diag(np.repeat(b_diag, 2))
    for i, coupling in enumerate(couplings):
        block = np.diag([coupling, -coupling])
        cov[2 * i : 2 * i + 2, 2 * modes_a + 2 * i : 2 * modes_a + 2 * i + 2] = block
        cov[2 * modes_a + 2 * i : 2 * modes_a + 2 * i + 2, 2 * i : 2 * i + 2] = block
    return GaussianState._by_construction(modes_a, modes_b, cov, np.zeros(cov.shape[0]))


def squeezed_vacuum_state(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0.

    Identical to the Schmidt pure state at gamma = cosh(2r): pure, so bona fide.
    """
    if not np.isfinite(r) or r < 0:
        raise ValidationError(f"squeezing parameter must be >= 0, got {r}")
    with np.errstate(over="ignore"):
        ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    if not np.isfinite(ch):  # then sh, which is below ch, overflows too
        raise ValidationError("cov contains non-finite entries")
    cov = np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ])
    return GaussianState._by_construction(1, 1, cov, np.zeros(4))


def williamson_inverse(sympl_eigenvalues, sympl: np.ndarray) -> np.ndarray:
    """Assemble S * diag(nu_1, nu_1, nu_2, nu_2, ...) * S^T."""
    nu = np.asarray(sympl_eigenvalues, dtype=float)
    cov = sympl @ np.diag(np.repeat(nu, 2)) @ sympl.T
    return (cov + cov.T) / 2.0


def random_state(modes_a: int, modes_b: int, max_sympl_eigen: float, rng) -> GaussianState:
    """Random state, bona fide by construction: cov + i*Omega = S (D + i*Omega) S^T
    with D + i*Omega >= 0 because every nu_k >= 1.

    Draws symplectic eigenvalues nu_k uniform in [1, max_sympl_eigen] and a
    random symplectic S = exp(Omega H) with H symmetric, entries uniform in
    [-1, 1], then returns S diag(nu) S^T with zero mean.  Deterministic for a
    fixed integer seed; pass independent generators for parallel sampling.
    """
    if not np.isfinite(max_sympl_eigen) or max_sympl_eigen < 1.0:
        raise ValidationError(f"max_sympl_eigen must be >= 1, got {max_sympl_eigen}")
    rng = np.random.default_rng(rng)
    n = modes_a + modes_b
    nu = rng.uniform(1.0, max_sympl_eigen, n)
    sympl = random_symplectic(n, rng)
    # finite unless a huge max_sympl_eigen overflows the product
    cov = require_finite(williamson_inverse(nu, sympl), "cov")
    return GaussianState._by_construction(modes_a, modes_b, cov, np.zeros(2 * n))


def mix_covariances(s1: GaussianState, s2: GaussianState, p1: float) -> GaussianState:
    """State with the convex combination p1*cov1 + (1-p1)*cov2 of covariances.

    Bona fide when both inputs are (the PSD cone is convex); tested, because
    a GaussianState need not be.  Means mix with the same weights.
    """
    if (s1.modes_a, s1.modes_b) != (s2.modes_a, s2.modes_b):
        raise ValidationError(
            f"partition mismatch: ({s1.modes_a},{s1.modes_b}) vs ({s2.modes_a},{s2.modes_b})")
    if not 0.0 <= p1 <= 1.0:
        raise ValidationError(f"p1 must lie in [0, 1], got {p1}")
    cov = p1 * s1.cov + (1.0 - p1) * s2.cov
    mean = p1 * s1.mean + (1.0 - p1) * s2.mean
    return ensure_bona_fide(GaussianState(s1.modes_a, s1.modes_b, cov, mean))


def state_to_json(state: GaussianState) -> str:
    """Serialize to the state document schema (floats round-trip exactly)."""
    return json.dumps({
        "modes_a": state.modes_a,
        "modes_b": state.modes_b,
        "cov": state.cov.tolist(),
        "mean": state.mean.tolist(),
    }, indent=2)


def state_from_json(text: str, require_bona_fide: bool = True) -> GaussianState:
    """Parse a state document; unknown keys are ignored.

    With require_bona_fide=False only structural validation runs, which lets
    callers report the bona fide margin instead of failing.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValidationError("state document must be a JSON object")
    missing = {"modes_a", "modes_b", "cov", "mean"} - set(doc)
    if missing:
        raise ValidationError(f"state document missing keys: {sorted(missing)}")
    modes_a, modes_b = mode_counts(doc)
    try:
        cov = np.array(doc["cov"], dtype=float)
        mean = np.array(doc["mean"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cov/mean must be numeric arrays: {exc}") from None
    state = GaussianState(modes_a, modes_b, cov, mean)
    return ensure_bona_fide(state) if require_bona_fide else state
