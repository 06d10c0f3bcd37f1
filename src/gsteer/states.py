"""(m+n)-mode Gaussian states as covariance matrix plus mean vector records.

A state of m modes on side A and n modes on side B is fully described by its
2(m+n) x 2(m+n) covariance matrix and its mean vector, both in the
(Q1, P1, Q2, P2, ...) quadrature ordering with the A modes first.  A
covariance matrix is physical ("bona fide") iff cov + i*Omega >= 0, where
Omega is the symplectic form.  Input is judged bona fide at the fixed
DEFAULT_PSD_TOL (1e-9), whatever the analysis ``tol``.

Two ways in, so that each covariance is checked once:

- Caller input takes the structural check of :class:`_ModeRecord` (real,
  shape, finiteness, symmetry): ``GaussianState(...)`` itself, and
  ``make_state``, ``standard_form_state``, ``mix_covariances`` and
  ``state_from_json``, which add the bona fide test.
- Constructors whose covariance is exactly symmetric with the right shape by
  their own algebra build the record directly (``GaussianState._by_construction``),
  with no structural check and no eigensolve.  Each is bona fide by
  construction and keeps only the finiteness test its algebra cannot spare:
  ``schmidt_pure_state`` and ``squeezed_vacuum_state`` (and
  ``steering.pure_family_state``) fill the symmetric pure-state pattern from
  scalars and reject a scalar that overflows; ``random_state`` (and the
  stack of ``channels.sample_verify``) symmetrizes S diag(nu) S^T, which
  overflows for a huge ``max_sympl_eigen``, so its covariance is tested for
  finiteness; ``channels.apply`` symmetrizes
  K cov K^T + M and tests the result and the mean for finiteness;
  ``dynamics.stationary_state`` and ``dynamics.evolve`` take a bath's
  stationary covariance (finite for every bath ``BathParameters`` accepts)
  and its convex combinations with a checked state's covariance.

Mean vectors are carried everywhere even though the steering quantities
ignore them, because channels act on them and file round-trips must be
faithful.

``GaussianState``, ``channels.GaussianChannel`` and ``dynamics.Trajectory``
share one record layer, :class:`_Record`; the first two add the mode counts,
the one structural check and the JSON document of :class:`_ModeRecord`, each
keeping only its partition rule.  Every caller array is read by ``require_real``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PSD_TOL,
    PsdReport,
    ValidationError,
    require_finite,
    require_hermitian,
    require_real,
    steering_form,
    symplectic_exp,
)


def _is_integer(n) -> bool:
    """The one integer rule: an Integral that is not a bool, which Python
    counts as int."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _integer_counts(modes_a, modes_b) -> tuple[int, int]:
    """``modes_a`` and ``modes_b`` as Python ints; they must pass
    :func:`_is_integer`."""
    if type(modes_a) is int and type(modes_b) is int:
        return modes_a, modes_b
    if not (_is_integer(modes_a) and _is_integer(modes_b)):
        raise ValidationError(
            f"modes_a and modes_b must be integers, got {modes_a!r} and {modes_b!r}")
    return int(modes_a), int(modes_b)


def _check_mode_counts(modes_a, modes_b) -> tuple[int, int]:
    modes_a, modes_b = _integer_counts(modes_a, modes_b)
    if modes_a < 1 or modes_b < 1:
        raise ValidationError(f"mode counts must be positive, got ({modes_a}, {modes_b})")
    return modes_a, modes_b


class BonaFideError(ValidationError):
    """Covariance matrix violates cov + i*Omega >= 0."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


def _field_values(record) -> tuple:
    """The values of a dataclass instance's fields, in declaration order."""
    return tuple(getattr(record, field.name) for field in dataclasses.fields(record))


class _Record:
    """Dataclass fields stored once, the float arrays named by ``_arrays``
    frozen; equal, and hashed, by value."""

    _arrays: tuple[str, ...]

    def _settle(self, *values) -> None:
        """Store ``values`` as the fields, in order, and freeze the ``_arrays``."""
        fields = vars(self)
        fields.update(zip(self.__dataclass_fields__, values))
        for name in self._arrays:
            fields[name].setflags(False)  # write=False; a keyword costs more

    @classmethod
    def _by_construction(cls, *values):
        """The record of fresh float arrays that pass its checks by the
        caller's algebra: taken over and frozen, not copied or checked."""
        record = object.__new__(cls)
        record._settle(*values)
        return record

    def __eq__(self, other):
        """Value equality: the same type, equal scalar fields and equal arrays."""
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(_field_values(self), _field_values(other)))

    def __hash__(self):
        """The scalar fields and array shapes: equal records hash equally."""
        return hash((type(self), *(v.shape if isinstance(v, np.ndarray) else v
                                   for v in _field_values(self))))


class _ModeRecord(_Record):
    """Mode counts plus real, finite float arrays of shape (dim,) * rank (the
    ``_symmetrized`` one stored symmetrized), and their ``_kind`` of JSON document."""

    _kind: str
    _arrays: dict[str, int]  # array field -> rank, in field order
    _symmetrized: str
    _partition: staticmethod  # the mode counts (modes_a, modes_b) -> checked ints

    def __post_init__(self):
        modes_a, modes_b = self._partition(self.modes_a, self.modes_b)
        dim = 2 * (modes_a + modes_b)
        arrays = []
        for name, rank in self._arrays.items():
            arr = require_real(getattr(self, name), name)
            if arr.shape != (dim,) * rank:
                raise ValidationError(f"{name} must have shape {(dim,) * rank}, got {arr.shape}")
            arrays.append(require_hermitian(arr, name) if name == self._symmetrized
                          else require_finite(arr, name))
        self._settle(modes_a, modes_b, *arrays)

    @property
    def n_modes(self) -> int:
        return self.modes_a + self.modes_b

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def _to_json(self) -> str:
        doc = {"modes_a": self.modes_a, "modes_b": self.modes_b}
        doc.update((name, getattr(self, name).tolist()) for name in self._arrays)
        return json.dumps(doc, indent=2)

    @classmethod
    def _from_json(cls, text: str):
        """The checked record of a document; unknown keys are ignored."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValidationError(f"{cls._kind} document is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValidationError(f"{cls._kind} document must be a JSON object")
        missing = {"modes_a", "modes_b", *cls._arrays} - set(doc)
        if missing:
            raise ValidationError(f"{cls._kind} document missing keys: {sorted(missing)}")
        return cls(doc["modes_a"], doc["modes_b"], *(doc[name] for name in cls._arrays))


@dataclass(frozen=True, eq=False)
class GaussianState(_ModeRecord):
    """Immutable (modes_a + modes_b)-mode Gaussian state record.

    Both sides have at least one mode, and the cov stored is symmetrized
    (the structural check of :class:`_ModeRecord`).  It does not test bona
    fide; :func:`make_state` does.
    """

    modes_a: int
    modes_b: int
    cov: np.ndarray
    mean: np.ndarray

    _kind = "state"
    _arrays = {"cov": 2, "mean": 1}
    _symmetrized = "cov"
    _partition = staticmethod(_check_mode_counts)

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
    if mean is None:
        mean = np.zeros(np.shape(cov)[:1])
    return ensure_bona_fide(GaussianState(modes_a, modes_b, cov, mean))


def standard_form_state(a: float, b: float, c: float, d: float) -> GaussianState:
    """(1+1)-mode state with covariance [[a,0,c,0],[0,a,0,d],[c,0,b,0],[0,d,0,b]],
    judged by :func:`make_state`'s checks and bona fide rule."""
    return make_state(1, 1, [
        [a, 0.0, c, 0.0],
        [0.0, a, 0.0, d],
        [c, 0.0, b, 0.0],
        [0.0, d, 0.0, b],
    ])


def _schmidt_factors(modes_a, modes_b, gammas) -> tuple[int, int, np.ndarray]:
    """The checked mode counts and mixing factors of a phase-space Schmidt
    form: min(modes_a, modes_b) factors, each finite and >= 1, whose squares
    are finite (a larger factor overflows the covariance)."""
    gammas = np.atleast_1d(require_real(gammas, "gammas"))
    modes_a, modes_b = _check_mode_counts(modes_a, modes_b)
    k = min(modes_a, modes_b)
    if gammas.shape != (k,):
        raise ValidationError(
            f"expected {k} mixing factors for a ({modes_a}+{modes_b})-mode state, "
            f"got {gammas.shape}")
    for idx, g in enumerate(gammas):
        if not np.isfinite(g) or g < 1.0:
            raise ValidationError(f"mixing factor gamma[{idx}] = {g} must be >= 1")
    with np.errstate(over="ignore"):
        squares = gammas**2
    if not np.isfinite(squares).all():
        raise ValidationError("cov contains non-finite entries")
    return modes_a, modes_b, gammas


def schmidt_pure_state(modes_a: int, modes_b: int, gammas) -> GaussianState:
    """Pure-state covariance in phase-space Schmidt form (bona fide: pure, every
    symplectic eigenvalue is 1).

    Each mixing factor gamma_k >= 1 couples mode A_k to mode B_k through the
    off-diagonal block diag(sqrt(gamma_k^2 - 1), -sqrt(gamma_k^2 - 1)), the
    (1+1) pattern of :func:`_pure_pair_state` placed on the pair's quadratures;
    the |modes_a - modes_b| unpaired modes on the larger side are vacuum.
    """
    modes_a, modes_b, gammas = _schmidt_factors(modes_a, modes_b, gammas)
    cov = np.eye(2 * (modes_a + modes_b))
    for i, g in enumerate(gammas):
        pair = [2 * i, 2 * i + 1, 2 * (modes_a + i), 2 * (modes_a + i) + 1]
        cov[np.ix_(pair, pair)] = _pure_pair_state(g, math.sqrt(g * g - 1.0)).cov
    return GaussianState._by_construction(modes_a, modes_b, cov, np.zeros(cov.shape[0]))


def squeezed_vacuum_state(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0: the Schmidt
    pure state (so bona fide) that ``steering.pure_family_state`` fills too,
    here with g, s = cosh(2r), sinh(2r)."""
    if not np.isfinite(r) or r < 0:
        raise ValidationError(f"squeezing parameter must be >= 0, got {r}")
    with np.errstate(over="ignore"):
        return _pure_pair_state(np.cosh(2.0 * r), np.sinh(2.0 * r))


def _pure_pair_state(g: float, s: float) -> GaussianState:
    """The (1+1)-mode pure Schmidt-form state with diagonal g and coupling
    s = sqrt(g^2 - 1); a g or s that overflowed is rejected."""
    if not (math.isfinite(g) and math.isfinite(s)):
        raise ValidationError("cov contains non-finite entries")
    cov = np.array([
        [g, 0.0, s, 0.0],
        [0.0, g, 0.0, -s],
        [s, 0.0, g, 0.0],
        [0.0, -s, 0.0, g],
    ])
    return GaussianState._by_construction(1, 1, cov, np.zeros(4))


def williamson_inverse(sympl_eigenvalues, sympl: np.ndarray) -> np.ndarray:
    """Assemble S * diag(nu_1, nu_1, nu_2, nu_2, ...) * S^T, symmetrized, for
    one ``(n,)`` nu and ``(2n, 2n)`` S or for ``(..., n)`` and ``(..., 2n, 2n)``
    stacks; the diagonal scales the columns of S."""
    nu = np.repeat(np.asarray(sympl_eigenvalues, dtype=float), 2, axis=-1)
    cov = (sympl * nu[..., None, :]) @ sympl.swapaxes(-1, -2)
    return (cov + cov.swapaxes(-1, -2)) / 2.0


def _check_max_sympl_eigen(max_sympl_eigen: float) -> float:
    """``max_sympl_eigen`` as a float; it must be finite and >= 1."""
    if not np.isfinite(max_sympl_eigen) or max_sympl_eigen < 1.0:
        raise ValidationError(f"max_sympl_eigen must be >= 1, got {max_sympl_eigen}")
    return float(max_sympl_eigen)


def _random_covs(shape: tuple[int, ...], modes_a: int, modes_b: int,
                 max_sympl_eigen: float, rng: np.random.Generator) -> np.ndarray:
    """The one drawing path: a ``(*shape, d, d)`` array of the covariances
    :func:`random_state` describes, from checked arguments and a Generator;
    ``shape`` is ``()`` for one covariance or ``(k,)`` for a stack of k.

    Sample i takes n + d^2 uniforms, nu then H in stream order, scaled as
    ``Generator.uniform`` scales them, so the stack equals k rounds of
    ``rng.uniform(1, max_sympl_eigen, n)`` and ``rng.uniform(-1, 1, (d, d))``
    bit for bit, and the Generator ends where those rounds leave it.
    """
    n = modes_a + modes_b
    d = 2 * n
    u = rng.random((*shape, n + d * d))
    nu = 1.0 + (max_sympl_eigen - 1.0) * u[..., :n]
    sympl = symplectic_exp(n, (-1.0 + 2.0 * u[..., n:]).reshape(*shape, d, d))
    # finite unless a huge max_sympl_eigen overflows the product
    return require_finite(williamson_inverse(nu, sympl), "cov")


def random_state(modes_a: int, modes_b: int, max_sympl_eigen: float, rng) -> GaussianState:
    """Random state, bona fide by construction: cov + i*Omega = S (D + i*Omega) S^T
    with D + i*Omega >= 0 because every nu_k >= 1.

    Draws symplectic eigenvalues nu_k uniform in [1, max_sympl_eigen] and a
    random symplectic S = exp(Omega H) with H symmetric, entries uniform in
    [-1, 1], then returns S diag(nu) S^T with zero mean.  Deterministic for a
    fixed integer seed; pass independent generators for parallel sampling.
    """
    modes_a, modes_b = _check_mode_counts(modes_a, modes_b)
    max_sympl_eigen = _check_max_sympl_eigen(max_sympl_eigen)
    cov = _random_covs((), modes_a, modes_b, max_sympl_eigen, np.random.default_rng(rng))
    return GaussianState._by_construction(modes_a, modes_b, cov, np.zeros(len(cov)))


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
    return state._to_json()


def state_from_json(text: str, require_bona_fide: bool = True) -> GaussianState:
    """Parse a state document; unknown keys are ignored.

    With require_bona_fide=False only structural validation runs, which lets
    callers report the bona fide margin instead of failing.
    """
    state = GaussianState._from_json(text)
    return ensure_bona_fide(state) if require_bona_fide else state
