"""(m+n)-mode Gaussian states: covariance matrix plus mean vector records.

The A modes come first in the (Q1, P1, Q2, P2, ...) ordering.  A covariance
is bona fide iff cov + i*Omega >= 0, judged at the fixed DEFAULT_PSD_TOL
whatever the analysis ``tol``.  Each covariance is checked once: caller
input by the structural check of :class:`_ModeRecord`, plus the bona fide
test where a constructor says so.  A constructor bona fide by its own
algebra is "built without a check": ``_by_construction``, with no structural
check or eigensolve, keeping only the finiteness test that algebra needs.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_PSD_TOL,
    PsdReport,
    ValidationError,
    psd_spectra,
    require_count,
    require_finite,
    require_hermitian,
    require_number,
    require_real,
    steering_form,
    symplectic_exp,
)


def _generator(rng) -> np.random.Generator:
    """The one seed reader: ``np.random.default_rng(rng)``, a Generator
    passing as itself; a bool, which numpy reads as the seed 0 or 1, is rejected."""
    if isinstance(rng, (bool, np.bool_)):
        raise ValidationError(f"rng must be a seed or a Generator, not a bool: got {rng!r}")
    return np.random.default_rng(rng)


def _check_mode_counts(modes_a, modes_b) -> tuple[int, int]:
    """A state's partition: each side one mode at least."""
    return require_count(modes_a, "modes_a", 1), require_count(modes_b, "modes_b", 1)


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
        caller's algebra: frozen, not copied or checked."""
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
    """The one structural check of caller input: mode counts plus real,
    finite arrays of shape (dim,) * rank, the ``_symmetrized`` one symmetric
    and stored symmetrized; and the ``_kind`` of JSON document."""

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
    """Immutable state record with at least one mode per side; it does not
    test bona fide, :func:`make_state` does."""

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
    """The bona fide report at ``tol``: the tolerance rule on cov + i*Omega."""
    return PsdReport.of_hermitian(state.cov + steering_form(0, state.n_modes), tol)


def ensure_bona_fide(state: GaussianState) -> GaussianState:
    """``state`` if it is bona fide at DEFAULT_PSD_TOL, else BonaFideError
    carrying the minimum eigenvalue of cov + i*Omega."""
    report = validate_state(state)
    if not report.ok:
        raise _bona_fide_error(report.min_eigenvalue)
    return state


def _ensure_bona_fide_stack(covs: np.ndarray, n_modes: int) -> None:
    """:func:`ensure_bona_fide` on a finite, symmetric (not checked)
    ``(k, d, d)`` stack in one eigensolve: the error of its first failing row."""
    ev, ok = psd_spectra(covs + steering_form(0, n_modes), DEFAULT_PSD_TOL)
    if not ok.all():
        raise _bona_fide_error(float(ev[ok.argmin(), 0]))


def _bona_fide_error(min_eigenvalue: float) -> BonaFideError:
    """The error of a covariance failing the bona fide test at DEFAULT_PSD_TOL."""
    return BonaFideError(
        f"covariance matrix is not bona fide: min eigenvalue of cov + i*Omega "
        f"is {min_eigenvalue:.6e} (tol {DEFAULT_PSD_TOL:g})", min_eigenvalue)


def make_state(modes_a: int, modes_b: int, cov, mean=None) -> GaussianState:
    """The checked record, tested bona fide; the mean defaults to zero."""
    if mean is None:
        cov = require_real(cov, "cov")  # sizes the mean; GaussianState reads it again
        mean = np.zeros(cov.shape[:1])
    return ensure_bona_fide(GaussianState(modes_a, modes_b, cov, mean))


def standard_form_state(a: float, b: float, c: float, d: float) -> GaussianState:
    """:func:`make_state` of [[a,0,c,0],[0,a,0,d],[c,0,b,0],[0,d,0,b]], each
    parameter a finite real number."""
    a, b, c, d = (require_number(v, name, -math.inf, ends="()")
                  for v, name in zip((a, b, c, d), "abcd"))
    return make_state(1, 1, [
        [a, 0.0, c, 0.0],
        [0.0, a, 0.0, d],
        [c, 0.0, b, 0.0],
        [0.0, d, 0.0, b],
    ])


def _schmidt_factors(modes_a, modes_b, gammas) -> tuple[int, int, np.ndarray]:
    """The checked mode counts and min(modes_a, modes_b) mixing factors of a
    Schmidt form, each finite and >= 1 with a finite square."""
    gammas = np.atleast_1d(require_real(gammas, "gammas"))
    modes_a, modes_b = _check_mode_counts(modes_a, modes_b)
    k = min(modes_a, modes_b)
    if gammas.shape != (k,):
        raise ValidationError(
            f"expected {k} mixing factors for a ({modes_a}+{modes_b})-mode state, "
            f"got {gammas.shape}")
    for idx, g in enumerate(gammas.tolist()):
        require_number(g, f"gamma[{idx}]", 1.0)
    with np.errstate(over="ignore"):
        squares = gammas**2
    if not np.isfinite(squares).all():
        raise ValidationError("cov contains non-finite entries")
    return modes_a, modes_b, gammas


def schmidt_pure_state(modes_a: int, modes_b: int, gammas) -> GaussianState:
    """Pure state in phase-space Schmidt form, built without a check: factor
    gamma_k couples A_k to B_k in the pattern of :func:`_pure_pair_state`,
    and the unpaired modes are vacuum."""
    modes_a, modes_b, gammas = _schmidt_factors(modes_a, modes_b, gammas)
    cov = np.eye(2 * (modes_a + modes_b))
    for i, g in enumerate(gammas):
        pair = [2 * i, 2 * i + 1, 2 * (modes_a + i), 2 * (modes_a + i) + 1]
        cov[np.ix_(pair, pair)] = _pure_pair_state(g, math.sqrt(g * g - 1.0)).cov
    return GaussianState._by_construction(modes_a, modes_b, cov, np.zeros(cov.shape[0]))


def squeezed_vacuum_state(r: float) -> GaussianState:
    """Two-mode squeezed vacuum, r in [0, inf): :func:`_pure_pair_state` with
    g, s = cosh(2r), sinh(2r); an r that overflows them (above about 355) is
    rejected with a message naming it."""
    r = require_number(r, "r", 0.0)
    with np.errstate(over="ignore"):
        g, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    if not math.isfinite(g):  # sinh(2r) overflows with cosh(2r)
        raise ValidationError(f"cov contains non-finite entries at r = {r}")
    return _pure_pair_state(g, s)


# [[g, 0, s, 0], [0, g, 0, -s], [s, 0, g, 0], [0, -s, 0, g]] as indices into
# (0, -s, g, s): one small take costs less than a nested-list array
_PURE_PAIR_PATTERN = np.array([[2, 0, 3, 0], [0, 2, 0, 1], [3, 0, 2, 0], [0, 1, 0, 2]])


def _pure_pair_state(g: float, s: float) -> GaussianState:
    """The (1+1)-mode pure state of diagonal g and coupling s = sqrt(g^2 - 1),
    built without a check; a g or s that overflowed is rejected."""
    if not (math.isfinite(g) and math.isfinite(s)):
        raise ValidationError("cov contains non-finite entries")
    cov = np.array([0.0, -s, g, s]).take(_PURE_PAIR_PATTERN)
    return GaussianState._by_construction(1, 1, cov, np.zeros(4))


def williamson_inverse(sympl_eigenvalues, sympl: np.ndarray) -> np.ndarray:
    """S diag(nu_1, nu_1, nu_2, nu_2, ...) S^T, symmetrized, for one nu and S
    or for stacks of them."""
    nu = np.repeat(np.asarray(sympl_eigenvalues, dtype=float), 2, axis=-1)
    cov = (sympl * nu[..., None, :]) @ sympl.swapaxes(-1, -2)
    return (cov + cov.swapaxes(-1, -2)) / 2.0


def _random_covs(shape: tuple[int, ...], modes_a: int, modes_b: int,
                 max_sympl_eigen: float, rng: np.random.Generator) -> np.ndarray:
    """The one drawing path of :func:`random_state`'s covariances, ``shape``
    ``()`` for one or ``(k,)`` for a stack.  Each takes n + d^2 uniforms, nu
    then H, so a stack equals k single draws bit for bit and leaves the
    Generator where they would."""
    n = modes_a + modes_b
    return _covs_from_uniforms(rng.random((*shape, n + 4 * n * n)), n, max_sympl_eigen)


def _covs_from_uniforms(u: np.ndarray, n_modes: int, max_sympl_eigen: float) -> np.ndarray:
    """The covariances of :func:`_random_covs` from a ``(..., n + d^2)`` block
    of ``rng.random()`` draws scaled as ``Generator.uniform`` scales them: nu
    from the first n, H from the rest."""
    d = 2 * n_modes
    nu = 1.0 + (max_sympl_eigen - 1.0) * u[..., :n_modes]
    sympl = symplectic_exp(n_modes, (-1.0 + 2.0 * u[..., n_modes:]).reshape(*u.shape[:-1], d, d))
    # finite unless a huge max_sympl_eigen overflows the product
    return require_finite(williamson_inverse(nu, sympl), "cov")


def random_state(modes_a: int, modes_b: int, max_sympl_eigen: float, rng) -> GaussianState:
    """Zero-mean state S diag(nu) S^T, nu_k uniform in [1, max_sympl_eigen]
    and S = exp(Omega H), H's entries uniform in [-1, 1].  Bona fide by
    construction (every nu_k >= 1), so only tested finite: a huge
    max_sympl_eigen overflows."""
    modes_a, modes_b = _check_mode_counts(modes_a, modes_b)
    max_sympl_eigen = require_number(max_sympl_eigen, "max_sympl_eigen", 1.0)
    cov = _random_covs((), modes_a, modes_b, max_sympl_eigen, _generator(rng))
    return GaussianState._by_construction(modes_a, modes_b, cov, np.zeros(len(cov)))


def mix_covariances(s1: GaussianState, s2: GaussianState, p1: float) -> GaussianState:
    """p1 s1 + (1 - p1) s2 in covariance and mean, p1 in [0, 1], checked and
    tested bona fide (a GaussianState need not be)."""
    p1 = require_number(p1, "p1", 0.0, 1.0, "[]")
    if (s1.modes_a, s1.modes_b) != (s2.modes_a, s2.modes_b):
        raise ValidationError(
            f"partition mismatch: ({s1.modes_a},{s1.modes_b}) vs ({s2.modes_a},{s2.modes_b})")
    cov = p1 * s1.cov + (1.0 - p1) * s2.cov
    mean = p1 * s1.mean + (1.0 - p1) * s2.mean
    return ensure_bona_fide(GaussianState(s1.modes_a, s1.modes_b, cov, mean))


def state_to_json(state: GaussianState) -> str:
    """Serialize to the state document schema (floats round-trip exactly)."""
    return state._to_json()


def state_from_json(text: str, require_bona_fide: bool = True) -> GaussianState:
    """The checked state of a document, unknown keys ignored; tested bona
    fide unless require_bona_fide is False."""
    state = GaussianState._from_json(text)
    return ensure_bona_fide(state) if require_bona_fide else state
