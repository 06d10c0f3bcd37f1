"""Symplectic forms, validation, the PSD tolerance rule and kernel, and the
kernels that turn random draws into orthogonal and symplectic matrices.

Validation reads every caller argument once: an array by ``require_real``,
a real scalar by ``require_number`` (a Python float in its interval) and a
count by ``require_count`` (a Python int), so the code past them sees only
floats, ints and float arrays.

All quantities are dimensionless (hbar = 1, so the vacuum covariance matrix is
the identity) and quadratures are ordered (Q1, P1, Q2, P2, ...).  Matrices are
plain numpy arrays.  Every function here is pure (callers draw the random
numbers), and the cached forms are read-only, so values can be shared freely
between threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_PSD_TOL = 1e-9
HERMITICITY_TOL = 1e-12


class ValidationError(ValueError):
    """An input fails a structural precondition (shape, symmetry, finiteness)."""


@functools.lru_cache(maxsize=None, typed=True)  # typed: True is no cached 1
def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of ``n_modes`` copies of [[0, 1], [-1, 0]], built once per
    mode count and shared read-only."""
    n_modes = require_count(n_modes, "n_modes")
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


@functools.lru_cache(maxsize=None)
def steering_form(modes_a: int, modes_b: int) -> np.ndarray:
    """The Hermitian offset 0_A (+) i*Omega_B, built once per partition and
    shared read-only; ``steering_form(0, n)`` is i*Omega, the bona fide offset."""
    dim = 2 * (modes_a + modes_b)
    z = np.zeros((dim, dim), dtype=complex)
    z[2 * modes_a :, 2 * modes_a :] = 1j * symplectic_form(modes_b)
    z.setflags(write=False)
    return z


def require_finite(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(mat)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def require_real(value, name: str) -> np.ndarray:
    """The one reader of a caller's array: ``value`` as a fresh float array;
    complex (before numpy drops the imaginary parts), non-numeric and
    boolean rejected.  numpy reads True as 1: a bool, a bool array and True
    or False among the numbers of a nested list are all refused."""
    try:
        arr = np.asarray(value)
        real = None if np.iscomplexobj(arr) else np.array(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from None
    if real is None:
        raise ValidationError(f"{name} must be real")
    if _holds_bool(value, arr):
        raise ValidationError(f"{name} must hold numbers, not booleans")
    return real


def _holds_bool(value, arr: np.ndarray) -> bool:
    """Whether ``value``, read by numpy as ``arr``, holds a bool: a bool
    dtype, or True or False among the entries of an array-like nested
    ``arr.ndim`` deep (numpy casts them to a number with the rest)."""
    if arr.dtype == bool:
        return True
    if arr.ndim == 0 or (isinstance(value, np.ndarray) and value.dtype != object):
        return False  # a scalar that is no bool, or an array of one numeric dtype
    for _ in range(arr.ndim - 1):
        value = itertools.chain.from_iterable(value)
    return not {bool, np.bool_}.isdisjoint(map(type, value))


def require_hermitian(h: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a square, near-Hermitian matrix and return the symmetrized
    (h + h^dagger)/2, which must be finite (a finite h can overflow it).

    The tolerance HERMITICITY_TOL is relative to max(1, largest |entry|);
    inputs beyond it are rejected rather than repaired, naming the worst entry.
    A non-finite entry is reported as such, not as an asymmetry.
    """
    arr = np.asarray(h)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValidationError(f"{name} must have positive dimension")
    adj = np.conj(arr).T if np.iscomplexobj(arr) else arr.T
    # caller input only: inf - inf and overflow are expected and caught below
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.abs(arr - adj)
        worst = defect.max()
        # the scale is >= 1, so a defect within HERMITICITY_TOL passes at any
        # scale; a non-finite entry makes worst NaN or the scale inf and passes
        if worst > HERMITICITY_TOL:
            scale = max(1.0, float(np.abs(arr).max()))
            if worst > HERMITICITY_TOL * scale:
                i, j = np.unravel_index(int(np.argmax(defect)), defect.shape)
                raise ValidationError(
                    f"{name} is not symmetric: |h[{i},{j}] - conj(h[{j},{i}])| = "
                    f"{worst:.6e} exceeds {HERMITICITY_TOL:g} * {scale:.6e}")
        return require_finite((arr + adj) / 2.0, name)


def require_number(value, name: str, low: float, high: float = math.inf,
                   ends: str = "[)") -> float:
    """The one real-scalar rule: ``value`` as a Python float in the interval
    from ``low`` to ``high`` whose ``ends`` are "[)", "()" or "[]".

    ``value`` must be a ``numbers.Real`` that is not a bool (Python counts
    True as 1; numpy's bool is no ``numbers.Real``), else "<name> must be a
    real number, got <value>" is raised.  It is converted once, an int or
    Fraction too large for a float reading as +-inf; NaN fails every
    interval, with "<name> must be in <interval>, got <value>".  -0.0 is
    returned as 0.0.
    """
    if type(value) is not float:  # a Python float is the hot case: no conversion
        if not (isinstance(value, float)
                or isinstance(value, numbers.Real) and not isinstance(value, bool)):
            raise ValidationError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    if (low <= value < high if ends == "[)" else low < value < high if ends == "()"
            else low <= value <= high):
        return value + 0.0  # -0.0 + 0.0 is 0.0
    raise ValidationError(f"{name} must be in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value}")


def require_count(value, name: str, low: int = 0) -> int:
    """The one count rule: ``value`` as a Python int >= ``low``.  It must be a
    ``numbers.Integral`` that is not a bool, else "<name> must be an integer,
    got <value>" is raised; a smaller count raises "<name> must be in
    [<low>, inf), got <value>"."""
    if type(value) is not int:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise ValidationError(f"{name} must be in [{low}, inf), got {value}")
    return value


def psd_spectra(h: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The one PSD kernel: ascending spectra of a ``(d, d)`` matrix or a
    ``(..., d, d)`` stack that is Hermitian by construction (not re-checked),
    and the verdict of the one tolerance rule on each: PSD iff
    lambda_min >= -tol * max(1, |lambda_max|), ``tol`` a real number in
    [0, inf) by :func:`require_number`.  One ``eigvalsh`` serves the whole
    stack, and a stack's row i equals the ``(d, d)`` call on ``h[i]`` bit for
    bit."""
    ev = np.linalg.eigvalsh(h)
    tol = require_number(tol, "tol", 0.0)
    # [()] makes a single spectrum's ends numpy scalars, cheaper to compare
    lo, hi = ev[..., 0][()], ev[..., -1][()]
    return ev, (lo >= -tol) | (lo >= -tol * abs(hi))


def relative_margin(lo, hi):
    """The rule's margin: lambda_min relative to max(1, |lambda_max|), for
    floats or for arrays of (lambda_min, lambda_max) pairs; the test passes
    when the margin is above -tol, up to rounding."""
    return lo / np.maximum(1.0, abs(hi))


@dataclass(frozen=True)
class PsdReport:
    """Verdict of a tolerant positive-semidefiniteness test, with margins."""

    ok: bool
    min_eigenvalue: float
    max_eigenvalue: float
    tol: float

    @classmethod
    def of_hermitian(cls, h: np.ndarray, tol: float) -> PsdReport:
        """The :func:`psd_spectra` report of one ``(d, d)`` matrix that is
        Hermitian by construction, such as a certificate built from validated
        data; ``h`` is not re-checked.  The report keeps the float the rule
        reads ``tol`` as."""
        tol = require_number(tol, "tol", 0.0)
        ev, ok = psd_spectra(h, tol)
        return cls(bool(ok), float(ev[0]), float(ev[-1]), tol)

    @property
    def margin(self) -> float:
        """The :func:`relative_margin` of the spectrum's ends."""
        return float(relative_margin(self.min_eigenvalue, self.max_eigenvalue))

    def __bool__(self) -> bool:
        return self.ok


def _orthogonal_from_normals(g: np.ndarray) -> np.ndarray:
    """The Haar-random orthogonal factor of the QR of one ``(dim, dim)``
    standard normal draw, or of a ``(..., dim, dim)`` stack in one stacked
    QR (column signs fixed by the diagonal of R); row i of a stack equals
    the single call on ``g[i]`` bit for bit."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _orthogonal_symplectic_from_normals(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """A random element of O(2n) intersected with Sp(2n, R) from the real and
    imaginary standard normal draws, one ``(n, n)`` pair or ``(..., n, n)``
    stacks, one stacked QR: the real representation of the random n x n
    unitary u, entry u_jk becoming the 2x2 block [[Re u, Im u], [-Im u, Re u]].
    Row i of a stack equals the single call on ``re[i]`` and ``im[i]`` bit
    for bit."""
    q, r = np.linalg.qr(re + 1j * im)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[..., None, :]
    n_modes = u.shape[-1]
    s = np.zeros((*u.shape[:-2], 2 * n_modes, 2 * n_modes))
    s[..., 0::2, 0::2] = u.real
    s[..., 0::2, 1::2] = u.imag
    s[..., 1::2, 0::2] = -u.imag
    s[..., 1::2, 1::2] = u.real
    return s


def symplectic_exp(n_modes: int, h: np.ndarray) -> np.ndarray:
    """exp(Omega H) with H = (h + h^T)/2, symplectic because Omega H lies in
    the symplectic Lie algebra, for one ``(2n, 2n)`` h or a
    ``(..., 2n, 2n)`` stack; ``scipy.linalg.expm`` runs per slice, so row i
    of a stack equals the single call on ``h[i]`` bit for bit.  scipy is
    imported here, its only use, so commands that draw nothing never load it."""
    import scipy.linalg

    h = (h + h.swapaxes(-1, -2)) / 2.0
    return scipy.linalg.expm(symplectic_form(n_modes) @ h)
