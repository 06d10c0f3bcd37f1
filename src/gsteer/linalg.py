"""Symplectic forms, the argument rules, the one binding of LAPACK's
Hermitian eigensolver, the one PSD kernel with its tolerance rule, and the
kernels that turn caller-drawn numbers into random orthogonal and
symplectic matrices.

hbar = 1 (the vacuum covariance is the identity), quadratures are ordered
(Q1, P1, Q2, P2, ...) and matrices are plain numpy arrays.  Every function
here is pure, and the cached forms are read-only.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

DEFAULT_PSD_TOL = 1e-9
HERMITICITY_TOL = 1e-12


class ValidationError(ValueError):
    """An argument breaks its rule: type, interval, shape, symmetry or finiteness."""


@functools.lru_cache(maxsize=None, typed=True)  # typed: True is no cached 1
def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of ``n_modes`` copies of [[0, 1], [-1, 0]], cached read-only."""
    n_modes = require_count(n_modes, "n_modes")
    omega = np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    omega.setflags(write=False)
    return omega


@functools.lru_cache(maxsize=None)
def steering_form(modes_a: int, modes_b: int) -> np.ndarray:
    """The Hermitian offset 0_A (+) i*Omega_B, cached read-only;
    ``steering_form(0, n)`` is i*Omega, the bona fide offset."""
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
    """The one reader of a caller's array, as a fresh float array.  Complex
    raises "<name> must be real", non-numeric "<name> must be a numeric
    array: ...", a number too large for a float, such as the int 10**400,
    "<name> holds a number too large for a float", and a bool anywhere in
    it, which numpy reads as 0 or 1, "<name> must hold numbers, not booleans"."""
    try:
        arr = np.asarray(value)
        real = None if np.iscomplexobj(arr) else np.array(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from None
    except OverflowError:
        raise ValidationError(f"{name} holds a number too large for a float") from None
    if real is None:
        raise ValidationError(f"{name} must be real")
    if _holds_bool(value, arr):
        raise ValidationError(f"{name} must hold numbers, not booleans")
    return real


def _holds_bool(value, arr: np.ndarray) -> bool:
    """Whether ``value``, read by numpy as ``arr``, holds a bool: a bool
    dtype, or a bool among its entries nested ``arr.ndim`` deep."""
    if arr.dtype == bool:
        return True
    if arr.ndim == 0 or (isinstance(value, np.ndarray) and value.dtype != object):
        return False  # a scalar that is no bool, or an array of one numeric dtype
    for _ in range(arr.ndim - 1):
        value = itertools.chain.from_iterable(value)
    return not {bool, np.bool_}.isdisjoint(map(type, value))


def require_hermitian(h: np.ndarray, name: str = "matrix") -> np.ndarray:
    """A nonempty square matrix within HERMITICITY_TOL * max(1, largest
    |entry|) of Hermitian, as the finite (h + h^dagger)/2; else a
    ValidationError naming the worst entry, or the non-finite entries."""
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
    """The one real-scalar rule: ``value``, a ``numbers.Real`` but no bool,
    as a Python float in the interval from ``low`` to ``high`` with ``ends``
    "[)", "()" or "[]"; -0.0 reads as 0.0 and an int too large for a float
    as +-inf.  Else "<name> must be a real number, got <value>" or "<name>
    must be in <interval>, got <value>" (NaN is in no interval)."""
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
    """The one count rule: ``value``, a ``numbers.Integral`` but no bool, as
    a Python int >= ``low``; else "<name> must be an integer, got <value>"
    or "<name> must be in [<low>, inf), got <value>"."""
    if type(value) is not int:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise ValidationError(f"{name} must be in [{low}, inf), got {value}")
    return value


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues of a float64 or complex128 Hermitian (not
    checked) ``(..., d, d)`` array, from its lower triangle by LAPACK's
    ``?syevd``/``?heevd``: numpy's ``eigvalsh`` gufunc, called with the
    signature ``np.linalg.eigvalsh`` uses, so the result equals
    ``np.linalg.eigvalsh(h)`` bit for bit, without that wrapper's per-call
    checks.  A row that does not converge is all NaN and raises nothing
    here; numpy's errstate reports it as an invalid value."""
    return _umath_linalg.eigvalsh_lo(h, signature="D->d" if h.dtype.kind == "c" else "d->d")


def psd_spectra(h: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The one PSD kernel: one :func:`hermitian_eigenvalues` call on a
    Hermitian (not checked) ``(d, d)`` matrix or ``(..., d, d)`` stack,
    ascending, and the one tolerance rule's verdict on each, PSD iff
    lambda_min >= -tol * max(1, |lambda_max|), tol in [0, inf).  Row i of a
    stack equals the call on ``h[i]`` bit for bit.  A spectrum that did not
    converge raises ``numpy.linalg.LinAlgError("Eigenvalues did not
    converge")``, as ``np.linalg.eigvalsh`` does."""
    ev = hermitian_eigenvalues(h)
    tol = require_number(tol, "tol", 0.0)
    # [()] makes a single spectrum's ends numpy scalars, cheaper to compare
    lo, hi = ev[..., 0][()], ev[..., -1][()]
    ok = (lo >= -tol) | (lo >= -tol * abs(hi))
    # a row that did not converge is NaN, which fails the rule, so only a
    # failed verdict is searched for one (a single one without numpy calls)
    if (not ok and lo != lo) if ev.ndim == 1 else (not ok.all() and np.isnan(lo).any()):
        raise LinAlgError("Eigenvalues did not converge")
    return ev, ok


def relative_margin(lo, hi):
    """The rule's margin lambda_min / max(1, |lambda_max|), of floats or
    arrays; the test passes when it is above -tol, up to rounding."""
    return lo / np.maximum(1.0, abs(hi))


@dataclass(frozen=True)
class PsdReport:
    """The tolerance rule's verdict on one matrix, with its spectrum's ends."""

    ok: bool
    min_eigenvalue: float
    max_eigenvalue: float
    tol: float

    @classmethod
    def of_hermitian(cls, h: np.ndarray, tol: float) -> PsdReport:
        """The :func:`psd_spectra` report of one Hermitian (not checked)
        ``(d, d)`` matrix, keeping ``tol`` as the float the rule reads."""
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
    """The Haar-random orthogonal factor of the sign-fixed QR of ``(dim, dim)``
    standard normals, or of a stack; row i equals the call on ``g[i]`` bit for bit."""
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _orthogonal_symplectic_from_normals(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """A random element of O(2n) and Sp(2n, R): the real form of the random
    unitary of the QR of ``re + i im``, ``(n, n)`` standard normals or stacks;
    row i equals the call on ``re[i]`` and ``im[i]`` bit for bit."""
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
    """The symplectic exp(Omega H), H = (h + h^T)/2, of one ``(2n, 2n)`` h or
    a stack; row i equals the call on ``h[i]`` bit for bit.  scipy is
    imported here, its only use, so commands that draw nothing never load it."""
    import scipy.linalg

    h = (h + h.swapaxes(-1, -2)) / 2.0
    return scipy.linalg.expm(symplectic_form(n_modes) @ h)
