"""Symplectic forms, validation, the PSD tolerance rule and kernel, and random matrices.

All quantities are dimensionless (hbar = 1, so the vacuum covariance matrix is
the identity) and quadratures are ordered (Q1, P1, Q2, P2, ...).  Matrices are
plain numpy arrays.  Every function here is pure except the random matrix
generators, which advance the numpy Generator they are given; the cached
forms are read-only, so values can be shared freely between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

DEFAULT_PSD_TOL = 1e-9
HERMITICITY_TOL = 1e-12


class ValidationError(ValueError):
    """An input fails a structural precondition (shape, symmetry, finiteness)."""


@functools.lru_cache(maxsize=None)
def symplectic_form(n_modes: int) -> np.ndarray:
    """Direct sum of ``n_modes`` copies of [[0, 1], [-1, 0]], built once per
    mode count and shared read-only."""
    if n_modes < 0:
        raise ValidationError(f"n_modes must be nonnegative, got {n_modes}")
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
    complex (before numpy drops the imaginary parts) and non-numeric rejected."""
    try:
        arr = np.asarray(value)
        if not np.iscomplexobj(arr):
            return np.array(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric array: {exc}") from None
    raise ValidationError(f"{name} must be real")


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


def require_tol(tol: float) -> None:
    """Reject a ``tol`` that is not finite and nonnegative (an infinite tol
    would pass every matrix)."""
    if not 0 <= tol < math.inf:
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")


def psd_spectra(h: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The one PSD kernel: ascending spectra of a ``(d, d)`` matrix or a
    ``(..., d, d)`` stack that is Hermitian by construction (not re-checked),
    and the verdict of the one tolerance rule on each: PSD iff
    lambda_min >= -tol * max(1, |lambda_max|); ``tol`` must pass
    :func:`require_tol`.  One ``eigvalsh`` serves the whole stack, and a
    stack's row i equals the ``(d, d)`` call on ``h[i]`` bit for bit."""
    ev = np.linalg.eigvalsh(h)
    require_tol(tol)
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
        data; ``h`` is not re-checked."""
        ev, ok = psd_spectra(h, tol)
        return cls(bool(ok), float(ev[0]), float(ev[-1]), tol)

    @property
    def margin(self) -> float:
        """The :func:`relative_margin` of the spectrum's ends."""
        return float(relative_margin(self.min_eigenvalue, self.max_eigenvalue))

    def __bool__(self) -> bool:
        return self.ok


def random_orthogonal(dim: int, rng) -> np.ndarray:
    """Random orthogonal matrix via QR of a Gaussian matrix."""
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_orthogonal_symplectic(n_modes: int, rng) -> np.ndarray:
    """Random element of O(2n) intersected with Sp(2n, R).

    Built as the real representation of a random n x n unitary: entry u_jk
    becomes the 2x2 block [[Re u, Im u], [-Im u, Re u]].
    """
    rng = np.random.default_rng(rng)
    z = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    u = q * (d / np.abs(d))
    s = np.zeros((2 * n_modes, 2 * n_modes))
    s[0::2, 0::2] = u.real
    s[0::2, 1::2] = u.imag
    s[1::2, 0::2] = -u.imag
    s[1::2, 1::2] = u.real
    return s


def random_symplectic(n_modes: int, rng, scale: float = 1.0) -> np.ndarray:
    """exp(Omega H) for random symmetric H with entries uniform in [-scale, scale].

    Always symplectic because Omega H lies in the symplectic Lie algebra.
    """
    rng = np.random.default_rng(rng)
    return symplectic_exp(n_modes, rng.uniform(-scale, scale, (2 * n_modes, 2 * n_modes)))


def symplectic_exp(n_modes: int, h: np.ndarray) -> np.ndarray:
    """exp(Omega H) with H = (h + h^T)/2, for one ``(2n, 2n)`` h or a
    ``(..., 2n, 2n)`` stack; ``scipy.linalg.expm`` runs per slice, so row i
    of a stack equals the single call on ``h[i]`` bit for bit."""
    h = (h + h.swapaxes(-1, -2)) / 2.0
    return scipy.linalg.expm(symplectic_form(n_modes) @ h)
