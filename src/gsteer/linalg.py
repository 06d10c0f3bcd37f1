"""Dense eigenvalue, trace-norm, and PSD services for small Hermitian matrices.

All quantities are dimensionless (hbar = 1, so the vacuum covariance matrix is
the identity) and quadratures are ordered (Q1, P1, Q2, P2, ...).  Matrices are
plain numpy arrays; every function here is pure, so values can be shared freely
between threads.
"""

from __future__ import annotations

import functools
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


def require_hermitian(h: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a square, finite, near-Hermitian matrix, or a stack ``(..., d, d)``
    of them, and return the symmetrized (h + h^dagger)/2.

    The tolerance HERMITICITY_TOL is relative to max(1, largest |entry|) of
    each matrix; inputs beyond it are rejected rather than repaired, naming
    the worst entry (and, for a stack, its matrix).
    """
    arr = np.asarray(h)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[-1] == 0:
        raise ValidationError(f"{name} must have positive dimension")
    require_finite(arr, name)
    adj = (np.conj(arr) if np.iscomplexobj(arr) else arr).swapaxes(-1, -2)
    defect = np.abs(arr - adj)
    # every scale is >= 1, so a defect within HERMITICITY_TOL passes everywhere
    if defect.max(initial=0.0) > HERMITICITY_TOL:
        scale = np.maximum(1.0, np.abs(arr).max(axis=(-2, -1)))
        bad = defect.max(axis=(-2, -1)) > HERMITICITY_TOL * scale
        if bad.any():
            k = int(np.argmax(bad.ravel()))
            dim = arr.shape[-1]
            worst = defect.reshape(-1, dim, dim)[k]
            i, j = np.unravel_index(int(np.argmax(worst)), worst.shape)
            label = name if arr.ndim == 2 else (
                f"{name}{[int(x) for x in np.unravel_index(k, arr.shape[:-2])]}")
            raise ValidationError(
                f"{label} is not symmetric: |h[{i},{j}] - conj(h[{j},{i}])| = "
                f"{worst[i, j]:.6e} exceeds {HERMITICITY_TOL:g} * {np.ravel(scale)[k]:.6e}")
    return (arr + adj) / 2.0


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of a (near-)Hermitian matrix, ascending and real; for a
    stack ``(..., d, d)``, those of each matrix along the last axis."""
    return np.linalg.eigvalsh(require_hermitian(h))


def _eigenvalues_of_one(h: np.ndarray) -> np.ndarray:
    """hermitian_eigenvalues for the functions that judge a single matrix."""
    ev = hermitian_eigenvalues(h)
    if ev.ndim != 1:
        raise ValidationError(f"expected one matrix, got a stack of shape {np.shape(h)}")
    return ev


def trace_norm(h: np.ndarray) -> float:
    """Sum of absolute eigenvalues; equals trace(h) exactly when h is PSD."""
    return float(np.abs(_eigenvalues_of_one(h)).sum())


def psd_within_tol(lo, hi, tol: float):
    """The one tolerance rule: PSD iff lambda_min >= -tol * max(1, |lambda_max|),
    for floats or for arrays of (lambda_min, lambda_max) pairs."""
    if not tol >= 0:
        raise ValidationError(f"tol must be nonnegative, got {tol}")
    return (lo >= -tol) | (lo >= -tol * abs(hi))


@dataclass(frozen=True)
class PsdReport:
    """Verdict of a tolerant positive-semidefiniteness test, with margins."""

    ok: bool
    min_eigenvalue: float
    max_eigenvalue: float
    tol: float

    @classmethod
    def from_eigenvalues(cls, ev: np.ndarray, tol: float) -> PsdReport:
        """The verdict of :func:`psd_within_tol` for an ascending eigenvalue
        array ``ev``."""
        lo, hi = float(ev[0]), float(ev[-1])
        return cls(bool(psd_within_tol(lo, hi, tol)), lo, hi, tol)

    @classmethod
    def of_hermitian(cls, h: np.ndarray, tol: float) -> PsdReport:
        """The PSD test of a matrix that is Hermitian by construction, such as
        a certificate built from validated data; ``h`` is not re-checked."""
        return cls.from_eigenvalues(np.linalg.eigvalsh(h), tol)

    @property
    def margin(self) -> float:
        """Minimum eigenvalue relative to max(1, |lambda_max|); the test
        passes when the margin is above -tol, up to rounding."""
        return self.min_eigenvalue / max(1.0, abs(self.max_eigenvalue))

    def __bool__(self) -> bool:
        return self.ok


def is_psd(h: np.ndarray, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Tolerant PSD test of a (near-)Hermitian matrix; see PsdReport.from_eigenvalues."""
    return PsdReport.from_eigenvalues(_eigenvalues_of_one(h), tol)


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
    h = rng.uniform(-scale, scale, (2 * n_modes, 2 * n_modes))
    h = (h + h.T) / 2.0
    return scipy.linalg.expm(symplectic_form(n_modes) @ h)
