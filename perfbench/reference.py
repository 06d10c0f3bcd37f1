"""Independent references and input generators for the benchmark.

Nothing here imports gsteer: the references reach each verdict or value by
a different route from the program under test (closed forms, the Schur
complement form of the steering criterion), so a change to gsteer cannot
change the answer it is checked against.  Quadratures are ordered
(Q1, P1, Q2, P2, ...) with the A modes first, as in gsteer.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# A verdict is compared with its reference only when the reference margin
# lies outside this band (relative to max(1, |largest eigenvalue|)): inside
# it, rounding and the program's tolerance rule may legitimately flip it.
BAND = 1e-6


def omega(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def margin(h: np.ndarray) -> tuple[float, float]:
    """(smallest, largest) eigenvalue of a Hermitian matrix."""
    ev = np.linalg.eigvalsh(h)
    return float(ev[0]), float(ev[-1])


def decided(lo: float, hi: float) -> bool:
    """True when the sign of ``lo`` is clear of the tolerance band."""
    return abs(lo) > BAND * max(1.0, abs(hi))


def bona_fide_margin(cov: np.ndarray) -> tuple[float, float]:
    return margin(cov + 1j * omega(cov.shape[0] // 2))


def steering_matrix(cov: np.ndarray, modes_a: int) -> np.ndarray:
    """cov + 0_A (+) i*Omega_B."""
    h = cov.astype(complex)
    h[2 * modes_a:, 2 * modes_a:] += 1j * omega(cov.shape[0] // 2 - modes_a)
    return h


def schur_margin(cov: np.ndarray, modes_a: int) -> tuple[float, float]:
    """Margin of G_B - C^T G_A^-1 C + i*Omega_B.

    For bona fide states G_A > 0, so this matrix is PSD exactly when the
    steering matrix is (Wiseman, Jones & Doherty, PRL 98, 140402 (2007)).
    """
    k = 2 * modes_a
    g_a, g_b, c = cov[:k, :k], cov[k:, k:], cov[:k, k:]
    s = g_b - c.T @ np.linalg.solve(g_a, c)
    s = (s + s.T) / 2.0
    return margin(s + 1j * omega(s.shape[0] // 2))


def j2_from_cov(cov: np.ndarray, modes_a: int) -> float:
    """Raw j2 = ||cov + 0_A (+) i*Omega_B||_1 - Tr(cov)."""
    return float(np.abs(np.linalg.eigvalsh(steering_matrix(cov, modes_a))).sum()
                 - np.trace(cov))


def j_closed_standard(a: float, b: float, c: float) -> tuple[float, float]:
    """(j1, j2) of the (1+1) standard form with c = |d|."""
    root = np.sqrt((a - b + 1.0) ** 2 + 4.0 * c * c)
    return (max(0.0, (1.0 + a + b + root) / (2.0 * (a + b)) - 1.0),
            max(0.0, 1.0 + root - (a + b)))


def j_closed_schmidt(modes_a: int, modes_b: int, gammas) -> tuple[float, float]:
    """(j1, j2) of a pure state in phase-space Schmidt form."""
    g = np.asarray(gammas, dtype=float)
    root = np.sqrt(4.0 * g * g - 3.0)
    pad = 2.0 * abs(modes_b - modes_a)
    j1 = (float(np.sum(1.0 + 2.0 * g + root)) + pad) / (float(np.sum(4.0 * g)) + pad) - 1.0
    return j1, float(np.sum(1.0 - 2.0 * g + root))


def j2_initial_squeezed(r: float) -> float:
    ch = np.cosh(2.0 * r)
    return float(1.0 + np.sqrt(4.0 * ch * ch - 3.0) - 2.0 * ch)


def n3_closed_bound(r: float) -> float:
    return 1.0 - 4.0 / (r + 3.0)


def bath_stationary_cov(n_th: float, R: float, phi: float) -> np.ndarray:
    """Stationary covariance of the squeezed thermal bath (two equal blocks)."""
    n = n_th * (np.cosh(R) ** 2 + np.sinh(R) ** 2) + np.sinh(R) ** 2
    m = -(2.0 * n_th + 1.0) * np.cosh(R) * np.sinh(R) * np.exp(1j * phi)
    block = 2.0 * np.array([[0.5 + n + m.real, m.imag], [m.imag, 0.5 + n - m.real]])
    return scipy.linalg.block_diag(block, block)


def squeezed_vacuum_cov(r: float) -> np.ndarray:
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return np.array([[ch, 0.0, sh, 0.0], [0.0, ch, 0.0, -sh],
                     [sh, 0.0, ch, 0.0], [0.0, -sh, 0.0, ch]])


# ---------------------------------------------------------------------------
# input generators (seeded by the caller's Generator)

def random_cov(n_modes: int, nu_max: float, rng, scale: float = 0.5) -> np.ndarray:
    """S diag(nu, nu) S^T with S = expm(Omega H), H symmetric, entries in
    [-scale, scale], and symplectic eigenvalues nu uniform in [1, nu_max]."""
    nu = rng.uniform(1.0, nu_max, n_modes)
    h = rng.uniform(-scale, scale, (2 * n_modes, 2 * n_modes))
    s = scipy.linalg.expm(omega(n_modes) @ ((h + h.T) / 2.0))
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return (cov + cov.T) / 2.0


def standard_form_cov(a: float, b: float, c: float, d: float) -> np.ndarray:
    return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, d],
                     [c, 0.0, b, 0.0], [0.0, d, 0.0, b]])


def random_standard_form(rng, sign: float, steerable: bool):
    """(a, b, c, d = sign*c) in standard form, bona fide, on the requested
    side of the unsteerability boundary a(b - 1) = c^2 by a clear margin."""
    while True:
        a, b = rng.uniform(1.5, 4.0, 2)
        c = rng.uniform(0.0, np.sqrt(a * b - 1.0))
        d = sign * c
        ab = a * b
        bona = min(a * (ab - c * c) - b, b * (ab - d * d) - a,
                   (ab - c * c) * (ab - d * d) + 1.0 - a * a - b * b - 2.0 * c * d)
        gap = a * (b - 1.0) - c * c
        if bona > 1e-3 and abs(gap) > 1e-3 and (gap < 0) == steerable:
            return float(a), float(b), float(c), float(d)


def schmidt_cov(modes_a: int, modes_b: int, gammas) -> np.ndarray:
    k = len(gammas)
    diag_a = np.ones(modes_a)
    diag_b = np.ones(modes_b)
    diag_a[:k] = gammas
    diag_b[:k] = gammas
    cov = np.diag(np.concatenate([np.repeat(diag_a, 2), np.repeat(diag_b, 2)]))
    for i, g in enumerate(gammas):
        s = np.sqrt(g * g - 1.0)
        qa, qb = 2 * i, 2 * modes_a + 2 * i
        cov[qa, qb] = cov[qb, qa] = s
        cov[qa + 1, qb + 1] = cov[qb + 1, qa + 1] = -s
    return cov


def random_channel(modes_a: int, modes_b: int, rng, gain: float, unsteerable: bool,
                   slack: float = 1e-3):
    """(K, M): K uniform in [-gain, gain], M = (alpha + slack) I just large
    enough for the validity certificate, and for the unsteerable one too
    when ``unsteerable`` is set."""
    n = modes_a + modes_b
    dim = 2 * n
    k = rng.uniform(-gain, gain, (dim, dim))
    om = omega(n)
    f = np.zeros((dim, dim), dtype=complex)
    f[2 * modes_a:, 2 * modes_a:] = 1j * omega(modes_b)
    alpha = max(0.0, -margin(1j * om - 1j * k @ om @ k.T)[0])
    if unsteerable:
        alpha = max(alpha, -margin(f - k @ f @ k.T)[0])
    return k, (alpha + slack) * np.eye(dim)


def channel_certificates(k: np.ndarray, m: np.ndarray, modes_a: int):
    """Margins of the validity, unsteerable and steering-breaking certificates."""
    n = k.shape[0] // 2
    om = omega(n)
    f = np.zeros_like(k, dtype=complex)
    f[2 * modes_a:, 2 * modes_a:] = 1j * omega(n - modes_a)
    return {
        "valid_gaussian": margin(m + 1j * om - 1j * k @ om @ k.T),
        "unsteerable": margin(m + f - k @ f @ k.T),
        "steering_breaking": margin(m + f - 1j * k @ om @ k.T),
    }
