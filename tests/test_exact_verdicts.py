"""Float verdicts against exact rational ones.

``oracles.exact_psd`` decides cov + 0_A (+) i*Omega_B >= 0 (and a channel
certificate >= 0) exactly, with no eigensolver and no tolerance.  The tolerant
verdict at DEFAULT_PSD_TOL is meant to give two guarantees:

- exactly PSD => PSD at the tolerance (no false "steerable");
- margin < -tol => exactly not PSD (a reported violation is real).

States inside the band, exactly steerable but within tol, may go either way.
"""

import math

import numpy as np
import pytest

from gsteer import fixtures
from gsteer.channels import apply, certificate_matrix
from gsteer.linalg import DEFAULT_PSD_TOL, PsdReport, steering_form
from gsteer.states import (
    GaussianState,
    make_state,
    random_state,
    schmidt_pure_state,
    squeezed_vacuum_state,
    standard_form_state,
)
from gsteer.steering import is_unsteerable, pure_family_state, steering_matrix
from oracles import exact_psd


def assert_guarantees(h: np.ndarray, report: PsdReport) -> bool:
    """Check both guarantees for the matrix ``h`` and its tolerant report;
    return the exact verdict."""
    exact = exact_psd(h)
    if exact:
        assert report.ok, report
    if report.margin < -DEFAULT_PSD_TOL:
        assert not exact, report
    return exact


def n3_witness(r: float) -> GaussianState:
    """The unsteerable standard form attaining the closed N3 bound, on the
    steering boundary a(b - 1) = c^2 up to rounding."""
    a, b = 2.0 * (r + 1.0) / (r + 3.0), (3.0 * r + 1.0) / (r + 3.0)
    c = math.sqrt(a * b - a)
    return standard_form_state(a, b, c, -c)


def boundary_states() -> list[GaussianState]:
    shrunk = np.eye(4)
    shrunk[2:, 2:] *= 1.0 - 2.0**-40
    states = [make_state(1, 1, np.eye(4)),
              GaussianState(1, 1, shrunk, np.zeros(4)),
              standard_form_state(2.0, 2.0, 1.0, 1.0),
              standard_form_state(2.0, 2.0, 1.0, -1.0),
              squeezed_vacuum_state(0.0),
              squeezed_vacuum_state(0.7)]
    states += [schmidt_pure_state(m, n, [1.0] * min(m, n)) for m, n in ((1, 2), (2, 1), (2, 2))]
    states += [schmidt_pure_state(1, 2, [g]) for g in (1.5, 3.0)]
    states += [pure_family_state(r) for r in (1.0, 1.0 + 2.0**-30, 2.0)]
    states += [n3_witness(r) for r in np.linspace(1.1, 100.0, 20)]
    return states


def fixture_states() -> list[GaussianState]:
    witness = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
    shear = fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)
    return [witness, apply(shear, witness),
            fixtures.load_state(fixtures.STATE_TOLERANCE_BAND_WITNESS)]


def random_states() -> list[GaussianState]:
    rng = np.random.default_rng(43)
    return ([random_state(1, 1, 2.0, rng) for _ in range(130)]
            + [random_state(1, 2, 2.0, rng) for _ in range(20)]
            + [random_state(2, 1, 2.0, rng) for _ in range(10)])


@pytest.mark.parametrize("family", [random_states, boundary_states, fixture_states])
def test_tolerant_steering_verdict_keeps_both_guarantees(family):
    verdicts = [assert_guarantees(steering_matrix(s), is_unsteerable(s)) for s in family()]
    if family is not fixture_states:
        assert set(verdicts) == {True, False}


def test_exact_verdicts_pinned():
    # the vacuum is exactly unsteerable; shrinking its B block by 2^-40 makes
    # it exactly steerable with a float lambda_min of -9.1e-13, inside the band
    vacuum, shrunk = boundary_states()[:2]
    assert exact_psd(steering_matrix(vacuum))
    assert not exact_psd(steering_matrix(shrunk)) and is_unsteerable(shrunk).ok
    # both state fixtures are exactly steerable, the band witness included
    assert [exact_psd(steering_matrix(s)) for s in fixture_states()] == [False, False, False]


@pytest.mark.parametrize("name,signs", [
    (fixtures.CHANNEL_NONCERT_BONAFIDE, (False, True, False)),
    (fixtures.CHANNEL_NONCERT_UNSTEERABLE, (True, False, False)),
    (fixtures.CHANNEL_SHEAR_LOCAL, (True, True, False)),
])
def test_certificate_signs_exact(name, signs):
    # validity, unsteerable and steering-breaking certificates of each
    # fixture channel: the guarantees hold and the exact signs are pinned
    ch = fixtures.load_channel(name)
    f, omega = steering_form(ch.modes_a, ch.modes_b), steering_form(0, ch.n_modes)
    got = []
    for f_out, f_in in ((omega, omega), (f, f), (f, omega)):
        cert = certificate_matrix(ch.K, ch.M, f_out, f_in)
        got.append(assert_guarantees(cert, PsdReport.of_hermitian(cert, DEFAULT_PSD_TOL)))
    assert tuple(got) == signs
