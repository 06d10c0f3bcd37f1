import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsteer.linalg import (
    DEFAULT_PSD_TOL,
    HERMITICITY_TOL,
    PsdReport,
    ValidationError,
    hermitian_eigenvalues,
    psd_spectra,
    require_hermitian,
    steering_form,
    symplectic_form,
)
from gsteer.states import GaussianState
from oracles import (
    jacobi_eigenvalues,
    random_orthogonal,
    random_orthogonal_symplectic,
    random_symplectic,
    real_embed,
    trace_norm,
)

SQRT13 = 3.605551275463989


def omega1():
    return np.array([[0.0, 1.0], [-1.0, 0.0]])


def pure_family_steering_matrix(gamma):
    """gamma-parametrized pure-family covariance plus the B-side i*Omega offset."""
    s = np.sqrt(gamma**2 - 1.0)
    cov = np.array([
        [gamma, 0.0, s, 0.0],
        [0.0, gamma, 0.0, -s],
        [s, 0.0, gamma, 0.0],
        [0.0, -s, 0.0, gamma],
    ], dtype=complex)
    cov[2:, 2:] += 1j * omega1()
    return cov


def checked_eigenvalues(h):
    """The eigenvalues of the symmetrized ``h``."""
    return hermitian_eigenvalues((h + np.conj(h).T) / 2.0)


def psd_report(h, tol=DEFAULT_PSD_TOL):
    return PsdReport.of_hermitian(h, tol)


def random_hermitian(dim, rng, scale=1.0, shape=()):
    z = rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
    return scale * (z + z.conj().swapaxes(-1, -2)) / 2.0


class TestSymplecticForm:
    def test_single_mode(self):
        assert np.array_equal(symplectic_form(1), omega1())

    def test_antisymmetric_and_squares_to_minus_identity(self):
        for n in (1, 2, 3, 5):
            om = symplectic_form(n)
            assert np.array_equal(om.T, -om)
            assert np.allclose(om @ om, -np.eye(2 * n))

    def test_zero_modes_is_empty(self):
        assert symplectic_form(0).shape == (0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            symplectic_form(-1)

    @pytest.mark.parametrize("build, args", [
        (symplectic_form, (0,)), (symplectic_form, (2,)),
        (steering_form, (1, 1)), (steering_form, (1, 2)), (steering_form, (0, 3)),
    ])
    def test_shared_read_only(self, build, args):
        form = build(*args)
        assert build(*args) is form
        assert not form.flags.writeable
        with pytest.raises(ValueError):
            form[...] = 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_steering_form_without_a_modes_is_i_omega(self, n):
        assert np.array_equal(steering_form(0, n), 1j * symplectic_form(n))


class TestHermitianEigenvalues:
    """The one binding of LAPACK's Hermitian eigensolver: numpy's private
    ``eigvalsh`` gufunc, whose result must stay ``np.linalg.eigvalsh``'s bit
    for bit; a numpy that moves or changes the gufunc fails here."""

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("dim", range(2, 13))
    def test_equals_numpy_eigvalsh_bit_for_bit(self, dtype, dim):
        rng = np.random.default_rng(dim)
        for shape in ((), (5,), (3, 4)):
            h = random_hermitian(dim, rng, scale=10.0 ** rng.uniform(-3, 3), shape=shape)
            h = h.real.copy() if dtype is np.float64 else h
            got = hermitian_eigenvalues(h)
            want = np.linalg.eigvalsh(h)
            assert got.dtype == want.dtype == np.float64
            assert got.shape == want.shape == (*shape, dim)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["psd_spectra", "psd_spectra-stack", "j_values",
                                      "is_unsteerable", "validate_state"])
    def test_nan_spectrum_raises(self, name, monkeypatch):
        from gsteer import fixtures, linalg
        from gsteer.states import validate_state
        from gsteer.steering import is_unsteerable, j_values

        state = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
        solve = linalg.hermitian_eigenvalues

        def first_row_not_converged(h):
            # a solve that does not converge returns its row as NaN; the
            # other rows of a stack still pass the rule
            ev = solve(h)
            ev.reshape(-1, ev.shape[-1])[0] = np.nan
            return ev

        call = {"psd_spectra": lambda: psd_spectra(np.eye(4), 0.0),
                "psd_spectra-stack": lambda: psd_spectra(np.array([np.eye(4)] * 3), 0.0),
                "j_values": lambda: j_values(state),
                "is_unsteerable": lambda: is_unsteerable(state),
                "validate_state": lambda: validate_state(state)}[name]
        monkeypatch.setattr(linalg, "hermitian_eigenvalues", first_row_not_converged)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            call()

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_lapack_failure_raises(self, shape):
        # LAPACK does not converge on NaN; numpy's errstate reports an
        # invalid value first, here silenced
        h = np.full((*shape, 4, 4), np.nan)
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            psd_spectra(h, DEFAULT_PSD_TOL)

    def test_identity(self):
        assert np.allclose(checked_eigenvalues(np.eye(4)), np.ones(4))

    def test_i_omega(self):
        ev = checked_eigenvalues(1j * omega1())
        assert np.allclose(ev, [-1.0, 1.0])

    def test_pure_family_gamma2(self):
        # closed-form spectrum {(1+2g +- sqrt(4g^2-3))/2, (2g-1 +- sqrt(4g^2-3))/2}
        expected = np.sort([(5 + SQRT13) / 2, (5 - SQRT13) / 2,
                            (3 + SQRT13) / 2, (3 - SQRT13) / 2])
        ev = checked_eigenvalues(pure_family_steering_matrix(2.0))
        assert np.abs(ev - expected).max() < 1e-12

    def test_sorted_ascending_and_sum_matches_trace(self):
        rng = np.random.default_rng(3)
        for dim in (2, 5, 9):
            h = random_hermitian(dim, rng, scale=4.0)
            ev = checked_eigenvalues(h)
            assert np.all(np.diff(ev) >= 0)
            norm = max(1.0, float(np.abs(h).max()))
            assert abs(ev.sum() - np.trace(h).real) <= 1e-9 * dim * norm

    def test_non_hermitian_rejected_naming_entry(self):
        h = np.eye(3)
        h[0, 2] = 1e-6
        with pytest.raises(ValidationError, match=r"h\[0,2\]"):
            require_hermitian(h)

    def test_tiny_defect_symmetrized(self):
        h = np.eye(3)
        h[0, 2] = 1e-13
        ev = hermitian_eigenvalues(require_hermitian(h))
        assert np.allclose(ev, np.ones(3))

    def test_relative_tolerance_for_large_matrices(self):
        # on entries of about 4e6 an asymmetry above HERMITICITY_TOL passes
        # within HERMITICITY_TOL times the largest |entry|, and fails above it
        rng = np.random.default_rng(4)
        k = rng.uniform(-1e3, 1e3, (4, 4))
        g = k @ np.diag([1.0, 1.0, 2.0, 2.0]) @ k.T
        assert np.array_equal(g, g.T)
        scale = np.abs(g).max()  # on the diagonal, which the asymmetry leaves
        near, over = g.copy(), g.copy()
        near[0, 1] += 1e-7
        over[0, 1] += 1.01 * HERMITICITY_TOL * scale
        assert scale > 1e6 and np.abs(over).max() == scale
        assert (HERMITICITY_TOL < near[0, 1] - near[1, 0] < HERMITICITY_TOL * scale
                < over[0, 1] - over[1, 0])
        assert np.array_equal(require_hermitian(near), (near + near.T) / 2.0)
        with pytest.raises(ValidationError, match=r"^matrix is not symmetric: \|h\[0,1\]"):
            require_hermitian(over)


class TestRequireHermitianStack:
    # require_hermitian judges one real square matrix, whose shape and dtype
    # the record's structural check has confirmed
    def test_scale_is_per_matrix(self):
        # 1e-9 asymmetry passes on entries ~1e4 (relative 1e-13) and fails
        # on the identity (relative 1e-9)
        big = np.diag([1e4, 1.0, 1.0])
        big[0, 2] = 1e-9
        small = np.eye(3)
        small[1, 2] = 1e-9
        require_hermitian(big)
        with pytest.raises(ValidationError, match=(
                r"^h is not symmetric: \|h\[1,2\] - conj\(h\[2,1\]\)\| = "
                r"1\.000000e-09 exceeds 1e-12 \* 1\.000000e\+00$")):
            require_hermitian(small, name="h")

    def test_rejects_non_square_and_non_finite(self):
        # the record's structural check refuses a shape other than (dim, dim)
        # before require_hermitian sees it; require_hermitian refuses inf
        for cov in (np.zeros((4, 5)), np.zeros(4), np.array([np.eye(4), np.eye(4)])):
            with pytest.raises(ValidationError, match=(
                    rf"^cov must have shape \(4, 4\), got {re.escape(str(cov.shape))}$")):
                GaussianState(1, 1, cov, np.zeros(4))
        h = np.eye(2)
        h[1, 1] = np.inf
        with pytest.raises(ValidationError, match="non-finite"):
            require_hermitian(h)

    @pytest.mark.parametrize("entries", [{(0, 0): 1.7e308}, {(1, 1): np.inf}, {(0, 1): np.inf},
                                         {(0, 1): np.inf, (1, 0): -np.inf},
                                         {(0, 1): np.nan, (1, 0): 5.0}])
    def test_non_finite_symmetrization_rejected_without_warning(self, entries):
        # (h + h^T)/2 overflows for entries above ~9e307; pytest fails on a warning
        h = np.eye(3)
        for index, value in entries.items():
            h[index] = value
        with pytest.raises(ValidationError, match="^m contains non-finite entries$"):
            require_hermitian(h, name="m")


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(4)) == pytest.approx(4.0)

    def test_sign_flip(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_pure_family_gamma1_equals_trace(self):
        # unsteerable boundary point: trace norm equals Tr(cov) = 4
        assert trace_norm(pure_family_steering_matrix(1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_lower_bounded_by_trace_with_equality_iff_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h = random_hermitian(rng.integers(2, 7), rng, scale=2.0)
            tn = trace_norm(h)
            tr = float(np.trace(h).real)
            assert tn >= abs(tr) - 1e-10
            psd = psd_report(h, 1e-10).ok
            assert (abs(tn - tr) <= 1e-10 * max(1.0, tn)) == psd

    def test_invariant_under_orthogonal_symplectic_conjugation(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = random_hermitian(4, rng, scale=3.0)
            u = random_orthogonal_symplectic(2, rng)
            assert trace_norm(u @ h @ u.T) == pytest.approx(trace_norm(h), abs=1e-9)


class TestIsPsd:
    def test_identity_plus_i_omega(self):
        rep = psd_report(np.eye(2) + 1j * omega1())
        assert rep.ok and rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert rep.max_eigenvalue == pytest.approx(2.0)

    def test_i_omega_not_psd(self):
        rep = psd_report(1j * omega1())
        assert not rep.ok
        assert rep.min_eigenvalue == pytest.approx(-1.0)

    def test_report_truthiness(self):
        assert psd_report(np.eye(2))
        assert not psd_report(-np.eye(2))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValidationError):
            psd_report(np.eye(2), tol=-1.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValidationError):
            psd_report(np.eye(2), tol=float("nan"))

    def test_margin_relative_to_largest_eigenvalue(self):
        assert psd_report(np.diag([-1.0, 4.0])).margin == -0.25
        assert psd_report(np.diag([-0.5, 0.25])).margin == -0.5

    @given(tol1=st.floats(0, 1e-6), tol2=st.floats(0, 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_tol(self, tol1, tol2):
        h = np.diag([1.0, -1e-8])
        lo, hi = sorted([tol1, tol2])
        if psd_report(h, lo).ok:
            assert psd_report(h, hi).ok


class TestPsdSpectra:
    """The one PSD kernel ``psd_spectra``: a stack's rows equal the
    single-matrix calls, and each single-matrix verdict is one eigensolve."""

    @staticmethod
    def stacks():
        """Steering and bona fide offsets on random covariances, steerable
        and unsteerable, and the three certificates of each fixture channel."""
        from gsteer import fixtures
        from gsteer.channels import certificate_matrix
        from gsteer.states import random_state

        rng = np.random.default_rng(31)
        stacks = []
        for modes_a, modes_b in ((1, 1), (1, 2)):
            covs = np.array([random_state(modes_a, modes_b, 3.0, rng).cov for _ in range(25)])
            stacks.append(covs + steering_form(modes_a, modes_b))
            stacks.append(covs + steering_form(0, modes_a + modes_b))
        certs = []
        for name in (fixtures.CHANNEL_NONCERT_BONAFIDE, fixtures.CHANNEL_NONCERT_UNSTEERABLE,
                     fixtures.CHANNEL_SHEAR_LOCAL):
            ch = fixtures.load_channel(name)
            f, omega = steering_form(ch.modes_a, ch.modes_b), steering_form(0, ch.n_modes)
            certs += [certificate_matrix(ch.K, ch.M, f_out, f_in)
                      for f_out, f_in in ((omega, omega), (f, f), (f, omega))]
        stacks.append(np.array(certs))
        return stacks

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_stack_rows_equal_single_calls(self, tol):
        verdicts = []
        for stack in self.stacks():
            ev, ok = psd_spectra(stack, tol)
            assert ev.shape == stack.shape[:-1] and ok.shape == stack.shape[:1]
            for i, h in enumerate(stack):
                ev_i, ok_i = psd_spectra(h, tol)
                assert ev_i.tobytes() == ev[i].tobytes()
                assert ok_i.shape == () and ok_i == ok[i]
                assert PsdReport.of_hermitian(h, tol) == PsdReport(
                    bool(ok[i]), float(ev[i, 0]), float(ev[i, -1]), tol)
            verdicts += ok.tolist()
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("name, solves", [
        ("is_unsteerable", 1), ("validate_state", 1), ("steering_report", 1), ("classify", 1),
        ("is_valid_gaussian", 1), ("is_unsteerable_channel", 1), ("is_steering_breaking", 1),
        ("j_values", 1), ("j2", 1)])
    def test_eigensolves_per_verdict(self, count_eigvalsh, name, solves):
        from gsteer import fixtures
        from gsteer.channels import (
            classify,
            is_steering_breaking,
            is_unsteerable_channel,
            is_valid_gaussian,
        )
        from gsteer.states import validate_state
        from gsteer.steering import is_unsteerable, j2, j_values, steering_report

        state = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
        channel = fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)
        call = {"is_unsteerable": lambda: is_unsteerable(state),
                "validate_state": lambda: validate_state(state),
                "steering_report": lambda: steering_report(state),
                "j_values": lambda: j_values(state),
                "j2": lambda: j2(state),
                "classify": lambda: classify(channel),
                "is_valid_gaussian": lambda: is_valid_gaussian(channel),
                "is_unsteerable_channel": lambda: is_unsteerable_channel(channel),
                "is_steering_breaking": lambda: is_steering_breaking(channel)}[name]
        count_eigvalsh.clear()
        call()
        assert len(count_eigvalsh) == solves
        # classify solves its three certificates as one stack
        assert sum(count_eigvalsh) == (3 if name == "classify" else 1)


class TestInfiniteTol:
    # an infinite tol would pass every matrix: j2 of the squeezed vacuum
    # (~0.798) would read 0.0 and every verdict would pass
    MESSAGE = r"^tol must be in \[0, inf\), got inf$"

    @staticmethod
    def calls():
        from gsteer import fixtures
        from gsteer.channels import (
            classify,
            is_steering_breaking,
            is_unsteerable_channel,
            is_valid_gaussian,
            sample_verify,
        )
        from gsteer.dynamics import BathParameters, sweep
        from gsteer.states import squeezed_vacuum_state, validate_state
        from gsteer.steering import is_unsteerable, j_values, steering_report

        state = squeezed_vacuum_state(1.0)
        channel = fixtures.load_channel(fixtures.CHANNEL_NONCERT_UNSTEERABLE)
        return {
            "is_unsteerable": lambda tol: is_unsteerable(state, tol),
            "j_values": lambda tol: j_values(state, tol),
            "j_values_raw": lambda tol: j_values(state, tol, clamp=False),
            "steering_report": lambda tol: steering_report(state, tol),
            "validate_state": lambda tol: validate_state(state, tol),
            "classify": lambda tol: classify(channel, tol),
            "is_valid_gaussian": lambda tol: is_valid_gaussian(channel, tol),
            "is_unsteerable_channel": lambda tol: is_unsteerable_channel(channel, tol),
            "is_steering_breaking": lambda tol: is_steering_breaking(channel, tol),
            "sample_verify_bona_fide": lambda tol: sample_verify(channel, 5, 0, tol=tol),
            "sample_verify_unsteerable": lambda tol: sample_verify(
                channel, 5, 0, "unsteerable-preserving", tol=tol),
            "sweep": lambda tol: sweep(state, BathParameters(0.0, 0.0, 0.0, 0.1), [0.0, 1.0], tol),
        }

    @pytest.mark.parametrize("name", [
        "is_unsteerable", "j_values", "j_values_raw", "steering_report", "validate_state",
        "classify", "is_valid_gaussian", "is_unsteerable_channel", "is_steering_breaking",
        "sample_verify_bona_fide", "sample_verify_unsteerable", "sweep"])
    def test_rejected(self, name):
        call = self.calls()[name]
        call(DEFAULT_PSD_TOL)  # a finite tol runs
        with pytest.raises(ValidationError, match=self.MESSAGE):
            call(np.inf)

    def test_rule(self):
        with pytest.raises(ValidationError, match=self.MESSAGE):
            psd_report(np.eye(2), tol=float("inf"))
        for bad in (-np.inf, -1e-300, np.nan):
            with pytest.raises(ValidationError, match=r"^tol must be in \[0, inf\), got "):
                psd_report(np.eye(2), tol=bad)
        assert psd_report(np.eye(2), tol=np.finfo(float).max).ok
        # a bool is no tol (True would read as tol = 1), nor is a non-real
        for bad in (True, False, np.True_, "x", None, 1j):
            with pytest.raises(ValidationError, match="^tol must be a real number, got "):
                psd_report(np.eye(2), tol=bad)
        assert psd_report(np.eye(2), tol=0).ok and psd_report(np.eye(2), tol=np.float64(1e-9)).ok


class TestRealEmbed:
    def test_i_omega_embedding(self):
        expected = np.array([
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ])
        emb = real_embed(1j * omega1())
        assert np.array_equal(emb, expected)
        assert np.allclose(np.linalg.eigvalsh(emb), [-1.0, -1.0, 1.0, 1.0])

    def test_real_symmetric_becomes_block_diagonal(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        emb = real_embed(a)
        assert np.array_equal(emb[:2, :2], a)
        assert np.array_equal(emb[2:, 2:], a)
        assert np.array_equal(emb[:2, 2:], np.zeros((2, 2)))

    def test_spectrum_doubled(self):
        rng = np.random.default_rng(21)
        for dim in (2, 4, 7, 12):
            h = random_hermitian(dim, rng, scale=2.0)
            direct = checked_eigenvalues(h)
            embedded = np.linalg.eigvalsh(real_embed(h))
            assert np.abs(embedded - np.repeat(direct, 2)).max() < 1e-10


class TestJacobi:
    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(31)
        for dim in (2, 3, 6, 10):
            w = rng.standard_normal((dim, dim))
            s = (w + w.T) / 2.0
            assert np.abs(jacobi_eigenvalues(s) - np.linalg.eigvalsh(s)).max() < 1e-10

    def test_hermitian_via_embedding_matches_direct(self):
        # the fully independent dual route: complex solver vs Jacobi on the embedding
        rng = np.random.default_rng(33)
        for _ in range(20):
            h = random_hermitian(4, rng, scale=3.0)
            direct = checked_eigenvalues(h)
            via_jacobi = jacobi_eigenvalues(real_embed(h))
            assert np.abs(via_jacobi - np.repeat(direct, 2)).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRandomMatrices:
    def test_random_orthogonal(self):
        rng = np.random.default_rng(41)
        q = random_orthogonal(4, rng)
        assert np.allclose(q @ q.T, np.eye(4), atol=1e-12)

    def test_random_orthogonal_symplectic_is_both(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3):
            s = random_orthogonal_symplectic(n, rng)
            om = symplectic_form(n)
            assert np.allclose(s @ s.T, np.eye(2 * n), atol=1e-12)
            assert np.allclose(s @ om @ s.T, om, atol=1e-12)

    def test_random_symplectic_preserves_form(self):
        rng = np.random.default_rng(47)
        for n in (1, 2):
            s = random_symplectic(n, rng)
            om = symplectic_form(n)
            assert np.allclose(s @ om @ s.T, om, atol=1e-10)

    def test_zero_scale_gives_identity(self):
        s = random_symplectic(2, np.random.default_rng(0), scale=0.0)
        assert np.allclose(s, np.eye(4))
