"""States and channels that gsteer builds itself skip the structural check of
``GaussianState`` and ``GaussianChannel``.  These tests hold each such record
to what the check would have stored, bit for bit, and pin what caller input
still gets: the same verdicts and messages as before the skip existed.
"""

import json

import numpy as np
import pytest

from gsteer import fixtures
from gsteer.channels import (
    GaussianChannel,
    apply,
    identity_channel,
    channel_to_json,
    random_unsteerable_channel,
    sample_verify,
    side_a_channel,
    side_b_channel,
    tensor_local,
)
from gsteer.cli import main
from gsteer.dynamics import BathParameters, Trajectory, evolve, stationary_state, sweep
from gsteer.linalg import ValidationError
from gsteer.states import (
    GaussianState,
    make_state,
    random_state,
    schmidt_pure_state,
    squeezed_vacuum_state,
    state_to_json,
)
from gsteer.steering import j_closed_schmidt, pure_family_state

NONCERT = (fixtures.CHANNEL_NONCERT_BONAFIDE, fixtures.CHANNEL_NONCERT_UNSTEERABLE)


def assert_as_checked(state):
    """``state`` equals its rebuild through the structural check bit for bit,
    and both of its arrays are read-only."""
    rebuilt = GaussianState(state.modes_a, state.modes_b, state.cov, state.mean)
    for got, want in ((state.cov, rebuilt.cov), (state.mean, rebuilt.mean)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def pure_states():
    yield from (pure_family_state(r) for r in (1.0, 1.5, 2.0, 7.3, 1e3, 1e150))
    yield from (squeezed_vacuum_state(r) for r in (0.0, 0.4, 1.0, 3.0, 300.0))
    yield schmidt_pure_state(1, 1, [2.5])
    yield schmidt_pure_state(1, 2, [1.7])
    yield schmidt_pure_state(2, 3, [1.3, 2.7])


class TestRecordsEqualTheCheckedOnes:
    def test_pure_constructors(self):
        for state in pure_states():
            assert_as_checked(state)

    @pytest.mark.parametrize("modes", [(1, 1), (1, 2), (2, 2)])
    def test_random_state(self, modes):
        rng = np.random.default_rng(sum(modes))
        for _ in range(1000):
            assert_as_checked(random_state(*modes, 5.0, rng))

    @pytest.mark.parametrize("name", NONCERT)
    def test_apply(self, name):
        ch = fixtures.load_channel(name)
        rng = np.random.default_rng(17)
        for _ in range(500):
            assert_as_checked(apply(ch, random_state(1, 1, 5.0, rng)))

    def test_relaxation(self):
        bath = BathParameters(0.7, 0.9, 1.3, 0.1)
        assert_as_checked(stationary_state(bath))
        for t in (0.0, 0.3, 12.0):
            assert_as_checked(evolve(squeezed_vacuum_state(1.0), bath, t))

    @pytest.mark.parametrize("grid", [
        [0.0, 0.5, 7.25], np.linspace(0.0, 60.0, 601), np.arange(0.0, 30.0, 0.01),
    ])
    def test_sweep(self, grid, monkeypatch):
        # sweep hands its own arrays to the Trajectory, unchecked; they equal
        # the checked rebuild bit for bit and are read-only, while the
        # caller's grid is copied, not frozen or shared
        def checked(self):
            raise AssertionError("sweep built a checked Trajectory")

        bath = BathParameters(0.7, 0.9, 1.3, 0.1)
        with monkeypatch.context() as patch:
            patch.setattr(Trajectory, "__post_init__", checked)
            traj = sweep(squeezed_vacuum_state(1.0), bath, grid)
        rebuilt = Trajectory(traj.times, traj.j2_values, traj.bound_values)
        assert traj == rebuilt
        for name in ("times", "j2_values", "bound_values"):
            got, want = getattr(traj, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
        if isinstance(grid, np.ndarray):
            assert grid.flags.writeable
            assert not np.shares_memory(grid, traj.times)
            grid[0] = -1.0
            assert traj.times[0] == 0.0


    @pytest.mark.parametrize("modes", [(1, 1), (0, 2), (2, 0), (2, 3)])
    def test_random_unsteerable_channel(self, modes):
        # M = shift * I is symmetric and PSD by its own algebra
        for seed in range(50):
            ch = random_unsteerable_channel(*modes, seed)
            rebuilt = GaussianChannel(*modes, ch.K, ch.M, ch.dbar)
            assert ch == rebuilt
            for name in ("K", "M", "dbar"):
                got, want = getattr(ch, name), getattr(rebuilt, name)
                assert got.tobytes() == want.tobytes()
                assert not got.flags.writeable


class TestNoStructuralCheck:
    def test_constructors(self, count_require_hermitian):
        channels = [fixtures.load_channel(name) for name in NONCERT]
        state = random_state(1, 1, 5.0, 3)
        bath = BathParameters(0.7, 0.9, 1.3, 0.1)
        count_require_hermitian.clear()
        builders = {
            "pure family, squeezed vacuum, Schmidt": lambda: list(pure_states()),
            "random_state 1+1": lambda: random_state(1, 1, 5.0, 3),
            "random_state 1+2": lambda: random_state(1, 2, 5.0, 4),
            "random_state 2+2": lambda: random_state(2, 2, 5.0, 5),
            "apply": lambda: [apply(ch, state) for ch in channels],
            "stationary_state": lambda: stationary_state(bath),
        }
        for name, build in builders.items():
            build()
            assert not count_require_hermitian, name

    def test_sample_verify(self, count_require_hermitian):
        channels = [fixtures.load_channel(name) for name in NONCERT]
        count_require_hermitian.clear()
        for ch, predicate in zip(channels, ("bona-fide", "unsteerable-preserving")):
            assert sample_verify(ch, 200, 5, predicate).violations == 0
        assert not count_require_hermitian

    def test_random_unsteerable_channel(self, count_eigvalsh, count_require_hermitian):
        random_unsteerable_channel(1, 2, 7)
        assert not count_require_hermitian
        assert len(count_eigvalsh) == 1  # the shift's two M-free certificates, stacked

    @pytest.mark.parametrize("modes", [(1, 1), (0, 2), (2, 0), (2, 3)])
    def test_identity_channel(self, modes, count_eigvalsh, count_require_hermitian):
        ch = identity_channel(*modes)
        assert not count_eigvalsh and not count_require_hermitian
        dim = 2 * sum(modes)
        assert ch == GaussianChannel(*modes, np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))
        assert not any(getattr(ch, name).flags.writeable for name in ("K", "M", "dbar"))

    def test_tensor_local(self, count_eigvalsh, count_require_hermitian):
        side_a = side_a_channel([[1.0, 1.0], [0.0, 1.0]], 0.5 * np.eye(2))
        side_b = side_b_channel(np.eye(2), np.diag([0.2, 0.0]))
        count_eigvalsh.clear()
        count_require_hermitian.clear()
        tensor_local(side_a, side_b)
        assert not count_require_hermitian
        assert len(count_eigvalsh) == 2  # each side's unsteerable certificate


class TestOverflow:
    # the pure constructors check their scalars, so no numpy warning comes first
    @pytest.mark.parametrize("build", [
        lambda: pure_family_state(1e200),
        lambda: squeezed_vacuum_state(1e3),
        lambda: squeezed_vacuum_state(1e200),
        lambda: schmidt_pure_state(1, 1, [1e200]),
        lambda: schmidt_pure_state(1, 2, [1e160]),
    ])
    def test_pure_constructor_rejects(self, build):
        with pytest.raises(ValidationError, match="cov contains non-finite entries"):
            build()

    # apply, random_state and sample_verify silence numpy's overflow warning
    # and raise their own error, as pytest fails on a warning
    def test_apply_output(self):
        ch = GaussianChannel(1, 1, 1e200 * np.eye(4), np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValidationError, match="cov contains non-finite entries"):
            apply(ch, squeezed_vacuum_state(0.5))

    def test_apply_mean(self):
        ch = GaussianChannel(1, 1, 1e200 * np.eye(4), np.zeros((4, 4)), np.zeros(4))
        state = GaussianState(1, 1, np.zeros((4, 4)), np.full(4, 1e200))
        with pytest.raises(ValidationError, match="mean contains non-finite entries"):
            apply(ch, state)

    def test_channel_cli_exits_2(self, tmp_path, capsys):
        ch = GaussianChannel(1, 1, 1e200 * np.eye(4), np.zeros((4, 4)), np.zeros(4))
        ch_file, state_file = tmp_path / "ch.json", tmp_path / "state.json"
        ch_file.write_text(channel_to_json(ch))
        state_file.write_text(state_to_json(squeezed_vacuum_state(0.5)))
        assert main(["channel", str(ch_file), str(state_file)]) == 2
        assert "error: cov contains non-finite entries" in capsys.readouterr().err

    def test_apply_symmetrization(self, tmp_path, capsys):
        # K cov K^T is finite (9.025e307 on the diagonal), cov + cov^T is not
        ch = GaussianChannel(1, 1, np.diag([9.5e153, 9.5e153, 1.0, 1.0]),
                             np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(ValidationError, match="^cov contains non-finite entries$"):
            apply(ch, squeezed_vacuum_state(0.0))
        ch_file, state_file = tmp_path / "ch.json", tmp_path / "state.json"
        ch_file.write_text(channel_to_json(ch))
        state_file.write_text(state_to_json(squeezed_vacuum_state(0.0)))
        assert main(["channel", str(ch_file), str(state_file)]) == 2
        assert capsys.readouterr().err == "error: cov contains non-finite entries\n"

    def test_random_state(self):
        with pytest.raises(ValidationError, match="cov contains non-finite entries"):
            random_state(1, 1, 1e308, 0)

    @pytest.mark.parametrize("predicate", ["bona-fide", "unsteerable-preserving"])
    def test_sample_verify(self, predicate):
        ch = fixtures.load_channel(fixtures.CHANNEL_NONCERT_BONAFIDE)
        with pytest.raises(ValidationError, match="^cov contains non-finite entries$"):
            sample_verify(ch, 3, 0, predicate, 1e308)

    def test_sample_cli_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(fixtures.fixture_text(fixtures.CHANNEL_NONCERT_BONAFIDE))
        assert main(["sample", str(path), "--n", "5", "--max-sympl-eigen", "1e308"]) == 2
        assert "error: cov contains non-finite entries" in capsys.readouterr().err


class TestCallerInputStillChecked:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_cov(self, value):
        cov = np.eye(4)
        cov[2, 1] = value
        with pytest.raises(ValidationError, match="^cov contains non-finite entries$"):
            GaussianState(1, 1, cov, np.zeros(4))

    def test_overflowing_symmetrization_of_cov(self, tmp_path, capsys):
        # a finite cov whose (cov + cov^T)/2 overflows; pytest fails on a warning
        cov = np.eye(4)
        cov[0, 0] = 1.7e308
        with pytest.raises(ValidationError, match="^cov contains non-finite entries$"):
            GaussianState(1, 1, cov, np.zeros(4))
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"modes_a": 1, "modes_b": 1, "cov": cov.tolist(),
                                    "mean": [0.0] * 4}))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: cov contains non-finite entries\n")

    def test_overflowing_symmetrization_of_m(self, tmp_path, capsys):
        m = np.zeros((4, 4))
        m[0, 0] = 1.7e308
        with pytest.raises(ValidationError, match="^M contains non-finite entries$"):
            GaussianChannel(1, 1, np.eye(4), m, np.zeros(4))
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"modes_a": 1, "modes_b": 1, "K": np.eye(4).tolist(),
                                    "M": m.tolist(), "dbar": [0.0] * 4}))
        assert main(["channel", str(path), "--classify"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: M contains non-finite entries\n")

    def test_non_finite_mean(self):
        with pytest.raises(ValidationError, match="^mean contains non-finite entries$"):
            GaussianState(1, 1, np.eye(4), [0.0, np.nan, 0.0, 0.0])

    def test_asymmetric_cov(self):
        cov = np.eye(4)
        cov[0, 3] = 0.5
        message = (r"^cov is not symmetric: \|h\[0,3\] - conj\(h\[3,0\]\)\| = "
                   r"5\.000000e-01 exceeds 1e-12 \* 1\.000000e\+00$")
        with pytest.raises(ValidationError, match=message):
            GaussianState(1, 1, cov, np.zeros(4))

    def test_complex_hermitian_cov(self):
        # rejected before the float conversion could drop the imaginary part
        h = np.eye(4, dtype=complex)
        h[0, 1], h[1, 0] = 0.3j, -0.3j
        with pytest.raises(ValidationError, match="^cov must be real$"):
            GaussianState(1, 1, h, np.zeros(4))
        with pytest.raises(ValidationError, match="^cov must be real$"):
            make_state(1, 1, h)

    def test_complex_mean(self):
        with pytest.raises(ValidationError, match="^mean must be real$"):
            GaussianState(1, 1, np.eye(4), np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("name", ["K", "M", "dbar"])
    def test_complex_channel_arrays(self, name):
        # a complex dtype is rejected even when every imaginary part is 0
        arrays = {"K": np.eye(4), "M": np.zeros((4, 4)), "dbar": np.zeros(4)}
        arrays[name] = arrays[name].astype(complex)
        with pytest.raises(ValidationError, match=f"^{name} must be real$"):
            GaussianChannel(1, 1, arrays["K"], arrays["M"], arrays["dbar"])

    def test_complex_side_channel(self):
        for build in (side_a_channel, side_b_channel):
            with pytest.raises(ValidationError, match="^K must be real$"):
                build(np.eye(2, dtype=complex), np.zeros((2, 2)))


# callable -> (a call on one caller array, the array's name, a value it accepts)
READERS = {
    "GaussianState": (lambda v: GaussianState(1, 1, v, np.zeros(4)), "cov", np.eye(4)),
    "GaussianChannel": (lambda v: GaussianChannel(1, 1, np.eye(4), np.zeros((4, 4)), v),
                        "dbar", np.zeros(4)),
    "Trajectory": (lambda v: Trajectory(v, [0.0, 0.0], [0.0, 0.0]), "times", [0.0, 1.0]),
    "sweep": (lambda v: sweep(squeezed_vacuum_state(0.5), BathParameters(0.0, 0.0, 0.0, 0.1), v),
              "t_grid", [0.0, 1.0]),
    "schmidt_pure_state": (lambda v: schmidt_pure_state(1, 1, v), "gammas", [2.0]),
    "j_closed_schmidt": (lambda v: j_closed_schmidt(1, 1, v), "gammas", [2.0]),
    # these read the array once more, to size the mean, dbar or partition
    "make_state": (lambda v: make_state(1, 1, v), "cov", np.eye(4)),
    "side_a_channel": (lambda v: side_a_channel(v, np.eye(2)), "K", np.eye(2)),
    "side_b_channel": (lambda v: side_b_channel(v, np.eye(2)), "K", np.eye(2)),
}


class TestOneReader:
    """Every caller array is read by ``linalg.require_real``: a complex one is
    rejected before numpy could drop its imaginary parts, and one numpy cannot
    read as numbers is a ValidationError, not numpy's TypeError or ValueError."""

    @pytest.mark.parametrize("target", READERS)
    def test_complex_rejected(self, target):
        build, name, value = READERS[target]
        build(value)
        with pytest.raises(ValidationError, match=f"^{name} must be real$"):
            build(np.asarray(value) + 2j)

    @pytest.mark.parametrize("target", READERS)
    @pytest.mark.parametrize("bad", [[["x"]], [[1.0, 2.0], [3.0]], {"a": 1}])
    def test_non_numeric_rejected(self, target, bad):
        build, name, _ = READERS[target]
        with pytest.raises(ValidationError, match=f"^{name} must be a numeric array: "):
            build(bad)

    @pytest.mark.parametrize("target", READERS)
    @pytest.mark.parametrize("form", ["bool array", "True in a list", "np.True_ in a list",
                                      "bool scalar"])
    def test_booleans_rejected(self, target, form):
        # numpy reads True as 1.0, and casts a list mixing it with numbers to
        # float: each of these read as a value the reader accepts
        build, name, value = READERS[target]
        arr = np.asarray(value, dtype=float)
        if form == "bool array":
            bad = arr != 0
        elif form == "bool scalar":
            bad = True
        else:
            bad = arr.tolist()
            row = bad[-1] if arr.ndim == 2 else bad
            row[-1] = True if form == "True in a list" else np.True_
        with pytest.raises(ValidationError, match=f"^{name} must hold numbers, not booleans$"):
            build(bad)


class TestShapeMessages:
    # one form for every array of both records: "<name> must have shape ..."
    @pytest.mark.parametrize("build, message", [
        (lambda: GaussianState(1, 1, np.eye(3), np.zeros(4)),
         r"^cov must have shape \(4, 4\), got \(3, 3\)$"),
        (lambda: GaussianState(1, 1, np.eye(4), np.zeros(3)),
         r"^mean must have shape \(4,\), got \(3,\)$"),
        (lambda: GaussianChannel(1, 1, np.eye(6), np.zeros((4, 4)), np.zeros(4)),
         r"^K must have shape \(4, 4\), got \(6, 6\)$"),
        (lambda: GaussianChannel(1, 1, np.eye(4), np.zeros(4), np.zeros(4)),
         r"^M must have shape \(4, 4\), got \(4,\)$"),
        (lambda: GaussianChannel(1, 1, np.eye(4), np.zeros((4, 4)), np.zeros(3)),
         r"^dbar must have shape \(4,\), got \(3,\)$"),
    ], ids=["cov", "mean", "K", "M", "dbar"])
    def test_shape(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()
