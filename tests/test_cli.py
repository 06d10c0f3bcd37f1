import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gsteer
from gsteer import fixtures
from gsteer.channels import apply
from gsteer.cli import build_parser, main
from gsteer.dynamics import BathParameters, sweep
from gsteer.linalg import DEFAULT_PSD_TOL
from gsteer.states import make_state, squeezed_vacuum_state, state_from_json, state_to_json
from gsteer.steering import pure_family_state


@pytest.fixture()
def vacuum_file(tmp_path):
    path = tmp_path / "vacuum.json"
    path.write_text(state_to_json(make_state(1, 1, np.eye(4))))
    return str(path)


@pytest.fixture()
def steerable_file(tmp_path):
    path = tmp_path / "r2.json"
    path.write_text(state_to_json(pure_family_state(2.0)))
    return str(path)


@pytest.fixture()
def unphysical_file(tmp_path):
    doc = {"modes_a": 1, "modes_b": 1,
           "cov": (0.5 * np.eye(4)).tolist(), "mean": [0.0] * 4}
    path = tmp_path / "unphysical.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def witness_state_file(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(fixtures.fixture_text(fixtures.STATE_SHEAR_WITNESS))
    return str(path)


@pytest.fixture()
def shear_channel_file(tmp_path):
    path = tmp_path / "shear.json"
    path.write_text(fixtures.fixture_text(fixtures.CHANNEL_SHEAR_LOCAL))
    return str(path)


@pytest.fixture()
def noncert_channel_file(tmp_path):
    path = tmp_path / "noncert.json"
    path.write_text(fixtures.fixture_text(fixtures.CHANNEL_NONCERT_UNSTEERABLE))
    return str(path)


class TestCheck:
    def test_vacuum(self, vacuum_file, capsys):
        assert main(["check", vacuum_file]) == 0
        out = capsys.readouterr().out
        assert "bona_fide: true" in out
        assert "unsteerable: true" in out

    def test_steerable_state(self, steerable_file, capsys):
        assert main(["check", steerable_file]) == 0
        assert "unsteerable: false" in capsys.readouterr().out

    def test_unphysical_state_exits_3(self, unphysical_file, capsys):
        assert main(["check", unphysical_file]) == 3
        out = capsys.readouterr().out
        assert "bona_fide: false" in out
        assert "-0.5" in out

    def test_truncated_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trunc.json"
        path.write_text('{"modes_a": 1, "modes')
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 2

    def test_wrong_dimension_exits_2(self, tmp_path):
        doc = {"modes_a": 1, "modes_b": 2,
               "cov": np.eye(4).tolist(), "mean": [0.0] * 4}
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2

    def test_tol_flag_loosens_verdict(self, unphysical_file, capsys):
        assert main(["check", "--tol", "1.0", unphysical_file]) == 0
        assert "bona_fide: true" in capsys.readouterr().out

    def test_env_var_tolerance(self, unphysical_file, capsys, monkeypatch):
        monkeypatch.setenv("GSTEER_TOL", "1.0")
        assert main(["check", unphysical_file]) == 0
        assert "bona_fide: true" in capsys.readouterr().out


class TestQuantify:
    def test_witness_state(self, witness_state_file, capsys):
        assert main(["quantify", witness_state_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["j2"] == pytest.approx(0.0148, abs=5e-4)
        assert doc["unsteerable"] is False

    def test_vacuum_zeroes(self, vacuum_file, capsys):
        assert main(["quantify", vacuum_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["j1"] == 0.0 and doc["j2"] == 0.0

    def test_steerable_value(self, steerable_file, capsys):
        assert main(["quantify", steerable_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["j2"] == pytest.approx(np.sqrt(13.0) - 3.0, abs=1e-12)

    def test_multimode_state(self, tmp_path, capsys):
        from gsteer.states import schmidt_pure_state

        path = tmp_path / "wide.json"
        path.write_text(state_to_json(schmidt_pure_state(1, 2, [2.0])))
        assert main(["quantify", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["j2"] == pytest.approx(np.sqrt(13.0) - 3.0, abs=1e-12)

    def test_unphysical_exits_3(self, unphysical_file):
        assert main(["quantify", unphysical_file]) == 3


class TestChannel:
    def test_classify(self, noncert_channel_file, capsys):
        assert main(["channel", noncert_channel_file, "--classify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid_gaussian"]["verdict"] is True
        assert doc["unsteerable"]["verdict"] is False

    def test_apply_identity_round_trips(self, tmp_path, witness_state_file, capsys):
        from gsteer.channels import channel_to_json, identity_channel

        ch_path = tmp_path / "id.json"
        ch_path.write_text(channel_to_json(identity_channel(1, 1)))
        out_path = tmp_path / "out.json"
        assert main(["channel", str(ch_path), witness_state_file,
                     "--output", str(out_path)]) == 0
        original = state_from_json(Path(witness_state_file).read_text())
        result = state_from_json(out_path.read_text())
        assert np.array_equal(result.cov, original.cov)

    def test_apply_shear_matches_reference(self, shear_channel_file,
                                           witness_state_file, tmp_path):
        out_path = tmp_path / "sheared.json"
        assert main(["channel", shear_channel_file, witness_state_file,
                     "--output", str(out_path)]) == 0
        result = state_from_json(out_path.read_text())
        shear = fixtures.load_channel(fixtures.CHANNEL_SHEAR_LOCAL)
        witness = fixtures.load_state(fixtures.STATE_SHEAR_WITNESS)
        assert np.array_equal(result.cov, apply(shear, witness).cov)

    def test_overflowing_certificate_exits_2_without_warnings(self, tmp_path, capsys):
        # K = 1e200 I overflows K F K^T; a numpy warning would fail the test
        from gsteer.channels import GaussianChannel, channel_to_json

        path = tmp_path / "huge.json"
        path.write_text(channel_to_json(
            GaussianChannel(1, 1, 1e200 * np.eye(4), np.zeros((4, 4)), np.zeros(4))))
        assert main(["channel", str(path), "--classify"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: channel certificate contains non-finite entries\n"
        assert captured.out == ""

    def test_output_without_state_exits_2(self, noncert_channel_file, tmp_path, capsys):
        # a flag that cannot act is refused, not silently ignored
        out_path = tmp_path / "out.json"
        for extra in (["--classify"], []):
            assert main(["channel", noncert_channel_file, *extra,
                         "--output", str(out_path)]) == 2
            captured = capsys.readouterr()
            assert captured.err == "error: --output needs a state file to apply the channel to\n"
            assert captured.out == ""
        assert not out_path.exists()

    def test_no_action_exits_2(self, noncert_channel_file):
        assert main(["channel", noncert_channel_file]) == 2

    def test_dimension_mismatch_exits_2(self, noncert_channel_file, tmp_path):
        from gsteer.states import random_state

        path = tmp_path / "wide.json"
        path.write_text(state_to_json(random_state(1, 2, 2.0, 0)))
        assert main(["channel", noncert_channel_file, str(path)]) == 2


class TestSweep:
    def test_reference_curve_monotone(self, capsys):
        assert main(["sweep", "--r", "1", "--nth", "0", "--R", "1",
                     "--phi", "10", "--lambda", "0.1",
                     "--tmax", "20", "--dt", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,j2,bound"
        j2s = np.array([float(l.split(",")[1]) for l in lines[1:]])
        bounds = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert len(j2s) == 201
        assert np.all(np.diff(j2s) <= 1e-12)
        assert np.all(j2s <= bounds + 1e-9)

    def test_tmax_zero_single_row(self, capsys):
        assert main(["sweep", "--tmax", "0", "--dt", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_unsqueezed_start_gives_zero_column(self, capsys):
        # block-diagonal initial and stationary covariances stay product
        # states along the whole trajectory, so j2 is identically zero
        assert main(["sweep", "--r", "0", "--tmax", "5", "--dt", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(float(l.split(",")[1]) == 0.0 for l in lines[1:])

    def test_writes_file(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["sweep", "--tmax", "1", "--dt", "0.5",
                     "--output", str(out)]) == 0
        assert out.read_text().startswith("t,j2,bound\n")

    def test_invalid_dt_exits_2(self):
        assert main(["sweep", "--dt", "0"]) == 2

    @pytest.mark.parametrize("flag", ["--dt", "--tmax"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_grid_exits_2(self, flag, value, capsys):
        assert main(["sweep", flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} must be finite")

    # only grids numpy refuses to size: one it would try to allocate (say
    # 1e10 points) could exhaust the machine's memory
    @pytest.mark.parametrize("tmax, dt", [("1e300", "1e-300"), ("1e20", "1e-3")])
    def test_unsizable_grid_exits_2(self, tmax, dt, capsys):
        assert main(["sweep", "--tmax", tmax, "--dt", dt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tmax ") and "--dt " in err

    def test_unallocatable_grid_exits_2(self, monkeypatch, capsys):
        # a grid numpy can size but not hold: the sweep raises MemoryError
        # before any row is written (simulated, so nothing large is allocated)
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("gsteer.cli.sweep", out_of_memory)
        assert main(["sweep", "--tmax", "1", "--dt", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --tmax 1.0 and --dt 0.5 give too many grid points\n"

    def test_invalid_bath_exits_2(self):
        assert main(["sweep", "--nth", "-1"]) == 2

    @pytest.mark.parametrize("flag, value", [("--R", "800"), ("--nth", "1e308")])
    def test_overflowing_bath_exits_2_without_warnings(self, flag, value, capsys):
        # pytest turns any numpy overflow warning into an error
        assert main(["sweep", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bath parameters n_th = ")
        assert err.endswith("give a non-finite stationary covariance\n")

    def test_deterministic_output(self, capsys):
        args = ["sweep", "--r", "0.7", "--phi", "3", "--tmax", "3", "--dt", "0.1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_stdout_and_file_hold_the_trajectory_csv(self, tmp_path, capsys):
        args = ["sweep", "--r", "0.7", "--phi", "3", "--tmax", "3", "--dt", "0.1"]
        expected = sweep(squeezed_vacuum_state(0.7), BathParameters(0.0, 1.0, 3.0, 0.1),
                         np.arange(0.0, 3.05, 0.1)).to_csv()
        assert main(args) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "traj.csv"
        assert main([*args, "--output", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

    def test_csv_streamed(self):
        # the CSV (1.7 MiB at dt 2e-3) is written row by row, never held
        # whole: the command needs little more memory than the sweep itself.
        # A short run first fills the module caches.
        grid = np.arange(0.0, 60.0 + 1e-3, 2e-3)
        start, bath = squeezed_vacuum_state(1.0), BathParameters(0.0, 1.0, 0.0, 0.1)
        assert main(["sweep", "--tmax", "1", "--output", os.devnull]) == 0
        tracemalloc.start()
        try:
            sweep(start, bath, grid)
            sweep_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert main(["sweep", "--dt", "2e-3", "--output", os.devnull]) == 0
            command_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert command_peak < sweep_peak + 2**20


class TestSample:
    def test_noncert_channel_clean(self, noncert_channel_file, capsys):
        assert main(["sample", noncert_channel_file, "--n", "300", "--seed", "5",
                     "--predicate", "unsteerable-preserving"]) == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out

    def test_abort_exits_4(self, noncert_channel_file, capsys):
        assert main(["sample", noncert_channel_file, "--n", "5", "--seed", "5",
                     "--predicate", "unsteerable-preserving",
                     "--max-sympl-eigen", "1.0"]) == 4
        assert "oversampling" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_max_sympl_eigen_exits_2(self, noncert_channel_file, value, capsys):
        assert main(["sample", noncert_channel_file, "--n", "5",
                     "--max-sympl-eigen", value]) == 2
        assert capsys.readouterr().err.startswith("error: max_sympl_eigen must be >= 1")

    def test_deterministic_output(self, noncert_channel_file, capsys):
        args = ["sample", noncert_channel_file, "--n", "50", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_negative_seed_exits_2(self, noncert_channel_file, capsys):
        assert main(["sample", noncert_channel_file, "--n", "5", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"

    def test_different_seeds_differ(self, noncert_channel_file, capsys):
        assert main(["sample", noncert_channel_file, "--n", "50", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", noncert_channel_file, "--n", "50", "--seed", "2"]) == 0
        assert capsys.readouterr().out != first


class TestVerify:
    def test_paper_suite_passes(self, capsys):
        assert main(["verify", "--suite", "paper"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_failures_exit_nonzero(self, capsys, monkeypatch):
        import gsteer.cli
        from gsteer.verify import CheckResult

        def fake_suite(suite, seed=0):
            return [CheckResult("doomed", False, "0", "1", "exact")]

        monkeypatch.setattr(gsteer.cli, "run_suite", fake_suite)
        assert main(["verify", "--suite", "properties"]) == 1
        out = capsys.readouterr().out
        assert "FAIL doomed" in out
        assert "0/1 checks passed" in out

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--seed", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be nonnegative, got -5\n"

    def test_tol_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--tol", "5"])
        assert err.value.code == 2

    def test_env_var_tolerance_not_read(self, capsys, monkeypatch):
        import gsteer.cli
        from gsteer.verify import CheckResult

        monkeypatch.setenv("GSTEER_TOL", "abc")
        monkeypatch.setattr(gsteer.cli, "run_suite", lambda suite, seed=0: [
            CheckResult("fine", True, "0", "0", "exact")])
        assert main(["verify", "--suite", "paper"]) == 0

    def test_tolerance_band_witness_check(self, monkeypatch):
        from gsteer import verify

        monkeypatch.setattr(verify, "MC_SAMPLES", 1)
        monkeypatch.setattr(verify, "GRID_DENSITY", 2)
        results = {r.name: r for r in verify.paper_suite()}
        assert results["tolerance-band-witness-faithful"].passed

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bogus"])

    def test_unknown_suite_rejected_by_registry(self):
        from gsteer.verify import run_suite

        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("bogus")


class TestParserReuse:
    """main builds the parser once per process; no call may leave state on
    it that a later call sees."""

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_classify_flag_not_carried_over(self, noncert_channel_file,
                                            witness_state_file, capsys):
        assert main(["channel", noncert_channel_file, "--classify"]) == 0
        assert "valid_gaussian" in capsys.readouterr().out
        assert main(["channel", noncert_channel_file, witness_state_file]) == 0
        out = capsys.readouterr().out
        assert "valid_gaussian" not in out
        assert state_from_json(out).modes_a == 1

    def test_tol_flag_not_carried_over(self, unphysical_file, capsys, monkeypatch):
        monkeypatch.delenv("GSTEER_TOL", raising=False)
        assert main(["check", "--tol", "1.0", unphysical_file]) == 0
        assert "tolerance: 1\n" in capsys.readouterr().out
        assert main(["check", unphysical_file]) == 3
        assert f"tolerance: {DEFAULT_PSD_TOL:.17g}\n" in capsys.readouterr().out

    def test_parse_error_then_valid_call_matches_fresh_process(
            self, witness_state_file, capsys, monkeypatch):
        monkeypatch.delenv("GSTEER_TOL", raising=False)
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "nope"])
        assert err.value.code == 2
        capsys.readouterr()
        assert main(["check", witness_state_file]) == 0
        out = capsys.readouterr().out
        src = str(Path(gsteer.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-m", "gsteer.cli", "check", witness_state_file],
                               env={**os.environ, "PYTHONPATH": path},
                               capture_output=True, timeout=120)
        assert fresh.returncode == 0, fresh.stderr
        assert out.encode() == fresh.stdout

    def test_help_same_bytes_twice(self, capsys):
        outs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                main(["--help"])
            assert err.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0].startswith("usage: gsteer") and outs[1] == outs[0]


class TestTolerance:
    def test_infinite_flag_rejected(self, tmp_path, capsys):
        # cov = 0.2 I: cov + i*Omega has minimum eigenvalue -0.8
        doc = {"modes_a": 1, "modes_b": 1,
               "cov": (0.2 * np.eye(4)).tolist(), "mean": [0.0] * 4}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--tol", "inf", str(path)]) == 2
        captured = capsys.readouterr()
        assert "bona_fide" not in captured.out
        assert "--tol" in captured.err

    def test_infinite_env_var_rejected(self, vacuum_file, capsys, monkeypatch):
        monkeypatch.setenv("GSTEER_TOL", "inf")
        assert main(["quantify", vacuum_file]) == 2
        assert "Infinity" not in capsys.readouterr().out

    def test_nan_flag_rejected(self, vacuum_file, capsys):
        assert main(["check", "--tol", "nan", vacuum_file]) == 2
        assert "--tol" in capsys.readouterr().err

    def test_unparsable_env_var_rejected(self, vacuum_file, capsys, monkeypatch):
        monkeypatch.setenv("GSTEER_TOL", "abc")
        assert main(["check", vacuum_file]) == 2
        assert "GSTEER_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1e-9", "-inf", "inf", "nan", "abc"])
    def test_one_rule_for_flag_and_env_var(self, value, vacuum_file, monkeypatch):
        assert main(["quantify", f"--tol={value}", vacuum_file]) == 2
        monkeypatch.setenv("GSTEER_TOL", value)
        assert main(["quantify", vacuum_file]) == 2

    def test_flag_overrides_bad_env_var(self, vacuum_file, monkeypatch):
        monkeypatch.setenv("GSTEER_TOL", "abc")
        assert main(["check", "--tol", "1e-9", vacuum_file]) == 0


class TestInputTolerance:
    """Input is judged bona fide at the fixed 1e-9; --tol sets the analysis
    tolerance only."""

    def test_sweep_at_tol_zero(self, capsys):
        # the squeezed-vacuum start has lambda_min(cov + i*Omega) = -5.9e-17
        assert main(["sweep", "--tol", "0", "--r", "1", "--tmax", "1"]) == 0
        assert capsys.readouterr().out.startswith("t,j2,bound\n0,")

    def test_quantify_pure_state_at_tol_zero(self, tmp_path, capsys):
        path = tmp_path / "sv.json"
        path.write_text(state_to_json(squeezed_vacuum_state(1.0)))
        assert main(["quantify", "--tol", "0", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unsteerable"] is False and doc["tol_used"] == 0.0

    def test_loose_tol_does_not_admit_unphysical_input(self, tmp_path, capsys):
        # cov = (1 - 1e-5) I: lambda_min(cov + i*Omega) = -1e-5, inside a
        # 1e-3 analysis band but outside the fixed 1e-9 input test
        doc = {"modes_a": 1, "modes_b": 1,
               "cov": ((1.0 - 1e-5) * np.eye(4)).tolist(), "mean": [0.0] * 4}
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert main(["quantify", "--tol", "1e-3", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not bona fide" in captured.err and "(tol 1e-09)" in captured.err

    def test_channel_at_tol_zero(self, tmp_path, capsys):
        # pin: M is judged at the fixed 1e-9, so a rank-one M whose rounded
        # spectrum dips below zero is accepted at --tol 0
        m = np.outer([1.0, 0.1, 0.3, 0.7], [1.0, 0.1, 0.3, 0.7])
        assert np.linalg.eigvalsh(m)[0] < 0.0
        ch_path = tmp_path / "rank1.json"
        doc = {"modes_a": 1, "modes_b": 1, "K": np.eye(4).tolist(), "M": m.tolist(),
               "dbar": [0.0] * 4}
        ch_path.write_text(json.dumps(doc))
        state_path = tmp_path / "sv.json"
        state_path.write_text(state_to_json(squeezed_vacuum_state(1.0)))
        assert main(["channel", "--tol", "0", str(ch_path), str(state_path),
                     "--classify", "--output", str(tmp_path / "out.json")]) == 0
        assert json.loads(capsys.readouterr().out)["valid_gaussian"]["tol"] == 0.0


class TestBooleanModeCounts:
    @pytest.mark.parametrize("key", ["modes_a", "modes_b"])
    def test_state_document(self, key, tmp_path, capsys):
        doc = json.loads(state_to_json(make_state(1, 1, np.eye(4))))
        doc[key] = True
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 2
        assert "integers" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["modes_a", "modes_b"])
    def test_channel_document(self, key, tmp_path, capsys):
        doc = json.loads(fixtures.fixture_text(fixtures.CHANNEL_SHEAR_LOCAL))
        doc[key] = True
        path = tmp_path / "channel.json"
        path.write_text(json.dumps(doc))
        assert main(["channel", str(path), "--classify"]) == 2
        assert "integers" in capsys.readouterr().err


class TestRoundTrip:
    def test_state_parse_serialize_parse(self, witness_state_file):
        text = Path(witness_state_file).read_text()
        first = state_from_json(text)
        serialized = state_to_json(first)
        second = state_from_json(serialized)
        assert np.array_equal(first.cov, second.cov)
        assert np.array_equal(first.mean, second.mean)
        assert state_to_json(second) == serialized


class TestDocumentErrors:
    """Each malformed document exits 2 with one exact stderr line, for both
    document kinds."""

    # kind -> (command, array keys, a document with numeric arrays)
    KINDS = {
        "state": (["check"], ["cov", "mean"],
                  {"modes_a": 1, "modes_b": 1, "cov": np.eye(4).tolist(),
                   "mean": [0.0] * 4}),
        "channel": (["channel", "--classify"], ["K", "M", "dbar"],
                    {"modes_a": 1, "modes_b": 1, "K": np.eye(4).tolist(),
                     "M": np.zeros((4, 4)).tolist(), "dbar": [0.0] * 4}),
    }

    def run(self, kind, doc, tmp_path, capsys):
        command = self.KINDS[kind][0]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        code = main([*command[:1], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("kind", ["state", "channel"])
    @pytest.mark.parametrize("doc", [[1, 2], "text", 3.5, None])
    def test_not_an_object(self, kind, doc, tmp_path, capsys):
        assert self.run(kind, doc, tmp_path, capsys) == (
            2, f"error: {kind} document must be a JSON object\n")

    @pytest.mark.parametrize("kind", ["state", "channel"])
    def test_missing_keys(self, kind, tmp_path, capsys):
        _, arrays, doc = self.KINDS[kind]
        partial = {key: value for key, value in doc.items() if key not in arrays[1:]}
        del partial["modes_b"]
        missing = sorted(["modes_b", *arrays[1:]])
        assert self.run(kind, partial, tmp_path, capsys) == (
            2, f"error: {kind} document missing keys: {missing}\n")

    @pytest.mark.parametrize("kind", ["state", "channel"])
    @pytest.mark.parametrize("position", [0, -1])
    def test_non_numeric_array(self, kind, position, tmp_path, capsys):
        _, arrays, doc = self.KINDS[kind]
        doc = dict(doc, **{arrays[position]: [["x"]]})
        code, err = self.run(kind, doc, tmp_path, capsys)
        assert code == 2
        # what follows the colon is numpy's own text
        assert err.startswith(f"error: {arrays[position]} must be a numeric array: ")
        assert err.endswith("\n") and err.count("\n") == 1

    # far deeper than the interpreter's recursion limit, so that json.loads
    # raises RecursionError
    DEEP = b'{"modes_a": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"

    @pytest.mark.parametrize("command", [["check"], ["quantify"], ["channel", "--classify"],
                                         ["sample", "--n", "5"]])
    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "is not UTF-8 text: invalid start byte at byte 0"),
        (DEEP, "document is nested too deeply"),
    ], ids=["not-utf8", "deeply-nested"])
    def test_undecodable_document(self, command, content, message, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        assert main([*command[:1], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1
