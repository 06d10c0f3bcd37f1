"""Fixed-seed output, byte for byte.  Each command runs in-process through
``gsteer.cli.main`` and its stdout must equal the recording in
``tests/golden/``: ``verify --suite all``, ``sample`` on both non-certified
channel fixtures under both predicates, ``quantify`` and ``check`` on both
witness states, ``channel --classify`` on the three channel fixtures, the
shear channel applied to the shear witness, and the sha256 of the default
``sweep`` CSV.  The README
promises byte-identical output for fixed seeds; a change that moves a
digit, a draw or a verdict fails here.
"""

import hashlib
from importlib import resources
from pathlib import Path

import pytest

from gsteer.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = resources.files("gsteer.fixtures")
CHANNELS = ("channel_noncert_bonafide", "channel_noncert_unsteerable")
PREDICATES = ("bona-fide", "unsteerable-preserving")
STATES = ("state_shear_witness", "state_tolerance_band_witness")

# recording -> (command, bundled fixture or None, further arguments)
RUNS = {
    "verify_all.txt": ("verify", None, ("--suite", "all")),
    **{f"sample_{channel}_{predicate}.txt":
       ("sample", channel, ("--n", "2000", "--seed", "1", "--predicate", predicate))
       for channel in CHANNELS for predicate in PREDICATES},
    **{f"{command}_{state}.txt": (command, state, ())
       for command in ("quantify", "check") for state in STATES},
    **{f"channel_classify_{channel}.txt": ("channel", channel, ("--classify",))
       for channel in (*CHANNELS, "channel_shear_local")},
    "channel_channel_shear_local_state_shear_witness.txt":
        ("channel", "channel_shear_local", (str(FIXTURES / "state_shear_witness.json"),)),
}


def run(command, fixture=None, args=()):
    """The exit code and stdout of one ``gsteer`` command at the default tolerance."""
    argv = [command]
    if fixture is not None:
        argv.append(str(FIXTURES / f"{fixture}.json"))
    return main([*argv, *args])


@pytest.fixture(autouse=True)
def default_tolerance(monkeypatch):
    monkeypatch.delenv("GSTEER_TOL", raising=False)


@pytest.mark.parametrize("recording", RUNS)
def test_stdout_equals_the_recording(recording, capsys):
    assert run(*RUNS[recording]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / recording).read_bytes()


def test_default_sweep_digest(capsys):
    assert run("sweep") == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == (GOLDEN / "sweep_default.sha256").read_text(encoding="utf-8").strip()
