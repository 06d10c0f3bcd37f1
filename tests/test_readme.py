"""The README is the behaviour contract: its library example must run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: code.splitlines()[0])
def test_python_block_runs(code):
    # a fresh interpreter with the checkout's src first on the path, warnings as errors
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
