"""Set-up probe: what one fresh ``gsteer`` process pays before real work.

Run from the repository root as ``python3 perfbench/setup_probe.py <workload>``.
It imports gsteer (with its CLI), loads the four bundled fixtures and runs one
warm-up op of the workload on them; ``run.py`` times the whole process.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gsteer  # noqa: E402
import gsteer.cli  # noqa: E402,F401

from workloads import WORKLOADS, load_fixtures  # noqa: E402

if __name__ == "__main__":
    if not gsteer.__file__.startswith(os.path.join(os.getcwd(), "src")):
        sys.exit(f"imported gsteer from {gsteer.__file__}, not ./src")
    load_fixtures()
    WORKLOADS[sys.argv[1]].warmup()
