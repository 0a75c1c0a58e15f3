"""The benchmark's own self-test, run as part of the suite, so that a change
to the functions it traces or replays (``plant.advance``,
``kernels.simulate_*``) or to what its checks expect fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
