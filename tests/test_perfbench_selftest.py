"""The benchmark's own self-test, run as part of the test suite.

``perfbench/selftest.py`` runs every workload at tiny size and checks each
oracle, so a library change that breaks a benchmark oracle fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "selftest: ok"
