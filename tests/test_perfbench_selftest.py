"""The benchmark's own self-test, run as part of the test suite.

``perfbench/selftest.py`` runs every benchmark workload at tiny shapes,
including a singleton-group query (pi = n), and checks that the traced
replica of ``recover`` returns the same pairs as ``recover`` itself.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
