"""The benchmark's own smoke test, run as part of the test suite.

The benchmark's tracer wraps the public methods it finds in the solver's
modules, so a change to the solver that breaks the traced pipeline should
fail here, not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke_test.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
