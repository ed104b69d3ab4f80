"""The benchmark harness's own self-test passes against this checkout.

``perfbench/selftest.py`` pins what the benchmark calls in ``src/``: the
names its tracer wraps, the signatures it calls, and the result fields it
replaces.  Running it here catches a broken pin before a benchmark run
does.  It writes no file.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
