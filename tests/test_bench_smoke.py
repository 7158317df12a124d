"""The benchmark self-check as a tier-1 gate.

perfbench/selfcheck.py runs one round of every benchmark workload at
seed 0 and compares each report digest with perfbench/golden_digests.json,
so any change to a float residual, an exact verdict or CLI output shows
up here.  No timing is asserted.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
