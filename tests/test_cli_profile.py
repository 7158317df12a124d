"""tools/cli_profile.py runs end to end on one form and one repeat.

It prints the median child-process wall time of the four floors and of
the chosen command form.  No number is asserted beyond its presence, and
nothing may be left under perfbench/.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def listing():
    return sorted(os.listdir(os.path.join(ROOT, "perfbench")))


def test_one_form_one_repeat():
    before = listing()
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "cli_profile.py"), "--forms", "classify", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "cli_batch seed 0, 1 repeats: median wall ms per child process"
    names = [re.match(r"  (.+?) +[\d.]+ ms  n=\d+$", line).group(1) for line in lines[1:]]
    assert names == ["python -c pass", "import homkit.cli", "import numpy", "import dataclasses", "classify"]
    assert listing() == before


def test_unknown_form_is_refused():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "cli_profile.py"), "--forms", "nope", "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "unknown forms ['nope']" in proc.stderr
