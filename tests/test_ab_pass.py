"""tools/ab_pass.py runs one pair end to end on one round.

With the same tree on both sides it prints the header, one line per
side with the minimum ms of the pass and of every check kind, and the
median change / parent ratio of each; no number is asserted beyond
its form.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("classify", "closeloop", "gen_reduce", "jacobi_perturbed", "jacobi_wave", "reductive",
         "roundtrip")


def test_one_pair_on_the_same_tree():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "ab_pass.py"), ROOT, ROOT, "--pairs", "1",
         "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "exact_proofs seed 3, 1 rounds, min of 15 passes per child, ms"
    cells = "  ".join(rf"{k} [\d.]+" for k in ("total", *KINDS))
    assert re.fullmatch(rf"pair 1 parent: {cells}", lines[1]), lines[1]
    assert re.fullmatch(rf"pair 1 change: {cells}", lines[2]), lines[2]
    assert re.fullmatch(rf"median change/parent: {cells}", lines[3]), lines[3]
    assert len(lines) == 4


def test_refuses_a_count_below_one():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "ab_pass.py"), ROOT, ROOT, "--pairs", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "--pairs must be at least 1" in proc.stderr
