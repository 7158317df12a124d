"""tools/kind_profile.py runs end to end on one round.

It prints the per-pass time of every exact_proofs check kind and the
call counts of Fraction.__new__ and exact.integer_numerators.  No number
is asserted beyond their presence.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("gen_reduce", "roundtrip", "jacobi_wave", "jacobi_perturbed", "reductive", "classify",
         "closeloop")


def test_one_round_prints_every_kind_and_count():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "kind_profile.py"), "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = proc.stdout
    assert re.match(r"exact_proofs seed 3, 1 rounds: 42 checks, [\d.]+ ms per pass\n", out)
    for kind in KINDS:
        assert re.search(rf"^  {kind} +[\d.]+ ms +[\d.]+%$", out, re.M), kind
    for name in ("Fraction.__new__", "exact.integer_numerators"):
        assert re.search(rf"^  {re.escape(name)} +[1-9]\d* calls per pass$", out, re.M), name


def test_float_sweep_round_shows_no_planning_and_the_pairwise_products():
    proc = subprocess.run(
        [sys.executable, os.path.join("tools", "kind_profile.py"), "--workload", "float_sweep",
         "--rounds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = proc.stdout
    assert re.match(r"float_sweep seed 3, 1 rounds: 33 checks, [\d.]+ ms per pass\n", out)
    for kind in ("sweep", "flat"):
        assert re.search(rf"^  {kind} +[\d.]+ ms +[\d.]+%$", out, re.M), kind
    # a sweep plans no contraction, and S and dS take 9 pairwise products per chart point
    assert re.search(r"^  numpy\.einsum_path +0 calls per pass$", out, re.M)
    assert re.search(r"^  _exact_array\.tensordot +[1-9]\d* calls per pass$", out, re.M)
    assert re.search(r"^  plane_wave\._point_residuals +[1-9]\d* calls per pass$", out, re.M)
    assert re.search(r"^  tensordot per chart point +9\.0$", out, re.M)
