"""tools/kind_profile.py runs end to end on one round.

It prints the per-pass time of every check kind, the call counts of
the functions it names, all the function calls of one pass, the peak
RSS, whether the checks imported numpy, and the homkit functions the
pass never called.  On exact_proofs no number is asserted beyond their
presence, and numpy must not be imported; on float_sweep the sweep must
call no numpy wrapper it has replaced and convert F and H once per wave.
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
    for name in ("Fraction.__new__", "exact.integer_numerators", "tensor_core.Tensor._sparse",
                 "tensor_core._matrix", "reduction._freeze", "wave_curvature.SparseArray.__init__", "wave_curvature._join",
                 "all function calls"):
        assert re.search(rf"^  {re.escape(name)} +[1-9]\d* calls per pass$", out, re.M), name
    assert re.search(r"^  peak RSS +[1-9][\d.]* MB$", out, re.M)
    # the exact checks, the closing of the loop included, run without numpy
    assert re.search(r"^  numpy imported by the checks: no$", out, re.M)
    assert out.index("numpy imported") < out.index("never called in")
    idle = dict(re.findall(r"^  never called in (\w+): (.*)$", out, re.M))
    # one line per module of src/homkit
    assert set(idle) == {name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "homkit"))
                         if name.endswith(".py")}
    # exact verdicts split S on numerators, so the float-only helpers see no traffic
    assert "antisymmetrize" in idle["tensor_core"].split(", ")
    assert "vectorial_part" in idle["hom_structure"].split(", ")
    assert "jacobi_residual" not in idle["lie_algebra"].split(", ")


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
    assert re.search(r"^  plane_wave\._tensordot +[1-9]\d* calls per pass$", out, re.M)
    assert re.search(r"^  plane_wave\._point_residuals +[1-9]\d* calls per pass$", out, re.M)
    assert re.search(r"^  tensordot per chart point +9\.0$", out, re.M)
    assert re.search(r"^  all function calls +[1-9]\d* calls per pass$", out, re.M)
    assert re.search(r"^  numpy imported by the checks: yes$", out, re.M)
    # a sweep converts its wave's n x n F and H once, not at each chart point;
    # a flat check reads riemann, which converts them at each point
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    per_wave = sum(count * 2 * n * n for n, count in workloads.SWEEP_MIX)
    per_point = sum(count * workloads.POINTS_PER_WAVE * 2 * n * n for n, count in workloads.FLAT_MIX)
    assert re.search(rf"^  Fraction\.__float__ +{per_wave + per_point} calls per pass$", out, re.M)
    # numpy's kernels run without these wrappers around them
    for name in ("numpy.tensordot", "numpy.moveaxis", "numpy.full"):
        assert re.search(rf"^  {re.escape(name)} +0 calls per pass$", out, re.M), name
        assert re.search(rf"^  {re.escape(name)} per chart point +0\.0$", out, re.M), name
    for name in ("numpy._methods._sum", "numpy._methods._amax"):
        assert re.search(rf"^  {re.escape(name)} per chart point +[\d.]+$", out, re.M), name
