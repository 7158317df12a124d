"""tools/cli_profile.py runs end to end on one form and one repeat.

It prints the median child-process wall time of the four floors and of
the chosen command form, and next to the form the summed compile() ms of
the homkit modules the form's command runs, with their names.  No number
is asserted beyond its presence, and nothing may be left under
perfbench/.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW = re.compile(r"  (.+?) +[\d.]+ ms  n=\d+(?:  compile +([\d.]+) ms  (.+))?$")


def listing():
    return sorted(os.listdir(os.path.join(ROOT, "perfbench")))


def profile(*forms):
    return subprocess.run(
        [sys.executable, os.path.join("tools", "cli_profile.py"), "--forms", ",".join(forms), "--repeats", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )


def test_one_form_one_repeat():
    before = listing()
    proc = profile("classify")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == ("cli_batch seed 0, 1 repeats: median wall ms per child process; "
                        "compile() ms of the homkit modules each command runs")
    rows = [ROW.match(line).groups() for line in lines[1:]]
    assert [name for name, _, _ in rows] == [
        "python -c pass", "import homkit.cli", "import numpy", "import dataclasses", "classify"]
    # the floors run no command; classify runs the package, cli and three library modules
    assert all(ms is None for _, ms, _ in rows[:4])
    _, ms, modules = rows[4]
    assert float(ms) > 0
    assert modules.split() == ["cli", "exact", "hom_structure", "homkit", "tensor_core"]
    assert listing() == before


def test_each_form_names_the_modules_it_compiles():
    proc = profile("planewave_verify", "gen")
    assert proc.returncode == 0, proc.stderr[-2000:]
    rows = [ROW.match(line).groups() for line in proc.stdout.splitlines()[1:]]
    modules = {name: set(mods.split()) for name, _, mods in rows if mods}
    # the float sweep builds no table or structure, and gen assembles no table
    assert modules == {
        "planewave_verify": {"homkit", "cli", "exact", "tensor_core", "wave_table", "plane_wave",
                             "wave_curvature"},
        "gen": {"homkit", "cli", "exact", "tensor_core", "wave_table", "reduction"},
    }


def test_unknown_form_is_refused():
    proc = profile("nope")
    assert proc.returncode == 2 and "unknown forms ['nope']" in proc.stderr
