"""``homkit.plane_wave`` and ``homkit.reduction`` load on first use.

The exact commands (``classify``, ``jacobi``, ``reductive``) and every
malformed-input exit run without importing numpy.  The two
numpy-backed modules are still in ``sys.modules`` as soon as the
package is imported, and the package serves their public names on
attribute access.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homkit
from homkit.lie_algebra import LieAlgebra

PLANE_WAVE_NAMES = (
    "ChartPoint",
    "PlaneWaveData",
    "as_residuals",
    "christoffel",
    "exact_curvature",
    "frame_structure",
    "metric_jet",
    "pw_isometry_algebra",
    "riemann",
    "sample_points",
    "structure_at",
)
REDUCTION_NAMES = (
    "DegenerateAnsatz",
    "NondegenerateAnsatz",
    "ReductionReport",
    "ansatz_from_plane_wave",
    "assemble_algebra",
    "degenerate_reduce",
    "f_derivation",
    "generate_instance",
    "nondegenerate_reduce",
    "verify_constraints",
)

# Runs each command through homkit.cli.main in one child process and
# records, after each step, whether numpy has been imported.  The last
# step reads a lazily served name, so the probe is seen to detect numpy.
CHILD = r"""
import contextlib, io, json, sys

steps, codes = {}, {}
import homkit
steps["import homkit"] = "numpy" in sys.modules
import homkit.cli
steps["import homkit.cli"] = "numpy" in sys.modules
registered = [m in sys.modules for m in ("homkit.plane_wave", "homkit.reduction")]
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[label] = homkit.cli.main(argv)
    steps[label] = "numpy" in sys.modules
homkit.PlaneWaveData
steps["homkit.PlaneWaveData"] = "numpy" in sys.modules
print(json.dumps({"steps": steps, "codes": codes, "registered": registered}))
"""

SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}
NOT_LIE = {(0, 1): {2: 1}, (0, 2): {0: 1}}


@pytest.fixture(scope="module")
def child(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lazy")

    def write(name, text):
        path = tmp / name
        path.write_text(text if isinstance(text, str) else json.dumps(text))
        return str(path)

    wave = homkit.PlaneWaveData(
        2,
        ((Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(0))),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1, 2))),
    )
    structure = write("s.json", homkit.frame_structure(wave).to_json())
    so3 = write("so3.json", LieAlgebra.from_brackets(3, SO3).to_json())
    not_lie = write("not_lie.json", LieAlgebra.from_brackets(3, NOT_LIE).to_json())
    no_s = write("no_S.json", {"metric": [["1"]]})
    truncated = write("truncated.json", '{"dim": 3, "brackets": {"0,1"')
    non_square = write("f.json", [["0", "1"]])
    square = write("h.json", [["1", "0"], ["0", "1"]])
    runs = [
        ("classify", ["classify", structure]),
        ("jacobi", ["jacobi", so3]),
        ("jacobi fails", ["jacobi", not_lie]),
        ("reductive", ["reductive", so3, "--m", "0,1", "--h", "2"]),
        ("reductive fails", ["reductive", so3, "--m", "0", "--h", "1,2"]),
        ("classify missing S", ["classify", no_s]),
        ("jacobi truncated JSON", ["jacobi", truncated]),
        ("planewave non-square F",
         ["planewave", "--n", "2", "--F", non_square, "--H", square, "verify"]),
    ]
    src = str(Path(homkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_exact_commands_and_malformed_inputs_skip_numpy(child):
    steps = child["steps"]
    assert steps.pop("homkit.PlaneWaveData") is True
    assert {label: loaded for label, loaded in steps.items() if loaded} == {}


def test_exit_codes(child):
    assert child["codes"] == {
        "classify": 0,
        "jacobi": 0,
        "jacobi fails": 1,
        "reductive": 0,
        "reductive fails": 1,
        "classify missing S": 2,
        "jacobi truncated JSON": 2,
        "planewave non-square F": 2,
    }


def test_lazy_modules_are_registered_on_import(child):
    assert child["registered"] == [True, True]


@pytest.mark.parametrize(
    "module, name",
    [("plane_wave", n) for n in PLANE_WAVE_NAMES] + [("reduction", n) for n in REDUCTION_NAMES],
)
def test_lazy_name_is_the_defining_modules_object(module, name):
    defined = getattr(sys.modules[f"homkit.{module}"], name)
    namespace = {}
    exec(f"from homkit import {name}", namespace)
    assert getattr(homkit, name) is defined
    assert namespace[name] is defined


def test_lazy_modules_are_package_attributes():
    assert homkit.plane_wave is sys.modules["homkit.plane_wave"]
    assert homkit.reduction is sys.modules["homkit.reduction"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        homkit.no_such_name
    assert not hasattr(homkit, "ansatz_from_json")
