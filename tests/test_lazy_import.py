"""``homkit.plane_wave``, ``homkit.reduction`` and ``homkit.wave_table`` load on first use.

Every command but ``planewave verify`` runs without importing numpy:
the exact commands (``classify``, ``jacobi``, ``reductive``), ``gen``,
``reduce`` (passing, inconsistent or malformed), ``planewave algebra``
and every malformed-input exit.  The lazily loaded modules are still in
``sys.modules`` as soon as the package is imported, and the package
serves their public names on attribute access.
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
# step reads a lazily served numpy-backed name, so the probe is seen to
# detect numpy.
CHILD = r"""
import contextlib, io, json, sys

steps, codes = {}, {}
import homkit
steps["import homkit"] = "numpy" in sys.modules
import homkit.cli
steps["import homkit.cli"] = "numpy" in sys.modules
registered = [m in sys.modules for m in ("homkit.plane_wave", "homkit.reduction", "homkit.wave_table")]
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes[label] = homkit.cli.main(argv)
    steps[label] = "numpy" in sys.modules
homkit.as_residuals
steps["homkit.as_residuals"] = "numpy" in sys.modules
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
    rotation = write("rotation.json", [["0", "1/2"], ["-1/2", "0"]])
    deg, nondeg = str(tmp / "deg.json"), str(tmp / "nondeg.json")
    broken = homkit.generate_instance("deg", 2, 0).to_json()
    broken["W"] = ["1", "0"]
    broken = write("broken.json", broken)
    bad_entry = write("bad_entry.json", dict(homkit.generate_instance("deg", 2, 0).to_json(), W=["x", "0"]))
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
        ("gen deg", ["gen", "--case", "deg", "--n", "3", "--seed", "4", "--out", deg]),
        ("gen nondeg", ["gen", "--case", "nondeg", "--n", "3", "--seed", "4", "--out", nondeg]),
        ("reduce deg", ["reduce", deg, "--case", "deg"]),
        ("reduce nondeg", ["reduce", nondeg, "--case", "nondeg"]),
        ("reduce inconsistent", ["reduce", broken, "--case", "deg"]),
        ("reduce bad entry", ["reduce", bad_entry, "--case", "deg"]),
        ("planewave algebra",
         ["planewave", "--n", "2", "--F", rotation, "--H", square, "algebra"]),
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
    assert steps.pop("homkit.as_residuals") is True
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
        "gen deg": 0,
        "gen nondeg": 0,
        "reduce deg": 0,
        "reduce nondeg": 0,
        "reduce inconsistent": 1,
        "reduce bad entry": 2,
        "planewave algebra": 0,
    }


def test_lazy_modules_are_registered_on_import(child):
    assert child["registered"] == [True, True, True]


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
    assert homkit.wave_table is sys.modules["homkit.wave_table"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        homkit.no_such_name
    assert not hasattr(homkit, "ansatz_from_json")
