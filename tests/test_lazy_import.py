"""``import homkit`` runs no submodule; each command runs only the modules it reads.

All eight submodules are registered for lazy loading: they are in
``sys.modules`` as soon as the package is imported, the package serves
their public names on attribute access, and each runs only when one of
its names is read.  So each command, run as a fresh child process,
runs only the modules it reads; every command but ``planewave verify``
runs without numpy, and no command imports ``dataclasses`` or (but
through numpy) ``inspect``.  A static check keeps ``dataclasses`` out of
the package.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homkit
from homkit.lie_algebra import LieAlgebra

LAZY_MODULES = ("exact", "tensor_core", "lie_algebra", "hom_structure", "wave_table", "wave_curvature",
                "reduction", "plane_wave")
PUBLIC_NAMES = {
    "exact": ("EXACT", "FLOAT"),
    "tensor_core": ("FrameMetric", "Tensor", "antisymmetrize", "contract", "raise_lower"),
    "lie_algebra": ("LieAlgebra", "ReductiveSplit", "change_basis", "check_reductive", "jacobi_residual"),
    "hom_structure": (
        "CurvatureAtPoint",
        "HomogeneousStructure",
        "SpanError",
        "StructureClass",
        "build_isometry_algebra",
        "classify",
        "decompose",
        "trace_one_form",
    ),
    "wave_table": ("PlaneWaveData", "pw_isometry_algebra"),
    "wave_curvature": ("exact_curvature", "frame_structure"),
    "plane_wave": (
        "ChartPoint",
        "as_residuals",
        "christoffel",
        "metric_jet",
        "riemann",
        "sample_points",
        "structure_at",
    ),
    "reduction": (
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
    ),
}

# Runs one command through homkit.cli.main in a fresh child process and
# records, after importing the package, after importing homkit.cli and
# after the command, which homkit library modules have run and which of
# numpy, dataclasses and inspect are imported.  A registered module keeps
# the type _LazyModule until it runs, and type() does not make it run.
CHILD = r"""
import contextlib, importlib.util, io, json, sys

def state():
    ran = [name[len("homkit."):] for name, module in list(sys.modules.items())
           if name.startswith("homkit.") and type(module) is not importlib.util._LazyModule]
    return {"ran": sorted(set(ran) - {"cli"}),
            "imported": [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]}

steps = {}
import homkit
steps["import homkit"] = state()
import homkit.cli
steps["import homkit.cli"] = state()
registered = [f"homkit.{name}" in sys.modules for name in json.loads(sys.argv[2])]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = homkit.cli.main(json.loads(sys.argv[1]))
steps["command"] = state()
print(json.dumps({"steps": steps, "code": code, "registered": registered}))
"""

CORE = {"exact", "tensor_core"}
TABLE = CORE | {"lie_algebra"}
# gen and a reduce refused before assembly build no table
ANSATZ = CORE | {"wave_table", "reduction"}
REDUCE = TABLE | ANSATZ
# the library modules each command runs
LOADS = {
    "classify": CORE | {"hom_structure"},
    "jacobi": TABLE,
    "jacobi fails": TABLE,
    "reductive": TABLE,
    "reductive fails": TABLE,
    "classify missing S": CORE | {"hom_structure"},
    "jacobi truncated JSON": set(),
    # --n is checked against the tensor cap before a matrix is read
    "planewave non-square F": CORE,
    "gen deg": ANSATZ,
    "gen nondeg": ANSATZ,
    "reduce deg": REDUCE,
    "reduce nondeg": REDUCE,
    "reduce inconsistent": REDUCE,
    "reduce bad entry": ANSATZ,
    "planewave algebra": TABLE | {"wave_table"},
    # the float sweep builds no structure and no table; it runs the chain wave_curvature holds
    "planewave verify": CORE | {"wave_table", "plane_wave", "wave_curvature"},
}
SO3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}
NOT_LIE = {(0, 1): {2: 1}, (0, 2): {0: 1}}


@pytest.fixture(scope="module")
def children(tmp_path_factory):
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
        ("planewave verify",
         ["planewave", "--n", "2", "--F", rotation, "--H", square, "verify", "--points", "1"]),
    ]
    src = str(Path(homkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = {}
    for label, argv in runs:  # in order: reduce reads the files gen writes
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(argv), json.dumps(LAZY_MODULES)],
            capture_output=True, text=True, env=env, check=True,
        )
        out[label] = json.loads(proc.stdout)
    return out


def test_import_runs_no_submodule(children):
    for result in children.values():
        assert result["steps"]["import homkit"] == {"ran": [], "imported": []}
        assert result["steps"]["import homkit.cli"] == {"ran": [], "imported": []}


def test_each_command_runs_only_its_modules(children):
    assert {label: set(r["steps"]["command"]["ran"]) for label, r in children.items()} == LOADS


def test_a_json_decode_error_runs_no_library_module(children):
    assert children["jacobi truncated JSON"]["steps"]["command"]["ran"] == []


def test_exact_commands_and_malformed_inputs_skip_numpy(children):
    imported = {label: r["steps"]["command"]["imported"] for label, r in children.items()}
    # numpy loads inspect, so the verify child shows the probe sees both
    assert imported.pop("planewave verify") == ["numpy", "inspect"]
    assert {label: names for label, names in imported.items() if names} == {}


def test_exit_codes(children):
    assert {label: r["code"] for label, r in children.items()} == {
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
        "planewave verify": 0,
    }


def test_lazy_modules_are_registered_on_import(children):
    for result in children.values():
        assert result["registered"] == [True] * len(LAZY_MODULES)


def test_every_public_name_is_served():
    assert {name: module.__name__ for name, module in homkit._LAZY_NAMES.items()} == {
        name: f"homkit.{module}" for module, names in PUBLIC_NAMES.items() for name in names
    }


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, names in PUBLIC_NAMES.items() for n in names]
    # plane_wave serves the wave table's names and the exact curvature's too
    + [("plane_wave", "PlaneWaveData"), ("plane_wave", "pw_isometry_algebra"),
       ("plane_wave", "exact_curvature"), ("plane_wave", "frame_structure")],
)
def test_lazy_name_is_the_defining_modules_object(module, name):
    defined = getattr(sys.modules[f"homkit.{module}"], name)
    namespace = {}
    exec(f"from homkit import {name}", namespace)
    assert getattr(homkit, name) is defined
    assert namespace[name] is defined


def test_lazy_modules_are_package_attributes():
    for module in LAZY_MODULES:
        assert getattr(homkit, module) is sys.modules[f"homkit.{module}"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        homkit.no_such_name
    assert not hasattr(homkit, "ansatz_from_json")


def test_no_module_imports_dataclasses():
    imports = {}
    for path in sorted(Path(homkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports.setdefault(path.name, set()).update(n.split(".")[0] for n in names)
    assert "tensor_core.py" in imports
    assert {name: sorted(mods) for name, mods in imports.items() if "dataclasses" in mods} == {}


# Rebuilds an n = 2 wave's isometry algebra from its structure and exact
# curvature, as the closeloop check does, in a fresh child process, and
# prints which homkit modules ran and whether numpy was imported.
CLOSELOOP = r"""
import importlib.util, json, sys
from fractions import Fraction
import homkit

pw = homkit.PlaneWaveData(2, ((0, Fraction(1, 2)), (Fraction(-1, 2), 0)), ((1, 0), (0, Fraction(-1, 2))))
hs = homkit.frame_structure(pw)
curv = homkit.exact_curvature(pw, Fraction(1, 3), (Fraction(1, 2), Fraction(-2)))
algebra, residual = homkit.build_isometry_algebra(hs, curv, ["P+", "P-", "P1", "P2"], ["B1", "B2"])
ran = [name[len("homkit."):] for name, module in list(sys.modules.items())
       if name.startswith("homkit.") and type(module) is not importlib.util._LazyModule]
print(json.dumps({"ran": sorted(ran), "numpy": "numpy" in sys.modules, "residual": str(residual),
                  "dim": algebra.dim}))
"""


def test_the_exact_curvature_route_never_imports_numpy():
    src = str(Path(homkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CLOSELOOP], capture_output=True, text=True, env=env,
                          check=True)
    out = json.loads(proc.stdout)
    # the wave data is read from wave_table; plane_wave and numpy never load
    assert out == {"ran": ["exact", "hom_structure", "lie_algebra", "tensor_core", "wave_curvature", "wave_table"],
                   "numpy": False, "residual": "0", "dim": 6}
