"""Static guard: the exact core imports neither numpy nor the numpy-backed modules.

The core is the scalar, tensor, Lie algebra and structure layers, the
reductions, the wave bracket table and the wave's exact curvature.

The files are parsed, not imported, so the guard holds for every
import path in the source, not only the ones a given run happens to
execute (``tests/test_lazy_import.py`` checks the runtime side).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "homkit"
CORE = ("exact.py", "tensor_core.py", "lie_algebra.py", "hom_structure.py", "reduction.py",
        "wave_table.py", "wave_curvature.py")
FORBIDDEN = {"numpy", "_exact_array", "plane_wave", "reduction"}


def forbidden_imports(source):
    """Dotted names imported by ``source`` that name a forbidden module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names += [f"{base}.{alias.name}".lstrip(".") for alias in node.names]
    return [n for n in names if FORBIDDEN & set(n.split("."))]


@pytest.mark.parametrize("module", CORE)
def test_core_module_is_numpy_free(module):
    assert forbidden_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np",
        "from numpy.linalg import inv",
        "from ._exact_array import QArray",
        "from .plane_wave import PlaneWaveData",
        "from . import reduction",
        "def f():\n    import homkit.plane_wave",
    ],
)
def test_guard_sees_forbidden_import(source):
    assert forbidden_imports(source)


def test_guard_passes_core_imports():
    assert forbidden_imports("from .exact import row_reduce\nfrom .tensor_core import Tensor") == []
