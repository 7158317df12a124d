"""Static guard: every function the benchmark tracer patches still exists.

``perfbench/tracer.py`` wraps the functions named in its ``LAYERS``
table by name.  A deleted or renamed one would only show up as an
``AttributeError`` deep inside the traced benchmark self-check, so both
files are parsed here, not imported, and each listed name must be a
module-level ``def`` in ``src/homkit/<module>.py``, or be imported there
from a sibling module that defines it (the tracer looks names up with
``getattr`` and patches every module that binds the same function).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "homkit"


def traced_layers(source):
    """The literal ``LAYERS`` mapping of a tracer source file."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no module-level LAYERS assignment")


def module_defs(source, read_module):
    """Module-level defs, and names re-exported from a sibling module that defines them."""
    body = ast.parse(source).body
    defs = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            sibling = module_defs(read_module(node.module), read_module)
            defs |= {alias.name for alias in node.names if alias.name in sibling}
    return defs


def missing_names(layers, read_module):
    missing = []
    for module, names in layers.items():
        defs = module_defs(read_module(module), read_module)
        missing += [f"{module}.{name}" for name in names if name not in defs]
    return missing


def read_src(module):
    return (SRC / f"{module}.py").read_text(encoding="utf-8")


def test_every_traced_function_is_a_module_level_def():
    layers = traced_layers((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    assert layers
    assert missing_names(layers, read_src) == []


@pytest.mark.parametrize(
    "source",
    [
        "def kept():\n    pass\n",
        "class C:\n    def gone(self):\n        pass\n\ndef kept():\n    pass\n",
        "def kept():\n    def gone():\n        pass\n",
        "gone = None\n\ndef kept():\n    pass\n",
    ],
)
def test_guard_names_a_missing_helper(source):
    layers = traced_layers('LAYERS = {"m": ("kept", "gone")}\n')
    assert missing_names(layers, lambda module: source) == ["m.gone"]


def test_guard_follows_a_re_export_to_its_def():
    sources = {"m": "from .s import kept, gone\n", "s": "def kept():\n    pass\n"}
    layers = traced_layers('LAYERS = {"m": ("kept", "gone")}\n')
    assert missing_names(layers, sources.__getitem__) == ["m.gone"]
