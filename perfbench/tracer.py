"""Outside-in spans around homkit's public functions.

The tracer replaces each listed function in every ``homkit`` module
namespace that binds it.  The modules import one another with
``from .x import y``, so patching only the defining module would miss
calls such as ``reduction -> jacobi_residual``.  Spans are kept in
memory as (name, start, end, parent, request, raised) and written out
when the run ends; a span's self time is its duration minus the time
its child spans cover.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "exact": ("row_reduce", "mat_inverse", "mat_mul", "solve_in_span"),
    "tensor_core": ("contract", "antisymmetrize", "raise_lower"),
    "lie_algebra": ("jacobi_residual", "change_basis", "check_reductive", "worst_jacobi_triple"),
    "hom_structure": ("classify", "decompose", "build_isometry_algebra"),
    "reduction": (
        "generate_instance",
        "verify_constraints",
        "assemble_degenerate",
        "assemble_nondegenerate",
        "degenerate_reduce",
        "nondegenerate_reduce",
    ),
    "plane_wave": (
        "as_residuals",
        "metric_jet",
        "connection_jet",
        "exact_curvature",
        "pw_isometry_algebra",
        "frame_structure",
    ),
}

# Which end-to-end figure each layer should move, on which workload:
#   exact, lie_algebra, reduction  -> checks_per_s, check_ms_p90 on exact_proofs
#                                     (their tail is deg n = 4)
#   tensor_core, hom_structure     -> check_ms_p50 on exact_proofs
#   plane_wave.exact_curvature     -> check_ms_p90 on exact_proofs
#   plane_wave.as_residuals, connection_jet, metric_jet
#                                  -> checks_per_s on float_sweep
#   cli.* (run.per_layer)          -> check_ms_p50, checks_per_s on cli_batch;
#                                     only setup_s on the in-process workloads
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in LAYERS.items() for f in fns)


def _count_points(args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs.get("pts", ())
    return "plane_wave.as_residuals.points", len(pts)


def _count_brackets(args, kwargs):
    algebra = args[0] if args else kwargs["algebra"]
    return "lie_algebra.jacobi_residual.nonzero_brackets", sum(
        1 for v in algebra.f.components if v != 0
    )


# work counters measured from a call's inputs, before the span starts
COUNTERS = {
    "plane_wave.as_residuals": _count_points,
    "lie_algebra.jacobi_residual": _count_brackets,
}


class Tracer:
    """Records one span per call into a listed homkit function."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, request, raised]
        self.counters = {}
        self.request = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, amount = counter(args, kwargs)
                self.counters[key] = self.counters.get(key, 0) + amount
            span = [name, clock(), None, stack[-1] if stack else -1, self.request, False]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Patch every loaded homkit module that binds a listed function."""
        originals = {}
        for module_name, fns in LAYERS.items():
            module = sys.modules[f"homkit.{module_name}"]
            for fn_name in fns:
                original = getattr(module, fn_name)
                originals[id(original)] = self._wrap(f"{module_name}.{fn_name}", original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "homkit" or name.startswith("homkit.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and callable(value):
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def dump(self, path):
        """Write the spans (JSON lines) and counters for offline reading."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": self.counters}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path):
    """Spans and counters written by ``Tracer.dump``."""
    with open(path, encoding="utf-8") as fh:
        counters = json.loads(fh.readline())["counters"]
        spans = [json.loads(line) for line in fh]
    return spans, counters


class LayerTotals:
    """Calls, self time and raised counts summed over span sets."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.inclusive_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.raised = dict.fromkeys(LAYERS, 0)
        self.counters = {}

    def add(self, spans, counters):
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _, raised) in enumerate(spans):
            self.calls[name] += 1
            self.inclusive_s[name] += end - start
            self.self_s[name] += end - start - child_time[index]
            if raised:
                self.raised[name.split(".")[0]] += 1
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def metrics(self):
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1e3, "ms")
        for module in LAYERS:
            out[f"{module}.raised"] = (self.raised[module], "count")
        points = self.counters.get("plane_wave.as_residuals.points", 0)
        out["plane_wave.as_residuals.points"] = (points, "count")
        out["plane_wave.as_residuals.us_per_point"] = (
            self.inclusive_s["plane_wave.as_residuals"] * 1e6 / points if points else 0.0,
            "us",
        )
        out["lie_algebra.jacobi_residual.nonzero_brackets"] = (
            self.counters.get("lie_algebra.jacobi_residual.nonzero_brackets", 0),
            "count",
        )
        return out
