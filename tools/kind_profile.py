"""Where the time goes: per-kind wall time and call counts of one workload.

Usage (from the repository root):

    python3 tools/kind_profile.py [--workload exact_proofs] [--rounds 3] [--seed 3]

Builds ``--rounds`` rounds of the benchmark's ``--workload`` checks
(exact_proofs or float_sweep) at ``--seed``, runs every check once
untimed to warm, then times each check kind over three passes and
prints the milliseconds per pass and each kind's share.  One more pass
runs under cProfile and the call counts in it are printed: for
exact_proofs, ``Fraction.__new__``, ``exact.integer_numerators``,
``tensor_core.Tensor._sparse`` (exact carriers built),
``reduction._freeze`` (array fields and report matrices frozen into
nested tuples), ``wave_curvature.SparseArray.__init__`` (the curvature
chain's exact arrays built) and ``wave_curvature._join`` (its pairwise
contractions);
for float_sweep, numpy's ``einsum_path`` (contraction planning),
``plane_wave._tensordot``, ``plane_wave._point_residuals`` (chart
points swept), ``Fraction.__float__`` and the numpy Python wrappers the
sweep used to run (``numpy.tensordot``, ``_methods._sum`` and ``_amax``,
``moveaxis`` and ``full``), followed by each of those per chart point.
Both then give every function call cProfile saw in the pass, Python and
built-in, the process's peak RSS (``ru_maxrss``) after the passes and
whether the workload's checks imported numpy, and list, one line per
module, the module-level functions of ``src/homkit`` that the pass never
called (that listing imports every module, numpy too, so it comes last).
perfbench/run.py and perfbench/workloads.py are imported as they are;
no file is written.
"""

from __future__ import annotations

import argparse
import cProfile
import glob
import importlib
import inspect
import os
import pstats
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PASSES = 3
# (file name ending, function name) of each counted call, per workload
COUNTED = {
    "exact_proofs": {
        "Fraction.__new__": ("fractions.py", "__new__"),
        "exact.integer_numerators": (os.path.join("homkit", "exact.py"), "integer_numerators"),
        "tensor_core.Tensor._sparse": (os.path.join("homkit", "tensor_core.py"), "_sparse"),
        "reduction._freeze": (os.path.join("homkit", "reduction.py"), "_freeze"),
        "wave_curvature.SparseArray.__init__": (os.path.join("homkit", "wave_curvature.py"), "__init__"),
        "wave_curvature._join": (os.path.join("homkit", "wave_curvature.py"), "_join"),
    },
    "float_sweep": {
        "numpy.einsum_path": ("einsumfunc.py", "einsum_path"),
        "plane_wave._tensordot": (os.path.join("homkit", "plane_wave.py"), "_tensordot"),
        "plane_wave._point_residuals": (os.path.join("homkit", "plane_wave.py"),
                                        "_point_residuals"),
        "numpy.tensordot": (os.path.join("_core", "numeric.py"), "tensordot"),
        "numpy._methods._sum": (os.path.join("_core", "_methods.py"), "_sum"),
        "numpy._methods._amax": (os.path.join("_core", "_methods.py"), "_amax"),
        "numpy.moveaxis": (os.path.join("_core", "numeric.py"), "moveaxis"),
        "numpy.full": (os.path.join("_core", "numeric.py"), "full"),
        "Fraction.__float__": ("numbers.py", "__float__"),
    },
}
# the float_sweep counts printed again per chart point swept
PER_POINT = ("plane_wave._tensordot", "numpy.tensordot", "numpy._methods._sum",
             "numpy._methods._amax", "numpy.moveaxis", "numpy.full")


def build(workload, rounds, seed):
    """The workload's checks of rounds 0 .. rounds - 1, on this checkout's sources."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import run
    import workloads

    hk = run.Lib()
    make_round = getattr(workloads, f"{workload}_round")
    return [check for r in range(rounds) for check in make_round(hk, seed, r)]


def kind_times(checks):
    """Seconds per kind, summed over PASSES passes, after one untimed warming pass."""
    for check in checks:
        check.report(check.run())
    totals = {}
    for _ in range(PASSES):
        for check in checks:
            start = time.perf_counter()
            check.run()
            totals[check.kind] = totals.get(check.kind, 0.0) + time.perf_counter() - start
    return totals


def call_counts(checks, counted):
    """({counted name: calls}, all function calls, cProfile's stats) over one profiled pass."""
    profile = cProfile.Profile()
    profile.enable()
    for check in checks:
        check.run()
    profile.disable()
    stats = pstats.Stats(profile)
    counts = dict.fromkeys(counted, 0)
    for (path, _, func), (_, calls, *_) in stats.stats.items():
        for name, (suffix, want) in counted.items():
            if func == want and path.endswith(suffix):
                counts[name] += calls
    return counts, stats.total_calls, stats.stats


def never_called(stats):
    """{module: sorted names} of the module-level homkit functions absent from cProfile's stats."""
    idle = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "homkit", "*.py"))):
        stem = os.path.basename(path)[:-3]
        module = importlib.import_module("homkit" if stem == "__init__" else f"homkit.{stem}")
        code = [f.__code__ for f in map(inspect.unwrap, vars(module).values())
                if inspect.isfunction(f) and f.__module__ == module.__name__]
        idle[stem] = sorted(c.co_name for c in code
                            if (c.co_filename, c.co_firstlineno, c.co_name) not in stats)
    return idle


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(COUNTED), default="exact_proofs")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    checks = build(args.workload, args.rounds, args.seed)
    totals = kind_times(checks)
    wall = sum(totals.values())
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds: {len(checks)} checks, "
          f"{wall / PASSES * 1e3:.1f} ms per pass")
    for kind, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:20s} {seconds / PASSES * 1e3:9.1f} ms {seconds / wall:7.1%}")
    counts, total, stats = call_counts(checks, COUNTED[args.workload])
    for name, calls in counts.items():
        print(f"  {name:36s} {calls:9d} calls per pass")
    print(f"  {'all function calls':36s} {total:9d} calls per pass")
    # ru_maxrss is in KiB on Linux
    print(f"  {'peak RSS':36s} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:9.1f} MB")
    print(f"  numpy imported by the checks: {'yes' if 'numpy' in sys.modules else 'no'}")
    for module, names in never_called(stats).items():
        print(f"  never called in {module}: {', '.join(names) or '-'}")
    if args.workload == "float_sweep":
        points = counts["plane_wave._point_residuals"]
        for name in PER_POINT:
            label = "tensordot" if name == "plane_wave._tensordot" else name
            print(f"  {label + ' per chart point':36s} {counts[name] / points:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
