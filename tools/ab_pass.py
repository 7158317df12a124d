"""Alternated A/B timing of one workload pass on two source trees.

Usage (from the repository root):

    python3 tools/ab_pass.py PARENT_ROOT CHANGE_ROOT [--workload exact_proofs]
        [--pairs 6] [--rounds 3]

Each root is a checkout holding ``src/homkit`` and ``perfbench``.  A
pair runs one child process per tree, one after the other, the parent
first in odd pairs and the change first in even ones.  A child builds
``--rounds`` rounds of the benchmark's ``--workload`` checks (exact_proofs
or float_sweep) at seed 3 from its own tree, runs every check once
untimed to warm, then times 15 passes and reports the minimum
milliseconds per check kind and for the whole pass.  Each pair prints
those minima for both sides; the last line gives, per kind and in
total, the median over the pairs of change / parent.  One bench run
spreads too widely to resolve a 5-10% change; alternated children with
a minimum over many passes do.  No file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("exact_proofs", "float_sweep")
SEED, PASSES = 3, 15
# a child process: child(root, workload, rounds) as JSON on stdout
CHILD = ("import json, sys; sys.path.insert(0, sys.argv[1]); import ab_pass; "
         "print(json.dumps(ab_pass.child(sys.argv[2], sys.argv[3], int(sys.argv[4]))))")


def child(root, workload, rounds):
    """{kind: min ms per pass, "total": min ms of a whole pass} on root's sources."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "perfbench"), os.path.join(root, "src")]
    import run
    import workloads

    hk = run.Lib()
    make_round = getattr(workloads, f"{workload}_round")
    checks = [check for r in range(rounds) for check in make_round(hk, SEED, r)]
    for check in checks:
        check.report(check.run())
    best = {}
    for _ in range(PASSES):
        spent = {}
        for check in checks:
            start = time.perf_counter()
            check.run()
            spent[check.kind] = spent.get(check.kind, 0.0) + time.perf_counter() - start
        spent["total"] = sum(spent.values())
        for kind, seconds in spent.items():
            best[kind] = min(best.get(kind, seconds), seconds)
    return {kind: seconds * 1e3 for kind, seconds in best.items()}


def measure(root, args):
    cmd = [sys.executable, "-B", "-c", CHILD, os.path.dirname(os.path.abspath(__file__)), root,
           args.workload, str(args.rounds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: child on {root} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent tree")
    parser.add_argument("change", help="root of the changed tree")
    parser.add_argument("--workload", choices=WORKLOADS, default="exact_proofs")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    for name in ("pairs", "rounds"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    print(f"{args.workload} seed {SEED}, {args.rounds} rounds, min of {PASSES} passes per child, ms")
    ratios = {}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        got = {side: measure(roots[side], args) for side in order}
        kinds = ["total", *sorted(k for k in got["parent"] if k != "total")]
        for side in ("parent", "change"):
            cells = "  ".join(f"{k} {got[side][k]:.2f}" for k in kinds)
            print(f"pair {pair} {side}: {cells}")
        for k in kinds:
            ratios.setdefault(k, []).append(got["change"][k] / got["parent"][k])
    cells = "  ".join(f"{k} {statistics.median(v):.3f}" for k, v in ratios.items())
    print(f"median change/parent: {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
