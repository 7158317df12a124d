"""Where a CLI check's time goes: the wall time of each command form as a child process.

Usage (from the repository root):

    python3 tools/cli_profile.py [--seed 0] [--repeats 5] [--forms classify,gen,reduce]

Writes one cli_batch round of the benchmark at ``--seed`` into a
temporary directory and runs its checks ``--repeats`` times, each time
in round order, every command a fresh ``python -m homkit.cli`` child with
the benchmark's environment.  Each pass also times four floors: bare
start-up (``python -c pass``), ``import homkit.cli``, ``import numpy``
and ``import dataclasses``.  The last two show start-up the CLI avoids:
numpy loads only in ``planewave verify``, and ``dataclasses`` (with the
``inspect``, ``ast``, ``dis`` and ``tokenize`` it loads) in no command.
Prints the median wall time of every floor and command form (malformed
inputs as one more row).  perfbench/run.py and perfbench/workloads.py
are imported as they are; nothing is written under perfbench/.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# numpy: only planewave verify pays it; dataclasses: no command does
FLOORS = {"python -c pass": "pass", "import homkit.cli": "import homkit.cli",
          "import numpy": "import numpy", "import dataclasses": "import dataclasses"}


def load():
    """perfbench's run and workloads modules, on this checkout's sources."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import run
    import workloads

    return run, workloads


def row(check):
    return "malformed" if check.kind == "malformed" else check.form


def profile(run, workloads, seed, repeats, forms):
    """{row: [seconds]} over repeats passes of the floors and the round's checks in forms."""
    os.environ.update(run.ONE_THREAD)
    times = {}
    with tempfile.TemporaryDirectory() as work:
        cli = workloads.CliRunner(ROOT, work)
        checks = workloads.cli_batch_round(cli, seed, 0)
        if "reduce" in forms and "gen" not in forms:
            for check in checks:  # reduce reads the files gen writes
                if row(check) == "gen":
                    check.run()
        checks = [check for check in checks if row(check) in forms]
        for _ in range(repeats):
            for name, code in FLOORS.items():
                wall = run.child_wall([sys.executable, "-c", code], cli.env, repeats=1)
                times.setdefault(name, []).append(wall)
            for check in checks:
                times.setdefault(row(check), []).append(check.run().wall_s)
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--forms", help="comma-separated command forms (default: all)")
    args = parser.parse_args(argv)
    run, workloads = load()
    known = (*run.CLI_FORMS, "malformed")
    forms = args.forms.split(",") if args.forms else list(known)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if set(forms) - set(known):
        parser.error(f"unknown forms {sorted(set(forms) - set(known))}; choose from {', '.join(known)}")
    times = profile(run, workloads, args.seed, args.repeats, forms)
    print(f"cli_batch seed {args.seed}, {args.repeats} repeats: median wall ms per child process")
    for name in (*FLOORS, *(form for form in known if form in times)):
        samples = times[name]
        print(f"  {name:20s} {statistics.median(samples) * 1e3:9.1f} ms  n={len(samples)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
