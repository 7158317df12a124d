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
inputs as one more row).  Next to each command form it prints what
compiling its homkit source costs: each check is run once more in a
probe child that lists the homkit modules the command ran, and the
``compile()`` ms of those modules' files (median of five compiles each,
in this process) are summed; the row shows the median sum over its
checks and every module one of them ran.  A child that runs without
cached bytecode, as the benchmark's do under PYTHONDONTWRITEBYTECODE,
pays about this much.  perfbench/run.py and perfbench/workloads.py are
imported as they are; nothing is written under perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# numpy: only planewave verify pays it; dataclasses: no command does
FLOORS = {"python -c pass": "pass", "import homkit.cli": "import homkit.cli",
          "import numpy": "import numpy", "import dataclasses": "import dataclasses"}
# Runs one command through homkit.cli.main and prints the homkit modules
# that ran, also when the command crashes (some malformed inputs still
# do); a registered module keeps the type _LazyModule until it runs.
PROBE = r"""
import contextlib, importlib.util, io, json, sys
import homkit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        homkit.cli.main(json.loads(sys.argv[1]))
    except Exception:
        pass
print(json.dumps(sorted(name for name, module in list(sys.modules.items())
                        if name.split(".")[0] == "homkit" and type(module) is not importlib.util._LazyModule)))
"""


def load():
    """perfbench's run and workloads modules, on this checkout's sources."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    import run
    import workloads

    return run, workloads


def row(check):
    return "malformed" if check.kind == "malformed" else check.form


def compile_ms(module):
    """Median ms of five compile() calls on a homkit module's source file."""
    name = module.removeprefix("homkit").lstrip(".") or "__init__"
    path = os.path.join(ROOT, "src", "homkit", name + ".py")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        compile(source, path, "exec")
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def profile(run, workloads, seed, repeats, forms):
    """({row: [seconds]} over repeats passes of the floors and the round's checks in forms,
    {row: [(compile ms, modules)]} with one entry per check of the row)."""
    os.environ.update(run.ONE_THREAD)

    class Recorder(workloads.CliRunner):
        """A CliRunner that keeps the argv of its last call."""

        def __call__(self, argv, out_file=None):
            self.argv = argv
            return super().__call__(argv, out_file)

    times, compiled, cost = {}, {}, {}
    with tempfile.TemporaryDirectory() as work:
        cli = Recorder(ROOT, work)
        checks = workloads.cli_batch_round(cli, seed, 0)
        if "reduce" in forms and "gen" not in forms:
            for check in checks:  # reduce reads the files gen writes
                if row(check) == "gen":
                    check.run()
        checks = [check for check in checks if row(check) in forms]
        argvs = []
        for i in range(repeats):
            for name, code in FLOORS.items():
                wall = run.child_wall([sys.executable, "-c", code], cli.env, repeats=1)
                times.setdefault(name, []).append(wall)
            for check in checks:
                times.setdefault(row(check), []).append(check.run().wall_s)
                if not i:
                    argvs.append(cli.argv)
        for check, argv in zip(checks, argvs):  # in round order again: reduce reads gen's files
            out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], cwd=ROOT, env=cli.env,
                                 capture_output=True, text=True, check=True).stdout
            modules = json.loads(out)
            for module in modules:
                if module not in cost:
                    cost[module] = compile_ms(module)
            compiled.setdefault(row(check), []).append((sum(cost[m] for m in modules), modules))
    return times, compiled


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
    times, compiled = profile(run, workloads, args.seed, args.repeats, forms)
    print(f"cli_batch seed {args.seed}, {args.repeats} repeats: median wall ms per child process; "
          "compile() ms of the homkit modules each command runs")
    for name in (*FLOORS, *(form for form in known if form in times)):
        samples = times[name]
        line = f"  {name:20s} {statistics.median(samples) * 1e3:9.1f} ms  n={len(samples)}"
        if name in compiled:
            ms = statistics.median(total for total, _ in compiled[name])
            modules = " ".join(sorted({m.removeprefix("homkit.") for _, ms in compiled[name] for m in ms}))
            line += f"  compile {ms:5.1f} ms  {modules}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
