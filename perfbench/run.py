"""homkit benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload {cli_batch,exact_proofs,float_sweep}
        --seed N --seconds S --trace {0,1}

Every workload runs one check at a time.  Rounds of freshly seeded
inputs repeat until ``--seconds`` have passed and at least
``MIN_CHECKS`` checks are done, always finishing the round, so each run
holds the same mix.  Every output is compared with the independent
reference in ``oracle.py`` and its digest with the digest recorded for
the same input (earlier in the run, or by an earlier run with the same
seed in this checkout).

With ``--trace 0`` the last line carries the end-to-end metrics, times
scaled to a reference CPU speed (see ``PROBE_REF_MS``); with
``--trace 1`` a fixed number of rounds runs untraced and then again
under ``tracer.Tracer``, and the last line carries the per-layer
metrics, unscaled.  Human-readable lines (with the unscaled end-to-end
times), the known-defect list and provenance come first.  The exit
code is 2 when the checkout has no ``src/homkit``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

WORKLOADS = ("cli_batch", "exact_proofs", "float_sweep")
MIN_CHECKS = 100  # at least 10 samples beyond p90
SETUP_REPEATS = 5
TRACE_ROUNDS = {"cli_batch": 2, "exact_proofs": 4, "float_sweep": 8}
CLI_FORMS = ("classify", "jacobi", "reductive", "planewave_verify", "planewave_algebra",
             "gen", "reduce")
# numpy's default BLAS pool busy-waits on the second core while numpy
# imports; on a 2-core machine that leaves every check exposed to the
# load on both cores, so each process keeps to one thread
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# End-to-end times are reported at a reference CPU speed.  The clock
# rate of a shared host drifts with its neighbours' load (on the 2-core
# host this was tuned on, a fixed loop took anywhere from 5.5 to 16 ms
# within minutes), which moves every timing of a run together.  A fixed
# loop timed between checks measures that drift, and each time is
# scaled by (PROBE_REF_MS / median loop time) ** PROBE_EXPONENT.  The
# checks speed up less than the tight loop does: over 30 runs there,
# their unscaled times followed the loop's to the power 0.7 to 0.8.
# homkit's own work is not in the loop, so a change to it moves the
# scaled figures in full.
PROBE_REF_MS = 10.0
PROBE_EXPONENT = 0.75
PROBE_EVERY_S = 0.25


class Lib:
    """homkit's public names, looked up at call time.

    Late binding lets the tracer's patched module attributes take
    effect for calls made from the benchmark itself.
    """

    def __init__(self):
        import homkit
        import homkit.lie_algebra
        import homkit.reduction

        self._modules = (homkit, homkit.reduction, homkit.lie_algebra)

    def __getattr__(self, name):
        for module in self._modules:
            if hasattr(module, name):
                return getattr(module, name)
        raise AttributeError(name)


def digest(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def quantile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def child_wall(cmd, env=None, repeats=3):
    """Median wall time of a short child process, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Ledger:
    """Outcome of every attempted check: latency, digest, oracle verdict."""

    def __init__(self, recorded):
        self.recorded = recorded  # check id -> digest from an earlier run
        self.digests = {}
        self.latencies = []
        self.by_kind = {}
        self.by_form = {}
        self.wait_s = []
        self.maxrss_kb = 0
        self.attempted = 0
        self.failures = []  # (check id, reason, known defect name or None)
        self.failed_by_kind = {}
        self.probes = []  # speed_probe() seconds, taken between checks

    def record(self, check, outcome, seconds, error):
        self.attempted += 1
        self.latencies.append(seconds)
        self.by_kind.setdefault(check.kind, []).append(seconds)
        if check.form is not None and check.kind != "malformed":
            self.by_form.setdefault(check.form, []).append(seconds)
        if hasattr(outcome, "maxrss_kb"):
            self.maxrss_kb = max(self.maxrss_kb, outcome.maxrss_kb)
            self.wait_s.append(outcome.wall_s - outcome.cpu_s)
        reason = error
        if reason is None:
            report = check.report(outcome)
            d = digest(report)
            known = self.digests.setdefault(check.id, self.recorded.get(check.id, d))
            if known != d:
                reason = "digest differs from the one recorded for this input"
            else:
                try:
                    reason = check.expect(report)
                except Exception as exc:  # a report the oracle cannot read is wrong
                    reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append((check.id, reason, check.known_defect))
            self.failed_by_kind[check.kind] = self.failed_by_kind.get(check.kind, 0) + 1
        return reason

    @property
    def unexpected(self):
        return [f for f in self.failures if f[2] is None]


def speed_probe():
    """Seconds for a fixed loop of integer and Fraction arithmetic."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 7, i % 11 + 1)
    x = 0
    for i in range(40000):
        x += i * i % 7
    return time.perf_counter() - start


def run_check(check):
    start = time.perf_counter()
    try:
        outcome, error = check.run(), None
    except Exception as exc:  # a check that raises is a failed check, not a crashed run
        outcome, error = None, f"raised {type(exc).__name__}: {exc}"
    return outcome, time.perf_counter() - start, error


def run_rounds(pool, ledger, seconds, min_checks, max_rounds=None, on_check=None):
    """Whole rounds until both limits are met; returns the round count."""
    start = last_probe = time.perf_counter()
    ledger.probes.append(speed_probe())
    r = 0
    while True:
        for check in pool[r % len(pool)]:
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                ledger.probes.append(speed_probe())
                last_probe = time.perf_counter()
            if on_check is not None:
                on_check(check)
            outcome, dt, error = run_check(check)
            ledger.record(check, outcome, dt, error)
        r += 1
        if max_rounds is not None:
            if r >= max_rounds:
                return r
        elif time.perf_counter() - start >= seconds and ledger.attempted >= min_checks:
            return r


def git_sha():
    """HEAD of the checkout, read from .git without leaving the directory."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:  # no git metadata, or a packed ref
        return None
    return head


def source_digest():
    """sha256 over src/homkit/*.py, for checkouts without git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "homkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def provenance(seed, floor, probes):
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "floor_python_s": floor["python"],
        "floor_numpy_s": floor["numpy"],
        "speed_probe_ms": statistics.median(probes) * 1e3,
        "speed_probe_ref_ms": PROBE_REF_MS,
        "speed_probe_exponent": PROBE_EXPONENT,
    }


def machine_floor(repeats, with_cli=False):
    """Median wall times of bare start-up, of importing numpy and homkit.cli."""
    floor = {
        "python": child_wall([sys.executable, "-c", "pass"], repeats=repeats),
        "numpy": child_wall([sys.executable, "-c", "import numpy"], repeats=repeats),
    }
    if with_cli:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
        floor["homkit_cli"] = child_wall([sys.executable, "-c", "import homkit.cli"], env, repeats)
    return floor


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup(workload, seed, n_rounds=None):
    """Build every round's inputs SETUP_REPEATS times.

    Returns the rounds, the unscaled setup_s, the speed probes taken
    around the builds, the warm-up checks and the CLI runner.

    For the in-process workloads set-up includes importing homkit,
    which a process pays once; for cli_batch it is writing the input
    files, since every invocation pays its own import.
    """
    import workloads

    import_s = 0.0
    n_rounds = n_rounds or workloads.MAX_ROUNDS[workload]
    if workload == "cli_batch":
        cli = workloads.CliRunner(ROOT, os.path.join(WORK, "cli"))
        build = lambda: [workloads.cli_batch_round(cli, seed, r)  # noqa: E731
                         for r in range(n_rounds)]
    else:
        start = time.perf_counter()
        hk = Lib()
        import_s = time.perf_counter() - start
        loaded = os.path.dirname(os.path.abspath(sys.modules["homkit"].__file__))
        if loaded != os.path.join(ROOT, "src", "homkit"):
            raise SystemExit(f"error: homkit imported from {loaded}, not from this checkout")
        make = {"exact_proofs": workloads.exact_proofs_round,
                "float_sweep": workloads.float_sweep_round}[workload]
        build = lambda: [make(hk, seed, r) for r in range(n_rounds)]  # noqa: E731
        cli = None
    times, probes = [], [speed_probe()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pool = build()
        times.append(time.perf_counter() - start)
        probes.append(speed_probe())
    warm = None
    if cli is None:
        # one untimed check of every kind, on inputs the timed rounds never see
        seen = {}
        for check in make(hk, seed, -1):
            seen.setdefault(check.kind, check)
        warm = list(seen.values())
    return pool, import_s + statistics.median(times), probes, warm, cli


def warm_up(warm, cli):
    if cli is not None:
        cli(["--help"])  # warms the file cache only; every timed call pays start-up
        return
    for check in warm:
        check.report(check.run())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def speed_scale(probes):
    """Factor that takes times measured among these probes to the reference speed."""
    return (PROBE_REF_MS / (statistics.median(probes) * 1e3)) ** PROBE_EXPONENT


def end_to_end(workload, ledger, setup_s, scale, setup_scale):
    lat = ledger.latencies
    if workload == "cli_batch":
        peak = ledger.maxrss_kb / 1024
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "checks_per_s": (len(lat) / (sum(lat) * scale), "1/s"),
        "check_ms_p50": (quantile(lat, 0.5) * 1e3 * scale, "ms"),
        "check_ms_p90": (quantile(lat, 0.9) * 1e3 * scale, "ms"),
        "setup_s": (setup_s * setup_scale, "s"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": (1 - len(ledger.failures) / ledger.attempted, "frac"),
    }


def per_layer(plain, traced, totals, floor):
    out = totals.metrics()
    out["cli.interpreter_ms"] = (floor["python"] * 1e3, "ms")
    out["cli.import_ms"] = ((floor["homkit_cli"] - floor["python"]) * 1e3, "ms")
    for form in CLI_FORMS:
        samples = plain.by_form.get(form)
        out[f"cli.{form}.ms_p50"] = (statistics.median(samples) * 1e3 if samples else 0.0, "ms")
    out["cli.wait_ms"] = (statistics.median(plain.wait_s) * 1e3 if plain.wait_s else 0.0, "ms")
    reductions = ("gen_reduce", "roundtrip", "reduce")
    attempts = sum(len(traced.by_kind.get(k, ())) for k in reductions)
    failed = sum(traced.failed_by_kind.get(k, 0) for k in reductions)
    out["reduction.verdict_match_ratio"] = ((attempts - failed) / attempts if attempts else 0.0,
                                            "ratio")
    plain_s, traced_s = sum(plain.latencies), sum(traced.latencies)
    out["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "frac")
    return out


def load_recorded(path):
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    return {}


def save_recorded(path, recorded, ledger):
    merged = dict(recorded)
    merged.update(ledger.digests)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, sort_keys=True)
    os.replace(tmp, path)


def run(workload, seed, seconds, trace, min_checks=MIN_CHECKS, rounds=None):
    """Run one workload; returns ({rounds, provenance}, ledger, metrics)."""
    pool, setup_s, setup_probes, warm, cli = setup(workload, seed, rounds)
    warm_up(warm, cli)
    # the inputs of every round stay alive for the whole run; keep the
    # cyclic collector from re-scanning them inside timed checks
    gc.collect()
    gc.freeze()
    record_path = os.path.join(WORK, "digests", f"{workload}-seed{seed}.json")
    recorded = load_recorded(record_path)
    ledger = Ledger(recorded)
    summary = {}
    if not trace:
        summary["rounds"] = run_rounds(pool, ledger, seconds, min_checks, rounds)
        floor = machine_floor(repeats=3)
        summary["scale"] = speed_scale(ledger.probes)
        summary["raw"] = end_to_end(workload, ledger, setup_s, 1.0, 1.0)
        metrics = end_to_end(workload, ledger, setup_s, summary["scale"],
                             speed_scale(setup_probes))
    else:
        import tracer as tracing

        n_rounds = rounds or TRACE_ROUNDS[workload]
        run_rounds(pool, ledger, 0, 0, n_rounds)
        traced = Ledger(ledger.digests)
        totals = tracing.LayerTotals()
        spans_dir = os.path.join(WORK, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        if cli is not None:
            cli.trace_dir = os.path.join(spans_dir, f"cli_batch-seed{seed}")
            os.makedirs(cli.trace_dir, exist_ok=True)
            run_rounds(pool, traced, 0, 0, n_rounds)
            for path in cli.trace_files:
                totals.add(*tracing.load(path))
        else:
            tr = tracing.Tracer()
            tr.install()
            try:
                run_rounds(pool, traced, 0, 0, n_rounds,
                           on_check=lambda c: setattr(tr, "request", c.id))
            finally:
                tr.uninstall()
            path = os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")
            tr.dump(path)
            totals.add(tr.spans, tr.counters)
        summary["rounds"] = n_rounds
        floor = machine_floor(repeats=5, with_cli=True)
        metrics = per_layer(ledger, traced, totals, floor)
        # the traced pass must reproduce every untraced digest
        ledger.failures += traced.failures
        ledger.attempted += traced.attempted
    gc.unfreeze()
    save_recorded(record_path, recorded, ledger)
    summary["provenance"] = provenance(seed, floor, ledger.probes)
    return summary, ledger, metrics


def prepare():
    """Work from the checkout root, on its sources, one BLAS thread per process."""
    os.environ.update(ONE_THREAD)
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(WORK, "digests"), exist_ok=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "homkit", "__init__.py")):
        print(f"error: no homkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    prepare()
    summary, ledger, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))

    p90 = quantile(ledger.latencies, 0.9)
    beyond = sum(1 for x in ledger.latencies if x > p90)
    print(f"{args.workload} seed {args.seed}: {ledger.attempted} checks ({beyond} beyond p90), "
          f"{summary['rounds']} rounds, trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    known = sorted({f[2] for f in ledger.failures if f[2]})
    print(f"  {'failed_frac':48s} {len(ledger.failures) / ledger.attempted:14.6g} frac"
          f"  (known defects: {', '.join(known) or 'none'})")
    for cid, reason, defect in ledger.unexpected[:20]:
        print(f"  UNEXPECTED FAILURE {cid}: {reason}")
    if not args.trace:
        print(f"  unscaled (speed scale {summary['scale']:.4f}):",
              ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in summary["raw"].items()
                        if k in ("checks_per_s", "check_ms_p50", "check_ms_p90", "setup_s")))
        total = sum(ledger.latencies)
        for kind, samples in sorted(ledger.by_kind.items()):
            print(f"  kind {kind:24s} n={len(samples):5d} p50={statistics.median(samples) * 1e3:10.3f} ms"
                  f"  share={sum(samples) / total:6.1%}")
    print("provenance:", json.dumps(summary["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
