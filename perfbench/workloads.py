"""The three workloads: seeded inputs, the timed call, the oracle.

Each workload is a list of rounds and each round a fixed mix of
checks.  Round ``r`` draws its inputs from ``(workload, seed, r)``, so
consecutive rounds see fresh inputs of the same sizes and a run's cost
does not hinge on one unlucky instance.  A check has three parts:
``run`` is the only part that is timed; ``report`` turns its result
into JSON whose digest guards byte stability; ``expect`` compares that
report with the independent reference in ``oracle``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

# rounds of inputs built in set-up; a run that outlasts them cycles,
# and a repeated input must reproduce its recorded digest
MAX_ROUNDS = {"cli_batch": 8, "exact_proofs": 10, "float_sweep": 32}

# malformed CLI inputs that exit 1 with a traceback instead of exit 2 at
# the commit that introduced the benchmark; they stay in the mix
KNOWN_DEFECTS = ("reduce_json_list", "classify_entries_list", "jacobi_json_list")


@dataclass
class Check:
    id: str
    kind: str
    run: Callable[[], object]
    report: Callable[[object], object]
    expect: Callable[[object], str | None]
    known_defect: str | None = None
    form: str | None = None  # CLI command form, for per-command latency


def _rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


def _mismatch(what, got, want):
    return f"{what}: got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# exact_proofs
# ---------------------------------------------------------------------------


def _wave(hk, rng, n):
    f, h = oracle.random_wave(rng, n)
    return hk.PlaneWaveData(n, f, h), f, h


def _expect_wave_table(algebra_json, f, h):
    n = len(f)
    want = oracle.labelled(oracle.wave_brackets(f, h), oracle.wave_labels(n))
    if algebra_json["labels"] != oracle.wave_labels(n):
        return _mismatch("labels", algebra_json["labels"], oracle.wave_labels(n))
    if oracle.brackets_from_json(algebra_json) != want:
        return "bracket table differs from the documented wave table"
    return None


def _gen_reduce(hk, case, n, inst_seed, cid):
    verdict = "plane_wave" if case == "deg" else "symmetric_space"

    def run():
        ansatz = hk.generate_instance(case, n, inst_seed)
        return ansatz, hk.reduce_ansatz(ansatz)

    def report(out):
        return {"ansatz": out[0].to_json(), "report": out[1].to_json()}

    def expect(rep):
        got = rep["report"]
        if got["verdict"] != verdict:
            return _mismatch("verdict", got["verdict"], verdict)
        bad = {k: v for k, v in got["residuals"].items() if Fraction(v) != 0}
        if bad:
            return f"nonzero constraint residuals {sorted(bad)}"
        if rep["ansatz"]["n"] != n or rep["ansatz"]["case"] != case:
            return "generated ansatz has the wrong case or size"
        return None

    return Check(cid, "gen_reduce", run, report, expect)


def _roundtrip(hk, rng, n, cid):
    pw, f, h = _wave(hk, rng, n)

    def run():
        return hk.degenerate_reduce(hk.ansatz_from_plane_wave(pw))

    def report(out):
        return out.to_json()

    def expect(rep):
        if rep["verdict"] != "plane_wave":
            return _mismatch("verdict", rep["verdict"], "plane_wave")
        got = rep["plane_wave"]
        if got["F"] != oracle.fmt_matrix(f) or got["H"] != oracle.fmt_matrix(h):
            return "round trip did not return (F, H) exactly"
        return None

    return Check(cid, "roundtrip", run, report, expect)


def _jacobi_wave(hk, rng, n, cid):
    pw, f, h = _wave(hk, rng, n)

    def run():
        algebra = hk.pw_isometry_algebra(pw)
        return algebra, hk.jacobi_residual(algebra)[1]

    def report(out):
        return {"algebra": out[0].to_json(), "max_abs_residual": str(out[1])}

    def expect(rep):
        if rep["max_abs_residual"] != "0":
            return _mismatch("Jacobi residual", rep["max_abs_residual"], "0")
        return _expect_wave_table(rep["algebra"], f, h)

    return Check(cid, "jacobi_wave", run, report, expect)


def _jacobi_perturbed(hk, rng, n, cid):
    """A wave table with one constant off by 1/1000 plus a large-denominator term."""
    f, h = oracle.random_wave(rng, n)
    brackets = oracle.wave_brackets(f, h)
    row = dict(brackets[(0, 2)])
    row[2] = row.get(2, 0) + Fraction(1, 1000) + Fraction(rng.randint(1, 999_999), 1_000_000_007)
    brackets[(0, 2)] = row
    brackets = oracle.prune(brackets)
    labels = oracle.wave_labels(n)
    algebra = hk.LieAlgebra.from_brackets(2 * n + 2, brackets, labels=labels)

    def run():
        worst = hk.jacobi_residual(algebra)[1]
        return worst, hk.worst_jacobi_triple(algebra) if worst != 0 else None

    def report(out):
        return {"max_abs_residual": str(out[0]), "failing_identity": out[1] and list(out[1])}

    def expect(rep):
        worst, triples = oracle.jacobi_expectation(2 * n + 2, brackets, labels)
        if Fraction(rep["max_abs_residual"]) != worst:
            return _mismatch("Jacobi residual", rep["max_abs_residual"], str(worst))
        if rep["failing_identity"] is None or frozenset(rep["failing_identity"]) not in triples:
            return f"failing identity {rep['failing_identity']} does not reach the maximum"
        return None

    return Check(cid, "jacobi_perturbed", run, report, expect)


# subsets of {T1, T2, T3} cycled over the classification checks
CLASS_MIXES = ((1,), (2,), (3,), (1, 3), (2, 3), (1, 2, 3))


def _classify(hk, rng, dim, lorentzian, parts, cid):
    if lorentzian:
        g, metric = oracle.light_cone_metric(dim - 2), hk.FrameMetric.light_cone(dim - 2)
    else:
        g, metric = oracle.euclidean_metric(dim), hk.FrameMetric.euclidean(dim)
    s = oracle.random_torsion(rng, g, g, dim, parts)  # both metrics are their own inverse
    hs = hk.HomogeneousStructure(metric, hk.Tensor.from_entries(dim, ("d", "d", "d"), s))

    def run():
        return hk.classify(hs), hk.decompose(hs)

    def report(out):
        return {"class": out[0].to_json(), "parts": [p.to_json() for p in out[1]]}

    def expect(rep):
        label, degeneracy, norm = oracle.classification(g, g, s, dim)
        got = rep["class"]
        want = {"class": label, "degeneracy": degeneracy, "xi_norm": str(norm)}
        if got != want:
            return _mismatch("class", got, want)
        parts_ref, _ = oracle.split(g, g, s, dim)
        if [oracle.tensor_entries(p) for p in rep["parts"]] != list(parts_ref):
            return "decomposition differs from the reference T1/T2/T3 split"
        return None

    return Check(cid, "classify", run, report, expect)


def _reductive(hk, rng, n, reductive, cid):
    """Wave algebra split as m = (U, V, X), h = Xb, or the reverse of X and Xb."""
    f, h = oracle.random_wave(rng, n)
    brackets = oracle.wave_brackets(f, h)
    algebra = hk.LieAlgebra.from_brackets(2 * n + 2, brackets, labels=oracle.wave_labels(n))
    xs, xbs = tuple(range(2, 2 + n)), tuple(range(2 + n, 2 + 2 * n))
    m, hh = ((0, 1) + xs, xbs) if reductive else ((0, 1) + xbs, xs)
    split = hk.ReductiveSplit(m, hh)
    want_dim = oracle.rank(oracle.boost_block(f, h)) if reductive else n

    def run():
        return hk.check_reductive(algebra, split)

    def report(out):
        return {
            "reductive": out.is_reductive,
            "hh_violations": [list(v[:2]) for v in out.hh_violations],
            "hm_violations": [list(v[:2]) for v in out.hm_violations],
            "h_prime": [[str(x) for x in row] for row in out.h_prime],
        }

    def expect(rep):
        if rep["reductive"] is not reductive:
            return _mismatch("reductive", rep["reductive"], reductive)
        if len(rep["h_prime"]) != want_dim:
            return _mismatch("dim h'", len(rep["h_prime"]), want_dim)
        return None

    return Check(cid, "reductive", run, report, expect)


def _closeloop(hk, rng, n, cid):
    """Structure + exact curvature at z = 0 rebuild the wave table."""
    pw, f, h = _wave(hk, rng, n)
    s = Fraction(rng.randint(-4, 4), 3)
    x = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(n))
    labels = oracle.wave_labels(n)

    def run():
        hs = hk.frame_structure(pw)
        curv = hk.exact_curvature(pw, s, x)
        return hk.build_isometry_algebra(hs, curv, labels[: n + 2], labels[n + 2:])

    def report(out):
        return {"algebra": out[0].to_json(), "residual": str(out[1])}

    def expect(rep):
        if rep["residual"] != "0":
            return _mismatch("Jacobi residual", rep["residual"], "0")
        return _expect_wave_table(rep["algebra"], f, h)

    return Check(cid, "closeloop", run, report, expect)


def exact_proofs_round(hk, seed, r):
    rng = _rng("exact_proofs", seed, r)
    out = []
    for case in ("deg", "nondeg"):
        for n in (2, 3, 4):
            out.append(_gen_reduce(hk, case, n, rng.randrange(1 << 30), f"r{r}.gen_reduce.{case}.n{n}"))
    for n in (1, 2, 3):
        out.append(_roundtrip(hk, rng, n, f"r{r}.roundtrip.n{n}"))
    for n in range(1, 7):
        out.append(_jacobi_wave(hk, rng, n, f"r{r}.jacobi_wave.n{n}"))
        out.append(_jacobi_perturbed(hk, rng, n, f"r{r}.jacobi_perturbed.n{n}"))
        out.append(_reductive(hk, rng, n, n % 2 == 1, f"r{r}.reductive.n{n}"))
    for dim in range(3, 9):
        for lorentzian in (False, True):
            parts = CLASS_MIXES[(dim + 2 * lorentzian + r) % len(CLASS_MIXES)]
            tag = "lc" if lorentzian else "eu"
            out.append(_classify(hk, rng, dim, lorentzian, parts, f"r{r}.classify.{tag}.D{dim}"))
    for n in (1, 2, 3):
        out.append(_closeloop(hk, rng, n, f"r{r}.closeloop.n{n}"))
    return out


# ---------------------------------------------------------------------------
# float_sweep
# ---------------------------------------------------------------------------

# waves per round at each transverse size, and chart points per wave
SWEEP_MIX = ((1, 8), (2, 8), (3, 6), (4, 4), (6, 1))
FLAT_MIX = ((1, 2), (2, 2), (3, 2))
POINTS_PER_WAVE = 3


def _sweep(hk, rng, n, cid):
    pw, _, _ = _wave(hk, rng, n)
    pts = hk.sample_points(n, POINTS_PER_WAVE, rng.randrange(1 << 30))

    def run():
        return hk.as_residuals(pw, pts)

    def report(out):
        return {k: repr(v) for k, v in out.items()}

    def expect(rep):
        over = [k for k, tol in oracle.TOLERANCES.items() if not float(rep[k]) < tol]
        return f"residuals over tolerance: {over}" if over else None

    return Check(cid, "sweep", run, report, expect)


def _flat(hk, rng, n, cid):
    zero = ((0,) * n,) * n
    pw = hk.PlaneWaveData(n, zero, zero)
    pts = hk.sample_points(n, POINTS_PER_WAVE, rng.randrange(1 << 30))

    def run():
        return max(float(abs(hk.riemann(pw, pt)).max()) for pt in pts)

    def report(out):
        return {"max_abs_riemann": repr(out)}

    def expect(rep):
        if not float(rep["max_abs_riemann"]) < oracle.FLAT_TOL:
            return f"flat-limit curvature {rep['max_abs_riemann']} is not below {oracle.FLAT_TOL}"
        return None

    return Check(cid, "flat", run, report, expect)


def float_sweep_round(hk, seed, r):
    rng = _rng("float_sweep", seed, r)
    out = []
    for n, count in SWEEP_MIX:
        for k in range(count):
            out.append(_sweep(hk, rng, n, f"r{r}.sweep.n{n}.{k}"))
    for n, count in FLAT_MIX:
        for k in range(count):
            out.append(_flat(hk, rng, n, f"r{r}.flat.n{n}.{k}"))
    return out


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------


@dataclass
class CliRun:
    exit: int
    stdout: bytes
    stderr: bytes
    out_file: bytes | None
    wall_s: float
    cpu_s: float
    maxrss_kb: int


class CliRunner:
    """Runs ``homkit`` as a child process, one at a time.

    stdout and stderr go to files so the parent can reap the child with
    ``os.wait4`` and read its CPU time and peak resident set.  With
    ``trace_dir`` set, each child runs under the benchmark's tracer and
    leaves its spans there.
    """

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("HOMKIT_SEED", None)  # would override the generated seeds
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.trace_dir = None
        self.trace_files = []

    def __call__(self, argv, out_file=None):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "homkit.cli", *argv]
        else:
            spans = os.path.join(self.trace_dir, f"{len(self.trace_files)}.jsonl")
            self.trace_files.append(spans)
            script = os.path.join(self.root, "perfbench", "cli_traced.py")
            cmd = [sys.executable, script, spans, *argv]
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        if out_file:
            try:
                os.remove(out_file)
            except FileNotFoundError:
                pass
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        produced = None
        if out_file and os.path.exists(out_file):
            with open(out_file, "rb") as fh:
                produced = fh.read()
        return CliRun(proc.returncode, stdout, stderr, produced, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _cli_check(cli, cid, form, argv, expect, known_defect=None, out_file=None, kind=None):
    """A CLI call whose report is its exit code, stdout and written file.

    A traceback on stderr is recorded in the report and fails the check
    whatever the exit code.
    """

    def report(out):
        rep = {"exit": out.exit, "stdout": out.stdout.decode("utf-8", "replace")}
        if out.out_file is not None:
            rep["out_file"] = out.out_file.decode("utf-8", "replace")
        if b"Traceback" in out.stderr:
            rep["traceback"] = True
        return rep

    def check(rep):
        return "crashed with a traceback" if rep.get("traceback") else expect(rep)

    return Check(cid, kind or form, lambda: cli(argv, out_file), report, check, known_defect, form)


def _json_out(rep, exit_code):
    """The JSON a CLI call produced; raises when the exit code is wrong."""
    if rep["exit"] != exit_code:
        raise ValueError(_mismatch("exit code", rep["exit"], exit_code))
    return json.loads(rep.get("out_file") or rep["stdout"])


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            json.dump(data, fh)


def cli_batch_round(cli, seed, r):
    """One pass over every command form, plus malformed inputs.

    Writes the round's input files; the CLI sees only those files and
    the generated arguments.
    """
    rng = _rng("cli_batch", seed, r)
    rel = os.path.relpath(cli.work, cli.root)
    os.makedirs(os.path.join(cli.work, f"r{r}"), exist_ok=True)

    def path(name):
        return os.path.join(rel, f"r{r}", name)

    out = []
    # classify: wave structures at D = 4 and 6
    for n in (2, 4):
        f, _ = oracle.random_wave(rng, n)
        g = oracle.light_cone_metric(n)
        s = oracle.wave_structure(f)
        _write(path(f"structure_n{n}.json"),
               {"metric": oracle.fmt_matrix(g), "S": oracle.tensor_json(n + 2, s)})
        label, degeneracy, norm = oracle.classification(g, g, s, n + 2)
        want = {"class": label, "degeneracy": degeneracy, "xi_norm": str(norm)}

        def expect(rep, want=want):
            got = _json_out(rep, 0)
            return None if got == want else _mismatch("class", got, want)

        out.append(_cli_check(cli, f"r{r}.classify.D{n + 2}", "classify",
                              ["classify", path(f"structure_n{n}.json")], expect))

    # jacobi: an n = 2 wave table and a copy off by 1/1000
    f, h = oracle.random_wave(rng, 2)
    table = oracle.wave_brackets(f, h)
    labels = oracle.wave_labels(2)
    _write(path("algebra.json"), oracle.brackets_to_json(6, table, labels))
    bad = dict(table)
    bad[(0, 2)] = dict(table[(0, 2)])
    bad[(0, 2)][2] = bad[(0, 2)].get(2, 0) + Fraction(1, 1000)
    bad = oracle.prune(bad)
    _write(path("algebra_bad.json"), oracle.brackets_to_json(6, bad, labels))
    worst, triples = oracle.jacobi_expectation(6, bad, labels)

    def expect_pass(rep):
        got = _json_out(rep, 0)
        want = {"is_lie_algebra": True, "max_abs_residual": "0"}
        return None if got == want else _mismatch("report", got, want)

    def expect_fail(rep):
        got = _json_out(rep, 1)
        if got["is_lie_algebra"] is not False or Fraction(got["max_abs_residual"]) != worst:
            return _mismatch("report", got, str(worst))
        if frozenset(got["failing_identity"]) not in triples:
            return f"failing identity {got['failing_identity']} does not reach the maximum"
        return None

    out.append(_cli_check(cli, f"r{r}.jacobi.pass", "jacobi", ["jacobi", path("algebra.json")],
                          expect_pass))
    out.append(_cli_check(cli, f"r{r}.jacobi.perturbed", "jacobi",
                          ["jacobi", path("algebra_bad.json")], expect_fail))

    # reductive: m = (U, V, X), h = Xb on the same table
    h_dim = oracle.rank(oracle.boost_block(f, h))

    def expect_reductive(rep):
        got = _json_out(rep, 0)
        if got["reductive"] is not True or got["h_prime_dim"] != h_dim:
            return _mismatch("report", (got["reductive"], got["h_prime_dim"]), (True, h_dim))
        return None

    out.append(_cli_check(cli, f"r{r}.reductive", "reductive",
                          ["reductive", path("algebra.json"), "--m", "0,1,2,3", "--h", "4,5"],
                          expect_reductive))

    # planewave verify and algebra on the same n = 2 wave
    _write(path("F.json"), oracle.fmt_matrix(f))
    _write(path("H.json"), oracle.fmt_matrix(h))
    wave_args = ["planewave", "--n", "2", "--F", path("F.json"), "--H", path("H.json")]

    def expect_verify(rep):
        got = _json_out(rep, 0)
        if got["verdict"] != "pass" or got["failures"] or got["points"] != 10:
            return _mismatch("report", (got["verdict"], got["failures"]), ("pass", []))
        return None

    out.append(_cli_check(cli, f"r{r}.planewave_verify", "planewave_verify",
                          wave_args + ["verify", "--points", "10", "--seed", str(rng.randrange(1 << 30))],
                          expect_verify))

    want_table = oracle.labelled(table, labels)

    def expect_algebra(rep):
        got = _json_out(rep, 0)
        return None if oracle.brackets_from_json(got) == want_table else "bracket table differs"

    out.append(_cli_check(cli, f"r{r}.planewave_algebra", "planewave_algebra",
                          wave_args + ["algebra"], expect_algebra))

    # gen + reduce
    for case in ("deg", "nondeg"):
        verdict = "plane_wave" if case == "deg" else "symmetric_space"
        for n in (2, 3):
            ansatz = path(f"ansatz_{case}_n{n}.json")

            def expect_gen(rep, case=case, n=n):
                got = _json_out(rep, 0)
                return None if (got["case"], got["n"]) == (case, n) else "wrong case or size"

            def expect_reduce(rep, verdict=verdict):
                got = _json_out(rep, 0)
                if got["verdict"] != verdict:
                    return _mismatch("verdict", got["verdict"], verdict)
                if any(Fraction(v) != 0 for v in got["residuals"].values()):
                    return "nonzero constraint residuals"
                return None

            out.append(_cli_check(
                cli, f"r{r}.gen.{case}.n{n}", "gen",
                ["gen", "--case", case, "--n", str(n), "--seed", str(rng.randrange(1 << 30)),
                 "--out", ansatz],
                expect_gen, out_file=os.path.join(cli.root, ansatz)))
            out.append(_cli_check(cli, f"r{r}.reduce.{case}.n{n}", "reduce",
                                  ["reduce", ansatz, "--case", case], expect_reduce))

    # malformed inputs must exit 2
    _write(path("list.json"), json.dumps([rng.randint(0, 9) for _ in range(3)]))
    _write(path("entries_list.json"), {
        "metric": oracle.fmt_matrix(oracle.euclidean_metric(2)),
        "S": {"dim": 2, "rank": 3, "valence": ["d", "d", "d"], "entries": []},
    })
    _write(path("no_S.json"), {"metric": [["1"]]})
    _write(path("truncated.json"), '{"dim": 3, "brackets": {')

    def expect_malformed(rep):
        return None if rep["exit"] == 2 else _mismatch("exit code", rep["exit"], 2)

    malformed = (
        ("reduce_json_list", "reduce", ["reduce", path("list.json"), "--case", "deg"]),
        ("classify_entries_list", "classify", ["classify", path("entries_list.json")]),
        ("jacobi_json_list", "jacobi", ["jacobi", path("list.json")]),
        ("classify_missing_S", "classify", ["classify", path("no_S.json")]),
        ("jacobi_truncated_json", "jacobi", ["jacobi", path("truncated.json")]),
    )
    for name, form, argv in malformed:
        defect = name if name in KNOWN_DEFECTS else None
        out.append(_cli_check(cli, f"r{r}.malformed.{name}", form, argv, expect_malformed,
                              known_defect=defect, kind="malformed"))
    return out
