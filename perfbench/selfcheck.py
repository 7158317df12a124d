"""Self-check of the benchmark at its smallest size.

Usage (from the repository root):

    python3 perfbench/selfcheck.py            # check
    python3 perfbench/selfcheck.py --record   # rewrite golden_digests.json

Runs one round of every workload at seed 0, untraced and traced, and
asserts that:

- every oracle verdict holds, except the named known defects, which
  must be exactly the failures on cli_batch (so failed_frac is their
  share) and absent elsewhere;
- the untraced run prints exactly the end-to-end metrics and the
  traced run exactly the per-layer metrics named in BENCHMARK.json;
- the traced round reproduces the untraced digests;
- every report digest equals the one in golden_digests.json.

Exits 1 with a list of the problems otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads

GOLDEN = os.path.join(run.HERE, "golden_digests.json")


def check_workload(name, spec, golden, problems):
    _, plain, metrics = run.run(name, 0, 0, False, min_checks=0, rounds=1)
    _, traced, layer = run.run(name, 0, 0, True, rounds=1)
    expected = set(workloads.KNOWN_DEFECTS) if name == "cli_batch" else set()
    for ledger, label in ((plain, "untraced"), (traced, "traced")):
        for cid, reason, _ in ledger.unexpected:
            problems.append(f"{name} {label}: {cid}: {reason}")
        failed = {defect for _, _, defect in ledger.failures}
        if failed != expected:
            problems.append(f"{name} {label}: failures {sorted(failed)}, expected {sorted(expected)}")
    want_frac = len(expected) / (plain.attempted or 1)
    got_frac = len(plain.failures) / (plain.attempted or 1)
    if got_frac != want_frac:
        problems.append(f"{name}: failed_frac {got_frac}, expected {want_frac}")
    for have, listed, label in ((metrics, spec["end_to_end"], "end-to-end"),
                                (layer, spec["per_layer"], "per-layer")):
        names = [m["name"] for m in listed]
        if list(have) != names:
            problems.append(f"{name}: {label} metrics {sorted(set(have) ^ set(names))} differ")
        for m in listed:
            if m["name"] in have and have[m["name"]][1] != m["unit"]:
                problems.append(f"{name}: unit of {m['name']} is {have[m['name']][1]}")
    if golden is not None:
        want = golden.get(name, {})
        for cid, d in sorted(plain.digests.items()):
            if want.get(cid) != d:
                problems.append(f"{name}: digest of {cid} differs from golden_digests.json")
    return plain.digests


def main(argv):
    record = "--record" in argv
    run.prepare()
    # start from a clean record so seed 0 is compared only with the golden file
    for name in run.WORKLOADS:
        path = os.path.join(run.WORK, "digests", f"{name}-seed0.json")
        if os.path.exists(path):
            os.remove(path)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    golden = None
    if not record:
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    problems, digests = [], {}
    for name in run.WORKLOADS:
        digests[name] = check_workload(name, spec, golden, problems)
        print(f"{name}: done", flush=True)
    if record:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
