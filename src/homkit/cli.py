"""Command-line front end.

Reports are JSON with sorted keys on standard output.  Exit codes:
0 all checks pass, 1 a verification failed (the report names the
failing check), 2 malformed input, which includes an input file that
cannot be read or decoded, and an --out file or a standard output
(full, a closed pipe or descriptor) that cannot be written.  Inputs too large to
check are malformed: `planewave verify` refuses --points x (n + 2)**6 over 2**28.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

# modules, not names: each command runs only the modules it reads
from . import hom_structure, lie_algebra, plane_wave, reduction, tensor_core, wave_table


# most points x (n + 2)**6, the size of a chart point's contractions, a sweep may take
_MAX_SWEEP_WORK = 2**28


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: cannot read ({exc})") from None


def _load_matrix(path, n, name):
    data = _load_json(path)
    if not isinstance(data, list) or len(data) != n or any(
        not isinstance(row, list) or len(row) != n for row in data
    ):
        raise InputError(f"{path}: {name} must be an {n} x {n} array")
    try:
        return tuple(tuple(Fraction(str(x)) for x in row) for row in data)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{path}: bad rational entry in {name} ({exc})")


def _parse(path, build, *args):
    """build(*args), with a malformed-input error naming the file."""
    try:
        return build(*args)
    except KeyError as exc:
        raise InputError(f"{path}: missing field {exc}")
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def _emit(report, verdict, out=None, quiet=False):
    """The report into out if given; on stdout, the verdict if quiet, else the report if no out."""
    text = json.dumps(report, sort_keys=True, indent=2)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"{out}: cannot write ({exc})") from None
    if quiet or not out:
        if sys.stdout is None:  # descriptor 1 was closed at start-up
            raise InputError("<stdout>: cannot write (closed)")
        try:
            print(verdict if quiet else text)
            sys.stdout.flush()
        except OSError as exc:
            try:  # so the exit-time flush writes what is left into devnull, not a second error
                fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            except OSError:  # a stream with no descriptor
                pass
            raise InputError(f"<stdout>: cannot write ({exc})") from None


def _cmd_classify(args):
    data = _load_json(args.structure)
    hs = _parse(args.structure, hom_structure.HomogeneousStructure.from_json, data)
    # the defining one-form divides the trace of S by D - 1
    if hs.dim < 2:
        raise InputError(f"{args.structure}: classify needs dimension at least 2, got {hs.dim}")
    report = hom_structure.classify(hs).to_json()
    _emit(report, quiet=args.quiet, verdict=report["class"])
    return 0


def _cmd_jacobi(args):
    data = _load_json(args.algebra)
    algebra = _parse(args.algebra, lie_algebra.LieAlgebra.from_json, data)
    if (products := lie_algebra.jacobi_products(algebra)) > (cap := lie_algebra._MAX_JACOBI_PRODUCTS):
        raise InputError(f"{args.algebra}: too large: the Jacobi sum would take {products} products, "
                         f"over {cap}")
    entries, worst = lie_algebra.jacobi_residual(algebra)
    ok = worst == 0
    report = {
        "max_abs_residual": str(worst),
        "is_lie_algebra": ok,
    }
    if not ok:
        report["failing_identity"] = list(lie_algebra._first_worst_triple(algebra, entries, worst))
    _emit(report, quiet=args.quiet, verdict="pass" if ok else "fail")
    return 0 if ok else 1


def _parse_indices(text, what):
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError:
        raise InputError(f"--{what}: expected a comma-separated index list")


def _cmd_reductive(args):
    data = _load_json(args.algebra)
    algebra = _parse(args.algebra, lie_algebra.LieAlgebra.from_json, data)
    split = _parse(args.algebra, lie_algebra.ReductiveSplit, _parse_indices(args.m_indices, "m"),
                   _parse_indices(args.h_indices, "h"))
    report_obj = _parse(args.algebra, lie_algebra.check_reductive, algebra, split)
    report = {
        "reductive": report_obj.is_reductive,
        "hh_violations": [list(v[:2]) for v in report_obj.hh_violations],
        "hm_violations": [list(v[:2]) for v in report_obj.hm_violations],
        "h_prime_dim": report_obj.h_prime_dim,
        "h_prime": [[str(x) for x in row] for row in report_obj.h_prime],
    }
    _emit(report, quiet=args.quiet, verdict="pass" if report_obj.is_reductive else "fail")
    return 0 if report_obj.is_reductive else 1


def _load_wave(args):
    # the chart jets of a plane wave hold (n + 2)**5 entries
    if (args.n + 2) ** 5 > tensor_core._MAX_COMPONENTS:
        raise InputError(f"--n {args.n} is too large: the chart jets would hold "
                         f"{(args.n + 2) ** 5} entries, over {tensor_core._MAX_COMPONENTS}")
    f = _load_matrix(args.F, args.n, "F")
    h = _load_matrix(args.H, args.n, "H")
    try:
        return wave_table.PlaneWaveData(args.n, f, h)
    except ValueError as exc:
        raise InputError(str(exc))


def _cmd_planewave_verify(args):
    if args.points < 1:
        raise InputError(f"--points must be at least 1, got {args.points}")
    tolerances = {"r_g": args.tol_g, "r_S": args.tol_s, "r_geo": args.tol_geo, "r_R": args.tol_r}
    for key, tol in tolerances.items():
        # a nan or infinite tolerance would pass every residual
        if not (math.isfinite(tol) and tol >= 0):
            raise InputError(f"--tol-{key[2:].lower()} must be a finite number >= 0, got {tol!r}")
    pw = _load_wave(args)
    # the sweep runs on float64; planewave algebra stays exact and takes any entry
    for path, name, rows in ((args.F, "F", pw.F), (args.H, "H", pw.H)):
        try:
            float(max(abs(v) for row in rows for v in row))
        except OverflowError:
            raise InputError(f"{path}: an entry of {name} is beyond float range") from None
    if (work := args.points * (pw.n + 2) ** 6) > _MAX_SWEEP_WORK:
        raise InputError(f"--points {args.points} is too large at --n {pw.n}: the sweep would take "
                         f"{work} terms, over {_MAX_SWEEP_WORK}")
    pts = plane_wave.sample_points(pw.n, args.points, args.seed)
    res = plane_wave.as_residuals(pw, pts)
    # a nan residual is not below any tolerance
    failures = [key for key, tol in tolerances.items() if not res[key] < tol]
    report = {
        "residuals": {k: repr(v) for k, v in res.items()},
        "tolerances": {k: repr(v) for k, v in tolerances.items()},
        "points": args.points,
        "seed": args.seed,
        "failures": failures,
        "verdict": "pass" if not failures else "fail",
    }
    _emit(report, quiet=args.quiet, verdict=report["verdict"])
    return 0 if not failures else 1


def _cmd_planewave_algebra(args):
    pw = _load_wave(args)
    algebra = wave_table.pw_isometry_algebra(pw)
    _emit(algebra.to_json(), out=args.out, quiet=args.quiet, verdict="done")
    return 0


def _cmd_reduce(args):
    data = _load_json(args.ansatz)
    if data.get("case", args.case) != args.case:
        raise InputError(f"{args.ansatz}: ansatz case does not match --case {args.case}")
    data.setdefault("case", args.case)
    ansatz = _parse(args.ansatz, reduction.ansatz_from_json, data)
    report_obj = reduction.reduce_ansatz(ansatz)
    report = report_obj.to_json()
    _emit(report, out=args.out, quiet=args.quiet, verdict=report_obj.verdict)
    return 0 if report_obj.verdict != "inconsistent" else 1


def _cmd_gen(args):
    try:
        ansatz = reduction.generate_instance(args.case, args.n, args.seed)
    except ValueError as exc:
        raise InputError(str(exc))
    _emit(ansatz.to_json(), out=args.out, quiet=args.quiet, verdict="done")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homkit",
        description="Exact checks for homogeneous-structure tensors, their "
        "isometry algebras, and singular homogeneous plane waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a structure tensor")
    p.add_argument("structure", help="HomogeneousStructure JSON file")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("jacobi", help="Jacobi residual of a bracket table")
    p.add_argument("algebra", help="LieAlgebra JSON file")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_jacobi)

    p = sub.add_parser("reductive", help="check a reductive split")
    p.add_argument("algebra", help="LieAlgebra JSON file")
    p.add_argument("--m", dest="m_indices", required=True, help="comma-separated m indices")
    p.add_argument("--h", dest="h_indices", required=True, help="comma-separated h indices")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_reductive)

    p = sub.add_parser("planewave", help="singular homogeneous plane-wave tools")
    p.add_argument("--n", type=int, required=True, help="transverse dimension")
    p.add_argument("--F", required=True, help="antisymmetric rotation matrix JSON file")
    p.add_argument("--H", required=True, help="symmetric profile matrix JSON file")
    psub = p.add_subparsers(dest="subcommand", required=True)

    pv = psub.add_parser("verify", help="parallelism residual sweep")
    pv.add_argument("--points", type=int, default=10)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol-g", dest="tol_g", type=float, default=1e-10)
    pv.add_argument("--tol-s", dest="tol_s", type=float, default=1e-10)
    pv.add_argument("--tol-geo", dest="tol_geo", type=float, default=1e-10)
    pv.add_argument("--tol-r", dest="tol_r", type=float, default=1e-8)
    pv.add_argument("--quiet", action="store_true")
    pv.set_defaults(func=_cmd_planewave_verify)

    pa = psub.add_parser("algebra", help="emit the isometry bracket table")
    pa.add_argument("--out", help="output path (default stdout)")
    pa.add_argument("--quiet", action="store_true")
    pa.set_defaults(func=_cmd_planewave_algebra)

    p = sub.add_parser("reduce", help="normalize a bracket-table ansatz")
    p.add_argument("ansatz", help="ansatz JSON file")
    p.add_argument("--case", choices=("nondeg", "deg"), required=True)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gen", help="generate a consistent seeded ansatz")
    p.add_argument("--case", choices=("nondeg", "deg"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags, matching the malformed-input code
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
