"""The reductions run through their public stages and share their checks.

Both reductions read one cached rotation span per ansatz, solve its
span coordinates once, call ``verify_constraints`` and ``assemble_*`` by
name (so the benchmark tracer, which patches those names, sees each
stage), and share one helper for the bracket-pattern flags.  That helper
reads the flags of the redefined generators off the assembled table in
the old basis; the reference rewrites the algebra through the public
``change_basis`` and runs the old flag loops on the result.
"""

import collections
import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import homkit.lie_algebra as lie_algebra
import homkit.reduction as reduction
from homkit.exact import EXACT
from homkit.lie_algebra import LieAlgebra, change_basis
from homkit.plane_wave import PlaneWaveData
from homkit.reduction import (
    _bracket_pattern,
    _contract,
    _eye,
    _fmt,
    _freeze,
    _tensor,
    ansatz_from_json,
    assemble_algebra,
    generate_instance,
    verify_constraints,
)

ROOT = Path(__file__).resolve().parents[1]


def strings(a):
    if isinstance(a, list):  # the keyed rotation images
        return [(key, strings(m)) for key, m in a]
    return _fmt(_freeze(a))


class TestRotationCache:
    def test_rescaled_copy_drops_the_span_cached_at_lambda(self):
        # deg n = 3, seed 33: lam = 3 and epsilon rotation data, so the
        # span basis at lam differs from the one at lam = 1
        a = generate_instance("deg", 3, 33)
        assert a.lam != 1 and any(np.ravel(np.array(a.R, dtype=object)))
        at_lam = a._rotations
        fresh = ansatz_from_json(json.loads(json.dumps(a.to_json())))
        work, ref = a.rescaled(), fresh.rescaled()
        assert strings(at_lam[2]) != strings(ref._rotations[2])
        for got, want in zip(work._rotations, ref._rotations):
            assert strings(got) == strings(want)
        assert verify_constraints(a) == verify_constraints(fresh)
        assert assemble_algebra(work) == assemble_algebra(ref)

    def test_span_is_not_a_field(self):
        a = generate_instance("nondeg", 3, 2)
        b = ansatz_from_json(a.to_json())
        a._rotations
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.to_json() == b.to_json()

    def test_span_closure_runs_once_per_reduce(self, monkeypatch):
        calls = counter(monkeypatch, "_span_closure")
        for case in ("deg", "nondeg"):
            parsed = ansatz_from_json(generate_instance(case, 3, 5).to_json())
            calls.clear()
            reduction.reduce_ansatz(parsed)
            assert len(calls) == 1
        # a generated nondeg instance keeps the span it computed for h_basis
        calls.clear()
        reduction.reduce_ansatz(generate_instance("nondeg", 3, 5))
        assert len(calls) == 1

    def test_span_coordinates_are_solved_once_per_reduce(self, monkeypatch):
        # the rotation brackets are solved by the table assembly in lie_algebra
        calls = counter(monkeypatch, "span_coordinates", lie_algebra)
        for case in ("deg", "nondeg"):
            parsed = ansatz_from_json(generate_instance(case, 3, 5).to_json())
            work = parsed.rescaled() if case == "deg" else parsed
            assert len(work._rotations[2]) > 0
            calls.clear()
            reduction.reduce_ansatz(parsed)
            assert len(calls) == 1


def counter(monkeypatch, name, module=reduction):
    """A list that grows by one on each call to the named function of module."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(1) or fn(*args))
    return calls


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "homkit_bench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_each_stage_once_per_reduce():
    deg, nondeg = generate_instance("deg", 2, 1), generate_instance("nondeg", 2, 1)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        # through the module, whose names the tracer patches
        assert reduction.degenerate_reduce(deg).verdict == "plane_wave"
        assert reduction.nondegenerate_reduce(nondeg).verdict == "symmetric_space"
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    children = collections.defaultdict(list)
    for span in tracer.spans:
        children[names[span[3]] if span[3] >= 0 else None].append(span[0])
    stages = ("reduction.verify_constraints", "reduction.assemble_degenerate",
              "reduction.assemble_nondegenerate")
    assert {s: names.count(s) for s in stages} == dict(zip(stages, (2, 1, 1)))
    deg_stages = [s for s in children["reduction.degenerate_reduce"] if s in stages]
    nondeg_stages = [s for s in children["reduction.nondegenerate_reduce"] if s in stages]
    assert deg_stages == ["reduction.verify_constraints", "reduction.assemble_degenerate"]
    assert nondeg_stages == ["reduction.verify_constraints", "reduction.assemble_nondegenerate"]
    # the flags are read off the assembled table: no change of basis, no inverse
    assert children["reduction.degenerate_reduce"].count("lie_algebra.change_basis") == 0
    assert children["reduction.nondegenerate_reduce"].count("lie_algebra.change_basis") == 0
    assert names.count("exact.mat_inverse") == 0


@pytest.mark.parametrize("flags", [
    (True, False, False), (False, True, False), (False, False, True)])
def test_each_flag_is_reported_under_its_own_key(monkeypatch, flags):
    monkeypatch.setattr(reduction, "_bracket_pattern", lambda *args: flags)
    # each flag triple fails the eigen or the span flag, and the first of
    # the verdict's flags that reads false names the failure
    first = 0 if not flags[0] else 1
    deg = reduction.degenerate_reduce(generate_instance("deg", 3, 1))
    keys = ("unoccupied_eigen_brackets", "unoccupied_brackets_in_rotation_span",
            "unoccupied_brackets_vanish")
    assert tuple(deg.checks[k] for k in keys) == flags
    assert deg.verdict == "inconsistent" and deg.failing_identity == (keys[first],)
    nondeg = reduction.nondegenerate_reduce(generate_instance("nondeg", 3, 1))
    keys = ("eigen_brackets", "yy_in_rotation_span", "yy_vanishes")
    assert tuple(nondeg.checks[k] for k in keys) == flags
    assert nondeg.verdict == "inconsistent" and nondeg.failing_identity == (keys[first],)


def test_a_wave_table_mismatch_is_named(monkeypatch):
    # every boost occupied, so the shifted profile changes a present bracket
    pw = PlaneWaveData(2, ((0, Fraction(1, 2)), (Fraction(-1, 2), 0)),
                       ((1, Fraction(1, 3)), (Fraction(1, 3), Fraction(-1, 2))))
    ansatz = reduction.ansatz_from_plane_wave(pw, lam=Fraction(-5, 3))
    assert reduction.degenerate_reduce(ansatz).failing_identity is None

    wave_table = reduction._wave_table

    def shifted(f, h):
        return wave_table(f, h + _tensor(h.dim, 2, {(1, 1): 1}))

    monkeypatch.setattr(reduction, "_wave_table", shifted)
    report = reduction.degenerate_reduce(ansatz)
    assert report.checks["matches_wave_table"] is False
    assert report.verdict == "inconsistent"
    assert report.failing_identity == ("matches_wave_table",)
    assert report.to_json()["failing_identity"] == ["matches_wave_table"]
    # a failing span flag comes first, in the order of the report's checks
    monkeypatch.setattr(reduction, "_bracket_pattern", lambda *args: (True, False, False))
    report = reduction.degenerate_reduce(ansatz)
    assert report.failing_identity == ("unoccupied_brackets_in_rotation_span",)


def reference_pattern(algebra, gens, lam, m0):
    """The flag loops both reductions ran before sharing a helper."""
    eigen_ok = True
    for x in gens:
        if algebra.bracket(0, x) != {x: lam}:
            eigen_ok = False
    closes = True
    vanishes = True
    for i, x in enumerate(gens):
        for y in gens[i + 1:]:
            row = algebra.bracket(x, y)
            if any(c < m0 for c in row):
                closes = False
            if row:
                vanishes = False
    return eigen_ok, closes, vanishes


def random_row(rng, dim, lo=0):
    cols = rng.sample(range(lo, dim), rng.randint(0, min(2, dim - lo)))
    return {c: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)) for c in cols}


def random_case(rng):
    """A random exact table with generators, eigenvalue and span start.

    The brackets the flags read are biased towards passing, so every
    flag comes out both true and false over a few hundred cases.
    """
    dim = rng.randint(2, 7)
    gens = sorted(rng.sample(range(1, dim), rng.randint(0, min(4, dim - 1))))
    lam, m0 = Fraction(rng.randint(1, 4), rng.randint(1, 3)), rng.randint(1, dim)
    brackets = {}
    for a, b in itertools.combinations(range(dim), 2):
        roll = rng.random()
        if a == 0 and b in gens and roll < 0.7:
            row = {b: lam}
        elif a in gens and b in gens and roll < 0.6:
            row = {} if roll < 0.3 or m0 == dim else random_row(rng, dim, m0)
        else:
            row = random_row(rng, dim)
        if row:
            brackets[(a, b)] = row
    return LieAlgebra.from_brackets(dim, brackets, tag=EXACT), gens, lam, m0


def test_bracket_pattern_matches_reference_loops():
    rng = random.Random("bracket-pattern")
    seen = collections.Counter()
    for _ in range(400):
        algebra, gens, lam, m0 = random_case(rng)
        flags = _bracket_pattern(algebra.f, _eye(algebra.dim), gens, lam, m0)
        assert flags == reference_pattern(algebra, gens, lam, m0)
        assert all(type(flag) is bool for flag in flags)
        seen.update(enumerate(flags))
    assert all(seen[(i, value)] >= 20 for i in range(3) for value in (True, False))


def random_redefinition(rng, dim, m0):
    """new_in_old = I + N as the reductions build it: N is zero on the
    columns 0 and m0.., and its rows avoid its columns, so N @ N = 0."""
    cols = [c for c in range(1, m0) if rng.random() < 0.7]
    rows = [r for r in range(dim) if r not in cols and rng.random() < 0.7]
    entries = {(i, i): 1 for i in range(dim)}
    for r, c in itertools.product(rows, cols):
        entries[r, c] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
    b = _tensor(dim, 2, entries)
    nil = b - _eye(dim)
    assert not any(c == 0 or c >= m0 for (_, c), _ in nil.nums) and _contract(nil, nil).is_zero()
    return b


def test_bracket_pattern_reads_redefined_generators_in_the_old_basis():
    rng = random.Random("redefined-pattern")
    seen = collections.Counter()
    for _ in range(200):
        # the random table is biased towards passing in the new basis, and
        # carried back to the old basis, whose generators are the columns
        # of the inverse 2I - B
        reduced, gens, lam, m0 = random_case(rng)
        b = random_redefinition(rng, reduced.dim, m0)
        algebra = change_basis(reduced, _freeze(b, list))
        want = reference_pattern(change_basis(algebra, _freeze(_eye(algebra.dim).scale(2) - b, list)),
                                 gens, lam, m0)
        flags = _bracket_pattern(algebra.f, b, gens, lam, m0)
        assert flags == want
        assert all(type(flag) is bool for flag in flags)
        seen.update(enumerate(flags))
    assert all(seen[(i, value)] >= 20 for i in range(3) for value in (True, False))
