"""The exact integer-numerator paths against the per-entry Fraction loops they replaced.

The references below are the loops `contract`, `raise_lower` (`_map_slot`),
`change_basis`, `boost_block`, `pw_isometry_algebra` and the antisymmetry
check ran before they summed on integer numerators: one Fraction
multiply-add per term; and the per-row loop that read a bracket table
into a `LieAlgebra`.  The library must return the same `items`
exactly, on non-diagonal metrics and basis changes whose denominators
are primes near 1e9, with entries that cancel to zero; float tensors
keep the old loops, so their items must match by `repr`.  Counts of
Fraction constructions keep the exact trace, split and wave table from
going back to one Fraction per term.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from test_exact_array import fractions
from test_exact_carrier import count_fractions

from homkit import hom_structure, plane_wave, wave_curvature
from homkit.exact import EXACT, FLOAT, integer_numerators, mat_identity, mat_inverse, scalar_zero
from homkit.hom_structure import (
    CurvatureAtPoint,
    HomogeneousStructure,
    decompose,
    trace_one_form,
)
from homkit.lie_algebra import LieAlgebra, _algebra, change_basis
from homkit.plane_wave import (
    PlaneWaveData,
    boost_block,
    exact_curvature,
    frame_structure,
    pw_isometry_algebra,
)
from homkit.wave_curvature import SparseArray
from homkit.wave_table import _matrix, _wave_table
from homkit.tensor_core import (
    DOWN,
    UP,
    FrameMetric,
    Tensor,
    _antisymmetry_violations,
    contract,
    raise_lower,
)

BIG = (1_000_000_007, 999_999_937, 1_000_000_009)

# ---------------------------------------------------------------------------
# the per-entry Fraction loops, as they ran before
# ---------------------------------------------------------------------------


def old_contract(t, slot_a, slot_b, metric):
    slot_a, slot_b = sorted((slot_a, slot_b))
    va, vb = t.valence[slot_a], t.valence[slot_b]
    if va == vb:
        pairing = metric.g_inv if va == DOWN else metric.g
    else:
        pairing = mat_identity(t.dim, t.tag)
    zero = scalar_zero(t.tag)
    out = {}
    for idx, v in t.items:
        c = pairing[idx[slot_a]][idx[slot_b]]
        if c != 0:
            key = idx[:slot_a] + idx[slot_a + 1 : slot_b] + idx[slot_b + 1 :]
            out[key] = out.get(key, zero) + c * v
    return tuple(sorted(p for p in out.items() if p[1] != 0))


def old_map_slot(t, slot, m):
    columns = [[(i, row[z]) for i, row in enumerate(m) if row[z] != 0] for z in range(t.dim)]
    zero = scalar_zero(t.tag)
    out = {}
    for idx, v in t.items:
        for i, c in columns[idx[slot]]:
            key = idx[:slot] + (i,) + idx[slot + 1 :]
            out[key] = out.get(key, zero) + c * v
    return tuple(sorted(p for p in out.items() if p[1] != 0))


def old_raise_lower(t, slot, metric):
    return old_map_slot(t, slot, metric.g if t.valence[slot] == UP else metric.g_inv)


def old_change_basis(algebra, p):
    p_inv_t = list(zip(*mat_inverse(p, algebra.tag)))
    f = algebra.f
    for slot, m in ((0, p_inv_t), (1, p_inv_t), (2, p)):
        f = Tensor.from_entries(f.dim, f.valence, dict(old_map_slot(f, slot, m)), f.tag)
    return f.items


def old_antisymmetry_violations(entries, slot_a, slot_b, tol=None):
    bad = set()
    for idx, v in entries.items():
        swapped = list(idx)
        swapped[slot_a], swapped[slot_b] = idx[slot_b], idx[slot_a]
        swapped = tuple(swapped)
        w = entries.get(swapped, 0)
        if (v != -w) if tol is None else (abs(v + w) > tol):
            bad.add(min(idx, swapped))
    return sorted(bad)


def old_boost_block(pw):
    n = pw.n
    f2 = [[sum(pw.F[i][k] * pw.F[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[2 * pw.H[i][j] - pw.F[i][j] - f2[i][j] for j in range(n)] for i in range(n)]


def old_pw_isometry_algebra(pw):
    n = pw.n
    bb = old_boost_block(pw)
    brackets = {(0, 1): {1: Fraction(1)}}
    for i in range(n):
        row = {}
        for j in range(n):
            zc = Fraction(int(i == j)) + 2 * pw.F[i][j]
            if zc != 0:
                row[2 + j] = zc
            if bb[i][j] != 0:
                row[2 + n + j] = bb[i][j]
        if row:
            brackets[(0, 2 + i)] = row
        brackets[(0, 2 + n + i)] = {2 + i: Fraction(1)}
        brackets[(2 + i, 2 + n + i)] = {1: Fraction(-1)}
        for j in range(i + 1, n):
            if pw.F[i][j] != 0:
                brackets[(2 + i, 2 + j)] = {1: 2 * pw.F[i][j]}
    entries = {}
    for (a, b), row in brackets.items():
        for c, v in row.items():
            entries[(a, b, c)], entries[(b, a, c)] = v, -v
    return Tensor.from_entries(2 * n + 2, (DOWN, DOWN, UP), entries).items


def old_algebra(table, labels):
    dim = len(labels)
    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            row = {c: table[a, b, c] for c in range(dim) if table.get((a, b, c), 0)}
            if row:
                brackets[(a, b)] = row
    return LieAlgebra.from_brackets(dim, brackets, labels=labels, tag=EXACT)


# ---------------------------------------------------------------------------
# random data
# ---------------------------------------------------------------------------


def big_fraction(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.choice(BIG))


def dense_metric(rng, dim, tag):
    """A non-diagonal symmetric metric with near-1e9 prime denominators."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = Fraction(rng.choice((-3, 2, 3)))
        for j in range(i + 1, dim):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i] = big_fraction(rng)
    if tag == FLOAT:
        rows = [[float(x) for x in row] for row in rows]
    return FrameMetric.from_matrix(rows, tag)


def random_tensor(rng, dim, valence, tag):
    """About 30 nonzero entries; floats span six decades, so sums depend on order."""
    fill = min(1.0, 30 / dim ** len(valence))
    entries = {}
    for idx in itertools.product(range(dim), repeat=len(valence)):
        if rng.random() < fill:
            v = big_fraction(rng) if rng.random() < 0.5 else Fraction(rng.randint(-9, 9), 7)
            entries[idx] = float(v) * 10.0 ** rng.randint(-3, 3) if tag == FLOAT else v
    return Tensor.from_entries(dim, valence, entries, tag)


def pair_antisymmetric(t, slot_a, slot_b):
    """t minus its swap of two equal-valence slots: contracting them cancels to zero."""
    swapped = {}
    for idx, v in t.items:
        s = list(idx)
        s[slot_a], s[slot_b] = idx[slot_b], idx[slot_a]
        swapped[tuple(s)] = v
    return t - Tensor.from_entries(t.dim, t.valence, swapped, t.tag)


METRICS = {}


def metric_for(dim, tag):
    if (dim, tag) not in METRICS:
        METRICS[dim, tag] = dense_metric(random.Random(dim), dim, tag)
    return METRICS[dim, tag]


CASES = [(tag, dim, rank) for tag in (EXACT, FLOAT) for dim in range(2, 9) for rank in range(1, 5)]


def case_id(case):
    return "{}-D{}-r{}".format(*case)


def items_repr(items):
    return [(idx, repr(v)) for idx, v in items]


class TestAgainstFractionLoops:
    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_contract_and_raise_lower(self, case):
        tag, dim, rank = case
        rng = random.Random(f"{tag}{dim}{rank}")
        metric = metric_for(dim, tag)
        valence = tuple(rng.choice((UP, DOWN)) for _ in range(rank))
        t = random_tensor(rng, dim, valence, tag)
        for slot in range(rank):
            got, want = raise_lower(t, slot, metric).items, old_raise_lower(t, slot, metric)
            assert got == want
            assert items_repr(got) == items_repr(want)
        for a, b in itertools.combinations(range(rank), 2):
            got, want = contract(t, a, b, metric).items, old_contract(t, a, b, metric)
            assert got == want
            assert items_repr(got) == items_repr(want)
            if valence[a] == valence[b] and tag == EXACT:
                # a symmetric pairing of an antisymmetric pair cancels to zero
                assert contract(pair_antisymmetric(t, a, b), a, b, metric).items == ()

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_lowering_then_raising_cancels_to_the_input(self, dim):
        rng = random.Random(dim)
        metric = metric_for(dim, EXACT)
        t = random_tensor(rng, dim, (UP, DOWN, UP), EXACT)
        for slot in (0, 2):
            low = raise_lower(t, slot, metric)
            assert low.items == old_raise_lower(t, slot, metric)
            # every entry absent from t is a sum that cancels to exactly zero
            assert raise_lower(low, slot, metric).items == t.items

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_change_basis(self, dim):
        rng = random.Random(100 + dim)
        brackets = {}
        for a, b in itertools.combinations(range(dim), 2):
            row = {c: big_fraction(rng) for c in range(dim) if rng.random() < 0.3}
            if row:
                brackets[(a, b)] = row
        algebra = LieAlgebra.from_brackets(dim, brackets)
        p = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        for i, j in itertools.permutations(range(dim), 2):
            if rng.random() < 0.3:
                p[i][j] = big_fraction(rng)
        p[0][0] += Fraction(1, 3)
        got = change_basis(algebra, p)
        assert got.f.items == old_change_basis(algebra, p)
        back = change_basis(got, mat_inverse(p, EXACT))
        assert back.f.items == algebra.f.items

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_change_basis_float(self, dim):
        rng = random.Random(200 + dim)
        brackets = {}
        for a, b in itertools.combinations(range(dim), 2):
            row = {c: rng.randint(-8, 8) / 4 for c in range(dim) if rng.random() < 0.3}
            if row:
                brackets[(a, b)] = row
        algebra = LieAlgebra.from_brackets(dim, brackets, tag=FLOAT)
        # unit upper triangular with dyadic entries: P^-1 and every sum are exact in binary64,
        # so the new table is exactly antisymmetric, as LieAlgebra requires of a float table
        p = [[1.0 if i == j else rng.randint(-4, 4) / 4 if j > i and rng.random() < 0.4 else 0.0
              for j in range(dim)] for i in range(dim)]
        p[-1][0] = -0.0
        got = change_basis(algebra, p)
        assert items_repr(got.f.items) == items_repr(old_change_basis(algebra, p))
        assert change_basis(got, mat_inverse(p, FLOAT)).f.items == algebra.f.items

    @pytest.mark.parametrize("n", range(1, 7))
    def test_wave_table(self, n):
        for seed in range(3):
            rng = random.Random(n * 10 + seed)
            f = [[Fraction(0)] * n for _ in range(n)]
            h = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    h[i][j] = h[j][i] = big_fraction(rng) if seed else Fraction(rng.randint(-3, 3), 2)
                    if i < j and rng.random() < 0.7:
                        f[i][j] = big_fraction(rng) if seed else Fraction(rng.randint(-3, 3), 2)
                        f[j][i] = -f[i][j]
            pw = PlaneWaveData(n, f, h)
            bb = boost_block(pw)
            assert bb == old_boost_block(pw)
            assert all(type(v) is Fraction for row in bb for v in row)
            algebra = pw_isometry_algebra(pw)
            assert algebra.f.items == old_pw_isometry_algebra(pw)
            assert all(type(v) is Fraction for _, v in algebra.f.items)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_wave_table_array(self, n):
        rng = random.Random(f"wave-table-{n}")
        zero = [[Fraction(0)] * n for _ in range(n)]
        for rotating in (True, False):
            f, h = [row[:] for row in zero], [row[:] for row in zero]
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                h[i][j] = h[j][i] = big_fraction(rng)
                if i < j and rotating:
                    f[i][j] = big_fraction(rng)
                    f[j][i] = -f[i][j]
            pw = PlaneWaveData(n, f, h)
            want = Tensor.from_entries(2 * n + 2, (DOWN, DOWN, UP), dict(old_pw_isometry_algebra(pw)))
            got = _wave_table(_matrix(f), _matrix(h))
            assert got == want
            assert boost_block(pw) == old_boost_block(pw)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_table_reader(self, dim):
        rng = random.Random(f"table-{dim}")
        labels = [f"e{a}" for a in range(dim)]
        uppers = [{}]
        for density in (0.05, 0.3, 1.0):
            t = {}
            for a, b in itertools.combinations(range(dim), 2):
                for c in range(dim):
                    if rng.random() < density:
                        t[a, b, c] = big_fraction(rng)
            uppers.append(t)

        def plus(t, k):
            """t plus k times its mirror in the first two slots."""
            keys = {*t, *((b, a, c) for a, b, c in t)}
            return {(a, b, c): t.get((a, b, c), 0) + k * t.get((b, a, c), 0) for a, b, c in keys}

        def parts(t):
            """t as (numerators, den) parts, split by the parity of c."""
            out = []
            for parity in (0, 1):
                half = {key: v for key, v in t.items() if key[2] % 2 == parity}
                nums, den = integer_numerators(half.values())
                out.append((dict(zip(half, nums)), den))
            return out

        for upper in uppers:
            # the assembly fills only the a < b half; the reader mirrors it
            # and ignores whatever the other half holds
            full = plus(upper, -1)
            for t in (upper, full, plus(upper, 2)):
                got = _algebra(parts(t), labels)
                assert got == old_algebra(t, labels)
                assert all(type(v) is Fraction for _, v in got.f.items)
                assert got.f.entries() == {key: v for key, v in sorted(full.items()) if v}


# ---------------------------------------------------------------------------
# the antisymmetry check
# ---------------------------------------------------------------------------


def random_entries(rng, rank, exact):
    """Entries whose mirrors are absent, negated, equal, different, or an int zero."""
    entries = {}
    for idx in itertools.product(range(3), repeat=rank):
        if rng.random() < 0.35:
            v = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, BIG[0])))
            entries[idx] = v if exact else float(v)
    for idx, v in list(entries.items()):
        mirror = (idx[1], idx[0]) + idx[2:]
        kind = rng.randrange(5)
        if kind == 1:
            entries[mirror] = -v
        elif kind == 2:
            entries[mirror] = v
        elif kind == 3:
            entries[mirror] = v + 1
        elif kind == 4:
            entries[mirror] = 0
    return entries


class TestAntisymmetryViolations:
    @pytest.mark.parametrize("seed", range(40))
    def test_exact_matches_negation_test(self, seed):
        rng = random.Random(seed)
        rank = 2 + seed % 3
        entries = random_entries(rng, rank, exact=True)
        for a, b in itertools.combinations(range(rank), 2):
            want = old_antisymmetry_violations(entries, a, b)
            assert _antisymmetry_violations(entries, a, b) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_float_matches_negation_test(self, seed):
        rng = random.Random(seed)
        entries = random_entries(rng, 3, exact=False)
        for a, b in ((0, 1), (1, 2), (0, 2)):
            for tol in (None, 1e-12):
                want = old_antisymmetry_violations(entries, a, b, tol)
                assert _antisymmetry_violations(entries, a, b, tol) == want

    def test_int_zero_mirror_of_a_zero_is_no_violation(self):
        entries = {(0, 1, 2): 0, (1, 0, 2): Fraction(0), (2, 2, 0): 0}
        assert _antisymmetry_violations(entries, 0, 1) == []

    def test_empty(self):
        assert _antisymmetry_violations({}, 0, 1) == []

    def test_algebra_same_sign_pair(self):
        f = Tensor.from_entries(3, (DOWN, DOWN, UP), {(0, 1, 2): 1, (1, 0, 2): 1, (2, 1, 0): 1})
        with pytest.raises(ValueError) as exc:
            LieAlgebra(("a", "b", "c"), f)
        assert str(exc.value) == "structure constants not antisymmetric at (0,1)^2"

    def test_structure_absent_mirror(self):
        s = Tensor.from_entries(3, (DOWN, DOWN, DOWN), {(2, 1, 0): Fraction(1, 3), (1, 0, 2): 2,
                                                         (1, 2, 0): 2})
        with pytest.raises(ValueError) as exc:
            HomogeneousStructure(FrameMetric.euclidean(3), s)
        assert str(exc.value) == "S is not antisymmetric in its last two slots at (1,0,2)"

    def test_curvature_same_sign_pair(self):
        rbar = Tensor.from_entries(3, (DOWN, DOWN, UP, DOWN), {(0, 2, 1, 1): 1, (2, 0, 1, 1): 1})
        with pytest.raises(ValueError) as exc:
            CurvatureAtPoint(rbar, (), FrameMetric.euclidean(3))
        assert str(exc.value) == "Rbar is not antisymmetric in its form slots"


# ---------------------------------------------------------------------------
# Fraction counts and the frame structure
# ---------------------------------------------------------------------------


def dense_structure(dim):
    rng = random.Random(dim)
    entries = {}
    for x, y, z in itertools.product(range(dim), repeat=3):
        if y < z:
            v = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, BIG[0])))
            entries[(x, y, z)], entries[(x, z, y)] = v, -v
    s = Tensor.from_entries(dim, (DOWN, DOWN, DOWN), entries)
    return HomogeneousStructure(FrameMetric.light_cone(dim - 2), s)


def wave(n):
    rng = random.Random(n)
    f = [[Fraction(0)] * n for _ in range(n)]
    h = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        h[i][j] = h[j][i] = Fraction(rng.randint(-3, 3), 5)
        if i < j:
            f[i][j] = Fraction(rng.randint(-3, 3), rng.choice((1, BIG[1])))
            f[j][i] = -f[i][j]
    return PlaneWaveData(n, f, h)


class TestFractionCounts:
    def test_trace_builds_order_d(self, monkeypatch):
        hs = dense_structure(8)
        assert len(hs.S.items) > 400
        # one per entry of the contraction, alpha and xi, and the norm's D products
        # and D sums: at most 6 D + 1
        assert count_fractions(monkeypatch, lambda: trace_one_form(hs)) <= 6 * 8 + 1

    def test_decompose_builds_what_it_stores(self, monkeypatch):
        hs = dense_structure(8)
        stored = sum(len(p.items) for p in decompose(hs))
        assert count_fractions(monkeypatch, lambda: decompose(hs)) <= stored + 6 * 8 + 1

    def test_wave_table_builds_what_it_stores(self, monkeypatch):
        pw = wave(6)
        stored = len(pw_isometry_algebra(pw).f.items)
        # the boost block and the (delta + 2F) row: one Fraction per entry each
        assert count_fractions(monkeypatch, lambda: pw_isometry_algebra(pw)) <= stored + 3 * 6**2


class TestFrameStructureOnce:
    def test_exact_curvature_builds_no_structure(self, monkeypatch):
        pw = wave(3)
        built = []
        check = HomogeneousStructure.__post_init__
        monkeypatch.setattr(HomogeneousStructure, "__post_init__",
                            lambda self: (built.append(1), check(self)))
        exact_curvature(pw, Fraction(1, 3), [Fraction(1, 2), 0, Fraction(-1)])
        assert built == []
        frame_structure(pw)
        assert built == [1]

    @pytest.mark.parametrize("n", (1, 2, 3, 6))
    def test_frame_arrays_match_the_dense_view(self, n, monkeypatch):
        s = frame_structure(wave(n)).S
        dense = np.array([float(v) for v in s.components]).reshape((s.dim,) * 3)
        assert plane_wave._frame_array(s).tobytes() == dense.tobytes()
        # the frame S that exact_curvature hands its chain
        seen, chain = [], wave_curvature._frame_curvature
        monkeypatch.setattr(wave_curvature, "_frame_curvature", lambda sf, *args: seen.append(sf) or chain(sf, *args))
        exact_curvature(wave(n), Fraction(1, 3), [Fraction(1, 2)] * n)
        assert isinstance(seen[0], SparseArray)
        assert fractions(seen[0]).tolist() == np.reshape(s.components, (s.dim,) * 3).tolist()

    def test_split_numerators_match_decompose(self):
        hs = dense_structure(5)
        alpha = trace_one_form(hs)[0]
        *parts, den = hom_structure._split_numerators(hs, alpha)
        for part, tensor in zip(parts, decompose(hs)):
            assert {k: Fraction(v, den) for k, v in part.items()} == {
                k: v for k, v in tensor.items if k[1] < k[2]
            }
