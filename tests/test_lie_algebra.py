"""Structure-constant tables: Jacobi residuals, basis changes, splits."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homkit import lie_algebra
from homkit.exact import EXACT, FLOAT, mat_inverse
from homkit.lie_algebra import (
    LieAlgebra,
    ReductiveSplit,
    change_basis,
    check_reductive,
    jacobi_residual,
    worst_jacobi_triple,
)
from homkit.plane_wave import PlaneWaveData, pw_isometry_algebra
from homkit.reduction import assemble_algebra, generate_instance
from homkit.tensor_core import DOWN, UP, Tensor, _antisymmetry_violations

SO3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
HEISENBERG = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})


def random_wave(rng, n):
    f = [[Fraction(0)] * n for _ in range(n)]
    h = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            h[i][j] = h[j][i] = v
            if i != j:
                w = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                f[i][j], f[j][i] = w, -w
    return PlaneWaveData(n, tuple(map(tuple, f)), tuple(map(tuple, h)))


class TestJacobiResidual:
    def test_so3_is_a_lie_algebra(self):
        assert jacobi_residual(SO3)[1] == 0

    def test_heisenberg_is_a_lie_algebra(self):
        assert jacobi_residual(HEISENBERG)[1] == 0

    def test_broken_table_has_the_expected_component(self):
        # f_{01}^2 = 1 and f_{02}^0 = 1: expanding the three nested
        # brackets by hand leaves J_{012}^2 = -1
        bad = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        residual, worst = jacobi_residual(bad)
        assert residual[0, 1, 2, 2] == -1
        assert worst == 1
        assert worst_jacobi_triple(bad) == ("e0", "e1", "e2")

    def test_wave_tables_close_for_random_rational_data(self):
        rng = random.Random(2024)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                algebra = pw_isometry_algebra(random_wave(rng, n))
                assert jacobi_residual(algebra)[1] == 0


class TestChangeBasis:
    def test_identity_is_a_noop(self):
        out = change_basis(SO3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert out.f == SO3.f

    def test_permutation_relabels(self):
        # swap e0 and e1: [e1', e0'] = e2' picks up the sign flip
        p = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
        out = change_basis(SO3, p)
        assert out.bracket(0, 1) == {2: Fraction(-1)}
        assert jacobi_residual(out)[1] == 0

    def test_rescaling_so3_by_hand(self):
        # e0' = e0 / 2 under the component map diag(2, 1, 1):
        # [e0', e1'] = e2'/2, [e1', e2'] = 2 e0', [e2', e0'] = e1'/2
        out = change_basis(SO3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert out.f[0, 1, 2] == Fraction(1, 2)
        assert out.f[1, 2, 0] == Fraction(2)
        assert out.f[2, 0, 1] == Fraction(1, 2)

    def test_shear_keeps_central_bracket(self):
        # new e0 = e0 + e2 in the Heisenberg algebra leaves [e0', e1'] = e2'
        p_inv = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
        from homkit.exact import mat_inverse

        out = change_basis(HEISENBERG, mat_inverse(p_inv))
        assert out.bracket(0, 1) == {2: Fraction(1)}

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            change_basis(SO3, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_any_invertible_map_preserves_jacobi_state(p):
    broken = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    try:
        out = change_basis(SO3, p)
    except ValueError:
        return  # singular draw
    assert jacobi_residual(out)[1] == 0
    assert jacobi_residual(change_basis(broken, p))[1] != 0


class TestCheckReductive:
    def test_abelian_any_split(self):
        abelian = LieAlgebra.from_brackets(4, {})
        report = check_reductive(abelian, ReductiveSplit((0, 1), (2, 3)))
        assert report.is_reductive
        assert report.h_prime == ()

    def test_wave_table_splits(self):
        pw = PlaneWaveData(2, ((0, Fraction(1, 2)), (Fraction(-1, 2), 0)),
                           ((1, 0), (0, 1)))
        algebra = pw_isometry_algebra(pw)
        # boosts as h: [Xb_i, m] stays tangent and the boosts commute,
        # which is exactly the split the algebra reconstruction uses
        boost_split = check_reductive(algebra, ReductiveSplit((0, 1, 2, 3), (4, 5)))
        assert boost_split.is_reductive
        assert boost_split.h_prime_dim == 2
        # swapping the transverse generators into h breaks both conditions
        swapped = check_reductive(algebra, ReductiveSplit((0, 1, 4, 5), (2, 3)))
        assert not swapped.is_reductive
        assert swapped.hh_violations  # [X1, X2] = 2 F_12 V leaks into m
        assert swapped.hm_violations  # [X_i, U] leaks into h

    def test_so3_split_recovers_h(self):
        report = check_reductive(SO3, ReductiveSplit((0, 1), (2,)))
        assert report.is_reductive
        assert report.h_prime == ((Fraction(0), Fraction(0), Fraction(1)),)

    def test_invariant_under_block_preserving_change(self):
        p = [[2, 1, 0], [1, 1, 0], [0, 0, 3]]  # preserves the m/h block split
        out = change_basis(SO3, p)
        before = check_reductive(SO3, ReductiveSplit((0, 1), (2,)))
        after = check_reductive(out, ReductiveSplit((0, 1), (2,)))
        assert before.is_reductive == after.is_reductive
        assert before.h_prime_dim == after.h_prime_dim

    def test_overlapping_split_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ReductiveSplit((0, 1), (1, 2))

    def test_split_must_cover(self):
        with pytest.raises(ValueError, match="cover"):
            check_reductive(SO3, ReductiveSplit((0,), (2,)))


class TestJson:
    def test_round_trip(self):
        data = SO3.to_json()
        assert set(data["brackets"]) == {"0,1", "1,2", "0,2"}
        assert LieAlgebra.from_json(data).f == SO3.f

    def test_only_lower_pairs_stored(self):
        data = SO3.to_json()
        for key in data["brackets"]:
            a, b = key.split(",")
            assert int(a) < int(b)

    def test_bad_pair_order_rejected(self):
        with pytest.raises(ValueError, match="a < b"):
            LieAlgebra.from_json({"dim": 2, "brackets": {"1,0": {"0": "1"}}})

    @pytest.mark.parametrize("first, second", [("1", 1.0), (1.0, "1")])
    def test_mixed_exact_and_float_rejected(self, first, second):
        # the same message whichever kind comes first, naming the bracket
        data = {"dim": 3, "brackets": {"0,1": {"2": first}, "1,2": {"0": second}}}
        with pytest.raises(ValueError, match=r"mixed exact and float entries \(bracket '1,2'\)"):
            LieAlgebra.from_json(data)

    def test_antisymmetry_enforced_on_build(self):
        from homkit.tensor_core import DOWN, UP, Tensor

        f = Tensor.from_entries(2, (DOWN, DOWN, UP), {(0, 1, 0): 1})
        with pytest.raises(ValueError, match="antisymmetric"):
            LieAlgebra(("a", "b"), f)


# -- dense references for the sparse readers ----------------------------------


def dense_table(algebra):
    n, f = algebra.dim, algebra.f
    return [[[f[a, b, c] for c in range(n)] for b in range(n)] for a in range(n)]


def dense_jacobi(algebra):
    """Every nonzero J_{abc}^d by a loop over all four indices of f[a, b, c]."""
    t, r = dense_table(algebra), range(algebra.dim)
    # B_{abc}^d = sum_e f_{ab}^e f_{ec}^d, so J_{abc}^d = B_{abc}^d + B_{bca}^d + B_{cab}^d
    nested = {}
    for a, b, c, d in itertools.product(r, repeat=4):
        nested[a, b, c, d] = sum(t[a][b][e] * t[e][c][d] for e in r if t[a][b][e])
    out = {}
    for a, b, c, d in itertools.product(r, repeat=4):
        v = nested[a, b, c, d] + nested[b, c, a, d] + nested[c, a, b, d]
        if v != 0:
            out[(a, b, c, d)] = v
    return out


def dense_change_basis(t, p, p_inv):
    """f'_{ab}^c = sum P^{-1}_{ma} P^{-1}_{nb} P_{ck} f_{mn}^k on a nested table."""
    r = range(len(t))
    t = [[[sum(p_inv[m][a] * t[m][b][c] for m in r) for c in r] for b in r] for a in r]
    t = [[[sum(p_inv[m][b] * t[a][m][c] for m in r) for c in r] for b in r] for a in r]
    return [[[sum(p[c][k] * t[a][b][k] for k in r) for c in r] for b in r] for a in r]


def from_table(t, tag):
    n = len(t)
    entries = {(a, b, c): t[a][b][c] for a, b, c in itertools.product(range(n), repeat=3)
               if t[a][b][c] != 0}
    f = Tensor.from_entries(n, (DOWN, DOWN, UP), entries, tag)
    return LieAlgebra(tuple(f"x{i}" for i in range(n)), f)


def unimodular(rng, n):
    """A product of n random shears: an integer P with an integer inverse."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        (i, j), s = rng.sample(range(n), 2), rng.choice((-1, 1))
        p[i] = [x + s * y for x, y in zip(p[i], p[j])]
    p_inv = mat_inverse(p)
    assert all(x.denominator == 1 for row in p_inv for x in row)
    return p, [[int(x) for x in row] for row in p_inv]


def random_tables():
    """48 tables at dims 2-9, half perturbed off a Lie algebra, every 12th float.

    The unperturbed table is R x_A R^(n-1), [e0, ei] = sum_j A_ji e_j, which
    is a Lie algebra for any A, written in a random unimodular basis.
    Float tables use quarter-integers, so every float sum in them is exact.
    """
    rng = random.Random(31)

    def draw(tag):
        if tag == FLOAT:
            return rng.randint(-8, 8) / 4
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    for k in range(48):
        tag = FLOAT if k % 12 == 11 else EXACT
        n = 5 if tag == FLOAT else 2 + k % 8
        zero = 0.0 if tag == FLOAT else Fraction(0)
        t = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for i, j in itertools.product(range(1, n), repeat=2):
            if rng.random() < 0.5:
                t[0][i][j] = draw(tag)
                t[i][0][j] = -t[0][i][j]
        p, p_inv = unimodular(rng, n)
        t = dense_change_basis(t, p, p_inv)
        if (k + k // 8) % 2:
            for _ in range(2):
                a, b = rng.sample(range(n), 2)
                c = rng.randrange(n)
                v = draw(tag) or 1
                t[a][b][c] += v
                t[b][a][c] -= v
        yield from_table(t, tag)


P1, P2 = 1_000_000_007, 999_999_937


def large_denominator_tables():
    """12 exact wave tables at dims 4-8 with large-denominator data, two
    thirds of them perturbed off a Lie algebra.

    Profile entries, rotation entries and perturbations have denominators
    1_000_000_007, 999_999_937, their product and small ones, so the lcm
    of a table's denominators is large and its entries differ in it.
    """
    rng = random.Random(43)
    dens = (1, 2, 3, P1, P2, P1 * P2)

    def draw():
        return Fraction(rng.randint(-6, 6) * rng.choice((1, P2)), rng.choice(dens))

    for k in range(12):
        n = 1 + k % 3
        f = [[Fraction(0)] * n for _ in range(n)]
        h = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h[i][j] = h[j][i] = draw()
                if i != j:
                    w = draw()
                    f[i][j], f[j][i] = w, -w
        t = dense_table(pw_isometry_algebra(PlaneWaveData(n, f, h)))
        for _ in range(k % 3):
            a, b = rng.sample(range(2 * n + 2), 2)
            c = rng.randrange(2 * n + 2)
            v = Fraction(rng.randint(1, 999), rng.choice((P1, P2, P1 * P2)))
            t[a][b][c] += v
            t[b][a][c] -= v
        yield from_table(t, EXACT)


def dense_prime_tables():
    """4 exact tables at dims 10-14 over large prime denominators.

    At dims 10 and 12: the R x_A R^(n-1) of ``random_tables`` in a random
    unimodular basis, a Lie algebra whose residual cancels across many
    products.  At dims 11 and 14: random antisymmetric tables, which
    fail at many entries.
    """
    rng = random.Random(47)
    dens = (1, 3, P1, P2, P1 * P2)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    for n in (10, 11, 12, 14):
        t = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        if n in (11, 14):
            for a, b, c in itertools.product(range(n), repeat=3):
                if a < b and rng.random() < 0.1:
                    t[a][b][c] = draw()
                    t[b][a][c] = -t[a][b][c]
        else:
            for i, j in itertools.product(range(1, n), repeat=2):
                if rng.random() < 0.25:
                    t[0][i][j] = draw()
                    t[i][0][j] = -t[0][i][j]
            t = dense_change_basis(t, *unimodular(rng, n))
        yield from_table(t, EXACT)


def float_tables():
    """6 random float tables at dims 3-8 with non-dyadic entries, so
    the order of each residual's sum shows in its last bits."""
    rng = random.Random(53)
    for k in range(6):
        n = 3 + k
        rows = {}
        for a, b in itertools.combinations(range(n), 2):
            if rng.random() < 0.6:
                rows[(a, b)] = {c: rng.uniform(-1, 1) / 3 for c in range(n) if rng.random() < 0.5}
        yield LieAlgebra.from_brackets(n, rows, tag=FLOAT)


def accumulated_jacobi(algebra):
    """The float sum every bracket table used before the sorted-triple
    kernel: each product of ordered rows added to three keys in turn."""
    rows, acc = algebra._rows, {}
    for (a, b), row in rows.items():
        for e, fab in row.items():
            for c in range(algebra.dim):
                for d, fec in rows.get((e, c), {}).items():
                    v = fab * fec
                    for key in ((a, b, c, d), (b, c, a, d), (c, a, b, d)):
                        acc[key] = acc.get(key, 0) + v
    entries = {key: acc[key] for key in sorted(acc) if acc[key] != 0}
    return entries, max([0.0, *map(abs, entries.values())])


class TestSparseReaders:
    def test_large_denominator_jacobi_matches_dense_reference(self):
        failing = 0
        for algebra in itertools.chain(large_denominator_tables(), dense_prime_tables()):
            ref = dense_jacobi(algebra)
            entries, worst = jacobi_residual(algebra)
            assert entries == ref
            assert list(entries) == sorted(entries)
            assert all(type(v) is Fraction for v in entries.values())
            assert type(worst) is Fraction
            assert worst == max(map(abs, ref.values()), default=0)
            if ref:
                first = min(k for k, v in ref.items() if abs(v) == worst)
                assert worst_jacobi_triple(algebra) == tuple(algebra.labels[i] for i in first[:3])
                failing += 1
            else:
                assert worst_jacobi_triple(algebra) is None
        assert failing >= 8

    def test_float_jacobi_is_bit_identical_to_accumulation(self):
        failing = 0
        for algebra in float_tables():
            entries, worst = jacobi_residual(algebra)
            ref, ref_worst = accumulated_jacobi(algebra)
            assert [(k, repr(v)) for k, v in entries.items()] == [(k, repr(v)) for k, v in ref.items()]
            assert repr(worst) == repr(ref_worst)
            failing += bool(ref)
        assert failing >= 5

    def test_jacobi_entries_match_dense_reference(self):
        failing = 0
        for algebra in random_tables():
            ref = dense_jacobi(algebra)
            entries, worst = jacobi_residual(algebra)
            assert entries == ref
            assert list(entries) == sorted(entries)
            ref_worst = max(map(abs, ref.values()), default=0)
            assert worst == ref_worst
            assert type(worst) is (float if algebra.tag == FLOAT else Fraction)
            if ref:
                first = min(k for k, v in ref.items() if abs(v) == ref_worst)
                assert worst_jacobi_triple(algebra) == tuple(algebra.labels[i] for i in first[:3])
                failing += 1
            else:
                assert worst_jacobi_triple(algebra) is None
        assert failing >= 18  # the perturbed dim-2 tables cannot fail

    def test_change_basis_matches_dense_formula(self):
        rng = random.Random(5)
        for algebra in itertools.islice(random_tables(), 0, None, 3):
            if algebra.tag == FLOAT:
                continue
            n = algebra.dim
            while True:
                p = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                     for _ in range(n)]
                try:
                    p_inv = mat_inverse(p)
                    break
                except ValueError:
                    continue
            expected = dense_change_basis(dense_table(algebra), p, p_inv)
            assert change_basis(algebra, p).f == from_table(expected, EXACT).f

    def test_exact_change_basis_builds_no_fraction(self, monkeypatch):
        # P^-1 is read as integer rows over one denominator, not as Fractions
        algebra = assemble_algebra(generate_instance("deg", 3, 1))
        n = algebra.dim
        p = [[Fraction(int(i == j) + (j == i + 1), 1 + (i == j)) for j in range(n)] for i in range(n)]
        want = change_basis(algebra, p)
        built, real = [], Fraction.__new__

        def counted(cls, *args, **kw):
            built.append(args)
            return real(cls, *args, **kw)

        monkeypatch.setattr(Fraction, "__new__", counted)
        got = change_basis(algebra, p)
        monkeypatch.undo()
        assert built == [] and got.f == want.f

    @pytest.mark.parametrize(
        "dim, entries, where",
        [
            # messages recorded from the dense D^3 scan this check replaced
            (3, {(1, 2, 0): 1, (0, 2, 1): 5, (0, 2, 0): 2, (2, 0, 0): -2}, "(0,2)^1"),
            (3, {(2, 1, 0): 1, (2, 0, 1): 3}, "(0,2)^1"),
            (4, {(3, 3, 1): 1, (1, 3, 2): 2, (3, 1, 2): -2, (2, 3, 0): 1}, "(2,3)^0"),
            (3, {(0, 1, 2): 1, (1, 0, 2): 1, (1, 1, 0): 7}, "(0,1)^2"),
            (3, {(1, 1, 0): 2, (1, 2, 0): 1}, "(1,1)^0"),
        ],
    )
    def test_first_antisymmetry_violation_is_named(self, dim, entries, where):
        f = Tensor.from_entries(dim, (DOWN, DOWN, UP), entries)
        labels = tuple(f"x{i}" for i in range(dim))
        with pytest.raises(ValueError) as exc:
            LieAlgebra(labels, f)
        assert str(exc.value) == f"structure constants not antisymmetric at {where}"


class TestTablesBuiltAntisymmetric:
    """The wave table, the assembled ansatz tables and exact ``from_brackets``
    tables with every key a < b write each mirror as the negated numerator,
    so they skip the antisymmetry check; these tests check them instead."""

    @staticmethod
    def builds(rng):
        n = rng.randint(1, 4)
        yield pw_isometry_algebra(random_wave(rng, n))
        yield assemble_algebra(generate_instance(rng.choice(("deg", "nondeg")), n, rng.randrange(1000)))
        dim = rng.randint(2, 6)
        keys = rng.sample(list(itertools.combinations(range(dim), 2)), rng.randint(0, dim))
        brackets = {k: {c: Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                        for c in rng.sample(range(dim), rng.randint(1, dim))} for k in keys}
        yield LieAlgebra.from_brackets(dim, brackets)

    @pytest.mark.parametrize("seed", range(25))
    def test_unchecked_tables_are_antisymmetric(self, seed, monkeypatch):
        calls = []
        monkeypatch.setattr(lie_algebra, "_antisymmetry_violations",
                            lambda *args: calls.append(1) or _antisymmetry_violations(*args))
        built = list(self.builds(random.Random(seed)))
        assert calls == []
        for algebra in built:
            assert _antisymmetry_violations(dict(algebra.f.nums), 0, 1) == []
            checked = LieAlgebra(algebra.labels, algebra.f)
            assert checked == algebra and checked._rows == algebra._rows

    def test_a_key_with_a_above_b_is_checked(self):
        with pytest.raises(ValueError) as exc:
            LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 0): {2: 1}})
        assert str(exc.value) == "structure constants not antisymmetric at (0,1)^2"
        # a consistent a > b key passes the check
        assert LieAlgebra.from_brackets(3, {(1, 0): {2: -1}}) == HEISENBERG
