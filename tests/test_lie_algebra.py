"""Structure-constant tables: Jacobi residuals, basis changes, splits."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homkit.lie_algebra import (
    LieAlgebra,
    ReductiveSplit,
    change_basis,
    check_reductive,
    jacobi_residual,
    worst_jacobi_triple,
)
from homkit.plane_wave import PlaneWaveData, pw_isometry_algebra

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
