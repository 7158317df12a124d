"""Exact tensor arithmetic: contraction, antisymmetrization, raising."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homkit.exact import EXACT, FLOAT
from homkit.tensor_core import (
    DOWN,
    UP,
    FrameMetric,
    Tensor,
    antisymmetrize,
    contract,
    raise_lower,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def rank3_lower(dim):
    return st.lists(
        rationals, min_size=dim**3, max_size=dim**3
    ).map(lambda comps: Tensor(dim, (DOWN, DOWN, DOWN), tuple(comps), EXACT))


def wave_structure(n, F):
    """All-lower frame components of the wave structure tensor."""
    entries = {(0, 0, 1): Fraction(-1), (0, 1, 0): Fraction(1)}
    for i in range(n):
        for j in range(n):
            if F[i][j] != 0:
                entries[(0, 2 + i, 2 + j)] = F[i][j]
            v = -Fraction(int(i == j)) - F[i][j]
            if v != 0:
                entries[(2 + i, 0, 2 + j)] = v
                entries[(2 + i, 2 + j, 0)] = -v
    return Tensor.from_entries(n + 2, (DOWN, DOWN, DOWN), entries)


class TestContract:
    def test_delta_trace_is_dimension(self):
        assert contract(Tensor.delta(3), 0, 1).components == (Fraction(3),)

    def test_wave_structure_contraction_hits_plus_component(self):
        # hand contraction of S_{++-} = -1 and S_{i+j} = -delta - F
        # against the light-cone pairing gives (n + 1) e^+
        n = 2
        F = [[Fraction(0), Fraction(1, 2)], [Fraction(-1, 2), Fraction(0)]]
        s = wave_structure(n, F)
        eta = FrameMetric.light_cone(n)
        c = contract(s, 0, 1, eta)
        assert c.components == (Fraction(3), Fraction(0), Fraction(0), Fraction(0))

    def test_antisymmetric_pair_contracts_to_zero(self):
        t = Tensor.from_entries(
            3, (DOWN, DOWN, DOWN), {(0, 1, 2): 1, (1, 0, 2): -1, (2, 0, 1): 5, (2, 1, 0): -5}
        )
        eta = FrameMetric.euclidean(3)
        assert contract(t, 0, 1, eta).is_zero()

    def test_up_down_pair_needs_no_metric(self):
        t = Tensor.from_entries(2, (UP, DOWN), {(0, 0): 2, (1, 1): 5})
        assert contract(t, 0, 1).components == (Fraction(7),)

    def test_same_valence_requires_metric(self):
        t = Tensor.zeros(2, (DOWN, DOWN))
        with pytest.raises(ValueError, match="metric required"):
            contract(t, 0, 1)

    def test_slot_out_of_range(self):
        t = Tensor.zeros(2, (DOWN, DOWN))
        with pytest.raises(ValueError, match="out of range"):
            contract(t, 0, 5, FrameMetric.euclidean(2))

    def test_result_tag_matches_input(self):
        t = Tensor.from_entries(2, (DOWN, DOWN), {(0, 1): 0.5}, tag=FLOAT)
        g = FrameMetric.euclidean(2, tag=FLOAT)
        assert contract(t, 0, 1, g).tag == FLOAT


class TestAntisymmetrize:
    def test_symmetric_matrix_dies(self):
        t = Tensor.from_entries(3, (DOWN, DOWN), {(0, 1): 2, (1, 0): 2, (2, 2): 7})
        assert antisymmetrize(t, (0, 1)).is_zero()

    def test_idempotent_on_epsilon(self):
        entries = {}
        for perm, sign in (
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
        ):
            entries[perm] = Fraction(sign)
        eps = Tensor.from_entries(3, (DOWN, DOWN, DOWN), entries)
        assert antisymmetrize(eps, (0, 1, 2)) == eps

    def test_single_entry_splits_in_half(self):
        t = Tensor.from_entries(2, (DOWN, DOWN), {(0, 1): 1})
        out = antisymmetrize(t, (0, 1))
        assert out[0, 1] == Fraction(1, 2)
        assert out[1, 0] == Fraction(-1, 2)

    def test_mixed_valence_rejected(self):
        t = Tensor.zeros(2, (UP, DOWN))
        with pytest.raises(ValueError, match="mixed valence"):
            antisymmetrize(t, (0, 1))


class TestRaiseLower:
    def test_alpha_plus_becomes_xi_minus(self):
        eta = FrameMetric.light_cone(2)
        alpha = Tensor.from_entries(4, (DOWN,), {(0,): 1})
        xi = raise_lower(alpha, 0, eta)
        assert xi.valence == (UP,)
        assert xi.components == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))

    def test_euclidean_raising_is_component_noop(self):
        g = FrameMetric.euclidean(3)
        t = Tensor.from_entries(3, (DOWN, DOWN), {(0, 1): 7, (2, 2): -2})
        assert raise_lower(t, 1, g).components == t.components

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            raise_lower(Tensor.zeros(2, (DOWN,)), 3, FrameMetric.euclidean(2))


@settings(max_examples=30, deadline=None)
@given(rank3_lower(3))
def test_lower_then_raise_restores_exactly(t):
    eta = FrameMetric.light_cone(1)
    for slot in range(3):
        up = raise_lower(t, slot, eta)
        assert raise_lower(up, slot, eta) == t


@settings(max_examples=30, deadline=None)
@given(rank3_lower(3))
def test_contract_kills_antisymmetrized_pair(t):
    eta = FrameMetric.light_cone(1)
    anti = antisymmetrize(t, (0, 1))
    assert contract(anti, 0, 1, eta).is_zero()


@settings(max_examples=20, deadline=None)
@given(rank3_lower(2), rank3_lower(2), rationals)
def test_contract_is_linear(a, b, c):
    eta = FrameMetric.euclidean(2)
    left = contract(a + b.scale(c), 0, 2, eta)
    right = contract(a, 0, 2, eta) + contract(b, 0, 2, eta).scale(c)
    assert left == right


@settings(max_examples=30, deadline=None)
@given(rank3_lower(3))
def test_antisymmetrize_is_idempotent(t):
    once = antisymmetrize(t, (0, 1, 2))
    assert antisymmetrize(once, (0, 1, 2)) == once


class TestScalarTags:
    def test_mixed_tag_addition_rejected(self):
        a = Tensor.zeros(2, (DOWN,), tag=EXACT)
        b = Tensor.zeros(2, (DOWN,), tag=FLOAT)
        with pytest.raises(ValueError, match="mixed scalar tags"):
            a + b

    def test_exact_components_reject_floats(self):
        with pytest.raises(ValueError, match="silent promotion"):
            Tensor(2, (DOWN,), (0.5, 1.0), tag=EXACT)

    def test_float_components_reject_fractions(self):
        with pytest.raises(ValueError, match="float mode"):
            Tensor(2, (DOWN,), (Fraction(1, 2), Fraction(0)), tag=FLOAT)

    def test_exact_equality_is_exact(self):
        a = Tensor.from_entries(2, (DOWN,), {(0,): Fraction(1, 3)})
        b = Tensor.from_entries(2, (DOWN,), {(0,): Fraction(2, 6)})
        assert a == b


class TestFrameMetric:
    def test_light_cone_is_self_inverse(self):
        eta = FrameMetric.light_cone(2)
        assert eta.g == eta.g_inv

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            FrameMetric.from_matrix([[1, 1], [1, 1]])

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            FrameMetric.from_matrix([[1, 2], [0, 1]])

    def test_float_inverse_validated(self):
        g = FrameMetric.from_matrix([[2.0, 0.5], [0.5, 1.0]])
        assert g.tag == FLOAT

    @pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]]],
                             ids=["wide", "tall"])
    def test_non_square_matrix_rejected(self, rows):
        with pytest.raises(ValueError, match="not square"):
            FrameMetric.from_matrix(rows)

    @pytest.mark.parametrize("which", ["g", "g_inv"])
    def test_constructor_checks_both_shapes(self, which):
        square, wide = ((1, 0), (0, 1)), ((1, 0, 0), (0, 1, 0))
        rows = {"g": square, "g_inv": square, which: wide}
        with pytest.raises(ValueError, match="must be 2 x 2"):
            FrameMetric(2, rows["g"], rows["g_inv"])


class TestJson:
    def test_round_trip_skips_zeros(self):
        t = Tensor.from_entries(3, (DOWN, DOWN, DOWN), {(0, 1, 2): Fraction(3, 7)})
        data = t.to_json()
        assert data["entries"] == {"0,1,2": "3/7"}
        assert Tensor.from_json(data) == t

    def test_valence_strings(self):
        t = Tensor.from_entries(2, (UP, DOWN), {(0, 1): 1})
        assert t.to_json()["valence"] == ["u", "d"]

    def test_float_entries_round_trip(self):
        t = Tensor.from_entries(2, (DOWN,), {(0,): 0.25}, tag=FLOAT)
        assert Tensor.from_json(t.to_json()) == t

    def test_mixed_entries_rejected(self):
        data = {"dim": 2, "rank": 1, "valence": ["d"], "entries": {"0": "1/2", "1": 0.5}}
        with pytest.raises(ValueError, match="mixed"):
            Tensor.from_json(data)


class TestEntries:
    @settings(max_examples=30, deadline=None)
    @given(rank3_lower(3))
    def test_inverse_of_from_entries(self, t):
        entries = t.entries()
        assert all(v != 0 for v in entries.values())
        assert list(entries) == sorted(entries)
        assert Tensor.from_entries(t.dim, t.valence, entries) == t

    def test_float_zeros_are_skipped(self):
        t = Tensor(2, (UP, DOWN), (0.0, -0.5, -0.0, 2.0), FLOAT)
        assert t.entries() == {(0, 1): -0.5, (1, 1): 2.0}


class TestSizeCap:
    # 101**3 fits under the 2**20 component cap; 102**3 is the smallest rank-3 overflow
    def test_zeros_names_dim_and_rank(self):
        with pytest.raises(ValueError, match=r"dim 102 and rank 3"):
            Tensor.zeros(102, (DOWN, DOWN, UP))

    def test_from_entries_checks_before_filling(self):
        with pytest.raises(ValueError, match=r"dim 102 and rank 3"):
            Tensor.from_entries(102, (DOWN, DOWN, UP), {(0, 1, 2): 1})

    def test_from_json_rejects_huge_dim(self):
        data = {"dim": 100000, "rank": 4, "valence": ["d", "d", "d", "u"], "entries": {}}
        with pytest.raises(ValueError, match=r"dim 100000 and rank 4"):
            Tensor.from_json(data)

    def test_largest_allowed_cube_builds(self):
        assert Tensor.zeros(101, (DOWN, DOWN, UP)).dim == 101


class TestIndexLength:
    def test_from_json_rejects_short_index(self):
        data = {"dim": 3, "rank": 3, "valence": ["d", "d", "d"], "entries": {"0,1": "1"}}
        with pytest.raises(ValueError, match=r"index \(0, 1\): need 3 indices, got 2"):
            Tensor.from_json(data)

    def test_from_entries_rejects_long_index(self):
        with pytest.raises(ValueError, match=r"index \(0, 1, 1\): need 2 indices"):
            Tensor.from_entries(2, (DOWN, DOWN), {(0, 1, 1): 1})

    def test_getitem_rejects_short_index(self):
        with pytest.raises(ValueError, match=r"index \(1,\): need 2 indices, got 1"):
            Tensor.zeros(2, (UP, DOWN))[1]


class TestNonFiniteJson:
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_tensor_entry_rejected(self, bad):
        data = {"dim": 2, "rank": 1, "valence": ["d"], "entries": {"0": bad}}
        with pytest.raises(ValueError, match="non-finite scalar"):
            Tensor.from_json(data)

    def test_metric_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite scalar"):
            FrameMetric.from_json([[1.0, 0.0], [0.0, float("nan")]])


# ---------------------------------------------------------------------------
# the dense index loops the sparse operations replaced, kept as references
# ---------------------------------------------------------------------------


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, cycle = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cycle += 1
        if cycle % 2 == 0:
            sign = -sign
    return sign


def dense_contract(t, slot_a, slot_b, metric):
    slot_a, slot_b = sorted((slot_a, slot_b))
    va, vb = t.valence[slot_a], t.valence[slot_b]
    pairing = None
    if va == vb:
        pairing = metric.g_inv if va == DOWN else metric.g
    new_valence = tuple(v for k, v in enumerate(t.valence) if k not in (slot_a, slot_b))
    out = Tensor.zeros(t.dim, new_valence, t.tag)
    comps = list(out.components)
    for idx in itertools.product(range(t.dim), repeat=len(new_valence)):
        total = 0.0 if t.tag == FLOAT else Fraction(0)
        for p in range(t.dim):
            for q in range(t.dim):
                if pairing is None and p != q:
                    continue
                full = list(idx)
                full.insert(slot_a, p)
                full.insert(slot_b, q)
                v = t.components[t.flat(tuple(full))]
                if pairing is not None:
                    v = pairing[p][q] * v
                total += v
        comps[out.flat(idx)] = total
    return Tensor(t.dim, new_valence, tuple(comps), t.tag)


def dense_antisymmetrize(t, slots):
    perms = list(itertools.permutations(range(len(slots))))
    weight = 1.0 / len(perms) if t.tag == FLOAT else Fraction(1, len(perms))
    comps = []
    for idx in t.indices():
        total = 0.0 if t.tag == FLOAT else Fraction(0)
        for perm in perms:
            full = list(idx)
            for pos, s in enumerate(slots):
                full[s] = idx[slots[perm[pos]]]
            v = t.components[t.flat(tuple(full))]
            total += v if _perm_sign(perm) > 0 else -v
        comps.append(weight * total)
    return Tensor(t.dim, t.valence, tuple(comps), t.tag)


def dense_raise_lower(t, slot, metric):
    lowering = t.valence[slot] == UP
    pairing = metric.g if lowering else metric.g_inv
    new_valence = list(t.valence)
    new_valence[slot] = DOWN if lowering else UP
    out = Tensor.zeros(t.dim, tuple(new_valence), t.tag)
    comps = list(out.components)
    for idx in t.indices():
        total = 0.0 if t.tag == FLOAT else Fraction(0)
        for z in range(t.dim):
            full = list(idx)
            full[slot] = z
            total += pairing[idx[slot]][z] * t.components[t.flat(tuple(full))]
        comps[out.flat(idx)] = total
    return Tensor(t.dim, tuple(new_valence), tuple(comps), t.tag)


def random_tensor(rng, dim, valence, tag, fill):
    """Fixed-seed tensor; float values span six decades, so sums depend on order."""
    comps = []
    for _ in range(dim ** len(valence)):
        if rng.random() >= fill:
            comps.append(rng.choice((0.0, -0.0)) if tag == FLOAT else Fraction(0))
        elif tag == FLOAT:
            comps.append(rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 3))
        else:
            comps.append(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return Tensor(dim, tuple(valence), tuple(comps), tag)


def lorentzian_metrics(dim, tag):
    """A diagonal, a light-cone (dim >= 2) and a dense Lorentzian metric."""
    metrics = [FrameMetric.diagonal([-1] + [1] * (dim - 1), tag)]
    if dim >= 2:
        metrics.append(FrameMetric.light_cone(dim - 2, tag))
    rows = [[(-3 if i == j == 0 else 3) if i == j else 1 for j in range(dim)] for i in range(dim)]
    if tag == FLOAT:
        rows = [[float(x) for x in row] for row in rows]
    metrics.append(FrameMetric.from_matrix(rows, tag))
    return metrics


def valence_patterns(rank):
    """All-lower, all-upper and alternating valences, without repeats, in a fixed order."""
    return list(dict.fromkeys(
        [(DOWN,) * rank, (UP,) * rank, tuple(UP if k % 2 else DOWN for k in range(rank))]
    ))


def assert_same(got, want):
    assert (got.dim, got.valence, got.tag) == (want.dim, want.valence, want.tag)
    assert got.components == want.components
    # repr also tells -0.0 from 0.0, so float components match bit for bit
    assert list(map(repr, got.components)) == list(map(repr, want.components))


CASES = [
    (tag, dim, rank, fill)
    for tag in (EXACT, FLOAT)
    for dim in range(1, 6)
    for rank in range(1, 5)
    for fill in (0.3, 1.0)
]


def case_id(case):
    tag, dim, rank, fill = case
    return f"{tag}-D{dim}-r{rank}-{'dense' if fill == 1.0 else 'sparse'}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
class TestAgainstDenseLoops:
    def test_contract_every_slot_pair(self, case):
        tag, dim, rank, fill = case
        rng = random.Random(f"contract-{case_id(case)}")
        metrics = lorentzian_metrics(dim, tag)
        for valence in valence_patterns(rank):
            t = random_tensor(rng, dim, valence, tag, fill)
            for a, b in itertools.permutations(range(rank), 2):
                for metric in metrics:
                    assert_same(contract(t, a, b, metric), dense_contract(t, a, b, metric))

    def test_raise_lower_every_slot(self, case):
        tag, dim, rank, fill = case
        rng = random.Random(f"raise-{case_id(case)}")
        metrics = lorentzian_metrics(dim, tag)
        for valence in valence_patterns(rank):
            t = random_tensor(rng, dim, valence, tag, fill)
            for slot in range(rank):
                for metric in metrics:
                    assert_same(raise_lower(t, slot, metric), dense_raise_lower(t, slot, metric))

    def test_antisymmetrize_slot_tuples(self, case):
        tag, dim, rank, fill = case
        rng = random.Random(f"antisym-{case_id(case)}")
        t = random_tensor(rng, dim, (DOWN,) * rank, tag, fill)
        # every sorted subset, its reverse (e.g. (2, 0)), and (0,) alone
        tuples = [(0,)]
        for size in range(2, rank + 1):
            for subset in itertools.combinations(range(rank), size):
                tuples += [subset, subset[::-1]]
        for slots in tuples:
            assert_same(antisymmetrize(t, slots), dense_antisymmetrize(t, slots))


@pytest.mark.parametrize("dim", [6, 7, 8])
def test_exact_rank3_antisymmetrize_past_the_dense_cases(dim):
    # the exact signed sums, at sizes TestAgainstDenseLoops skips
    rng = random.Random(f"antisym3-D{dim}")
    tensors = [random_tensor(rng, dim, (DOWN,) * 3, EXACT, fill) for fill in (0.05, 0.3)]
    big = {
        idx: Fraction(rng.randint(-9, 9), rng.choice((3, 998_244_353, 1_000_000_007)))
        for idx in itertools.product(range(dim), repeat=3)
        if rng.random() < 0.2
    }
    tensors.append(Tensor.from_entries(dim, (DOWN,) * 3, big))
    for t in tensors:
        for slots in [(0, 1, 2), (2, 0, 1), (1, 2), (2, 0)]:
            assert_same(antisymmetrize(t, slots), dense_antisymmetrize(t, slots))


@pytest.mark.parametrize("dim", [6, 7, 8])
def test_float_rank3_antisymmetrize_past_the_dense_cases(dim):
    # the float sums bit for bit, at sizes TestAgainstDenseLoops skips
    rng = random.Random(f"antisym3-float-D{dim}")
    for fill in (0.05, 0.3, 1.0):
        t = random_tensor(rng, dim, (DOWN,) * 3, FLOAT, fill)
        for slots in [(0, 1, 2), (2, 0, 1), (1, 2), (2, 0)]:
            assert_same(antisymmetrize(t, slots), dense_antisymmetrize(t, slots))


# ---------------------------------------------------------------------------
# sparse storage: the nonzero entries are the tensor, components a view
# ---------------------------------------------------------------------------


class TestSparseStorage:
    @pytest.mark.parametrize(
        "tag, dense",
        [
            (EXACT, (Fraction(0), Fraction(1, 3), 0, Fraction(-2))),
            (FLOAT, (0.0, 0.25, -0.0, -2.0)),
        ],
    )
    def test_dense_and_entries_builds_are_equal_and_hash_equal(self, tag, dense):
        a = Tensor(2, (UP, DOWN), dense, tag)
        b = Tensor.from_entries(2, (UP, DOWN), {(1, 1): dense[3], (0, 1): dense[1]}, tag)
        assert a == b and hash(a) == hash(b)
        assert a.items == b.items == (((0, 1), dense[1]), ((1, 1), dense[3]))

    def test_explicit_zeros_are_not_stored(self):
        assert Tensor.from_entries(2, (DOWN,), {(0,): 0, (1,): Fraction(0)}).items == ()
        t = Tensor.from_entries(2, (DOWN,), {(0,): -0.0, (1,): 0.0}, FLOAT)
        assert t.items == () and t == Tensor.zeros(2, (DOWN,), FLOAT)

    def test_negative_zero_reads_as_positive_zero(self):
        t = Tensor(2, (DOWN, DOWN), (-0.0, 1.5, 0.0, -0.0), FLOAT)
        assert t.items == (((0, 1), 1.5),)
        assert list(map(repr, t.components)) == ["0.0", "1.5", "0.0", "0.0"]
        assert repr(t[1, 1]) == "0.0"

    @settings(max_examples=30, deadline=None)
    @given(rank3_lower(2))
    def test_components_round_trip(self, t):
        assert len(t.components) == 8
        assert all(type(v) is Fraction for v in t.components)
        assert Tensor(t.dim, t.valence, t.components, t.tag) == t
        assert Tensor.from_entries(t.dim, t.valence, t.entries(), t.tag).components == t.components

    def test_getitem_reads_absent_entries_as_zero(self):
        t = Tensor.from_entries(3, (DOWN, UP), {(1, 2): Fraction(5)})
        assert t[1, 2] == 5
        assert t[2, 1] == 0 and type(t[2, 1]) is Fraction
        f = Tensor.from_entries(3, (DOWN,), {(1,): 2.0}, FLOAT)
        assert repr(f[0]) == "0.0" and f[1] == 2.0

    def test_arithmetic_that_cancels_stores_nothing(self):
        t = Tensor.from_entries(2, (DOWN, DOWN), {(0, 1): Fraction(1, 3), (1, 0): -1}, EXACT)
        assert (t - t).items == () and (t + (-t)).items == () and t.scale(0).items == ()
        f = Tensor.from_entries(2, (DOWN,), {(0,): 0.1, (1,): -0.2}, FLOAT)
        assert (f - f).items == () and f.scale(0.0).items == ()

    def test_merge_keeps_float_bits(self):
        a = Tensor.from_entries(3, (DOWN,), {(0,): 0.1, (1,): 0.7}, FLOAT)
        b = Tensor.from_entries(3, (DOWN,), {(1,): 0.2, (2,): 0.3}, FLOAT)
        assert (a + b).items == (((0,), 0.1), ((1,), 0.7 + 0.2), ((2,), 0.3))
        assert (a - b).items == (((0,), 0.1), ((1,), 0.7 - 0.2), ((2,), 0.0 - 0.3))

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Tensor(2, (DOWN,), (1, 2, 3)), "expected 2 components, got 3"),
            (lambda: Tensor(0, (DOWN,), ()), "dim must be positive"),
            (lambda: Tensor(2, ("x",), (1, 2)), "bad valence ('x',)"),
            (
                lambda: Tensor.from_entries(2, (DOWN,), {(2,): 1}),
                "index (2,) out of range for dim 2",
            ),
            (
                lambda: Tensor.from_entries(2, (DOWN,), {(0, 1): 1}),
                "index (0, 1): need 1 indices, got 2",
            ),
            (lambda: Tensor.from_entries(2, ("x",), {}), "bad valence ('x',)"),
            (
                lambda: Tensor.from_entries(1025, (DOWN, DOWN), {(0, 0): 1}),
                "tensor of dim 1025 and rank 2 exceeds 1048576 components",
            ),
            (lambda: Tensor.zeros(2, (DOWN,))[(1, 1)], "index (1, 1): need 1 indices, got 2"),
            (lambda: Tensor.zeros(2, (DOWN,))[2], "index (2,) out of range for dim 2"),
        ],
    )
    def test_error_texts(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
