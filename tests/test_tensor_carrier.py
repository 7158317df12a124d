"""The exact carrier of Tensor: int numerators over one positive denominator.

However an exact tensor is built, it stores sorted nonzero int
numerators with gcd(den, *numerators) == 1 over a positive den, so ==
and hash are value equality; a float tensor stores its floats over 1,
and an exact LieAlgebra's rows hold only ints.  Random tensors at
D = 2..6, with denominators up to 1e9 + 7 and entries that cancel to
zero, check this for every constructor and operation; the values
themselves are checked against the Fraction loops in
test_numerator_paths.py.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from homkit.exact import EXACT, FLOAT
from homkit.hom_structure import HomogeneousStructure, decompose, trace_one_form
from homkit.lie_algebra import LieAlgebra, change_basis
from homkit.plane_wave import PlaneWaveData, exact_curvature, pw_isometry_algebra
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor, antisymmetrize, contract, raise_lower

DENS = (1, 2, 3, 6, 7, 999_999_937, 1_000_000_007)


def assert_carrier(t):
    indices = [idx for idx, _ in t.nums]
    assert indices == sorted(set(indices))
    if t.tag == FLOAT:
        assert t.den == 1 and all(type(v) is float and v != 0 for _, v in t.nums)
        return
    assert type(t.den) is int and t.den > 0
    assert all(type(v) is int and v != 0 for _, v in t.nums)
    assert math.gcd(t.den, *(v for _, v in t.nums)) == 1


def assert_same(tensors):
    for t in tensors:
        assert_carrier(t)
        assert t == tensors[0] and hash(t) == hash(tensors[0])


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(DENS))


def random_entries(rng, dim, rank, fill=0.4):
    return {idx: rand_fraction(rng) for idx in itertools.product(range(dim), repeat=rank)
            if rng.random() < fill}


def random_metric(rng, dim):
    return FrameMetric.diagonal([rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.choice(DENS))
                                 for _ in range(dim)])


@pytest.mark.parametrize("seed", range(40))
def test_every_constructor_gives_one_carrier(seed):
    rng = random.Random(seed)
    dim, rank = 2 + seed % 5, 1 + seed % 3
    valence = (DOWN,) * rank
    entries = random_entries(rng, dim, rank)
    t = Tensor.from_entries(dim, valence, entries)
    dense = [entries.get(idx, 0) for idx in itertools.product(range(dim), repeat=rank)]
    # numerators over a multiple of the lcm, with explicit zeros, must be reduced
    den = math.lcm(1, *(v.denominator for v in entries.values())) * rng.choice((1, 2, 35))
    nums = {idx: v.numerator * (den // v.denominator) for idx, v in entries.items()}
    nums[(0,) * rank] = nums.get((0,) * rank, 0)
    # u cancels about half of t's entries to zero
    u = Tensor.from_entries(dim, valence, {
        idx: -v if rng.random() < 0.5 else rand_fraction(rng) for idx, v in entries.items()})
    q = rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.choice(DENS))
    assert_same([t, Tensor(dim, valence, dense), Tensor._sparse(dim, valence, nums, EXACT, den),
                 (t + u) - u, t.scale(q).scale(1 / q), -(-t)])
    assert_same([t - t, t + (-t), t.scale(0), Tensor.zeros(dim, valence)])
    assert_carrier(t + u)
    assert dict(t.items) == {idx: v for idx, v in entries.items() if v}


@pytest.mark.parametrize("seed", range(10))
def test_float_tensors_sit_over_one(seed):
    rng = random.Random(seed)
    dim = 2 + seed % 5
    entries = {idx: float(v) for idx, v in random_entries(rng, dim, 3).items()}
    t = Tensor.from_entries(dim, (UP, DOWN, DOWN), entries, FLOAT)
    metric = FrameMetric.euclidean(dim, FLOAT)
    for got in (t, t - t, t + t, t.scale(0.5), -t, contract(t, 0, 1), raise_lower(t, 1, metric),
                antisymmetrize(t, (1, 2))):
        assert_carrier(got)
    assert t.items == t.nums


@pytest.mark.parametrize("seed", range(12))
def test_operations_keep_the_carrier(seed):
    rng = random.Random(seed)
    dim = 2 + seed % 5
    metric = random_metric(rng, dim)
    t = Tensor.from_entries(dim, (UP, DOWN, DOWN), random_entries(rng, dim, 3))
    low = raise_lower(t, 0, metric)
    hs = HomogeneousStructure(metric, antisymmetrize(low, (1, 2)))
    for got in (contract(t, 0, 1), contract(t, 1, 2, metric), low, raise_lower(low, 0, metric),
                antisymmetrize(t, (1, 2)), antisymmetrize(low, (0, 1, 2)), hs.S,
                *decompose(hs), *trace_one_form(hs)[:2]):
        assert_carrier(got)
    assert sum(decompose(hs)[1:], decompose(hs)[0]) == hs.S


@pytest.mark.parametrize("seed", range(8))
def test_lie_algebra_rows_hold_ints(seed):
    rng = random.Random(seed)
    dim = 2 + seed % 5
    brackets = {(a, b): {c: rand_fraction(rng) for c in range(dim) if rng.random() < 0.5}
                for a, b in itertools.combinations(range(dim), 2)}
    algebra = LieAlgebra.from_brackets(dim, brackets)
    p = [[Fraction(int(i == j)) + (rand_fraction(rng) if j > i else 0) for j in range(dim)]
         for i in range(dim)]
    n = 1 + seed % 3
    f = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        f[i][j] = rand_fraction(rng)
        f[j][i] = -f[i][j]
    h = [[Fraction(int(i == j), 3) for j in range(n)] for i in range(n)]
    pw = PlaneWaveData(n, f, h)
    for alg in (algebra, change_basis(algebra, p), pw_isometry_algebra(pw)):
        assert_carrier(alg.f)
        assert all(type(v) is int for row in alg._rows.values() for v in row.values())
    assert algebra.bracket(0, 1) == {c: v for c, v in brackets[(0, 1)].items() if v}
    assert_carrier(exact_curvature(pw, Fraction(1, 3), [Fraction(1, 2)] * n).Rbar)
