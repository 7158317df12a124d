"""Tensor._sparse and the one-pass sums against the sort-then-filter reference.

Tensor._sparse sorts only the nonzero keys and reduces a given den by
one gcd; `-` and the private tensor_core._sum add every term into one
dict and build one Tensor.  The reference below is the constructor
they replaced: sort the (index, value) pairs, drop the zeros after the
sort, take the gcd through a generator, and subtract as `a + (-b)`.
Seeded random inputs cover exact ints over a den with a common factor,
Fraction dicts with den=None, floats with -0.0, nan and inf, and
presorted, reversed, shuffled and empty insertion orders.  nums (a
float compared by its bits), den, ==, hash and to_json must all agree.
A nan compares as any nan: IEEE 754 leaves the sign of a nan result
open, and CPython's float add can return either operand's nan
depending on which of its code paths ran.
"""

import itertools
import json
import math
import random
import struct
from fractions import Fraction

import pytest

from homkit.exact import EXACT, FLOAT, integer_numerators
from homkit.tensor_core import DOWN, Tensor, _sum


def ref_sparse(dim, valence, entries, tag, den=None):
    """The constructor as it was: a sort of the pairs, then the zero filter."""
    t = Tensor.__new__(Tensor)
    pairs = [p for p in sorted(entries.items()) if p[1] != 0]
    if tag != EXACT:
        den = 1
    elif den is None:
        nums, den = integer_numerators(v for _, v in pairs)
        pairs = [(idx, v) for (idx, _), v in zip(pairs, nums)]
    elif (g := math.gcd(den, *(v for _, v in pairs))) > 1:
        den, pairs = den // g, [(idx, v // g) for idx, v in pairs]
    vars(t).update(dim=dim, valence=valence, nums=tuple(pairs), den=den, tag=tag)
    return t


def ref_add(a, b):
    den = math.lcm(a.den, b.den)
    x, y = den // a.den, den // b.den
    out = {idx: x * v for idx, v in a.nums}
    for idx, v in b.nums:
        out[idx] = out[idx] + y * v if idx in out else y * v
    return ref_sparse(a.dim, a.valence, out, a.tag, den)


def ref_neg(a):
    return ref_sparse(a.dim, a.valence, {idx: -v for idx, v in a.nums}, a.tag, a.den)


def bits(t):
    """t's fields with every float but a nan replaced by its IEEE 754 bits."""
    key = lambda v: ("nan" if v != v else struct.pack("<d", v)) if type(v) is float else v
    return t.dim, t.valence, tuple((idx, key(v)) for idx, v in t.nums), t.den, t.tag


def assert_identical(new, ref):
    assert bits(new) == bits(ref)
    # a float nan is kept in to_json, and equals no nan, so the JSON text is compared
    assert json.dumps(new.to_json()) == json.dumps(ref.to_json())
    # nor does a nan object hash as another one does: such tensors are compared by their bits only
    if all(v == v for _, v in ref.nums):
        assert new == ref and hash(new) == hash(ref)


def ordered(entries, order, rng):
    """entries reinserted presorted, reversed or shuffled; an empty dict for 'empty'."""
    items = sorted(entries.items())
    if order == "reversed":
        items.reverse()
    elif order == "shuffled":
        rng.shuffle(items)
    elif order == "empty":
        items = []
    return dict(items)


def random_keys(rng, dim, rank, fill):
    return [idx for idx in itertools.product(range(dim), repeat=rank) if rng.random() < fill]


FLOATS = (-0.0, 0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 1.5, -2.25, 1e-300, 3.0)


def random_values(rng, kind, n):
    if kind == "ints":
        return [rng.choice((0, 0, 1, -1, 6, -12, 35, 210, 10**12)) for _ in range(n)]
    if kind == "fractions":
        return [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 9, 10**9 + 7))) for _ in range(n)]
    return [rng.choice(FLOATS) for _ in range(n)]


CASES = [(kind, order) for kind in ("ints", "fractions", "floats")
         for order in ("presorted", "reversed", "shuffled", "empty")]


@pytest.mark.parametrize("kind, order", CASES)
@pytest.mark.parametrize("seed", range(12))
def test_sparse_matches_the_sort_then_filter_reference(kind, order, seed):
    rng = random.Random(f"{kind}:{order}:{seed}")
    dim, rank = rng.randint(1, 4), rng.randint(0, 4)
    keys = random_keys(rng, dim, rank, rng.choice((0.2, 0.6, 1.0)))
    entries = ordered(dict(zip(keys, random_values(rng, kind, len(keys)))), order, rng)
    valence = (DOWN,) * rank
    tag = FLOAT if kind == "floats" else EXACT
    if kind == "ints":
        # numerators over a den sharing a factor with all of them, or with none
        for den in (1, 6, 35, 2 * 3 * 5 * 7, 10**12 + 1):
            assert_identical(Tensor._sparse(dim, valence, entries, tag, den),
                             ref_sparse(dim, valence, entries, tag, den))
    else:
        assert_identical(Tensor._sparse(dim, valence, entries, tag),
                         ref_sparse(dim, valence, entries, tag))


def random_tensor(rng, kind, dim, rank, keys):
    tag = FLOAT if kind == "floats" else EXACT
    entries = dict(zip(keys, random_values(rng, "floats" if tag == FLOAT else "fractions", len(keys))))
    return Tensor._sparse(dim, (DOWN,) * rank, entries, tag)


@pytest.mark.parametrize("kind", ("fractions", "floats"))
@pytest.mark.parametrize("seed", range(40))
def test_sub_and_sums_match_the_chain_of_adds_of_negations(kind, seed):
    rng = random.Random(f"sub:{kind}:{seed}")
    dim, rank = rng.randint(1, 4), rng.randint(1, 3)
    terms = [random_tensor(rng, kind, dim, rank, random_keys(rng, dim, rank, 0.5)) for _ in range(4)]
    a, b, c, d = terms
    assert_identical(a - b, ref_add(a, ref_neg(b)))
    # b - b and a - (a + b) cancel exactly, leaving zeros the constructor drops
    assert_identical(b - b, ref_add(b, ref_neg(b)))
    assert_identical(a - (a + b), ref_add(a, ref_neg(ref_add(a, b))))
    chain = ref_add(ref_add(ref_add(a, b), ref_neg(c)), ref_neg(d))
    assert_identical(_sum((a, b), (c, d)), chain)
    assert_identical(_sum((a, b, c)), ref_add(ref_add(a, b), c))
    assert_identical(a + b, ref_add(a, b))


def test_sum_refuses_what_add_refuses():
    t = Tensor.from_entries(2, (DOWN,), {(0,): 1})
    with pytest.raises(TypeError, match="expected a Tensor"):
        t - 1
    with pytest.raises(ValueError, match="tensor shapes differ"):
        _sum((t,), (Tensor.zeros(3, (DOWN,)),))
    with pytest.raises(ValueError, match="mixed scalar tags"):
        _sum((t, Tensor.zeros(2, (DOWN,), FLOAT)))
