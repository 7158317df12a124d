"""The integer elimination kernel against the Fraction loops it replaced.

``row_reduce``, ``solve_in_span``, ``span_coordinates``, exact
``mat_inverse`` and the integer inverse ``_inverse_numerators`` (which
``wave_curvature._inverse`` runs on SparseArray numerators) all run on
``exact._echelon``, which keeps primitive integer rows.  Each is
compared here with a plain Gauss-Jordan on ``Fraction``s, kept as a
test-local reference, on random matrices with zero, duplicate and
dependent rows, singular and rank-deficient ones, negative pivots and
denominators up to 10**9 + 7; ``span_coordinates`` and the integer
inverse take and give integer rows, so their results are read back as
Fractions first.  ``reduction._span_closure``, which inserts one row at
a time, is compared with a full re-reduction after every addition.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from test_exact_array import fractions, sparse

from homkit.exact import (
    EXACT,
    _inverse_numerators,
    integer_numerators,
    mat_inverse,
    row_reduce,
    solve_in_span,
    span_coordinates,
)
from homkit.wave_curvature import SparseArray, _inverse
from homkit.reduction import _array, _freeze, _span_closure

BIG = 10**9 + 7


def ref_row_reduce(rows):
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    basis, pivots = [], []
    ncols = len(rows[0]) if rows else 0
    for row in work:
        for b, p in zip(basis, pivots):
            if row[p] != 0:
                f = row[p]
                row = [x - f * y for x, y in zip(row, b)]
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        for i, (b, p) in enumerate(zip(basis, pivots)):
            if b[lead] != 0:
                f = b[lead]
                basis[i] = [x - f * y for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def ref_solve_in_span(basis_rows, pivots, target):
    residual = list(target)
    coeffs = []
    for row, p in zip(basis_rows, pivots):
        c = residual[p]
        coeffs.append(c)
        if c != 0:
            residual = [x - c * y for x, y in zip(residual, row)]
    if any(x != 0 for x in residual):
        return None
    return coeffs


def ref_span_coordinates(vectors, targets):
    k = len(vectors)
    tagged = [list(v) + [Fraction(int(p == q)) for q in range(k)] for p, v in enumerate(vectors)]
    rows, pivots = ref_row_reduce(tagged)
    n = len(rows[0]) - k if rows else 0
    if any(p >= n for p in pivots):
        raise ValueError("vectors are linearly dependent")
    heads = [row[:n] for row in rows]
    tails = [row[n:] for row in rows]
    out = []
    for target in targets:
        a = ref_solve_in_span(heads, pivots, target)
        if a is not None:
            a = [sum(x * t[p] for x, t in zip(a, tails)) for p in range(k)]
        out.append(a)
    return out


def ref_mat_inverse(a):
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    work = [[Fraction(x) for x in row] for row in a]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f != 0:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def scalar(rng, zero_frac=0.4):
    if rng.random() < zero_frac:
        return Fraction(0)
    den = rng.choice((1, 2, 3, 7, 12, BIG))
    return Fraction(rng.randint(-BIG, BIG) if den == BIG else rng.randint(-9, 9), den)


def messy_rows(rng, m, n):
    """m random rows of length n with zero, duplicate, negated and dependent rows mixed in."""
    rows = []
    for _ in range(m):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append([Fraction(0)] * n)
        elif rows and kind < 0.3:
            rows.append([-x for x in rng.choice(rows)])
        elif len(rows) > 1 and kind < 0.5:
            a, b = rng.sample(rows, 2)
            c = scalar(rng, 0.0)
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([scalar(rng) for _ in range(n)])
    rng.shuffle(rows)
    return rows


def combine(coeffs, vectors, n):
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0)) for i in range(n)]


SHAPES = [(seed, m, n) for seed in range(4) for m, n in ((1, 1), (2, 3), (4, 4), (6, 3), (5, 8))]


@pytest.mark.parametrize("seed,m,n", SHAPES)
def test_row_reduce_matches_the_fraction_loop(seed, m, n):
    rng = random.Random(seed * 100 + m * 10 + n)
    rows = messy_rows(rng, m, n)
    got = row_reduce(rows)
    assert got == ref_row_reduce(rows)
    assert all(type(x) is Fraction for row in got[0] for x in row)


def test_row_reduce_of_nothing():
    assert row_reduce([]) == ([], [])
    assert row_reduce([[0, 0], [Fraction(0), 0]]) == ([], [])


@pytest.mark.parametrize("seed,m,n", SHAPES)
def test_solve_in_span_matches_the_fraction_loop(seed, m, n):
    rng = random.Random(seed * 100 + m * 10 + n + 1)
    rows, pivots = ref_row_reduce(messy_rows(rng, m, n))
    targets = [combine([scalar(rng) for _ in rows], rows, n) for _ in range(3)]
    targets += [[scalar(rng) for _ in range(n)] for _ in range(3)]
    for t in targets:
        assert solve_in_span(rows, pivots, t) == ref_solve_in_span(rows, pivots, t)
    assert solve_in_span([], [], [Fraction(0)] * n) == []


def fraction_coordinates(vectors, targets):
    """span_coordinates on Fraction rows scaled to integers by one common
    factor, which leaves every coefficient as it is; read back as Fractions."""
    *rows, _ = integer_numerators(*vectors, *targets)
    got = span_coordinates(rows[: len(vectors)], rows[len(vectors) :])
    for coeffs, den in filter(None, got):
        assert all(type(x) is int for x in coeffs) and type(den) is int
        assert den > 0 and math.gcd(den, *coeffs) == 1
    return [row and [Fraction(x, row[1]) for x in row[0]] for row in got]


@pytest.mark.parametrize("seed,k,n", [(s, k, n) for s in range(4) for k, n in ((0, 3), (1, 1), (2, 4), (4, 4), (3, 7))])
def test_span_coordinates_matches_the_fraction_loop(seed, k, n):
    rng = random.Random(seed * 100 + k * 10 + n)
    vectors = []
    while len(vectors) < k:
        v = [scalar(rng) for _ in range(n)]
        if len(ref_row_reduce(vectors + [v])[0]) > len(vectors):
            vectors.append(v)
    targets = [combine([scalar(rng) for _ in range(k)], vectors, n) for _ in range(3)]
    targets += [[scalar(rng) for _ in range(n)] for _ in range(3)]
    assert fraction_coordinates(vectors, targets) == ref_span_coordinates(vectors, targets)


@pytest.mark.parametrize("seed,k,n", [(s, k, n) for s in range(4) for k, n in ((1, 2), (2, 3), (3, 5))])
def test_span_coordinates_on_integer_rows(seed, k, n):
    rng = random.Random(seed * 100 + k * 10 + n + 7)
    vectors = []
    while len(vectors) < k:
        v = [rng.choice((0, 0, rng.randint(-BIG, BIG))) for _ in range(n)]
        if len(ref_row_reduce(vectors + [v])[0]) > len(vectors):
            vectors.append(v)
    targets = [[sum(c * v[i] for c, v in zip(cs, vectors)) for i in range(n)]
               for cs in ([rng.randint(-9, 9) for _ in vectors] for _ in range(3))]
    targets += [[rng.randint(-9, 9) for _ in range(n)] for _ in range(3)]
    want = ref_span_coordinates([list(map(Fraction, v)) for v in vectors], [list(map(Fraction, t)) for t in targets])
    got = span_coordinates(vectors, targets)
    assert [row and [Fraction(x, row[1]) for x in row[0]] for row in got] == want
    assert all(math.gcd(den, *coeffs) == 1 for coeffs, den in filter(None, got))


@pytest.mark.parametrize("seed", range(6))
def test_dependent_vectors_raise_alike(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    vectors = messy_rows(rng, n + 1, n)  # n + 1 vectors in n dimensions are dependent
    for fn in (fraction_coordinates, ref_span_coordinates):
        with pytest.raises(ValueError, match="^vectors are linearly dependent$"):
            fn(vectors, [[Fraction(0)] * n])


@pytest.mark.parametrize("seed,n", [(s, n) for s in range(6) for n in (1, 2, 3, 5)])
def test_mat_inverse_matches_the_fraction_loop(seed, n):
    rng = random.Random(seed * 10 + n)
    a = [[scalar(rng, 0.3) for _ in range(n)] for _ in range(n)]
    try:
        want = ref_mat_inverse(a)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{err}$"):
            mat_inverse(a, EXACT)
        return
    assert mat_inverse(a, EXACT) == want


@pytest.mark.parametrize("a,text", [
    ([[1, 2], [2, 4]], "singular matrix"),
    ([[0, 0], [0, 0]], "singular matrix"),
    ([[1, 0, 0], [0, 1, 0], [Fraction(1, BIG), 0, 0]], "singular matrix"),
    ([[1, 0], [0, 1], [0, 0]], "matrix is not square"),
    ([[1, 2, 3], [4, 5, 6]], "matrix is not square"),
])
def test_mat_inverse_errors_alike(a, text):
    for fn in (lambda m: mat_inverse(m, EXACT), ref_mat_inverse):
        with pytest.raises(ValueError, match=f"^{text}$"):
            fn(a)


def test_mat_inverse_negative_pivots_and_empty():
    a = [[0, -3, 1], [-2, 0, 0], [Fraction(-1, BIG), 5, -7]]
    assert mat_inverse(a, EXACT) == ref_mat_inverse(a)
    assert mat_inverse([], EXACT) == []


def square(rng, n, rank):
    """A random n x n Fraction matrix whose rows past the first rank combine those."""
    a = [[scalar(rng, 0.3) for _ in range(n)] for _ in range(rank)]
    a += [combine([scalar(rng) for _ in range(rank)], a[:rank], n) for _ in range(n - rank)]
    rng.shuffle(a)
    return a


# full rank, singular and rank-deficient (rank n - 2, or zero)
INVERSE_CASES = [(seed, n, rank) for seed in range(5) for n in (1, 2, 3, 4, 6) for rank in {n, n - 1, max(n - 2, 0)}]


@pytest.mark.parametrize("seed,n,rank", INVERSE_CASES)
def test_inverse_numerators_match_the_fraction_loop(seed, n, rank):
    rng = random.Random(seed * 100 + n * 10 + rank)
    a = square(rng, n, rank)
    *rows, scale = integer_numerators(*a)
    try:
        want = ref_mat_inverse(a)
    except ValueError as err:
        assert str(err) == "singular matrix"
        with pytest.raises(ValueError, match=f"^{err}$"):
            _inverse_numerators(rows, scale)
        return
    assert rank == n
    got, den = _inverse_numerators(rows, scale)
    assert den > 0 and all(type(x) is int for row in got for x in row)
    assert [[Fraction(x, den) for x in row] for row in got] == want


@pytest.mark.parametrize("seed,n,rank", INVERSE_CASES)
def test_qarray_inverse_matches_the_fraction_loop(seed, n, rank):
    rng = random.Random(seed * 100 + n * 10 + rank + 5)
    # denominators near 10**9 + 7 on top of the ones scalar draws
    q = sparse(square(rng, n, rank)) * Fraction(rng.choice((1, -1)) * rng.randint(1, 9), BIG - rng.randint(0, 2))
    try:
        want = ref_mat_inverse(fractions(q).tolist())
    except ValueError as err:
        assert str(err) == "singular matrix"
        with pytest.raises(ValueError, match=f"^{err}$"):
            _inverse(q)
        return
    assert rank == n
    got = _inverse(q)
    assert isinstance(got, SparseArray) and got.shape == q.shape
    # fractions checks for nonzero int numerators over a positive int den
    assert fractions(got).tolist() == want


def ref_span_closure(seeds):
    """Closure basis with every row reduced again from scratch after each addition."""
    basis, rows = [], []

    def add(m):
        flat = [Fraction(x) for x in np.ravel(fractions(m))]
        if len(ref_row_reduce(rows + [flat])[0]) == len(rows):  # rows stay independent
            return False
        basis.append(m)
        rows.append(flat)
        return True

    for s in seeds:
        add(s)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1 :]:
                changed |= add(a @ b - b @ a)
    return basis


@pytest.mark.parametrize("seed,n", [(s, n) for s in range(4) for n in (2, 3)])
def test_span_closure_matches_full_re_reduction(seed, n):
    rng = random.Random(seed * 10 + n)
    seeds = [sparse([[scalar(rng, 0.7) for _ in range(n)] for _ in range(n)]) for _ in range(2)]
    seeds.append(seeds[0] * Fraction(-3, BIG))
    rot = _span_closure([_array(fractions(m).tolist(), (n, n), "seed") for m in seeds])
    want = ref_span_closure(seeds)
    assert len(rot) == len(want)
    assert [_freeze(m, list) for m in rot] == [fractions(m).tolist() for m in want]
    flat = lambda ms: [[Fraction(x) for x in np.ravel(fractions(m))] for m in ms]
    assert ref_row_reduce([list(m.components) for m in rot]) == ref_row_reduce(flat(want))
