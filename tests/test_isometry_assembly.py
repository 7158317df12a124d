"""The isometry reconstruction against the nested-list assembly it replaced.

``build_isometry_algebra`` sums its table from integer numerator parts
through ``lie_algebra``.  Here it is checked on randomized data against
a copy of the earlier assembly: curvature values read off
``Rbar.entries()``, Fraction ``mat_mul`` commutators, one Fraction
Gauss-Jordan solve for span coordinates on flattened matrices (the
reference loop of ``test_exact_kernel``), and a Fraction bracket dict
handed to ``LieAlgebra.from_brackets``.  The inputs are random
closed isotropy spans with a curvature valued in them, the plane-wave
closing loop at n = 1..4, broken variants of both (dependent, unclosed
or missed spans, several faults at once), and float structures with an
empty isotropy span.  Both must give the same algebra and residual, or
raise the same exception with the same message.
"""

import random
from fractions import Fraction

import pytest
from test_exact_kernel import ref_span_coordinates

from homkit.exact import EXACT, FLOAT, mat_mul, row_reduce, scalar_zero
from homkit.hom_structure import CurvatureAtPoint, HomogeneousStructure, SpanError, build_isometry_algebra
from homkit.lie_algebra import LieAlgebra, jacobi_residual
from homkit.plane_wave import PlaneWaveData, exact_curvature, frame_structure
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor, raise_lower


def old_build(hs, curv, m_labels=None, h_labels=None):
    """build_isometry_algebra as assembled on nested lists of Fractions."""
    if hs.metric != curv.metric:
        raise ValueError("structure and curvature use different metrics")
    d, tag, h = hs.dim, hs.tag, curv.h_basis
    k = len(h)
    m_labels = [f"E{i}" for i in range(d)] if m_labels is None else m_labels
    h_labels = [f"A{p}" for p in range(k)] if h_labels is None else h_labels
    if len(m_labels) != d or len(h_labels) != k:
        raise ValueError("label counts do not match basis sizes")
    if k and tag != EXACT:
        raise ValueError("float-mode reconstruction is not supported; rationalize first")
    flat = lambda m: [x for row in m for x in row]
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    h_pairs = [(p, q) for p in range(k) for q in range(p + 1, k)]
    entries, zero = curv.Rbar.entries(), scalar_zero(curv.Rbar.tag)
    targets = [[entries.get((a, b, r, c), zero) for r in range(d) for c in range(d)] for a, b in pairs]
    for p, q in h_pairs:
        pq, qp = flat(mat_mul(h[p], h[q], tag)), flat(mat_mul(h[q], h[p], tag))
        targets.append([x - y for x, y in zip(pq, qp)])
    try:
        coords = ref_span_coordinates([flat(m) for m in h], targets)
    except ValueError:
        raise ValueError("h_basis matrices are linearly dependent") from None
    outside = "value outside span(h_basis)" if k else "curvature value outside empty isotropy span"
    s_up = raise_lower(hs.S, 2, hs.metric).entries()
    brackets = {}
    for (a, b), coeffs in zip(pairs, coords):
        if coeffs is None:
            raise SpanError(outside, (m_labels[a], m_labels[b]))
        diff = ((c, s_up.get((a, b, c), 0) - s_up.get((b, a, c), 0)) for c in range(d))
        row = {c: v for c, v in diff if v != 0}
        row.update((d + p, -coeff) for p, coeff in enumerate(coeffs) if coeff != 0)
        if row:
            brackets[(a, b)] = row
    for p, m in enumerate(h):
        for b in range(d):
            row = {c: -m[c][b] for c in range(d) if m[c][b] != 0}
            if row:
                brackets[(b, d + p)] = row
    for (p, q), coeffs in zip(h_pairs, coords[len(pairs):]):
        if coeffs is None:
            raise SpanError("h_basis not closed under commutators", (h_labels[p], h_labels[q]))
        row = {d + r: c for r, c in enumerate(coeffs) if c != 0}
        if row:
            brackets[(d + p, d + q)] = row
    algebra = LieAlgebra.from_brackets(d + k, brackets, labels=list(m_labels) + list(h_labels), tag=tag)
    return algebra, jacobi_residual(algebra)[1]


def outcome(build, *args):
    """(algebra, residual), or (exception type, message)."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same(hs, curv, *labels):
    got, want = outcome(build_isometry_algebra, hs, curv, *labels), outcome(old_build, hs, curv, *labels)
    assert got == want
    return got


def rand_q(rng, zero_frac=0.3):
    return Fraction(0) if rng.random() < zero_frac else Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))


def combine(coeffs, mats, d):
    return tuple(tuple(sum((c * m[r][s] for c, m in zip(coeffs, mats)), Fraction(0)) for s in range(d))
                 for r in range(d))


def commutator(a, b):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


def rank(mats):
    return len(row_reduce([[x for row in m for x in row] for m in mats])[0])


def closure(seeds):
    """A basis of the Lie closure of the seed matrices."""
    basis = []
    for m in seeds:
        if rank(basis + [m]) > len(basis):
            basis.append(m)
    grown = True
    while grown:
        grown = False
        for i, a in enumerate(list(basis)):
            for b in list(basis)[i + 1:]:
                c = commutator(a, b)
                if rank(basis + [c]) > len(basis):
                    basis.append(c)
                    grown = True
    return basis


def random_case(rng, d):
    """(metric, S, h_basis, Rbar values) for a random closed isotropy span of a diagonal metric."""
    diag = [rng.choice((-1, 1, 2, Fraction(1, 2))) for _ in range(d)]
    metric = FrameMetric.diagonal(diag)
    # g^-1 W, W antisymmetric, is metric-antisymmetric
    gens = []
    for _ in range(rng.randint(1, 2)):
        w = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                w[i][j] = rand_q(rng, 0.6)
                w[j][i] = -w[i][j]
        gens.append(tuple(tuple(w[r][s] / diag[r] for s in range(d)) for r in range(d)))
    span = closure([m for m in gens if any(map(any, m))])
    # a random basis of the span, so the generators are not the closure's own
    k = len(span)
    while True:
        mix = [[rand_q(rng, 0.2) for _ in range(k)] for _ in range(k)]
        h = [combine(row, span, d) for row in mix]
        if rank(h) == k:
            break
    values = {(a, b): combine([rand_q(rng, 0.5) for _ in range(k)], span, d)
              for a in range(d) for b in range(a + 1, d) if rng.random() < 0.7}
    s = {}
    for x in range(d):
        for y in range(d):
            for z in range(y + 1, d):
                if (v := rand_q(rng, 0.6)):
                    s[x, y, z], s[x, z, y] = v, -v
    hs = HomogeneousStructure(metric, Tensor.from_entries(d, (DOWN, DOWN, DOWN), s))
    return hs, h, values


def curvature(hs, h, values):
    d = hs.dim
    entries = {}
    for (a, b), m in values.items():
        for r in range(d):
            for c in range(d):
                if m[r][c]:
                    entries[a, b, r, c], entries[b, a, r, c] = m[r][c], -m[r][c]
    return CurvatureAtPoint(Tensor.from_entries(d, (DOWN, DOWN, UP, DOWN), entries), tuple(h), hs.metric)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_closed_spans_build_as_before(seed):
    rng = random.Random(seed)
    hs, h, values = random_case(rng, rng.randint(2, 5))
    algebra, residual = assert_same(hs, curvature(hs, h, values))
    assert algebra.dim == hs.dim + len(h)
    # custom labels reach the same table
    labels = [f"m{i}" for i in range(hs.dim)], [f"h{p}" for p in range(len(h))]
    assert_same(hs, curvature(hs, h, values), *labels)


@pytest.mark.parametrize("seed", SEEDS)
def test_broken_spans_fail_as_before(seed):
    rng = random.Random(100 + seed)
    d = rng.randint(3, 5)
    hs, h, values = random_case(rng, d)
    k = len(h)
    # a curvature value outside the span, at one or two pairs
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    stray = [[Fraction(0)] * d for _ in range(d)]
    stray[0][1], stray[1][0] = Fraction(1), Fraction(-1)
    stray = tuple(map(tuple, stray))
    if rank(h + [stray]) > k:
        missed = dict(values)
        for key in rng.sample(pairs, min(2, len(pairs))):
            missed[key] = stray
        assert isinstance(assert_same(hs, curvature(hs, h, missed))[0], type)
    # a dependent basis, alone and beside a missed value
    dependent = h + [combine([rand_q(rng, 0) for _ in range(k)], h, d)]
    assert assert_same(hs, curvature(hs, dependent, values)) == (
        ValueError, "h_basis matrices are linearly dependent")
    # part of the span, which its commutators may leave
    for cut in range(1, k):
        assert_same(hs, curvature(hs, h[:cut], {}))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_several_faults_keep_their_order(d):
    def rot(i, j):
        m = [[Fraction(0)] * d for _ in range(d)]
        m[i][j], m[j][i] = Fraction(-1), Fraction(1)
        return tuple(map(tuple, m))

    hs = HomogeneousStructure(FrameMetric.euclidean(d), Tensor.zeros(d, (DOWN, DOWN, DOWN)))
    unit = {(a, b): rot(a, b) for a in range(d) for b in range(a + 1, d)}
    for h, values in [([], unit), ([rot(0, 1)], unit), ([rot(0, 1), rot(0, 1)], unit),
                      ([rot(0, 1)] + ([rot(0, 2)] if d > 2 else []), unit),
                      ([rot(0, 1)] + ([rot(0, 2)] if d > 2 else []), {})]:
        assert_same(hs, curvature(hs, h, values))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wave_closeloop_builds_as_before(n):
    rng = random.Random(n)
    f = [[Fraction(0)] * n for _ in range(n)]
    hh = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        # a nonzero profile curves the wave, so the cut span misses a value
        hh[i][i] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        for j in range(i + 1, n):
            f[i][j] = rand_q(rng)
            f[j][i] = -f[i][j]
            hh[i][j] = hh[j][i] = rand_q(rng)
    pw = PlaneWaveData(n, f, hh)
    curv = exact_curvature(pw, Fraction(rng.randint(-4, 4), 3),
                           tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(n)))
    algebra, residual = assert_same(frame_structure(pw), curv)
    assert residual == 0 and algebra.dim == 2 * n + 2
    # the same data with its isotropy span cut short
    bare = CurvatureAtPoint(curv.Rbar, curv.h_basis[:-1], curv.metric)
    assert assert_same(frame_structure(pw), bare)[0] is SpanError


@pytest.mark.parametrize("seed", range(4))
def test_float_structure_with_empty_span(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    metric = FrameMetric.diagonal([rng.choice((-1.0, 1.0, 2.5)) for _ in range(d)], FLOAT)
    s = {}
    for x in range(d):
        for y in range(d):
            for z in range(y + 1, d):
                v = rng.uniform(-3, 3)
                s[x, y, z], s[x, z, y] = v, -v
    hs = HomogeneousStructure(metric, Tensor.from_entries(d, (DOWN, DOWN, DOWN), s, FLOAT))
    flat = CurvatureAtPoint(Tensor.zeros(d, (DOWN, DOWN, UP, DOWN), FLOAT), (), metric)
    algebra, residual = assert_same(hs, flat)
    assert algebra.tag == FLOAT and isinstance(residual, float)
    if d > 1:
        curved = CurvatureAtPoint(Tensor.from_entries(d, (DOWN, DOWN, UP, DOWN),
                                                      {(0, 1, 0, 1): 0.5, (1, 0, 0, 1): -0.5}, FLOAT),
                                  (), metric)
        assert assert_same(hs, curved) == (
            SpanError, "curvature value outside empty isotropy span at bracket ('E0', 'E1')")
