"""The sparse T1/T2/T3 split against the dense D^3 formulas it replaced.

The references below walk every component the way the dense code did:
alpha from the full (p, q) trace, the norm over all D products, S1 as
g_xy a_z - g_xz a_y at each of the D^3 indices, S3 as the signed average
over the six permutations, and S2 as (S - S1) - S3 per component.  Float
values must match bit for bit, so they are compared by ``repr``.
"""

import itertools
import random
from fractions import Fraction

import pytest

from homkit import hom_structure
from homkit.exact import EXACT, FLOAT, mat_mul
from homkit.hom_structure import (
    FLOAT_ZERO_TOL,
    CurvatureAtPoint,
    HomogeneousStructure,
    classify,
    decompose,
    vectorial_part,
)
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor

LOWER3 = (DOWN, DOWN, DOWN)
# large prime denominators keep the exact sums from collapsing to small ones
DENOMINATORS = (1, 2, 3, 7, 998_244_353, 1_000_000_007)


def zero_of(tag):
    return Fraction(0) if tag == EXACT else 0.0


def dense_alpha(hs):
    d, g_inv, comps = hs.dim, hs.metric.g_inv, hs.S.components
    out = []
    for z in range(d):
        total = zero_of(hs.tag)
        for p in range(d):
            for q in range(d):
                total += g_inv[p][q] * comps[(p * d + q) * d + z]
        out.append(total)
    c = Fraction(1, d - 1) if hs.tag == EXACT else 1.0 / (d - 1)
    return [c * v for v in out]


def dense_norm(metric, alpha):
    d = metric.dim
    xi = []
    for i in range(d):
        total = zero_of(metric.tag)
        for z in range(d):
            total += metric.g_inv[i][z] * alpha[z]
        xi.append(total)
    norm = zero_of(metric.tag)
    for a, x in zip(alpha, xi):
        norm += a * x
    return norm


def dense_vectorial(metric, a):
    g = metric.g
    indices = itertools.product(range(metric.dim), repeat=3)
    return [g[x][y] * a[z] - g[x][z] * a[y] for x, y, z in indices]


def _sign(perm):
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


def dense_three_form(s):
    d, comps = s.dim, s.components
    weight = 1.0 / 6 if s.tag == FLOAT else Fraction(1, 6)
    out = []
    for idx in itertools.product(range(d), repeat=3):
        total = zero_of(s.tag)
        for perm in itertools.permutations(range(3)):
            x, y, z = (idx[p] for p in perm)
            v = comps[(x * d + y) * d + z]
            total += v if _sign(perm) > 0 else -v
        out.append(weight * total)
    return out


def dense_split(hs):
    alpha = dense_alpha(hs)
    s1 = dense_vectorial(hs.metric, alpha)
    s3 = dense_three_form(hs.S)
    s2 = [(s - a) - b for s, a, b in zip(hs.S.components, s1, s3)]
    return alpha, s1, s2, s3


def nonzero_reprs(comps, dim):
    """{index: repr} of the nonzero entries; repr pins float bits."""
    return {
        idx: repr(v) for idx, v in zip(itertools.product(range(dim), repeat=3), comps) if v != 0
    }


def assert_parts_match(got, want, dim):
    assert got.entries() == {  # values, then bits
        idx: v for idx, v in zip(itertools.product(range(dim), repeat=3), want) if v != 0
    }
    assert {idx: repr(v) for idx, v in got.items} == nonzero_reprs(want, dim)


def dense_label(parts, tag):
    names = []
    for k, part in enumerate(parts, start=1):
        if any((v != 0) if tag == EXACT else (abs(v) > FLOAT_ZERO_TOL) for v in part):
            names.append(f"T{k}")
    return "+".join(names) or "zero"


def dense_degeneracy(label, norm, tag):
    if "T1" not in label:
        return "none"
    if tag == FLOAT and abs(norm) <= FLOAT_ZERO_TOL:
        return "null"
    return "spacelike" if norm > 0 else "timelike" if norm < 0 else "null"


def rand_scalar(rng, tag):
    if tag == FLOAT:
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 1)
    return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))


def metrics(dim, tag):
    """Euclidean, light-cone and two dense Lorentzian frame metrics, the
    second with non-integer rational entries off and on the diagonal."""
    rows = [[(-3 if i == j == 0 else 3) if i == j else 1 for j in range(dim)] for i in range(dim)]
    thirds = [[Fraction(-5 if i == j == 0 else 7, 2) if i == j else Fraction(i + j, 3 * dim)
               for j in range(dim)] for i in range(dim)]
    if tag == FLOAT:
        rows, thirds = ([[float(x) for x in row] for row in m] for m in (rows, thirds))
    return [
        FrameMetric.euclidean(dim, tag),
        FrameMetric.light_cone(dim - 2, tag),
        FrameMetric.from_matrix(rows, tag),
        FrameMetric.from_matrix(thirds, tag),
    ]


def pure_parts(rng, metric, tag, fill):
    """Random pure T1, T2 and T3 tensors for this metric, as dense lists."""
    d = metric.dim
    indices = list(itertools.product(range(d), repeat=3))
    zero = zero_of(tag)
    alpha = [rand_scalar(rng, tag) if rng.random() < fill else zero for _ in range(d)]
    t1 = dense_vectorial(metric, alpha)
    raw = {}
    for x, y, z in indices:
        if y < z and rng.random() < fill:
            v = rand_scalar(rng, tag)
            raw[(x, y, z)], raw[(x, z, y)] = v, -v
    r = Tensor.from_entries(d, LOWER3, raw, tag)
    _, s1, s2, s3 = dense_split(HomogeneousStructure(metric, r))
    return t1, s2, s3


def structure(metric, parts, mix, tag):
    comps = [zero_of(tag)] * metric.dim**3
    for k, part in enumerate(parts, start=1):
        if k in mix:
            comps = [a + b for a, b in zip(comps, part)]
    return HomogeneousStructure(metric, Tensor(metric.dim, LOWER3, comps, tag))


MIXES = [frozenset(c) for r in range(4) for c in itertools.combinations((1, 2, 3), r)]


@pytest.mark.parametrize("tag", [EXACT, FLOAT])
@pytest.mark.parametrize("dim", range(2, 9))
def test_split_matches_dense_formulas(tag, dim):
    rng = random.Random(f"split-{tag}-{dim}")
    # fewer random entries as D grows keep the dense references cheap
    fill = 1.0 if dim <= 4 else 0.4
    labels = set()
    for metric in metrics(dim, tag):
        parts = pure_parts(rng, metric, tag, fill)
        for mix in MIXES:
            hs = structure(metric, parts, mix, tag)
            alpha, s1, s2, s3 = dense_split(hs)
            alpha_t = Tensor(dim, (DOWN,), alpha, tag)
            assert_parts_match(vectorial_part(metric, alpha_t), s1, dim)
            got = decompose(hs)
            for part, want in zip(got, (s1, s2, s3)):
                assert_parts_match(part, want, dim)
            result = classify(hs)
            label = dense_label((s1, s2, s3), tag)
            norm = dense_norm(metric, alpha)
            assert result.label == label
            assert repr(result.xi_norm) == repr(norm)
            assert result.degeneracy == dense_degeneracy(label, norm, tag)
            if tag == EXACT:
                assert all(type(v) is Fraction for part in got for _, v in part.items)
                # exact parts are pure, so the class names the nonzero parts mixed in
                mixed = [k for k in sorted(mix) if any(v != 0 for v in parts[k - 1])]
                assert label == ("+".join(f"T{k}" for k in mixed) or "zero")
            labels.add(label)
    # in dimension 2 the T2 and T3 spaces are zero
    if tag == EXACT:
        assert len(labels) == (8 if dim >= 3 else 2)


@pytest.mark.parametrize("tag", [EXACT, FLOAT])
def test_split_path_follows_the_tag(tag, monkeypatch):
    rng = random.Random(f"split-path-{tag}")
    metric = metrics(4, tag)[3]
    hs = structure(metric, pure_parts(rng, metric, tag, 1.0), {1, 2, 3}, tag)

    def refuse(*args):
        raise AssertionError("tensor operation called")

    for name in ("vectorial_part", "antisymmetrize"):
        monkeypatch.setattr(hom_structure, name, refuse)
    if tag == EXACT:
        assert classify(hs).label == "T1+T2+T3"
        assert sum(decompose(hs), Tensor.zeros(4, LOWER3)) == hs.S
    else:
        for check in (classify, decompose):
            with pytest.raises(AssertionError, match="tensor operation called"):
                check(hs)


def dense_is_metric_antisymmetric(metric, m):
    d, g = metric.dim, metric.g
    for x in range(d):
        for y in range(d):
            s = zero_of(metric.tag)
            for k in range(d):
                s += g[k][y] * m[k][x] + g[x][k] * m[k][y]
            if s != 0:
                return False
    return True


def accepts_isotropy(metric, m):
    """Whether CurvatureAtPoint takes m as its one isotropy matrix beside a zero Rbar."""
    zero = Tensor.zeros(metric.dim, (DOWN, DOWN, UP, DOWN), metric.tag)
    try:
        CurvatureAtPoint(zero, (m,), metric)
    except ValueError as exc:
        assert str(exc) == "h_basis matrix is not metric-antisymmetric"
        return False
    return True


@pytest.mark.parametrize("tag", [EXACT, FLOAT])
def test_metric_antisymmetry_matches_dense_loop(tag):
    rng = random.Random(f"antisym-action-{tag}")
    verdicts = set()
    for dim in range(2, 7):
        for metric in metrics(dim, tag):
            for _ in range(6):
                # g A antisymmetric makes A metric-antisymmetric; a random
                # perturbation of one entry breaks it half the time
                w = [[zero_of(tag)] * dim for _ in range(dim)]
                for i, j in itertools.combinations(range(dim), 2):
                    if rng.random() < 0.4:
                        v = rand_scalar(rng, tag)
                        w[i][j], w[j][i] = v, -v
                if rng.random() < 0.5:
                    w[rng.randrange(dim)][rng.randrange(dim)] += rand_scalar(rng, tag)
                m = mat_mul(metric.g_inv, w, tag)
                want = dense_is_metric_antisymmetric(metric, m)
                assert accepts_isotropy(metric, m) == want
                verdicts.add(want)
    if tag == EXACT:
        assert verdicts == {True, False}


@pytest.mark.parametrize("tag", [EXACT, FLOAT])
def test_mat_mul_matches_dense_loop(tag):
    rng = random.Random(f"mat-mul-{tag}")
    for n, k, m in [(1, 1, 1), (3, 4, 2), (8, 8, 8)]:
        a = [[rand_scalar(rng, tag) if rng.random() < 0.4 else zero_of(tag) for _ in range(k)]
             for _ in range(n)]
        b = [[rand_scalar(rng, tag) if rng.random() < 0.4 else zero_of(tag) for _ in range(m)]
             for _ in range(k)]
        got = mat_mul(a, b, tag)
        for i in range(n):
            for j in range(m):
                want = zero_of(tag)
                for l in range(k):
                    want += a[i][l] * b[l][j]
                assert got[i][j] == want
                assert type(got[i][j]) is type(want)
                if want != 0:
                    assert repr(got[i][j]) == repr(want)
