"""FrameMetric keeps g and g_inv once as matrix Tensors, and every reader uses them.

The construction checks are compared with the per-entry row loops they
replaced (symmetry, then g @ g_inv against the identity through
``exact.mat_mul``), so every input is accepted or refused as before,
floats within 1e-13 included.  The trace, split and classification of an
exact structure then take no metric apart into numerators again.
"""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from homkit import exact, tensor_core
from homkit.exact import EXACT, FLOAT, mat_identity, mat_inverse, mat_mul
from homkit.hom_structure import HomogeneousStructure, classify, decompose, trace_one_form
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor


def old_checks(dim, g, g_inv, tag):
    """The message the row loops refused (g, g_inv) with, or None."""
    tol = 0 if tag == EXACT else 1e-13
    pairs = [(i, j) for i in range(dim) for j in range(dim)]
    if any(g[i][j] != g[j][i] and abs(g[i][j] - g[j][i]) > tol for i, j in pairs):
        return "metric is not symmetric"
    prod, ident = mat_mul(g, g_inv, tag), mat_identity(dim, tag)
    if any(prod[i][j] != ident[i][j] and abs(prod[i][j] - ident[i][j]) > tol for i, j in pairs):
        return "g_inv is not the inverse of g"
    return None


def refusal(dim, g, g_inv, tag):
    try:
        FrameMetric(dim, g, g_inv, tag)
    except ValueError as exc:
        return str(exc)
    return None


def symmetric(rng, dim, tag):
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = Fraction(rng.choice((-3, 2, 5)), rng.choice((1, 7)))
        for j in range(i + 1, dim):
            if rng.random() < 0.6:
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), rng.choice((1, 3, 1_000_000_007)))
    return [[float(x) for x in row] for row in rows] if tag == FLOAT else rows


def perturbed(rng, rows, tag):
    """rows with one entry moved: by an exact 1/10**9, or by a float step on either side of 1e-13."""
    rows = [list(row) for row in rows]
    i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
    if tag == EXACT:
        rows[i][j] += Fraction(1, 10**9)
    else:
        rows[i][j] = rng.choice((rows[i][j] + rng.choice((1e-15, 3e-14, 2e-13, 1e-3)), -0.0, float("nan")))
    return rows


CHECK_CASES = [(tag, dim, seed) for tag in (EXACT, FLOAT) for dim in (1, 2, 3, 5) for seed in range(6)]


@pytest.mark.parametrize("case", CHECK_CASES, ids="{0[0]}-D{0[1]}-s{0[2]}".format)
def test_construction_checks_match_the_row_loops(case):
    tag, dim, seed = case
    rng = random.Random(f"checks-{tag}-{dim}-{seed}")
    g = symmetric(rng, dim, tag)
    g_inv = mat_inverse(g, tag)
    inputs = [(g, g_inv), (perturbed(rng, g, tag), g_inv), (g, perturbed(rng, g_inv, tag)),
              (g, [list(row) for row in zip(*g_inv)]), (g_inv, g)]
    for rows, inv in inputs:
        rows, inv = tuple(map(tuple, rows)), tuple(map(tuple, inv))
        assert refusal(dim, rows, inv, tag) == old_checks(dim, rows, inv, tag)


@pytest.mark.parametrize("tag", (EXACT, FLOAT))
def test_carriers_hold_the_rows(tag):
    metric = FrameMetric.from_matrix(symmetric(random.Random(4), 4, tag), tag)
    entries = lambda rows: {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    assert metric._g == Tensor.from_entries(4, (DOWN, DOWN), entries(metric.g), tag)
    assert metric._g_inv == Tensor.from_entries(4, (UP, UP), entries(metric.g_inv), tag)
    # the carriers are no fields: a metric rebuilt from its rows is equal, hashes equal and reprs alike
    twin = FrameMetric(4, metric.g, metric.g_inv, tag)
    assert twin == metric and hash(twin) == hash(metric) and "_g" not in repr(metric)


@pytest.mark.parametrize("tag", (EXACT, FLOAT))
def test_self_inverse_metrics_keep_their_rows(tag):
    one, zero = (Fraction(1), Fraction(0)) if tag == EXACT else (1.0, 0.0)
    for dim in range(4):
        ident = tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim))
        assert FrameMetric.euclidean(dim, tag) == FrameMetric(dim, ident, ident, tag)
    for n in range(4):
        rows = [[zero] * (n + 2) for _ in range(n + 2)]
        rows[0][1] = rows[1][0] = one
        for i in range(2, n + 2):
            rows[i][i] = one
        rows = tuple(map(tuple, rows))
        assert FrameMetric.light_cone(n, tag) == FrameMetric(n + 2, rows, rows, tag)
    assert FrameMetric.diagonal([2, -1, 4], tag).g_inv == ((one / 2, zero, zero), (zero, -one, zero),
                                                          (zero, zero, one / 4))


@pytest.mark.parametrize("tag", (EXACT, FLOAT))
def test_asymmetric_metric_is_refused_before_it_is_inverted(monkeypatch, tag):
    def no_inverse(*args):
        raise AssertionError("inverted")

    monkeypatch.setattr(tensor_core, "mat_inverse", no_inverse)
    rng = random.Random(f"asymmetric-{tag}")
    rows = symmetric(rng, 60, tag)
    # a float entry within 1e-13 of its mirror passes, as the construction check lets it
    rows[5][2] += 1e-15 if tag == FLOAT else 0
    with pytest.raises(AssertionError, match="inverted"):
        FrameMetric.from_matrix(rows, tag)
    rows[3][7] += Fraction(1, 10**9) if tag == EXACT else 2e-13
    with pytest.raises(ValueError, match="metric is not symmetric"):
        FrameMetric.from_matrix(rows, tag)
    # a matrix that is not square is still refused by the inverse, not as asymmetric
    with pytest.raises(AssertionError, match="inverted"):
        FrameMetric.from_matrix([[1, 2, 3], [4, 5, 6]], tag)


def dense_structure(dim):
    """An exact S antisymmetric in its last two slots, on a metric with no zero entry."""
    rng = random.Random(f"dense-{dim}")
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for i, j in itertools.combinations_with_replacement(range(dim), 2):
        rows[i][j] = rows[j][i] = Fraction(rng.choice((-5, -2, 3, 4)), rng.choice((1, 3, 7))) + 9 * (i == j)
    entries = {}
    for x, y, z in itertools.product(range(dim), repeat=3):
        if y < z:
            v = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5, 1_000_000_007)))
            entries[x, y, z], entries[x, z, y] = v, -v
    s = Tensor.from_entries(dim, (DOWN, DOWN, DOWN), entries)
    return HomogeneousStructure(FrameMetric.from_matrix(rows), s)


def test_trace_split_and_classify_take_no_metric_apart(monkeypatch):
    hs = dense_structure(6)
    assert all(v != 0 for row in hs.metric.g for v in row) and len(hs.S.nums) > 150
    calls = []
    kernel = exact.integer_numerators
    counting = lambda *groups: calls.append(1) or kernel(*groups)
    for name, module in list(sys.modules.items()):
        if name.startswith("homkit") and getattr(module, "integer_numerators", None) is kernel:
            monkeypatch.setattr(module, "integer_numerators", counting)
    alpha, _, norm = trace_one_form(hs)
    parts = decompose(hs)
    label = classify(hs)
    assert calls == []
    assert not alpha.is_zero() and norm != 0 and label.label == "T1+T2+T3"
    assert parts[0] + parts[1] + parts[2] == hs.S
