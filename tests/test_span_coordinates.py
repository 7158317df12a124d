"""Coordinates against an independent basis, read from one elimination.

``exact.span_coordinates`` is checked on randomized exact data against
what it must return by construction: the coefficients a target was
built from, or None for a target that raises the rank (decided
independently through ``row_reduce``).  It takes and gives integer
rows, so the Fraction data is scaled to integers by one common factor
first and the (coefficients, den) rows are read back as Fractions.  ``lie_algebra._coords``, which
the reductions and ``hom_structure.build_isometry_algebra`` share, is
checked to eliminate its basis once per call (one call of the integer
kernel ``exact._echelon``), and the reconstruction to keep its error
texts and the order in which errors are raised;
``reduction._span_closure`` to insert each matrix it adds with one
kernel call.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from test_exact_kernel import fraction_coordinates

import homkit.exact as exact
import homkit.reduction as reduction
from homkit.exact import _echelon as kernel
from homkit.exact import row_reduce, span_coordinates
from homkit.hom_structure import (
    CurvatureAtPoint,
    HomogeneousStructure,
    SpanError,
    build_isometry_algebra,
)
from homkit.lie_algebra import _coords
from homkit.reduction import _array, _span_closure
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor


def rand_scalar(rng, zero_frac=0.4):
    if rng.random() < zero_frac:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))


def rank(rows):
    return len(row_reduce(rows)[0])


def independent(rng, k, n):
    """k independent random exact vectors of length n, some entries zero."""
    out = []
    while len(out) < k:
        v = [rand_scalar(rng) for _ in range(n)]
        if rank(out + [v]) == len(out) + 1:
            out.append(v)
    return out


def combine(coeffs, vectors, n):
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), Fraction(0)) for i in range(n)]


CASES = [(seed, n, k) for seed in range(6) for n in (1, 2, 3, 5, 9) for k in range(n + 1)]


class TestSpanCoordinates:
    @pytest.mark.parametrize("seed,n,k", CASES)
    def test_combinations_return_their_coefficients(self, seed, n, k):
        rng = random.Random(seed * 1000 + n * 10 + k)
        vectors = independent(rng, k, n)
        coeffs = [[rand_scalar(rng) for _ in range(k)] for _ in range(6)]
        targets = [combine(c, vectors, n) for c in coeffs]
        assert fraction_coordinates(vectors, targets) == coeffs

    @pytest.mark.parametrize("seed,n,k", CASES)
    def test_non_members_return_none(self, seed, n, k):
        rng = random.Random(seed * 1000 + n * 10 + k + 500)
        basis = independent(rng, min(k + 1, n), n)
        vectors = basis[:k]
        targets = []
        for i in range(6):
            member = combine([rand_scalar(rng) for _ in range(k)], vectors, n)
            if i % 2 and k < n:
                # plus a nonzero multiple of a vector outside the span
                c = rand_scalar(rng, 0.0) or Fraction(1)
                targets.append([x + c * y for x, y in zip(member, basis[k])])
            else:
                targets.append([x + rand_scalar(rng, 0.7) for x in member])
        outside = 0
        for t, got in zip(targets, fraction_coordinates(vectors, targets)):
            if rank(vectors + [t]) == k + 1:
                outside += 1
                assert got is None
            else:
                assert got is not None and combine(got, vectors, n) == t
        if k < n:
            assert outside > 0

    def test_empty_basis(self):
        assert span_coordinates([], []) == []
        assert span_coordinates([], [[0, 0], [0, 1], [0, 0]]) == [([], 1), None, ([], 1)]

    @pytest.mark.parametrize("seed", range(8))
    def test_dependent_basis_raises(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        vectors = independent(rng, k, n)
        extra = [
            combine([rand_scalar(rng, 0.0) for _ in range(k)], vectors, n),
            [Fraction(0)] * n,
            list(vectors[rng.randrange(k)]),
        ][seed % 3]
        vectors.insert(rng.randint(0, k), extra)
        with pytest.raises(ValueError, match="^vectors are linearly dependent$"):
            fraction_coordinates(vectors, [[Fraction(0)] * n])

    def test_one_elimination_for_many_targets(self, monkeypatch):
        calls = []

        def counting(rows, ech=None):
            calls.append(len(rows))
            return kernel(rows, ech)

        rng = random.Random(7)
        vectors = independent(rng, 3, 5)
        targets = [combine([rand_scalar(rng) for _ in range(3)], vectors, 5) for _ in range(20)]
        monkeypatch.setattr(exact, "_echelon", counting)
        fraction_coordinates(vectors, targets)
        assert calls == [3]


class TestReductionCoords:
    def test_coords_against_the_combinations(self, monkeypatch):
        rng = random.Random(3)
        n, k = 3, 3
        rot = np.array(independent(rng, k, n * n), dtype=object).reshape(k, n, n)
        coeffs = [[rand_scalar(rng) for _ in range(k)] for _ in range(4)]
        mats = [sum(c * m for c, m in zip(row, rot)) for row in coeffs]
        calls = []
        monkeypatch.setattr(exact, "_echelon", lambda *args: calls.append(1) or kernel(*args))
        rows, den = _coords(_array(rot, (None, n, n), "rot"), _array(mats, (None, n, n), "mats"))
        assert [[Fraction(x, den) for x in row] for row in rows] == coeffs
        assert len(calls) == 1

    def test_one_kernel_insertion_per_added_matrix(self, monkeypatch):
        calls = []

        def counting(rows, ech=None):
            calls.append(len(rows))
            return kernel(rows, ech)

        monkeypatch.setattr(reduction, "_echelon", counting)
        # so(3) from two of its rotations, seeded twice: the third comes from their commutator
        seeds = _array([rotation(3, 0, 1), rotation(3, 0, 2), rotation(3, 0, 1, 2), rotation(3, 0, 2)],
                       (None, 3, 3), "seeds")
        rot = _span_closure(seeds)
        assert len(rot) == 3
        assert calls == [1, 1, 1]

    def test_coords_on_empty_span(self):
        rows, _ = _coords((), _array([np.zeros((2, 2), dtype=object)] * 3, (None, 2, 2), "mats"))
        assert rows == [[], [], []]


def euclidean_curvature(d):
    """Unit sectional curvature: Rbar(E_a, E_b) = E_a ^ E_b as an operator."""
    entries = {}
    for a in range(d):
        for b in range(d):
            if a != b:
                entries[(a, b, a, b)] = Fraction(1)
                entries[(a, b, b, a)] = Fraction(-1)
    return Tensor.from_entries(d, (DOWN, DOWN, UP, DOWN), entries)


def rotation(d, i, j, scale=1):
    m = [[0] * d for _ in range(d)]
    m[i][j], m[j][i] = -scale, scale
    return tuple(map(tuple, m))


def build(d, rbar, h_basis):
    g = FrameMetric.euclidean(d)
    hs = HomogeneousStructure(g, Tensor.zeros(d, (DOWN, DOWN, DOWN)))
    return build_isometry_algebra(hs, CurvatureAtPoint(rbar, tuple(h_basis), g))


def error_of(d, rbar, h_basis):
    with pytest.raises(ValueError) as info:
        build(d, rbar, h_basis)
    return type(info.value), str(info.value)


class TestBuildIsometryAlgebraErrors:
    FLAT3 = Tensor.zeros(3, (DOWN, DOWN, UP, DOWN))

    def test_dependent_h_basis(self):
        got = error_of(3, self.FLAT3, [rotation(3, 0, 1), rotation(3, 0, 1, 2)])
        assert got == (ValueError, "h_basis matrices are linearly dependent")

    def test_dependence_is_reported_before_any_bracket(self):
        # the tangent pair (E0, E2) and the isotropy pair would fail too
        h = [rotation(3, 0, 1), rotation(3, 0, 1, -3)]
        got = error_of(3, euclidean_curvature(3), h)
        assert got == (ValueError, "h_basis matrices are linearly dependent")

    def test_value_outside_empty_span(self):
        got = error_of(3, euclidean_curvature(3), [])
        assert got == (SpanError, "curvature value outside empty isotropy span at bracket ('E0', 'E1')")

    def test_value_outside_non_empty_span(self):
        # (E0, E1) lies in span(J01); (E0, E2) is the first pair outside it
        got = error_of(3, euclidean_curvature(3), [rotation(3, 0, 1)])
        assert got == (SpanError, "value outside span(h_basis) at bracket ('E0', 'E2')")

    def test_unclosed_isotropy(self):
        got = error_of(3, self.FLAT3, [rotation(3, 0, 1), rotation(3, 0, 2)])
        assert got == (SpanError, "h_basis not closed under commutators at bracket ('A0', 'A1')")

    def test_tangent_pairs_are_reported_before_isotropy_pairs(self):
        # [J01, J02] leaves the span, but so does the later tangent pair (E1, E2)
        got = error_of(3, euclidean_curvature(3), [rotation(3, 0, 1), rotation(3, 0, 2)])
        assert got == (SpanError, "value outside span(h_basis) at bracket ('E1', 'E2')")

    def test_one_elimination_per_algebra(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exact, "_echelon", lambda *args: calls.append(1) or kernel(*args))
        h = [rotation(4, i, j) for i in range(4) for j in range(i + 1, 4)]
        algebra, residual = build(4, euclidean_curvature(4), h)
        assert residual == 0 and algebra.dim == 10
        assert len(calls) == 1
