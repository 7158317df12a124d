"""Metamorphic relations of the exact verdicts.

A relation checks that a verdict does not move under a change of the
input that the mathematics says cannot move it, so it also catches a
defect in a helper that every route shares.  Each relation holds on
rationals, so any mismatch is a defect, never a tolerance question.

classify and decompose under a frame change: for an invertible rational
P, the structure (g, S) and its pullback (P^T g P, S(P., P., P.)) are the
same tensor in two frames.  The T1/T2/T3 split is natural under a frame
change, so the class label, the degeneracy and xi_norm agree, and each
part of the pulled-back structure is the pullback of the part.  The
pullbacks and P are built here from Fraction loops, one slot at a time,
and both frames carry dense, non-diagonal metrics that are not their own
inverses.

closeloop under a rotation of the transverse plane: for a rational
orthogonal O (the Cayley transform (I - A)(I + A)^-1 of a random
rational antisymmetric A), the wave (OFO^T, OHO^T) is the wave (F, H) in
the coordinates x' = Ox, whose frame is the old one with O applied to the
transverse legs.  So the exact curvature of nabla - S at (s, Ox) is Rbar at
(s, x) with O applied to every transverse frame index, the upper one
included, since O^-T = O.

planewave algebra under the same rotation: the bracket table of
(OFO^T, OHO^T) is the table of (F, H) written in the frame whose X_i and
Xb_i are rotated by O, which is change_basis by P = diag(1, 1, O, O).

jacobi under a basis change: a passing wave table and the same table
with one constant perturbed keep their verdicts, zero and nonzero, under
change_basis by a random invertible rational P.
"""

import itertools
import random
from fractions import Fraction

import pytest

from homkit.hom_structure import CLASS_NAMES, HomogeneousStructure, classify, decompose
from homkit.lie_algebra import LieAlgebra, change_basis, jacobi_residual
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor
from homkit.wave_curvature import exact_curvature
from homkit.wave_table import PlaneWaveData, pw_isometry_algebra


def small(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5)))


def frame_change(rng, dim):
    """P = L D U with L, U unit triangular and D diagonal and nonzero, so P is invertible."""
    lower = [[Fraction(int(i == j)) if i <= j else small(rng) for j in range(dim)] for i in range(dim)]
    upper = [[Fraction(int(i == j)) if i >= j else small(rng) for j in range(dim)] for i in range(dim)]
    diag = [rng.choice((-2, -1, 1, 3)) * Fraction(1, rng.choice((1, 2, 7))) for _ in range(dim)]
    return [[sum(lower[i][k] * diag[k] * upper[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]


def pullback(entries, p):
    """{index: value} of an all-lower tensor T, sent to T(P., .., P.) one slot at a time:
    the index a of each slot becomes x, weighted by P[a][x]."""
    dim, out = len(p), dict(entries)
    rank = len(next(iter(out))) if out else 0
    for slot in range(rank):
        moved = {}
        for idx, v in out.items():
            for x in range(dim):
                if p[idx[slot]][x]:
                    key = idx[:slot] + (x,) + idx[slot + 1:]
                    moved[key] = moved.get(key, 0) + p[idx[slot]][x] * v
        out = {key: v for key, v in moved.items() if v}
    return out


def structure(g, s, dim):
    rows = [[g.get((i, j), Fraction(0)) for j in range(dim)] for i in range(dim)]
    return HomogeneousStructure(FrameMetric.from_matrix(rows), Tensor.from_entries(dim, (DOWN,) * 3, s))


def light_cone_parts(rng, dim, null):
    """(g, S1, S2, S3) in the light-cone frame: S1 from a random (or null) one-form, S2 the T2
    part of a random S, and S3 a random 3-form."""
    g = {(0, 1): Fraction(1), (1, 0): Fraction(1), **{(i, i): Fraction(1) for i in range(2, dim)}}
    alpha = [Fraction(1), *[Fraction(0)] * (dim - 1)] if null else [small(rng) for _ in range(dim)]
    alpha[0] = alpha[0] or Fraction(1)
    s1 = {(x, y, z): g.get((x, y), 0) * alpha[z] - g.get((x, z), 0) * alpha[y]
          for x, y, z in itertools.product(range(dim), repeat=3)}
    s3 = {}
    for idx in itertools.combinations(range(dim), 3):
        v = small(rng) or Fraction(1)
        for perm in itertools.permutations(range(3)):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            s3[tuple(idx[k] for k in perm)] = sign * v
    t = {}
    for x, y, z in itertools.product(range(dim), repeat=3):
        if y < z:
            t[x, y, z] = small(rng)
            t[x, z, y] = -t[x, y, z]
    s2 = dict(decompose(structure(g, t, dim))[1].items)
    return g, {key: v for key, v in s1.items() if v}, s2, s3


CASES = [(dim, parts, null) for dim in (3, 4, 5, 6) for parts in range(1, 8) for null in (False, True)
         if not null or parts & 1]


@pytest.mark.parametrize("case", CASES, ids="D{0[0]}-parts{0[1]}-null{0[2]:d}".format)
def test_classify_and_decompose_are_natural_under_a_frame_change(case):
    dim, parts, null = case
    rng = random.Random(f"frame-change-{dim}-{parts}-{null}")
    eta, *pieces = light_cone_parts(rng, dim, null)
    chosen = [k for k in (1, 2, 3) if parts >> (k - 1) & 1]
    s = {}
    for k in chosen:
        for key, v in pieces[k - 1].items():
            s[key] = s.get(key, 0) + v
    # the first frame is already a dense one, so neither metric is diagonal or self-inverse
    q, p = frame_change(rng, dim), frame_change(rng, dim)
    g, s = pullback(eta, q), pullback(s, q)
    hs, moved = structure(g, s, dim), structure(pullback(g, p), pullback(s, p), dim)
    assert hs.metric.g != hs.metric.g_inv and moved.metric.g != moved.metric.g_inv
    assert sum(v == 0 for row in moved.metric.g for v in row) < dim

    before, after = classify(hs), classify(moved)
    assert (after.label, after.degeneracy, after.xi_norm) == (before.label, before.degeneracy, before.xi_norm)
    assert before.label == CLASS_NAMES[frozenset(chosen)]
    if 1 in chosen:
        assert (before.degeneracy == "null") == null
    for part, moved_part in zip(decompose(hs), decompose(moved)):
        assert moved_part.entries() == pullback(part.entries(), p)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(row) for row in zip(*a)]


def cayley(rng, n):
    """(I - A)(I + A)^-1 for a random rational antisymmetric A, by Gauss-Jordan on Fractions."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        a[i][j] = small(rng)
        a[j][i] = -a[i][j]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    work = [[eye[i][j] + a[i][j] for j in range(n)] + list(eye[i]) for i in range(n)]
    for col in range(n):  # I + A is invertible: its eigenvalues are 1 + i lambda
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [v / work[col][col] for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                work[r] = [v - work[r][col] * w for v, w in zip(work[r], work[col])]
    inverse = [row[n:] for row in work]
    return matmul([[eye[i][j] - a[i][j] for j in range(n)] for i in range(n)], inverse)


def random_wave(rng, n):
    f = [[Fraction(0)] * n for _ in range(n)]
    h = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        h[i][j] = h[j][i] = small(rng) or Fraction(1)
        if i != j:
            f[i][j] = small(rng)
            f[j][i] = -f[i][j]
    return f, h


WAVES = [(n, seed) for n in (1, 2, 3, 4) for seed in range(3)]


@pytest.mark.parametrize("case", WAVES, ids="n{0[0]}-s{0[1]}".format)
def test_closeloop_curvature_is_natural_under_a_transverse_rotation(case):
    n, seed = case
    rng = random.Random(f"rotation-{n}-{seed}")
    f, h = random_wave(rng, n)
    o = cayley(rng, n)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    assert matmul(o, transpose(o)) == eye and (n == 1 or o != eye)
    s, x = small(rng), [small(rng) for _ in range(n)]
    rbar = exact_curvature(PlaneWaveData(n, f, h), s, x).Rbar.entries()
    rotated = PlaneWaveData(n, matmul(matmul(o, f), transpose(o)), matmul(matmul(o, h), transpose(o)))
    moved = exact_curvature(rotated, s, [row[0] for row in matmul(o, [[v] for v in x])]).Rbar.entries()
    assert rbar
    # the frame change fixes the two null legs and sends the transverse index j to i with O[i][j]:
    # P[2 + j][2 + i] = O[i][j], so pullback's sum over P[a][b] T[a] is sum_j O[i][j] T[j]
    p = [[Fraction(int(a == b)) for b in range(n + 2)] for a in range(n + 2)]
    for i, j in itertools.product(range(n), repeat=2):
        p[2 + j][2 + i] = o[i][j]
    assert moved == pullback(rbar, p)


def transverse_rotation(o):
    """diag(1, 1, O, O): O on the X_i and on the Xb_i of the wave basis (U, V, X_i, Xb_i)."""
    n = len(o)
    p = [[Fraction(int(a == b)) for b in range(2 * n + 2)] for a in range(2 * n + 2)]
    for i, j in itertools.product(range(n), repeat=2):
        p[2 + i][2 + j] = p[2 + n + i][2 + n + j] = o[i][j]
    return p


@pytest.mark.parametrize("case", WAVES, ids="n{0[0]}-s{0[1]}".format)
def test_wave_algebra_is_natural_under_a_transverse_rotation(case):
    n, seed = case
    rng = random.Random(f"wave-rotation-{n}-{seed}")
    f, h = random_wave(rng, n)
    o = cayley(rng, n)
    def rotate(m, o):
        return matmul(matmul(o, m), transpose(o))

    table, moved = pw_isometry_algebra(PlaneWaveData(n, f, h)), pw_isometry_algebra(
        PlaneWaveData(n, rotate(f, o), rotate(h, o)))
    assert moved == change_basis(table, transverse_rotation(o))
    # O^T in place of O is off by O^2, so it gives the same table exactly when O^2 fixes F and H
    o2 = matmul(o, o)
    fixed = (rotate(f, o2), rotate(h, o2)) == (f, h)
    assert (moved == change_basis(table, transverse_rotation(transpose(o)))) == fixed


@pytest.mark.parametrize("case", WAVES, ids="n{0[0]}-s{0[1]}".format)
def test_jacobi_verdicts_survive_a_basis_change(case):
    n, seed = case
    rng = random.Random(f"jacobi-basis-{n}-{seed}")
    table = pw_isometry_algebra(PlaneWaveData(n, *random_wave(rng, n)))
    # [U, X_1] gains 1/1000 X_1, which breaks the Jacobi identity (asserted below)
    entries = table.f.entries()
    for key, sign in (((0, 2, 2), 1), ((2, 0, 2), -1)):
        entries[key] = entries.get(key, 0) + sign * Fraction(1, 1000)
    perturbed = LieAlgebra(table.labels, Tensor.from_entries(2 * n + 2, (DOWN, DOWN, UP), entries))
    p = frame_change(rng, 2 * n + 2)
    for algebra, passes in ((table, True), (perturbed, False)):
        assert (jacobi_residual(algebra)[1] == 0) == passes
        assert (jacobi_residual(change_basis(algebra, p))[1] == 0) == passes
