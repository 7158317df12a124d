"""Vector/cyclic/3-form split, classification, algebra reconstruction."""

import itertools
import random
from fractions import Fraction

import pytest

from homkit.exact import EXACT, FLOAT
from homkit.hom_structure import (
    CurvatureAtPoint,
    HomogeneousStructure,
    SpanError,
    build_isometry_algebra,
    classify,
    decompose,
    trace_one_form,
    vectorial_part,
)
from homkit.lie_algebra import jacobi_residual
from homkit.plane_wave import PlaneWaveData, frame_structure
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor, antisymmetrize, raise_lower

WAVE = PlaneWaveData(
    2,
    ((Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(0))),
    ((Fraction(1), Fraction(1, 3)), (Fraction(1, 3), Fraction(-1, 2))),
)
FLAT_ROTATION = PlaneWaveData(2, ((0, 0), (0, 0)), ((1, 0), (0, 1)))


def random_structure(rng, metric, dim):
    entries = {}
    for x in range(dim):
        for y in range(dim):
            for z in range(y + 1, dim):
                v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if v != 0:
                    entries[(x, y, z)] = v
                    entries[(x, z, y)] = -v
    s = Tensor.from_entries(dim, (DOWN, DOWN, DOWN), entries)
    return HomogeneousStructure(metric, s)


def three_form(rng, dim):
    t = Tensor.from_entries(
        dim,
        (DOWN, DOWN, DOWN),
        {
            idx: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for idx in itertools.product(range(dim), repeat=3)
        },
    )
    return antisymmetrize(t, (0, 1, 2))


def pairing(metric, a, b):
    """Full contraction of two rank-3 tensors with every slot paired."""
    total = Fraction(0)
    g = metric.g_inv
    d = metric.dim
    for idx in itertools.product(range(d), repeat=3):
        for jdx in itertools.product(range(d), repeat=3):
            w = g[idx[0]][jdx[0]] * g[idx[1]][jdx[1]] * g[idx[2]][jdx[2]]
            if w != 0:
                total += w * a[idx] * b[jdx]
    return total


class TestTraceOneForm:
    def test_zero_structure(self):
        g = FrameMetric.euclidean(3)
        hs = HomogeneousStructure(g, Tensor.zeros(3, (DOWN, DOWN, DOWN)))
        alpha, xi, norm = trace_one_form(hs)
        assert alpha.is_zero() and xi.is_zero() and norm == 0

    def test_wave_structure_yields_null_plus_form(self):
        hs = frame_structure(WAVE)
        alpha, xi, norm = trace_one_form(hs)
        assert alpha.components == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert xi.components == (Fraction(0), Fraction(1), Fraction(0), Fraction(0))
        assert norm == 0

    def test_pure_vectorial_roundtrip_fixes_normalization(self):
        # the 1/(D-1) factor is forced: a structure built from phi alone
        # must hand phi back exactly
        g = FrameMetric.euclidean(3)
        phi = Tensor.from_entries(3, (DOWN,), {(0,): Fraction(2, 3), (2,): Fraction(-5)})
        hs = HomogeneousStructure(g, vectorial_part(g, phi))
        alpha, _, _ = trace_one_form(hs)
        assert alpha == phi

    def test_dimension_one_rejected(self):
        g = FrameMetric.euclidean(1)
        hs = HomogeneousStructure(g, Tensor.zeros(1, (DOWN, DOWN, DOWN)))
        with pytest.raises(ValueError, match="dimension at least 2"):
            trace_one_form(hs)


class TestDecompose:
    def test_three_form_passes_through(self):
        rng = random.Random(5)
        g = FrameMetric.euclidean(4)
        t = three_form(rng, 4)
        s1, s2, s3 = decompose(HomogeneousStructure(g, t))
        assert s1.is_zero() and s2.is_zero()
        assert s3 == t

    def test_wave_structure_components(self):
        # hand decomposition: the vectorial part carries the trace and
        # the 3-form part carries F; the middle part cancels exactly
        hs = frame_structure(WAVE)
        s1, s2, s3 = decompose(hs)
        F = WAVE.F
        assert s1[0, 0, 1] == -1
        assert s1[2, 0, 2] == -1 and s1[3, 0, 3] == -1
        assert s2.is_zero()
        for i, j in itertools.product(range(2), repeat=2):
            assert s3[0, 2 + i, 2 + j] == F[i][j]
            assert s3[2 + i, 0, 2 + j] == -F[i][j]
            assert s3[2 + i, 2 + j, 0] == F[i][j]

    def test_projection_recovers_built_pieces(self):
        rng = random.Random(11)
        g = FrameMetric.light_cone(2)
        for _ in range(10):
            phi = Tensor.from_entries(
                4, (DOWN,), {(i,): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for i in range(4)}
            )
            t = three_form(rng, 4)
            s = vectorial_part(g, phi) + t
            s1, s2, s3 = decompose(HomogeneousStructure(g, s))
            assert s1 == vectorial_part(g, phi)
            assert s2.is_zero()
            assert s3 == t

    def test_reconstruction_idempotence_orthogonality(self):
        rng = random.Random(23)
        metrics = [FrameMetric.euclidean(4), FrameMetric.light_cone(2)]
        for metric in metrics:
            for _ in range(5):
                hs = random_structure(rng, metric, 4)
                s1, s2, s3 = decompose(hs)
                assert s1 + s2 + s3 == hs.S
                for i, part in enumerate((s1, s2, s3)):
                    back = decompose(HomogeneousStructure(metric, part))
                    for j, piece in enumerate(back):
                        assert piece == (part if i == j else Tensor.zeros(4, (DOWN, DOWN, DOWN)))
                assert pairing(metric, s1, s2) == 0
                assert pairing(metric, s1, s3) == 0
                assert pairing(metric, s2, s3) == 0


class TestClassify:
    def test_zero_class(self):
        g = FrameMetric.euclidean(3)
        hs = HomogeneousStructure(g, Tensor.zeros(3, (DOWN, DOWN, DOWN)))
        out = classify(hs)
        assert out.label == "zero" and out.degeneracy == "none"

    def test_wave_structure_is_null_type_13(self):
        out = classify(frame_structure(WAVE))
        assert out.label == "T1+T3"
        assert out.degeneracy == "null"
        assert out.xi_norm == 0

    def test_wave_without_rotation_is_null_type_1(self):
        out = classify(frame_structure(FLAT_ROTATION))
        assert out.label == "T1" and out.degeneracy == "null"

    def test_euclidean_vectorial_is_spacelike(self):
        g = FrameMetric.euclidean(3)
        phi = Tensor.from_entries(3, (DOWN,), {(1,): 2})
        out = classify(HomogeneousStructure(g, vectorial_part(g, phi)))
        assert out.label == "T1" and out.degeneracy == "spacelike"

    def test_timelike_vectorial(self):
        g = FrameMetric.diagonal([-1, 1, 1])
        phi = Tensor.from_entries(3, (DOWN,), {(0,): 1})
        out = classify(HomogeneousStructure(g, vectorial_part(g, phi)))
        assert out.degeneracy == "timelike"

    def test_invariant_under_orthogonal_frame_change(self):
        # conjugate S and g by the same frame matrix: a signed
        # permutation and a rational rotation both preserve the class
        rng = random.Random(7)
        g = FrameMetric.euclidean(3)
        hs = random_structure(rng, g, 3)
        rot = [
            [Fraction(3, 5), Fraction(-4, 5), 0],
            [Fraction(4, 5), Fraction(3, 5), 0],
            [0, 0, Fraction(-1)],
        ]
        d = 3
        new_g = [[sum(rot[a][i] * g.g[a][b] * rot[b][j] for a in range(d) for b in range(d))
                  for j in range(d)] for i in range(d)]
        entries = {}
        for idx in itertools.product(range(d), repeat=3):
            v = Fraction(0)
            for jdx in itertools.product(range(d), repeat=3):
                w = rot[jdx[0]][idx[0]] * rot[jdx[1]][idx[1]] * rot[jdx[2]][idx[2]]
                if w != 0:
                    v += w * hs.S[jdx]
            if v != 0:
                entries[idx] = v
        moved = HomogeneousStructure(
            FrameMetric.from_matrix(new_g),
            Tensor.from_entries(d, (DOWN, DOWN, DOWN), entries),
        )
        assert classify(moved).label == classify(hs).label
        assert classify(moved).degeneracy == classify(hs).degeneracy

    def test_float_mode_uses_tolerance(self):
        g = FrameMetric.euclidean(2, tag=FLOAT)
        s = Tensor.from_entries(2, (DOWN, DOWN, DOWN), {(0, 0, 1): 1e-13, (0, 1, 0): -1e-13}, tag=FLOAT)
        out = classify(HomogeneousStructure(g, s))
        assert out.label == "zero"


class TestGeodesicIdentity:
    def test_vector_field_identity_for_type_13(self):
        # S_X xi = T_X xi + alpha(X) xi - alpha(xi) X with T the 3-form part
        rng = random.Random(31)
        for metric in (FrameMetric.euclidean(4), FrameMetric.light_cone(2)):
            phi = Tensor.from_entries(
                4, (DOWN,), {(i,): Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(4)}
            )
            t = three_form(rng, 4)
            s = vectorial_part(metric, phi) + t
            hs = HomogeneousStructure(metric, s)
            alpha, xi, norm = trace_one_form(hs)
            s_up = raise_lower(hs.S, 2, metric)
            t_up = raise_lower(t, 2, metric)
            d = 4
            for x in range(d):
                for c in range(d):
                    lhs = sum(s_up[x, b, c] * xi[b] for b in range(d))
                    rhs = sum(t_up[x, b, c] * xi[b] for b in range(d))
                    rhs += alpha[x] * xi[c]
                    rhs -= norm * (1 if x == c else 0)
                    assert lhs == rhs


def constant_curvature_sphere():
    g = FrameMetric.euclidean(2)
    entries = {}
    for a, b, c, d in itertools.product(range(2), repeat=4):
        v = Fraction(int(a == c) * int(b == d) - int(a == d) * int(b == c))
        if v != 0:
            entries[(a, b, c, d)] = v
    rbar = Tensor.from_entries(2, (DOWN, DOWN, UP, DOWN), entries)
    j = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
    return g, CurvatureAtPoint(rbar, (j,), g)


class TestBuildIsometryAlgebra:
    def test_flat_data_gives_abelian_translations(self):
        g = FrameMetric.euclidean(3)
        hs = HomogeneousStructure(g, Tensor.zeros(3, (DOWN, DOWN, DOWN)))
        curv = CurvatureAtPoint(Tensor.zeros(3, (DOWN, DOWN, UP, DOWN)), (), g)
        algebra, residual = build_isometry_algebra(hs, curv)
        assert algebra.dim == 3 and residual == 0
        assert all(not algebra.bracket(a, b) for a in range(3) for b in range(a + 1, 3))

    def test_unit_curvature_gives_so3(self):
        g, curv = constant_curvature_sphere()
        hs = HomogeneousStructure(g, Tensor.zeros(2, (DOWN, DOWN, DOWN)))
        algebra, residual = build_isometry_algebra(hs, curv, m_labels=["E1", "E2"], h_labels=["J"])
        assert residual == 0
        assert algebra.bracket(0, 1) == {2: Fraction(1)}
        assert algebra.bracket(0, 2) == {1: Fraction(-1)}  # [E1, J] = -E2
        assert algebra.bracket(1, 2) == {0: Fraction(1)}   # [E2, J] = E1

    def test_curvature_outside_span_reported(self):
        g, curv = constant_curvature_sphere()
        hs = HomogeneousStructure(g, Tensor.zeros(2, (DOWN, DOWN, DOWN)))
        bare = CurvatureAtPoint(curv.Rbar, (), g)
        with pytest.raises(SpanError, match="E1.*E2"):
            build_isometry_algebra(hs, bare, m_labels=["E1", "E2"], h_labels=[])

    def test_unclosed_isotropy_reported(self):
        g = FrameMetric.euclidean(3)
        hs = HomogeneousStructure(g, Tensor.zeros(3, (DOWN, DOWN, DOWN)))
        # two rotation generators whose commutator is the third
        j12 = ((0, -1, 0), (1, 0, 0), (0, 0, 0))
        j13 = ((0, 0, -1), (0, 0, 0), (1, 0, 0))
        curv = CurvatureAtPoint(Tensor.zeros(3, (DOWN, DOWN, UP, DOWN)), (j12, j13), g)
        with pytest.raises(SpanError, match="not closed"):
            build_isometry_algebra(hs, curv)

    def test_non_antisymmetric_h_matrix_rejected(self):
        g = FrameMetric.euclidean(2)
        with pytest.raises(ValueError, match="metric-antisymmetric"):
            CurvatureAtPoint(Tensor.zeros(2, (DOWN, DOWN, UP, DOWN)), (((1, 0), (0, 0)),), g)

    @pytest.mark.parametrize("rbar_tag, metric_tag", [(FLOAT, EXACT), (EXACT, FLOAT)])
    def test_mixed_tags_rejected(self, rbar_tag, metric_tag):
        rbar = Tensor.from_entries(2, (DOWN, DOWN, UP, DOWN), {(0, 1, 0, 1): 1, (1, 0, 0, 1): -1}, rbar_tag)
        g = FrameMetric.euclidean(2, tag=metric_tag)
        # refused before h_basis is cast: "x" is no scalar in either tag
        for h_basis in ((), (((0, -1), (1, 0)),), ((("x", 0), (0, 0)),)):
            with pytest.raises(ValueError) as exc:
                CurvatureAtPoint(rbar, h_basis, g)
            assert str(exc.value) == "Rbar and metric tags differ"

    def test_wave_reconstruction_passes_jacobi(self):
        from homkit.plane_wave import exact_curvature

        hs = frame_structure(WAVE)
        curv = exact_curvature(WAVE, Fraction(1, 2), (Fraction(1, 3), Fraction(-1)))
        algebra, residual = build_isometry_algebra(hs, curv)
        assert residual == 0
        assert jacobi_residual(algebra)[1] == 0


class TestJson:
    def test_structure_round_trip(self):
        hs = frame_structure(WAVE)
        assert HomogeneousStructure.from_json(hs.to_json()) == hs

    def test_classification_report_shape(self):
        report = classify(frame_structure(WAVE)).to_json()
        assert report == {"class": "T1+T3", "degeneracy": "null", "xi_norm": "0"}


class TestAntisymmetryMessages:
    # messages recorded from the dense index scans; each input has two violations
    def test_exact_structure_names_first_violation(self):
        s = Tensor.from_entries(
            3, (DOWN, DOWN, DOWN), {(2, 0, 1): 3, (2, 1, 0): -3, (1, 2, 0): 1, (0, 2, 1): 5}
        )
        with pytest.raises(ValueError) as exc:
            HomogeneousStructure(FrameMetric.euclidean(3), s)
        assert str(exc.value) == "S is not antisymmetric in its last two slots at (0,1,2)"

    def test_float_structure_keeps_tolerance(self):
        # (0,0,1) is off by 1e-13, inside the 1e-12 tolerance, so it is not named
        entries = {
            (0, 0, 1): 1e-13, (2, 2, 1): 0.5, (2, 1, 2): -0.25,
            (1, 1, 1): 2.0, (0, 1, 2): 0.5, (0, 2, 1): -0.5,
        }
        s = Tensor.from_entries(3, (DOWN, DOWN, DOWN), entries, tag=FLOAT)
        with pytest.raises(ValueError) as exc:
            HomogeneousStructure(FrameMetric.euclidean(3, tag=FLOAT), s)
        assert str(exc.value) == "S is not antisymmetric in its last two slots at (1,1,1)"

    def test_curvature_form_slots(self):
        rbar = Tensor.from_entries(
            3,
            (DOWN, DOWN, UP, DOWN),
            {(0, 1, 0, 1): 1, (1, 0, 0, 1): -1, (2, 1, 0, 0): 1, (1, 1, 2, 2): 1},
        )
        with pytest.raises(ValueError) as exc:
            CurvatureAtPoint(rbar, (), FrameMetric.euclidean(3))
        assert str(exc.value) == "Rbar is not antisymmetric in its form slots"
