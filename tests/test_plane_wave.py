"""Chart geometry: jets, curvature, parallelism residuals, bracket table.

Finite differences appear here only as an oracle against the analytic
derivative chain; the library itself never differentiates numerically.
"""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from homkit import plane_wave
from homkit.exact import EXACT, mat_inverse
from homkit.hom_structure import build_isometry_algebra, classify
from homkit.lie_algebra import jacobi_residual
from homkit.plane_wave import (
    ChartPoint,
    PlaneWaveData,
    _commutator_jet,
    _frame_array,
    as_residuals,
    boost_block,
    christoffel,
    connection_jet,
    exact_curvature,
    expm,
    frame_metric,
    frame_structure,
    metric_jet,
    profile_jet,
    pw_isometry_algebra,
    riemann,
    sample_points,
    structure_at,
)
from homkit.tensor_core import DOWN, FrameMetric, Tensor
from homkit.wave_curvature import SPARSE, SparseArray, _chart_jet, _frame_curvature, _frame_tensor

FD_STEP = 1e-5
FD_TOL = 1e-6

GENERIC = PlaneWaveData(
    2,
    ((Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(0))),
    ((Fraction(1), Fraction(1, 3)), (Fraction(1, 3), Fraction(-1, 2))),
)
FLAT = PlaneWaveData(1, ((Fraction(0),),), ((Fraction(0),),))


def shifted(pt, k, eps):
    coords = [pt.z, pt.s, *pt.x]
    coords[k] += eps
    return ChartPoint(coords[0], coords[1], tuple(coords[2:]))


def random_wave(rng, n, bound=2, max_den=4):
    f = [[Fraction(0)] * n for _ in range(n)]
    h = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            den = rng.randint(1, max_den)
            h[i][j] = h[j][i] = Fraction(rng.randint(-bound * den, bound * den), den)
            if i != j:
                den = rng.randint(1, max_den)
                v = Fraction(rng.randint(-bound * den, bound * den), den)
                f[i][j], f[j][i] = v, -v
    return PlaneWaveData(n, tuple(map(tuple, f)), tuple(map(tuple, h)))


class TestExpm:
    def test_zero_matrix(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_rotation_angle(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = expm(0.5 * a)
        assert abs(out[0, 0] - np.cos(0.5)) < 1e-14
        assert abs(out[1, 0] - np.sin(0.5)) < 1e-14

    def test_inverse_pairs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        a = a - a.T
        assert np.allclose(expm(a) @ expm(-a), np.eye(4), atol=1e-12)


class TestMetricJet:
    def test_example_values(self):
        pw = PlaneWaveData(1, ((Fraction(0),),), ((Fraction(1),),))
        jet = metric_jet(pw, ChartPoint(0.0, 2.0, (3.0,)))
        assert jet.g[0, 0] == pytest.approx(2 * (9 + 2))
        assert jet.g[0, 1] == 1.0
        assert jet.g[2, 2] == 1.0

    def test_vanishing_profile_leaves_2s(self):
        jet = metric_jet(FLAT, ChartPoint(1.3, 0.7, (2.0,)))
        assert jet.g[0, 0] == pytest.approx(2 * 0.7)

    def test_profile_matrix_symmetric_for_all_z(self):
        for z in (-1.7, 0.0, 0.4, 2.2):
            m0, m1, m2, m3 = profile_jet(GENERIC, z)
            for m in (m0, m1, m2, m3):
                assert np.allclose(m, m.T, atol=1e-12)

    def test_derivative_arrays_match_finite_differences(self):
        pt = ChartPoint(0.3, -0.4, (0.8, -1.1))
        jet = metric_jet(GENERIC, pt)
        d = GENERIC.dim
        for k in range(d):
            plus = metric_jet(GENERIC, shifted(pt, k, FD_STEP))
            minus = metric_jet(GENERIC, shifted(pt, k, -FD_STEP))
            assert np.max(np.abs((plus.g - minus.g) / (2 * FD_STEP) - jet.dg[k])) < FD_TOL
            assert np.max(np.abs((plus.dg - minus.dg) / (2 * FD_STEP) - jet.ddg[k])) < FD_TOL
            assert np.max(np.abs((plus.ddg - minus.ddg) / (2 * FD_STEP) - jet.dddg[k])) < FD_TOL


class TestChristoffel:
    def test_hand_value_at_flat_profile(self):
        jet = metric_jet(FLAT, ChartPoint(0.0, 1.0, (0.0,)))
        gamma = christoffel(jet)
        assert gamma[0, 0, 0] == pytest.approx(-1.0)

    def test_no_acceleration_along_s(self):
        pts = sample_points(2, 6, seed=3)
        for pt in pts:
            gamma = christoffel(metric_jet(GENERIC, pt))
            assert np.max(np.abs(gamma[:, 1, 1])) == 0.0

    def test_finite_difference_oracle(self):
        pt = ChartPoint(0.2, 0.9, (-0.5, 0.3))
        jet = metric_jet(GENERIC, pt)
        gamma = christoffel(jet)
        d = GENERIC.dim
        fd = np.zeros((d, d, d))
        for m in range(d):
            for n in range(d):
                for s in range(d):
                    dp = metric_jet(GENERIC, shifted(pt, m, FD_STEP)).g[n, s]
                    dm = metric_jet(GENERIC, shifted(pt, m, -FD_STEP)).g[n, s]
                    fd[m, n, s] = (dp - dm) / (2 * FD_STEP)
        # low[m, n, s] = (d_m g_ns + d_n g_ms - d_s g_mn) / 2
        low = np.zeros((d, d, d))
        for m in range(d):
            for n in range(d):
                for s in range(d):
                    low[m, n, s] = 0.5 * (fd[m, n, s] + fd[n, m, s] - fd[s, m, n])
        gamma_fd = np.einsum("rs,mns->rmn", jet.g_inv, low)
        assert np.max(np.abs(gamma_fd - gamma)) < 1e-8

    def test_connection_derivatives_match_finite_differences(self):
        pt = ChartPoint(-0.6, 0.2, (0.4, 1.0))
        jet = metric_jet(GENERIC, pt)
        gamma, dgamma, ddgamma = connection_jet(jet)
        d = GENERIC.dim
        for k in range(d):
            gp, dgp, _ = connection_jet(metric_jet(GENERIC, shifted(pt, k, FD_STEP)))
            gm, dgm, _ = connection_jet(metric_jet(GENERIC, shifted(pt, k, -FD_STEP)))
            assert np.max(np.abs((gp - gm) / (2 * FD_STEP) - dgamma[k])) < FD_TOL
            assert np.max(np.abs((dgp - dgm) / (2 * FD_STEP) - ddgamma[k])) < FD_TOL


class TestRiemann:
    def test_flat_wave_is_flat(self):
        for pt in sample_points(1, 20, seed=9):
            assert np.max(np.abs(riemann(FLAT, pt))) < 1e-12

    def test_pair_symmetries_and_bianchi(self):
        for pt in sample_points(2, 5, seed=17):
            low = np.einsum("rl,lsmn->rsmn", metric_jet(GENERIC, pt).g, riemann(GENERIC, pt))
            assert np.max(np.abs(low + low.transpose(1, 0, 2, 3))) < 1e-10
            assert np.max(np.abs(low + low.transpose(0, 1, 3, 2))) < 1e-10
            assert np.max(np.abs(low - low.transpose(2, 3, 0, 1))) < 1e-10
            cyc = low + low.transpose(0, 2, 3, 1) + low.transpose(0, 3, 1, 2)
            assert np.max(np.abs(cyc)) < 1e-10

    def test_finite_difference_oracle(self):
        pt = ChartPoint(0.5, -0.2, (0.3, -0.8))
        got = riemann(GENERIC, pt)
        d = GENERIC.dim
        fd_dgamma = np.zeros((d, d, d, d))
        for k in range(d):
            gp = christoffel(metric_jet(GENERIC, shifted(pt, k, FD_STEP)))
            gm = christoffel(metric_jet(GENERIC, shifted(pt, k, -FD_STEP)))
            fd_dgamma[k] = (gp - gm) / (2 * FD_STEP)
        gamma = christoffel(metric_jet(GENERIC, pt))
        term = np.einsum("rml,lns->rsmn", gamma, gamma)
        fd = (
            fd_dgamma.transpose(1, 3, 0, 2) - fd_dgamma.transpose(1, 3, 2, 0)
            + term - term.transpose(0, 1, 3, 2)
        )
        assert np.max(np.abs(fd - got)) < 1e-6

    def test_riemann_skips_the_third_derivative_bit_for_bit(self, monkeypatch):
        def old_riemann(pw, pt):  # through metric_jet, which also builds dddg
            jet = metric_jet(pw, pt)
            gamma, dgamma, *_ = plane_wave._connection(jet.g_inv, jet.dg, jet.ddg, plane_wave.NUMPY)
            return plane_wave._riemann_from_connection(gamma, dgamma, plane_wave.NUMPY)

        # at |x| < 0.7 the metric of H = 1e308 stays finite while its second derivatives overflow
        huge = PlaneWaveData(1, ((Fraction(0),),), ((Fraction(10**308),),))
        cases = [(pw, pt) for pw in (GENERIC, FLAT) for pt in sample_points(pw.n, 4, seed=23)]
        cases += [(huge, ChartPoint(pt.z, pt.s, (pt.x[0] / 4,))) for pt in sample_points(1, 4, seed=24)]
        cases += [(huge, ChartPoint(0.2, -1.5, (0.5,))), (huge, ChartPoint(0.0, -0.0, (-0.0,)))]
        with np.errstate(all="ignore"):
            for pw, pt in cases:
                assert riemann(pw, pt).tobytes() == old_riemann(pw, pt).tobytes()
            assert not np.isfinite(riemann(*cases[-2])).all()
        # and builds no GeometryJet: neither metric_jet nor _geometry_jet is called
        want = old_riemann(*cases[0])
        monkeypatch.setattr(plane_wave, "metric_jet", None)
        monkeypatch.setattr(plane_wave, "_geometry_jet", None)
        assert riemann(*cases[0]).tobytes() == want.tobytes()


class TestStructureAt:
    def test_coframe_recovers_metric(self):
        eta = np.zeros((4, 4))
        eta[0, 1] = eta[1, 0] = 1.0
        eta[2, 2] = eta[3, 3] = 1.0
        for pt in sample_points(2, 5, seed=21):
            jet = metric_jet(GENERIC, pt)
            _, e = structure_at(GENERIC, pt)
            assert np.max(np.abs(e.T @ eta @ e - jet.g)) < 1e-12

    def test_frame_components_classify_as_null_type_13(self):
        out = classify(frame_structure(GENERIC))
        assert out.label == "T1+T3" and out.degeneracy == "null"

    def test_defining_vector_is_s_translation(self):
        hs, e = structure_at(GENERIC, ChartPoint(0.4, 1.2, (0.3, -0.9)))
        from homkit.hom_structure import trace_one_form

        alpha, xi, norm = trace_one_form(hs)
        assert abs(norm) < 1e-12
        assert np.allclose([float(x) for x in xi.components], [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_coordinate_components_classify_in_float_mode(self):
        # classification is invariant under the coframe conjugation, so
        # the coordinate components give the same class at tolerance
        hs, _ = structure_at(GENERIC, ChartPoint(0.7, -0.4, (1.2, 0.3)))
        out = classify(hs)
        assert out.label == "T1+T3" and out.degeneracy == "null"

    def test_coordinate_structure_is_antisymmetric(self):
        hs, _ = structure_at(GENERIC, ChartPoint(-0.3, 0.8, (1.1, 0.2)))
        for x in range(4):
            for y in range(4):
                for z in range(4):
                    assert hs.S[x, y, z] == pytest.approx(-hs.S[x, z, y], abs=1e-13)


class TestResiduals:
    def test_thresholds_on_random_data(self):
        rng = random.Random(99)
        for n in (1, 2, 3, 4):
            pw = random_wave(rng, n)
            res = as_residuals(pw, sample_points(n, 10, seed=n))
            assert res["r_g"] < 1e-10
            assert res["r_S"] < 1e-10
            assert res["r_geo"] < 1e-10
            assert res["r_R"] < 1e-8

    def test_flat_wave_residuals(self):
        res = as_residuals(FLAT, sample_points(1, 10, seed=2))
        assert max(res.values()) < 1e-12

    def test_perturbed_structure_is_detected(self):
        hs = frame_structure(GENERIC)
        comps = list(hs.S.components)
        bump = Fraction(1, 1000)
        t = Tensor.zeros(4, (DOWN, DOWN, DOWN))
        comps[t.flat((0, 0, 1))] += bump
        comps[t.flat((0, 1, 0))] -= bump
        perturbed = Tensor(4, (DOWN, DOWN, DOWN), tuple(comps))
        res = as_residuals(GENERIC, sample_points(2, 10, seed=4), frame_s_override=perturbed)
        assert res["r_S"] > 1e-4

    def test_requires_points(self):
        with pytest.raises(ValueError, match="at least one"):
            as_residuals(FLAT, [])

    def test_one_profile_jet_per_point(self, monkeypatch):
        calls = []
        # the sweep converts F and H once and takes one profile jet per point from them
        sweep_jet = plane_wave._profile_jet
        monkeypatch.setattr(plane_wave, "_profile_jet", lambda *args: calls.append(1) or sweep_jet(*args))
        for k in (1, 5):
            calls.clear()
            as_residuals(GENERIC, sample_points(2, k, seed=k))
            assert len(calls) == k
        monkeypatch.undo()
        jet = plane_wave.profile_jet
        monkeypatch.setattr(plane_wave, "profile_jet", lambda *args: calls.append(1) or jet(*args))
        for pt in sample_points(2, 3, seed=2):
            calls.clear()
            plane_wave.structure_at(GENERIC, pt)
            assert len(calls) == 1


class TestIsometryAlgebra:
    def test_zero_data_table(self):
        pw = PlaneWaveData(2, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
        algebra = pw_isometry_algebra(pw)
        u, v = 0, 1
        assert algebra.bracket(u, v) == {v: Fraction(1)}
        for i in range(2):
            assert algebra.bracket(u, 2 + i) == {2 + i: Fraction(1)}
            assert algebra.bracket(u, 4 + i) == {2 + i: Fraction(1)}
            assert algebra.bracket(2 + i, 4 + i) == {1: Fraction(-1)}

    def test_single_direction_profile(self):
        for h in (Fraction(3), Fraction(-2, 7), Fraction(0)):
            pw = PlaneWaveData(1, ((0,),), ((h,),))
            algebra = pw_isometry_algebra(pw)
            assert algebra.dim == 4
            assert jacobi_residual(algebra)[1] == 0
            row = algebra.bracket(0, 2)
            assert row.get(3, Fraction(0)) == 2 * h

    def test_random_rational_tables_close(self):
        # only J_{U X_i X_j}^V reads the boost block B, and it vanishes
        # because B - B^T = -2F for every antisymmetric F and symmetric H
        rng = random.Random(12)
        for n, max_den in itertools.product((1, 2, 3, 4), (4, 10**9)):
            for _ in range(4):
                pw = random_wave(rng, n, max_den=max_den)
                bb = boost_block(pw)
                assert all(bb[i][j] - bb[j][i] == -2 * pw.F[i][j]
                           for i in range(n) for j in range(n))
                assert jacobi_residual(pw_isometry_algebra(pw))[1] == 0

    def test_json_round_trip(self):
        rng = random.Random("wave-json")
        for n in (1, 2, 3):
            pw = random_wave(rng, n, max_den=10**9)
            data = json.loads(json.dumps(pw.to_json()))
            back = PlaneWaveData.from_json(data)
            assert back == pw and back.to_json() == data
            assert all(type(x) is Fraction for m in (back.F, back.H) for row in m for x in row)
        data["H"][0][1] = "1/3"
        with pytest.raises(ValueError, match="H must be symmetric"):
            PlaneWaveData.from_json(data)
        with pytest.raises(ValueError, match="transverse dimension must be at least 1"):
            PlaneWaveData.from_json({**data, "n": 0})

    @pytest.mark.parametrize("field, value, message", [
        ("H", True, "H: True is not a rational number"),
        # a JSON float would be read as its binary value, not 1/10
        ("H", 0.1, "H: 0.1 is not a rational number"),
        ("F", None, "F: None is not a rational number"),
        ("n", True, "n must be a positive integer, not True"),
        ("n", "2", "n must be a positive integer, not '2'"),
    ])
    def test_json_entries_are_exact(self, field, value, message):
        data = {"n": 2, "F": [["0", "1/2"], ["-1/2", "0"]], "H": [["1", "0"], ["0", "1"]]}
        if field == "n":
            data["n"] = value
        else:
            data[field][0][0] = value
        with pytest.raises(ValueError) as err:
            PlaneWaveData.from_json(data)
        assert str(err.value) == message

    @pytest.mark.parametrize("field, value", [
        ("F", None),
        ("F", [1]),
        # at n = 1 a string would be read character by character as [["1"]]
        ("H", "1"),
        ("H", [["1", "0"], ["0"]]),
    ])
    def test_json_containers_are_checked(self, field, value):
        n = 1 if field == "F" or isinstance(value, str) else 2
        data = {"n": n, "F": [["0"] * n for _ in range(n)], "H": [["1"] * n for _ in range(n)]}
        data[field] = value
        with pytest.raises(ValueError) as err:
            PlaneWaveData.from_json(data)
        assert str(err.value) == f"{field} must be n x n"

    def test_boost_block_reduces_without_rotation(self):
        pw = PlaneWaveData(2, ((0, 0), (0, 0)), ((1, Fraction(1, 2)), (Fraction(1, 2), 3)))
        bb = boost_block(pw)
        for i in range(2):
            for j in range(2):
                assert bb[i][j] == 2 * pw.H[i][j]


class TestClosingTheLoop:
    def test_reconstruction_matches_bracket_table(self):
        rng = random.Random(6)
        for n in (1, 2, 3):
            pw = random_wave(rng, n)
            hs = frame_structure(pw)
            curv = exact_curvature(
                pw, Fraction(rng.randint(-3, 3), 4),
                tuple(Fraction(rng.randint(-3, 3), 2) for _ in range(n)),
            )
            labels_m = ["U", "V"] + [f"X{i+1}" for i in range(n)]
            labels_h = [f"Xb{i+1}" for i in range(n)]
            algebra, residual = build_isometry_algebra(hs, curv, labels_m, labels_h)
            assert residual == 0
            assert algebra.f == pw_isometry_algebra(pw).f

    def test_frame_metric_is_built_once_per_dimension(self, monkeypatch):
        builds = []
        light_cone = FrameMetric.light_cone.__func__
        monkeypatch.setattr(FrameMetric, "light_cone", classmethod(
            lambda cls, n, tag: builds.append((n, tag)) or light_cone(cls, n, tag)))
        frame_metric.cache_clear()
        for _ in range(2):
            for pw in (GENERIC, FLAT):
                hs = frame_structure(pw)
                curv = exact_curvature(pw, Fraction(1, 3), (Fraction(1, 2),) * pw.n)
                assert curv.metric is hs.metric is frame_metric(pw.n, EXACT)
        assert builds == [(2, EXACT), (1, EXACT)]

    @pytest.mark.parametrize("s,x,name", [
        (0.1, (Fraction(1),), "s"), (Fraction(1), (0.1,), "x"),
        (True, (Fraction(1),), "s"), (Fraction(1), (False,), "x"),
        (float("nan"), (Fraction(1),), "s"), (Fraction(1), (float("nan"),), "x"),
    ])
    def test_exact_curvature_refuses_floats_bools_and_nans(self, s, x, name):
        with pytest.raises(ValueError, match=f"^{name}: .* is not a rational number"):
            exact_curvature(FLAT, s, x)

    def test_exact_curvature_reads_its_point_as_wave_data_reads_entries(self):
        # ints, Fractions and "p/q" strings, as PlaneWaveData reads F and H
        want = exact_curvature(GENERIC, Fraction(1, 3), (Fraction(1, 2), Fraction(2)))
        assert exact_curvature(GENERIC, "1/3", ("1/2", 2)).Rbar == want.Rbar
        with pytest.raises(ValueError, match="x must have n components"):
            exact_curvature(GENERIC, 1, (1,))

    def test_frame_curvature_is_point_independent(self):
        a = exact_curvature(GENERIC, Fraction(1, 3), (Fraction(1, 2), Fraction(-2, 5)))
        b = exact_curvature(GENERIC, Fraction(-2), (Fraction(0), Fraction(5, 7)))
        assert a.Rbar == b.Rbar


def rational_point(rng, n):
    s = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return s, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))


def fraction_curvature(pw, s, x):
    """Rbar[a, b, c, d] from the connection chain on Fraction object arrays.

    The exact backend before it moved to integer numerators: every sum
    and product on Fractions, every contraction a plain np.einsum of
    Fractions.
    """
    d, t = pw.n + 2, np.arange(2, pw.n + 2)
    x = np.array(x, dtype=object)
    m0, m1, m2 = _commutator_jet(np.array(pw.H, dtype=object), np.array(pw.F, dtype=object))

    def zeros(rank):
        return np.full((d,) * rank, Fraction(0), dtype=object)

    def einsum(spec, *ops):
        return np.einsum(spec, *ops, optimize="greedy")

    def lower(dg):
        return (dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)) / 2

    g, dg, ddg = zeros(2), zeros(3), zeros(4)
    g[0, 0] = 2 * (x @ m0 @ x + s)
    g[0, 1] = g[1, 0] = g[t, t] = Fraction(1)
    dg[0, 0, 0] = 2 * (x @ m1 @ x)
    dg[1, 0, 0] = Fraction(2)
    dg[2:, 0, 0] = 4 * (m0 @ x)
    ddg[0, 0, 0, 0] = 2 * (x @ m2 @ x)
    ddg[0, 2:, 0, 0] = ddg[2:, 0, 0, 0] = 4 * (m1 @ x)
    ddg[2:, 2:, 0, 0] = 4 * m0
    ginv = np.array(mat_inverse(g.tolist(), EXACT), dtype=object)
    low = lower(dg)
    gamma = einsum("rs,mns->rmn", ginv, low)
    dginv = -einsum("ra,kab,bs->krs", ginv, dg, ginv)
    dgamma = einsum("krs,mns->krmn", dginv, low) + einsum("rs,kmns->krmn", ginv, lower(ddg))

    e, de = zeros(2), zeros(3)
    e[0, 0] = e[1, 1] = e[t, t] = Fraction(1)
    e[1, 0] = x @ m0 @ x + s
    de[0, 1, 0] = x @ m1 @ x
    de[1, 1, 0] = Fraction(1)
    de[2:, 1, 0] = 2 * (m0 @ x)
    sf = np.reshape(frame_structure(pw).S.components, (d,) * 3)
    s_coord = einsum("abc,am,bn,cs->mns", sf, e, e, e)
    ds_coord = (
        einsum("abc,kam,bn,cs->kmns", sf, de, e, e)
        + einsum("abc,am,kbn,cs->kmns", sf, e, de, e)
        + einsum("abc,am,bn,kcs->kmns", sf, e, e, de)
    )
    gbar = gamma - einsum("mns,rs->rmn", s_coord, ginv)
    ds_up = einsum("kmns,rs->kmnr", ds_coord, ginv) + einsum("mns,krs->kmnr", s_coord, dginv)
    dgbar = dgamma - ds_up.transpose(0, 3, 1, 2)
    term = einsum("rml,lns->rsmn", gbar, gbar)
    rbar = (
        dgbar.transpose(1, 3, 0, 2) - dgbar.transpose(1, 3, 2, 0)
        + term - term.transpose(0, 1, 3, 2)
    )
    theta = np.array(mat_inverse(e.tolist(), EXACT), dtype=object)
    return einsum("cr,rtmn,td,ma,nb->abcd", e, rbar, theta, theta, theta)


def exact_inputs(pw, s, x):
    """(frame S, profile jet, s, x) as exact_curvature hands them to the chain."""
    n, frame = pw.n, _frame_tensor(pw)
    h, f = (SPARSE.array((n, n), {(i, j): m[i][j] for i in range(n) for j in range(n)}) for m in (pw.H, pw.F))
    point = SPARSE.array((), {(): s}), SPARSE.array((n,), {(i,): v for i, v in enumerate(x)})
    return SparseArray(dict(frame.nums), frame.den, (pw.dim,) * 3), _commutator_jet(h, f), *point


def assert_python_int_numerators(q):
    assert isinstance(q, SparseArray)
    assert type(q.den) is int and q.den > 0
    assert all(type(v) is int and v != 0 for v in q.nums.values())
    assert all(len(idx) == len(q.shape) and all(0 <= i < k for i, k in zip(idx, q.shape)) for idx in q.nums)


class TestScalarBackends:
    """The one connection chain, on float64 arrays and on SparseArrays."""

    def test_float_chain_matches_exact_curvature(self):
        rng = random.Random(31)
        for n in (1, 2, 3):
            for _ in range(3):
                pw = random_wave(rng, n)
                s, x = rational_point(rng, n)
                got = _frame_curvature(_frame_array(_frame_tensor(pw)), profile_jet(pw, 0.0), float(s),
                                       np.array([float(v) for v in x]), plane_wave.NUMPY)
                assert got.dtype == np.float64
                want = exact_curvature(pw, s, x).Rbar
                want = np.array([float(v) for v in want.components]).reshape(got.shape)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_exact_backend_holds_python_int_numerators(self):
        rng = random.Random(32)
        for n in (1, 2, 3):
            pw = random_wave(rng, n)
            s, x = rational_point(rng, n)
            sf, prof, *point = args = exact_inputs(pw, s, x)
            metric, coframe = _chart_jet(prof, *point, SPARSE)
            for q in (sf, *prof, *point, *metric, *coframe, _frame_curvature(*args, SPARSE)):
                assert_python_int_numerators(q)
            curv = exact_curvature(pw, s, x)
            assert all(type(v) is Fraction for v in curv.Rbar.components)

    def test_exact_curvature_matches_fraction_chain(self):
        # the Fraction chain takes about 0.5 s at n = 4, so each n runs once
        rng = random.Random(33)
        for n in (1, 2, 3, 4):
            pw = random_wave(rng, n)
            # shift the diagonal and about half the other profile entries by
            # fractions with denominators near 1e9+7
            h = [list(row) for row in pw.H]
            for i, j in zip(*np.triu_indices(n)):
                if i == j or rng.random() < 0.5:
                    den = 1_000_000_007 + 2 * rng.randint(0, 5)
                    h[i][j] = h[j][i] = h[i][j] + Fraction(rng.randint(1, 9), den)
            pw = PlaneWaveData(n, pw.F, tuple(map(tuple, h)))
            s, x = rational_point(rng, n)
            want = fraction_curvature(pw, s, x)
            got = exact_curvature(pw, s, x).Rbar.components
            assert any(v.denominator > 10**9 for v in got)
            assert got == tuple(want.reshape(-1))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sparse_curvature_matches_fraction_chain_at_random_points(self, seed):
        # the SparseArray route against the same chain on numpy object arrays of Fractions
        rng = random.Random(f"sparse:{seed}")
        for n in (1, 2, 3, 4):
            pw = random_wave(rng, n)
            s, x = rational_point(rng, n)
            curv = exact_curvature(pw, s, x)
            assert curv.Rbar.components == tuple(fraction_curvature(pw, s, x).reshape(-1))
            assert all(v for _, v in curv.Rbar.nums)
