"""The frame contractions as pairwise tensordot chains, against einsum.

wave_curvature._coordinate_structure runs S = "abc,am,bn,cs->mns" and
the three terms of d_k S as the pairwise products of numpy's greedy
einsum, sharing the partial products.  On plane_wave's float64 backend
its results must carry the bytes of the four einsum(..., optimize="greedy")
calls it replaces; on SparseArrays they must equal the plain Fraction
einsum.  The exact frame conversion _frame_form must equal
"cr,rtmn,td,ma,nb->abcd" on Fractions, and a sweep must plan no
contraction at call time.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from homkit import plane_wave
from homkit.exact import EXACT, mat_inverse
from homkit.wave_curvature import SPARSE, SparseArray, _coordinate_structure, _frame_form
from homkit.wave_table import PlaneWaveData
from test_exact_array import LARGE, SMALL, assert_same, fraction_array, fractions, sparse

S_SPEC = "abc,am,bn,cs->mns"
DS_SPECS = ("abc,kam,bn,cs->kmns", "abc,am,kbn,cs->kmns", "abc,am,bn,kcs->kmns")


def einsum_structure(sf, e, de, **kw):
    """S and d_k S as the four einsum calls, in the order they are summed."""
    s = np.einsum(S_SPEC, sf, e, e, e, **kw)
    ds = (np.einsum(DS_SPECS[0], sf, de, e, e, **kw)
          + np.einsum(DS_SPECS[1], sf, e, de, e, **kw)
          + np.einsum(DS_SPECS[2], sf, e, e, de, **kw))
    return s, ds


@pytest.mark.parametrize("d", range(3, 9))
def test_float_structure_has_greedy_einsum_bits(d):
    rng = np.random.default_rng(d)
    for _ in range(12):
        scale = 10.0 ** rng.integers(-6, 6, (d,) * 3)
        sf = rng.standard_normal((d,) * 3) * scale
        e, de = rng.standard_normal((d, d)), rng.standard_normal((d,) * 3)
        want_s, want_ds = einsum_structure(sf, e, de, optimize="greedy")
        got_s, got_ds = _coordinate_structure(sf, e, plane_wave.NUMPY, de)
        assert got_s.tobytes() == want_s.tobytes()
        assert got_ds.shape == want_ds.shape and got_ds.tobytes() == want_ds.tobytes()
        assert _coordinate_structure(sf, e, plane_wave.NUMPY)[0].tobytes() == want_s.tobytes()


@pytest.mark.parametrize("dens", [SMALL, LARGE])
@pytest.mark.parametrize("d", [2, 3])
def test_exact_structure_matches_fraction_einsum(d, dens):
    rng = random.Random(f"structure:{d}:{dens[-1]}")
    sf, e, de = (fraction_array(rng, shape, dens) for shape in ((d,) * 3, (d, d), (d,) * 3))
    got_s, got_ds = _coordinate_structure(sparse(sf), sparse(e), SPARSE, sparse(de))
    want_s, want_ds = einsum_structure(sf, e, de)
    assert_same(fractions(got_s), want_s)
    assert_same(fractions(got_ds), want_ds)


@pytest.mark.parametrize("dens", [SMALL, LARGE])
@pytest.mark.parametrize("d", [2, 3])
def test_exact_frame_form_matches_fraction_einsum(d, dens):
    rng = random.Random(f"frame:{d}:{dens[-1]}")
    # a unit lower-triangular coframe, as _coframe builds, with random entries below
    e = np.array([[Fraction(int(i == j)) if i <= j else Fraction(rng.randint(-9, 9), rng.choice(dens))
                   for j in range(d)] for i in range(d)], dtype=object)
    rbar = fraction_array(rng, (d,) * 4, dens)
    theta = np.array(mat_inverse(e.tolist(), EXACT), dtype=object)
    want = np.einsum("cr,rtmn,td,ma,nb->abcd", e, rbar, theta, theta, theta)
    assert_same(fractions(_frame_form(sparse(e), sparse(rbar), SPARSE)), want)


def test_sweep_plans_no_contraction(monkeypatch):
    calls = []
    real = np.einsum_path

    def counted(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(np, "einsum_path", counted)
    # np.einsum plans through the name in its own module
    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path", counted)
    pw = PlaneWaveData(2, ((0, Fraction(1, 2)), (Fraction(-1, 2), 0)), ((1, 0), (0, -1)))
    plane_wave.as_residuals(pw, plane_wave.sample_points(2, 3, seed=7))
    assert calls == []
    # the patch sees a planned contraction
    np.einsum("ij,jk,kl->il", *np.ones((3, 2, 2)), optimize="greedy")
    assert calls


def test_nan_residual_is_the_worst(monkeypatch):
    nan = float("nan")
    results = iter([
        {"r_g": 1e-12, "r_S": 2e-12, "r_R": 1e-9, "r_geo": 0.0},
        {"r_g": nan, "r_S": 1e-11, "r_R": float("inf"), "r_geo": 0.0},
        {"r_g": 3e-12, "r_S": 3e-12, "r_R": 2e-9, "r_geo": 5e-13},
    ])
    monkeypatch.setattr(plane_wave, "_point_residuals", lambda pw, pt, sf: next(results))
    pw = PlaneWaveData(1, ((0,),), ((1,),))
    worst = plane_wave.as_residuals(pw, plane_wave.sample_points(1, 3, seed=0))
    assert np.isnan(worst["r_g"]) and worst["r_R"] == float("inf")
    assert (worst["r_S"], worst["r_geo"]) == (1e-11, 5e-13)
