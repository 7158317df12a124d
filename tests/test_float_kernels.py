"""The float sweep's helpers against the numpy wrappers they replaced, bit for bit.

plane_wave calls numpy's kernels without numpy's Python wrappers:
_gamma_lower transposes with ndarray methods instead of np.swapaxes and
np.moveaxis, expm reduces its 1-norms with np.add.reduce and
np.maximum.reduce instead of .sum(axis=0).max(), profile_jet converts F
and H with one np.array call, and each backend's array constructor is
zeros and then one fill per entry.  Each
must give the bytes (or, on SparseArrays, the exact values) of the
formula it replaced, and expm must stop after as many Taylor terms as
the old loop did.  as_residuals converts F and H once per call, not
once per chart point.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from homkit import plane_wave
from homkit.wave_curvature import SPARSE, SparseArray
from homkit.wave_table import PlaneWaveData
from test_exact_array import SMALL, assert_same, fraction_array, fractions, sparse


def old_gamma_lower(dg):
    return (dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)) / 2


def old_expm(a):
    """expm as it was written with ndarray .sum and .max; also returns its Taylor terms."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=0).max()
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0 ** squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 40):
        term = term @ a / k
        result = result + term
        if np.abs(term).sum(axis=0).max() <= 1e-16 * np.abs(result).sum(axis=0).max():
            break
    for _ in range(squarings):
        result = result @ result
    return result, k


class CountingNumpy:
    """numpy, counting the np.abs calls made through this name."""

    def __init__(self):
        self.abs_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def abs(self, x):
        self.abs_calls += 1
        return np.abs(x)


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_gamma_lower_is_the_swapaxes_moveaxis_formula(rank):
    rng = np.random.default_rng(rank)
    for d in (1, 3, 4):
        dg = rng.standard_normal((d,) * rank)
        assert plane_wave._gamma_lower(dg).tobytes() == old_gamma_lower(dg).tobytes()
        # all Fractions, so numpy's / 2 stays exact
        a = fraction_array(random.Random(rank * 10 + d), (d,) * rank, SMALL) + Fraction(0)
        assert_same(fractions(plane_wave._gamma_lower(sparse(a))), old_gamma_lower(a))


def random_antisymmetric(rng, n, scale):
    a = rng.standard_normal((n, n)) * scale
    return a - a.T


def test_expm_is_the_old_loop(monkeypatch):
    rng = np.random.default_rng(8)
    counting = CountingNumpy()
    monkeypatch.setattr(plane_wave, "np", counting)
    for n in range(1, 9):
        cases = [np.zeros((n, n))]
        cases += [random_antisymmetric(rng, n, scale) for scale in (1e-3, 0.1, 0.7, 3.0, 20.0)]
        for a in cases:
            counting.abs_calls = 0
            got = plane_wave.expm(a)
            want, terms = old_expm(a)
            assert got.tobytes() == want.tobytes()
            # one np.abs for the norm of a, then two per Taylor term
            assert counting.abs_calls == 1 + 2 * terms


def test_profile_jet_converts_each_entry_as_float_does():
    rng = random.Random(3)
    for n in (1, 2, 5):
        f = [[Fraction(0)] * n for _ in range(n)]
        h = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**rng.randint(1, 25)))
                f[i][j], f[j][i] = (v, -v) if i != j else (0, 0)
                h[i][j] = h[j][i] = Fraction(rng.randint(-99, 99), rng.randint(1, 7))
        pw = PlaneWaveData(n, tuple(map(tuple, f)), tuple(map(tuple, h)))
        old_f = np.array([[float(v) for v in row] for row in pw.F])
        old_h = np.array([[float(v) for v in row] for row in pw.H])
        e = old_expm(-0.75 * old_f)[0]
        want = plane_wave._commutator_jet(e @ old_h @ e.T, old_f)
        want += (want[2] @ old_f - old_f @ want[2],)  # M'''
        for got_m, want_m in zip(plane_wave.profile_jet(pw, 0.75), want, strict=True):
            assert got_m.tobytes() == want_m.tobytes()


@pytest.mark.parametrize("shape", [(3, 3), (4,) * 5, (0, 2), (5,), ()])
def test_backend_arrays_are_zeros_then_filled(shape):
    rng = random.Random(f"array:{shape}")
    every = list(itertools.product(*map(range, shape)))
    at = rng.sample(every, min(len(every), 9))
    # floats: signed zeros, inf and nan among finite values; numpy scalars as the chain hands them
    floats = {idx: rng.choice((rng.uniform(-1e3, 1e3), -0.0, 0.0, np.inf, -np.nan, np.float64(1 / 3)))
              for idx in at}
    want = np.full(shape, 0.0)
    for idx, v in floats.items():
        want[idx] = v
    got = plane_wave.NUMPY.array(shape, floats)
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    # exact: ints, Fractions and 0-d SparseArrays, zeros among them
    exact = {idx: rng.choice((0, -3, Fraction(2, 7), Fraction(-5, 10**9 + 7), sparse(Fraction(1, 6)),
                              sparse(0))) for idx in at}
    want = np.full(shape, Fraction(0), dtype=object)
    for idx, v in exact.items():
        want[idx] = fractions(v) if isinstance(v, SparseArray) else v
    assert_same(fractions(SPARSE.array(shape, exact)), want[()] if shape == () else want)


def test_sweep_converts_the_profile_once_per_call(monkeypatch):
    pw = PlaneWaveData(2, ((0, Fraction(1, 3)), (Fraction(-1, 3), 0)), ((1, Fraction(1, 7)), (Fraction(1, 7), -1)))
    pts = plane_wave.sample_points(2, 4, seed=3)
    want = plane_wave.as_residuals(pw, pts)
    conversions = []
    real = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda v: conversions.append(v) or real(v))
    got = plane_wave.as_residuals(pw, pts)
    # the 2 x 2 F and H once, not once per each of the 4 points
    assert len(conversions) == 8
    assert got == want
    # profile_jet still converts on each call, with the bits of the converted sweep
    conversions.clear()
    f, h = np.array(pw.F, dtype=float), np.array(pw.H, dtype=float)
    for pt in pts:
        for got_m, want_m in zip(plane_wave.profile_jet(pw, pt.z), plane_wave._profile_jet(f, h, pt.z)):
            assert got_m.tobytes() == want_m.tobytes()
    assert len(conversions) == 8 * (len(pts) + 1)
