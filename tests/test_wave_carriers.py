"""The wave and isotropy readers take the matrix Tensors, never the rows.

PlaneWaveData parses F and H once into the private matrix Tensors _F and
_H, and CurvatureAtPoint parses each isotropy matrix once into _h.  So a
wave whose F and H rows, or a curvature whose h_basis rows, can no longer
be read must give every reader the same result as an untouched one.
The isotropy check refuses a float inf beside a -inf, as it refuses a
nan, and a self-inverse FrameMetric splits its one rows object once.
"""

import itertools
import random
from fractions import Fraction

import pytest

from homkit.exact import EXACT, FLOAT
from homkit.hom_structure import CurvatureAtPoint, build_isometry_algebra
from homkit.tensor_core import DOWN, UP, FrameMetric, Tensor
from homkit.reduction import ansatz_from_plane_wave
from homkit.wave_curvature import exact_curvature, frame_structure
from homkit.wave_table import PlaneWaveData, boost_block, pw_isometry_algebra


class Unreadable:
    """Rows that fail on any read."""

    def __iter__(self):
        raise AssertionError("rows iterated")

    def __getitem__(self, key):
        raise AssertionError(f"rows indexed at {key!r}")

    def __len__(self):
        raise AssertionError("rows measured")


def random_wave(rng, n):
    f = [[Fraction(0)] * n for _ in range(n)]
    h = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        h[i][j] = h[j][i] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 1_000_000_007)))
        if i != j:
            f[i][j] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 7)))
            f[j][i] = -f[i][j]
    return PlaneWaveData(n, f, h)


def readers(pw):
    point = (Fraction(1, 3), [Fraction(k - 1, 2) for k in range(pw.n)])
    return (pw_isometry_algebra(pw), boost_block(pw), frame_structure(pw), exact_curvature(pw, *point),
            ansatz_from_plane_wave(pw))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wave_readers_never_read_the_rows(n):
    rng = random.Random(f"carriers-{n}")
    pw, blind = random_wave(rng, n), random_wave(random.Random(f"carriers-{n}"), n)
    vars(blind).update(F=Unreadable(), H=Unreadable())
    want, got = readers(pw), readers(blind)
    assert got == want
    assert got[3].Rbar.nums and got[0].f.nums


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_isometry_algebra_never_reads_the_isotropy_rows(n):
    pw = random_wave(random.Random(f"isotropy-{n}"), n)
    hs, curv = frame_structure(pw), exact_curvature(pw, 2, [Fraction(1, 5)] * n)
    blind = exact_curvature(pw, 2, [Fraction(1, 5)] * n)
    vars(blind)["h_basis"] = Unreadable()
    want = build_isometry_algebra(hs, curv)
    assert build_isometry_algebra(hs, blind) == want
    assert want[0].dim == 2 * n + 2


@pytest.mark.parametrize("top", [float("inf"), float("nan"), 1.0])
def test_float_isotropy_check_refuses_what_is_not_finite(top):
    metric = FrameMetric.euclidean(3, FLOAT)
    rows = [[0.0, top, 0.0], [-top, 0.0, 0.0], [0.0, 0.0, 0.0]]
    zero = Tensor.zeros(3, (DOWN, DOWN, UP, DOWN), FLOAT)
    if top == 1.0:
        assert CurvatureAtPoint(zero, (rows,), metric)._h[0].nums == (((0, 1), 1.0), ((1, 0), -1.0))
    else:
        with pytest.raises(ValueError, match="h_basis matrix is not metric-antisymmetric"):
            CurvatureAtPoint(zero, (rows,), metric)


@pytest.mark.parametrize("tag", [EXACT, FLOAT])
def test_self_inverse_metric_shares_its_rows_and_numerators(tag):
    for metric in (FrameMetric.light_cone(3, tag), FrameMetric.euclidean(4, tag)):
        assert metric.g is metric.g_inv and metric._g.nums is metric._g_inv.nums
        assert (metric._g.valence, metric._g_inv.valence) == ((DOWN, DOWN), (UP, UP))
    # equal rows passed as two objects are split apart, and give an equal metric
    rows = FrameMetric.light_cone(3, tag).g
    apart = FrameMetric(5, rows, tuple(map(tuple, rows)), tag)
    assert apart._g.nums is not apart._g_inv.nums and apart._g_inv.nums == apart._g.nums
    assert apart == FrameMetric.light_cone(3, tag) and hash(apart) == hash(FrameMetric.light_cone(3, tag))
