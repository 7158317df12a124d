"""Singular homogeneous plane waves as an explicit chart geometry.

Chart coordinates are ordered (z, s, x^1..x^n), D = n + 2.  The metric
is built from the coframe

    e^+ = dz,   e^- = ds + (Q + s) dz,   e^i = dx^i,

with wave profile Q = x^T M(z) x and M(z) = exp(zF) H exp(-zF).  The
frame metric pairs the two null legs to 1 and keeps the transverse legs
orthonormal, so g_zz = 2(Q + s), g_zs = 1, g_ij = delta_ij.

Every z-derivative is routed through the closed-form profile jet
M' = [F, M], M'' = [F, [F, M]], M''' = [F, [F, [F, M]]]; finite
differencing exists only as a test oracle.  The curvature sign
convention is fixed once:

    R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma}
                        - d_nu Gamma^rho_{mu sigma}
                        + Gamma^rho_{mu lam} Gamma^lam_{nu sigma}
                        - Gamma^rho_{nu lam} Gamma^lam_{mu sigma}.

The connection chain (metric jet -> Christoffel -> Gamma - S -> curvature
-> frame) is written once, in wave_curvature, for two array backends that
build each array from an {index: value} dict: NUMPY here, float64 at any
z, for the residual sweeps (np.zeros filled one entry at a time, so each
float keeps the bits region assignment gave it), and wave_curvature's
exact SparseArrays at z = 0, for exact_curvature and frame_structure,
which run without numpy there and are served here too.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

# the numpy-free modules before numpy: a lazy module compiles on first read,
# and compiled on the smaller heap its parse adds nothing to the peak RSS
from .exact import FLOAT
from . import hom_structure
from .tensor_core import DOWN, FrameMetric, Tensor, _frozen
# the wave data, its bracket table and the connection chain are numpy-free; served here too
from .wave_table import PlaneWaveData, boost_block, pw_isometry_algebra
from .wave_curvature import (_chart_jet, _commutator_jet, _connection, _coordinate_structure, _frame_tensor,
                             _gamma_lower, _paired_axes, _raised_structure,
                             _riemann_from_connection, exact_curvature, frame_metric, frame_structure,
                             null_boost_basis)

import numpy as np


@_frozen
class ChartPoint:
    z: float
    s: float
    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        for v in (self.z, self.s, *self.x):
            if not np.isfinite(v):
                raise ValueError("chart point must be finite")


def sample_points(n, count, seed):
    """Seeded chart points with every coordinate drawn from [-2, 2]."""
    rng = random.Random(seed)
    return [
        ChartPoint(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                   tuple(rng.uniform(-2.0, 2.0) for _ in range(n)))
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# matrix exponential and profile jet
# ---------------------------------------------------------------------------


def expm(a):
    """Scaling-and-squaring truncated Taylor exponential.

    Adequate for the bounded antisymmetric arguments used here (n <= 8,
    coordinates at desk scale); the Taylor tail is run to float
    round-off after scaling the 1-norm below 1/2.
    """
    a = np.asarray(a, dtype=float)
    norm = np.maximum.reduce(np.add.reduce(np.abs(a), 0))  # the 1-norm, as .sum(0).max()
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0 ** squarings)
    result = term = np.eye(a.shape[0])  # never written in place
    for k in range(1, 40):
        term = term @ a / k
        result = result + term
        sums = np.add.reduce(np.abs(term), 0), np.add.reduce(np.abs(result), 0)
        if np.maximum.reduce(sums[0]) <= 1e-16 * np.maximum.reduce(sums[1]):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def profile_jet(pw, z):
    """M(z) and its first three z-derivatives as float arrays.

    The profile is conjugated by exp(-zF): with this orientation the
    constant frame table of the structure tensor (F in the transverse
    blocks, see frame_structure) is parallel for the connection built
    below, and the reconstructed bracket table comes out with the F
    signs used by pw_isometry_algebra.  Flipping the sign of F flips
    the orientation, so the family of geometries is unchanged.
    """
    return _profile_jet(np.array(pw.F, dtype=float), np.array(pw.H, dtype=float), z)  # float(v) per entry


def _profile_jet(f, h, z):
    e = expm(-z * f)
    m0, m1, m2 = _commutator_jet(e @ h @ e.T, f)  # exp(zF) = exp(-zF)^T for antisymmetric F
    return m0, m1, m2, m2 @ f - f @ m2


# the float backend: numpy's einsum and np.tensordot's np.dot, so the bits are numpy's


def _tensordot(a, b, axes):
    """np.tensordot's one np.dot call: a's summed axes moved last, b's first, each made 2-D."""
    axes_a, axes_b = _paired_axes(axes, a.ndim, b.ndim)
    at = a.transpose([k for k in range(a.ndim) if k not in axes_a] + axes_a)
    bt = b.transpose(axes_b + [k for k in range(b.ndim) if k not in axes_b])
    free_a, free_b = at.shape[: a.ndim - len(axes_a)], bt.shape[len(axes_b) :]
    if at.shape[len(free_a) :] != bt.shape[: len(axes_b)]:
        raise ValueError("shape-mismatch for sum")
    n = math.prod(bt.shape[: len(axes_b)])
    at, bt = at.reshape(math.prod(free_a), n), bt.reshape(n, math.prod(free_b))
    return np.dot(at, bt).reshape(free_a + free_b)


def _array(shape, entries):
    """np.zeros(shape), then one assignment per {index: value}, as region assignment wrote the floats."""
    out = np.zeros(shape)
    for idx, v in entries.items():
        out[idx] = v
    return out


# LAPACK's inverse: float reports are compared bit for bit, and a closed form moves low bits
NUMPY = SimpleNamespace(array=_array, inverse=np.linalg.inv, einsum=np.einsum, tensordot=_tensordot)


@_frozen
class GeometryJet:
    """Metric and its first three coordinate derivative arrays at a point."""

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray      # dg[k, m, n] = d_k g_{mn}
    ddg: np.ndarray     # ddg[k, l, m, n]
    dddg: np.ndarray    # dddg[k, l, p, m, n]


def metric_jet(pw, pt):
    return _geometry_jet(profile_jet(pw, pt.z), pt.s, np.array(pt.x))[0]


def _geometry_jet(prof, s, x):
    """(GeometryJet, coframe jet) at (s, x): the chain's jets and the dddg only connection_jet reads."""
    dddg = np.zeros((x.shape[0] + 2,) * 5)
    dddg[0, 0, 0, 0, 0] = 2 * (x @ prof[3] @ x)
    dddg[0, 0, 2:, 0, 0] = dddg[0, 2:, 0, 0, 0] = dddg[2:, 0, 0, 0, 0] = 4 * (prof[2] @ x)
    dddg[0, 2:, 2:, 0, 0] = dddg[2:, 0, 2:, 0, 0] = dddg[2:, 2:, 0, 0, 0] = 4 * prof[1]
    metric, coframe = _chart_jet(prof, s, x, NUMPY)
    return GeometryJet(*metric, dddg), coframe


def christoffel(jet):
    """Levi-Civita symbols Gamma[r, m, n] = Gamma^r_{mn}."""
    return np.einsum("rs,mns->rmn", jet.g_inv, _gamma_lower(jet.dg))


def connection_jet(jet):
    """Gamma, its first and its second coordinate derivatives."""
    ginv, dg, ddg = jet.g_inv, jet.dg, jet.ddg
    gamma, dgamma, dginv, low, dlow = _connection(ginv, dg, ddg, NUMPY)
    ddginv = (
        -np.einsum("kra,lab,bs->klrs", dginv, dg, ginv)
        - np.einsum("ra,klab,bs->klrs", ginv, ddg, ginv)
        - np.einsum("ra,lab,kbs->klrs", ginv, dg, dginv)
    )
    ddlow = _gamma_lower(jet.dddg)
    ddgamma = (
        np.einsum("klrs,mns->klrmn", ddginv, low)
        + np.einsum("krs,lmns->klrmn", dginv, dlow)
        + np.einsum("lrs,kmns->klrmn", dginv, dlow)
        + np.einsum("rs,klmns->klrmn", ginv, ddlow)
    )
    return gamma, dgamma, ddgamma


def riemann(pw, pt):
    """Mixed Riemann tensor R[r, s, m, n] = R^r_{smn} at a chart point."""
    (_, ginv, dg, ddg), _ = _chart_jet(profile_jet(pw, pt.z), pt.s, np.array(pt.x), NUMPY)
    gamma, dgamma, *_ = _connection(ginv, dg, ddg, NUMPY)
    return _riemann_from_connection(gamma, dgamma, NUMPY)


def _frame_array(s):
    """A rank-3 frame tensor as a float64 array, each entry num / den as float(Fraction) rounds it."""
    return _array((s.dim,) * 3, {idx: v / s.den for idx, v in s.nums})


def structure_at(pw, pt):
    """Coordinate-component structure at a point plus the coframe matrix."""
    (g, *_), (e, _) = _chart_jet(profile_jet(pw, pt.z), pt.s, np.array(pt.x), NUMPY)
    s_coord, _ = _coordinate_structure(_frame_array(_frame_tensor(pw)), e, NUMPY)
    metric = FrameMetric.from_matrix(g.tolist())
    s = Tensor(pw.dim, (DOWN, DOWN, DOWN), tuple(s_coord.reshape(-1).tolist()), FLOAT)
    return hom_structure.HomogeneousStructure(metric, s), e


# ---------------------------------------------------------------------------
# parallelism residuals for the metric connection with torsion
# ---------------------------------------------------------------------------


def _point_residuals(fh, pt, sf_array):
    jet, (e, de) = _geometry_jet(_profile_jet(*fh, pt.z), pt.s, np.array(pt.x))
    gamma, dgamma, ddgamma = connection_jet(jet)
    s_coord, ds_coord = _coordinate_structure(sf_array, e, NUMPY, de)
    gbar = gamma - _raised_structure(s_coord, jet.g_inv, NUMPY)

    # metric parallelism
    nabla_g = jet.dg - np.einsum("lkm,ln->kmn", gbar, jet.g) - np.einsum("lkn,ml->kmn", gbar, jet.g)

    # torsion-tensor parallelism
    nabla_s = (
        ds_coord
        - np.einsum("lkm,lns->kmns", gbar, s_coord)
        - np.einsum("lkn,mls->kmns", gbar, s_coord)
        - np.einsum("lks,mnl->kmns", gbar, s_coord)
    )

    # curvature parallelism, on the all-lower Levi-Civita Riemann tensor
    mixed = _riemann_from_connection(gamma, dgamma, NUMPY)
    dmixed = (
        ddgamma.transpose(0, 2, 4, 1, 3) - ddgamma.transpose(0, 2, 4, 3, 1)
        + np.einsum("krml,lns->krsmn", dgamma, gamma)
        + np.einsum("rml,klns->krsmn", gamma, dgamma)
        - np.einsum("krnl,lms->krsmn", dgamma, gamma)
        - np.einsum("rnl,klms->krsmn", gamma, dgamma)
    )
    r_low = np.einsum("rl,lsmn->rsmn", jet.g, mixed)
    dr_low = np.einsum("krl,lsmn->krsmn", jet.dg, mixed) + np.einsum("rl,klsmn->krsmn", jet.g, dmixed)
    nabla_r = (
        dr_low
        - np.einsum("lkr,lsmn->krsmn", gbar, r_low)
        - np.einsum("lks,rlmn->krsmn", gbar, r_low)
        - np.einsum("lkm,rsln->krsmn", gbar, r_low)
        - np.einsum("lkn,rsml->krsmn", gbar, r_low)
    )

    # r_geo is the geodesic residual of xi = d/ds; each is max |entry|, and a nan stays nan
    worst = {"r_g": nabla_g, "r_S": nabla_s, "r_R": nabla_r, "r_geo": gamma[:, 1, 1]}
    return {key: float(np.maximum.reduce(np.abs(a), None)) for key, a in worst.items()}


def as_residuals(pw, pts, frame_s_override=None):
    """Max parallelism residuals of the metric connection nabla - S.

    Returns {r_g, r_S, r_R, r_geo}: metric, structure-tensor and
    curvature parallelism plus the geodesic defect of the null
    direction, maximized over the given chart points.  A residual that
    is nan at any point stays nan.
    """
    if not pts:
        raise ValueError("at least one chart point is required")
    source = _frame_tensor(pw) if frame_s_override is None else frame_s_override
    # F and H are converted once per call, not once per chart point
    sf, fh = _frame_array(source), (np.array(pw.F, dtype=float), np.array(pw.H, dtype=float))
    worst = {"r_g": 0.0, "r_S": 0.0, "r_R": 0.0, "r_geo": 0.0}
    # an overflowing chart reads as an inf or nan residual, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for pt in pts:
            for key, v in _point_residuals(fh, pt, sf).items():
                # max drops a nan (nan > x is false); a residual that is not a number is the worst
                worst[key] = v if np.isnan(v) else max(worst[key], v)
    return worst
