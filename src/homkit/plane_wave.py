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

The connection chain (metric jet -> Christoffel -> Gamma - S ->
curvature -> frame) is written once and runs on two scalar backends.
The float backend uses float64 arrays at any z and serves the residual
sweeps.  The exact backend uses QArrays (Python int numerators over one
denominator, see _exact_array) at z = 0, where the profile jet H, [H,F],
[[H,F],F], ... is rational, and serves the bracket-table reconstruction.
The backends differ only in the profile jet, the zero-filled arrays and
the matrix inverse; every exact sum, product and contraction runs on
integer numerators, and Fractions are built once, for the result.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

# the numpy-free modules before numpy: a lazy module compiles on first read,
# and compiled on the smaller heap its parse adds nothing to the peak RSS
from .exact import EXACT, FLOAT, _inverse_numerators
from . import hom_structure
from .tensor_core import DOWN, UP, FrameMetric, Tensor, _frozen
# the wave data and its bracket table are numpy-free; they are served here too
from .wave_table import PlaneWaveData, boost_block, pw_isometry_algebra

import numpy as np

from ._exact_array import QArray, einsum, tensordot


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


def _commutator_jet(m0, f):
    """M and its derivatives M^(k+1) = M^(k) F - F M^(k), in the scalars of m0."""
    m1 = m0 @ f - f @ m0
    m2 = m1 @ f - f @ m1
    m3 = m2 @ f - f @ m2
    return m0, m1, m2, m3


def profile_jet(pw, z):
    """M(z) and its first three z-derivatives as float arrays.

    The profile is conjugated by exp(-zF): with this orientation the
    constant frame table of the structure tensor (F in the transverse
    blocks, see frame_structure) is parallel for the connection built
    below, and the reconstructed bracket table comes out with the F
    signs used by pw_isometry_algebra.  Flipping the sign of F flips
    the orientation, so the family of geometries is unchanged.
    """
    f, h = np.array(pw.F, dtype=float), np.array(pw.H, dtype=float)  # float(v) per entry
    e = expm(-z * f)
    return _commutator_jet(e @ h @ e.T, f)  # exp(zF) = exp(-zF)^T for antisymmetric F


# ---------------------------------------------------------------------------
# metric jet and connection, generic in the scalar backend
# ---------------------------------------------------------------------------
#
# The private builders take the profile jet, s and x as arrays plus the
# backend's zero: 0.0 for float64 arrays, or a 0-d QArray for exact
# arrays.  Everything downstream is array arithmetic and the einsum of
# _exact_array, which keep the backend they are given.


@_frozen
class GeometryJet:
    """Metric and its first three coordinate derivative arrays at a point."""

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray      # dg[k, m, n] = d_k g_{mn}
    ddg: np.ndarray     # ddg[k, l, m, n]
    dddg: np.ndarray    # dddg[k, l, p, m, n]


def _full(shape, zero):
    """A zero-filled array in zero's backend."""
    return QArray(np.zeros(shape, object)) if isinstance(zero, QArray) else np.zeros(shape)


def _inverse(a):
    # floats keep LAPACK's inverse: the float reports are compared bit for
    # bit across versions, and a closed-form inverse moves their low bits
    if isinstance(a, QArray):
        rows, den = _inverse_numerators(a.num.tolist(), a.den)
        return QArray(np.array(rows, dtype=object), den)
    return np.linalg.inv(a)


def _metric_jet(prof, s, x, zero):
    m0, m1, m2, m3 = prof
    d = len(x) + 2
    one, t = zero + 1, np.arange(2, d)

    g = _full((d, d), zero)
    g[0, 0] = 2 * (x @ m0 @ x + s)
    g[0, 1] = g[1, 0] = one
    g[t, t] = one

    dg = _full((d,) * 3, zero)
    dg[0, 0, 0] = 2 * (x @ m1 @ x)
    dg[1, 0, 0] = 2 * one
    dg[2:, 0, 0] = 4 * (m0 @ x)

    ddg = _full((d,) * 4, zero)
    ddg[0, 0, 0, 0] = 2 * (x @ m2 @ x)
    ddg[0, 2:, 0, 0] = ddg[2:, 0, 0, 0] = 4 * (m1 @ x)
    ddg[2:, 2:, 0, 0] = 4 * m0

    dddg = _full((d,) * 5, zero)
    dddg[0, 0, 0, 0, 0] = 2 * (x @ m3 @ x)
    dddg[0, 0, 2:, 0, 0] = dddg[0, 2:, 0, 0, 0] = dddg[2:, 0, 0, 0, 0] = 4 * (m2 @ x)
    dddg[0, 2:, 2:, 0, 0] = dddg[2:, 0, 2:, 0, 0] = dddg[2:, 2:, 0, 0, 0] = 4 * m1

    return GeometryJet(g, _inverse(g), dg, ddg, dddg)


def metric_jet(pw, pt):
    return _metric_jet(profile_jet(pw, pt.z), pt.s, np.array(pt.x), 0.0)


def _gamma_lower(dg):
    # Gamma_{mn,s} = (d_m g_{ns} + d_n g_{ms} - d_s g_{mn}) / 2 on the last
    # three axes, so it serves dg, ddg and dddg alike
    return (dg + dg.swapaxes(-3, -2) - dg.transpose(*range(dg.ndim - 3), -2, -1, -3)) / 2


def christoffel(jet):
    """Levi-Civita symbols Gamma[r, m, n] = Gamma^r_{mn}."""
    return einsum("rs,mns->rmn", jet.g_inv, _gamma_lower(jet.dg))


def _connection(jet):
    """Gamma and d Gamma, plus the pieces connection_jet differentiates again."""
    ginv, dg = jet.g_inv, jet.dg
    low, dlow = _gamma_lower(dg), _gamma_lower(jet.ddg)
    gamma = einsum("rs,mns->rmn", ginv, low)
    dginv = -einsum("ra,kab,bs->krs", ginv, dg, ginv)
    dgamma = einsum("krs,mns->krmn", dginv, low) + einsum("rs,kmns->krmn", ginv, dlow)
    return gamma, dgamma, dginv, low, dlow


def connection_jet(jet):
    """Gamma, its first and its second coordinate derivatives."""
    gamma, dgamma, dginv, low, dlow = _connection(jet)
    ginv, dg, ddg = jet.g_inv, jet.dg, jet.ddg
    ddginv = (
        -einsum("kra,lab,bs->klrs", dginv, dg, ginv)
        - einsum("ra,klab,bs->klrs", ginv, ddg, ginv)
        - einsum("ra,lab,kbs->klrs", ginv, dg, dginv)
    )
    ddlow = _gamma_lower(jet.dddg)
    ddgamma = (
        einsum("klrs,mns->klrmn", ddginv, low)
        + einsum("krs,lmns->klrmn", dginv, dlow)
        + einsum("lrs,kmns->klrmn", dginv, dlow)
        + einsum("rs,klmns->klrmn", ginv, ddlow)
    )
    return gamma, dgamma, ddgamma


def _riemann_from_connection(gamma, dgamma):
    # R[r, s, m, n] = d_m G^r_{ns} - d_n G^r_{ms} + G^r_{ml} G^l_{ns} - G^r_{nl} G^l_{ms}
    term = einsum("rml,lns->rsmn", gamma, gamma)
    return (
        dgamma.transpose(1, 3, 0, 2) - dgamma.transpose(1, 3, 2, 0)
        + term - term.transpose(0, 1, 3, 2)
    )


def riemann(pw, pt):
    """Mixed Riemann tensor R[r, s, m, n] = R^r_{smn} at a chart point."""
    gamma, dgamma, *_ = _connection(metric_jet(pw, pt))
    return _riemann_from_connection(gamma, dgamma)


# ---------------------------------------------------------------------------
# the homogeneous structure, in frame and in coordinates
# ---------------------------------------------------------------------------


@functools.cache
def frame_metric(n, tag=EXACT):
    # FrameMetric is frozen and holds only tuples, so one instance serves every caller
    return FrameMetric.light_cone(n, tag)


def frame_structure(pw):
    """The constant frame components of S, as an exact structure.

    Nonzero values (frame order +, -, 1..n, antisymmetry in the last
    two slots implied): S_{++-} = -1, S_{+ij} = F_ij,
    S_{i+j} = -delta_ij - F_ij.
    """
    return hom_structure.HomogeneousStructure(frame_metric(pw.n, EXACT), _frame_tensor(pw))


def _frame_tensor(pw):
    """The S of frame_structure, built without the structure's checks."""
    n = pw.n
    # _sparse drops the zeros
    entries = {(0, 0, 1): -1, (0, 1, 0): 1}
    for i in range(n):
        for j in range(n):
            v = -int(i == j) - pw.F[i][j]
            entries[(0, 2 + i, 2 + j)] = pw.F[i][j]
            entries[(2 + i, 0, 2 + j)], entries[(2 + i, 2 + j, 0)] = v, -v
    return Tensor._sparse(pw.dim, (DOWN, DOWN, DOWN), entries, EXACT)


def _frame_array(s, zero):
    """The components of a rank-3 frame tensor as an array in zero's backend.

    A float entry is its numerator divided by den, as float(Fraction) rounds it."""
    exact = isinstance(zero, QArray)
    out = np.zeros((s.dim,) * 3, object if exact else float)
    for idx, v in s.nums:
        out[idx] = v if exact else v / s.den
    return QArray(out, s.den) if exact else out


def _coframe(prof, s, x, zero):
    m0, m1 = prof[:2]
    d = len(x) + 2
    one, t = zero + 1, np.arange(2, d)
    e = _full((d, d), zero)
    e[0, 0] = e[1, 1] = one
    e[1, 0] = x @ m0 @ x + s
    e[t, t] = one
    de = _full((d,) * 3, zero)
    de[0, 1, 0] = x @ m1 @ x
    de[1, 1, 0] = one
    de[2:, 1, 0] = 2 * (m0 @ x)
    return e, de


def _coordinate_structure(sf, e, de=None):
    """Coordinate S_{mns} from frame S and the coframe; given dE, also d_k S_{mns}.

    S = "abc,am,bn,cs->mns" and the three terms of dS run as the pairwise
    products of numpy's greedy einsum, so float results keep its bits; the
    products they share are built once.  Summed in one pass, the exact
    backend would pay for every index combination."""
    x1 = tensordot(sf, e, (0, 0))  # [b, c, m]
    x2 = tensordot(x1, e, (0, 0))  # [c, m, n]
    s_coord = tensordot(x2, e, (0, 0))  # [m, n, s]
    if de is None:
        return s_coord, None
    y2 = tensordot(tensordot(sf, e, (1, 0)), e, (1, 0))  # [a, n, s]
    ds_coord = (
        tensordot(y2, de, (0, 1)).transpose(2, 3, 0, 1)
        + tensordot(tensordot(x1, e, (1, 0)), de, (0, 1)).transpose(2, 0, 3, 1)
        + tensordot(x2, de, (0, 1)).transpose(2, 0, 1, 3)
    )
    return s_coord, ds_coord


def _raised_structure(s_coord, ginv):
    """S^r_{mn} as [r, m, n], the part the torsion connection subtracts."""
    return einsum("mns,rs->mnr", s_coord, ginv).transpose(2, 0, 1)


def structure_at(pw, pt):
    """Coordinate-component structure at a point plus the coframe matrix."""
    # one profile jet serves the metric jet and the coframe
    prof, x = profile_jet(pw, pt.z), np.array(pt.x)
    jet = _metric_jet(prof, pt.s, x, 0.0)
    e, _ = _coframe(prof, pt.s, x, 0.0)
    s_coord, _ = _coordinate_structure(_frame_array(_frame_tensor(pw), 0.0), e)
    metric = FrameMetric.from_matrix(jet.g.tolist())
    s = Tensor(pw.dim, (DOWN, DOWN, DOWN), tuple(s_coord.reshape(-1).tolist()), FLOAT)
    return hom_structure.HomogeneousStructure(metric, s), e


# ---------------------------------------------------------------------------
# parallelism residuals for the metric connection with torsion
# ---------------------------------------------------------------------------


def _point_residuals(pw, pt, sf_array):
    # one profile jet serves the metric jet and the coframe
    prof, x = profile_jet(pw, pt.z), np.array(pt.x)
    jet = _metric_jet(prof, pt.s, x, 0.0)
    gamma, dgamma, ddgamma = connection_jet(jet)
    e, de = _coframe(prof, pt.s, x, 0.0)
    s_coord, ds_coord = _coordinate_structure(sf_array, e, de)
    gbar = gamma - _raised_structure(s_coord, jet.g_inv)

    # metric parallelism
    nabla_g = jet.dg - einsum("lkm,ln->kmn", gbar, jet.g) - einsum("lkn,ml->kmn", gbar, jet.g)

    # torsion-tensor parallelism
    nabla_s = (
        ds_coord
        - einsum("lkm,lns->kmns", gbar, s_coord)
        - einsum("lkn,mls->kmns", gbar, s_coord)
        - einsum("lks,mnl->kmns", gbar, s_coord)
    )

    # curvature parallelism, on the all-lower Levi-Civita Riemann tensor
    mixed = _riemann_from_connection(gamma, dgamma)
    dmixed = (
        ddgamma.transpose(0, 2, 4, 1, 3) - ddgamma.transpose(0, 2, 4, 3, 1)
        + einsum("krml,lns->krsmn", dgamma, gamma)
        + einsum("rml,klns->krsmn", gamma, dgamma)
        - einsum("krnl,lms->krsmn", dgamma, gamma)
        - einsum("rnl,klms->krsmn", gamma, dgamma)
    )
    r_low = einsum("rl,lsmn->rsmn", jet.g, mixed)
    dr_low = einsum("krl,lsmn->krsmn", jet.dg, mixed) + einsum("rl,klsmn->krsmn", jet.g, dmixed)
    nabla_r = (
        dr_low
        - einsum("lkr,lsmn->krsmn", gbar, r_low)
        - einsum("lks,rlmn->krsmn", gbar, r_low)
        - einsum("lkm,rsln->krsmn", gbar, r_low)
        - einsum("lkn,rsml->krsmn", gbar, r_low)
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
    sf = _frame_array(source, 0.0)
    worst = {"r_g": 0.0, "r_S": 0.0, "r_R": 0.0, "r_geo": 0.0}
    # an overflowing chart reads as an inf or nan residual, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for pt in pts:
            for key, v in _point_residuals(pw, pt, sf).items():
                # max drops a nan (nan > x is false); a residual that is not a number is the worst
                worst[key] = v if np.isnan(v) else max(worst[key], v)
    return worst


# ---------------------------------------------------------------------------
# exact curvature at z = 0 and the bracket-table reconstruction
# ---------------------------------------------------------------------------


def _frame_curvature(pw, prof, s, x, zero):
    """Frame components Rbar[a, b, c, d] of the curvature of nabla - S at (s, x)."""
    jet = _metric_jet(prof, s, x, zero)
    gamma, dgamma, dginv, _, _ = _connection(jet)
    e, de = _coframe(prof, s, x, zero)
    s_coord, ds_coord = _coordinate_structure(_frame_array(_frame_tensor(pw), zero), e, de)

    gbar = gamma - _raised_structure(s_coord, jet.g_inv)
    ds_up = einsum("kmns,rs->kmnr", ds_coord, jet.g_inv) + einsum("mns,krs->kmnr", s_coord, dginv)
    dgbar = dgamma - ds_up.transpose(0, 3, 1, 2)
    return _frame_form(e, _riemann_from_connection(gbar, dgbar))


def _frame_form(e, rbar):
    """Coordinate rbar[r, t, m, n] in the frame of e: "cr,rtmn,td,ma,nb->abcd".

    Form slots take frame vectors, the endomorphism is conjugated by the
    coframe; theta[mu, A] holds the frame vectors as columns."""
    theta = _inverse(e)
    frame = tensordot(e, rbar, (1, 0))  # [c, t, m, n]
    for _ in range(3):
        frame = tensordot(frame, theta, (1, 0))
    return frame.transpose(2, 3, 0, 1)  # [c, d, a, b] -> [a, b, c, d]


def exact_curvature(pw, s, x):
    """Frame components of the curvature of nabla - S at (z=0, s, x).

    Returns a CurvatureAtPoint whose operator tensor follows the sign
    convention fixed at the top of this module, together with the
    null-boost action matrices spanning the reachable isotropy.  The
    chain is the float one run on QArrays, where the profile jet at
    z = 0 is H, [H,F], [[H,F],F], ..., so the result is exact.
    """
    x = [Fraction(v) for v in x]
    if len(x) != pw.n:
        raise ValueError("x must have n components")
    prof = _commutator_jet(QArray.of(pw.H), QArray.of(pw.F))
    frame = _frame_curvature(pw, prof, QArray.of(Fraction(s)), QArray.of(x), QArray.of(0))
    # the nonzero numerators, read in index order
    entries = {idx: v for idx, v in np.ndenumerate(frame.num) if v}
    rbar = Tensor._sparse(pw.dim, (DOWN, DOWN, UP, DOWN), entries, EXACT, frame.den)
    return hom_structure.CurvatureAtPoint(rbar, null_boost_basis(pw.n), frame_metric(pw.n, EXACT))


def null_boost_basis(n):
    """Frame action matrices of the n null boosts.

    Boost j sends E_+ to -E_j and E_j to E_-; rotations never enter the
    reachable isotropy of this geometry.
    """
    d = n + 2
    out = []
    for j in range(n):
        m = [[Fraction(0)] * d for _ in range(d)]
        m[2 + j][0] = Fraction(-1)
        m[1][2 + j] = Fraction(1)
        out.append(tuple(tuple(row) for row in m))
    return tuple(out)
