"""Homogeneous-structure tensors at a point.

A structure is a pair (g, S) with S all-lower and antisymmetric in its
last two slots.  The module splits S into its three orthogonal pieces
(vectorial, traceless cyclic-free, totally antisymmetric), classifies
the result, and rebuilds the transitive isometry algebra from S plus a
curvature operator with values in a given isotropy span.

Conventions fixed here and used everywhere else:

* the defining one-form is alpha_Z = c12(S)_Z / (D - 1), the unique
  normalization that round-trips the vectorial parametrization
  S_{XYZ} = g_{XY} alpha_Z - g_{XZ} alpha_Y;
* degeneracy reads the sign of alpha(xi) in a mostly-plus signature:
  positive = spacelike, negative = timelike, zero = null;
* the curvature tensor is stored in the convention R(X, Y) =
  nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]; with that convention
  the isotropy part of the bracket of two tangent generators is
  MINUS the curvature operator (the classical symmetric-space formula
  R(X, Y)Z = -[[X, Y], Z]).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import EXACT, format_scalar, integer_numerators
from . import lie_algebra  # read only by build_isometry_algebra, so classify never runs it
from .tensor_core import (
    DOWN,
    UP,
    FrameMetric,
    Tensor,
    _antisymmetry_violations,
    _dense,
    _frozen,
    _sum,
    antisymmetrize,
    contract,
    raise_lower,
)

FLOAT_ZERO_TOL = 1e-10

CLASS_NAMES = {
    frozenset(): "zero",
    frozenset({1}): "T1",
    frozenset({2}): "T2",
    frozenset({3}): "T3",
    frozenset({1, 2}): "T1+T2",
    frozenset({1, 3}): "T1+T3",
    frozenset({2, 3}): "T2+T3",
    frozenset({1, 2, 3}): "T1+T2+T3",
}


@_frozen
class HomogeneousStructure:
    metric: FrameMetric
    S: Tensor

    def __post_init__(self):
        if self.S.valence != (DOWN, DOWN, DOWN):
            raise ValueError("S must be an all-lower rank-3 tensor")
        if self.S.dim != self.metric.dim:
            raise ValueError("S and metric dimensions differ")
        if self.S.tag != self.metric.tag:
            raise ValueError("S and metric tags differ")
        tol = None if self.tag == EXACT else 1e-12
        bad = _antisymmetry_violations(dict(self.S.nums), 1, 2, tol)
        if bad:
            x, y, z = bad[0]
            raise ValueError(f"S is not antisymmetric in its last two slots at ({x},{y},{z})")

    @property
    def dim(self):
        return self.S.dim

    @property
    def tag(self):
        return self.S.tag

    def to_json(self):
        return {"metric": self.metric.to_json(), "S": self.S.to_json()}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError("structure must be a JSON object")
        if not isinstance(data.get("S", {}), dict):
            raise ValueError("S must be a JSON object")
        s, rows = Tensor.from_json(data["S"]), data["metric"]
        # S first, so that a square metric of another size is refused before it is inverted
        if isinstance(rows, list) and len(rows) != s.dim and all(
                isinstance(row, list) and len(row) == len(rows) for row in rows):
            raise ValueError("S and metric dimensions differ")
        return cls(FrameMetric.from_json(rows), s)


@_frozen
class StructureClass:
    label: str
    degeneracy: str  # none | spacelike | timelike | null
    xi_norm: object

    def to_json(self):
        return {
            "class": self.label,
            "degeneracy": self.degeneracy,
            "xi_norm": format_scalar(self.xi_norm),
        }


def trace_one_form(hs):
    """The defining one-form, its metric dual, and the dual's norm.

    alpha_Z = g^{AB} S_{ABZ} / (D - 1);  xi = alpha raised;
    norm = alpha(xi) = g^{AB} alpha_A alpha_B.
    """
    d = hs.dim
    if d < 2:
        raise ValueError("trace_one_form needs dimension at least 2")
    exact = hs.tag == EXACT
    alpha = contract(hs.S, 0, 1, hs.metric).scale(Fraction(1, d - 1) if exact else 1.0 / (d - 1))
    xi = raise_lower(alpha, 0, hs.metric)
    # in index order on the numerators; a zero entry of alpha adds nothing and is skipped
    xs = dict(xi.nums)
    norm = sum((a * xs.get(idx, 0) for idx, a in alpha.nums), 0 if exact else 0.0)
    return alpha, xi, Fraction(norm, alpha.den * xi.den) if exact else norm


def vectorial_part(metric, alpha):
    """S1_{XYZ} = g_{XY} alpha_Z - g_{XZ} alpha_Y."""
    g, a, r = metric.g, alpha.components, range(metric.dim)
    out = {(x, y, z): g[x][y] * a[z] - g[x][z] * a[y] for x in r for y in r for z in r}
    return Tensor.from_entries(metric.dim, (DOWN, DOWN, DOWN), out, metric.tag)


def decompose(hs):
    """Split S into (S1, S2, S3): trace, cyclic-traceless, 3-form parts.

    The sum reconstructs S exactly, S3 is the total antisymmetrization,
    and S2 is trace-free with vanishing 3-form part.
    """
    return _split(hs, trace_one_form(hs)[0])


def _split(hs, alpha):
    """decompose with the trace one-form supplied by a caller that holds it."""
    if hs.tag != EXACT:
        s1 = vectorial_part(hs.metric, alpha)
        s3 = antisymmetrize(hs.S, (0, 1, 2))
        return s1, _sum((hs.S,), (s1, s3)), s3
    *parts, den = _split_numerators(hs, alpha)
    # each pair antisymmetric in the last two slots is summed once, its mirror negated
    mirrored = ({**p, **{(x, z, y): -v for (x, y, z), v in p.items()}} for p in parts)
    return tuple(Tensor._sparse(hs.dim, hs.S.valence, p, EXACT, den) for p in mirrored)


def _split_numerators(hs, alpha):
    """Nonzero numerators of exact S1, S2, S3 at each (x, y, z) with y < z, and their denominator.

    With S = N / p, g = G / q and alpha = A / r over their denominators,
    S1 = (G_xy A_z - G_xz A_y) / (q r), and as S is antisymmetric in its
    last two slots, its signed average over six permutations is
    S3 = (N_xyz + N_yzx + N_zxy) / (3 p).  Over the common denominator
    3 p q r the numerators are 3 p (G A - G A) for S1, q r (N + N + N)
    for S3 and S2 = 3 q r N - 3 p (G A - G A) - q r (N + N + N).
    """
    s, p, q = dict(hs.S.nums), hs.S.den, hs.metric._g.den
    g = [(x, y, 3 * p * v) for (x, y), v in hs.metric._g.nums]
    a = [(z, v) for (z,), v in alpha.nums]
    scale = q * alpha.den
    s1 = {}
    for x, y, gv in g:
        # g_xy alpha_z adds to S1_xyz and takes from S1_xzy; the member with y < z is kept
        for z, av in a:
            if y != z:
                key, w = ((x, y, z), gv * av) if y < z else ((x, z, y), -gv * av)
                s1[key] = s1.get(key, 0) + w
    s3 = {}
    for x, y, z in s:
        # each orbit of distinct indices is summed once, at its sorted triple;
        # its members with y < z are (x, y, z), (y, x, z) and (z, x, y)
        if y < z and x != y and x != z:
            x, y, z = (x, y, z) if x < y else (y, x, z) if x < z else (y, z, x)
            if (x, y, z) not in s3:
                v = scale * (s.get((x, y, z), 0) + s.get((y, z, x), 0) + s.get((z, x, y), 0))
                s3.update({(x, y, z): v, (y, x, z): -v, (z, x, y): v})
    s2 = {key: 3 * scale * v for key, v in s.items() if key[1] < key[2]}
    for part in (s1, s3):
        for key, v in part.items():
            s2[key] = s2.get(key, 0) - v
    return *({key: v for key, v in part.items() if v} for part in (s1, s2, s3)), 3 * p * scale


def classify(hs):
    """Class label from the nonzero projections, plus causal degeneracy.

    Exact scalars use exact zero tests on numerators and build no part;
    floats use the documented absolute tolerance on the largest component.
    """
    alpha, _, norm = trace_one_form(hs)
    if hs.tag == EXACT:
        nonzero = map(bool, _split_numerators(hs, alpha)[:3])
        sign = (norm > 0) - (norm < 0)
    else:
        nonzero = (not p.is_zero(FLOAT_ZERO_TOL) for p in _split(hs, alpha))
        sign = 0 if abs(norm) <= FLOAT_ZERO_TOL else (1 if norm > 0 else -1)
    parts = frozenset(k for k, nz in enumerate(nonzero, start=1) if nz)
    degeneracy = {1: "spacelike", -1: "timelike", 0: "null"}[sign] if 1 in parts else "none"
    return StructureClass(CLASS_NAMES[parts], degeneracy, norm)


# ---------------------------------------------------------------------------
# isometry algebra reconstruction
# ---------------------------------------------------------------------------


def _is_metric_antisymmetric(metric, m):
    """g(AX, Y) + g(X, AY) = 0 for the action matrix A (rows), read on g's numerators and, when
    exact, on A's integer rows over one denominator: positive scales that keep every zero test."""
    d, g = metric.dim, _dense(metric._g)
    if metric.tag == EXACT:
        *m, _ = integer_numerators(*m)
    return not any(sum(g[k * d + y] * m[k][x] + g[x * d + k] * m[k][y] for k in range(d))
                   for x in range(d) for y in range(d))


@_frozen
class CurvatureAtPoint:
    """Curvature operator data at a point.

    Rbar has valence (d, d, u, d): slots 0,1 are the 2-form arguments and
    slots 2,3 the endomorphism (row, column).  h_basis lists the
    isotropy generators as metric-antisymmetric action matrices.
    """

    Rbar: Tensor
    h_basis: tuple
    metric: FrameMetric

    def __post_init__(self):
        if self.Rbar.valence != (DOWN, DOWN, UP, DOWN):
            raise ValueError("Rbar must have valence (d, d, u, d)")
        if self.Rbar.dim != self.metric.dim:
            raise ValueError("Rbar and metric dimensions differ")
        if self.Rbar.tag != self.metric.tag:
            raise ValueError("Rbar and metric tags differ")
        d = self.metric.dim
        cast = float if self.Rbar.tag != EXACT else lambda x: x if type(x) is Fraction else Fraction(x)
        h_basis = tuple(tuple(tuple(map(cast, row)) for row in m) for m in self.h_basis)
        object.__setattr__(self, "h_basis", h_basis)
        if _antisymmetry_violations(dict(self.Rbar.nums), 0, 1):
            raise ValueError("Rbar is not antisymmetric in its form slots")
        for m in h_basis:
            if len(m) != d or any(len(row) != d for row in m):
                raise ValueError("h_basis matrices must be D x D")
            if not _is_metric_antisymmetric(self.metric, m):
                raise ValueError("h_basis matrix is not metric-antisymmetric")


class SpanError(ValueError):
    """A curvature value or commutator leaves the modeled isotropy span."""

    def __init__(self, message, bracket):
        super().__init__(f"{message} at bracket {bracket}")
        self.bracket = bracket


def build_isometry_algebra(hs, curv, m_labels=None, h_labels=None):
    """Assemble the transitive algebra on m + h' from (S, curvature).

    Brackets: tangent-tangent m-part S_X Y - S_Y X, isotropy part minus
    the curvature operator expanded in h_basis; [A, X] = A X for
    isotropy A; [A, B] the matrix commutator.  h_basis must be linearly
    independent.  Returns the algebra and its exact (or float) Jacobi
    residual magnitude.
    """
    if hs.metric != curv.metric:
        raise ValueError("structure and curvature use different metrics")
    d = hs.dim
    tag = hs.tag
    k = len(curv.h_basis)
    if m_labels is None:
        m_labels = [f"E{i}" for i in range(d)]
    if h_labels is None:
        h_labels = [f"A{p}" for p in range(k)]
    if len(m_labels) != d or len(h_labels) != k:
        raise ValueError("label counts do not match basis sizes")

    if k and tag != EXACT:
        raise ValueError("float-mode reconstruction is not supported; rationalize first")
    # the isotropy generators, and the image -Rbar(E_a, E_b) of each tangent
    # pair a < b with a nonzero curvature value, as (u, d) Tensors
    h = [Tensor.from_entries(d, (UP, DOWN), {(r, c): x for r, row in enumerate(m)
                                             for c, x in enumerate(row) if x != 0}, tag)
         for m in curv.h_basis]
    rbar, values = curv.Rbar, {}
    for (a, b, r, c), v in rbar.nums:
        if a < b:
            values.setdefault((a, b), {})[r, c] = -v
    images = [(key, Tensor._sparse(d, (UP, DOWN), e, rbar.tag, rbar.den)) for key, e in values.items()]
    try:
        # [A, X] = A X, stored as [X, A] = -A X; the images and commutators against one elimination
        parts, outside = lie_algebra._rotation_brackets(h, d, [(range(d), range(d))], images)
    except ValueError:
        raise ValueError("h_basis matrices are linearly dependent") from None
    if outside is not None:
        a, b = outside
        if b < d:
            message = "value outside span(h_basis)" if k else "curvature value outside empty isotropy span"
            raise SpanError(message, (m_labels[a], m_labels[b]))
        raise SpanError("h_basis not closed under commutators", (h_labels[a - d], h_labels[b - d]))
    # raised S: (S_X Y)^C = g^{CZ} S_{XYZ}; the tangent part of [E_a, E_b] is S_a E_b - S_b E_a
    s_up = raise_lower(hs.S, 2, hs.metric)
    parts += [(dict(s_up.nums), s_up.den), ({(b, a, c): -v for (a, b, c), v in s_up.nums}, s_up.den)]
    algebra = lie_algebra._algebra(parts, [*m_labels, *h_labels], tag)
    _, residual = lie_algebra.jacobi_residual(algebra)
    return algebra, residual
