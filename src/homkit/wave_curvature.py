"""The connection chain of a plane wave, and its exact curvature without numpy.

The chain of plane_wave's chart (metric jet -> Christoffel -> Gamma - S ->
curvature -> frame) is coded once and takes its array backend, which builds
each jet from an {index: value} dict.  plane_wave runs it on float64 arrays;
exact_curvature on immutable SparseArrays at z = 0, where the profile jet is
rational: nonzero int numerators over one denominator, contracted as
pairwise joins planned once per einsum spec and shapes.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import itemgetter
from types import SimpleNamespace

from . import hom_structure
from .exact import EXACT, _inverse_numerators, _rational
from .tensor_core import DOWN, UP, FrameMetric, Tensor

_GCD_BOUND = 1 << 64  # a larger denominator is first reduced by the gcd of all entries


@functools.cache
def _index(positions):
    """The function taking an index tuple to the tuple of its entries at positions (a tuple)."""
    if len(positions) == 1:
        return lambda idx, p=positions[0]: (idx[p],)
    return itemgetter(*positions) if positions else lambda idx: ()


class SparseArray:
    """An exact array, never written: nonzero {index tuple: int numerator} over one positive int den."""

    __slots__ = ("nums", "den", "shape")

    def __init__(self, nums, den, shape):
        if den > _GCD_BOUND and (g := math.gcd(den, *nums.values())) > 1:
            nums, den = {k: v // g for k, v in nums.items()}, den // g
        self.nums, self.den, self.shape = nums, den, shape

    ndim = property(lambda self: len(self.shape))

    def transpose(self, *axes):
        perm = tuple(range(self.ndim)[k] for k in axes)
        if sorted(perm) != list(range(self.ndim)):
            raise ValueError(f"axes {axes} do not permute the {self.ndim} axes")
        move = _index(perm)
        return SparseArray({move(k): v for k, v in self.nums.items()}, self.den, move(self.shape))

    def __getitem__(self, idx):
        """The 0-d array at a full index of ints, as numpy reads a scalar there."""
        idx = idx if type(idx) is tuple else (idx,)
        if (v := self.nums.get(idx)) is None:
            _array(self.shape, {idx: 0})  # refuses an index outside the shape
        return SparseArray({(): v} if v else {}, self.den, ())

    __neg__ = lambda self: SparseArray({k: -v for k, v in self.nums.items()}, self.den, self.shape)
    __sub__ = lambda self, other: self + -other

    def __add__(self, other):
        if other.shape != self.shape:
            raise ValueError(f"cannot add arrays of shapes {self.shape} and {other.shape}")
        lcm = math.lcm(self.den, other.den)
        a, b = lcm // self.den, lcm // other.den
        out = {k: v * a for k, v in self.nums.items()}
        for k, v in other.nums.items():
            out[k] = out.get(k, 0) + v * b
        return SparseArray({k: v for k, v in out.items() if v}, lcm, self.shape)

    def __mul__(self, x):
        p, q = x.as_integer_ratio()
        return SparseArray({k: v * p for k, v in self.nums.items()} if p else {}, self.den * q, self.shape)

    __rmul__ = __mul__

    def __truediv__(self, x):
        p, q = x.as_integer_ratio()  # times q / p, on the numerators and den alone
        if not p:
            raise ZeroDivisionError(f"division of an exact array by {x!r}")
        q = q if p > 0 else -q
        return SparseArray({k: v * q for k, v in self.nums.items()}, self.den * abs(p), self.shape)

    def __matmul__(self, other):
        if other.ndim > 2:
            raise ValueError("the right operand of @ must be a vector or a matrix")
        return tensordot(self, other, (-1, 0))


@functools.cache
def _plan(spec, shapes):
    """(joins, final index or None, output shape) of an einsum spec of two or more operands.

    Each join, left to right, pairs the labels so far with the next term on those they share
    and keeps those read later: (key of the left index, of the right one, index of the product)."""
    inputs, out = spec.split("->")
    terms, sizes = inputs.split(","), {}
    if not 1 < len(terms) == len(shapes) or any(  # distinct labels per term, one size per label
            not len(set(t)) == len(t) == len(d) or any(sizes.setdefault(c, k) != k for c, k in zip(t, d))
            for t, d in zip(terms, shapes)):
        raise ValueError(f"shape-mismatch: operands of shapes {shapes} do not fit {spec!r}")
    joins, acc = [], terms[0]
    for i, term in enumerate(terms[1:], 2):
        shared, both, later = [c for c in acc if c in term], acc + term, set(out).union(*terms[i:])
        keep = "".join(dict.fromkeys(c for c in both if c in later))
        joins.append(tuple(_index(tuple(map(word.index, labels)))
                           for word, labels in ((acc, shared), (term, shared), (both, keep))))
        acc = keep
    return joins, None if acc == out else _index(tuple(map(acc.index, out))), tuple(sizes[c] for c in out)


def _join(a, b, a_key, b_key, out_key):
    """{out_key(i + j): sum of a[i] * b[j] over a_key(i) == b_key(j)}, zeros dropped."""
    groups = {}
    for j, v in b.items():
        groups.setdefault(b_key(j), []).append((j, v))
    out = {}
    for i, u in a.items():
        for j, v in groups.get(a_key(i), ()):
            k = out_key(i + j)
            out[k] = out.get(k, 0) + u * v
    return {k: v for k, v in out.items() if v}


def einsum(spec, *ops):
    """np.einsum of two or more SparseArrays with an explicit output, on their numerators."""
    if any(type(op) is not SparseArray for op in ops):
        raise TypeError("einsum needs SparseArrays, not " + ", ".join(type(op).__name__ for op in ops))
    joins, final, shape = _plan(spec, tuple([op.shape for op in ops]))
    nums = ops[0].nums
    for (a_key, b_key, out_key), op in zip(joins, ops[1:]):
        nums = _join(nums, op.nums, a_key, b_key, out_key)
    if final is not None:
        nums = {final(k): v for k, v in nums.items()}
    return SparseArray(nums, math.prod([op.den for op in ops]), shape)


def _paired_axes(axes, ndim_a, ndim_b):
    """np.tensordot's axes (an int N: a's last N and b's first N) as lists of summed axes of a and b."""
    axes_a, axes_b = (range(-axes, 0), range(axes)) if hasattr(axes, "__index__") else axes
    ra, rb = range(ndim_a), range(ndim_b)  # ra[k] refuses k out of range, counts k < 0 from the end
    return ([ra[axes_a]] if hasattr(axes_a, "__index__") else [ra[k] for k in axes_a],
            [rb[axes_b]] if hasattr(axes_b, "__index__") else [rb[k] for k in axes_b])


def tensordot(a, b, axes):
    """np.tensordot of two SparseArrays, axes an int or a pair of ints or tuples, run as an einsum."""
    return einsum(_tensordot_spec(a.ndim, b.ndim, axes), a, b)


@functools.cache
def _tensordot_spec(ndim_a, ndim_b, axes):
    axes_a, axes_b = _paired_axes(axes, ndim_a, ndim_b)
    if len(axes_a) != len(axes_b) or len({*axes_a}) < len(axes_a) or len({*axes_b}) < len(axes_b):
        raise ValueError("shape-mismatch for sum")
    ta = [chr(97 + k) for k in range(ndim_a)]  # a's axes lower case, b's free ones upper case
    tb = [ta[axes_a[axes_b.index(k)]] if k in axes_b else chr(65 + k) for k in range(ndim_b)]
    out = [c for k, c in enumerate(ta) if k not in axes_a] + [c for c in tb if c.isupper()]
    return f"{''.join(ta)},{''.join(tb)}->{''.join(out)}"


def _inverse(a):
    """The inverse of a square SparseArray, on its integer numerators."""
    n = a.shape[0]
    rows, den = _inverse_numerators([[a.nums.get((i, j), 0) for j in range(n)] for i in range(n)], a.den)
    return SparseArray({(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v}, den, a.shape)


def _array(shape, entries):
    """The SparseArray of shape holding {index: an int, a Fraction or a 0-d SparseArray}, over the
    lcm of their denominators; the zeros are dropped and the rest of the array is 0."""
    columns = zip(zip(*entries), shape)  # the indices on each axis, and its size
    if set(map(len, entries)) - {len(shape)} or any(min(c) < 0 or max(c) >= n for c, n in columns):
        raise IndexError(f"an index of {[*entries]} is outside the shape {shape}")
    for v in entries.values():  # a bool, a float or a numpy scalar has as_integer_ratio too
        if not (type(v) in (int, Fraction) or type(v) is SparseArray and not v.shape):
            raise TypeError(f"exact array entry {v!r} is not an int or a Fraction")
    ratios = [(v.nums.get((), 0), v.den) if type(v) is SparseArray else v.as_integer_ratio()
              for v in entries.values()]
    den = math.lcm(*(q for _, q in ratios))
    return SparseArray({idx: p * (den // q) for idx, (p, q) in zip(entries, ratios) if p}, den, shape)


# the array operations the connection chain takes from its backend
SPARSE = SimpleNamespace(array=_array, inverse=_inverse, einsum=einsum, tensordot=tensordot)


# the connection chain: the profile jet, s and x are arrays of the backend be


def _commutator_jet(m0, f):
    """M, M' and M'', each M^(k+1) = M^(k) F - F M^(k), in the scalars of m0."""
    m1 = m0 @ f - f @ m0
    return m0, m1, m1 @ f - f @ m1


def _chart_jet(prof, s, x, be):
    """The metric jet (g, g^-1, dg, ddg) and the coframe jet (e, de) at (s, x), from M, M' and M''.

    dg[k, m, n] = d_k g_{mn}, ddg[k, l, m, n] = d_k d_l g_{mn} and de[k, a, m] = d_k e^a_m; the
    products of x with the profile that both jets read are taken once."""
    m0, m1, m2 = prof[:3]
    d = x.shape[0] + 2
    t, q0, q1, u0 = range(2, d), x @ m0 @ x + s, x @ m1 @ x, m0 @ x  # t: the transverse axes
    v0, v1, w, v = 4 * u0, 4 * (m1 @ x), 4 * m0, 2 * u0
    g = be.array((d, d), {(0, 0): 2 * q0, (0, 1): 1, (1, 0): 1, **{(i, i): 1 for i in t}})
    dg = be.array((d,) * 3, {(0, 0, 0): 2 * q1, (1, 0, 0): 2, **{(i, 0, 0): v0[i - 2] for i in t}})
    ddg = be.array((d,) * 4, {(0, 0, 0, 0): 2 * (x @ m2 @ x),
                              **{k: v1[i - 2] for i in t for k in ((0, i, 0, 0), (i, 0, 0, 0))},
                              **{(i, j, 0, 0): w[i - 2, j - 2] for i in t for j in t}})
    e = be.array((d, d), {(0, 0): 1, (1, 1): 1, (1, 0): q0, **{(i, i): 1 for i in t}})
    de = be.array((d,) * 3, {(0, 1, 0): q1, (1, 1, 0): 1, **{(i, 1, 0): v[i - 2] for i in t}})
    return (g, be.inverse(g), dg, ddg), (e, de)


def _gamma_lower(dg):
    # Gamma_{mn,s} = (d_m g_{ns} + d_n g_{ms} - d_s g_{mn}) / 2 on the last
    # three axes, so it serves dg, ddg and dddg alike
    lead = range(dg.ndim - 3)
    return (dg + dg.transpose(*lead, -2, -3, -1) - dg.transpose(*lead, -2, -1, -3)) / 2


def _connection(ginv, dg, ddg, be):
    """Gamma and d Gamma, plus the pieces connection_jet differentiates again."""
    low, dlow = _gamma_lower(dg), _gamma_lower(ddg)
    gamma = be.einsum("rs,mns->rmn", ginv, low)
    dginv = -be.einsum("ra,kab,bs->krs", ginv, dg, ginv)
    dgamma = be.einsum("krs,mns->krmn", dginv, low) + be.einsum("rs,kmns->krmn", ginv, dlow)
    return gamma, dgamma, dginv, low, dlow


def _riemann_from_connection(gamma, dgamma, be):
    # R[r, s, m, n] = d_m G^r_{ns} - d_n G^r_{ms} + G^r_{ml} G^l_{ns} - G^r_{nl} G^l_{ms}
    term = be.einsum("rml,lns->rsmn", gamma, gamma)
    return dgamma.transpose(1, 3, 0, 2) - dgamma.transpose(1, 3, 2, 0) + term - term.transpose(0, 1, 3, 2)


def _coordinate_structure(sf, e, be, de=None):
    """Coordinate S_{mns} from frame S and the coframe; given dE, also d_k S_{mns}.

    S = "abc,am,bn,cs->mns" and the three terms of dS run as the pairwise
    products of numpy's greedy einsum, so float results keep its bits; the
    products they share are built once."""
    x1 = be.tensordot(sf, e, (0, 0))  # [b, c, m]
    x2 = be.tensordot(x1, e, (0, 0))  # [c, m, n]
    s_coord = be.tensordot(x2, e, (0, 0))  # [m, n, s]
    if de is None:
        return s_coord, None
    y2 = be.tensordot(be.tensordot(sf, e, (1, 0)), e, (1, 0))  # [a, n, s]
    ds_coord = (
        be.tensordot(y2, de, (0, 1)).transpose(2, 3, 0, 1)
        + be.tensordot(be.tensordot(x1, e, (1, 0)), de, (0, 1)).transpose(2, 0, 3, 1)
        + be.tensordot(x2, de, (0, 1)).transpose(2, 0, 1, 3)
    )
    return s_coord, ds_coord


def _raised_structure(s_coord, ginv, be):
    """S^r_{mn} as [r, m, n], the part the torsion connection subtracts."""
    return be.einsum("mns,rs->mnr", s_coord, ginv).transpose(2, 0, 1)


def _frame_curvature(sf, prof, s, x, be):
    """Frame components Rbar[a, b, c, d] of the curvature of nabla - S at (s, x), S framed as sf."""
    (_, ginv, dg, ddg), (e, de) = _chart_jet(prof, s, x, be)
    gamma, dgamma, dginv, _, _ = _connection(ginv, dg, ddg, be)
    s_coord, ds_coord = _coordinate_structure(sf, e, be, de)
    gbar = gamma - _raised_structure(s_coord, ginv, be)
    ds_up = be.einsum("kmns,rs->kmnr", ds_coord, ginv) + be.einsum("mns,krs->kmnr", s_coord, dginv)
    dgbar = dgamma - ds_up.transpose(0, 3, 1, 2)
    return _frame_form(e, _riemann_from_connection(gbar, dgbar, be), be)


def _frame_form(e, rbar, be):
    """Coordinate rbar[r, t, m, n] in the frame of e: "cr,rtmn,td,ma,nb->abcd".

    Form slots take frame vectors, the endomorphism is conjugated by the
    coframe; theta[mu, A] holds the frame vectors as columns."""
    theta = be.inverse(e)
    frame = be.tensordot(e, rbar, (1, 0))  # [c, t, m, n]
    for _ in range(3):
        frame = be.tensordot(frame, theta, (1, 0))
    return frame.transpose(2, 3, 0, 1)  # [c, d, a, b] -> [a, b, c, d]


@functools.cache
def frame_metric(n, tag=EXACT):
    # a FrameMetric, its rows and its matrix Tensors are frozen, so one instance serves every caller
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
    q, f = pw._F.den, dict(pw._F.nums)  # the entries are int numerators over F's den
    entries = {(0, 0, 1): -q, (0, 1, 0): q, **{(0, 2 + i, 2 + j): v for (i, j), v in f.items()}}
    for (i, j), v in (f | {(i, i): q for i in range(pw.n)}).items():  # delta + F, as F_ii = 0
        entries.update({(2 + i, 0, 2 + j): -v, (2 + i, 2 + j, 0): v})
    return Tensor._sparse(pw.dim, (DOWN, DOWN, DOWN), entries, EXACT, q)


def exact_curvature(pw, s, x):
    """Frame components of the curvature of nabla - S at (z=0, s, x).

    Returns a CurvatureAtPoint whose operator tensor follows the sign
    convention of plane_wave, together with the null-boost action
    matrices spanning the reachable isotropy.  The chain runs on
    SparseArrays, where the profile jet at z = 0 is H, [H,F], [[H,F],F],
    so the result is exact.
    """
    s, x, n = _rational(s, "s"), [_rational(v, "x") for v in x], pw.n
    if len(x) != n:
        raise ValueError("x must have n components")
    h, f, sf = (SparseArray(dict(t.nums), t.den, (t.dim,) * t.rank)
                for t in (pw._H, pw._F, _frame_tensor(pw)))
    point = _array((), {(): s}), _array((n,), {(i,): v for i, v in enumerate(x)})
    frame = _frame_curvature(sf, _commutator_jet(h, f), *point, SPARSE)
    rbar = Tensor._sparse(pw.dim, (DOWN, DOWN, UP, DOWN), frame.nums, EXACT, frame.den)
    return hom_structure.CurvatureAtPoint(rbar, null_boost_basis(pw.n), frame_metric(pw.n, EXACT))


def null_boost_basis(n):
    """Frame action matrices of the n null boosts.

    Boost j sends E_+ to -E_j and E_j to E_-; rotations never enter the
    reachable isotropy of this geometry.
    """
    d, zero = n + 2, Fraction(0)
    ones = ({(2 + j, 0): Fraction(-1), (1, 2 + j): Fraction(1)} for j in range(n))
    return tuple(tuple(tuple(m.get((a, b), zero) for b in range(d)) for a in range(d)) for m in ones)
