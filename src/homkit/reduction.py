"""Normalization of bracket tables built from vector-plus-3-form data.

Two families of structure-constant ansatze are handled, split by the
causal type of the defining vector:

* non-degenerate: basis (V, Z_1..Z_n) plus rotations of the transverse
  metric eta = diag(-aleph, 1, .., 1);
* degenerate: basis (U, V, Z_1..Z_n) plus a chosen subset of null
  boosts and whatever transverse rotations the curvature data reaches.

Everything is exact rational: "forced to vanish" always means an exact
zero, and a Jacobi residual of zero is a proof.  Every exact array here
is a QArray (integer numerators over one denominator, see _exact_array).
Each ansatz parses each array field once into a checked QArray, keeps
it as the field's carrier and stores the field as nested tuples of
Fractions frozen from it; generation, rescaling and the wave round trip
hand their QArrays over as carriers instead of parsing them again.
Fractions are built only for what leaves the module (stored fields,
residual values, bracket rows, redefinition matrices, wave data) and
for the rows handed to exact's linear algebra.  The two reduce
operations mechanize the generator redefinitions that bring a
consistent table to symmetric-space or plane-wave normal form, and
verify the expected bracket pattern exactly on the brackets of the
redefined generators, read off the assembled table in the old basis.
"""

from __future__ import annotations

import copy
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._exact_array import QArray, _algebra, _table, einsum, max_abs
from .exact import _echelon, _eliminate, _rational, format_scalar, integer_numerators, span_coordinates
from .lie_algebra import _first_worst_triple, jacobi_residual
from .plane_wave import PlaneWaveData, _wave_table

# Levi-Civita symbol on three indices, as Python ints
_LEVI_CIVITA = QArray(np.array(
    [[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
     [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
     [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]],
    dtype=object,
))


# ---------------------------------------------------------------------------
# exact arrays
# ---------------------------------------------------------------------------


def _qarray(values, shape):
    """The QArray of a flat list of ints and Fractions, in the given shape."""
    nums, den = integer_numerators(values)
    return QArray(np.array(nums, dtype=object).reshape(shape), den)


def _array(data, shape, name):
    """The QArray of nested lists of the given shape (None: any length).

    The nesting is checked before any entry is parsed, so a missing,
    extra or ragged level is reported as a shape error of the field.  A
    QArray of a fitting shape is taken as is.
    """
    flat = []

    def fits(x, depth):
        if depth == len(shape):
            flat.append(x)
            return not isinstance(x, (list, tuple, dict, np.ndarray))
        return (
            isinstance(x, (list, tuple, np.ndarray))
            and shape[depth] in (None, len(x))
            and all(fits(y, depth + 1) for y in x)
        )

    if isinstance(data, QArray):
        if data.ndim == len(shape) and all(s in (None, d) for s, d in zip(shape, data.shape)):
            return data
    elif fits(data, 0):
        return _qarray([_rational(x, name) for x in flat], [s or len(data) for s in shape])
    dims = " x ".join("k" if s is None else str(s) for s in shape)
    raise ValueError(f"{name} must be nested lists of shape {dims}")


def _zeros(*shape):
    return QArray(np.zeros(shape, dtype=object))


def _eye(n):
    return QArray(np.eye(n, dtype=object))


def _freeze(q):
    """The QArray's entries as nested tuples of Fractions (a stored field)."""

    def build(x, depth):
        return tuple(x) if depth == 1 else tuple(build(y, depth - 1) for y in x)

    return build(q.tolist(), q.ndim)


def _fmt(t):
    if isinstance(t, (tuple, list, np.ndarray)):
        return [_fmt(x) for x in t]
    return format_scalar(t)


def _store(obj, **values):
    """Set fields of a frozen ansatz.  A QArray value becomes the field's
    carrier, and the field the nested tuples frozen from it."""
    carriers = dict(vars(obj).get("_carriers", {}))
    for name, v in values.items():
        if isinstance(v, QArray):
            carriers[name], v = v, _freeze(v)
        object.__setattr__(obj, name, v)
    object.__setattr__(obj, "_carriers", carriers)


def _upper(t):
    """The (i, j), i < j, slices of t's first two slots, in row order."""
    return t[np.triu_indices(len(t), 1)]


def _eta_diag(aleph, n):
    return np.array([-aleph] + [1] * (n - 1), dtype=object)


def _derivation(m, t, slots=None):
    """sum over slots s of m[i_s, l] t[.., l, ..] (default: every slot).

    With m = omega^T this is the rotation omega acting on an all-lower
    array, which vanishes exactly when the array is invariant.
    """
    first, *rest = [(t.swapaxes(s, -1) @ m.T).swapaxes(s, -1) for s in slots or range(t.ndim)]
    return sum(rest, first)


def f_derivation(f, c):
    """Derivation of a 3-index array along an antisymmetric matrix.

    (delta_F C)_ijk = F_il C_ljk + F_jl C_ilk + F_kl C_ijl; total
    antisymmetry of C is preserved.
    """
    f, c = QArray.of(f), QArray.of(c)
    if len(f) != len(c):
        raise ValueError("F and C sizes differ")
    return _derivation(f, c).tolist()


def _cyclic(t):
    """t[i, j, k, ..] + t[j, k, i, ..] + t[k, i, j, ..]."""
    rest = tuple(range(3, t.ndim))
    return t + t.transpose(2, 0, 1, *rest) + t.transpose(1, 2, 0, *rest)


def _occupied(t, absent):
    """t with the all-absent block zeroed: the entries with an occupied index."""
    t = t.copy()
    t[np.ix_(*[absent] * t.ndim)] = 0
    return t


# ---------------------------------------------------------------------------
# rotation spans
# ---------------------------------------------------------------------------


def _span_closure(seeds, n):
    """Deterministic basis of the Lie closure of the seed rotation matrices."""
    basis, ech = [], {}

    def add(m):
        # membership and the echelon rows do not change when m is scaled
        row, _ = _eliminate(ech, m.num.ravel().tolist())
        if not any(row):
            return False
        basis.append(m)
        _echelon([row], ech)
        return True

    for s in seeds:
        add(s)
    changed = True
    while changed:
        changed = False
        # [a, a] = 0, and [b, a] = -[a, b] is in the span once [a, b] is
        snapshot = list(basis)
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1 :]:
                if add(a @ b - b @ a):
                    changed = True
    den = math.lcm(*(m.den for m in basis))
    nums = np.array([m.num * (den // m.den) for m in basis], dtype=object)
    return QArray(nums.reshape(len(basis), n, n), den)


def _coords(rot, mats):
    """Coefficients of each matrix against the span basis rot, one row each.

    Only seeds of the span and commutators of its basis elements come
    here, and the closure contains both, so every system is consistent.
    Both sides are solved on their numerators and the scales put back.
    """
    rot, mats = QArray.of(rot), QArray.of(mats)
    rows = span_coordinates([m.ravel().tolist() for m in rot.num], [m.ravel().tolist() for m in mats.num])
    return _qarray([x for row in rows for x in row], (len(mats), len(rot))) * Fraction(rot.den, mats.den)


def _nondeg_rotations(ansatz):
    """Rotation images sigma_i of the Z_i, s_hat_ij of the pairs, and their span."""
    d = _eta_diag(ansatz.aleph, ansatz.n)
    q = ansatz._carriers
    # action matrix of the element with coefficients R[i]: 2 R_i eta
    sigmas, hats = 2 * q["R"] * d, 2 * q["Scurv"] * d
    return sigmas, hats, _span_closure([*sigmas, *_upper(hats), *q["h_basis"]], ansatz.n)


def _deg_rotations(ansatz):
    """Rotation images sigma_i = R_i, n_hat_ij = 2 N_ij and y_hat = 2 Y, and their span."""
    q = ansatz._carriers
    hats = 2 * q["N"]
    return q["R"], hats, _span_closure([*q["R"], *_upper(hats), 2 * q["Y"]], ansatz.n)


# ---------------------------------------------------------------------------
# ansatz types
# ---------------------------------------------------------------------------


# rank of each array field of the two ansatz types, then the slot pairs
# under which it is antisymmetric
_FIELDS = {
    "W": (1,),
    "F": (2, (0, 1)),
    "aleph2": (2, (0, 1)),
    "C": (3, (0, 1), (1, 2)),
    "h": (2,),
    "A": (2,),
    "Y": (2, (0, 1)),
    "R": (3, (1, 2)),
    "S3": (3, (0, 1)),
    "N": (4, (0, 1), (2, 3)),
    "Scurv": (4, (0, 1), (2, 3)),
}
_NONDEG_ARRAYS = ("F", "C", "R", "Scurv")
_DEG_ARRAYS = ("W", "F", "aleph2", "C", "h", "A", "Y", "R", "S3", "N")


def _field(ansatz, name):
    """The named field as an n x .. x n QArray, symmetries checked."""
    rank, *pairs = _FIELDS[name]
    q = _array(getattr(ansatz, name), (ansatz.n,) * rank, name)
    for i, j in pairs:
        if (q + q.swapaxes(i, j)).any():
            raise ValueError(f"{name} must be antisymmetric in slots {i} and {j}")
    return q


def _check_n(n):
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, not {n!r}")
    return n


def _nonzero_lam(lam):
    lam = _rational(lam, "lambda")
    if lam == 0:
        raise ValueError("lam must be nonzero")
    return lam


@dataclass(frozen=True)
class NondegenerateAnsatz:
    """Bracket data for a space- or time-like defining vector.

    lam is the eigenvalue of ad(V) on the transverse generators; its
    sign carries the causal type: lam = aleph * |lam| with aleph = +1
    spacelike and -1 timelike.  R[i][m][n] are the rotation
    coefficients of the mixed curvature operator (full double sum,
    antisymmetric in m, n) and Scurv[i][j][m][n] those of the
    transverse-transverse one.
    """

    n: int
    lam: Fraction
    aleph: int
    F: tuple
    C: tuple
    R: tuple
    Scurv: tuple
    h_basis: tuple = ()

    def __post_init__(self):
        n = _check_n(self.n)
        lam = _nonzero_lam(self.lam)
        if type(self.aleph) is not int or self.aleph not in (1, -1):
            raise ValueError("aleph must be +1 or -1")
        if (lam > 0) != (self.aleph > 0):
            raise ValueError("sign of lam must equal aleph")
        fields = {k: _field(self, k) for k in _NONDEG_ARRAYS}
        hb = _array(self.h_basis, (None, n, n), "h_basis")
        eta_hb = hb * _eta_diag(self.aleph, n)[:, None]
        if (eta_hb + eta_hb.swapaxes(1, 2)).any():
            raise ValueError("h_basis matrices must be eta-antisymmetric")
        _store(self, lam=lam, h_basis=hb, **fields)

    # (sigmas, hats, span basis), cached on first read; neither it nor
    # _carriers, the QArray of each array field that _store sets, is a field
    _rotations = functools.cached_property(_nondeg_rotations)

    def to_json(self):
        return {
            "case": "nondeg",
            "n": self.n,
            "lambda": str(self.lam),
            "aleph": self.aleph,
            **{k: _fmt(getattr(self, k)) for k in _NONDEG_ARRAYS},
            "h_basis": _fmt(self.h_basis),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            n=data["n"], lam=data["lambda"], aleph=data["aleph"],
            h_basis=data.get("h_basis", ()), **{k: data[k] for k in _NONDEG_ARRAYS},
        )


@dataclass(frozen=True)
class DegenerateAnsatz:
    """Bracket data for a null defining vector.

    occupancy lists the transverse directions whose null boost is
    modeled as present (0-based).  h, A parametrize the boost
    coefficients of ad(U); R and N are rotation coefficients (R with
    the conventional one-half, N a full double sum); S3 holds the boost
    coefficients of the transverse-transverse brackets; Y is the
    rotation block of the U-V curvature, kept as data only to be forced
    to zero.
    """

    n: int
    lam: Fraction
    occupancy: tuple
    W: tuple
    F: tuple
    aleph2: tuple
    C: tuple
    h: tuple
    A: tuple
    Y: tuple
    R: tuple
    S3: tuple
    N: tuple

    def __post_init__(self):
        n = _check_n(self.n)
        lam = _nonzero_lam(self.lam)
        occ = self.occupancy
        if not isinstance(occ, (list, tuple)) or any(
            type(a) is not int or not 0 <= a < n for a in occ
        ):
            raise ValueError(f"occupancy must list null-boost indices in 0..{n - 1}")
        occ = tuple(sorted(set(occ)))
        fields = {k: _field(self, k) for k in _DEG_ARRAYS}
        absent = [i for i in range(n) if i not in occ]
        for name in ("h", "S3"):
            bad = np.argwhere(fields[name].num[..., absent] != 0)
            if len(bad):
                *idx, col = bad[0]
                where = "".join(f"[{i}]" for i in (*idx, absent[col]))
                raise ValueError(f"{name}{where} references the absent null boost {absent[col]}")
        _store(self, lam=lam, occupancy=occ, **fields)

    # (sigmas, hats, span basis), cached; like _carriers, not a field
    _rotations = functools.cached_property(_deg_rotations)

    def rescaled(self):
        """The same data with the eigenvalue scaled to one."""
        return _at_scale(self, Fraction(1))

    def to_json(self):
        return {
            "case": "deg",
            "n": self.n,
            "lambda": str(self.lam),
            "occupancy": list(self.occupancy),
            **{k: _fmt(getattr(self, k)) for k in _DEG_ARRAYS},
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            n=data["n"], lam=data["lambda"], occupancy=data["occupancy"],
            **{k: data[k] for k in _DEG_ARRAYS},
        )


def _at_scale(ansatz, lam):
    """The same degenerate data presented at eigenvalue lam.

    Scaling U by 1/t, V by t and the null boosts by t, t = lam / ansatz.lam,
    maps (W, F, aleph2, C, h, A, Y, R, S3, N) to
    (W, t F, aleph2 / t, C, t^2 h, t^2 A, Y, t R, t S3, N).
    """
    lam = _nonzero_lam(lam)
    t = lam / ansatz.lam
    if t == 1:
        return ansatz
    q = ansatz._carriers
    # the fields are validated already and scaling keeps their symmetries,
    # so the copy takes the scaled QArrays as carriers instead of parsing again
    scaled = copy.copy(ansatz)
    # the copy carries the instance dict along, so drop the span cached at ansatz.lam
    vars(scaled).pop("_rotations", None)
    _store(scaled, lam=lam, F=q["F"] * t, aleph2=q["aleph2"] / t, h=q["h"] * t ** 2,
           A=q["A"] * t ** 2, R=q["R"] * t, S3=q["S3"] * t)
    return scaled


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _rotation_brackets(table, rot, m0, acted, *targets):
    """Fill [X, M_p] for each (positions in table, positions in rot) pair in
    acted, and [M_p, M_q] in the span basis; M_p sits at m0 + p.

    The commutators share one _coords call with the targets (stacks of
    matrices), and the span coordinates of each target are returned.
    """
    ms = range(m0, m0 + len(rot))
    for at, sub in acted:
        # [X_i, M_p] = -rot[p][m][i] X_m, key order (X_i, M_p)
        table[np.ix_(at, ms, at)] = -rot[:, sub][:, :, sub].transpose(2, 0, 1)
    p, q = np.triu_indices(len(rot), 1)
    groups = [*targets, rot[p] @ rot[q] - rot[q] @ rot[p]]
    den = math.lcm(*(g.den for g in groups))
    rows = _coords(rot, QArray(np.concatenate([g.num * (den // g.den) for g in groups]), den))
    *out, table[m0 + p, m0 + q, m0:] = (
        QArray(part, rows.den) for part in np.split(rows.num, np.cumsum([len(g) for g in targets])))
    return out


def assemble_nondegenerate(ansatz):
    """The bracket table on (V, Z_i, rotations) read off the ansatz."""
    sigmas, hats, rot = ansatz._rotations
    n, k = ansatz.n, len(rot)
    f, c = (ansatz._carriers[name] for name in ("F", "C"))
    d = _eta_diag(ansatz.aleph, n)
    labels = ["V"] + [f"Z{i+1}" for i in range(n)] + [f"M{p+1}" for p in range(k)]
    z, iz, m0 = slice(1, 1 + n), np.arange(1, 1 + n), 1 + n
    i, j = np.triu_indices(n, 1)
    table = _zeros(*[len(labels)] * 3)
    # [V, Z_i] = lam Z_i + (F eta)_ij Z_j + sigma_i (rotation parts last)
    table[0, z, z] = f * d
    table[0, iz, iz] += ansatz.lam
    # [Z_i, Z_j] = aleph F_ij V + (C eta)_ijm Z_m + s_hat_ij
    table[z, z, 0] = ansatz.aleph * f
    table[z, z, z] = c * d
    table[0, z, m0:], table[iz[i], iz[j], m0:] = _rotation_brackets(
        table, rot, m0, [(iz, range(n))], sigmas, hats[i, j])
    return _algebra(table, labels)


def assemble_degenerate(ansatz):
    """The bracket table on (U, V, Z_i, boosts, rotations).

    The boost part of the U-V curvature is pinned to -2 lam W on the
    occupied directions; unoccupied components of W survive only in the
    tangent part, which is what makes them inconsistent.
    """
    sigmas, hats, rot = ansatz._rotations
    n, lam = ansatz.n, ansatz.lam
    occ = list(ansatz.occupancy)
    absent = [i for i in range(n) if i not in occ]
    if moved := _moved_boost(rot, occ, absent):
        raise ValueError(
            "rotation span moves null boost {} onto the absent direction {}".format(*moved)
        )
    nb, k = len(occ), len(rot)
    labels = (
        ["U", "V"]
        + [f"Z{i+1}" for i in range(n)]
        + [f"Zb{a+1}" for a in occ]
        + [f"M{p+1}" for p in range(k)]
    )
    q = ansatz._carriers
    w, f, al, c, h, y, s3 = (q[name] for name in ("W", "F", "aleph2", "C", "h", "Y", "S3"))
    z, b, m0 = slice(2, 2 + n), slice(2 + n, 2 + n + nb), 2 + n + nb
    iz, ib = np.arange(2, 2 + n), np.arange(2 + n, m0)
    i, j = np.triu_indices(n, 1)
    table = _zeros(*[len(labels)] * 3)
    # [U, V] = lam V + W^k Z_k - 2 lam W_a Zb_a + Y-rotation (rotation parts last)
    table[0, 1, 1] = lam
    table[0, 1, z] = w
    table[0, 1, b] = -2 * lam * w[occ]
    # [U, Z_i] = lam Z_i - W_i U + F_ij Z_j + h_ia Zb_a + sigma_i
    table[0, z, 0] = -w
    table[0, z, z] = f
    table[0, iz, iz] += lam
    table[0, z, b] = h[:, occ]
    # [V, Z_i] = W_i V + aleph2_i^j Z_j
    table[1, z, 1] = w
    table[1, z, z] = al
    # [Z_i, Z_j] = aleph2_ij U + F_ij V + C_ijm Z_m + S3_ija Zb_a + n_hat_ij
    table[z, z, 0] = al
    table[z, z, 1] = f
    table[z, z, z] = c
    table[z, z, b] = s3[:, :, occ]
    # canonical boost relations [U, Zb_a] = Z_a, [Z_a, Zb_a] = -V
    table[0, ib, iz[occ]] = 1
    table[iz[occ], ib, 1] = -1
    table[0, 1:2, m0:], table[0, z, m0:], table[iz[i], iz[j], m0:] = _rotation_brackets(
        table, rot, m0, [(iz, range(n)), (ib, occ)], 2 * y[None], sigmas, hats[i, j])
    return _algebra(table, labels)


def assemble_algebra(ansatz):
    """Explicit Lie algebra of either ansatz kind, with documented order.

    Basis order: tangent generators first ((V, Z_i) or (U, V, Z_i)),
    then the present null boosts in index order, then the rotation
    span in deterministic closure order.
    """
    if isinstance(ansatz, NondegenerateAnsatz):
        return assemble_nondegenerate(ansatz)
    if isinstance(ansatz, DegenerateAnsatz):
        return assemble_degenerate(ansatz)
    raise TypeError("unknown ansatz type")


# ---------------------------------------------------------------------------
# named constraint residuals
# ---------------------------------------------------------------------------


def verify_constraints(ansatz):
    """Named residual table; all entries vanish exactly on a consistent
    ansatz and some entry is nonzero whenever the assembled table fails
    the Jacobi identity (cross-checked in the test-suite)."""
    if isinstance(ansatz, NondegenerateAnsatz):
        return _verify_nondeg(ansatz)
    if isinstance(ansatz, DegenerateAnsatz):
        return _verify_deg(ansatz.rescaled())
    raise TypeError("unknown ansatz type")


def _moved_boost(rot, occ, absent):
    """(occupied boost, absent direction) of the first span element that
    rotates the one onto the other, or None."""
    moved = np.argwhere(rot.num[:, absent][:, :, occ].transpose(0, 2, 1) != 0)
    return (occ[moved[0][1]], absent[moved[0][2]]) if len(moved) else None


def _equivariance(rot, sigmas, *invariants):
    """The arrays that vanish when the span fixes the invariant all-lower
    arrays and acts equivariantly on the rotation-valued map i -> sigmas[i]."""
    for omega in rot:
        yield sigmas @ omega - omega @ sigmas + einsum("mi,mab->iab", omega, sigmas)
        yield from (_derivation(omega.T, t) for t in invariants)


def _verify_nondeg(ansatz):
    sigmas, _, rot = ansatz._rotations
    lam = ansatz.lam
    f, c, r, s = (ansatz._carriers[k] for k in _NONDEG_ARRAYS)
    d = _eta_diag(ansatz.aleph, ansatz.n)
    # lowered rotation coefficients R_ijk = eta_jm eta_kn R[i][m][n]
    r_low = r * np.multiply.outer(d, d)
    return {
        "F": max_abs(f),
        "C_from_R": max_abs(lam / 2 * c - (r_low - r_low.transpose(1, 0, 2))),
        "S_from_CR": max_abs(2 * lam * s - einsum("ijk,kmn->ijmn", c * d, r)),
        "rotation_equivariance": max_abs(*_equivariance(rot, sigmas, f, c)),
    }


def _verify_deg(work):
    """Residual table of degenerate data already scaled to lam = 1."""
    sigmas, _, rot = work._rotations
    occ = list(work.occupancy)
    absent = [i for i in range(work.n) if i not in occ]
    w, f, al, c, h, a, y, r, s3, nn = (work._carriers[k] for k in _DEG_ARRAYS)
    fpd = f + _eye(work.n)
    dfc = _derivation(f, c)
    return {
        "W": max_abs(w),
        "aleph2": max_abs(al),
        "uv_rotation": max_abs(y),
        "h_split": max_abs(h - ((a + a.T) / 2 - f / 2)),
        "unoccupied_F": max_abs(f[np.ix_(absent, absent)]),
        "occupied_C": max_abs(_occupied(c, absent)),
        "occupied_S_R": max_abs((s3 - r)[:, occ]),
        "occupied_N": max_abs(_occupied(nn, absent)),
        "occupied_R": max_abs(_occupied(r, absent)),
        "F_C_kernel": max_abs(einsum("al,ljk->ajk", f[occ], c)),
        "S3_total_antisymmetry": max_abs(s3 + s3.transpose(0, 2, 1)),
        "S3_from_FC": max_abs(3 * s3 - dfc),
        "zz_boost": max_abs(c @ h - _derivation(fpd, s3, (0, 1))),
        "zz_rotation": max_abs(einsum("ijk,kmn->ijmn", c, r) / 2 - _derivation(fpd, nn, (0, 1))),
        "zz_vector": max_abs(s3 + r - r.transpose(1, 0, 2) - dfc - c),
        "cyclic_CS": max_abs(_cyclic(einsum("jkl,ilm->ijkm", c, s3))),
        "cyclic_CN": max_abs(_cyclic(einsum("jkl,ilmn->ijkmn", c, nn))),
        "cyclic_CC_N": max_abs(
            _cyclic(einsum("jkl,ilm->ijkm", c, c) + 2 * nn.transpose(2, 0, 1, 3))
        ),
        "rotation_equivariance": max_abs(
            rot[:, absent][:, :, occ], *_equivariance(rot, sigmas, f, h, c, s3, nn)
        ),
    }


# ---------------------------------------------------------------------------
# reduction reports and the two normalizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    verdict: str  # symmetric_space | plane_wave | inconsistent
    residuals: dict
    lambda_scale: Fraction
    redefinitions: tuple = ()  # (name, new-basis-in-old-basis matrix)
    plane_wave: PlaneWaveData | None = None
    failing_identity: tuple | None = None
    checks: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "residuals": {k: format_scalar(v) for k, v in self.residuals.items()},
            "lambda_scale": str(self.lambda_scale),
            "redefinitions": [
                {"name": name, "matrix": _fmt(mat)} for name, mat in self.redefinitions
            ],
            "checks": {k: (format_scalar(v) if isinstance(v, Fraction) else v)
                       for k, v in self.checks.items()},
        }
        out["plane_wave"] = self.plane_wave.to_json() if self.plane_wave else None
        out["failing_identity"] = list(self.failing_identity) if self.failing_identity else None
        return out


def _jacobi_failure(algebra, residuals, lambda_scale):
    """The inconsistent report naming the worst Jacobi triple of the
    assembled table, or None when its residual vanishes exactly."""
    entries, worst = jacobi_residual(algebra)
    if worst == 0:
        return None
    return ReductionReport(
        verdict="inconsistent",
        residuals=residuals,
        lambda_scale=lambda_scale,
        failing_identity=_first_worst_triple(algebra, entries, worst),
        checks={"jacobi_residual": worst},
    )


def _brackets(t, new_in_old, left, right):
    """[X_a, X_b] in old coordinates for a in left and b in right, where t
    holds f_ab^c and the new generators X_a are the columns of new_in_old."""
    # the greedy pairwise order keeps the exact sum off the full index product
    return einsum("ma,nb,mnk->abk", new_in_old[:, left], new_in_old[:, right], t, optimize="greedy")


def _bracket_pattern(t, new_in_old, gens, lam, m0):
    """Whether, over the new generators X_x for x in gens, every
    [e_0, X] = lam X, every [X, Y] lies in the span of e_m0, e_m0+1, ..,
    and every [X, Y] = 0, read on the brackets in old coordinates.

    new_in_old = I + N with N @ N = 0 and N zero on the columns 0 and
    m0.., so new coordinates are (I - N) times old ones, and a vector on
    e_m0.. has the same coordinates in both bases.
    """
    cols = [0, *gens]
    u = _brackets(t, new_in_old, cols, cols)
    eigen = not (u[0, 1:] - new_in_old[:, cols[1:]].T * lam).any()
    return eigen, not u[1:, 1:, :m0].any(), not u[1:, 1:].any()


def _failing_check(checks, keys):
    """(first of keys whose check reads false,), or None when all hold."""
    return next(((k,) for k in keys if not checks[k]), None)


def nondegenerate_reduce(ansatz):
    """Normalize a consistent non-degenerate table to symmetric-space form.

    The transverse generators are shifted by their own rotation images,
    Y_i = Z_i + R-element(i) / lam; the reduced table then satisfies
    [V, Y_i] = lam Y_i exactly and the Y-Y brackets close into the
    rotation span, which is the symmetric-space criterion at the
    structure-constant level.
    """
    residuals = verify_constraints(ansatz)
    algebra = assemble_nondegenerate(ansatz)
    failure = _jacobi_failure(algebra, residuals, Fraction(1))
    if failure:
        return failure
    # F = 0 from here: J_{V Z_i Z_j}^V = 2 aleph lam F_ij on the assembled
    # table, and lam != 0, so a nonzero F fails the Jacobi gate above
    t, m0 = _table(algebra), 1 + ansatz.n
    new_in_old = _eye(algebra.dim)
    # the rotation parts of [V, Z_i], which the assembly solved in the span
    new_in_old[m0:, 1:m0] = t[0, 1:m0, m0:].T / ansatz.lam
    eigen_ok, closes, yy_vanishes = _bracket_pattern(t, new_in_old, range(1, m0), ansatz.lam, m0)
    checks = {"eigen_brackets": eigen_ok, "yy_in_rotation_span": closes,
              "yy_vanishes": yy_vanishes}
    failing = _failing_check(checks, ("eigen_brackets", "yy_in_rotation_span"))
    return ReductionReport(
        verdict="inconsistent" if failing else "symmetric_space",
        residuals=residuals,
        lambda_scale=Fraction(1),
        redefinitions=(("Y_i = Z_i + R-element(i)/lam", _freeze(new_in_old)),),
        failing_identity=failing,
        checks=checks,
    )


def degenerate_reduce(ansatz):
    """Normalize a consistent degenerate table to plane-wave form.

    After scaling the eigenvalue to one, the unoccupied transverse
    generators are unhooked from the null boosts (Y_I = Z_I - F_Ia Zb_a)
    and from their rotation images (W_I = Y_I + R-element(I)); in the
    resulting split the unoccupied eigen-brackets trivialize and the
    sectors decouple.  The wave data is read off the table directly:
    the rotation is half the torsion 2-form, and the profile follows
    from the boost coefficients of ad(U) through 2H = bb + F/2 + (F/2)^2
    with bb the boost block; the Jacobi gate makes it exactly symmetric.
    """
    # work.rescaled() is work, so both stages read one cached span
    work = ansatz.rescaled()
    residuals = verify_constraints(work)
    n = work.n
    occ = list(work.occupancy)
    absent = [i for i in range(n) if i not in occ]
    if moved := _moved_boost(work._rotations[2], occ, absent):
        # no table exists: the span would rotate a boost onto a missing one
        checks = {"rotation_span_keeps_boosts": False, "moved_boost": moved[0],
                  "absent_direction": moved[1],
                  "rotation_equivariance": residuals["rotation_equivariance"]}
        failing = ("rotation_span_keeps_boosts", f"Zb{moved[0] + 1}", f"Z{moved[1] + 1}")
        return ReductionReport("inconsistent", residuals, ansatz.lam,
                               failing_identity=failing, checks=checks)
    algebra = assemble_degenerate(work)
    failure = _jacobi_failure(algebra, residuals, ansatz.lam)
    if failure:
        return failure
    # The Jacobi gate has forced W, aleph2 and Y to vanish (I absent, a
    # occupied, lam = 1): J_{U V Z_I}^V = 2 W_I and J_{U Z_a Zb_a}^{Zb_a}
    # = -2 W_a give W = 0; then J_{V Z_i Z_j}^V = (aleph2 - [F, aleph2])_ij,
    # whose sum against aleph2_ij is |aleph2|^2 as tr(aleph2^T [F, aleph2])
    # = 0; then J_{U V Z_i}^{Z_m} = 2 Y_mi.
    t, m0 = _table(algebra), 2 + n + len(occ)
    f, h = work._carriers["F"], work._carriers["h"]
    wz = [2 + i for i in absent]

    # first redefinition: unhook unoccupied generators from the boosts
    b1 = _eye(algebra.dim)
    b1[np.ix_(range(2 + n, m0), wz)] = -f[np.ix_(absent, occ)].T

    # second redefinition: absorb the rotation images, the rotation parts
    # of [U, Z_I]; the new generators of both are the columns of b1 @ b2
    b2 = _eye(algebra.dim)
    b2[m0:, wz] = t[0, wz, m0:].T
    b12 = b1 @ b2

    ok, ww_closes, ww_zero = _bracket_pattern(t, b12, wz, work.lam, m0)
    checks = {
        "unoccupied_eigen_brackets": ok,
        "unoccupied_brackets_vanish": ww_zero,
        "unoccupied_brackets_in_rotation_span": ww_closes,
        # [Z_a, W_I] = 0: with W = 0, J_{U Z_i Zb_a}^{Z_m} = C_iam, so C
        # vanishes wherever an index is occupied; J_{U Z_I Zb_a}^{Zb_b} =
        # S3_Iab + R_Iba and J_{U Z_I Z_a}^{Z_b} = R_Iba - S3_Iab, so R_I and
        # S3_I vanish on occupied pairs; R_I has no occupied-absent entries,
        # as the span keeps the boosts; and J_{U Z_I Zb_a}^{M_p} is the
        # rotation part of [Z_I, Z_a].  What is left of [Z_a, W_I] is
        # (F_aI + F_Ia) V = 0
        "sectors_decouple": True,
        # J_{U Z_i Z_j}^V = (h - h^T + f)_ij, and h_pw - h_pw^T below is
        # (h - h^T + f)/2 since f_pw^2 is symmetric: the profile is symmetric
        "profile_symmetric": True,
    }

    # emitted wave data, from the presentation that keeps the original
    # transverse generators with only the rotation images absorbed; h is
    # the boost block, zero on the absent boosts by construction
    f_pw = f / 2
    h_pw = (h + f_pw + f_pw @ f_pw) / 2
    pw = PlaneWaveData(n, _freeze(f_pw), _freeze(h_pw))

    # with the rotation images absorbed the table must be, on the nose, the
    # wave table on the generators present (U, V, X_i and the occupied Xb_a,
    # at 0..m0-1 here), both in old coordinates: the wave side carried by b2.
    # The wave brackets reach the absent Xb_I only through the boost block
    # 2H - F - F^2 = h of [U, X_i], whose absent columns the ansatz refuses.
    wave = _wave_table(f_pw, h_pw)
    present = [*range(2 + n), *(2 + n + a for a in occ)]
    want = wave[np.ix_(present, present, present)] @ b2[:, :m0].T
    checks["matches_wave_table"] = not (_brackets(t, b2, range(m0), range(m0)) - want).any()
    # the wave table is a Lie algebra for every antisymmetric F and
    # symmetric H, which PlaneWaveData enforces: every bracket without U
    # lands on V, which only U moves, so only triples (U, x, y) can fail;
    # of those only J_{U X_i X_j}^V reads the boost block B, as
    # +-(B^T - B - 2F)_ij, and B - B^T = -2F
    checks["rebuilt_wave_jacobi"] = Fraction(0)

    failing = _failing_check(checks, ("unoccupied_eigen_brackets",
                                      "unoccupied_brackets_in_rotation_span",
                                      "matches_wave_table"))
    return ReductionReport(
        verdict="inconsistent" if failing else "plane_wave",
        residuals=residuals,
        lambda_scale=ansatz.lam,
        redefinitions=(
            ("Y_I = Z_I - F_Ia Zb_a", _freeze(b1)),
            ("W_I = Y_I + R-element(I)", _freeze(b2)),
        ),
        plane_wave=pw,
        failing_identity=failing,
        checks=checks,
    )


def reduce_ansatz(ansatz):
    if isinstance(ansatz, NondegenerateAnsatz):
        return nondegenerate_reduce(ansatz)
    if isinstance(ansatz, DegenerateAnsatz):
        return degenerate_reduce(ansatz)
    raise TypeError("unknown ansatz type")


# ---------------------------------------------------------------------------
# building degenerate data from wave data, and seeded instance generation
# ---------------------------------------------------------------------------


def ansatz_from_plane_wave(pw, lam=Fraction(1)):
    """Degenerate ansatz whose assembled table is the wave algebra.

    All boosts occupied; the torsion 2-form is twice the wave rotation
    and the boost data encodes the profile through the same
    identification the reduction inverts.
    """
    n = pw.n
    f, hh = _array(pw.F, (n, n), "F"), _array(pw.H, (n, n), "H")
    a_mat = 2 * hh - f @ f
    base = DegenerateAnsatz(
        n=n, lam=Fraction(1), occupancy=tuple(range(n)), W=_zeros(n), F=2 * f,
        aleph2=_zeros(n, n), C=_zeros(n, n, n), h=(a_mat + a_mat.T) / 2 - f, A=a_mat,
        Y=_zeros(n, n), R=_zeros(n, n, n), S3=_zeros(n, n, n), N=_zeros(n, n, n, n),
    )
    # undo the unit-eigenvalue scaling to present the data at scale lam
    return _at_scale(base, lam)


def _rand_fraction(rng, bound=2, den=3):
    return Fraction(rng.randint(-bound * den, bound * den), rng.randint(1, den))


def _epsilon_template(indices, kappa, n):
    """Rotation-coefficient seed R[i][m][k] = kappa * eps on a 3-subset.

    The images are the standard rotation generators of the subset's
    metric block, the unique equivariant family available at desk
    scale.
    """
    r = _zeros(n, n, n)
    r[np.ix_(indices, indices, indices)] = kappa * _LEVI_CIVITA
    return r


def generate_instance(case, n, seed):
    """Seeded consistent ansatz with exact-zero Jacobi residual.

    Free data is drawn at random; the dependent fields are produced by
    the linear constraint relations (and, for rotation data, the one
    equivariant seed family available for a 3-dimensional block), so
    the result passes verify_constraints by construction.
    """
    if n > 4:
        raise ValueError("instance generation is desk-scale: n <= 4")
    if n < 1:
        raise ValueError("n must be positive")
    # string seeding hashes deterministically across processes
    rng = random.Random(f"{case}:{n}:{seed}")
    if case == "nondeg":
        return _generate_nondeg(rng, n)
    if case == "deg":
        return _generate_deg(rng, n)
    raise ValueError("case must be 'nondeg' or 'deg'")


def _generate_nondeg(rng, n):
    aleph = rng.choice((1, -1))
    lam = Fraction(aleph) * abs(_rand_fraction(rng))
    while lam == 0:
        lam = Fraction(aleph) * abs(_rand_fraction(rng))
    d = _eta_diag(aleph, n)
    eta2 = np.multiply.outer(d, d)
    r = _zeros(n, n, n)
    if n >= 3 and rng.random() < 0.75:
        kappa = _rand_fraction(rng, bound=1, den=2)
        if n == 3:
            # eta twists the action for a Lorentzian block: raise the
            # last two slots so R keeps the upper-index convention R[i][m][n]
            r = _epsilon_template((0, 1, 2), kappa, n) * eta2
        else:
            # a Euclidean block for either sign
            r = _epsilon_template((n - 3, n - 2, n - 1), kappa, n)
    # dependent fields from the constraint relations
    r_low = r * eta2
    c = 2 / lam * (r_low - r_low.transpose(1, 0, 2))
    s = einsum("ijk,kmn->ijmn", c * d, r) / (2 * lam)
    out = NondegenerateAnsatz(n=n, lam=lam, aleph=aleph, F=_zeros(n, n), C=c, R=r, Scurv=s)
    # the span basis is eta-antisymmetric and closed, so as h_basis it
    # keeps the span, which stays cached
    _store(out, h_basis=out._rotations[2])
    return out


def _generate_deg(rng, n):
    size = rng.randint(0, n)
    occ = tuple(sorted(rng.sample(range(n), size)))
    absent = [i for i in range(n) if i not in occ]
    lam = abs(_rand_fraction(rng))
    while lam == 0:
        lam = abs(_rand_fraction(rng))
    if rng.random() < 0.5:
        lam = Fraction(1)

    f = _zeros(n, n)
    for ai, a in enumerate(occ):
        for b in occ[ai + 1:]:
            v = _rand_fraction(rng)
            f[a, b], f[b, a] = v, -v

    r, c, nmat = _zeros(n, n, n), _zeros(n, n, n), _zeros(n, n, n, n)
    if len(absent) == 3 and rng.random() < 0.75:
        kappa = _rand_fraction(rng, bound=1, den=2)
        r = _epsilon_template(absent, kappa, n)
        c = r - r.transpose(1, 0, 2)
        nmat = einsum("ijk,kmn->ijmn", c, r) / 4
    else:
        # with no rotation data the boost couplings of the unoccupied
        # sector are unconstrained
        for i in absent:
            for a in occ:
                v = _rand_fraction(rng)
                f[i, a], f[a, i] = v, -v

    a_mat = _zeros(n, n)
    for ai, a in enumerate(occ):
        for b in occ[ai:]:
            v = _rand_fraction(rng)
            a_mat[a, b] = a_mat[b, a] = v
    for i in absent:
        for a in occ:
            a_mat[i, a] = a_mat[a, i] = f[a, i] / 2

    base = DegenerateAnsatz(
        n=n, lam=Fraction(1), occupancy=occ, W=_zeros(n), F=f,
        aleph2=_zeros(n, n), C=c, h=(a_mat + a_mat.T) / 2 - f / 2, A=a_mat,
        Y=_zeros(n, n), R=r, S3=_zeros(n, n, n), N=nmat,
    )
    return _at_scale(base, lam)


def ansatz_from_json(data):
    case = data.get("case")
    if case == "nondeg":
        return NondegenerateAnsatz.from_json(data)
    if case == "deg":
        return DegenerateAnsatz.from_json(data)
    raise ValueError("ansatz JSON must carry case 'nondeg' or 'deg'")
