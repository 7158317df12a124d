"""Normalization of bracket tables built from vector-plus-3-form data.

Two families of structure-constant ansatze are handled, split by the
causal type of the defining vector:

* non-degenerate: basis (V, Z_1..Z_n) plus rotations of the transverse
  metric eta = diag(-aleph, 1, .., 1);
* degenerate: basis (U, V, Z_1..Z_n) plus a chosen subset of null
  boosts and whatever transverse rotations the curvature data reaches.

Everything is exact rational: "forced to vanish" always means an exact
zero, and a Jacobi residual of zero is a proof.  Every exact array here
is an all-lower Tensor of dimension n (a stack of matrices is a tuple of
them): each ansatz field is parsed once into a checked Tensor, its
carrier, from which the public field, nested tuples of Fractions, is
frozen when first read; sums (each built once), contractions, residuals
and bracket tables run on the nonzero integer numerators.  The two
reduce operations mechanize the generator redefinitions that bring a
consistent table to symmetric-space or plane-wave normal form, and
verify the expected bracket pattern exactly on the brackets of the
redefined generators, read off the assembled table in the old basis.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction

from .exact import EXACT, _echelon, _eliminate, _rational, format_scalar
from . import lie_algebra  # read only when a table is assembled, so gen never runs it
from .tensor_core import (DOWN, Tensor, _antisymmetry_violations, _contract, _dense, _frozen, _map_slot,
                          _sum)
from .wave_table import PlaneWaveData, _wave_table

# Levi-Civita symbol on three indices: the sign of each permutation
_LEVI_CIVITA = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
_HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# exact arrays
# ---------------------------------------------------------------------------


def _tensor(n, rank, entries, den=None):
    """The all-lower Tensor of {index: value}, or of int numerators over den; zeros dropped."""
    return Tensor._sparse(n, (DOWN,) * rank, entries, EXACT, den)


def _array(data, shape, name):
    """The Tensor of nested lists of shape (n, .., n), or the tuple of
    Tensors of a (None, n, n) stack; a Tensor of a fitting shape is taken
    as is.  The nesting is checked before any entry is parsed, so a
    missing, extra or ragged level is a shape error of the field.  Arrays
    are read through tolist(), and each distinct string or int is parsed once.
    """
    n, stack = shape[-1], shape[0] is None
    rank = len(shape) - stack
    if isinstance(data, Tensor):
        if not stack and (data.dim, data.rank) == (n, rank):
            return data
    elif (flat := _leaves(data, shape)) is not None:
        parse = functools.cache(lambda x: _rational(x, name))
        values = [parse(x) if type(x) in (str, int) else _rational(x, name) for x in flat]
        index = list(itertools.product(range(n), repeat=rank))
        out = [_tensor(n, rank, dict(zip(index, values[i:]))) for i in range(0, len(values), len(index))]
        return tuple(out) if stack else out[0]
    dims = " x ".join("k" if s is None else str(s) for s in shape)
    raise ValueError(f"{name} must be nested lists of shape {dims}")


def _leaves(data, shape):
    """The entries of nested lists of the given shape in index order, or
    None if a level is missing, extra or ragged.  Checked one level at a
    time, on the set of types and of lengths met there; every list, array
    or entry is read through tolist() if it has one."""
    level = [data]
    for size in shape:
        level = [x.tolist() if hasattr(x, "tolist") else x for x in level]
        if not all(issubclass(t, (list, tuple)) for t in {type(x) for x in level}) or (
                size is not None and {len(x) for x in level} - {size}):
            return None
        level = [y for x in level for y in x]
    level = [x.tolist() if hasattr(x, "tolist") else x for x in level]
    return None if any(issubclass(t, (list, tuple, dict)) for t in {type(x) for x in level}) else level


def _zeros(n, rank):
    return _tensor(n, rank, {})


def _eye(n):
    return _tensor(n, 2, {(i, i): 1 for i in range(n)}, 1)


def _freeze(t, kind=tuple):
    """A carrier's entries as nested tuples of Fractions (a stored field), or lists."""
    if isinstance(t, tuple):
        return kind(_freeze(m, kind) for m in t)
    out = t.components
    for _ in range(t.rank):
        out = [kind(out[i : i + t.dim]) for i in range(0, len(out), t.dim)]
    return out[0]


def _fmt(t):
    if isinstance(t, (tuple, list)):
        return [_fmt(x) for x in t]
    return format_scalar(t)


def _store(obj, carriers, **values):
    """Set the plain values of a frozen ansatz and the carrier (a Tensor, or a tuple
    of them) of each array field, which the field is frozen from on first read."""
    vars(obj).update(values, _carriers={**vars(obj).get("_carriers", {}), **carriers})
    for name in carriers:
        vars(obj).pop(name, None)


def _frozen_fields(cls):
    """cls, a _frozen ansatz, with each array field read once as the nested tuples of Fractions
    frozen from its carrier; applied after _frozen, so h_basis = () stays an __init__ default."""
    for name in {*_FIELDS, "h_basis"}.intersection(cls._fields):
        setattr(cls, name, functools.cached_property(lambda self, k=name: _freeze(self._carriers[k])))
        getattr(cls, name).__set_name__(cls, name)
    return cls


def _blocks(t, leads):
    """[(lead, the matrix Tensor t[*lead, :, :])] for each given index of t's leading slots."""
    rows = {lead: {} for lead in leads}
    for idx, v in t.nums:
        if (row := rows.get(idx[:-2])) is not None:
            row[idx[-2:]] = v
    return [(lead, _tensor(t.dim, 2, e, t.den)) for lead, e in rows.items()]


def _eta(t, aleph, *slots):
    """t times eta = diag(-aleph, 1, .., 1) along each of the given slots."""
    return _tensor(t.dim, t.rank, {i: v * (-aleph) ** sum(i[s] == 0 for s in slots)
                                   for i, v in t.nums}, t.den)


def _perm(t, *axes):
    """t.transpose(*axes): slot d of the result reads slot axes[d] of t."""
    return _tensor(t.dim, t.rank, {tuple(map(idx.__getitem__, axes)): v for idx, v in t.nums}, t.den)


def _derivation(m, t, slots=None):
    """sum over slots s of m[i_s, l] t[.., l, ..] (default: every slot).

    With m = omega^T this is the rotation omega acting on an all-lower
    array, which vanishes exactly when the array is invariant.
    """
    return _map_slot(t, slots or range(t.rank), m, t.valence)


def f_derivation(f, c):
    """Derivation of a 3-index array along an antisymmetric matrix.

    (delta_F C)_ijk = F_il C_ljk + F_jl C_ilk + F_kl C_ijl; total
    antisymmetry of C is preserved.
    """
    n = len(f)
    if n != len(c):
        raise ValueError("F and C sizes differ")
    return _freeze(_derivation(_array(f, (n, n), "F"), _array(c, (n,) * 3, "C")), list)


def _cyclic(t):
    """t[i, j, k, ..] + t[j, k, i, ..] + t[k, i, j, ..]."""
    out = {}
    for (i, j, k, *rest), v in t.nums:  # read at [i, j, k, ..], [k, i, j, ..] and [j, k, i, ..]
        for key in ((i, j, k, *rest), (k, i, j, *rest), (j, k, i, *rest)):
            out[key] = out.get(key, 0) + v
    return _tensor(t.dim, t.rank, out, t.den)


def _max_abs(*ts, keep=lambda idx: True):
    """Largest magnitude of the tensors' entries whose index passes keep, as one Fraction (0 for none)."""
    best = 0, 1
    for t in ts:
        num = max((abs(v) for idx, v in t.nums if keep(idx)), default=0)
        if num * best[1] > best[0] * t.den:
            best = num, t.den
    return Fraction(*best)


# ---------------------------------------------------------------------------
# rotation spans
# ---------------------------------------------------------------------------


def _span_closure(seeds):
    """Deterministic basis of the Lie closure of the seed rotation matrices, as a tuple."""
    basis, ech = [], {}

    def add(m):
        # membership and the echelon rows do not change when m is scaled
        row, _ = _eliminate(ech, _dense(m))
        if not any(row):
            return False
        basis.append(m)
        _echelon([row], ech)
        return True

    for s in seeds:
        add(s)
    changed = True
    while changed:
        # [a, a] = 0, and [b, a] = -[a, b] is in the span once [a, b] is
        snapshot = list(basis)
        changed = any([add(_contract(a, b) - _contract(b, a))
                       for i, a in enumerate(snapshot) for b in snapshot[i + 1 :]])
    return tuple(basis)


def _images(sigmas, hats, z0):
    """[((0, z0 + i), sigma_i)] then [((z0 + i, z0 + j), hat_ij)] for i < j, in row
    order: each image keyed by the table slot of [e_0, Z_i] or [Z_i, Z_j], Z_i at z0 + i."""
    n = sigmas.dim
    return [*(((0, z0 + i), m) for (i,), m in _blocks(sigmas, [(i,) for i in range(n)])),
            *(((z0 + i, z0 + j), m) for (i, j), m in _blocks(hats, itertools.combinations(range(n), 2)))]


def _nondeg_rotations(ansatz):
    """Rotation images sigma_i of the Z_i, s_hat_ij of the pairs (keyed as in _images), and their span."""
    q = ansatz._carriers
    # action matrix of the element with coefficients R[i]: 2 R_i eta
    sigmas, hats = (_eta(q[k], ansatz.aleph, -1).scale(2) for k in ("R", "Scurv"))
    images = _images(sigmas, hats, 1)
    return sigmas, images, _span_closure([*(m for _, m in images), *q["h_basis"]])


def _deg_rotations(ansatz):
    """Rotation images sigma_i = R_i, n_hat_ij = 2 N_ij and y_hat = 2 Y of [U, V], keyed as in
    _images, and their span."""
    q = ansatz._carriers
    images = [*_images(q["R"], q["N"].scale(2), 2), ((0, 1), q["Y"].scale(2))]
    return q["R"], images, _span_closure([m for _, m in images])


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
    """The named field as an n x .. x n Tensor, symmetries checked."""
    rank, *pairs = _FIELDS[name]
    t = _array(getattr(ansatz, name), (ansatz.n,) * rank, name)
    for i, j in pairs:
        if _antisymmetry_violations(dict(t.nums), i, j):
            raise ValueError(f"{name} must be antisymmetric in slots {i} and {j}")
    return t


def _check_n(n):
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, not {n!r}")
    return n


def _nonzero_lam(lam):
    lam = _rational(lam, "lambda")
    if lam == 0:
        raise ValueError("lam must be nonzero")
    return lam


@_frozen_fields
@_frozen
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
        if any(_antisymmetry_violations(dict(_eta(m, self.aleph, 0).nums), 0, 1) for m in hb):
            raise ValueError("h_basis matrices must be eta-antisymmetric")
        _store(self, dict(fields, h_basis=hb), lam=lam)

    # (sigmas, images, span basis), cached on first read; neither it nor
    # _carriers, the Tensor of each array field that _store sets, is a field
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


@_frozen_fields
@_frozen
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
        for name in ("h", "S3"):
            bad = next((idx for idx, _ in fields[name].nums if idx[-1] not in occ), None)
            if bad:
                where = "".join(f"[{i}]" for i in bad)
                raise ValueError(f"{name}{where} references the absent null boost {bad[-1]}")
        _store(self, fields, lam=lam, occupancy=occ)

    # (sigmas, images, span basis), cached; like _carriers, not a field
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


# the power of the scale t (see _at_scale) of each degenerate field; the others keep their values
_DEG_POWERS = {"F": 1, "aleph2": -1, "h": 2, "A": 2, "R": 1, "S3": 1}


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
    return _deg_at(ansatz.n, lam, ansatz.occupancy, ansatz._carriers, t)


def _deg_at(n, lam, occ, fields, t):
    """DegenerateAnsatz at lam of the carriers in fields, each times t to its _DEG_POWERS."""
    scaled = {k: fields[k].scale(t**p) for k, p in _DEG_POWERS.items()} if t != 1 else {}
    return DegenerateAnsatz(n=n, lam=lam, occupancy=occ, **{**fields, **scaled})


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _part(t, place):
    """(entries, den): t's numerators over t.den, each at the table index place(*index)."""
    return {place(*idx): v for idx, v in t.nums}, t.den


def assemble_nondegenerate(ansatz):
    """The bracket table on (V, Z_i, rotations) read off the ansatz."""
    _, images, rot = ansatz._rotations
    n, k, aleph = ansatz.n, len(rot), ansatz.aleph
    f, c = (ansatz._carriers[name] for name in ("F", "C"))
    labels = ["V"] + [f"Z{i+1}" for i in range(n)] + [f"M{p+1}" for p in range(k)]
    lam, lam_den = ansatz.lam.as_integer_ratio()
    parts = [
        # [V, Z_i] = lam Z_i + (F eta)_ij Z_j + sigma_i (rotation parts last)
        ({(0, 1 + i, 1 + i): lam for i in range(n)}, lam_den),
        _part(_eta(f, aleph, 1), lambda i, j: (0, 1 + i, 1 + j)),
        # [Z_i, Z_j] = aleph F_ij V + (C eta)_ijm Z_m + s_hat_ij
        _part(f.scale(aleph), lambda i, j: (1 + i, 1 + j, 0)),
        _part(_eta(c, aleph, 2), lambda i, j, m: (1 + i, 1 + j, 1 + m)),
        *lie_algebra._rotation_brackets(rot, 1 + n, [(range(1, 1 + n), range(n))], images)[0],
    ]
    return lie_algebra._algebra(parts, labels)


def assemble_degenerate(ansatz):
    """The bracket table on (U, V, Z_i, boosts, rotations).

    The boost part of the U-V curvature is pinned to -2 lam W on the
    occupied directions; unoccupied components of W survive only in the
    tangent part, which is what makes them inconsistent.
    """
    _, images, rot = ansatz._rotations
    n = ansatz.n
    occ = list(ansatz.occupancy)
    absent = [i for i in range(n) if i not in occ]
    if moved := _moved_boost(rot, occ, absent):
        raise ValueError("rotation span moves null boost {} onto the absent direction {}".format(*moved))
    nb, k = len(occ), len(rot)
    labels = ["U", "V", *(f"Z{i+1}" for i in range(n)), *(f"Zb{a+1}" for a in occ),
              *(f"M{p+1}" for p in range(k))]
    q = ansatz._carriers
    w, f, al, c, h, s3 = (q[name] for name in ("W", "F", "aleph2", "C", "h", "S3"))
    # table position of the null boost Zb_a; h and S3 vanish on the absent ones
    zb = {a: 2 + n + p for p, a in enumerate(occ)}
    lam, lam_den = ansatz.lam.as_integer_ratio()
    parts = [
        # [U, V] = lam V + W^k Z_k - 2 lam W_a Zb_a + Y-rotation (rotation parts last)
        ({(0, 1, 1): lam, **{(0, 2 + i, 2 + i): lam for i in range(n)}}, lam_den),
        _part(w, lambda i: (0, 1, 2 + i)),
        ({(0, 1, zb[a]): -2 * lam * v for (a,), v in w.nums if a in zb}, lam_den * w.den),
        # [U, Z_i] = lam Z_i - W_i U + F_ij Z_j + h_ia Zb_a + sigma_i
        _part(-w, lambda i: (0, 2 + i, 0)),
        _part(f, lambda i, j: (0, 2 + i, 2 + j)),
        _part(h, lambda i, a: (0, 2 + i, zb[a])),
        # [V, Z_i] = W_i V + aleph2_i^j Z_j
        _part(w, lambda i: (1, 2 + i, 1)),
        _part(al, lambda i, j: (1, 2 + i, 2 + j)),
        # [Z_i, Z_j] = aleph2_ij U + F_ij V + C_ijm Z_m + S3_ija Zb_a + n_hat_ij
        _part(al, lambda i, j: (2 + i, 2 + j, 0)),
        _part(f, lambda i, j: (2 + i, 2 + j, 1)),
        _part(c, lambda i, j, m: (2 + i, 2 + j, 2 + m)),
        _part(s3, lambda i, j, a: (2 + i, 2 + j, zb[a])),
        # canonical boost relations [U, Zb_a] = Z_a, [Z_a, Zb_a] = -V
        ({**{(0, zb[a], 2 + a): 1 for a in occ}, **{(2 + a, zb[a], 1): -1 for a in occ}}, 1),
        *lie_algebra._rotation_brackets(rot, 2 + n + nb, [(range(2, 2 + n), range(n)),
                                                          (list(zb.values()), occ)], images)[0],
    ]
    return lie_algebra._algebra(parts, labels)


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
    return next(((a, i) for m in rot for e in [dict(m.nums)]
                 for a in occ for i in absent if (i, a) in e), None)


def _equivariance(rot, sigmas, *invariants):
    """The arrays that vanish when the span fixes the invariant all-lower
    arrays and acts equivariantly on the rotation-valued map i -> sigmas[i]."""
    for omega in rot:
        # sigmas @ omega - omega @ sigmas + einsum("mi,mab->iab", omega, sigmas)
        wt = _perm(omega, 1, 0)
        yield _contract(sigmas, omega) - _derivation(omega, sigmas, (1,)) + _derivation(wt, sigmas, (0,))
        yield from (_derivation(wt, t) for t in invariants)


def _verify_nondeg(ansatz):
    sigmas, _, rot = ansatz._rotations
    lam, aleph = ansatz.lam, ansatz.aleph
    f, c, r, s = (ansatz._carriers[k] for k in _NONDEG_ARRAYS)
    # lowered rotation coefficients R_ijk = eta_jm eta_kn R[i][m][n]
    r_low = _eta(r, aleph, 1, 2)
    return {
        "F": _max_abs(f),
        "C_from_R": _max_abs(_sum((c.scale(lam / 2), _perm(r_low, 1, 0, 2)), (r_low,))),
        "S_from_CR": _max_abs(s.scale(2 * lam) - _contract(_eta(c, aleph, 2), r)),
        "rotation_equivariance": _max_abs(*_equivariance(rot, sigmas, f, c)),
    }


def _verify_deg(work):
    """Residual table of degenerate data already scaled to lam = 1."""
    sigmas, _, rot = work._rotations
    occ = set(work.occupancy)
    w, f, al, c, h, a, y, r, s3, nn = (work._carriers[k] for k in _DEG_ARRAYS)
    fpd = f + _eye(work.n)
    dfc = _derivation(f, c)
    # the contractions einsum("jkl,ilm->ijkm", c, x) below are read as
    # [j, k, i, m]: the cyclic sum over the first three slots is the same
    occupied = lambda idx: not occ.isdisjoint(idx)
    return {
        "W": _max_abs(w),
        "aleph2": _max_abs(al),
        "uv_rotation": _max_abs(y),
        "h_split": _max_abs(h - _sum((a, _perm(a, 1, 0)), (f,)).scale(_HALF)),
        "unoccupied_F": _max_abs(f, keep=occ.isdisjoint),
        "occupied_C": _max_abs(c, keep=occupied),
        "occupied_S_R": _max_abs(s3 - r, keep=lambda idx: idx[1] in occ),
        "occupied_N": _max_abs(nn, keep=occupied),
        "occupied_R": _max_abs(r, keep=occupied),
        "F_C_kernel": _max_abs(_contract(f, c), keep=lambda idx: idx[0] in occ),
        "S3_total_antisymmetry": _max_abs(s3 + _perm(s3, 0, 2, 1)),
        "S3_from_FC": _max_abs(s3.scale(3) - dfc),
        "zz_boost": _max_abs(_contract(c, h) - _derivation(fpd, s3, (0, 1))),
        "zz_rotation": _max_abs(_contract(c, r).scale(_HALF) - _derivation(fpd, nn, (0, 1))),
        "zz_vector": _max_abs(_sum((s3, r), (_perm(r, 1, 0, 2), dfc, c))),
        "cyclic_CS": _max_abs(_cyclic(_contract(c, s3, 1))),
        "cyclic_CN": _max_abs(_cyclic(_contract(c, nn, 1))),
        "cyclic_CC_N": _max_abs(_cyclic(_contract(c, c, 1) + nn.scale(2))),
        "rotation_equivariance": max(_max_abs(*_equivariance(rot, sigmas, f, h, c, s3, nn)),
                                     _max_abs(*rot, keep=lambda i: i[0] not in occ and i[1] in occ)),
    }


# ---------------------------------------------------------------------------
# reduction reports and the two normalizations
# ---------------------------------------------------------------------------


@_frozen
class ReductionReport:
    verdict: str  # symmetric_space | plane_wave | inconsistent
    residuals: dict
    lambda_scale: Fraction
    redefinitions: tuple = ()  # (name, new-basis-in-old-basis matrix)
    plane_wave: PlaneWaveData | None = None
    failing_identity: tuple | None = None
    checks: dict = {}  # copied per instance

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "residuals": {k: format_scalar(v) for k, v in self.residuals.items()},
            "lambda_scale": str(self.lambda_scale),
            "redefinitions": [{"name": name, "matrix": _fmt(mat)} for name, mat in self.redefinitions],
            "checks": {k: format_scalar(v) for k, v in self.checks.items()},
        }
        out["plane_wave"] = self.plane_wave.to_json() if self.plane_wave else None
        out["failing_identity"] = list(self.failing_identity) if self.failing_identity else None
        return out


def _jacobi_failure(algebra, residuals, lambda_scale):
    """The inconsistent report naming the worst Jacobi triple of the
    assembled table, or None when its residual vanishes exactly."""
    entries, worst = lie_algebra.jacobi_residual(algebra)
    if worst == 0:
        return None
    return ReductionReport("inconsistent", residuals, lambda_scale, checks={"jacobi_residual": worst},
                           failing_identity=lie_algebra._first_worst_triple(algebra, entries, worst))


def _brackets(f, new_in_old, left, right):
    """[X_a, X_b] in old coordinates for a in left and b in right, where f
    holds f_ab^c and the new generators X_a are the columns of new_in_old."""
    # each slot of f maps through the rows of new_in_old^T it keeps
    rows = lambda keep: _tensor(f.dim, 2, {(x, m): v for (m, x), v in new_in_old.nums if x in keep},
                                new_in_old.den)
    return _map_slot(_map_slot(f, (0,), rows(left), f.valence), (1,), rows(right), f.valence)


def _bracket_pattern(f, new_in_old, gens, lam, m0):
    """Whether, over the new generators X_x for x in gens, every
    [e_0, X] = lam X, every [X, Y] lies in the span of e_m0, e_m0+1, ..,
    and every [X, Y] = 0, read on the brackets in old coordinates.

    new_in_old = I + N with N @ N = 0 and N zero on the columns 0 and
    m0.., so new coordinates are (I - N) times old ones, and a vector on
    e_m0.. has the same coordinates in both bases.
    """
    u = _brackets(f, new_in_old, [0, *gens], gens)
    row0 = Tensor._sparse(f.dim, f.valence, {i: v for i, v in u.nums if i[0] == 0}, EXACT, u.den)
    cols = {(0, x, m): v for (m, x), v in new_in_old.nums if x in gens}
    eigen = row0 == Tensor._sparse(f.dim, f.valence, cols, EXACT, new_in_old.den).scale(lam)
    pairs = [i for i, _ in u.nums if i[0] != 0]
    return eigen, all(i[2] >= m0 for i in pairs), not pairs


def _failing_check(checks, keys):
    """(first of keys whose check reads false,), or None when all hold."""
    return next(((k,) for k in keys if not checks[k]), None)


def _rotation_images(algebra, gens, m0, scale=1):
    """I plus, in each column x of gens, the rotation part of [e_0, e_x] times scale."""
    images = {(m, x): v * scale for x in gens for m, v in algebra.bracket(0, x).items() if m >= m0}
    return _eye(algebra.dim) + _tensor(algebra.dim, 2, images)


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
    m0 = 1 + ansatz.n
    # the rotation parts of [V, Z_i], which the assembly solved in the span
    new_in_old = _rotation_images(algebra, range(1, m0), m0, 1 / ansatz.lam)
    eigen_ok, closes, yy_vanishes = _bracket_pattern(algebra.f, new_in_old, range(1, m0), ansatz.lam, m0)
    checks = {"eigen_brackets": eigen_ok, "yy_in_rotation_span": closes, "yy_vanishes": yy_vanishes}
    failing = _failing_check(checks, ("eigen_brackets", "yy_in_rotation_span"))
    redefinitions = (("Y_i = Z_i + R-element(i)/lam", _freeze(new_in_old)),)
    return ReductionReport("inconsistent" if failing else "symmetric_space", residuals, Fraction(1),
                           redefinitions, failing_identity=failing, checks=checks)


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
    m0 = 2 + n + len(occ)
    f, h = work._carriers["F"], work._carriers["h"]
    wz = [2 + i for i in absent]
    boost = {a: 2 + n + p for p, a in enumerate(occ)}

    # first redefinition: unhook unoccupied generators from the boosts
    b1 = _eye(algebra.dim) + _tensor(algebra.dim, 2, {
        (boost[a], 2 + i): -v for (i, a), v in f.nums if i in absent and a in boost}, f.den)

    # second redefinition: absorb the rotation images, the rotation parts
    # of [U, Z_I]; the new generators of both are the columns of b1 @ b2
    b2 = _rotation_images(algebra, wz, m0)

    ok, ww_closes, ww_zero = _bracket_pattern(algebra.f, _contract(b1, b2), wz, work.lam, m0)
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
    f_pw = f.scale(_HALF)
    h_pw = (h + f_pw + _contract(f_pw, f_pw)).scale(_HALF)
    pw = PlaneWaveData(n, _freeze(f_pw), _freeze(h_pw))

    # with the rotation images absorbed the table must be, on the nose, the
    # wave table on the generators present (U, V, X_i and the occupied Xb_a,
    # at 0..m0-1 here), both in old coordinates: the wave side carried by b2.
    # The wave brackets reach the absent Xb_I only through the boost block
    # 2H - F - F^2 = h of [U, X_i], whose absent columns the ansatz refuses.
    wave = _wave_table(f_pw, h_pw)
    present = {x: p for p, x in enumerate([*range(2 + n), *(2 + n + a for a in occ)])}
    on_present = {tuple(map(present.get, i)): v for i, v in wave.nums if present.keys() >= set(i)}
    want = Tensor._sparse(algebra.dim, wave.valence, on_present, EXACT, wave.den)
    want = _map_slot(want, (2,), b2, want.valence)
    checks["matches_wave_table"] = _brackets(algebra.f, b2, range(m0), range(m0)) == want
    # the wave table is a Lie algebra for every antisymmetric F and
    # symmetric H, which PlaneWaveData enforces: every bracket without U
    # lands on V, which only U moves, so only triples (U, x, y) can fail;
    # of those only J_{U X_i X_j}^V reads the boost block B, as
    # +-(B^T - B - 2F)_ij, and B - B^T = -2F
    checks["rebuilt_wave_jacobi"] = Fraction(0)

    failing = _failing_check(checks, ("unoccupied_eigen_brackets",
                                      "unoccupied_brackets_in_rotation_span",
                                      "matches_wave_table"))
    redefinitions = (("Y_I = Z_I - F_Ia Zb_a", _freeze(b1)), ("W_I = Y_I + R-element(I)", _freeze(b2)))
    return ReductionReport("inconsistent" if failing else "plane_wave", residuals, ansatz.lam,
                           redefinitions, pw, failing, checks)


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
    return _from_unit(n, lam, tuple(range(n)), f.scale(2), hh.scale(2) - _contract(f, f))


def _rand_fraction(rng, bound=2, den=3):
    return Fraction(rng.randint(-bound * den, bound * den), rng.randint(1, den))


def _epsilon_template(indices, kappa, n):
    """Rotation-coefficient seed R[i][m][k] = kappa * eps on a 3-subset.

    The images are the standard rotation generators of the subset's
    metric block, the unique equivariant family available at desk
    scale.
    """
    return _tensor(n, 3, {tuple(indices[i] for i in p): kappa * s for p, s in _LEVI_CIVITA.items()})


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
    r = _zeros(n, 3)
    if n >= 3 and rng.random() < 0.75:
        kappa = _rand_fraction(rng, bound=1, den=2)
        if n == 3:
            # eta twists the action for a Lorentzian block: raise the
            # last two slots so R keeps the upper-index convention R[i][m][n]
            r = _eta(_epsilon_template((0, 1, 2), kappa, n), aleph, 1, 2)
        else:
            # a Euclidean block for either sign
            r = _epsilon_template((n - 3, n - 2, n - 1), kappa, n)
    # dependent fields from the constraint relations
    r_low = _eta(r, aleph, 1, 2)
    c = (r_low - _perm(r_low, 1, 0, 2)).scale(2 / lam)
    s = _contract(_eta(c, aleph, 2), r).scale(1 / (2 * lam))
    out = NondegenerateAnsatz(n=n, lam=lam, aleph=aleph, F=_zeros(n, 2), C=c, R=r, Scurv=s)
    # the span basis is eta-antisymmetric and closed, so as h_basis it
    # keeps the span, which stays cached
    _store(out, {"h_basis": out._rotations[2]})
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

    f = {}
    for ai, a in enumerate(occ):
        for b in occ[ai + 1:]:
            v = _rand_fraction(rng)
            f[a, b], f[b, a] = v, -v

    r, c, nmat = _zeros(n, 3), _zeros(n, 3), _zeros(n, 4)
    if len(absent) == 3 and rng.random() < 0.75:
        kappa = _rand_fraction(rng, bound=1, den=2)
        r = _epsilon_template(absent, kappa, n)
        c = r - _perm(r, 1, 0, 2)
        nmat = _contract(c, r).scale(Fraction(1, 4))
    else:
        # with no rotation data the boost couplings of the unoccupied
        # sector are unconstrained
        for i in absent:
            for a in occ:
                v = _rand_fraction(rng)
                f[i, a], f[a, i] = v, -v

    a_mat = {}
    for ai, a in enumerate(occ):
        for b in occ[ai:]:
            v = _rand_fraction(rng)
            a_mat[a, b] = a_mat[b, a] = v
    for i in absent:
        for a in occ:
            a_mat[i, a] = a_mat[a, i] = f.get((a, i), 0) * _HALF

    return _from_unit(n, lam, occ, _tensor(n, 2, f), _tensor(n, 2, a_mat), C=c, R=r, N=nmat)


def _from_unit(n, lam, occ, f, a_mat, **given):
    """The DegenerateAnsatz at eigenvalue lam of unit-eigenvalue data: F = f, A = a_mat,
    h = (A + A^T - F) / 2, W, aleph2, Y and S3 zero, and C, R and N zero unless given."""
    lam, h = _nonzero_lam(lam), (a_mat + _perm(a_mat, 1, 0) - f).scale(_HALF)
    zeros = {k: _zeros(n, _FIELDS[k][0]) for k in set(_DEG_ARRAYS) - {*given, "F", "A", "h"}}
    return _deg_at(n, lam, occ, dict(zeros, F=f, A=a_mat, h=h, **given), lam)


def ansatz_from_json(data):
    case = data.get("case")
    if case == "nondeg":
        return NondegenerateAnsatz.from_json(data)
    if case == "deg":
        return DegenerateAnsatz.from_json(data)
    raise ValueError("ansatz JSON must carry case 'nondeg' or 'deg'")
