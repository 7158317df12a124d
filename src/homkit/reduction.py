"""Normalization of bracket tables built from vector-plus-3-form data.

Two families of structure-constant ansatze are handled, split by the
causal type of the defining vector:

* non-degenerate: basis (V, Z_1..Z_n) plus rotations of the transverse
  metric eta = diag(-aleph, 1, .., 1);
* degenerate: basis (U, V, Z_1..Z_n) plus a chosen subset of null
  boosts and whatever transverse rotations the curvature data reaches.

Everything is exact rational: "forced to vanish" always means an exact
zero, and a Jacobi residual of zero is a proof.  The two reduce
operations mechanize the generator redefinitions that bring a
consistent table to symmetric-space or plane-wave normal form, and
verify the expected bracket pattern exactly after the change of basis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    EXACT,
    format_scalar,
    mat_commutator,
    mat_identity,
    mat_inverse,
    row_reduce,
    solve_in_span,
    solve_linear,
)
from .lie_algebra import LieAlgebra, change_basis, jacobi_residual, worst_jacobi_triple
from .plane_wave import PlaneWaveData, pw_isometry_algebra

ZERO = Fraction(0)


def _frac_rows(rows, n, name):
    out = [[Fraction(x) for x in row] for row in rows]
    if len(out) != n or any(len(r) != n for r in out):
        raise ValueError(f"{name} must be {n} x {n}")
    return out


def _check_antisym(m, name):
    n = len(m)
    for i in range(n):
        for j in range(n):
            if m[i][j] != -m[j][i]:
                raise ValueError(f"{name} must be antisymmetric")


def _rank3(data, n, name):
    out = [[[Fraction(x) for x in row] for row in plane] for plane in data]
    if len(out) != n or any(len(p) != n for p in out) or any(
        len(r) != n for p in out for r in p
    ):
        raise ValueError(f"{name} must be n x n x n")
    return out


def _rank4(data, n, name):
    out = [[[[Fraction(x) for x in row] for row in p2] for p2 in p1] for p1 in data]
    if len(out) != n or any(
        len(p1) != n or any(len(p2) != n or any(len(r) != n for r in p2) for p2 in p1)
        for p1 in out
    ):
        raise ValueError(f"{name} must be n x n x n x n")
    return out


def _zeros2(n):
    return [[ZERO] * n for _ in range(n)]


def _zeros3(n):
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def _zeros4(n):
    return [[[[ZERO] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def _max_abs(values):
    worst = ZERO
    for v in values:
        a = abs(v)
        if a > worst:
            worst = a
    return worst


def eta_matrix(aleph, n):
    """Transverse metric diag(-aleph, 1, .., 1) of the non-degenerate split."""
    m = mat_identity(n, EXACT)
    m[0][0] = Fraction(-aleph)
    return m


def f_derivation(f, c):
    """Derivation of a 3-index array along an antisymmetric matrix.

    (delta_F C)_ijk = F_il C_ljk + F_jl C_ilk + F_kl C_ijl; total
    antisymmetry of C is preserved.
    """
    n = len(f)
    if len(c) != n:
        raise ValueError("F and C sizes differ")
    out = _zeros3(n)
    for i, j, k in itertools.product(range(n), repeat=3):
        v = ZERO
        for l in range(n):
            v += f[i][l] * c[l][j][k] + f[j][l] * c[i][l][k] + f[k][l] * c[i][j][l]
        out[i][j][k] = v
    return out


def _deriv_action(omega, tensor, rank):
    """Rotation derivation on an all-lower r-index array; zero = invariant."""
    n = len(omega)
    def get(idx):
        v = tensor
        for i in idx:
            v = v[i]
        return v

    worst = ZERO
    for idx in itertools.product(range(n), repeat=rank):
        v = ZERO
        for s in range(rank):
            for m in range(n):
                jdx = list(idx)
                jdx[s] = m
                v += omega[m][idx[s]] * get(jdx)
        if abs(v) > worst:
            worst = abs(v)
    return worst


# ---------------------------------------------------------------------------
# rotation spans
# ---------------------------------------------------------------------------


def _span_closure(seeds, n):
    """Deterministic basis of the Lie closure of the seed rotation matrices."""
    basis = []
    reduced = []

    def in_span(m):
        flat = [m[i][j] for i in range(n) for j in range(n)]
        if not reduced:
            return all(x == 0 for x in flat)
        rows, piv = reduced
        return solve_in_span(rows, piv, flat) is not None

    def add(m):
        if in_span(m):
            return False
        basis.append([list(r) for r in m])
        flats = [[b[i][j] for i in range(n) for j in range(n)] for b in basis]
        reduced[:] = []
        rows, piv = row_reduce(flats)
        reduced.append(rows)
        reduced.append(piv)
        return True

    for s in seeds:
        add(s)
    changed = True
    while changed:
        changed = False
        for a in list(basis):
            for b in list(basis):
                if add(mat_commutator(a, b)):
                    changed = True
    return basis


def _expand_in(basis, m, n):
    """Exact coefficients of m against the rotation basis, or None."""
    if not basis:
        return [] if all(x == 0 for row in m for x in row) else None
    cols = [[basis[p][i][j] for p in range(len(basis))] for i in range(n) for j in range(n)]
    return solve_linear(cols, [m[i][j] for i in range(n) for j in range(n)])


# ---------------------------------------------------------------------------
# ansatz types
# ---------------------------------------------------------------------------


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
        n = self.n
        lam = Fraction(self.lam)
        if lam == 0:
            raise ValueError("lam must be nonzero")
        if self.aleph not in (1, -1):
            raise ValueError("aleph must be +1 or -1")
        if (lam > 0) != (self.aleph > 0):
            raise ValueError("sign of lam must equal aleph")
        f = _frac_rows(self.F, n, "F")
        _check_antisym(f, "F")
        c = _rank3(self.C, n, "C")
        for i, j, k in itertools.product(range(n), repeat=3):
            if c[i][j][k] != -c[j][i][k] or c[i][j][k] != -c[i][k][j]:
                raise ValueError("C must be totally antisymmetric")
        r = _rank3(self.R, n, "R")
        for i, m, nn in itertools.product(range(n), repeat=3):
            if r[i][m][nn] != -r[i][nn][m]:
                raise ValueError("R must be antisymmetric in its last two slots")
        s = _rank4(self.Scurv, n, "Scurv")
        for i, j, m, nn in itertools.product(range(n), repeat=4):
            if s[i][j][m][nn] != -s[j][i][m][nn] or s[i][j][m][nn] != -s[i][j][nn][m]:
                raise ValueError("Scurv must be antisymmetric in both index pairs")
        eta = eta_matrix(self.aleph, n)
        hb = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in self.h_basis)
        for m in hb:
            _so_eta_check(m, eta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "F", tuple(tuple(row) for row in f))
        object.__setattr__(self, "C", _freeze3(c))
        object.__setattr__(self, "R", _freeze3(r))
        object.__setattr__(self, "Scurv", _freeze4(s))
        object.__setattr__(self, "h_basis", hb)

    @property
    def eta(self):
        return eta_matrix(self.aleph, self.n)

    def to_json(self):
        return {
            "case": "nondeg",
            "n": self.n,
            "lambda": str(self.lam),
            "aleph": self.aleph,
            "F": _fmt2(self.F),
            "C": _fmt3(self.C),
            "R": _fmt3(self.R),
            "Scurv": _fmt4(self.Scurv),
            "h_basis": [_fmt2(m) for m in self.h_basis],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            n=data["n"],
            lam=Fraction(data["lambda"]),
            aleph=data["aleph"],
            F=data["F"],
            C=data["C"],
            R=data["R"],
            Scurv=data["Scurv"],
            h_basis=tuple(data.get("h_basis", ())),
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
        n = self.n
        lam = Fraction(self.lam)
        if lam == 0:
            raise ValueError("lam must be nonzero")
        occ = tuple(sorted(set(self.occupancy)))
        if any(not 0 <= a < n for a in occ):
            raise ValueError("occupancy indices out of range")
        w = tuple(Fraction(x) for x in self.W)
        if len(w) != n:
            raise ValueError("W must have n components")
        f = _frac_rows(self.F, n, "F")
        _check_antisym(f, "F")
        al = _frac_rows(self.aleph2, n, "aleph2")
        _check_antisym(al, "aleph2")
        c = _rank3(self.C, n, "C")
        for i, j, k in itertools.product(range(n), repeat=3):
            if c[i][j][k] != -c[j][i][k] or c[i][j][k] != -c[i][k][j]:
                raise ValueError("C must be totally antisymmetric")
        h = _frac_rows(self.h, n, "h")
        a = _frac_rows(self.A, n, "A")
        y = _frac_rows(self.Y, n, "Y")
        _check_antisym(y, "Y")
        r = _rank3(self.R, n, "R")
        for i, m, nn in itertools.product(range(n), repeat=3):
            if r[i][m][nn] != -r[i][nn][m]:
                raise ValueError("R must be antisymmetric in its last two slots")
        s3 = _rank3(self.S3, n, "S3")
        for i, j, k in itertools.product(range(n), repeat=3):
            if s3[i][j][k] != -s3[j][i][k]:
                raise ValueError("S3 must be antisymmetric in its first two slots")
        nn4 = _rank4(self.N, n, "N")
        for i, j, k, l in itertools.product(range(n), repeat=4):
            if nn4[i][j][k][l] != -nn4[j][i][k][l] or nn4[i][j][k][l] != -nn4[i][j][l][k]:
                raise ValueError("N must be antisymmetric in both index pairs")
        absent = [i for i in range(n) if i not in occ]
        for i in range(n):
            for bad in absent:
                if h[i][bad] != 0:
                    raise ValueError(
                        f"h[{i}][{bad}] references the absent null boost {bad}"
                    )
        for i, j in itertools.product(range(n), repeat=2):
            for bad in absent:
                if s3[i][j][bad] != 0:
                    raise ValueError(
                        f"S3[{i}][{j}][{bad}] references the absent null boost {bad}"
                    )
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "occupancy", occ)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "F", tuple(tuple(row) for row in f))
        object.__setattr__(self, "aleph2", tuple(tuple(row) for row in al))
        object.__setattr__(self, "C", _freeze3(c))
        object.__setattr__(self, "h", tuple(tuple(row) for row in h))
        object.__setattr__(self, "A", tuple(tuple(row) for row in a))
        object.__setattr__(self, "Y", tuple(tuple(row) for row in y))
        object.__setattr__(self, "R", _freeze3(r))
        object.__setattr__(self, "S3", _freeze3(s3))
        object.__setattr__(self, "N", _freeze4(nn4))

    def rescaled(self):
        """The same data with the eigenvalue scaled to one.

        Scaling U by 1/lam, V by lam and the null boosts by lam maps
        (W, F, aleph2, C, h, A, Y, R, S3, N) to
        (W, F/lam, lam*aleph2, C, h/lam^2, A/lam^2, Y, R/lam, S3/lam, N).
        """
        lam = self.lam
        if lam == 1:
            return self
        n = self.n
        return DegenerateAnsatz(
            n=n,
            lam=Fraction(1),
            occupancy=self.occupancy,
            W=self.W,
            F=[[x / lam for x in row] for row in self.F],
            aleph2=[[x * lam for x in row] for row in self.aleph2],
            C=self.C,
            h=[[x / lam ** 2 for x in row] for row in self.h],
            A=[[x / lam ** 2 for x in row] for row in self.A],
            Y=self.Y,
            R=[[[x / lam for x in row] for row in p] for p in self.R],
            S3=[[[x / lam for x in row] for row in p] for p in self.S3],
            N=self.N,
        )

    def to_json(self):
        return {
            "case": "deg",
            "n": self.n,
            "lambda": str(self.lam),
            "occupancy": list(self.occupancy),
            "W": [str(x) for x in self.W],
            "F": _fmt2(self.F),
            "aleph2": _fmt2(self.aleph2),
            "C": _fmt3(self.C),
            "h": _fmt2(self.h),
            "A": _fmt2(self.A),
            "Y": _fmt2(self.Y),
            "R": _fmt3(self.R),
            "S3": _fmt3(self.S3),
            "N": _fmt4(self.N),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            n=data["n"],
            lam=Fraction(data["lambda"]),
            occupancy=tuple(data["occupancy"]),
            W=tuple(Fraction(x) for x in data["W"]),
            F=data["F"],
            aleph2=data["aleph2"],
            C=data["C"],
            h=data["h"],
            A=data["A"],
            Y=data["Y"],
            R=data["R"],
            S3=data["S3"],
            N=data["N"],
        )


def _freeze3(t):
    return tuple(tuple(tuple(row) for row in p) for p in t)


def _freeze4(t):
    return tuple(tuple(tuple(tuple(r) for r in p2) for p2 in p1) for p1 in t)


def _fmt2(m):
    return [[format_scalar(x) for x in row] for row in m]


def _fmt3(t):
    return [[[format_scalar(x) for x in row] for row in p] for p in t]


def _fmt4(t):
    return [[[[format_scalar(x) for x in r] for r in p2] for p2 in p1] for p1 in t]


def _so_eta_check(m, eta):
    n = len(eta)
    for i in range(n):
        for j in range(n):
            s = ZERO
            for k in range(n):
                s += eta[i][k] * m[k][j] + eta[j][k] * m[k][i]
            if s != 0:
                raise ValueError("rotation matrix is not eta-antisymmetric")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _rotation_seeds_nondeg(ansatz):
    n = ansatz.n
    eta = ansatz.eta
    sigmas = []
    for i in range(n):
        # action matrix of the element with coefficients R[i]: 2 R_i eta
        sigmas.append(
            [[2 * sum(ansatz.R[i][m][k] * eta[k][j] for k in range(n)) for j in range(n)]
             for m in range(n)]
        )
    s_hats = {}
    for i in range(n):
        for j in range(i + 1, n):
            s_hats[(i, j)] = [
                [2 * sum(ansatz.Scurv[i][j][m][k] * eta[k][l] for k in range(n))
                 for l in range(n)]
                for m in range(n)
            ]
    return sigmas, s_hats


def assemble_nondegenerate(ansatz):
    """The bracket table on (V, Z_i, rotations) read off the ansatz."""
    n = ansatz.n
    lam = ansatz.lam
    eta = ansatz.eta
    sigmas, s_hats = _rotation_seeds_nondeg(ansatz)
    seeds = list(sigmas) + list(s_hats.values()) + [list(map(list, m)) for m in ansatz.h_basis]
    rot = _span_closure(seeds, n)
    k = len(rot)
    dim = 1 + n + k
    labels = ["V"] + [f"Z{i+1}" for i in range(n)] + [f"M{p+1}" for p in range(k)]

    def rot_coeffs(m, where):
        coeffs = _expand_in(rot, m, n)
        if coeffs is None:
            raise ValueError(f"rotation data outside the closed span at {where}")
        return coeffs

    brackets = {}
    f_up = [[sum(ansatz.F[i][l] * eta[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    c_up = [
        [[sum(ansatz.C[i][j][l] * eta[l][m] for l in range(n)) for m in range(n)] for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        row = {1 + i: lam}
        for j in range(n):
            if f_up[i][j] != 0:
                row[1 + j] = row.get(1 + j, ZERO) + f_up[i][j]
        for p, cf in enumerate(rot_coeffs(sigmas[i], f"[V,Z{i+1}]")):
            if cf != 0:
                row[1 + n + p] = cf
        brackets[(0, 1 + i)] = {c: v for c, v in row.items() if v != 0}
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            v = ansatz.aleph * ansatz.F[i][j]
            if v != 0:
                row[0] = v
            for m in range(n):
                if c_up[i][j][m] != 0:
                    row[1 + m] = c_up[i][j][m]
            for p, cf in enumerate(rot_coeffs(s_hats[(i, j)], f"[Z{i+1},Z{j+1}]")):
                if cf != 0:
                    row[1 + n + p] = cf
            if row:
                brackets[(1 + i, 1 + j)] = row
    for p in range(k):
        for i in range(n):
            row = {}
            for m in range(n):
                if rot[p][m][i] != 0:
                    row[1 + m] = -rot[p][m][i]  # key order (Z_i, M_p)
            if row:
                brackets[(1 + i, 1 + n + p)] = row
        for q in range(p + 1, k):
            comm = mat_commutator(rot[p], rot[q])
            row = {}
            for r, cf in enumerate(rot_coeffs(comm, f"[M{p+1},M{q+1}]")):
                if cf != 0:
                    row[1 + n + r] = cf
            if row:
                brackets[(1 + n + p, 1 + n + q)] = row
    algebra = LieAlgebra.from_brackets(dim, brackets, labels=labels, tag=EXACT)
    return algebra, rot


def _rotation_seeds_deg(ansatz):
    n = ansatz.n
    sigmas = [[[ansatz.R[i][j][m] for m in range(n)] for j in range(n)] for i in range(n)]
    n_hats = {}
    for i in range(n):
        for j in range(i + 1, n):
            n_hats[(i, j)] = [[2 * ansatz.N[i][j][k][l] for l in range(n)] for k in range(n)]
    y_hat = [[2 * ansatz.Y[k][l] for l in range(n)] for k in range(n)]
    return sigmas, n_hats, y_hat


def assemble_degenerate(ansatz):
    """The bracket table on (U, V, Z_i, boosts, rotations).

    The boost part of the U-V curvature is pinned to -2 lam W on the
    occupied directions; unoccupied components of W survive only in the
    tangent part, which is what makes them inconsistent.
    """
    n = ansatz.n
    lam = ansatz.lam
    occ = ansatz.occupancy
    sigmas, n_hats, y_hat = _rotation_seeds_deg(ansatz)
    seeds = list(sigmas) + list(n_hats.values()) + [y_hat]
    rot = _span_closure(seeds, n)
    k = len(rot)
    for omega in rot:
        for a in occ:
            for m in range(n):
                if m not in occ and omega[m][a] != 0:
                    raise ValueError(
                        f"rotation span moves null boost {a} onto the absent direction {m}"
                    )
    boosts = list(occ)
    nb = len(boosts)
    dim = 2 + n + nb + k
    labels = (
        ["U", "V"]
        + [f"Z{i+1}" for i in range(n)]
        + [f"Zb{a+1}" for a in boosts]
        + [f"M{p+1}" for p in range(k)]
    )
    iz = lambda i: 2 + i
    ib = {a: 2 + n + boosts.index(a) for a in boosts}
    im = lambda p: 2 + n + nb + p

    def rot_coeffs(m, where):
        coeffs = _expand_in(rot, m, n)
        if coeffs is None:
            raise ValueError(f"rotation data outside the closed span at {where}")
        return coeffs

    brackets = {}
    # [U, V] = lam V + W^k Z_k - 2 lam W_a Zb_a + Y-rotation
    row = {1: lam}
    for kk in range(n):
        if ansatz.W[kk] != 0:
            row[iz(kk)] = ansatz.W[kk]
    for a in boosts:
        if ansatz.W[a] != 0:
            row[ib[a]] = -2 * lam * ansatz.W[a]
    for p, cf in enumerate(rot_coeffs(y_hat, "[U,V]")):
        if cf != 0:
            row[im(p)] = cf
    brackets[(0, 1)] = row
    # [U, Z_i]
    for i in range(n):
        row = {iz(i): lam}
        if ansatz.W[i] != 0:
            row[0] = -ansatz.W[i]
        for j in range(n):
            if ansatz.F[i][j] != 0:
                row[iz(j)] = row.get(iz(j), ZERO) + ansatz.F[i][j]
        for a in boosts:
            if ansatz.h[i][a] != 0:
                row[ib[a]] = ansatz.h[i][a]
        for p, cf in enumerate(rot_coeffs(sigmas[i], f"[U,Z{i+1}]")):
            if cf != 0:
                row[im(p)] = cf
        brackets[(0, iz(i))] = {c: v for c, v in row.items() if v != 0}
    # [V, Z_i] = W_i V + aleph2_i^j Z_j
    for i in range(n):
        row = {}
        if ansatz.W[i] != 0:
            row[1] = ansatz.W[i]
        for j in range(n):
            if ansatz.aleph2[i][j] != 0:
                row[iz(j)] = ansatz.aleph2[i][j]
        if row:
            brackets[(1, iz(i))] = row
    # [Z_i, Z_j]
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            if ansatz.aleph2[i][j] != 0:
                row[0] = ansatz.aleph2[i][j]
            if ansatz.F[i][j] != 0:
                row[1] = ansatz.F[i][j]
            for m in range(n):
                if ansatz.C[i][j][m] != 0:
                    row[iz(m)] = ansatz.C[i][j][m]
            for a in boosts:
                if ansatz.S3[i][j][a] != 0:
                    row[ib[a]] = ansatz.S3[i][j][a]
            for p, cf in enumerate(rot_coeffs(n_hats[(i, j)], f"[Z{i+1},Z{j+1}]")):
                if cf != 0:
                    row[im(p)] = cf
            if row:
                brackets[(iz(i), iz(j))] = row
    # canonical boost relations
    for a in boosts:
        brackets[(0, ib[a])] = {iz(a): Fraction(1)}
        brackets[(iz(a), ib[a])] = {1: Fraction(-1)}
    # rotations acting
    for p in range(k):
        for i in range(n):
            row = {}
            for m in range(n):
                if rot[p][m][i] != 0:
                    row[iz(m)] = -rot[p][m][i]
            if row:
                brackets[(iz(i), im(p))] = row
        for a in boosts:
            row = {}
            for m in boosts:
                if rot[p][m][a] != 0:
                    row[ib[m]] = -rot[p][m][a]
            if row:
                brackets[(ib[a], im(p))] = row
        for q in range(p + 1, k):
            comm = mat_commutator(rot[p], rot[q])
            row = {}
            for r, cf in enumerate(rot_coeffs(comm, f"[M{p+1},M{q+1}]")):
                if cf != 0:
                    row[im(r)] = cf
            if row:
                brackets[(im(p), im(q))] = row
    algebra = LieAlgebra.from_brackets(dim, brackets, labels=labels, tag=EXACT)
    return algebra, rot


def assemble_algebra(ansatz):
    """Explicit Lie algebra of either ansatz kind, with documented order.

    Basis order: tangent generators first ((V, Z_i) or (U, V, Z_i)),
    then the present null boosts in index order, then the rotation
    span in deterministic closure order.
    """
    if isinstance(ansatz, NondegenerateAnsatz):
        return assemble_nondegenerate(ansatz)[0]
    if isinstance(ansatz, DegenerateAnsatz):
        return assemble_degenerate(ansatz)[0]
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
        return _verify_deg(ansatz)
    raise TypeError("unknown ansatz type")


def _verify_nondeg(ansatz):
    n = ansatz.n
    lam = ansatz.lam
    eta = ansatz.eta
    res = {}
    res["F"] = _max_abs(x for row in ansatz.F for x in row)

    # lowered rotation coefficients R_ijk = eta_jm eta_kn R[i][m][n]
    r_low = [
        [
            [
                sum(eta[j][m] * eta[k][nn] * ansatz.R[i][m][nn] for m in range(n) for nn in range(n))
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    worst = ZERO
    for i, j, k in itertools.product(range(n), repeat=3):
        v = lam / 2 * ansatz.C[i][j][k] - (r_low[i][j][k] - r_low[j][i][k])
        worst = max(worst, abs(v))
    res["C_from_R"] = worst

    c_up = [
        [[sum(ansatz.C[i][j][l] * eta[l][m] for l in range(n)) for m in range(n)] for j in range(n)]
        for i in range(n)
    ]
    worst = ZERO
    for i, j, m, nn in itertools.product(range(n), repeat=4):
        v = 2 * lam * ansatz.Scurv[i][j][m][nn]
        for k in range(n):
            v -= c_up[i][j][k] * ansatz.R[k][m][nn]
        worst = max(worst, abs(v))
    res["S_from_CR"] = worst

    sigmas, s_hats = _rotation_seeds_nondeg(ansatz)
    seeds = list(sigmas) + list(s_hats.values()) + [list(map(list, m)) for m in ansatz.h_basis]
    rot = _span_closure(seeds, n)
    worst = ZERO
    for omega in rot:
        worst = max(worst, _deriv_action(omega, ansatz.F, 2))
        worst = max(worst, _deriv_action(omega, ansatz.C, 3))
        # action equivariance of the rotation-valued maps
        for i in range(n):
            need = mat_commutator(sigmas[i], omega)
            for m in range(n):
                if omega[m][i] == 0:
                    continue
                for a in range(n):
                    for b in range(n):
                        need[a][b] += omega[m][i] * sigmas[m][a][b]
            worst = max(worst, _max_abs(x for row in need for x in row))
    res["rotation_equivariance"] = worst
    return res


def _verify_deg(ansatz):
    work = ansatz.rescaled()
    n = work.n
    occ = set(work.occupancy)
    res = {}
    res["W"] = _max_abs(work.W)
    res["aleph2"] = _max_abs(x for row in work.aleph2 for x in row)
    res["uv_rotation"] = _max_abs(x for row in work.Y for x in row)

    worst = ZERO
    for i, j in itertools.product(range(n), repeat=2):
        v = work.h[i][j] - ((work.A[i][j] + work.A[j][i]) / 2 - work.F[i][j] / 2)
        worst = max(worst, abs(v))
    res["h_split"] = worst

    res["unoccupied_F"] = _max_abs(
        work.F[i][j]
        for i in range(n)
        for j in range(n)
        if i not in occ and j not in occ
    )

    res["occupied_C"] = _max_abs(
        work.C[i][j][k]
        for i, j, k in itertools.product(range(n), repeat=3)
        if i in occ or j in occ or k in occ
    )
    res["occupied_S_R"] = _max_abs(
        work.S3[i][a][j] - work.R[i][a][j]
        for i in range(n)
        for a in occ
        for j in range(n)
    )
    res["occupied_N"] = _max_abs(
        work.N[i][j][k][l]
        for i, j, k, l in itertools.product(range(n), repeat=4)
        if i in occ or j in occ or k in occ or l in occ
    )
    res["occupied_R"] = _max_abs(
        work.R[i][j][k]
        for i, j, k in itertools.product(range(n), repeat=3)
        if i in occ or j in occ or k in occ
    )

    worst = ZERO
    for a in occ:
        for j, k in itertools.product(range(n), repeat=2):
            v = sum(work.F[a][l] * work.C[l][j][k] for l in range(n))
            worst = max(worst, abs(v))
    res["F_C_kernel"] = worst

    worst = ZERO
    for i, j, k in itertools.product(range(n), repeat=3):
        worst = max(worst, abs(work.S3[i][j][k] + work.S3[i][k][j]))
    res["S3_total_antisymmetry"] = worst

    dfc = f_derivation(work.F, work.C)
    worst = ZERO
    for i, j, k in itertools.product(range(n), repeat=3):
        worst = max(worst, abs(3 * work.S3[i][j][k] - dfc[i][j][k]))
    res["S3_from_FC"] = worst

    fpd = [[work.F[i][j] + Fraction(int(i == j)) for j in range(n)] for i in range(n)]

    worst = ZERO
    for i, j, l in itertools.product(range(n), repeat=3):
        v = sum(work.C[i][j][k] * work.h[k][l] for k in range(n))
        v -= sum(fpd[i][k] * work.S3[k][j][l] for k in range(n))
        v -= sum(fpd[j][k] * work.S3[i][k][l] for k in range(n))
        worst = max(worst, abs(v))
    res["zz_boost"] = worst

    worst = ZERO
    for i, j, m, nn in itertools.product(range(n), repeat=4):
        v = sum(work.C[i][j][k] * work.R[k][m][nn] for k in range(n)) / 2
        v -= sum(fpd[i][k] * work.N[k][j][m][nn] for k in range(n))
        v -= sum(fpd[j][k] * work.N[i][k][m][nn] for k in range(n))
        worst = max(worst, abs(v))
    res["zz_rotation"] = worst

    worst = ZERO
    for i, j, k in itertools.product(range(n), repeat=3):
        v = work.S3[i][j][k] + work.R[i][j][k] - work.R[j][i][k] - dfc[i][j][k] - work.C[i][j][k]
        worst = max(worst, abs(v))
    res["zz_vector"] = worst

    def cyc(i, j, k):
        return ((i, j, k), (j, k, i), (k, i, j))

    worst1 = worst2 = worst3 = ZERO
    for i, j, k in itertools.product(range(n), repeat=3):
        for m in range(n):
            v = ZERO
            for (a, b, c) in cyc(i, j, k):
                v += sum(work.C[b][c][l] * work.S3[a][l][m] for l in range(n))
            worst1 = max(worst1, abs(v))
        for m, nn in itertools.product(range(n), repeat=2):
            v = ZERO
            for (a, b, c) in cyc(i, j, k):
                v += sum(work.C[b][c][l] * work.N[a][l][m][nn] for l in range(n))
            worst2 = max(worst2, abs(v))
        for m in range(n):
            v = ZERO
            for (a, b, c) in cyc(i, j, k):
                v += sum(work.C[b][c][l] * work.C[a][l][m] for l in range(n))
                v += 2 * work.N[b][c][a][m]
            worst3 = max(worst3, abs(v))
    res["cyclic_CS"] = worst1
    res["cyclic_CN"] = worst2
    res["cyclic_CC_N"] = worst3

    sigmas, n_hats, y_hat = _rotation_seeds_deg(work)
    seeds = list(sigmas) + list(n_hats.values()) + [y_hat]
    rot = _span_closure(seeds, n)
    worst = ZERO
    for omega in rot:
        for a in occ:
            for m in range(n):
                if m not in occ:
                    worst = max(worst, abs(omega[m][a]))
        worst = max(worst, _deriv_action(omega, work.F, 2))
        worst = max(worst, _deriv_action(omega, work.h, 2))
        worst = max(worst, _deriv_action(omega, work.C, 3))
        worst = max(worst, _deriv_action(omega, work.S3, 3))
        worst = max(worst, _deriv_action(omega, work.N, 4))
        for i in range(n):
            need = mat_commutator(sigmas[i], omega)
            for m in range(n):
                if omega[m][i] == 0:
                    continue
                for a in range(n):
                    for b in range(n):
                        need[a][b] += omega[m][i] * sigmas[m][a][b]
            worst = max(worst, _max_abs(x for row in need for x in row))
    res["rotation_equivariance"] = worst
    return res


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
                {"name": name, "matrix": _fmt2(mat)} for name, mat in self.redefinitions
            ],
            "checks": {k: (format_scalar(v) if isinstance(v, Fraction) else v)
                       for k, v in self.checks.items()},
        }
        out["plane_wave"] = self.plane_wave.to_json() if self.plane_wave else None
        out["failing_identity"] = list(self.failing_identity) if self.failing_identity else None
        return out


def _apply_new_generators(algebra, new_in_old, labels=None):
    p = mat_inverse([list(r) for r in new_in_old], EXACT)
    return change_basis(algebra, p, labels=labels)


def nondegenerate_reduce(ansatz):
    """Normalize a consistent non-degenerate table to symmetric-space form.

    The transverse generators are shifted by their own rotation images,
    Y_i = Z_i + R-element(i) / lam; the reduced table then satisfies
    [V, Y_i] = lam Y_i exactly and the Y-Y brackets close into the
    rotation span, which is the symmetric-space criterion at the
    structure-constant level.
    """
    residuals = verify_constraints(ansatz)
    algebra, rot = assemble_nondegenerate(ansatz)
    _, worst = jacobi_residual(algebra)
    if worst != 0:
        return ReductionReport(
            verdict="inconsistent",
            residuals=residuals,
            lambda_scale=Fraction(1),
            failing_identity=worst_jacobi_triple(algebra),
            checks={"jacobi_residual": worst},
        )
    n = ansatz.n
    if any(x != 0 for row in ansatz.F for x in row):
        # unreachable once the Jacobi residual vanishes; kept as a guard
        return ReductionReport(
            verdict="inconsistent",
            residuals=residuals,
            lambda_scale=Fraction(1),
            failing_identity=("V", "Z1", "Z2"),
            checks={"F_nonzero": True},
        )
    sigmas, _ = _rotation_seeds_nondeg(ansatz)
    k = len(rot)
    dim = 1 + n + k
    new_in_old = mat_identity(dim, EXACT)
    for i in range(n):
        coeffs = _expand_in(rot, sigmas[i], n)
        for p, cf in enumerate(coeffs):
            new_in_old[1 + n + p][1 + i] = cf / ansatz.lam
    reduced = _apply_new_generators(
        algebra, new_in_old, labels=["V"] + [f"Y{i+1}" for i in range(n)] + [f"M{p+1}" for p in range(k)]
    )
    eigen_ok = True
    for i in range(n):
        expected = {1 + i: ansatz.lam}
        if reduced.bracket(0, 1 + i) != expected:
            eigen_ok = False
    closes = True
    yy_vanishes = True
    for i in range(n):
        for j in range(i + 1, n):
            row = reduced.bracket(1 + i, 1 + j)
            if any(c <= n for c in row):
                closes = False
            if row:
                yy_vanishes = False
    verdict = "symmetric_space" if eigen_ok and closes else "inconsistent"
    return ReductionReport(
        verdict=verdict,
        residuals=residuals,
        lambda_scale=Fraction(1),
        redefinitions=(("Y_i = Z_i + R-element(i)/lam", tuple(map(tuple, new_in_old))),),
        checks={
            "eigen_brackets": eigen_ok,
            "yy_in_rotation_span": closes,
            "yy_vanishes": yy_vanishes,
        },
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
    with bb the boost block, which must come out exactly symmetric.
    """
    residuals = verify_constraints(ansatz)
    work = ansatz.rescaled()
    algebra, rot = assemble_degenerate(work)
    _, worst = jacobi_residual(algebra)
    if worst != 0:
        return ReductionReport(
            verdict="inconsistent",
            residuals=residuals,
            lambda_scale=ansatz.lam,
            failing_identity=worst_jacobi_triple(algebra),
            checks={"jacobi_residual": worst},
        )
    n = work.n
    occ = list(work.occupancy)
    absent = [i for i in range(n) if i not in occ]
    forced = {
        "W": _max_abs(work.W),
        "aleph2": _max_abs(x for row in work.aleph2 for x in row),
        "uv_rotation": _max_abs(x for row in work.Y for x in row),
    }
    if any(v != 0 for v in forced.values()):
        # unreachable once the Jacobi residual vanishes; kept as a guard
        return ReductionReport(
            verdict="inconsistent",
            residuals=residuals,
            lambda_scale=ansatz.lam,
            checks={"forced_vanishings": {k: format_scalar(v) for k, v in forced.items()}},
        )
    k = len(rot)
    nb = len(occ)
    dim = 2 + n + nb + k
    iz = lambda i: 2 + i
    ib = {a: 2 + n + occ.index(a) for a in occ}
    sigmas, _, _ = _rotation_seeds_deg(work)

    # first redefinition: unhook unoccupied generators from the boosts
    b1 = mat_identity(dim, EXACT)
    for i in absent:
        for a in occ:
            if work.F[i][a] != 0:
                b1[ib[a]][iz(i)] = -work.F[i][a]
    step1 = _apply_new_generators(algebra, b1, labels=algebra.labels)

    # second redefinition: absorb the rotation images
    b2 = mat_identity(dim, EXACT)
    for i in absent:
        coeffs = _expand_in(rot, sigmas[i], n)
        for p, cf in enumerate(coeffs):
            b2[2 + n + nb + p][iz(i)] = cf
    labels = list(algebra.labels)
    for i in absent:
        labels[iz(i)] = f"W{i+1}"
    step2 = _apply_new_generators(step1, b2, labels=labels)

    checks = {}
    ok = True
    for i in absent:
        ok &= step2.bracket(0, iz(i)) == {iz(i): Fraction(1)}
    checks["unoccupied_eigen_brackets"] = ok
    ww_zero = True
    ww_closes = True
    for i in absent:
        for j in absent:
            if i < j:
                row = step2.bracket(iz(i), iz(j))
                if row:
                    ww_zero = False
                if any(c < 2 + n + nb for c in row):
                    ww_closes = False
    checks["unoccupied_brackets_vanish"] = ww_zero
    checks["unoccupied_brackets_in_rotation_span"] = ww_closes
    decouple = True
    for a in occ:
        for i in absent:
            lo, hi = sorted((iz(a), iz(i)))
            if step2.bracket(lo, hi):
                decouple = False
    checks["sectors_decouple"] = decouple

    # emitted wave data, from the presentation that keeps the original
    # transverse generators with only the rotation images absorbed
    f_pw = [[work.F[i][j] / 2 for j in range(n)] for i in range(n)]
    boosts = _zeros2(n)
    for i in range(n):
        for a in occ:
            boosts[i][a] = work.h[i][a]
    f2 = [[sum(f_pw[i][l] * f_pw[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    h_pw = [
        [(boosts[i][j] + f_pw[i][j] + f2[i][j]) / 2 for j in range(n)]
        for i in range(n)
    ]
    profile_symmetric = all(
        h_pw[i][j] == h_pw[j][i] for i in range(n) for j in range(n)
    )
    checks["profile_symmetric"] = profile_symmetric
    if not profile_symmetric:
        return ReductionReport(
            verdict="inconsistent",
            residuals=residuals,
            lambda_scale=ansatz.lam,
            checks=checks,
        )
    pw = PlaneWaveData(n, tuple(map(tuple, f_pw)), tuple(map(tuple, h_pw)))

    # the table with rotation images absorbed must be, on the nose, the
    # wave table restricted to the generators that are present
    absorbed = _apply_new_generators(algebra, b2, labels=algebra.labels)
    wave = pw_isometry_algebra(pw)
    present = {0: 0, 1: 1}
    for i in range(n):
        present[2 + i] = iz(i)
    for a in occ:
        present[2 + n + a] = ib[a]
    table_ok = True
    for wa, la in present.items():
        for wb, lb in present.items():
            if wa >= wb:
                continue
            expected = {}
            for wc, v in wave.bracket(wa, wb).items():
                if wc not in present:
                    table_ok = False
                    break
                expected[present[wc]] = v
            lo, hi = (la, lb) if la < lb else (lb, la)
            got = absorbed.bracket(lo, hi)
            if la > lb:
                got = {c: -v for c, v in got.items()}
            if got != expected:
                table_ok = False
    checks["matches_wave_table"] = table_ok

    rebuilt_worst = jacobi_residual(wave)[1]
    checks["rebuilt_wave_jacobi"] = rebuilt_worst

    verdict = (
        "plane_wave"
        if ok and ww_closes and decouple and table_ok and rebuilt_worst == 0
        else "inconsistent"
    )
    return ReductionReport(
        verdict=verdict,
        residuals=residuals,
        lambda_scale=ansatz.lam,
        redefinitions=(
            ("Y_I = Z_I - F_Ia Zb_a", tuple(map(tuple, b1))),
            ("W_I = Y_I + R-element(I)", tuple(map(tuple, b2))),
        ),
        plane_wave=pw,
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
    f2 = [[2 * pw.F[i][j] for j in range(n)] for i in range(n)]
    a_mat = [
        [
            2 * pw.H[i][j] - sum(pw.F[i][k] * pw.F[k][j] for k in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    h = [[(a_mat[i][j] + a_mat[j][i]) / 2 - f2[i][j] / 2 for j in range(n)] for i in range(n)]
    base = DegenerateAnsatz(
        n=n,
        lam=Fraction(1),
        occupancy=tuple(range(n)),
        W=(ZERO,) * n,
        F=f2,
        aleph2=_zeros2(n),
        C=_zeros3(n),
        h=h,
        A=a_mat,
        Y=_zeros2(n),
        R=_zeros3(n),
        S3=_zeros3(n),
        N=_zeros4(n),
    )
    if lam == 1:
        return base
    # undo the unit-eigenvalue scaling to present the data at scale lam
    return DegenerateAnsatz(
        n=n,
        lam=lam,
        occupancy=base.occupancy,
        W=base.W,
        F=[[x * lam for x in row] for row in base.F],
        aleph2=base.aleph2,
        C=base.C,
        h=[[x * lam ** 2 for x in row] for row in base.h],
        A=[[x * lam ** 2 for x in row] for row in base.A],
        Y=base.Y,
        R=base.R,
        S3=base.S3,
        N=base.N,
    )


def _rand_fraction(rng, bound=2, den=3):
    return Fraction(rng.randint(-bound * den, bound * den), rng.randint(1, den))


def _rand_antisym(rng, n):
    m = _zeros2(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = _rand_fraction(rng)
            m[i][j], m[j][i] = v, -v
    return m


def _rand_sym(rng, n):
    m = _zeros2(n)
    for i in range(n):
        for j in range(i, n):
            v = _rand_fraction(rng)
            m[i][j] = m[j][i] = v
    return m


_EPS3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)


def _epsilon_template(indices, kappa, n, eta=None):
    """Rotation-coefficient seed R[i][m][k] = kappa * eps on a 3-subset.

    The images are the standard rotation generators of the subset's
    metric block, the unique equivariant family available at desk
    scale; eta twists the action for a Lorentzian block.
    """
    r = _zeros3(n)
    for (a, b, c), sign in _EPS3:
        i, m, k = indices[a], indices[b], indices[c]
        r[i][m][k] = sign * kappa
    if eta is not None:
        # raise the middle slot so the stored coefficients keep the
        # upper-index convention R[i][m][n]
        raised = _zeros3(n)
        for i in range(n):
            for m in range(n):
                for k in range(n):
                    raised[i][m][k] = sum(
                        eta[m][mm] * eta[k][kk] * r[i][mm][kk] for mm in range(n) for kk in range(n)
                    )
        return raised
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
    eta = eta_matrix(aleph, n)
    r = _zeros3(n)
    if n >= 3 and rng.random() < 0.75:
        kappa = _rand_fraction(rng, bound=1, den=2)
        if n == 3:
            indices = (0, 1, 2)
            r = _epsilon_template(indices, kappa, n, eta=eta)
        else:
            indices = (n - 3, n - 2, n - 1)  # a Euclidean block for either sign
            r = _epsilon_template(indices, kappa, n)
    # dependent fields from the constraint relations
    r_low = [
        [
            [
                sum(eta[j][m] * eta[k][nn] * r[i][m][nn] for m in range(n) for nn in range(n))
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]
    c = _zeros3(n)
    for i, j, k in itertools.product(range(n), repeat=3):
        c[i][j][k] = 2 / lam * (r_low[i][j][k] - r_low[j][i][k])
    c_up = [
        [[sum(c[i][j][l] * eta[l][m] for l in range(n)) for m in range(n)] for j in range(n)]
        for i in range(n)
    ]
    s = _zeros4(n)
    for i, j, m, nn in itertools.product(range(n), repeat=4):
        s[i][j][m][nn] = sum(c_up[i][j][k] * r[k][m][nn] for k in range(n)) / (2 * lam)
    probe = NondegenerateAnsatz(
        n=n, lam=lam, aleph=aleph, F=_zeros2(n), C=c, R=r, Scurv=s, h_basis=()
    )
    sigmas, s_hats = _rotation_seeds_nondeg(probe)
    rot = _span_closure(list(sigmas) + list(s_hats.values()), n)
    return NondegenerateAnsatz(
        n=n, lam=lam, aleph=aleph, F=_zeros2(n), C=c, R=r, Scurv=s,
        h_basis=tuple(tuple(tuple(row) for row in m) for m in rot),
    )


def _generate_deg(rng, n):
    size = rng.randint(0, n)
    occ = tuple(sorted(rng.sample(range(n), size)))
    absent = [i for i in range(n) if i not in occ]
    lam = abs(_rand_fraction(rng))
    while lam == 0:
        lam = abs(_rand_fraction(rng))
    if rng.random() < 0.5:
        lam = Fraction(1)

    f = _zeros2(n)
    for ai, a in enumerate(occ):
        for b in occ[ai + 1:]:
            v = _rand_fraction(rng)
            f[a][b], f[b][a] = v, -v

    r = _zeros3(n)
    c = _zeros3(n)
    nmat = _zeros4(n)
    if len(absent) == 3 and rng.random() < 0.75:
        kappa = _rand_fraction(rng, bound=1, den=2)
        r = _epsilon_template(tuple(absent), kappa, n)
        for i, j, k in itertools.product(range(n), repeat=3):
            c[i][j][k] = r[i][j][k] - r[j][i][k]
        for i, j, m, nn in itertools.product(range(n), repeat=4):
            nmat[i][j][m][nn] = sum(c[i][j][k] * r[k][m][nn] for k in range(n)) / 4
    else:
        # with no rotation data the boost couplings of the unoccupied
        # sector are unconstrained
        for i in absent:
            for a in occ:
                v = _rand_fraction(rng)
                f[i][a], f[a][i] = v, -v

    a_mat = _zeros2(n)
    for ai, a in enumerate(occ):
        for b in occ[ai:]:
            v = _rand_fraction(rng)
            a_mat[a][b] = a_mat[b][a] = v
    for i in absent:
        for a in occ:
            a_mat[i][a] = a_mat[a][i] = f[a][i] / 2
    h = [[(a_mat[i][j] + a_mat[j][i]) / 2 - f[i][j] / 2 for j in range(n)] for i in range(n)]

    base = DegenerateAnsatz(
        n=n, lam=Fraction(1), occupancy=occ, W=(ZERO,) * n, F=f,
        aleph2=_zeros2(n), C=c, h=h, A=a_mat, Y=_zeros2(n), R=r,
        S3=_zeros3(n), N=nmat,
    )
    if lam == 1:
        return base
    return DegenerateAnsatz(
        n=n, lam=lam, occupancy=occ, W=base.W,
        F=[[x * lam for x in row] for row in base.F],
        aleph2=base.aleph2, C=base.C,
        h=[[x * lam ** 2 for x in row] for row in base.h],
        A=[[x * lam ** 2 for x in row] for row in base.A],
        Y=base.Y,
        R=[[[x * lam for x in row] for row in p] for p in base.R],
        S3=base.S3, N=base.N,
    )


def ansatz_from_json(data):
    case = data.get("case")
    if case == "nondeg":
        return NondegenerateAnsatz.from_json(data)
    if case == "deg":
        return DegenerateAnsatz.from_json(data)
    raise ValueError("ansatz JSON must carry case 'nondeg' or 'deg'")
