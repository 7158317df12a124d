"""Finite-dimensional Lie algebras as structure-constant tables.

The bracket table f_{ab}^c lives in a rank-3 tensor, antisymmetric in
its first two slots.  Exact rationals are the working mode: a Jacobi
residual of zero is then a proof, not a small number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    EXACT,
    coerce_scalar,
    format_scalar,
    mat_inverse,
    parse_scalar,
    row_reduce,
    scalar_zero,
)
from .tensor_core import DOWN, UP, Tensor


def _default_labels(n):
    return tuple(f"e{i}" for i in range(n))


@dataclass(frozen=True)
class LieAlgebra:
    labels: tuple
    f: Tensor  # valence (d, d, u), antisymmetric in the first two slots

    def __post_init__(self):
        if self.f.valence != (DOWN, DOWN, UP):
            raise ValueError("structure constants must have valence (d, d, u)")
        if len(self.labels) != self.f.dim:
            raise ValueError("label count does not match dimension")
        for a in range(self.dim):
            for b in range(a, self.dim):
                for c in range(self.dim):
                    if self.f[a, b, c] != -self.f[b, a, c]:
                        raise ValueError(
                            f"structure constants not antisymmetric at ({a},{b})^{c}"
                        )

    @property
    def dim(self):
        return self.f.dim

    @property
    def tag(self):
        return self.f.tag

    @classmethod
    def from_brackets(cls, dim, brackets, labels=None, tag=EXACT):
        """Build from a map {(a, b): {c: coeff}} given only for a < b."""
        entries = {}
        for (a, b), row in brackets.items():
            if a == b:
                raise ValueError("bracket keys must have distinct generators")
            for c, coeff in row.items():
                entries[(a, b, c)] = coeff
                entries[(b, a, c)] = -Fraction(coeff) if tag == EXACT else -float(coeff)
        f = Tensor.from_entries(dim, (DOWN, DOWN, UP), entries, tag)
        return cls(tuple(labels) if labels else _default_labels(dim), f)

    def bracket(self, a, b):
        """Nonzero coefficients of [e_a, e_b] as {c: coeff}."""
        out = {}
        for c in range(self.dim):
            v = self.f[a, b, c]
            if v != 0:
                out[c] = v
        return out

    def index_of(self, label):
        return self.labels.index(label)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        brackets = {}
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                row = self.bracket(a, b)
                if row:
                    brackets[f"{a},{b}"] = {str(c): format_scalar(v) for c, v in row.items()}
        return {"dim": self.dim, "labels": list(self.labels), "brackets": brackets}

    @classmethod
    def from_json(cls, data):
        dim = data["dim"]
        brackets = {}
        tag = None
        for key, row in data.get("brackets", {}).items():
            a, b = (int(p) for p in key.split(","))
            if not a < b:
                raise ValueError(f"bracket key {key!r} must satisfy a < b")
            parsed = {}
            for c, raw in row.items():
                val, t = parse_scalar(raw)
                if tag not in (None, t):
                    raise ValueError(f"mixed exact and float entries (bracket {key!r})")
                tag = t
                parsed[int(c)] = val
            brackets[(a, b)] = parsed
        return cls.from_brackets(dim, brackets, labels=data.get("labels"), tag=tag or EXACT)

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


def jacobi_residual(algebra):
    """Cyclic double-bracket residual J_{abc}^d and its maximum magnitude.

    J_{abc}^d = sum_e f_{ab}^e f_{ec}^d + f_{bc}^e f_{ea}^d + f_{ca}^e f_{eb}^d,
    identically zero exactly when the table is a Lie algebra.
    """
    n = algebra.dim
    f = algebra.f
    tag = f.tag
    zero = scalar_zero(tag)
    # sparse pass: collect nonzero brackets once
    rows = {}
    for a in range(n):
        for b in range(n):
            row = {}
            for c in range(n):
                v = f[a, b, c]
                if v != 0:
                    row[c] = v
            if row:
                rows[(a, b)] = row
    comps = [zero] * n ** 4
    out = Tensor.zeros(n, (DOWN, DOWN, DOWN, UP), tag)
    for (a, b), row in rows.items():
        for e, fab in row.items():
            for c in range(n):
                inner = rows.get((e, c))
                if not inner:
                    continue
                for d, fec in inner.items():
                    v = fab * fec
                    comps[out.flat((a, b, c, d))] += v
                    comps[out.flat((b, c, a, d))] += v
                    comps[out.flat((c, a, b, d))] += v
    residual = Tensor(n, (DOWN, DOWN, DOWN, UP), tuple(comps), tag)
    return residual, residual.max_abs()


def worst_jacobi_triple(algebra):
    """Labels of the triple carrying the largest Jacobi violation, or None."""
    residual, worst = jacobi_residual(algebra)
    if worst == 0:
        return None
    for idx in residual.indices():
        if abs(residual[idx]) == worst:
            a, b, c, _ = idx
            return (algebra.labels[a], algebra.labels[b], algebra.labels[c])
    return None


def change_basis(algebra, p, labels=None):
    """Rewrite the bracket table under the component map x' = P x.

    Equivalently the new basis vectors are the columns of P^{-1} in the
    old basis.  A table with zero Jacobi residual keeps it, for every
    invertible P.
    """
    n = algebra.dim
    if len(p) != n or any(len(row) != n for row in p):
        raise ValueError("P has the wrong shape")
    tag = algebra.tag
    p = [[coerce_scalar(x, tag) for x in row] for row in p]
    p_inv = mat_inverse(p, tag)  # raises on singular P
    f = algebra.f
    # transform slot by slot to stay O(n^4) per slot
    cur = {idx: f[idx] for idx in f.indices() if f[idx] != 0}

    def apply(axis, matrix, by_column):
        # by_column: weight src -> target with matrix[src][target],
        # otherwise with matrix[target][src]
        nxt = {}
        for idx, v in cur.items():
            for k in range(n):
                m = matrix[idx[axis]][k] if by_column else matrix[k][idx[axis]]
                if m == 0:
                    continue
                jdx = list(idx)
                jdx[axis] = k
                key = tuple(jdx)
                nxt[key] = nxt.get(key, scalar_zero(tag)) + m * v
        return {k: v for k, v in nxt.items() if v != 0}

    # f'_{ab}^c = sum P^{-1}_{ma} P^{-1}_{nb} P_{ck} f_{mn}^{k}
    cur = apply(0, p_inv, True)
    cur = apply(1, p_inv, True)
    cur = apply(2, p, False)
    new_f = Tensor.from_entries(n, (DOWN, DOWN, UP), cur, tag)
    new_labels = tuple(labels) if labels else algebra.labels
    return LieAlgebra(new_labels, new_f)


@dataclass(frozen=True)
class ReductiveSplit:
    m_indices: tuple
    h_indices: tuple

    def __post_init__(self):
        m, h = set(self.m_indices), set(self.h_indices)
        if m & h:
            raise ValueError("m and h index sets overlap")
        object.__setattr__(self, "m_indices", tuple(sorted(m)))
        object.__setattr__(self, "h_indices", tuple(sorted(h)))

    def covers(self, dim):
        return set(self.m_indices) | set(self.h_indices) == set(range(dim))


@dataclass(frozen=True)
class ReductiveReport:
    is_reductive: bool
    hh_violations: tuple  # brackets [h,h] leaking into m
    hm_violations: tuple  # brackets [h,m] leaking into h
    h_prime: tuple  # exact basis of the h-components of [m,m]

    @property
    def h_prime_dim(self):
        return len(self.h_prime)


def check_reductive(algebra, split):
    """Check [h,h] <= h and [h,m] <= m, and compute h' = pr_h [m, m].

    h' spans the isotropy part actually reached by m-brackets; m + h' is
    an ideal of the algebra whenever the split is reductive.
    """
    if not split.covers(algebra.dim):
        raise ValueError("split must cover every basis index exactly once")
    m, h = split.m_indices, split.h_indices
    hh, hm = [], []
    for i, a in enumerate(h):
        for b in h[i + 1 :]:
            leak = {c: v for c, v in algebra.bracket(a, b).items() if c in m}
            if leak:
                hh.append((algebra.labels[a], algebra.labels[b], tuple(sorted(leak))))
    for a in h:
        for b in m:
            leak = {c: v for c, v in algebra.bracket(a, b).items() if c in h}
            if leak:
                hm.append((algebra.labels[a], algebra.labels[b], tuple(sorted(leak))))
    images = []
    zero = scalar_zero(algebra.tag)
    for i, a in enumerate(m):
        for b in m[i + 1 :]:
            row = algebra.bracket(a, b)
            vec = [row.get(c, zero) for c in range(algebra.dim)]
            for c in m:
                vec[c] = zero
            if any(v != 0 for v in vec):
                images.append(vec)
    if images:
        basis, _ = row_reduce(images)
    else:
        basis = []
    return ReductiveReport(
        is_reductive=not hh and not hm,
        hh_violations=tuple(hh),
        hm_violations=tuple(hm),
        h_prime=tuple(tuple(row) for row in basis),
    )
