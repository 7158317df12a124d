"""Finite-dimensional Lie algebras as structure-constant tables.

The bracket table f_{ab}^c lives in a rank-3 tensor, antisymmetric in
its first two slots.  Exact rationals are the working mode: a Jacobi
residual of zero is then a proof, not a small number.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .exact import (
    EXACT,
    _inverse_numerators,
    coerce_scalar,
    format_scalar,
    integer_numerators,
    mat_inverse,
    parse_scalar,
    row_reduce,
    span_coordinates,
)
from .tensor_core import (DOWN, UP, Tensor, _antisymmetry_violations, _contract, _dense, _frozen,
                          _map_slot, _matrix)


def _default_labels(n):
    return tuple(f"e{i}" for i in range(n))


@_frozen
class LieAlgebra:
    labels: tuple
    f: Tensor  # valence (d, d, u), antisymmetric in the first two slots

    def __post_init__(self, antisymmetric=False):
        if self.f.valence != (DOWN, DOWN, UP):
            raise ValueError("structure constants must have valence (d, d, u)")
        if len(self.labels) != self.f.dim:
            raise ValueError("label count does not match dimension")
        bad = not antisymmetric and _antisymmetry_violations(dict(self.f.nums), 0, 1)
        if bad:
            a, b, c = bad[0]
            raise ValueError(f"structure constants not antisymmetric at ({a},{b})^{c}")
        # nonzero brackets as {(a, b): {c: numerator of f_ab^c over f.den}}, in
        # index order; not a field, so equality and repr see only labels and f
        rows = {}
        for (a, b, c), v in self.f.nums:
            rows.setdefault((a, b), {})[c] = v
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def _antisymmetric(cls, labels, f):
        """The algebra of an f whose builder wrote each f_ba^c, a < b, as the
        negated numerator of f_ab^c; antisymmetric so, and not checked."""
        algebra = cls.__new__(cls)
        object.__setattr__(algebra, "labels", labels)
        object.__setattr__(algebra, "f", f)
        algebra.__post_init__(antisymmetric=True)
        return algebra

    @property
    def dim(self):
        return self.f.dim

    @property
    def tag(self):
        return self.f.tag

    @classmethod
    def from_brackets(cls, dim, brackets, labels=None, tag=EXACT):
        """Build from a map {(a, b): {c: coeff}} given only for a < b."""
        if any(a == b for a, b in brackets):
            raise ValueError("bracket keys must have distinct generators")
        half = Tensor.from_entries(
            dim, (DOWN, DOWN, UP),
            {(a, b, c): coeff for (a, b), row in brackets.items() for c, coeff in row.items()}, tag)
        # each mirror negates its numerator over the one denominator
        entries = dict(half.nums)
        entries.update(((b, a, c), -v) for (a, b, c), v in half.nums)
        f = Tensor._sparse(dim, half.valence, entries, tag, half.den)
        # a float NaN is no mirror of itself, so only exact tables skip the check
        build = cls._antisymmetric if tag == EXACT and all(a < b for a, b in brackets) else cls
        return build(tuple(labels) if labels else _default_labels(dim), f)

    def _value(self, v):
        """A stored numerator as the value it stands for."""
        return Fraction(v, self.f.den) if self.tag == EXACT else v

    def bracket(self, a, b):
        """Nonzero coefficients of [e_a, e_b] as {c: coeff}."""
        if not (0 <= a < self.dim and 0 <= b < self.dim):
            raise ValueError(f"bracket ({a},{b}) out of range for dim {self.dim}")
        return {c: self._value(v) for c, v in self._rows.get((a, b), {}).items()}

    # -- serialization ------------------------------------------------------

    def to_json(self):
        brackets = {
            f"{a},{b}": {str(c): format_scalar(self._value(v)) for c, v in row.items()}
            for (a, b), row in self._rows.items()
            if a < b
        }
        return {"dim": self.dim, "labels": list(self.labels), "brackets": brackets}

    @classmethod
    def from_json(cls, data):
        dim = data["dim"]
        labels = data.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise ValueError("labels must be a list of strings")
        rows = data.get("brackets", {})
        if not isinstance(rows, dict):
            raise ValueError("brackets must be an object")
        brackets = {}
        tag = None
        for key, row in rows.items():
            if not isinstance(row, dict):
                raise ValueError(f"bracket {key!r} must be an object")
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
        return cls.from_brackets(dim, brackets, labels=labels, tag=tag or EXACT)


# ---------------------------------------------------------------------------
# exact table assembly
# ---------------------------------------------------------------------------


def _table(parts, dim, tag=EXACT):
    """The Tensor f_ab^c whose [e_a, e_b] = -[e_b, e_a], a < b, sums the
    ({(a, b, c): numerator}, den) parts over the lcm of their dens;
    entries with a >= b are ignored."""
    den = math.lcm(*(d for _, d in parts))
    half = {}
    for entries, d in parts:
        s = den // d
        for (a, b, c), v in entries.items():
            if a < b:
                half[a, b, c] = half.get((a, b, c), 0) + s * v
    entries = {**half, **{(b, a, c): -v for (a, b, c), v in half.items()}}
    return Tensor._sparse(dim, (DOWN, DOWN, UP), entries, tag, den)


def _algebra(parts, labels, tag=EXACT):
    """The algebra on labels whose table _table sums from parts."""
    f = _table(parts, len(labels), tag)
    # a float NaN is no mirror of itself, so only exact tables skip the check
    build = LieAlgebra._antisymmetric if tag == EXACT else LieAlgebra
    return build(tuple(labels), f)


def _coords(rot, mats):
    """(rows, den): the coefficients of each matrix against the independent
    span basis rot as int numerators over den, or None for a matrix
    outside the span.  Raises ValueError when rot is dependent."""
    vd, td = math.lcm(*(m.den for m in rot)), math.lcm(*(m.den for m in mats))
    rows = span_coordinates([[x * (vd // m.den) for x in _dense(m)] for m in rot],
                            [[x * (td // m.den) for x in _dense(m)] for m in mats])
    den = math.lcm(*(d for _, d in filter(None, rows)))
    return [row and [x * vd * (den // row[1]) for x in row[0]] for row in rows], den * td


def _rotation_brackets(rot, m0, acted, images):
    """(parts, outside): the table parts of a tangent table extended by
    the span basis rot, M_p at m0 + p, and the table slot of the first
    image, then commutator, outside the span (None when all lie in it).

    The parts are [X, M_p] = -M_p X for each (positions in table,
    positions in rot) pair in acted, the rotation part of each slot
    (a, b) in images, [(a, b), matrix], and [M_p, M_q] in the span basis;
    the images and commutators share one _coords call."""
    parts = []
    for at, sub in acted:
        pos = dict(zip(sub, at))
        # [X_i, M_p] = -rot[p][m][i] X_m, key order (X_i, M_p)
        parts += [({(pos[i], m0 + p, pos[m]): -v for (m, i), v in omega.nums if m in pos and i in pos},
                   omega.den) for p, omega in enumerate(rot)]
    targets = [*images, *(((m0 + p, m0 + q), _contract(a, b) - _contract(b, a))
                          for (p, a), (q, b) in itertools.combinations(enumerate(rot), 2))]
    rows, den = _coords(rot, [m for _, m in targets])
    outside = next((key for (key, _), row in zip(targets, rows) if row is None), None)
    coords = {(*key, m0 + p): x for (key, _), row in zip(targets, rows) if row for p, x in enumerate(row)}
    return [*parts, (coords, den)], outside


# most inner products a Jacobi sum may take; a dense table of dimension D takes D^3 (D - 1)^2
_MAX_JACOBI_PRODUCTS = 2**24


def jacobi_products(algebra):
    """The products f_ab^e f_ec^d of the Jacobi sum over all rows, from row sizes (exact sums take half)."""
    per_first = {}
    for (e, _), row in algebra._rows.items():
        per_first[e] = per_first.get(e, 0) + len(row)
    return sum(per_first.get(e, 0) for row in algebra._rows.values() for e in row)


def jacobi_residual(algebra):
    """Nonzero components of the cyclic double-bracket residual J_{abc}^d.

    J_{abc}^d = sum_e f_{ab}^e f_{ec}^d + f_{bc}^e f_{ea}^d + f_{ca}^e f_{eb}^d,
    identically zero exactly when the table is a Lie algebra.  Returns
    ({(a, b, c, d): value}, max magnitude): the entries are in index
    order, the form ``Tensor.from_entries`` takes, and the maximum is
    zero for an empty map.

    An exact table is summed on its integer numerators: with L their
    denominator, J(L f) = L^2 J(f), so each nonzero entry of J(L f) is
    divided by L^2 once.  J is totally antisymmetric in a, b, c, so
    it vanishes when two of them are equal and is summed only at sorted
    triples x < y < z.  With B_{pqr}^d = sum_e f_{pq}^e f_{er}^d and
    B_{qpr} = -B_{pqr}, J_{xyz} = B_{xyz} + B_{yzx} - B_{xzy}: each
    product of a row p < q with a third index r enters once, as
    +J_{pqr} when r > q, +J_{rpq} when r < p and -J_{prq} when
    p < r < q.  Each sorted value is then copied, by the sign of the
    permutation, to its six orderings.  A float table keeps the sum over
    every ordered row into three keys, whose order fixes its bits.
    """
    rows = algebra._rows
    acc = {}
    if algebra.tag != EXACT:
        # an int zero leaves every float sum bit-identical to one from 0.0
        for (a, b), row in rows.items():
            for e, fab in row.items():
                for c in range(algebra.dim):
                    for d, fec in rows.get((e, c), {}).items():
                        v = fab * fec
                        for key in ((a, b, c, d), (b, c, a, d), (c, a, b, d)):
                            acc[key] = acc.get(key, 0) + v
        entries = {key: acc[key] for key in sorted(acc) if acc[key] != 0}
        # zero first, as the dense scan met J_{000}^0 = 0 first; this keeps
        # the maximum bit-identical to it even when a residual is NaN
        return entries, max([0.0, *map(abs, entries.values())])
    by_first = {}
    for (e, r), row in rows.items():
        by_first.setdefault(e, []).append((r, row))
    for (p, q), row in rows.items():
        if p > q:
            continue
        for e, fpq in row.items():
            for r, erow in by_first.get(e, ()):
                if r > q:
                    key, w = (p, q, r), fpq
                elif r < p:
                    key, w = (r, p, q), fpq
                elif p < r < q:
                    key, w = (p, r, q), -fpq
                else:
                    continue
                for d, fer in erow.items():
                    k = (*key, d)
                    acc[k] = acc.get(k, 0) + w * fer
    entries, worst, den = {}, 0, algebra.f.den ** 2
    for (x, y, z, d), v in acc.items():
        if v:
            pos = Fraction(v, den)
            neg, worst = -pos, max(worst, abs(v))
            entries.update({(x, y, z, d): pos, (y, z, x, d): pos, (z, x, y, d): pos,
                            (y, x, z, d): neg, (x, z, y, d): neg, (z, y, x, d): neg})
    return {key: entries[key] for key in sorted(entries)}, Fraction(worst, den)


def _first_worst_triple(algebra, entries, worst):
    """worst_jacobi_triple from the (entries, worst) pair it would compute.

    For an exact table the first maximal key is a sorted triple a < b < c:
    its six orderings share one magnitude and it comes first among them.
    """
    for (a, b, c, _), v in entries.items():
        if abs(v) == worst:
            return (algebra.labels[a], algebra.labels[b], algebra.labels[c])
    return None


def worst_jacobi_triple(algebra):
    """Labels of the triple carrying the largest Jacobi violation, or None.

    Ties go to the lexicographically first residual index.
    """
    return _first_worst_triple(algebra, *jacobi_residual(algebra))


def change_basis(algebra, p, labels=None):
    """Rewrite the bracket table under the component map x' = P x.

    Equivalently the new basis vectors are the columns of P^{-1} in the
    old basis.  A table with zero Jacobi residual keeps it, for every
    invertible P.
    """
    n, tag = algebra.dim, algebra.tag
    if len(p) != n or any(len(row) != n for row in p):
        raise ValueError("P has the wrong shape")
    p = [[coerce_scalar(x, tag) for x in row] for row in p]
    # P and P^-1 as int rows over one den each, floats over 1; raises if singular
    *p, scale = integer_numerators(*p) if tag == EXACT else (*p, 1)
    p_inv, den = _inverse_numerators(p, scale) if tag == EXACT else (mat_inverse(p, tag), 1)
    p, p_inv_t = _matrix(p, tag, scale, (UP, DOWN)), _matrix(list(zip(*p_inv)), tag, den, (UP, DOWN))
    # f'_{ab}^c = sum P^{-1}_{ma} P^{-1}_{nb} P_{ck} f_{mn}^{k}, one slot at a time
    f = algebra.f
    for slot, m in ((0, p_inv_t), (1, p_inv_t), (2, p)):
        f = _map_slot(f, (slot,), m, f.valence)
    return LieAlgebra(tuple(labels) if labels else algebra.labels, f)


@_frozen
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


@_frozen
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
    m, h = set(split.m_indices), set(split.h_indices)
    labels = algebra.labels
    hh, hm, images = [], [], []
    # rows come in index order, so each list is ordered by (a, b)
    for (a, b), row in algebra._rows.items():
        if a in h and b in h and a < b:
            leak = tuple(c for c in row if c in m)
            if leak:
                hh.append((labels[a], labels[b], leak))
        elif a in h and b in m:
            leak = tuple(c for c in row if c in h)
            if leak:
                hm.append((labels[a], labels[b], leak))
        elif a in m and b in m and a < b:
            # numerators over one denominator span what the values span
            images.append([0 if c in m else row.get(c, 0) for c in range(algebra.dim)])
    basis, _ = row_reduce(images)
    if algebra.tag != EXACT:
        # the exact echelon rows of the float entries, each rounded once
        basis = [map(float, row) for row in basis]
    return ReductiveReport(
        is_reductive=not hh and not hm,
        hh_violations=tuple(hh),
        hm_violations=tuple(hm),
        h_prime=tuple(tuple(row) for row in basis),
    )
