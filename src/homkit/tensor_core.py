"""Dense multi-index tensors over exact rationals or binary64 floats.

Components are stored flat in lexicographic index order with slot 0 the
leftmost (slowest) index.  All values are immutable after construction
and every operation is a pure function, so tensors are safe to share
between threads.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    EXACT,
    FLOAT,
    check_tag,
    coerce_scalar,
    format_scalar,
    integer_numerators,
    mat_identity,
    mat_inverse,
    mat_mul,
    parse_scalar,
    scalar_one,
    scalar_zero,
)

UP = "u"
DOWN = "d"

# largest dim**rank a dense tensor may hold; checked before any allocation
_MAX_COMPONENTS = 2**20


def _flat(idx, dim, rank):
    """Offset of ``idx`` in a dense component tuple of the given shape."""
    if len(idx) != rank:
        raise ValueError(f"index {idx}: need {rank} indices, got {len(idx)}")
    f = 0
    for k in idx:
        if not 0 <= k < dim:
            raise ValueError(f"index {idx} out of range for dim {dim}")
        f = f * dim + k
    return f


@dataclass(frozen=True)
class Tensor:
    """A dense rank-r tensor on a D-dimensional space.

    valence holds one "u"/"d" flag per slot; components has length D**r.
    """

    dim: int
    valence: tuple
    components: tuple
    tag: str = EXACT

    def __post_init__(self):
        check_tag(self.tag)
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if any(v not in (UP, DOWN) for v in self.valence):
            raise ValueError(f"bad valence {self.valence!r}")
        if len(self.components) != self.dim ** self.rank:
            raise ValueError(
                f"expected {self.dim ** self.rank} components, got {len(self.components)}"
            )
        object.__setattr__(
            self, "components", tuple(coerce_scalar(c, self.tag) for c in self.components)
        )

    @property
    def rank(self):
        return len(self.valence)

    # -- indexing ---------------------------------------------------------

    def flat(self, idx):
        return _flat(idx, self.dim, self.rank)

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return self.components[self.flat(idx)]

    def indices(self):
        return itertools.product(range(self.dim), repeat=self.rank)

    def entries(self):
        """Nonzero components as {index tuple: value} in index order.

        The inverse of ``from_entries``.
        """
        return {idx: v for idx, v in zip(self.indices(), self.components) if v != 0}

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, dim, valence, tag=EXACT):
        return cls.from_entries(dim, valence, {}, tag)

    @classmethod
    def from_entries(cls, dim, valence, entries, tag=EXACT):
        valence = tuple(valence)
        rank = len(valence)
        if dim ** rank > _MAX_COMPONENTS:
            raise ValueError(
                f"tensor of dim {dim} and rank {rank} exceeds {_MAX_COMPONENTS} components"
            )
        comps = [scalar_zero(tag)] * dim ** rank
        for idx, val in entries.items():
            comps[_flat(tuple(idx), dim, rank)] = val
        return cls(dim, valence, tuple(comps), tag)

    @classmethod
    def delta(cls, dim, tag=EXACT):
        """Identity map as a (1,1) tensor."""
        one = scalar_one(tag)
        return cls.from_entries(dim, (UP, DOWN), {(i, i): one for i in range(dim)}, tag)

    # -- algebra ----------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, Tensor):
            raise TypeError("expected a Tensor")
        if (self.dim, self.valence) != (other.dim, other.valence):
            raise ValueError("tensor shapes differ")
        if self.tag != other.tag:
            raise ValueError(f"mixed scalar tags {self.tag!r} and {other.tag!r}")

    def __add__(self, other):
        self._check_compatible(other)
        comps = tuple(a + b for a, b in zip(self.components, other.components))
        return Tensor(self.dim, self.valence, comps, self.tag)

    def __sub__(self, other):
        self._check_compatible(other)
        comps = tuple(a - b for a, b in zip(self.components, other.components))
        return Tensor(self.dim, self.valence, comps, self.tag)

    def __neg__(self):
        return Tensor(self.dim, self.valence, tuple(-a for a in self.components), self.tag)

    def scale(self, c):
        c = coerce_scalar(c, self.tag)
        return Tensor(self.dim, self.valence, tuple(c * a for a in self.components), self.tag)

    def is_zero(self, tol=None):
        if self.tag == EXACT:
            return all(c == 0 for c in self.components)
        tol = 0.0 if tol is None else tol
        return all(abs(c) <= tol for c in self.components)

    # -- JSON form --------------------------------------------------------

    def to_json(self):
        return {
            "dim": self.dim,
            "rank": self.rank,
            "valence": list(self.valence),
            "entries": {
                ",".join(map(str, idx)): format_scalar(v) for idx, v in self.entries().items()
            },
        }

    @classmethod
    def from_json(cls, data):
        valence = tuple(data["valence"])
        if data.get("rank", len(valence)) != len(valence):
            raise ValueError("rank does not match valence length")
        entries, tags = {}, set()
        for key, raw in data.get("entries", {}).items():
            idx = tuple(int(p) for p in key.split(","))
            val, tag = parse_scalar(raw)
            entries[idx] = val
            tags.add(tag)
        if len(tags) > 1:
            raise ValueError("mixed exact and float entries")
        tag = tags.pop() if tags else EXACT
        return cls.from_entries(data["dim"], valence, entries, tag)

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


@dataclass(frozen=True)
class FrameMetric:
    """A constant invertible symmetric bilinear form and its inverse."""

    dim: int
    g: tuple
    g_inv: tuple
    tag: str = EXACT

    def __post_init__(self):
        check_tag(self.tag)
        g = tuple(tuple(coerce_scalar(x, self.tag) for x in row) for row in self.g)
        ginv = tuple(tuple(coerce_scalar(x, self.tag) for x in row) for row in self.g_inv)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_inv", ginv)
        # exact entries must agree, float ones to within 1e-13; testing !=
        # first spares an exact subtraction where they agree
        tol = 0 if self.tag == EXACT else 1e-13
        pairs = [(i, j) for i in range(self.dim) for j in range(self.dim)]
        if any(g[i][j] != g[j][i] and abs(g[i][j] - g[j][i]) > tol for i, j in pairs):
            raise ValueError("metric is not symmetric")
        prod = mat_mul([list(r) for r in g], [list(r) for r in ginv])
        ident = mat_identity(self.dim, self.tag)
        if any(prod[i][j] != ident[i][j] and abs(prod[i][j] - ident[i][j]) > tol for i, j in pairs):
            raise ValueError("g_inv is not the inverse of g")

    @classmethod
    def from_matrix(cls, rows, tag=None):
        if tag is None:
            tag = FLOAT if any(isinstance(x, float) for row in rows for x in row) else EXACT
        g = [[coerce_scalar(x, tag) for x in row] for row in rows]
        return cls(len(g), tuple(map(tuple, g)), tuple(map(tuple, mat_inverse(g, tag))), tag)

    @classmethod
    def euclidean(cls, dim, tag=EXACT):
        ident = mat_identity(dim, tag)
        return cls(dim, tuple(map(tuple, ident)), tuple(map(tuple, ident)), tag)

    @classmethod
    def light_cone(cls, n, tag=EXACT):
        """Lorentzian frame metric in the order (+, -, 1..n).

        The two null directions pair to 1 and the n transverse directions
        are orthonormal, so the matrix is its own inverse.
        """
        one, zero = scalar_one(tag), scalar_zero(tag)
        d = n + 2
        rows = [[zero] * d for _ in range(d)]
        rows[0][1] = rows[1][0] = one
        for i in range(n):
            rows[2 + i][2 + i] = one
        rows = tuple(map(tuple, rows))
        return cls(d, rows, rows, tag)

    @classmethod
    def diagonal(cls, entries, tag=EXACT):
        d = len(entries)
        rows = mat_identity(d, tag)
        for i, s in enumerate(entries):
            rows[i][i] = coerce_scalar(s, tag)
        return cls.from_matrix(rows, tag)

    def to_json(self):
        return [[format_scalar(x) for x in row] for row in self.g]

    @classmethod
    def from_json(cls, rows):
        parsed = [[parse_scalar(x) for x in row] for row in rows]
        tags = {t for row in parsed for _, t in row}
        if len(tags) > 1:
            raise ValueError("mixed exact and float metric entries")
        tag = tags.pop() if tags else EXACT
        return cls.from_matrix([[v for v, _ in row] for row in parsed], tag)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _check_slot(t, slot):
    if not 0 <= slot < t.rank:
        raise ValueError(f"slot {slot} out of range for rank {t.rank}")


def _antisymmetry_violations(entries, slot_a, slot_b, tol=None):
    """Where t[..i..j..] = -t[..j..i..] fails, for slot_a < slot_b.

    Reads a ``Tensor.entries()`` dict and returns, in index order, each
    failing pair once by its member with i <= j.  The test is exact
    unless tol bounds the magnitude of the pair's sum.
    """
    bad = set()
    for idx, v in entries.items():
        swapped = list(idx)
        swapped[slot_a], swapped[slot_b] = idx[slot_b], idx[slot_a]
        swapped = tuple(swapped)
        w = entries.get(swapped, 0)
        if (v != -w) if tol is None else (abs(v + w) > tol):
            bad.add(min(idx, swapped))
    return sorted(bad)


def contract(t, slot_a, slot_b, metric=None):
    """Contract two slots, using the metric when they have equal valence.

    An up/down pair traces directly; two down slots pair through g_inv
    and two up slots through g.  The result keeps the input tag.
    """
    _check_slot(t, slot_a)
    _check_slot(t, slot_b)
    if slot_a == slot_b:
        raise ValueError("contraction slots must be distinct")
    slot_a, slot_b = sorted((slot_a, slot_b))
    va, vb = t.valence[slot_a], t.valence[slot_b]
    if va == vb:
        if metric is None:
            raise ValueError("metric required to contract two slots of equal valence")
        if metric.tag != t.tag:
            raise ValueError("metric and tensor tags differ")
        if metric.dim != t.dim:
            raise ValueError("metric dimension mismatch")
        pairing = metric.g_inv if va == DOWN else metric.g
    else:
        pairing = mat_identity(t.dim, t.tag)
    new_valence = tuple(v for k, v in enumerate(t.valence) if k not in (slot_a, slot_b))
    zero = scalar_zero(t.tag)
    out = {}
    # entries come in index order, so each output adds its terms in
    # (p, q) order; zero terms leave a sum unchanged and are skipped
    for idx, v in t.entries().items():
        c = pairing[idx[slot_a]][idx[slot_b]]
        if c != 0:
            key = idx[:slot_a] + idx[slot_a + 1 : slot_b] + idx[slot_b + 1 :]
            out[key] = out.get(key, zero) + c * v
    return Tensor.from_entries(t.dim, new_valence, out, t.tag)


def antisymmetrize(t, slots):
    """Signed average over permutations of the listed slots (idempotent)."""
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct")
    for s in slots:
        _check_slot(t, s)
    if len({t.valence[s] for s in slots}) > 1:
        raise ValueError("cannot antisymmetrize slots of mixed valence")
    perms = list(itertools.permutations(range(len(slots))))
    weight = 1.0 / len(perms)
    # per permutation: the slot each output slot reads, and its parity
    signed = []
    for perm in perms:
        src = list(range(t.rank))
        for pos, s in enumerate(slots):
            src[s] = slots[perm[pos]]
        even = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0
        signed.append((src, even))
    entries = t.entries()
    exact = t.tag == EXACT
    if exact:
        # sum integer numerators, divided once by the scale and len(perms)
        nums, scale = integer_numerators(entries.values())
        entries = dict(zip(entries, nums))
    # the permutations form a group, so the outputs that read a nonzero
    # entry are the orbit of the support
    orbit = {tuple(map(idx.__getitem__, src)) for idx in entries for src, _ in signed}
    out = {}
    for idx in sorted(orbit):
        # an int zero leaves every float sum bit-identical to one from 0.0
        total = 0
        for src, even in signed:
            v = entries.get(tuple(map(idx.__getitem__, src)))
            if v is not None:
                total = total + v if even else total - v
        out[idx] = Fraction(total, scale * len(perms)) if exact else weight * total
    return Tensor.from_entries(t.dim, t.valence, out, t.tag)


def raise_lower(t, slot, metric):
    """Flip one slot's valence through the frame metric.

    Applying the operation twice restores the input exactly in exact
    mode, since g and g_inv are exact inverses.
    """
    _check_slot(t, slot)
    if metric.tag != t.tag:
        raise ValueError("metric and tensor tags differ")
    if metric.dim != t.dim:
        raise ValueError("metric dimension mismatch")
    lowering = t.valence[slot] == UP
    pairing = metric.g if lowering else metric.g_inv
    new_valence = list(t.valence)
    new_valence[slot] = DOWN if lowering else UP
    # the nonzero pairing[i][z] for each z
    columns = [[(i, row[z]) for i, row in enumerate(pairing) if row[z] != 0] for z in range(t.dim)]
    zero = scalar_zero(t.tag)
    out = {}
    # entries come in index order, so each output adds its terms in z order
    for idx, v in t.entries().items():
        for i, c in columns[idx[slot]]:
            key = idx[:slot] + (i,) + idx[slot + 1 :]
            out[key] = out.get(key, zero) + c * v
    return Tensor.from_entries(t.dim, tuple(new_valence), out, t.tag)
