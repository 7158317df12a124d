"""Multi-index tensors over exact rationals or binary64 floats.

A tensor stores its nonzero components as (index, int numerator) pairs
in lexicographic index order over one positive denominator (the
curvature chain's SparseArray holds the same in an unsorted dict, built
once from its entries and never written); floats sit over 1.
Fractions are built only where values leave (items, components,
to_json).  All values are immutable and every operation is a pure
function, so tensors are safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property

from .exact import (
    EXACT,
    FLOAT,
    check_tag,
    coerce_scalar,
    format_scalar,
    integer_numerators,
    mat_inverse,
    parse_scalar,
    scalar_one,
    scalar_zero,
)

UP = "u"
DOWN = "d"

# largest dim**rank a tensor may span; checked before any allocation
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


def _frozen(cls):
    """Make cls a frozen record of its annotated fields, as @dataclass(frozen=True) would.

    __init__ (unless cls has one) takes the fields in order, a missing
    one its class attribute (a dict copied per instance), and then calls
    __post_init__ if cls has one; ==, hash and repr read the field tuple
    (two fields or more); setting or deleting an attribute raises.
    object.__setattr__ and cached_property still write the instance dict.
    """
    names = cls._fields = tuple(cls.__annotations__)
    defaults = cls._defaults = {k: vars(cls)[k] for k in names if k in vars(cls)}
    values, post, set_field = operator.attrgetter(*names), hasattr(cls, "__post_init__"), object.__setattr__

    def bind(args, kwargs):
        fields = dict(zip(names, args), **kwargs)
        # an extra positional argument or a repeated one leaves fields short
        if len(fields) < len(args) + len(kwargs) or fields.keys() - names:
            raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument")
        for k in names[len(args):]:
            if k not in fields:
                if k not in defaults:
                    raise TypeError(f"{cls.__qualname__}() missing argument {k!r}")
                fields[k] = dict(defaults[k]) if type(defaults[k]) is dict else defaults[k]
        return [fields[k] for k in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        # one by one: filled through vars(self), each instance would hold its own dict
        for k, v in zip(names, args):
            set_field(self, k, v)
        if post:
            self.__post_init__()

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    cls.__hash__ = lambda self: hash(values(self))
    for method in (__eq__, __repr__, __setattr__, __delattr__, __init__):
        if method.__name__ not in vars(cls):
            setattr(cls, method.__name__, method)
    return cls


def _check_shape(dim, valence, tag):
    check_tag(tag)
    if dim < 1:
        raise ValueError("dim must be positive")
    if any(v not in (UP, DOWN) for v in valence):
        raise ValueError(f"bad valence {valence!r}")


@_frozen
class Tensor:
    """A rank-r tensor on a D-dimensional space, stored by its nonzero entries.

    valence holds one "u"/"d" flag per slot; nums holds the nonzero
    components as sorted (index tuple, numerator) pairs over den, with
    gcd(den, *numerators) == 1, or float values over den == 1.  A zero is
    never stored, a float -0.0 included, so the dense view reads every
    absent component as Fraction(0) or +0.0, and equal tensors have
    equal fields.
    """

    dim: int
    valence: tuple
    nums: tuple
    den: int
    tag: str = EXACT

    def __init__(self, dim, valence, components, tag=EXACT):
        """Build from all D**r components in index order; zeros are dropped."""
        valence = tuple(valence)
        _check_shape(dim, valence, tag)
        if len(components) != dim ** len(valence):
            raise ValueError(f"expected {dim ** len(valence)} components, got {len(components)}")
        indices = itertools.product(range(dim), repeat=len(valence))
        entries = dict(zip(indices, (coerce_scalar(c, tag) for c in components)))
        # frozen, so the fields go straight into the instance dict
        vars(self).update(vars(self._sparse(dim, valence, entries, tag)))

    @classmethod
    def _sparse(cls, dim, valence, entries, tag, den=None):
        """A tensor from checked {index: value}, or int numerators over den > 0; zeros dropped.

        The one place values become numerators, over the lcm of their denominators.  Only the
        nonzero keys are sorted (they are unique), and a den > 1 is reduced by one gcd."""
        t = cls.__new__(cls)
        keys = sorted([idx for idx, v in entries.items() if v != 0])
        values = list(map(entries.__getitem__, keys))
        if tag != EXACT:
            den = 1
        elif den is None:
            values, den = integer_numerators(values)
        elif den != 1 and (g := math.gcd(den, *entries.values())) > 1:
            den, values = den // g, [v // g for v in values]
        vars(t).update(dim=dim, valence=valence, nums=tuple(zip(keys, values)), den=den, tag=tag)
        return t

    @property
    def rank(self):
        return len(self.valence)

    @property
    def items(self):
        """The nonzero components as sorted (index tuple, value) pairs, built on each read."""
        if self.tag != EXACT:
            return self.nums
        return tuple((idx, Fraction(v, self.den)) for idx, v in self.nums)

    @cached_property
    def components(self):
        """The dense view: all D**r components in index order."""
        comps = [scalar_zero(self.tag)] * self.dim ** self.rank
        for idx, v in self.items:
            comps[self.flat(idx)] = v
        return tuple(comps)

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
        """Nonzero components as {index tuple: value} in index order, the inverse of ``from_entries``."""
        return dict(self.items)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zeros(cls, dim, valence, tag=EXACT):
        return cls.from_entries(dim, valence, {}, tag)

    @classmethod
    def from_entries(cls, dim, valence, entries, tag=EXACT):
        """Build from {index: value}; absent indices and zero values are zero."""
        valence = tuple(valence)
        rank = len(valence)
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if dim ** rank > _MAX_COMPONENTS:
            raise ValueError(
                f"tensor of dim {dim} and rank {rank} exceeds {_MAX_COMPONENTS} components"
            )
        pairs = [(tuple(idx), v) for idx, v in entries.items()]
        for idx, _ in pairs:
            _flat(idx, dim, rank)
        _check_shape(dim, valence, tag)
        return cls._sparse(dim, valence, {idx: coerce_scalar(v, tag) for idx, v in pairs}, tag)

    @classmethod
    def delta(cls, dim, tag=EXACT):
        """Identity map as a (1,1) tensor."""
        one = scalar_one(tag)
        return cls.from_entries(dim, (UP, DOWN), {(i, i): one for i in range(dim)}, tag)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        return _sum((self, other))

    def __sub__(self, other):
        return _sum((self,), (other,))

    def __neg__(self):
        return self._sparse(self.dim, self.valence, {idx: -v for idx, v in self.nums}, self.tag, self.den)

    def scale(self, c):
        c = coerce_scalar(c, self.tag)
        p, q = c.as_integer_ratio() if self.tag == EXACT else (c, 1)
        return self._sparse(self.dim, self.valence, {idx: p * v for idx, v in self.nums},
                            self.tag, self.den * q)

    def is_zero(self, tol=None):
        if self.tag == EXACT:
            return not self.nums
        tol = 0.0 if tol is None else tol
        return all(abs(v) <= tol for _, v in self.nums)

    # -- JSON form --------------------------------------------------------

    def to_json(self):
        return {
            "dim": self.dim,
            "rank": self.rank,
            "valence": list(self.valence),
            "entries": {",".join(map(str, idx)): format_scalar(v) for idx, v in self.items},
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data["valence"], (list, tuple)):
            raise ValueError(f'valence must be a list of "u"/"d" flags, not {data["valence"]!r}')
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


@_frozen
class FrameMetric:
    """A constant invertible symmetric bilinear form and its inverse, as rows of values.

    Each is also built once into a private matrix Tensor, _g (d, d) and _g_inv (u, u): int
    numerators over one den, floats over 1.  These are not fields: ==, hash, repr and to_json
    read the rows, and every contraction, raise, split and check reads the matrix Tensors."""

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
        if any(len(m) != self.dim or any(len(row) != self.dim for row in m) for m in (g, ginv)):
            raise ValueError(f"g and g_inv must be {self.dim} x {self.dim}")
        vars(self).update(_g=_matrix(g, self.tag), _g_inv=_matrix(ginv, self.tag, valence=(UP, UP)))
        _check_symmetric(self._g)
        prod = _contract(self._g, self._g_inv)
        if prod.den != 1 or _differ(dict(prod.nums), {(i, i): 1 for i in range(self.dim)}, self.tag):
            raise ValueError("g_inv is not the inverse of g")

    @classmethod
    def from_matrix(cls, rows, tag=None):
        if tag is None:
            tag = FLOAT if any(isinstance(x, float) for row in rows for x in row) else EXACT
        g = [[coerce_scalar(x, tag) for x in row] for row in rows]
        if all(len(row) == len(g) for row in g):  # asymmetry is refused before the inverse
            _check_symmetric(_matrix(g, tag))
        return cls(len(g), tuple(map(tuple, g)), tuple(map(tuple, mat_inverse(g, tag))), tag)

    @classmethod
    def _self_inverse(cls, dim, ones, tag):
        """The metric whose rows hold 1 at the index pairs in ones and 0 elsewhere, its own inverse."""
        one, zero = scalar_one(tag), scalar_zero(tag)
        rows = tuple(tuple(one if (i, j) in ones else zero for j in range(dim)) for i in range(dim))
        return cls(dim, rows, rows, tag)

    @classmethod
    def euclidean(cls, dim, tag=EXACT):
        return cls._self_inverse(dim, {(i, i) for i in range(dim)}, tag)

    @classmethod
    def light_cone(cls, n, tag=EXACT):
        """Lorentzian frame metric in the order (+, -, 1..n).

        The two null directions pair to 1 and the n transverse directions
        are orthonormal, so the matrix is its own inverse.
        """
        return cls._self_inverse(n + 2, {(0, 1), (1, 0), *((i, i) for i in range(2, n + 2))}, tag)

    @classmethod
    def diagonal(cls, entries, tag=EXACT):
        d = len(entries)
        return cls.from_matrix([[s if i == j else 0 for j in range(d)] for i, s in enumerate(entries)], tag)

    def to_json(self):
        return [[format_scalar(x) for x in row] for row in self.g]

    @classmethod
    def from_json(cls, rows):
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != len(rows) for row in rows
        ):
            raise ValueError("metric must be a square array")
        parsed = [[parse_scalar(x) for x in row] for row in rows]
        tags = {t for row in parsed for _, t in row}
        if len(tags) > 1:
            raise ValueError("mixed exact and float metric entries")
        tag = tags.pop() if tags else EXACT
        return cls.from_matrix([[v for v, _ in row] for row in parsed], tag)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _sum(plus, minus=()):
    """The tensors in plus less those in minus, of one shape and tag, built once over the lcm of
    their dens.  Each entry adds its terms in order, a subtracted v as + (-1) v, so a float sum is
    bit for bit the chain of + and - it replaces (IEEE 754 leaves the sign of a nan open)."""
    first, terms = plus[0], [*((t, 1) for t in plus), *((t, -1) for t in minus)]
    for t, _ in terms:
        if not isinstance(t, Tensor):
            raise TypeError("expected a Tensor")
        if (t.dim, t.valence) != (first.dim, first.valence):
            raise ValueError("tensor shapes differ")
        if t.tag != first.tag:
            raise ValueError(f"mixed scalar tags {first.tag!r} and {t.tag!r}")
    den, out = math.lcm(*(t.den for t, _ in terms)), {}
    for t, sign in terms:
        b = sign * (den // t.den)
        for idx, v in t.nums:
            out[idx] = out[idx] + b * v if idx in out else b * v
    return Tensor._sparse(first.dim, first.valence, out, first.tag, den)


def _matrix(rows, tag=EXACT, den=None, valence=(DOWN, DOWN)):
    """The Tensor of a square matrix given as rows of values, or of int numerators over den."""
    entries = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return Tensor._sparse(len(rows), valence, entries, tag, den)


def _differ(a, b, tag):
    """Whether {index: value} a and b differ at an index, floats by more than 1e-13 (!= tested first)."""
    tol = 0 if tag == EXACT else 1e-13
    return any((v := a.get(k, 0)) != (w := b.get(k, 0)) and abs(v - w) > tol for k in a.keys() | b.keys())


def _check_symmetric(g):
    if _differ(dict(g.nums), {(j, i): v for (i, j), v in g.nums}, g.tag):
        raise ValueError("metric is not symmetric")


def _check_slot(t, slot):
    if not 0 <= slot < t.rank:
        raise ValueError(f"slot {slot} out of range for rank {t.rank}")


def _antisymmetry_violations(entries, slot_a, slot_b, tol=None):
    """Where t[..i..j..] = -t[..j..i..] fails, for slot_a < slot_b.

    Reads {index: value}, a tensor's numerators over its one denominator
    included, and returns, in index order, each failing pair once by its
    member with i <= j.  The test is exact unless tol bounds the
    magnitude of the pair's sum.
    """
    bad = []
    for idx, v in entries.items():
        i, j = idx[slot_a], idx[slot_b]
        swapped = idx[:slot_a] + (j,) + idx[slot_a + 1 : slot_b] + (i,) + idx[slot_b + 1 :]
        if i > j and swapped in entries:
            continue  # the pair is tested from its other member
        w = entries.get(swapped, 0)
        if (v != -w) if tol is None else (abs(v + w) > tol):
            bad.append(min(idx, swapped))
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
        pairing = metric._g_inv if va == DOWN else metric._g
    else:
        pairing = Tensor.delta(t.dim, t.tag)
    new_valence = tuple(v for k, v in enumerate(t.valence) if k not in (slot_a, slot_b))
    pairs, out = dict(pairing.nums), {}
    # entries come in index order, so each output adds its terms in (p, q)
    # order; zero terms are skipped, and an int 0 adds to a float as 0.0 does
    for idx, v in t.nums:
        c = pairs.get((idx[slot_a], idx[slot_b]), 0)
        if c != 0:
            key = idx[:slot_a] + idx[slot_a + 1 : slot_b] + idx[slot_b + 1 :]
            out[key] = out.get(key, 0) + c * v
    return Tensor._sparse(t.dim, new_valence, out, t.tag, t.den * pairing.den)


def antisymmetrize(t, slots):
    """Signed average over permutations of the listed slots (idempotent)."""
    slots = tuple(slots)
    if len(set(slots)) != len(slots):
        raise ValueError("slots must be distinct")
    for s in slots:
        _check_slot(t, s)
    if len({t.valence[s] for s in slots}) > 1:
        raise ValueError("cannot antisymmetrize slots of mixed valence")
    # the signed copies are added in permutation order, so each float output
    # adds its nonzero terms in that order and is weighted once
    total, count = None, math.factorial(len(slots))
    for perm in itertools.permutations(range(len(slots))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        # output slot slots[perm[pos]] reads input slot slots[pos]
        src = list(range(t.rank))
        for pos, s in enumerate(slots):
            src[slots[perm[pos]]] = s
        moved = {tuple(map(idx.__getitem__, src)): sign * v for idx, v in t.nums}
        copy = Tensor._sparse(t.dim, t.valence, moved, t.tag, t.den)
        total = copy if total is None else total + copy
    return total.scale(Fraction(1, count) if t.tag == EXACT else 1.0 / count)


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
    pairing = metric._g if lowering else metric._g_inv
    new_valence = list(t.valence)
    new_valence[slot] = DOWN if lowering else UP
    return _map_slot(t, (slot,), pairing, tuple(new_valence))


def _map_slot(t, slots, m, valence):
    """The sum over the given slots of t with that slot's index z sent to sum_i m[i, z] e_i,
    under valence; m is a matrix Tensor of t's tag, so the result is over t.den * m.den."""
    # the nonzero m[i, z] for each z, in i order
    columns, out = [[] for _ in range(t.dim)], {}
    for (i, z), c in m.nums:
        columns[z].append((i, c))
    # entries come in index order, so each output adds its terms of one slot in z order
    for slot in slots:
        for idx, v in t.nums:
            for i, c in columns[idx[slot]]:
                key = idx[:slot] + (i,) + idx[slot + 1 :]
                out[key] = out.get(key, 0) + c * v
    return Tensor._sparse(t.dim, valence, out, t.tag, t.den * m.den)


def _contract(a, b, slot=0):
    """sum_l a[.., l] b[.., l, ..], l in the given slot of b, indexed by
    a's other slots and then b's (a @ b for two matrices)."""
    by_l = {}
    for idx, v in b.nums:
        by_l.setdefault(idx[slot], []).append((idx[:slot] + idx[slot + 1 :], v))
    out = {}
    for idx, v in a.nums:
        for rest, w in by_l.get(idx[-1], ()):
            key = idx[:-1] + rest
            out[key] = out.get(key, 0) + v * w
    valence = a.valence[:-1] + b.valence[:slot] + b.valence[slot + 1 :]
    return Tensor._sparse(a.dim, valence, out, a.tag, a.den * b.den)


def _dense(t):
    """t's numerators in index order, zeros included, over t.den."""
    out = [0] * t.dim**t.rank
    for idx, v in t.nums:
        out[t.flat(idx)] = v
    return out
