"""Exact arrays on integer numerators.

QArrays carry plane_wave's exact curvature chain.  A multiply-add of two
Fractions normalizes its result with a gcd, so Fraction object arrays
pay one gcd per term.  A QArray holds an exact array as an object array
of Python ints over one positive int denominator instead: sums rescale
both operands to the lcm of their denominators, products multiply
numerators and denominators, and a gcd is taken only when the
denominator grows past _GCD_BOUND.  Python ints do not overflow, so
every result is exact, and no Fraction is built: a caller reads num and
den.  einsum and tensordot contract QArrays on their numerators and
multiply their denominators; they refuse Fraction object arrays, which
would pay the gcd per term again.  Float64 einsum runs np.einsum, and
float64 tensordot the one np.dot call np.tensordot makes: the bits are numpy's.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exact import integer_numerators

_EXACT_TYPES = {int, Fraction}
# a larger denominator is reduced by the gcd of all entries first
_GCD_BOUND = 1 << 64


def _numerators(a):
    """(Python-int object array L * a, L) for an object array of ints and Fractions."""
    flat = a.ravel().tolist()
    if not set(map(type, flat)) <= _EXACT_TYPES:
        bad = next(v for v in flat if type(v) not in _EXACT_TYPES)
        raise TypeError(f"exact array entry {bad!r} is not an int or a Fraction")
    ints, scale = integer_numerators(flat)
    return np.array(ints, dtype=object).reshape(a.shape), scale


def _ratio(x):
    """(numerators, denominator) of a QArray, an int object array or an int or Fraction."""
    if isinstance(x, QArray):
        return x.num, x.den
    return (x, 1) if isinstance(x, np.ndarray) else x.as_integer_ratio()


def _on_numerators(name):
    """A QArray method that applies the ndarray method name to num alone."""
    return lambda self, *args: QArray(getattr(self.num, name)(*args), self.den)


class QArray:
    """An exact array: object array num of Python ints over one positive int den."""

    __slots__ = ("num", "den")
    # numpy defers to the reflected operators instead of broadcasting a QArray as a scalar
    __array_ufunc__ = None

    def __init__(self, num, den=1):
        if den > _GCD_BOUND:
            g = math.gcd(den, *np.ravel(num).tolist())
            num, den = num // g, den // g
        self.num, self.den = num, den

    @classmethod
    def of(cls, a):
        """The QArray of an int/Fraction array or nested list; a QArray is returned as is."""
        return a if isinstance(a, cls) else cls(*_numerators(np.array(a, dtype=object)))

    shape = property(lambda self: self.num.shape)
    ndim = property(lambda self: self.num.ndim)
    __len__ = lambda self: len(self.num)
    __getitem__ = _on_numerators("__getitem__")
    transpose = _on_numerators("transpose")
    swapaxes = _on_numerators("swapaxes")
    __neg__ = _on_numerators("__neg__")

    def __setitem__(self, idx, value):
        num, den = _ratio(value)
        lcm = math.lcm(self.den, den)
        if lcm != self.den:
            self.num, self.den = self.num * (lcm // self.den), lcm
        self.num[idx] = num * (lcm // den)

    def __add__(self, other):
        num, den = _ratio(other)
        if den == self.den:
            return QArray(self.num + num, den)
        lcm = math.lcm(self.den, den)
        return QArray(self.num * (lcm // self.den) + num * (lcm // den), lcm)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        num, den = _ratio(other)
        return QArray(self.num * num, self.den * den)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, x):
        p, q = x.as_integer_ratio()
        if not p:
            raise ZeroDivisionError("QArray division by zero")
        return QArray(self.num * (q if p > 0 else -q), self.den * abs(p))

    def __matmul__(self, other):
        return QArray(self.num @ other.num, self.den * other.den)


def _numeric(name, ops):
    """ops, refused unless all are numeric arrays: QArrays do not mix with them."""
    if any(isinstance(op, QArray) or op.dtype.hasobject for op in ops):
        kinds = ", ".join("QArray" if isinstance(op, QArray) else f"dtype {op.dtype}" for op in ops)
        raise TypeError(f"{name} operands must be all QArrays or all numeric, not {kinds}")
    return ops


def _tensordot(a, b, axes):
    """np.tensordot's one np.dot call: a's summed axes moved last, b's first, each made 2-D."""
    try:
        axes_a, axes_b = axes
    except TypeError:  # an int N pairs a's last N axes with b's first N
        axes_a, axes_b = range(-axes, 0), range(axes)
    ra, rb = range(a.ndim), range(b.ndim)  # ra[k] refuses k out of range, counts k < 0 from the end
    axes_a = [ra[axes_a]] if hasattr(axes_a, "__index__") else [ra[k] for k in axes_a]
    axes_b = [rb[axes_b]] if hasattr(axes_b, "__index__") else [rb[k] for k in axes_b]
    at = a.transpose([k for k in ra if k not in axes_a] + axes_a)
    bt = b.transpose(axes_b + [k for k in rb if k not in axes_b])
    free_a, free_b = at.shape[: a.ndim - len(axes_a)], bt.shape[len(axes_b) :]
    if at.shape[len(free_a) :] != bt.shape[: len(axes_b)]:
        raise ValueError("shape-mismatch for sum")
    n = math.prod(bt.shape[: len(axes_b)])
    at, bt = at.reshape(math.prod(free_a), n), bt.reshape(n, math.prod(free_b))
    return np.dot(at, bt).reshape(free_a + free_b)


def tensordot(a, b, axes):
    """np.tensordot; on integer numerators, giving a QArray, when both operands are QArrays."""
    if isinstance(a, QArray) and isinstance(b, QArray):
        return QArray(_tensordot(a.num, b.num, axes), a.den * b.den)
    return _tensordot(*_numeric("tensordot", (a, b)), axes)


def einsum(spec, *ops):
    """np.einsum; on integer numerators, giving a QArray, when every operand is a QArray.

    QArrays do not mix with numeric arrays, and object arrays are refused."""
    for op in ops:  # a plain loop; all-float operands reach the last line
        if type(op) is not np.ndarray or op.dtype.hasobject:
            if all(isinstance(q, QArray) for q in ops):
                return QArray(np.einsum(spec, *(q.num for q in ops)), math.prod(q.den for q in ops))
            return np.einsum(spec, *_numeric("einsum", ops))
    return np.einsum(spec, *ops)
