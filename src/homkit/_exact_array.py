"""Exact contractions of Fraction object arrays on integer numerators.

A multiply-add of two Fractions normalizes its result with a gcd, so
an einsum over dtype=object Fraction arrays pays one gcd per term.
Here each operand is scaled by the lcm L of its entries' denominators
into an array of Python ints, numpy contracts the ints, and each output
entry is divided by the product of the scales once:
sum(prod(a_k)) = sum(prod(L_k a_k)) / prod(L_k).  Python ints do not
overflow, so the result is exact and every entry is a Fraction.

float64 operands go straight to numpy with the same arguments, so float
results are bit-identical to a plain np.einsum or @.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .exact import integer_numerators

_EXACT_TYPES = {int, Fraction}
_ZERO = Fraction(0)


def _numerators(a):
    """(Python-int object array L * a, L) for an object array of ints and Fractions."""
    if a.dtype != object:
        # tolist would turn int64 and float64 entries into Python scalars
        raise TypeError(f"exact operand has dtype {a.dtype}, not object")
    flat = a.ravel().tolist()
    if not set(map(type, flat)) <= _EXACT_TYPES:
        bad = next(v for v in flat if type(v) not in _EXACT_TYPES)
        raise TypeError(f"exact array entry {bad!r} is not an int or a Fraction")
    ints, scale = integer_numerators(flat)
    return np.array(ints, dtype=object).reshape(a.shape), scale


def _fractions(out, scale):
    """np.einsum's int result divided by scale, as Fractions of the same shape."""
    if not isinstance(out, np.ndarray):
        return Fraction(out, scale)
    # contractions of sparse tensors are mostly zero: share one Fraction for them
    fracs = [Fraction(v, scale) if v else _ZERO for v in out.ravel().tolist()]
    return np.array(fracs, dtype=object).reshape(out.shape)


def _exact(ops):
    return any(isinstance(op, np.ndarray) and op.dtype == object for op in ops)


def einsum(spec, *ops, **kw):
    """np.einsum, on integer numerators when any operand is an object array."""
    if not _exact(ops):
        return np.einsum(spec, *ops, **kw)
    ints, scales = zip(*(_numerators(np.asarray(op)) for op in ops))
    return _fractions(np.einsum(spec, *ints, **kw), math.prod(scales))


def matmul(a, b):
    """a @ b, on integer numerators when either operand is an object array."""
    if not _exact((a, b)):
        return a @ b
    (ia, la), (ib, lb) = _numerators(np.asarray(a)), _numerators(np.asarray(b))
    return _fractions(ia @ ib, la * lb)
