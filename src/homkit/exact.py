"""Exact rational scalars and small dense linear algebra.

Exact values are ``fractions.Fraction``; the float mode mirrors the same
operations on binary64 numbers.  The two modes never mix silently: every
container in the package carries a tag, and operations reject mismatched
tags.  Exact elimination runs on integer rows in one kernel, _echelon;
span_coordinates and the integer inverse take and give integer rows,
and only mat_inverse, row_reduce and solve_in_span give Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"

_TAGS = (EXACT, FLOAT)


def check_tag(tag):
    if tag not in _TAGS:
        raise ValueError(f"unknown scalar tag {tag!r}")
    return tag


def coerce_scalar(value, tag):
    """Coerce a number to the given tag, rejecting cross-tag values."""
    if tag == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise ValueError(f"exact mode cannot hold {value!r} without silent promotion")
    if isinstance(value, Fraction):
        raise ValueError(f"float mode cannot hold exact value {value!r}")
    return float(value)


def scalar_zero(tag):
    return Fraction(0) if tag == EXACT else 0.0


def scalar_one(tag):
    return Fraction(1) if tag == EXACT else 1.0


def parse_scalar(text):
    """Parse a JSON entry: "p/q" strings are exact, finite numbers are floats."""
    if isinstance(text, str):
        try:
            return Fraction(text), EXACT
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None
    if isinstance(text, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(text, int):
        # bare JSON integers are treated as exact
        return Fraction(text), EXACT
    if isinstance(text, float):
        if not math.isfinite(text):
            raise ValueError(f"non-finite scalar {text!r}")
        return float(text), FLOAT
    raise ValueError(f"cannot parse scalar {text!r}")


def format_scalar(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _rational(x, name):
    """An int, Fraction or "p/q" string as a Fraction; anything else is a ValueError naming name."""
    if type(x) is Fraction:
        return x
    # floats are refused: 0.1 would be read as its binary value, not 1/10
    if not isinstance(x, (bool, float)):
        try:
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ValueError(f"{name}: {x!r} is not a rational number")


def integer_numerators(*groups):
    """([L * v for v in group] for each group, then L), L the lcm of all the denominators.

    For ints and Fractions.  A sum of products of k such values is then
    summed on Python ints and divided by L**k once, instead of building
    a normalized Fraction (one gcd) per multiply-add.
    """
    pairs = [[v.as_integer_ratio() for v in group] for group in groups]
    scale = math.lcm(*{d for group in pairs for _, d in group})
    return (*([p * (scale // d) for p, d in group] for group in pairs), scale)


# ---------------------------------------------------------------------------
# dense matrix helpers (lists of lists, single tag)
# ---------------------------------------------------------------------------


def mat_identity(n, tag=EXACT):
    one, zero = scalar_one(tag), scalar_zero(tag)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, tag=EXACT):
    """a @ b over the nonzero entries; each output adds its terms in inner-index order."""
    b_rows = [[(j, y) for j, y in enumerate(row) if y != 0] for row in b]
    zero = scalar_zero(tag)
    out = []
    for a_row in a:
        row = [zero] * len(b[0])
        for l, x in enumerate(a_row):
            if x != 0:
                for j, y in b_rows[l]:
                    row[j] += x * y
        out.append(row)
    return out


def mat_inverse(a, tag=EXACT):
    """Inverse; raises ValueError on a singular matrix.  Exact matrices
    are inverted on integer rows, floats keep partial-pivot Gauss-Jordan."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    work = [[coerce_scalar(x, tag) for x in row] for row in a]
    if tag == EXACT:
        *rows, scale = integer_numerators(*work)
        rows, den = _inverse_numerators(rows, scale)
        return [[Fraction(x, den) for x in row] for row in rows]
    inv = mat_identity(n, tag)
    for col in range(n):
        best, pivot = -1.0, None
        for r in range(col, n):
            if abs(work[r][col]) > best:
                best, pivot = abs(work[r][col]), r
        if pivot is None or best == 0.0:
            raise ValueError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f != 0:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


# ---------------------------------------------------------------------------
# exact row reduction and span bookkeeping
# ---------------------------------------------------------------------------


def _eliminate(ech, row):
    """(s * row - a combination of the echelon rows, s) with s > 0: zero at every pivot."""
    s = 1
    for p, b in ech.items():
        x = row[p]
        if x:
            g = math.gcd(x, b[p])
            u, v = b[p] // g, x // g
            row = [u * y - v * z for y, z in zip(row, b)]
            s *= u
    return row, s


def _echelon(rows, ech=None):
    """Reduced echelon form of integer rows as {pivot column: row}, inserted into ech if given.

    Each row is primitive with a positive pivot and zeros in the other
    pivot columns: divided by its pivot, it is the unique reduced row
    echelon form.  Rows in the span add nothing.
    """
    ech = {} if ech is None else ech
    for row in rows:
        row, _ = _eliminate(ech, row)
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        g = math.gcd(*row) if row[lead] > 0 else -math.gcd(*row)
        row = [x // g for x in row]
        for p, b in ech.items():
            if b[lead]:
                b, _ = _eliminate({lead: row}, b)
                g = math.gcd(*b)
                ech[p] = [y // g for y in b]
        ech[lead] = row
    return ech


def _inverse_numerators(rows, scale=1):
    """(int rows, den) of the inverse of the square int matrix A = rows / scale.

    The reduced echelon rows of [A | I] hold A^-1 in their tails, each
    over its pivot; a pivot in the I half means A is singular."""
    n = len(rows)
    ech = _echelon([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)])
    if any(p >= n for p in ech):
        raise ValueError("singular matrix")
    den = math.lcm(*(b[p] for p, b in ech.items()))
    g = math.gcd(scale, den)
    return [[x * (scale // g) * (den // ech[p][p]) for x in ech[p][n:]] for p in range(n)], den // g


def row_reduce(rows):
    """Reduced row echelon form over the rationals.

    Returns (basis_rows, pivot_columns); zero rows are dropped, so the
    basis rows span the same space as the input and rank decisions need
    no tolerance.  The rows are eliminated on integer numerators.
    """
    ech = _echelon(integer_numerators(*rows)[:-1])
    pivots = sorted(ech)
    return [[Fraction(x, ech[p][p]) for x in ech[p]] for p in pivots], pivots


def solve_in_span(basis_rows, pivots, target):
    """Express target in the row_reduce basis; None if outside the span.

    The coefficient of each row is the target's entry at its pivot; the
    residual is reduced on integers.
    """
    ech = {p: integer_numerators(row)[0] for row, p in zip(basis_rows, pivots)}
    residual, _ = _eliminate(ech, integer_numerators(target)[0])
    return None if any(residual) else [target[p] for p in pivots]


def span_coordinates(vectors, targets):
    """(int coefficients, den) of each int target row in the independent
    int vector rows, in lowest terms, or None outside their span.

    The vectors are eliminated once, each tagged with a unit tail, so
    every echelon row carries the combination of vectors it holds.  Each
    target is then reduced against the heads, and what is left in the
    tail is minus its coefficients.  Raises ValueError when the vectors
    are dependent."""
    k = len(vectors)
    n = len(vectors[0]) if k else 0
    ech = _echelon([[*v, *(int(p == q) for q in range(k))] for p, v in enumerate(vectors)])
    if any(p >= n for p in ech):
        raise ValueError("vectors are linearly dependent")
    out = []
    for target in targets:
        row, s = _eliminate(ech, [*target, *[0] * k])
        m = len(target)
        g = math.gcd(s, *row[m:])
        out.append(None if any(row[:m]) else ([-x // g for x in row[m:]], s // g))
    return out
