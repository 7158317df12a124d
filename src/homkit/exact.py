"""Exact rational scalars and small dense linear algebra.

Everything here works on plain nested lists.  Exact values are
``fractions.Fraction``; the float mode mirrors the same operations on
binary64 numbers.  The two modes never mix silently: every container in
the package carries a tag, and operations reject mismatched tags.
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
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
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


def integer_numerators(values):
    """([L * v for v in values], L) with L the lcm of the denominators.

    For ints and Fractions.  A sum of products of k such values is then
    summed on Python ints and divided by L**k once, instead of building
    a normalized Fraction (one gcd) per multiply-add.
    """
    pairs = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*{d for _, d in pairs})
    return [p * (scale // d) for p, d in pairs], scale


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
    """Gauss-Jordan inverse; raises ValueError on a singular matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    work = [[coerce_scalar(x, tag) for x in row] for row in a]
    inv = mat_identity(n, tag)
    for col in range(n):
        pivot = None
        if tag == EXACT:
            for r in range(col, n):
                if work[r][col] != 0:
                    pivot = r
                    break
        else:
            best = -1.0
            for r in range(col, n):
                if abs(work[r][col]) > best:
                    best, pivot = abs(work[r][col]), r
            if best == 0.0:
                pivot = None
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        p = work[col][col]
        if tag == EXACT and p == 0:
            raise ValueError("singular matrix")
        work[col] = [x / p for x in work[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r == col:
                continue
            f = work[r][col]
            if f == 0:
                continue
            work[r] = [x - f * y for x, y in zip(work[r], work[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


# ---------------------------------------------------------------------------
# exact row reduction and span bookkeeping
# ---------------------------------------------------------------------------


def row_reduce(rows):
    """Reduced row echelon form over the rationals.

    Returns (basis_rows, pivot_columns); zero rows are dropped, so the
    basis rows span the same space as the input and rank decisions need
    no tolerance.
    """
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    basis, pivots = [], []
    ncols = len(rows[0]) if rows else 0
    for row in work:
        row = list(row)
        for b, p in zip(basis, pivots):
            if row[p] != 0:
                f = row[p]
                row = [x - f * y for x, y in zip(row, b)]
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        for i, (b, p) in enumerate(zip(basis, pivots)):
            if b[lead] != 0:
                f = b[lead]
                basis[i] = [x - f * y for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], [pivots[i] for i in order]


def solve_in_span(basis_rows, pivots, target):
    """Express target in the row_reduce basis; None if outside the span."""
    residual = list(target)
    coeffs = []
    for row, p in zip(basis_rows, pivots):
        c = residual[p]
        coeffs.append(c)
        if c != 0:
            residual = [x - c * y for x, y in zip(residual, row)]
    if any(x != 0 for x in residual):
        return None
    return coeffs


def span_coordinates(vectors, targets):
    """Coefficients of each target in the independent vectors, or None.

    The vectors are row-reduced once, each tagged with a unit tail, so
    every echelon row carries the combination of vectors it holds; each
    target is then read with one solve_in_span pass.  Raises ValueError
    when the vectors are dependent.
    """
    k = len(vectors)
    tagged = [list(v) + [Fraction(int(p == q)) for q in range(k)] for p, v in enumerate(vectors)]
    rows, pivots = row_reduce(tagged)
    n = len(rows[0]) - k if rows else 0
    if any(p >= n for p in pivots):
        raise ValueError("vectors are linearly dependent")
    heads = [row[:n] for row in rows]
    tails = [row[n:] for row in rows]
    out = []
    for target in targets:
        a = solve_in_span(heads, pivots, target)
        if a is not None:
            a = [sum(x * t[p] for x, t in zip(a, tails)) for p in range(k)]
        out.append(a)
    return out
