"""A singular homogeneous plane wave's data and its isometry bracket table.

PlaneWaveData parses F and H once into the integer matrix Tensors that
every reader takes.  The table is one exact Tensor built on them, and the
one place its formulas are written.  No numpy here.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import _rational
from . import lie_algebra  # read only by the table builders, so the wave data never runs it
from .tensor_core import _antisymmetry_violations, _frozen, _map_slot, _matrix


@_frozen
class PlaneWaveData:
    """Transverse dimension n, antisymmetric F and symmetric H (exact), each also built once
    into a matrix Tensor, _F and _H: not fields, so ==, hash, repr and to_json read the rows."""

    n: int
    F: tuple
    H: tuple

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, int):
            raise ValueError(f"n must be a positive integer, not {self.n!r}")
        if self.n < 1:
            raise ValueError("transverse dimension must be at least 1")
        # the containers first: a string row would be read character by character
        for name, rows in (("F", self.F), ("H", self.H)):
            square = isinstance(rows, (list, tuple)) and len(rows) == self.n
            if not square or any(not isinstance(r, (list, tuple)) or len(r) != self.n for r in rows):
                raise ValueError(f"{name} must be n x n")
        F = tuple(tuple(_rational(x, "F") for x in row) for row in self.F)
        H = tuple(tuple(_rational(x, "H") for x in row) for row in self.H)
        vars(self).update(F=F, H=H, _F=_matrix(F), _H=_matrix(H))
        if _antisymmetry_violations(dict(self._F.nums), 0, 1):
            raise ValueError("F must be antisymmetric")
        if dict(self._H.nums) != {(j, i): v for (i, j), v in self._H.nums}:
            raise ValueError("H must be symmetric")

    @property
    def dim(self):
        return self.n + 2

    def to_json(self):
        return {
            "n": self.n,
            "F": [[str(x) for x in row] for row in self.F],
            "H": [[str(x) for x in row] for row in self.H],
        }

    @classmethod
    def from_json(cls, data):
        # __post_init__ reads each entry into a Fraction
        return cls(data["n"], data["F"], data["H"])


def boost_block(pw):
    """Null-boost coefficient matrix of [U, X_i]: 2H - F - F^2.

    H is the chart profile at z = 0.  The F^2 term is the centrifugal
    shift between the chart profile and the stationary-form profile of
    the same wave; it vanishes with F, where the two parametrizations
    agree.  With this block the bracket table below is exactly the
    algebra reconstructed from (S, curvature) of the chart geometry.
    """
    n, table = pw.n, _wave_table(pw._F, pw._H).entries()
    return [[table.get((0, 2 + i, 2 + n + j), Fraction(0)) for j in range(n)] for i in range(n)]


def _wave_table(f, h):
    """The exact Tensor f_ab^c of the wave algebra on (U, V, X_i, Xb_i), from n x n Tensors F, H.

    [U,V] = V, [U,Xb_i] = X_i, [X_i,X_j] = 2F_ij V,
    [X_i,Xb_j] = -delta_ij V,
    [U,X_i] = (2H - F - F^2)_ij Xb_j + (delta + 2F)_ij X_j.
    """
    n, f2 = f.dim, _map_slot(f, (0,), f, f.valence)
    canonical = {(0, 1, 1): 1}
    for i in range(n):
        canonical[0, 2 + i, 2 + i] = canonical[0, 2 + n + i, 2 + i] = 1
        canonical[2 + i, 2 + n + i, 1] = -1
    # F is antisymmetric: 2F stays off the diagonal that delta fills
    parts = [(canonical, 1), ({(0, 2 + i, 2 + j): 2 * v for (i, j), v in f.nums}, f.den),
             ({(2 + i, 2 + j, 1): 2 * v for (i, j), v in f.nums}, f.den)]
    # the boost block 2H - F - F^2 of [U, X_i]
    parts += [({(0, 2 + i, 2 + n + j): c * v for (i, j), v in t.nums}, t.den)
              for t, c in ((h, 2), (f, -1), (f2, -1))]
    return lie_algebra._table(parts, 2 * n + 2)


def pw_isometry_algebra(pw):
    """Exact bracket table on (U, V, X_i, Xb_i), dimension 2n + 2 (see _wave_table)."""
    labels = ("U", "V", *(f"X{i+1}" for i in range(pw.n)), *(f"Xb{i+1}" for i in range(pw.n)))
    return lie_algebra.LieAlgebra._antisymmetric(labels, _wave_table(pw._F, pw._H))
