"""Independent reference results for the benchmark's checks.

Everything here is written from the documented conventions (README:
frame order, wave bracket table, the T1/T2/T3 split), in plain
``Fraction`` arithmetic, and imports nothing from ``homkit``.  The
benchmark compares each homkit output against these values, so a fast
path that changes a verdict or a table cannot pass as a speed-up.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

ZERO = Fraction(0)

# acceptance criterion 1 and 7 tolerances
TOLERANCES = {"r_g": 1e-10, "r_S": 1e-10, "r_geo": 1e-10, "r_R": 1e-8}
FLAT_TOL = 1e-12


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def rand_fraction(rng, bound=2, den=4):
    d = rng.randint(1, den)
    return Fraction(rng.randint(-bound * d, bound * d), d)


def random_wave(rng, n):
    """Antisymmetric F and symmetric H with small rational entries.

    F is never identically zero for n >= 2, so the wave's structure
    tensor always carries a 3-form part.
    """
    f = [[ZERO] * n for _ in range(n)]
    h = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            h[i][j] = h[j][i] = rand_fraction(rng)
            if i != j:
                v = rand_fraction(rng)
                f[i][j], f[j][i] = v, -v
    if n >= 2 and all(x == 0 for row in f for x in row):
        f[0][1], f[1][0] = Fraction(1, 2), Fraction(-1, 2)
    return tuple(map(tuple, f)), tuple(map(tuple, h))


def fmt_matrix(m):
    return [[str(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def rank(rows):
    """Rank by plain Gaussian elimination over the rationals."""
    work = [list(r) for r in rows]
    r = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def boost_block(f, h):
    """2H - F - F^2: the Xb-coefficients of [U, X_i]."""
    n = len(f)
    f2 = mat_mul(f, f)
    return [[2 * h[i][j] - f[i][j] - f2[i][j] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Lie algebras as sparse structure constants {(a, b): {c: value}}, a < b
# ---------------------------------------------------------------------------


def wave_labels(n):
    return ["U", "V"] + [f"X{i+1}" for i in range(n)] + [f"Xb{i+1}" for i in range(n)]


def wave_brackets(f, h):
    """The documented isometry table on (U, V, X_i, Xb_i).

    [U,V] = V, [U,Xb_i] = X_i, [X_i,X_j] = 2F_ij V, [X_i,Xb_j] = -delta_ij V,
    [U,X_i] = (delta + 2F)_ij X_j + (2H - F - F^2)_ij Xb_j.
    """
    n = len(f)
    bb = boost_block(f, h)
    out = {(0, 1): {1: Fraction(1)}}
    for i in range(n):
        row = {}
        for j in range(n):
            row[2 + j] = Fraction(int(i == j)) + 2 * f[i][j]
            row[2 + n + j] = bb[i][j]
        out[(0, 2 + i)] = row
        out[(0, 2 + n + i)] = {2 + i: Fraction(1)}
        out[(2 + i, 2 + n + i)] = {1: Fraction(-1)}
        for j in range(i + 1, n):
            out[(2 + i, 2 + j)] = {1: 2 * f[i][j]}
    return prune(out)


def prune(brackets):
    out = {}
    for key, row in brackets.items():
        row = {c: v for c, v in row.items() if v != 0}
        if row:
            out[key] = row
    return out


def brackets_to_json(dim, brackets, labels):
    return {
        "dim": dim,
        "labels": list(labels),
        "brackets": {f"{a},{b}": {str(c): str(v) for c, v in sorted(row.items())}
                     for (a, b), row in sorted(brackets.items())},
    }


def brackets_from_json(data):
    """Structure constants of an algebra JSON report, keyed by label."""
    labels = data["labels"]
    out = {}
    for key, row in data["brackets"].items():
        a, b = (int(p) for p in key.split(","))
        for c, v in row.items():
            if Fraction(v) != 0:
                out[(labels[a], labels[b], labels[int(c)])] = Fraction(v)
    return out


def labelled(brackets, labels):
    return {(labels[a], labels[b], labels[c]): v
            for (a, b), row in brackets.items() for c, v in row.items()}


def jacobi(dim, brackets):
    """Nonzero J_{abc}^d for a < b < c and the largest magnitude.

    J_{abc}^d = f_{ab}^e f_{ec}^d + f_{bc}^e f_{ea}^d + f_{ca}^e f_{eb}^d.
    """
    full = {}
    for (a, b), row in brackets.items():
        full[(a, b)] = row
        full[(b, a)] = {c: -v for c, v in row.items()}
    nonzero = {}
    for a, b, c in itertools.combinations(range(dim), 3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for e, v in full.get((x, y), {}).items():
                for d, w in full.get((e, z), {}).items():
                    acc[d] = acc.get(d, ZERO) + v * w
        for d, v in acc.items():
            if v != 0:
                nonzero[(a, b, c, d)] = v
    worst = max((abs(v) for v in nonzero.values()), default=ZERO)
    return nonzero, worst


def jacobi_expectation(dim, brackets, labels):
    """(max |J|, set of label triples reaching it) from the reference."""
    nonzero, worst = jacobi(dim, brackets)
    triples = {frozenset((labels[a], labels[b], labels[c]))
               for (a, b, c, _), v in nonzero.items() if abs(v) == worst}
    return worst, triples


# ---------------------------------------------------------------------------
# torsion tensors {(x, y, z): value}, the T1/T2/T3 split and the class
# ---------------------------------------------------------------------------


def euclidean_metric(dim):
    return [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]


def light_cone_metric(n):
    """Frame order (+, -, 1..n): the null legs pair to one."""
    d = n + 2
    g = [[ZERO] * d for _ in range(d)]
    g[0][1] = g[1][0] = Fraction(1)
    for i in range(n):
        g[2 + i][2 + i] = Fraction(1)
    return g


def wave_structure(f):
    """Frame table of the wave's structure tensor S_{XYZ}.

    S_{++-} = -1, S_{+ij} = F_ij, S_{i+j} = -delta_ij - F_ij, with
    antisymmetry in the last two slots.
    """
    n = len(f)
    s = {}

    def put(x, y, z, v):
        if v != 0:
            s[(x, y, z)] = v
            s[(x, z, y)] = -v

    put(0, 0, 1, Fraction(-1))
    for i in range(n):
        for j in range(n):
            if i < j:
                put(0, 2 + i, 2 + j, f[i][j])
            put(2 + i, 0, 2 + j, -Fraction(int(i == j)) - f[i][j])
    return s


def trace_form(g_inv, s, dim):
    """alpha_Z = g^{AB} S_{ABZ} / (D - 1) and its norm g^{AB} alpha_A alpha_B."""
    alpha = [ZERO] * dim
    for (a, b, z), v in s.items():
        alpha[z] += g_inv[a][b] * v
    alpha = [x / (dim - 1) for x in alpha]
    norm = sum((g_inv[a][b] * alpha[a] * alpha[b] for a in range(dim) for b in range(dim)), ZERO)
    return alpha, norm


def vectorial(g, alpha, dim):
    """S1_{XYZ} = g_{XY} alpha_Z - g_{XZ} alpha_Y."""
    out = {}
    for x, y, z in itertools.product(range(dim), repeat=3):
        v = g[x][y] * alpha[z] - g[x][z] * alpha[y]
        if v != 0:
            out[(x, y, z)] = v
    return out


def three_form(s, dim):
    """Total antisymmetrization (signed average over the 6 orderings)."""
    out = {}
    for x, y, z in itertools.product(range(dim), repeat=3):
        v = (s.get((x, y, z), ZERO) + s.get((y, z, x), ZERO) + s.get((z, x, y), ZERO)
             - s.get((x, z, y), ZERO) - s.get((z, y, x), ZERO) - s.get((y, x, z), ZERO)) / 6
        if v != 0:
            out[(x, y, z)] = v
    return out


def add(*terms):
    """Sum of sparse tensors given as (coefficient, tensor) pairs."""
    out = {}
    for c, t in terms:
        for k, v in t.items():
            out[k] = out.get(k, ZERO) + c * v
    return {k: v for k, v in out.items() if v != 0}


def split(g, g_inv, s, dim):
    """(S1, S2, S3) and the trace norm: vector, cyclic-traceless, 3-form."""
    alpha, norm = trace_form(g_inv, s, dim)
    s1 = vectorial(g, alpha, dim)
    s3 = three_form(s, dim)
    s2 = add((1, s), (-1, s1), (-1, s3))
    return (s1, s2, s3), norm


def classification(g, g_inv, s, dim):
    """Class label, causal degeneracy of the trace vector, and its norm."""
    parts, norm = split(g, g_inv, s, dim)
    present = [str(k + 1) for k, p in enumerate(parts) if p]
    label = "+".join(f"T{k}" for k in present) if present else "zero"
    if not parts[0]:
        degeneracy = "none"
    else:
        degeneracy = {1: "spacelike", -1: "timelike", 0: "null"}[(norm > 0) - (norm < 0)]
    return label, degeneracy, norm


def tensor_entries(data):
    """Sparse entries of a homkit tensor JSON object."""
    return {tuple(int(p) for p in key.split(",")): Fraction(v)
            for key, v in data["entries"].items() if Fraction(v) != 0}


def tensor_json(dim, s):
    return {
        "dim": dim,
        "rank": 3,
        "valence": ["d", "d", "d"],
        "entries": {",".join(map(str, k)): str(v) for k, v in sorted(s.items())},
    }


def random_torsion(rng, g, g_inv, dim, parts):
    """A torsion tensor whose nonzero projections are exactly ``parts``.

    T1 comes from a random one-form, T3 from a random 3-form, and T2 is
    the cyclic-traceless projection of a dense random tensor.
    """
    terms = []
    if 1 in parts:
        alpha = [rand_fraction(rng) for _ in range(dim)]
        alpha[rng.randrange(dim)] = Fraction(rng.randint(1, 3))
        terms.append((1, vectorial(g, alpha, dim)))
    if 3 in parts:
        omega = {}
        for x, y, z in itertools.combinations(range(dim), 3):
            v = rand_fraction(rng)
            for (a, b, c), sign in (((x, y, z), 1), ((y, z, x), 1), ((z, x, y), 1),
                                    ((x, z, y), -1), ((z, y, x), -1), ((y, x, z), -1)):
                omega[(a, b, c)] = sign * v
        terms.append((1, omega))
    if 2 in parts:
        generic = {}
        for x in range(dim):
            for y in range(dim):
                for z in range(y + 1, dim):
                    v = rand_fraction(rng, bound=3)
                    generic[(x, y, z)], generic[(x, z, y)] = v, -v
        terms.append((1, split(g, g_inv, generic, dim)[0][1]))
    return add(*terms)
