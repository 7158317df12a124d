"""The reduction's sparse Tensor path against the Fraction-array one it replaced.

The reference below is the reduction's arithmetic as it ran on numpy
object arrays of Fractions: the residual tables of both ansatz kinds and
the assembled bracket tables, with plain np.einsum and @ on Fractions.
The library must give equal residual dicts (every value a Fraction) and
equal algebras on randomized ansatze: large denominators, bumped fields
whose residuals are nonzero, and an empty rotation span.  The carrier
operations themselves (sums, scaling, slot permutations, contractions,
slot maps and the largest magnitude, all on Tensor numerators)
are checked against Fraction arithmetic, and counts of Fraction
constructions keep the residual table and the parser from going back to
one Fraction per array entry.  However an ansatz is built (parsed, from
numpy arrays, generated, rescaled, from wave data), each array field has
one carrier: a Tensor of int numerators equal to the stored field.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from test_exact_array import fractions, sparse
from test_exact_kernel import ref_span_coordinates

from homkit import reduction
from homkit.wave_curvature import _GCD_BOUND, SparseArray, einsum
from homkit.exact import row_reduce, solve_in_span
from homkit.lie_algebra import LieAlgebra
from homkit.plane_wave import PlaneWaveData
from homkit.reduction import (
    DegenerateAnsatz,
    NondegenerateAnsatz,
    _contract,
    _derivation,
    _freeze,
    _max_abs,
    _perm,
    _tensor,
    _zeros,
    ansatz_from_json,
    assemble_algebra,
    generate_instance,
    verify_constraints,
)

P1, P2 = 1_000_000_007, 999_999_937
DENS = (1, 2, 3, 7, P1, P2)

# ---------------------------------------------------------------------------
# the Fraction-array reference
# ---------------------------------------------------------------------------


def arrays(ansatz, *names):
    return [np.array(getattr(ansatz, k), dtype=object) for k in names]


def zeros(shape):
    return np.full(shape, Fraction(0), dtype=object)


def eye(n):
    out = zeros((n, n))
    out[range(n), range(n)] = Fraction(1)
    return out


def ref_max_abs(*arrs):
    return max([Fraction(0)] + [abs(x) for a in arrs for x in np.ravel(a)])


def eta_diag(aleph, n):
    return np.array([Fraction(-aleph)] + [Fraction(1)] * (n - 1), dtype=object)


def upper(t):
    return t[np.triu_indices(len(t), 1)]


def derivation(m, t, slots=None):
    slots = range(t.ndim) if slots is None else slots
    return sum((t.swapaxes(s, -1) @ m.T).swapaxes(s, -1) for s in slots)


def cyclic(t):
    rest = tuple(range(3, t.ndim))
    return t + t.transpose(2, 0, 1, *rest) + t.transpose(1, 2, 0, *rest)


def occupied(t, absent):
    t = t.copy()
    t[np.ix_(*[absent] * t.ndim)] = Fraction(0)
    return t


def span_closure(seeds, n):
    basis, rows, piv = [], [], []

    def add(m):
        nonlocal rows, piv
        flat = m.reshape(-1).tolist()
        if solve_in_span(rows, piv, flat) is not None:
            return False
        basis.append(m)
        rows, piv = row_reduce(rows + [flat])
        return True

    for s in seeds:
        add(s)
    changed = True
    while changed:
        changed = False
        snapshot = list(basis)
        for i, a in enumerate(snapshot):
            for b in snapshot[i + 1:]:
                if add(a @ b - b @ a):
                    changed = True
    return np.array(basis, dtype=object).reshape(len(basis), n, n)


def coords(rot, mats):
    k = len(rot)
    if not k:
        return zeros((len(mats), 0))
    rows = ref_span_coordinates(rot.reshape(k, -1).tolist(), [m.reshape(-1).tolist() for m in mats])
    return np.array(rows, dtype=object).reshape(len(mats), k)


def rotations(ansatz):
    if isinstance(ansatz, NondegenerateAnsatz):
        d = eta_diag(ansatz.aleph, ansatz.n)
        r, s = arrays(ansatz, "R", "Scurv")
        sigmas, hats = 2 * r * d, 2 * s * d
        extra = [np.array(m, dtype=object) for m in ansatz.h_basis]
        return sigmas, hats, span_closure([*sigmas, *upper(hats), *extra], ansatz.n)
    r, nn, y = arrays(ansatz, "R", "N", "Y")
    hats = 2 * nn
    return r, hats, span_closure([*r, *upper(hats), 2 * y], ansatz.n)


def equivariance(rot, sigmas, *invariants):
    worst = Fraction(0)
    for omega in rot:
        need = sigmas @ omega - omega @ sigmas + np.einsum("mi,mab->iab", omega, sigmas)
        worst = max(worst, ref_max_abs(need, *(derivation(omega.T, t) for t in invariants)))
    return worst


def ref_verify_nondeg(ansatz):
    sigmas, _, rot = rotations(ansatz)
    lam = ansatz.lam
    f, c, r, s = arrays(ansatz, "F", "C", "R", "Scurv")
    d = eta_diag(ansatz.aleph, ansatz.n)
    r_low = r * np.multiply.outer(d, d)
    return {
        "F": ref_max_abs(f),
        "C_from_R": ref_max_abs(lam / 2 * c - (r_low - r_low.transpose(1, 0, 2))),
        "S_from_CR": ref_max_abs(2 * lam * s - np.einsum("ijk,kmn->ijmn", c * d, r)),
        "rotation_equivariance": equivariance(rot, sigmas, f, c),
    }


def ref_verify_deg(work):
    sigmas, _, rot = rotations(work)
    occ = list(work.occupancy)
    absent = [i for i in range(work.n) if i not in occ]
    w, f, al, c, h, a, y, r, s3, nn = arrays(work, *reduction._DEG_ARRAYS)
    fpd = f + eye(work.n)
    dfc = derivation(f, c)
    return {
        "W": ref_max_abs(w),
        "aleph2": ref_max_abs(al),
        "uv_rotation": ref_max_abs(y),
        "h_split": ref_max_abs(h - ((a + a.T) / 2 - f / 2)),
        "unoccupied_F": ref_max_abs(f[np.ix_(absent, absent)]),
        "occupied_C": ref_max_abs(occupied(c, absent)),
        "occupied_S_R": ref_max_abs((s3 - r)[:, occ]),
        "occupied_N": ref_max_abs(occupied(nn, absent)),
        "occupied_R": ref_max_abs(occupied(r, absent)),
        "F_C_kernel": ref_max_abs(np.einsum("al,ljk->ajk", f[occ], c)),
        "S3_total_antisymmetry": ref_max_abs(s3 + s3.transpose(0, 2, 1)),
        "S3_from_FC": ref_max_abs(3 * s3 - dfc),
        "zz_boost": ref_max_abs(c @ h - derivation(fpd, s3, (0, 1))),
        "zz_rotation": ref_max_abs(
            np.einsum("ijk,kmn->ijmn", c, r) / 2 - derivation(fpd, nn, (0, 1))
        ),
        "zz_vector": ref_max_abs(s3 + r - r.transpose(1, 0, 2) - dfc - c),
        "cyclic_CS": ref_max_abs(cyclic(np.einsum("jkl,ilm->ijkm", c, s3))),
        "cyclic_CN": ref_max_abs(cyclic(np.einsum("jkl,ilmn->ijkmn", c, nn))),
        "cyclic_CC_N": ref_max_abs(
            cyclic(np.einsum("jkl,ilm->ijkm", c, c) + 2 * nn.transpose(2, 0, 1, 3))
        ),
        "rotation_equivariance": max(
            ref_max_abs(rot[:, absent][:, :, occ]), equivariance(rot, sigmas, f, h, c, s3, nn)
        ),
    }


def ref_verify(ansatz):
    if isinstance(ansatz, NondegenerateAnsatz):
        return ref_verify_nondeg(ansatz)
    return ref_verify_deg(ansatz.rescaled())


def ref_algebra(table, labels):
    dim = len(labels)
    brackets = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            row = {c: v for c, v in enumerate(table[a, b]) if v != 0}
            if row:
                brackets[(a, b)] = row
    return LieAlgebra.from_brackets(dim, brackets, labels=labels)


def ref_rotation_brackets(table, rot, m0, acted):
    ms = range(m0, m0 + len(rot))
    for at, sub in acted:
        table[np.ix_(at, ms, at)] = -rot[:, sub][:, :, sub].transpose(2, 0, 1)
    p, q = np.triu_indices(len(rot), 1)
    table[m0 + p, m0 + q, m0:] = coords(rot, rot[p] @ rot[q] - rot[q] @ rot[p])


def ref_assemble_nondeg(ansatz):
    sigmas, hats, rot = rotations(ansatz)
    n, k = ansatz.n, len(rot)
    f, c = arrays(ansatz, "F", "C")
    d = eta_diag(ansatz.aleph, n)
    labels = ["V"] + [f"Z{i+1}" for i in range(n)] + [f"M{p+1}" for p in range(k)]
    z, iz, m0 = slice(1, 1 + n), np.arange(1, 1 + n), 1 + n
    i, j = np.triu_indices(n, 1)
    table = zeros((len(labels),) * 3)
    table[0, z, z] = f * d
    table[0, iz, iz] += ansatz.lam
    table[0, z, m0:] = coords(rot, sigmas)
    table[z, z, 0] = ansatz.aleph * f
    table[z, z, z] = c * d
    table[iz[i], iz[j], m0:] = coords(rot, hats[i, j])
    ref_rotation_brackets(table, rot, m0, [(iz, range(n))])
    return ref_algebra(table, labels)


def ref_assemble_deg(ansatz):
    sigmas, hats, rot = rotations(ansatz)
    n, lam = ansatz.n, ansatz.lam
    occ = list(ansatz.occupancy)
    absent = [i for i in range(n) if i not in occ]
    for omega in rot:
        if (omega[np.ix_(absent, occ)] != 0).any():
            raise ValueError("rotation span moves a null boost onto an absent direction")
    nb, k = len(occ), len(rot)
    labels = (["U", "V"] + [f"Z{i+1}" for i in range(n)] + [f"Zb{a+1}" for a in occ]
              + [f"M{p+1}" for p in range(k)])
    w, f, al, c, h, y, s3 = arrays(ansatz, "W", "F", "aleph2", "C", "h", "Y", "S3")
    z, b, m0 = slice(2, 2 + n), slice(2 + n, 2 + n + nb), 2 + n + nb
    iz, ib = np.arange(2, 2 + n), np.arange(2 + n, m0)
    i, j = np.triu_indices(n, 1)
    table = zeros((len(labels),) * 3)
    table[0, 1, 1] = lam
    table[0, 1, z] = w
    table[0, 1, b] = -2 * lam * w[occ]
    table[0, 1, m0:] = coords(rot, [2 * y])[0]
    table[0, z, 0] = -w
    table[0, z, z] = f
    table[0, iz, iz] += lam
    table[0, z, b] = h[:, occ]
    table[0, z, m0:] = coords(rot, sigmas)
    table[1, z, 1] = w
    table[1, z, z] = al
    table[z, z, 0] = al
    table[z, z, 1] = f
    table[z, z, z] = c
    table[z, z, b] = s3[:, :, occ]
    table[iz[i], iz[j], m0:] = coords(rot, hats[i, j])
    table[0, ib, iz[occ]] = Fraction(1)
    table[iz[occ], ib, 1] = Fraction(-1)
    ref_rotation_brackets(table, rot, m0, [(iz, range(n)), (ib, occ)])
    return ref_algebra(table, labels)


def ref_assemble(ansatz):
    if isinstance(ansatz, NondegenerateAnsatz):
        return ref_assemble_nondeg(ansatz)
    return ref_assemble_deg(ansatz)


# ---------------------------------------------------------------------------
# randomized ansatze
# ---------------------------------------------------------------------------


def rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice(DENS))


def rand_array(rng, shape, fill=0.5):
    vals = [rand_fraction(rng) if rng.random() < fill else Fraction(0)
            for _ in range(int(np.prod(shape)))]
    return np.array(vals, dtype=object).reshape(shape)


def parity(p):
    return (-1) ** sum(x > y for i, x in enumerate(p) for y in p[i + 1:])


def bump(rng, name, old, n, absent):
    """old plus a random array with the field's symmetries."""
    rank, *pairs = reduction._FIELDS[name]
    x = rand_array(rng, (n,) * rank)
    if name == "C":
        # totally antisymmetric: the signed sum over permutations of the slots
        x = sum(parity(p) * x.transpose(p) for p in itertools.permutations(range(3)))
    else:
        for i, j in pairs:
            x = x - x.swapaxes(i, j)
    if name in ("h", "S3"):
        x[..., absent] = Fraction(0)
    return np.array(old, dtype=object) + x


def bumped(rng, ansatz, names):
    data = {k: getattr(ansatz, k) for k in ansatz._fields}
    absent = [i for i in range(ansatz.n) if i not in data.get("occupancy", range(ansatz.n))]
    for k in names:
        data[k] = bump(rng, k, data[k], ansatz.n, absent)
    return type(ansatz)(**data)


def randomized():
    """(id, ansatz) pairs: generated, bumped, large-denominator and empty-span."""
    rng = random.Random(12)
    out = []
    for case, n in itertools.product(("deg", "nondeg"), (1, 2, 3, 4)):
        a = generate_instance(case, n, rng.randrange(1000))
        out.append((f"{case}-n{n}-generated", a))
        names = reduction._DEG_ARRAYS if case == "deg" else ("F", "C", "Scurv")
        picked = rng.sample(names, 2)
        out.append((f"{case}-n{n}-bumped-{'-'.join(picked)}", bumped(rng, a, picked)))
    # a 1/P1 term on a field every residual table reads
    a = generate_instance("deg", 3, 5)
    f = np.array(a.F, dtype=object)
    f[0, 1], f[1, 0] = f[0, 1] + Fraction(1, P1), f[1, 0] - Fraction(1, P1)
    data = {k: getattr(a, k) for k in a._fields}
    out.append(("deg-n3-one-over-p1", DegenerateAnsatz(**dict(data, F=f))))
    # no rotation data at all: the span is empty
    n = 3
    empty = DegenerateAnsatz(
        n=n, lam=Fraction(5, P1), occupancy=(0, 2), W=zeros(n), F=zeros((n, n)),
        aleph2=zeros((n, n)), C=zeros((n,) * 3), h=zeros((n, n)), A=zeros((n, n)),
        Y=zeros((n, n)), R=zeros((n,) * 3), S3=zeros((n,) * 3), N=zeros((n,) * 4),
    )
    out.append(("deg-n3-empty-span", bumped(rng, empty, ("F", "h", "A", "S3", "W"))))
    nondeg = generate_instance("nondeg", 2, 0)
    out.append(("nondeg-n2-empty-span", bumped(rng, nondeg, ("F", "C"))))
    return out


CASES = randomized()


@pytest.mark.parametrize("ansatz", [a for _, a in CASES], ids=[i for i, _ in CASES])
def test_residuals_and_table_match_the_fraction_reference(ansatz):
    got = verify_constraints(ansatz)
    assert got == ref_verify(ansatz)
    assert all(type(v) is Fraction for v in got.values())
    try:
        want = ref_assemble(ansatz)
    except ValueError:
        with pytest.raises(ValueError, match="moves null boost"):
            assemble_algebra(ansatz)
    else:
        assert assemble_algebra(ansatz) == want


def test_the_cases_cover_what_they_claim():
    by_id = dict(CASES)
    assert any(any(v != 0 for v in verify_constraints(a).values()) for a in by_id.values())
    for case_id in ("deg-n3-empty-span", "nondeg-n2-empty-span"):
        work = by_id[case_id]
        work = work.rescaled() if isinstance(work, DegenerateAnsatz) else work
        assert len(work._rotations[2]) == 0
        assert any(v != 0 for v in verify_constraints(work).values())
    assert any(x.denominator % P1 == 0 for row in by_id["deg-n3-one-over-p1"].F for x in row)


# ---------------------------------------------------------------------------
# carrier operations against Fraction arithmetic
# ---------------------------------------------------------------------------


def fractions_of(t):
    """The nested lists of a carrier's values, every one a Fraction."""
    out = _freeze(t, list)
    assert all(type(v) is Fraction for v in np.ravel(np.array(out, dtype=object)))
    return out


def carrier(a):
    return reduction._array(a, a.shape, "a")


@pytest.mark.parametrize("seed", range(6))
def test_operations_match_fraction_arithmetic(seed):
    rng = random.Random(seed)
    shape = (3, 3, 3)
    a, b = rand_array(rng, shape, 0.7), rand_array(rng, shape, 0.7)
    m = rand_array(rng, (3, 3), 0.7)
    qa, qb, qm = carrier(a), carrier(b), carrier(m)
    s = rand_fraction(rng) or Fraction(1, P1)
    assert fractions_of(qa + qb) == (a + b).tolist()
    assert fractions_of(qa - qb) == (a - b).tolist()
    assert fractions_of(-qa.scale(s)) == (-a * s).tolist()
    assert fractions_of(_contract(qa, qm)) == (a @ m).tolist()
    assert fractions_of(_contract(qm, qa)) == np.einsum("il,ljk->ijk", m, a).tolist()
    assert fractions_of(_contract(qa, qb, 1)) == np.einsum("jkl,ilm->jkim", a, b).tolist()
    assert fractions_of(_derivation(qm, qa, (1,))) == np.einsum("jl,ilk->ijk", m, a).tolist()
    assert fractions_of(_perm(qa, 2, 0, 1)) == a.transpose(2, 0, 1).tolist()
    assert _max_abs(qa, qb, qm) == max([Fraction(0)] + [abs(x) for x in [*a.ravel(), *b.ravel(), *m.ravel()]])
    kept = [abs(v) for (i, _, k), v in np.ndenumerate(a) if (i + k) % 2]
    assert _max_abs(qa, keep=lambda idx: (idx[0] + idx[2]) % 2) == max([Fraction(0), *kept])
    assert _max_abs(_zeros(2, 3)) == 0 and type(_max_abs()) is Fraction
    assert (qa - qa).is_zero() and (qa + qb).is_zero() == (not (a + b).any())
    # a sum over another denominator puts every entry over the lcm
    big = qb.scale(Fraction(1, P2))
    assert fractions_of(qa + big) == (a + b * Fraction(1, P2)).tolist()


def test_large_denominators_are_reduced_past_the_bound():
    # the exact curvature chain's SparseArrays multiply denominators, and
    # reduce them by the gcd of all entries only past the bound
    q = sparse([Fraction(1, P1 * P2), Fraction(2, 3)])
    cube = einsum("i,i,i->i", q, q, q)
    assert cube.den > _GCD_BOUND
    assert fractions(cube).tolist() == [Fraction(1, P1 * P2) ** 3, Fraction(8, 27)]
    # a denominator that cancels against every numerator comes back down
    # once it passes the bound, and not before
    ones = einsum("i,i->i", sparse([Fraction(P1 * P2), 0]), sparse([Fraction(1, P1 * P2)] * 2))
    assert ones.den == P1 * P2 < _GCD_BOUND
    square = einsum("i,i->i", ones, ones)
    assert square.den == 1 and fractions(square).tolist() == [1, 0]


# ---------------------------------------------------------------------------
# Fraction constructions per residual table
# ---------------------------------------------------------------------------


def count_fractions(monkeypatch, fn):
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kw):
        calls.append(1)
        return new(cls, *args, **kw)

    monkeypatch.setattr(Fraction, "__new__", counting)
    try:
        fn()
    finally:
        monkeypatch.undo()
    return len(calls)


@pytest.mark.parametrize("case", ["deg", "nondeg"])
def test_residual_table_builds_few_fractions(monkeypatch, case):
    # n = 4 with a 3-element span: the deg table reads arrays of up to 4^5
    # entries.  The Fraction-array path built about one Fraction per entry
    # and operation (15066 calls for the 19 deg keys, 2760 for the 4
    # nondeg ones); the QArray path builds one per residual value plus a
    # few scalars such as lam / 2 and 2 lam (21 and 6).  Two per key leaves
    # room for such scalars and none for a cost per array entry.
    work = generate_instance(case, 4, 0)
    work = work.rescaled() if case == "deg" else work
    assert len(work._rotations[2]) > 0
    keys = len(verify_constraints(work))
    assert count_fractions(monkeypatch, lambda: verify_constraints(work)) <= 2 * keys


@pytest.mark.parametrize("case", ["deg", "nondeg"])
def test_parsing_builds_few_fractions(monkeypatch, case):
    # an n = 4 ansatz JSON holds about a thousand entry strings, nearly all
    # "0"; parsed one Fraction per entry, it built 401 to 577 Fractions
    # (seeds 0-9).  Each distinct string is now parsed once, and a stored
    # field builds one Fraction per nonzero entry plus one shared zero.
    for seed in range(3):
        data = generate_instance(case, 4, seed).to_json()
        assert count_fractions(monkeypatch, lambda: ansatz_from_json(data)) <= 200


# ---------------------------------------------------------------------------
# one carrier per array field
# ---------------------------------------------------------------------------


WAVE = PlaneWaveData(
    3, ((0, Fraction(1, 2), 0), (Fraction(-1, 2), 0, 0), (0, 0, 0)),
    ((1, Fraction(1, 3), 0), (Fraction(1, 3), -2, 0), (0, 0, Fraction(3, 4))),
)


def carrier_cases():
    """(id, ansatz) pairs built every way an ansatz comes about."""
    out = list(CASES)  # generated, bumped, large-denominator and empty-span
    for case, n in itertools.product(("deg", "nondeg"), (1, 2, 3, 4)):
        a = generate_instance(case, n, 5)
        out.append((f"{case}-n{n}-parsed", reduction.ansatz_from_json(a.to_json())))
        if case == "deg":
            out.append((f"deg-n{n}-rescaled", a.rescaled()))
            out.append((f"deg-n{n}-at-5/3", reduction._at_scale(a, Fraction(5, 3))))
    for lam in (Fraction(1), Fraction(7, 3)):
        out.append((f"wave-lam{lam}", reduction.ansatz_from_plane_wave(WAVE, lam)))
    return out


CARRIER_CASES = carrier_cases()


@pytest.mark.parametrize("ansatz", [a for _, a in CARRIER_CASES],
                         ids=[i for i, _ in CARRIER_CASES])
def test_each_array_field_has_one_integer_carrier(ansatz):
    if isinstance(ansatz, NondegenerateAnsatz):
        names = (*reduction._NONDEG_ARRAYS, "h_basis")
    else:
        names = reduction._DEG_ARRAYS
    assert sorted(ansatz._carriers) == sorted(names)
    for name in names:
        q = ansatz._carriers[name]
        for t in q if name == "h_basis" else (q,):
            assert (t.dim, t.tag) == (ansatz.n, "exact")
            assert type(t.den) is int and t.den > 0
            assert all(type(v) is int and v for _, v in t.nums)
            assert math.gcd(t.den, *(v for _, v in t.nums)) == 1
        assert _freeze(q) == getattr(ansatz, name)
        assert fractions_of(q) == np.array(getattr(ansatz, name), dtype=object).tolist()


def test_rescale_round_trip_restores_the_ansatz():
    # _at_scale builds through the constructor, so scaling there and back gives the same ansatz
    generated = [generate_instance("deg", n, seed) for n in (1, 2, 3, 4) for seed in range(3)]
    for lam in (Fraction(5, 3), Fraction(-7, 2), Fraction(10**9, 7)):
        for a in [*generated, reduction.ansatz_from_plane_wave(WAVE, lam)]:
            there = reduction._at_scale(a, lam)
            back = reduction._at_scale(there, a.lam)
            assert there.lam == lam and back == a
            assert back._carriers == a._carriers
            assert back.to_json() == a.to_json()
            assert back._rotations[2] == a._rotations[2]


def test_a_qarray_field_is_taken_as_is_and_still_checked():
    # a Tensor carrier of a fitting shape is taken as is, and still checked
    n = 2
    fields = dict(n=n, lam=Fraction(3), aleph=1, C=_zeros(n, 3), R=_zeros(n, 3), Scurv=_zeros(n, 4))
    f = _tensor(n, 2, {(0, 1): 1, (1, 0): -1}, 3)
    a = NondegenerateAnsatz(F=f, **fields)
    assert a._carriers["F"] is f
    assert a.F == ((0, Fraction(1, 3)), (Fraction(-1, 3), 0))
    with pytest.raises(ValueError, match="F must be nested lists of shape 2 x 2"):
        NondegenerateAnsatz(F=_zeros(3, 2), **fields)
    with pytest.raises(ValueError, match="F must be nested lists of shape 2 x 2"):
        NondegenerateAnsatz(F=_zeros(2, 3), **fields)
    with pytest.raises(ValueError, match="F must be antisymmetric in slots 0 and 1"):
        NondegenerateAnsatz(F=_tensor(n, 2, {(0, 1): 1, (1, 0): 1}), **fields)
    with pytest.raises(ValueError, match="h_basis matrices must be eta-antisymmetric"):
        NondegenerateAnsatz(F=f, h_basis=np.ones((1, n, n), dtype=object), **fields)
    with pytest.raises(ValueError, match="h_basis must be nested lists of shape k x 2 x 2"):
        NondegenerateAnsatz(F=f, h_basis=_tensor(n, 3, {}), **fields)


@pytest.mark.parametrize("case", ["deg", "nondeg"])
def test_ndarray_fields_equal_list_fields(case):
    # numpy arrays are read through tolist(): object arrays of strings or of
    # Fractions, and a list of per-matrix arrays, give the ansatz the lists give
    for n, seed in itertools.product((1, 3, 4), range(2)):
        data = generate_instance(case, n, seed).to_json()
        want = ansatz_from_json(data)
        names = reduction._DEG_ARRAYS if case == "deg" else (*reduction._NONDEG_ARRAYS, "h_basis")
        strings = dict(data, **{k: np.array(data[k], dtype=object) for k in names})
        fracs = dict(data, **{k: np.vectorize(Fraction, otypes=[object])(strings[k]) for k in names})
        for arrays in (strings, fracs):
            got = ansatz_from_json(arrays)
            assert got == want and got.to_json() == data
        if case == "nondeg":
            stack = dict(data, h_basis=[np.array(m, dtype=object) for m in data["h_basis"]])
            assert ansatz_from_json(stack) == want
