"""Constraint verification and the two bracket-table normalizations."""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from homkit.exact import mat_identity, mat_inverse, mat_mul
from homkit.lie_algebra import jacobi_residual
from homkit.plane_wave import PlaneWaveData, boost_block, pw_isometry_algebra
from homkit.reduction import (
    DegenerateAnsatz,
    NondegenerateAnsatz,
    ansatz_from_json,
    ansatz_from_plane_wave,
    assemble_algebra,
    degenerate_reduce,
    f_derivation,
    generate_instance,
    nondegenerate_reduce,
    reduce_ansatz,
    verify_constraints,
)

# Residual tables of the perturbed and random variants below and sha256
# digests of gen/reduce JSON, recorded from the nested-list implementation:
# a sign or index slip in a rewritten contraction changes a value here
# even when the verdict survives.
PINNED = json.loads(Path(__file__).with_name("pinned_reduction.json").read_text())


def pinned_table(residuals):
    assert all(isinstance(v, Fraction) for v in residuals.values())
    return {k: str(v) for k, v in residuals.items()}


def assert_unipotent(p):
    """(P - I)^2 = 0, so the exact inverse of P is 2I - P."""
    eye = mat_identity(len(p))
    nil = [[x - e for x, e in zip(row, erow)] for row, erow in zip(p, eye)]
    assert not any(x for row in mat_mul(nil, nil) for x in row)
    assert mat_inverse(p) == [[2 * e - x for x, e in zip(row, erow)] for row, erow in zip(p, eye)]


def json_digest(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()

Z2 = [[Fraction(0)] * 2 for _ in range(2)]


def zeros2(n):
    return [[Fraction(0)] * n for _ in range(n)]


def zeros3(n):
    return [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]


def zeros4(n):
    return [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]


def epsilon3():
    eps = zeros3(3)
    for (i, j, k), s in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        eps[i][j][k] = Fraction(s)
    return eps


def trivial_deg(n, **overrides):
    fields = dict(
        n=n, lam=Fraction(1), occupancy=(), W=(Fraction(0),) * n,
        F=zeros2(n), aleph2=zeros2(n), C=zeros3(n), h=zeros2(n),
        A=zeros2(n), Y=zeros2(n), R=zeros3(n), S3=zeros3(n), N=zeros4(n),
    )
    fields.update(overrides)
    return DegenerateAnsatz(**fields)


class TestFDerivation:
    def test_zero_rotation(self):
        c = epsilon3()
        assert f_derivation(zeros2(3), c) == zeros3(3)

    def test_zero_form(self):
        f = [[Fraction(0), Fraction(1), Fraction(0)],
             [Fraction(-1), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(0)]]
        assert f_derivation(f, zeros3(3)) == zeros3(3)

    def test_plane_rotation_preserves_epsilon(self):
        # expanding the three terms by hand: the rotation generator in
        # the (1,2)-plane is traceless, so the volume form is invariant
        f = [[Fraction(0), Fraction(1), Fraction(0)],
             [Fraction(-1), Fraction(0), Fraction(0)],
             [Fraction(0), Fraction(0), Fraction(0)]]
        assert f_derivation(f, epsilon3()) == zeros3(3)

    def test_preserves_total_antisymmetry(self):
        rng = random.Random(1)
        f = zeros2(3)
        f[0][1], f[1][0] = Fraction(2, 3), Fraction(-2, 3)
        f[1][2], f[2][1] = Fraction(-1, 2), Fraction(1, 2)
        c = epsilon3()
        out = f_derivation(f, c)
        for i, j, k in itertools.product(range(3), repeat=3):
            assert out[i][j][k] == -out[j][i][k]
            assert out[i][j][k] == -out[i][k][j]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            f_derivation(zeros2(2), zeros3(3))


class TestNondegenerate:
    def test_trivial_ansatz_assembles_solvable_table(self):
        a = NondegenerateAnsatz(n=2, lam=Fraction(3, 2), aleph=1, F=Z2,
                                C=zeros3(2), R=zeros3(2), Scurv=zeros4(2))
        algebra = assemble_algebra(a)
        assert algebra.labels == ("V", "Z1", "Z2")
        assert algebra.bracket(0, 1) == {1: Fraction(3, 2)}
        assert not algebra.bracket(1, 2)

    def test_sign_convention_validated(self):
        with pytest.raises(ValueError, match="sign of lam"):
            NondegenerateAnsatz(n=2, lam=Fraction(1), aleph=-1, F=Z2,
                                C=zeros3(2), R=zeros3(2), Scurv=zeros4(2))

    @pytest.mark.parametrize("aleph", [True, 1.0, "1"])
    def test_aleph_must_be_an_integer_sign(self, aleph):
        with pytest.raises(ValueError, match="aleph"):
            NondegenerateAnsatz(n=2, lam=Fraction(1), aleph=aleph, F=Z2,
                                C=zeros3(2), R=zeros3(2), Scurv=zeros4(2))

    def test_rotation_coupling_makes_torsion_inconsistent(self):
        f = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
        a = NondegenerateAnsatz(n=2, lam=Fraction(1), aleph=1, F=f,
                                C=zeros3(2), R=zeros3(2), Scurv=zeros4(2))
        report = nondegenerate_reduce(a)
        assert report.verdict == "inconsistent"
        assert set(report.failing_identity) == {"V", "Z1", "Z2"}
        assert report.residuals["F"] == 1

    def test_oracle_instances_reduce(self):
        for seed in range(10):
            for n in (2, 3, 4):
                a = generate_instance("nondeg", n, seed)
                assert max(verify_constraints(a).values()) == 0
                assert jacobi_residual(assemble_algebra(a))[1] == 0
                report = nondegenerate_reduce(a)
                assert report.verdict == "symmetric_space"
                assert report.checks["eigen_brackets"]
                assert report.checks["yy_in_rotation_span"]
                for _, p in report.redefinitions:
                    assert_unipotent(p)

    def test_nontrivial_oracle_instance_exists(self):
        # at n = 3 the rotation template produces curvature-coupled data
        # with nonzero torsion; the shift to the eigenbasis then clears
        # every transverse bracket exactly
        found = False
        for seed in range(12):
            a = generate_instance("nondeg", 3, seed)
            has_c = any(x != 0 for p in a.C for r in p for x in r)
            has_r = any(x != 0 for p in a.R for r in p for x in r)
            has_s = any(x != 0 for p1 in a.Scurv for p2 in p1 for r in p2 for x in r)
            if has_c and has_r and has_s:
                found = True
                report = nondegenerate_reduce(a)
                assert report.verdict == "symmetric_space"
                assert report.checks["yy_vanishes"]
        assert found

    def test_both_causal_types_generated(self):
        signs = {generate_instance("nondeg", 3, seed).aleph for seed in range(20)}
        assert signs == {1, -1}

    def test_torsion_without_curvature_leaves_half_lambda_c(self):
        # C != 0 with no rotation data: the torsion-curvature relation
        # fails by exactly |lam/2 * C|
        c = zeros3(3)
        for (i, j, k), s in (
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
        ):
            c[i][j][k] = Fraction(s, 3)
        a = NondegenerateAnsatz(n=3, lam=Fraction(2), aleph=1, F=zeros2(3),
                                C=c, R=zeros3(3), Scurv=zeros4(3))
        residuals = verify_constraints(a)
        assert residuals["C_from_R"] == Fraction(2) / 2 * Fraction(1, 3)
        assert jacobi_residual(assemble_algebra(a))[1] != 0

    def test_constraint_residuals_catch_each_field(self):
        a = generate_instance("nondeg", 3, 1)
        # break the torsion against the curvature relation
        c = [[[x for x in row] for row in p] for p in a.C]
        c[0][1][2] += Fraction(1, 5)
        c[1][0][2] -= Fraction(1, 5)
        c[0][2][1] -= Fraction(1, 5)
        c[2][0][1] += Fraction(1, 5)
        c[1][2][0] += Fraction(1, 5)
        c[2][1][0] -= Fraction(1, 5)
        broken = NondegenerateAnsatz(n=3, lam=a.lam, aleph=a.aleph, F=a.F, C=c,
                                     R=a.R, Scurv=a.Scurv, h_basis=a.h_basis)
        residuals = verify_constraints(broken)
        assert residuals["C_from_R"] != 0
        assert pinned_table(residuals) == PINNED["residuals"]["nondeg3s1:C"]
        assert jacobi_residual(assemble_algebra(broken))[1] != 0


class TestDegenerateAssembly:
    def test_wave_encoding_matches_wave_table(self):
        pw = PlaneWaveData(
            2,
            ((Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(0))),
            ((Fraction(1), Fraction(1, 3)), (Fraction(1, 3), Fraction(-1, 2))),
        )
        a = ansatz_from_plane_wave(pw)
        algebra = assemble_algebra(a)
        assert algebra.labels == ("U", "V", "Z1", "Z2", "Zb1", "Zb2")
        assert algebra.f == pw_isometry_algebra(pw).f

    def test_absent_boost_reference_rejected(self):
        h = zeros2(2)
        h[0][1] = Fraction(1)  # column 1 is not occupied
        with pytest.raises(ValueError, match="absent null boost"):
            trivial_deg(2, occupancy=(0,), h=h)

    def test_absent_boost_in_s3_rejected(self):
        s3 = zeros3(2)
        s3[0][1][1] = Fraction(1)
        s3[1][0][1] = Fraction(-1)
        with pytest.raises(ValueError, match="absent null boost"):
            trivial_deg(2, occupancy=(0,), S3=s3)

    def test_span_moving_a_boost_is_inconsistent(self):
        # R[0] rotates the occupied boost 0 onto the absent direction 1,
        # so no bracket table exists to assemble
        r = zeros3(2)
        r[0][0][1], r[0][1][0] = Fraction(1), Fraction(-1)
        a = trivial_deg(2, occupancy=(0,), R=r)
        with pytest.raises(ValueError, match="moves null boost 0 onto the absent direction 1"):
            assemble_algebra(a)
        report = degenerate_reduce(a)
        assert report.verdict == "inconsistent"
        assert report.checks == {"rotation_span_keeps_boosts": False, "moved_boost": 0,
                                 "absent_direction": 1, "rotation_equivariance": 1}
        assert report.failing_identity == ("rotation_span_keeps_boosts", "Zb1", "Z2")
        assert report.residuals["rotation_equivariance"] == 1
        # the second span element rotates boost 1 onto direction 0; the
        # first, in the absent (0, 2) plane, moves no boost
        r = zeros3(3)
        r[0][0][2], r[0][2][0] = Fraction(1), Fraction(-1)
        r[2][1][0], r[2][0][1] = Fraction(1, 3), Fraction(-1, 3)
        report = degenerate_reduce(trivial_deg(3, occupancy=(1,), R=r))
        assert (report.checks["moved_boost"], report.checks["absent_direction"]) == (1, 0)
        assert report.failing_identity == ("rotation_span_keeps_boosts", "Zb2", "Z1")

    def test_unsupported_vector_with_no_boosts_fails_uvz(self):
        a = trivial_deg(2, W=(Fraction(1), Fraction(0)))
        report = degenerate_reduce(a)
        assert report.verdict == "inconsistent"
        assert report.failing_identity == ("U", "V", "Z1")
        assert report.residuals["W"] == 1

    def test_vector_on_single_occupied_boost_still_fails(self):
        # the boost shadow cancels the tangent part, but no rotation can
        # absorb the remaining mixed identity
        a = trivial_deg(2, occupancy=(0,), W=(Fraction(1), Fraction(0)))
        report = degenerate_reduce(a)
        assert report.verdict == "inconsistent"
        assert report.failing_identity is not None


class TestDegenerateReduce:
    def test_wave_roundtrip_is_identity(self):
        pw = PlaneWaveData(
            3,
            (
                (Fraction(0), Fraction(1, 2), Fraction(-1)),
                (Fraction(-1, 2), Fraction(0), Fraction(2, 3)),
                (Fraction(1), Fraction(-2, 3), Fraction(0)),
            ),
            (
                (Fraction(1), Fraction(0), Fraction(1, 4)),
                (Fraction(0), Fraction(-2), Fraction(0)),
                (Fraction(1, 4), Fraction(0), Fraction(1, 2)),
            ),
        )
        report = degenerate_reduce(ansatz_from_plane_wave(pw))
        assert report.verdict == "plane_wave"
        assert report.plane_wave.F == pw.F
        assert report.plane_wave.H == pw.H

    def test_roundtrip_with_eigenvalue_scaling(self):
        pw = PlaneWaveData(2, Z2, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(-1))))
        report = degenerate_reduce(ansatz_from_plane_wave(pw, lam=Fraction(-7, 3)))
        assert report.verdict == "plane_wave"
        assert report.lambda_scale == Fraction(-7, 3)
        assert report.plane_wave.F == pw.F and report.plane_wave.H == pw.H

    def test_oracle_instances_reduce(self):
        for seed in range(10):
            for n in (1, 2, 3, 4):
                a = generate_instance("deg", n, seed)
                assert max(verify_constraints(a).values()) == 0
                work = a.rescaled()
                assert jacobi_residual(assemble_algebra(work))[1] == 0
                report = degenerate_reduce(a)
                assert report.verdict == "plane_wave"
                rebuilt = pw_isometry_algebra(report.plane_wave)
                assert jacobi_residual(rebuilt)[1] == 0
                (_, b1), (_, b2) = report.redefinitions
                for p in (b1, b2, mat_mul(b1, b2)):
                    assert_unipotent(p)

    def test_rotation_rich_instance_trivializes(self):
        # an unoccupied 3-block with rotation data: nonzero C, R, N all
        # cleared by the second redefinition
        found = False
        for seed in range(15):
            a = generate_instance("deg", 4, seed)
            if len(a.occupancy) != 1:
                continue
            has = (
                any(x != 0 for p in a.C for r in p for x in r)
                and any(x != 0 for p in a.R for r in p for x in r)
                and any(x != 0 for p1 in a.N for p2 in p1 for r in p2 for x in r)
            )
            if not has:
                continue
            found = True
            report = degenerate_reduce(a)
            assert report.verdict == "plane_wave"
            assert report.checks["unoccupied_eigen_brackets"]
            assert report.checks["unoccupied_brackets_vanish"]
            assert report.checks["sectors_decouple"]
        assert found

    def test_boost_coupled_instance_reduces(self):
        # occupancy with torsion linking the two sectors exercises the
        # first redefinition
        found = False
        for seed in range(20):
            a = generate_instance("deg", 2, seed)
            if not a.occupancy or len(a.occupancy) == 2:
                continue
            occ = a.occupancy[0]
            other = 1 - occ
            if a.F[other][occ] == 0:
                continue
            found = True
            report = degenerate_reduce(a)
            assert report.verdict == "plane_wave"
            # the emitted rotation keeps the cross-sector block
            assert report.plane_wave.F[other][occ] == a.rescaled().F[other][occ] / 2
        assert found

    def test_redefinition_matrices_recorded(self):
        a = generate_instance("deg", 3, 2)
        report = degenerate_reduce(a)
        names = [name for name, _ in report.redefinitions]
        assert names == ["Y_I = Z_I - F_Ia Zb_a", "W_I = Y_I + R-element(I)"]

    def test_emitted_boost_block_is_the_rescaled_h(self):
        # 2H - F - F^2 = h for the emitted F = f/2 and H = (h + F + F^2)/2,
        # so the wave table reaches an absent boost only where h does
        rng = random.Random("boost-block")
        cases = [generate_instance("deg", n, seed) for n in (2, 3, 4) for seed in range(4)]
        assert any(len(a.occupancy) < a.n for a in cases)
        for n in (1, 2, 3):
            fields = random_fields(n, rng.random(), BIG)
            pw = PlaneWaveData(n, fields["a2"], [[x + y for x, y in zip(row, col)]
                                                 for row, col in zip(fields["m"], zip(*fields["m"]))])
            cases.append(ansatz_from_plane_wave(pw, lam=Fraction(rng.randint(1, 10**9), 7)))
        for a in cases:
            report = degenerate_reduce(a)
            assert report.verdict == "plane_wave"
            assert boost_block(report.plane_wave) == [list(row) for row in a.rescaled().h]


# numerators and denominators up to 10^9
BIG = (10**9, 10**9)


def z(i):
    return f"Z{i + 1}"


def zb(a):
    return f"Zb{a + 1}"


def jacobi_components(ansatz):
    """J(x, y, z, d), the d component of the Jacobi residual of the assembled
    table at the generators labelled x, y, z, and the assembled algebra."""
    algebra = assemble_algebra(ansatz)
    entries = jacobi_residual(algebra)[0]
    index = {label: k for k, label in enumerate(algebra.labels)}
    return lambda *labels: entries.get(tuple(map(index.get, labels)), 0), algebra


def random_deg_table(n, occ, seed, zero=()):
    """A degenerate ansatz at lam = 1, random with large denominators
    wherever the ansatz allows, and with the named fields zero.

    h and S3 vanish on the absent boosts, and the rotation data R, N and
    Y vanish between occupied and absent directions, so the span moves no
    boost.  Almost every such table fails the Jacobi identity.
    """
    r, s = random_fields(n, seed, BIG), random_fields(n, seed + 1, BIG)
    absent = [k for k in range(n) if k not in occ]
    mixed = np.array([[(m in occ) != (k in occ) for k in range(n)] for m in range(n)])

    def masked(t, mask):
        t = np.array(t, dtype=object)
        t[..., mask] = Fraction(0)
        return t.tolist()

    fields = dict(
        n=n, lam=Fraction(1), occupancy=occ, W=r["v"], F=r["a2"], aleph2=s["a2"],
        C=r["c"], h=masked(r["m"], absent), A=s["m"], Y=masked(s["r_last"][0], mixed),
        R=masked(r["r_last"], mixed), S3=masked(r["r_first"], absent),
        N=masked(r["pairs"], mixed),
    )
    fields.update((k, np.zeros(np.shape(fields[k]), dtype=object).tolist()) for k in zero)
    return DegenerateAnsatz(**fields)


class TestDerivedChecks:
    """The Jacobi components behind the checks the reductions derive.

    Each identity holds on every table, consistent or not, so random
    large-denominator data tests it; on a table that passes the Jacobi
    gate it proves the check's value (see the comments in the reductions).
    """

    def test_nondegenerate_torsion_fails_the_gate(self):
        # J_{V Z_i Z_j}^V = 2 aleph lam F_ij: a nonzero F never passes
        for seed, n in itertools.product(range(3), (2, 3, 4)):
            a = generate_instance("nondeg", n, seed)
            f = random_fields(n, seed, BIG)["a2"]
            torsion = NondegenerateAnsatz(n=n, lam=a.lam, aleph=a.aleph, F=f, C=a.C, R=a.R,
                                          Scurv=a.Scurv, h_basis=a.h_basis)
            jac, _ = jacobi_components(torsion)
            for i, j in itertools.product(range(n), repeat=2):
                assert jac("V", z(i), z(j), "V") == 2 * a.aleph * a.lam * f[i][j]
            report = nondegenerate_reduce(torsion)
            assert report.verdict == "inconsistent" and report.lambda_scale == 1
            assert len(report.failing_identity) == 3

    @pytest.mark.parametrize("n, occ", [(2, ()), (3, (0, 2)), (3, (0, 1, 2)), (4, (1,))])
    def test_w_aleph2_y_and_the_profile_are_forced(self, n, occ):
        a = random_deg_table(n, occ, 10 * n + len(occ))
        jac, _ = jacobi_components(a)
        w, f, al, c, h, y = (np.array(getattr(a, k), dtype=object)
                             for k in ("W", "F", "aleph2", "C", "h", "Y"))
        for i in range(n):
            # W = 0 first, so aleph2 = 0, as the sum of aleph2_ij J_{V Z_i Z_j}^V
            # is then |aleph2|^2, and then Y = 0
            if i in occ:
                assert jac("U", z(i), zb(i), zb(i)) == -2 * w[i]
            else:
                assert jac("U", "V", z(i), "V") == 2 * w[i]
            for j in range(n):
                cw = sum(c[i, j, m] * w[m] for m in range(n))
                assert jac("V", z(i), z(j), "V") == (al - f @ al + al @ f)[i, j] - cw
                wc = sum(w[k] * c[i, k, j] for k in range(n))
                assert jac("U", "V", z(i), z(j)) == 2 * y[j, i] - (al @ f - f @ al - al)[i, j] - wc
                # the emitted profile H = (h + f/2 + f^2/4)/2 has H - H^T = (h - h^T + f)/2
                assert jac("U", z(i), z(j), "V") == h[i, j] - h[j, i] + f[i, j]

    @pytest.mark.parametrize("n, occ", [(2, (0,)), (3, (0, 2)), (4, (1, 2, 3)), (4, (0, 3))])
    def test_sectors_decouple(self, n, occ):
        # W, aleph2 and Y are forced to vanish first; [Z_a, W_I] is then
        # read off C, S3, R_I on occupied pairs and the rotation part of
        # [Z_I, Z_a], I absent and a occupied
        a = random_deg_table(n, occ, 10 * n + len(occ), zero=("W", "aleph2", "Y"))
        jac, algebra = jacobi_components(a)
        c, s3, r = (np.array(getattr(a, k), dtype=object) for k in ("C", "S3", "R"))
        absent = [k for k in range(n) if k not in occ]
        rotations = [label for label in algebra.labels if label.startswith("M")]
        assert rotations or n == 2  # two directions have no sector rotation
        for i, b, m in itertools.product(range(n), occ, range(n)):
            assert jac("U", z(i), zb(b), z(m)) == c[i, b, m]
        for i, b in itertools.product(absent, occ):
            row = algebra.bracket(algebra.labels.index(z(i)), algebra.labels.index(z(b)))
            for p in rotations:
                assert jac("U", z(i), zb(b), p) == row.get(algebra.labels.index(p), 0)
            for e in occ:
                assert jac("U", z(i), zb(b), zb(e)) == s3[i, b, e] + r[i, e, b]
        # with C zero wherever an index is occupied, as forced above
        for idx in itertools.product(range(n), repeat=3):
            if set(idx) & set(occ):
                c[idx] = Fraction(0)
        fields = {k: getattr(a, k) for k in ("W", "F", "aleph2", "h", "A", "Y", "R", "S3", "N")}
        jac, _ = jacobi_components(DegenerateAnsatz(n=n, lam=a.lam, occupancy=occ,
                                                     C=c.tolist(), **fields))
        for i, b, e in itertools.product(absent, occ, occ):
            assert jac("U", z(i), z(b), z(e)) == r[i, e, b] - s3[i, b, e]


class TestCrossCheck:
    """Named residuals vanish exactly iff the assembled table closes."""

    def test_oracle_instances_pass_both(self):
        for seed in range(6):
            for case, n in (("nondeg", 3), ("deg", 3), ("deg", 2)):
                a = generate_instance(case, n, seed)
                assert max(verify_constraints(a).values()) == 0
                assert jacobi_residual(assemble_algebra(a.rescaled() if case == "deg" else a))[1] == 0

    def test_perturbations_break_both(self):
        base = generate_instance("deg", 3, 5)
        n = base.n

        def rebuild(**overrides):
            fields = dict(
                n=base.n, lam=base.lam, occupancy=base.occupancy, W=base.W,
                F=base.F, aleph2=base.aleph2, C=base.C, h=base.h, A=base.A,
                Y=base.Y, R=base.R, S3=base.S3, N=base.N,
            )
            fields.update(overrides)
            return DegenerateAnsatz(**fields)

        bump = Fraction(1, 7)
        variants = {}
        w = list(base.W)
        w[0] += bump
        variants["W"] = rebuild(W=tuple(w))
        al = [list(r) for r in base.aleph2]
        al[0][1] += bump
        al[1][0] -= bump
        variants["aleph2"] = rebuild(aleph2=al)
        y = [list(r) for r in base.Y]
        y[0][1] += bump
        y[1][0] -= bump
        variants["Y"] = rebuild(Y=y)
        h = [list(r) for r in base.h]
        occ = base.occupancy[0] if base.occupancy else None
        if occ is not None:
            h[0][occ] += bump
            variants["h"] = rebuild(h=h)
        for name, variant in variants.items():
            residuals = verify_constraints(variant)
            assert max(residuals.values()) != 0
            assert pinned_table(residuals) == PINNED["residuals"][f"deg3s5:{name}"]
            assert jacobi_residual(assemble_algebra(variant.rescaled()))[1] != 0

    def test_dependent_field_bumps_break_both_sides(self):
        # every dependent field of a consistent instance is rigid: any
        # antisymmetry-respecting bump must show up in both the named
        # residual table and the assembled Jacobi residual.
        # seed 5: empty occupancy with rotation data (C, R, N nonzero);
        # seed 2: one occupied direction with sector-coupled torsion.
        bump = Fraction(1, 11)
        for seed in (5, 2):
            base = generate_instance("deg", 3, seed)

            def rebuild(**overrides):
                fields = dict(
                    n=base.n, lam=base.lam, occupancy=base.occupancy, W=base.W,
                    F=base.F, aleph2=base.aleph2, C=base.C, h=base.h, A=base.A,
                    Y=base.Y, R=base.R, S3=base.S3, N=base.N,
                )
                fields.update(overrides)
                return DegenerateAnsatz(**fields)

            variants = {}
            c = [[[x for x in row] for row in p] for p in base.C]
            for (i, j, k), s in (
                ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
            ):
                c[i][j][k] += s * bump
            variants["C"] = rebuild(C=c)
            r = [[[x for x in row] for row in p] for p in base.R]
            r[0][1][2] += bump
            r[0][2][1] -= bump
            variants["R"] = rebuild(R=r)
            nmat = [[[[x for x in r_] for r_ in p2] for p2 in p1] for p1 in base.N]
            nmat[0][1][1][2] += bump
            nmat[0][1][2][1] -= bump
            nmat[1][0][1][2] -= bump
            nmat[1][0][2][1] += bump
            variants["N"] = rebuild(N=nmat)
            absent = [i for i in range(3) if i not in base.occupancy]
            if len(absent) >= 2:
                f = [list(row) for row in base.F]
                i, j = absent[0], absent[1]
                f[i][j] += bump
                f[j][i] -= bump
                variants["F"] = rebuild(F=f)
            for name, variant in variants.items():
                residuals = verify_constraints(variant)
                assert max(residuals.values()) != 0
                assert pinned_table(residuals) == PINNED["residuals"][f"deg3s{seed}:bump{name}"]
                # the table side fails either by a nonzero Jacobi residual
                # or by refusing to assemble (rotation data escaping the
                # modeled boost set)
                try:
                    worst = jacobi_residual(assemble_algebra(variant.rescaled()))[1]
                except ValueError:
                    continue
                assert worst != 0

    def test_free_data_stays_consistent(self):
        # the profile block of A is free: changing it moves to another
        # consistent instance, so neither side flags it
        base = generate_instance("deg", 3, 9)  # occupancy (0, 1)
        assert base.occupancy
        a0 = base.occupancy[0]
        a_mat = [list(row) for row in base.A]
        a_mat[a0][a0] += Fraction(3, 5)
        h = [list(row) for row in base.h]
        h[a0][a0] += Fraction(3, 5)  # keep h = sym(A) - F/2 in step
        variant = DegenerateAnsatz(
            n=base.n, lam=base.lam, occupancy=base.occupancy, W=base.W,
            F=base.F, aleph2=base.aleph2, C=base.C, h=h, A=a_mat,
            Y=base.Y, R=base.R, S3=base.S3, N=base.N,
        )
        assert max(verify_constraints(variant).values()) == 0
        assert jacobi_residual(assemble_algebra(variant.rescaled()))[1] == 0
        assert degenerate_reduce(variant).verdict == "plane_wave"


def random_fields(n, seed, bound=(9, 5)):
    """Random rational arrays of every symmetry class the ansatz fields use,
    each entry a numerator up to bound[0] over a denominator up to bound[1]."""
    rng = random.Random(seed)

    def q():
        return Fraction(rng.randint(-bound[0], bound[0]), rng.randint(1, bound[1]))

    out = {}
    out["v"] = tuple(q() for _ in range(n))
    out["m"] = [[q() for _ in range(n)] for _ in range(n)]
    a2 = zeros2(n)
    for i, j in itertools.combinations(range(n), 2):
        a2[i][j] = q()
        a2[j][i] = -a2[i][j]
    out["a2"] = a2
    c = zeros3(n)
    for idx in itertools.combinations(range(n), 3):
        v = q()
        for perm in itertools.permutations(range(3)):
            sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
            i, j, k = (idx[p] for p in perm)
            c[i][j][k] = sign * v
    out["c"] = c
    r = zeros3(n)  # antisymmetric in the last two slots
    for i in range(n):
        for m, k in itertools.combinations(range(n), 2):
            r[i][m][k] = q()
            r[i][k][m] = -r[i][m][k]
    out["r_last"] = r
    s3 = zeros3(n)  # antisymmetric in the first two slots
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            s3[i][j][k] = q()
            s3[j][i][k] = -s3[i][j][k]
    out["r_first"] = s3
    nn = zeros4(n)  # antisymmetric in both pairs
    for i, j in itertools.combinations(range(n), 2):
        for m, k in itertools.combinations(range(n), 2):
            v = q()
            nn[i][j][m][k] = nn[j][i][k][m] = v
            nn[j][i][m][k] = nn[i][j][k][m] = -v
    out["pairs"] = nn
    return out


class TestPinnedResiduals:
    """Random data in every field, so every residual entry is nonzero.

    Each entry is a maximum, so several seeds are pinned: a slip in one
    component of a contraction moves the maximum for some of them.
    """

    def test_random_nondegenerate_tables(self):
        for seed in range(4):
            d = random_fields(3, seed)
            a = NondegenerateAnsatz(n=3, lam=Fraction(-2, 3), aleph=-1, F=d["a2"], C=d["c"],
                                    R=d["r_last"], Scurv=d["pairs"])
            residuals = verify_constraints(a)
            assert all(v != 0 for v in residuals.values())
            assert pinned_table(residuals) == PINNED["residuals"][f"nondeg3:random{seed}"]

    def test_random_degenerate_tables(self):
        # n = 4 with two absent directions: at n = 3 the cyclic sums of a
        # totally antisymmetric C vanish identically
        n, occ, absent = 4, (0, 2), (1, 3)
        for seed in range(4):
            d, e = random_fields(n, 2 * seed), random_fields(n, 2 * seed + 1)
            h, s3 = d["m"], d["r_first"]
            for i, j, b in itertools.product(range(n), range(n), absent):
                h[i][b] = Fraction(0)
                s3[i][j][b] = Fraction(0)
            a = DegenerateAnsatz(
                n=n, lam=Fraction(3, 2), occupancy=occ, W=d["v"], F=d["a2"], aleph2=e["a2"],
                C=d["c"], h=h, A=e["m"], Y=e["a2"], R=d["r_last"], S3=s3, N=d["pairs"],
            )
            residuals = verify_constraints(a)
            assert all(v != 0 for v in residuals.values())
            assert pinned_table(residuals) == PINNED["residuals"][f"deg4:random{seed}"]


class TestPinnedBytes:
    def test_gen_reduce_bytes_pinned(self):
        # n = 1 is covered here only; a full or empty occupancy sums over
        # an empty selection, which must still give a Fraction, not int 0
        digests = {}
        for case in ("deg", "nondeg"):
            for n in (1, 2, 3, 4):
                for seed in (0, 1, 2):
                    a = generate_instance(case, n, seed)
                    assert all(isinstance(v, Fraction) for v in verify_constraints(a).values())
                    key = f"{case}:{n}:{seed}"
                    digests[f"{key}:gen"] = json_digest(a.to_json())
                    digests[f"{key}:reduce"] = json_digest(reduce_ansatz(a).to_json())
        assert digests == PINNED["digests"]


class TestGenerateInstance:
    def test_seed_stability(self):
        for case in ("nondeg", "deg"):
            a = generate_instance(case, 3, 42)
            b = generate_instance(case, 3, 42)
            assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        outs = {str(generate_instance("deg", 3, seed).to_json()) for seed in range(8)}
        assert len(outs) > 1

    def test_occupancy_varies(self):
        sizes = {len(generate_instance("deg", 3, seed).occupancy) for seed in range(30)}
        assert {0, 3} <= sizes

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError, match="n <= 4"):
            generate_instance("deg", 5, 0)

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="case"):
            generate_instance("weird", 2, 0)


class TestJson:
    def test_degenerate_roundtrip(self):
        a = generate_instance("deg", 3, 9)
        assert ansatz_from_json(a.to_json()).to_json() == a.to_json()

    def test_nondegenerate_roundtrip(self):
        a = generate_instance("nondeg", 3, 9)
        assert ansatz_from_json(a.to_json()).to_json() == a.to_json()

    def test_report_serializes(self):
        report = degenerate_reduce(generate_instance("deg", 2, 3))
        data = report.to_json()
        assert data["verdict"] == "plane_wave"
        assert "residuals" in data and "redefinitions" in data
        assert data["plane_wave"]["n"] == 2

    def test_case_tag_required(self):
        with pytest.raises(ValueError, match="case"):
            ansatz_from_json({"n": 2})
