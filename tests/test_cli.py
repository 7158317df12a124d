"""Exit codes, report shapes, and determinism of the command line."""

import io
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

import homkit
import homkit.cli
from homkit.cli import main
from homkit.lie_algebra import _MAX_JACOBI_PRODUCTS, LieAlgebra, jacobi_products, jacobi_residual
from homkit.plane_wave import PlaneWaveData, frame_structure, pw_isometry_algebra
from homkit.reduction import generate_instance
from homkit.tensor_core import FrameMetric

WAVE = PlaneWaveData(
    2,
    ((Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(0))),
    ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1, 2))),
)


@pytest.fixture
def wave_files(tmp_path):
    f = tmp_path / "f.json"
    h = tmp_path / "h.json"
    f.write_text(json.dumps([[str(x) for x in row] for row in WAVE.F]))
    h.write_text(json.dumps([[str(x) for x in row] for row in WAVE.H]))
    return str(f), str(h)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_wave_fixture(self, tmp_path, capsys):
        path = tmp_path / "wave_n2.json"
        path.write_text(json.dumps(frame_structure(WAVE).to_json()))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        report = json.loads(out)
        assert report == {"class": "T1+T3", "degeneracy": "null", "xi_norm": "0"}

    def test_quiet_prints_single_line(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(frame_structure(WAVE).to_json()))
        code, out, _ = run(capsys, "classify", str(path), "--quiet")
        assert code == 0 and out == "T1+T3\n"

    def test_missing_file_is_malformed_input(self, capsys):
        code, _, err = run(capsys, "classify", "no-such-file.json")
        assert code == 2 and "no-such-file.json" in err

    def test_bad_schema_names_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metric": [[1]]}))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2 and "bad.json" in err

    def test_oversized_structure_is_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        s = {"dim": 102, "rank": 3, "valence": ["d", "d", "d"], "entries": {"0,1,2": "1"}}
        path.write_text(json.dumps({"metric": [[1, 0], [0, 1]], "S": s}))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "dim 102 and rank 3" in err

    @pytest.mark.parametrize("s_dim, message", [(3, "S and metric dimensions differ"),
                                                (200, "dim 200 and rank 3 exceeds")])
    def test_oversized_metric_is_refused_before_it_is_inverted(self, tmp_path, capsys, monkeypatch,
                                                               s_dim, message):
        # a dense 200 x 200 exact metric took over 80 s to invert before either refusal
        def inverted(*args, **kwargs):
            raise AssertionError("the metric was inverted")

        monkeypatch.setattr(FrameMetric, "from_matrix", inverted)
        rng = random.Random(0)
        metric = [[f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(200)] for _ in range(200)]
        s = {"dim": s_dim, "rank": 3, "valence": ["d", "d", "d"], "entries": {"0,1,2": "1", "0,2,1": "-1"}}
        path = tmp_path / "big_metric.json"
        path.write_text(json.dumps({"metric": metric, "S": s}))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err


class TestJacobi:
    def test_pass(self, tmp_path, capsys):
        so3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
        path = tmp_path / "so3.json"
        path.write_text(json.dumps(so3.to_json()))
        code, out, _ = run(capsys, "jacobi", str(path))
        assert code == 0
        assert json.loads(out)["max_abs_residual"] == "0"

    def test_failure_names_identity(self, tmp_path, capsys):
        bad = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_json()))
        code, out, _ = run(capsys, "jacobi", str(path))
        assert code == 1
        assert json.loads(out)["failing_identity"] == ["e0", "e1", "e2"]

    def test_failure_computes_the_residual_once(self, tmp_path, capsys, monkeypatch):
        bad = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad.to_json()))
        calls = []

        def counted(algebra):
            calls.append(algebra)
            return jacobi_residual(algebra)

        # the command reads it through the module, as a second reader would
        monkeypatch.setattr(homkit.lie_algebra, "jacobi_residual", counted)
        assert run(capsys, "jacobi", str(path))[0] == 1
        assert len(calls) == 1

    def test_oversized_table_is_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 102, "brackets": {"0,1": {"2": "1"}}}))
        code, out, err = run(capsys, "jacobi", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "dim 102 and rank 3" in err
        assert "Traceback" not in err


def dense_brackets(d):
    """A table with every bracket of a < b holding all d components, none zero."""
    return {(a, b): {c: 1 + (7 * a + 3 * b + c) % 5 for c in range(d)} for a in range(d) for b in range(a + 1, d)}


class TestJacobiWorkCap:
    def test_products_are_counted_from_the_row_sizes(self):
        for d in range(1, 7):
            assert jacobi_products(LieAlgebra.from_brackets(d, dense_brackets(d))) == d**3 * (d - 1) ** 2
        so3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
        # each of the 6 ordered brackets meets the 2 rows that start at its value
        assert jacobi_products(so3) == 12
        assert jacobi_products(LieAlgebra.from_brackets(4, {})) == 0

    def test_cap_admits_dense_dim_16_and_refuses_dense_dim_48(self):
        rows = lambda d: type("Rows", (), {"_rows": {(a, b): dict.fromkeys(range(d), 1)
                                                     for a in range(d) for b in range(d) if a != b}})
        assert jacobi_products(rows(16)) == 16**3 * 15**2 <= _MAX_JACOBI_PRODUCTS
        assert jacobi_products(rows(48)) == 48**3 * 47**2 > _MAX_JACOBI_PRODUCTS

    @pytest.mark.parametrize("d", [16, 4])
    def test_table_within_the_cap_is_summed(self, tmp_path, capsys, monkeypatch, d):
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(LieAlgebra.from_brackets(d, dense_brackets(d)).to_json()))
        calls = []
        monkeypatch.setattr(homkit.lie_algebra, "jacobi_residual", lambda algebra: calls.append(algebra) or ({}, 0))
        code, out, err = run(capsys, "jacobi", str(path))
        assert (code, err, len(calls)) == (0, "", 1) and json.loads(out)["is_lie_algebra"]

    def test_table_over_the_cap_is_refused_before_the_sum(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(LieAlgebra.from_brackets(5, dense_brackets(5)).to_json()))
        # a cap below the 5**3 * 4**2 = 2000 products of a dense dim-5 table
        monkeypatch.setattr(homkit.lie_algebra, "_MAX_JACOBI_PRODUCTS", 1999)
        monkeypatch.setattr(homkit.lie_algebra, "jacobi_residual", lambda algebra: pytest.fail("summed"))
        code, out, err = run(capsys, "jacobi", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: too large: the Jacobi sum would take 2000 products, over 1999\n"


class TestReductive:
    def test_reductive_split(self, tmp_path, capsys):
        so3 = LieAlgebra.from_brackets(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}})
        path = tmp_path / "so3.json"
        path.write_text(json.dumps(so3.to_json()))
        code, out, _ = run(capsys, "reductive", str(path), "--m", "0,1", "--h", "2")
        assert code == 0
        report = json.loads(out)
        assert report["reductive"] is True and report["h_prime_dim"] == 1

    def test_non_reductive_exits_one(self, tmp_path, capsys):
        algebra = pw_isometry_algebra(WAVE)
        path = tmp_path / "wave.json"
        path.write_text(json.dumps(algebra.to_json()))
        code, out, _ = run(capsys, "reductive", str(path), "--m", "0,1,4,5", "--h", "2,3")
        assert code == 1
        assert json.loads(out)["reductive"] is False


class TestPlanewave:
    def test_verify_passes(self, wave_files, capsys):
        f, h = wave_files
        code, out, _ = run(
            capsys, "planewave", "--n", "2", "--F", f, "--H", h,
            "verify", "--points", "10", "--seed", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass" and report["failures"] == []

    def test_verify_fails_on_impossible_tolerance(self, wave_files, capsys):
        f, h = wave_files
        code, out, _ = run(
            capsys, "planewave", "--n", "2", "--F", f, "--H", h,
            "verify", "--points", "4", "--seed", "1", "--tol-r", "0",
        )
        assert code == 1
        assert "r_R" in json.loads(out)["failures"]

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_verify_without_points_is_malformed(self, wave_files, capsys, points):
        f, h = wave_files
        code, out, err = run(
            capsys, "planewave", "--n", "2", "--F", f, "--H", h, "verify", "--points", points,
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--points must be at least 1" in err
        assert "Traceback" not in err

    def test_verify_over_the_work_cap_is_refused_before_sampling(self, wave_files, capsys, monkeypatch):
        # 200000 points x 4**6 terms at n = 2: refused before any point is allocated
        monkeypatch.setattr(homkit.plane_wave, "sample_points", lambda *a: pytest.fail("sampled"))
        f, h = wave_files
        code, out, err = run(
            capsys, "planewave", "--n", "2", "--F", f, "--H", h, "verify", "--points", "200000",
        )
        assert code == 2 and out == ""
        assert err == ("error: --points 200000 is too large at --n 2: the sweep would take "
                       f"{200000 * 4**6} terms, over {2**28}\n")

    @pytest.mark.parametrize("n, points", [(2, 10), (6, 1000), (2, 2**16), (6, 2**10)])
    def test_work_cap_admits_the_documented_sizes(self, tmp_path, capsys, monkeypatch, n, points):
        class Sampled(Exception):
            pass

        def sample_points(*args):
            raise Sampled

        # the cap is passed once the sweep samples its points
        monkeypatch.setattr(homkit.plane_wave, "sample_points", sample_points)
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps([["0"] * n] * n))
        with pytest.raises(Sampled):
            main(["planewave", "--n", str(n), "--F", str(zero), "--H", str(zero), "verify",
                  "--points", str(points)])

    def test_an_oversized_n_is_named_before_the_work_cap(self, tmp_path, capsys):
        # 10 points at n = 16 are over both caps; the chart jets' cap on n is the one named
        zero = tmp_path / "z.json"
        zero.write_text(json.dumps([["0"] * 16] * 16))
        code, _, err = run(capsys, "planewave", "--n", "16", "--F", str(zero), "--H", str(zero),
                           "verify")
        assert code == 2 and err.startswith("error: --n 16 is too large")

    def test_work_cap_is_one_point_past_the_limit(self, wave_files, capsys, monkeypatch):
        monkeypatch.setattr(homkit.plane_wave, "sample_points", lambda *a: pytest.fail("sampled"))
        f, h = wave_files
        code, _, err = run(capsys, "planewave", "--n", "2", "--F", f, "--H", h, "verify",
                           "--points", str(2**16 + 1))
        assert code == 2 and err.startswith("error: --points 65537 is too large at --n 2")

    def test_algebra_output_matches_library(self, wave_files, tmp_path, capsys):
        f, h = wave_files
        out_path = tmp_path / "alg.json"
        code, _, _ = run(
            capsys, "planewave", "--n", "2", "--F", f, "--H", h,
            "algebra", "--out", str(out_path),
        )
        assert code == 0
        written = LieAlgebra.from_json(json.loads(out_path.read_text()))
        assert written.f == pw_isometry_algebra(WAVE).f

    @pytest.mark.parametrize("command", ["algebra", "verify"])
    def test_oversized_wave_is_malformed_input(self, tmp_path, capsys, command):
        # at n = 15 the chart jets would hold 17**5 > 2**20 entries; the
        # size is refused before any matrix is read
        zero = tmp_path / "z.json"
        zero.write_text(json.dumps([["0"] * 15] * 15))
        code, out, err = run(capsys, "planewave", "--n", "15", "--F", str(zero),
                             "--H", str(zero), command)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: --n 15 is too large")
        assert "Traceback" not in err
        assert run(capsys, "planewave", "--n", "15", "--F", "missing.json", "--H",
                   "missing.json", command)[2] == err

    def test_asymmetric_profile_rejected(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        h = tmp_path / "h.json"
        f.write_text(json.dumps([["0", "1"], ["-1", "0"]]))
        h.write_text(json.dumps([["0", "1"], ["0", "0"]]))
        code, _, err = run(capsys, "planewave", "--n", "2", "--F", str(f), "--H", str(h),
                           "verify")
        assert code == 2 and "symmetric" in err


class TestReduceAndGen:
    def test_generate_then_reduce(self, tmp_path, capsys):
        ansatz_path = tmp_path / "ansatz.json"
        code, _, _ = run(capsys, "gen", "--case", "deg", "--n", "3", "--seed", "7",
                         "--out", str(ansatz_path))
        assert code == 0
        report_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "reduce", str(ansatz_path), "--case", "deg",
                         "--out", str(report_path))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "plane_wave"
        assert all(v == "0" for v in report["residuals"].values())

    def test_inconsistent_reduce_exits_one(self, tmp_path, capsys):
        data = generate_instance("deg", 2, 1).to_json()
        data["W"] = ["1", "0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "reduce", str(path), "--case", "deg")
        assert code == 1
        assert json.loads(out)["verdict"] == "inconsistent"

    def test_span_moving_a_boost_exits_one(self, tmp_path, capsys):
        # R[0] rotates the occupied boost 0 onto the absent direction 1
        def zero(*shape):
            return [zero(*shape[1:]) for _ in range(shape[0])] if shape else 0

        data = {"case": "deg", "n": 2, "lambda": "1", "occupancy": [0], "W": zero(2),
                "F": zero(2, 2), "aleph2": zero(2, 2), "C": zero(2, 2, 2), "h": zero(2, 2),
                "A": zero(2, 2), "Y": zero(2, 2), "R": [[[0, 1], [-1, 0]], zero(2, 2)],
                "S3": zero(2, 2, 2), "N": zero(2, 2, 2, 2)}
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "reduce", str(path), "--case", "deg")
        assert code == 1 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "inconsistent"
        assert report["checks"] == {"rotation_span_keeps_boosts": False, "moved_boost": 0,
                                    "absent_direction": 1, "rotation_equivariance": "1"}
        assert report["failing_identity"] == ["rotation_span_keeps_boosts", "Zb1", "Z2"]

    def test_case_mismatch_is_malformed(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(generate_instance("deg", 2, 1).to_json()))
        code, _, err = run(capsys, "reduce", str(path), "--case", "nondeg")
        assert code == 2 and "case" in err

    @pytest.mark.parametrize("field", ["F", "C", "n", "occupancy", "A"])
    def test_malformed_ansatz_is_input_error(self, field, tmp_path, capsys):
        data = generate_instance("deg", 2, 1).to_json()
        if field == "F":
            data["F"][0][1] = None
        elif field == "C":
            data["C"][0][1] = [data["C"][0][1]]  # one nesting level too many
        elif field == "n":
            data["n"] = "2"
        elif field == "A":
            data["A"][0][0] = 0.1  # a float, not the exact "1/10"
        else:
            data["occupancy"] = [0.5]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "reduce", str(path), "--case", "deg")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {field}") and err.count("\n") == 1

    def test_nondeg_reduce(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(generate_instance("nondeg", 3, 2).to_json()))
        code, out, _ = run(capsys, "reduce", str(path), "--case", "nondeg", "--quiet")
        assert code == 0 and out == "symmetric_space\n"

    def test_seed_env_is_ignored(self, capsys, monkeypatch):
        argv = ("gen", "--case", "deg", "--n", "2", "--seed", "5")
        monkeypatch.delenv("HOMKIT_SEED", raising=False)
        code1, out1, _ = run(capsys, *argv)
        monkeypatch.setenv("HOMKIT_SEED", "11")
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2 != run(capsys, "gen", "--case", "deg", "--n", "2", "--seed", "11")[1]

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "gen", "--case", "deg", "--n", "2", "--frobnicate")
        assert code == 2


class TestDeterminism:
    def test_byte_stable_across_processes(self, tmp_path):
        cmd = [sys.executable, "-m", "homkit.cli", "gen", "--case", "deg", "--n", "3",
               "--seed", "13"]
        # the child imports the same homkit as this process, installed or not
        src = os.path.dirname(os.path.dirname(os.path.abspath(homkit.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        a = subprocess.run(cmd, capture_output=True, text=True, env=env)
        b = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_verify_byte_stable(self, wave_files, capsys):
        f, h = wave_files
        args = ("planewave", "--n", "2", "--F", f, "--H", h, "verify", "--points", "5",
                "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestBoundaryChecks:
    # Python's json module reads the non-standard literals Infinity and NaN
    INFINITE_BRACKET = (
        '{"dim": 3, "brackets": {"0,1": {"2": Infinity}, "0,2": {"1": 1.0}, "1,2": {"0": 1.0}}}'
    )
    INFINITE_STRUCTURE = (
        '{"metric": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], '
        '"S": {"dim": 3, "rank": 3, "valence": ["d", "d", "d"], '
        '"entries": {"0,0,1": Infinity, "0,1,0": -Infinity}}}'
    )

    def assert_one_line_error(self, code, out, err, text):
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and text in err and "Traceback" not in err

    def test_jacobi_rejects_infinite_bracket(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(self.INFINITE_BRACKET)
        code, out, err = run(capsys, "jacobi", str(path))
        self.assert_one_line_error(code, out, err, "non-finite scalar inf")

    def test_classify_rejects_infinite_structure(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(self.INFINITE_STRUCTURE)
        code, out, err = run(capsys, "classify", str(path))
        self.assert_one_line_error(code, out, err, "non-finite scalar inf")

    def test_classify_rejects_short_index(self, tmp_path, capsys):
        s = {"dim": 3, "rank": 3, "valence": ["d", "d", "d"], "entries": {"0,1": "1"}}
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "S": s}))
        code, out, err = run(capsys, "classify", str(path))
        self.assert_one_line_error(code, out, err, "index (0, 1): need 3 indices, got 2")

    @pytest.mark.parametrize("valence", ["ddd", 3], ids=["string", "number"])
    def test_classify_rejects_non_list_valence(self, tmp_path, capsys, valence):
        # a string would be read one flag per character, a number not at all
        s = {"dim": 3, "rank": 3, "valence": valence, "entries": {"0,1,2": "1", "0,2,1": "-1"}}
        path = tmp_path / "valence.json"
        path.write_text(json.dumps({"metric": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "S": s}))
        code, out, err = run(capsys, "classify", str(path))
        self.assert_one_line_error(code, out, err, f'valence must be a list of "u"/"d" flags, not {valence!r}')

    S_EMPTY = {"rank": 3, "valence": ["d", "d", "d"], "entries": {}}

    @pytest.mark.parametrize("dim", ["3", 2.0, True])
    @pytest.mark.parametrize("form", ["jacobi", "reductive"])
    def test_bracket_table_rejects_non_integer_dim(self, tmp_path, capsys, form, dim):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({"dim": dim, "brackets": {"0,1": {"1": "1"}}}))
        argv = [form, str(path)] + (["--m", "0", "--h", "1"] if form == "reductive" else [])
        code, out, err = run(capsys, *argv)
        self.assert_one_line_error(code, out, err, f"dim must be an integer, got {dim!r}")

    @pytest.mark.parametrize(
        "fields, text",
        [
            ({"labels": "abc"}, "labels must be a list of strings"),
            ({"labels": ["a", 1, "c"]}, "labels must be a list of strings"),
            ({"brackets": []}, "brackets must be an object"),
            ({"brackets": {"0,1": []}}, "bracket '0,1' must be an object"),
        ],
        ids=["labels-string", "labels-non-string", "brackets-list", "row-list"],
    )
    @pytest.mark.parametrize("form", ["jacobi", "reductive"])
    def test_bracket_table_rejects_wrong_field_type(self, tmp_path, capsys, form, fields, text):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(dict({"dim": 3, "brackets": {"0,1": {"2": "1"}}}, **fields)))
        argv = [form, str(path)] + (["--m", "0,1", "--h", "2"] if form == "reductive" else [])
        code, out, err = run(capsys, *argv)
        self.assert_one_line_error(code, out, err, text)

    @pytest.mark.parametrize("dim", ["2", 2.0, True])
    def test_classify_rejects_non_integer_dim(self, tmp_path, capsys, dim):
        path = tmp_path / "dim.json"
        path.write_text(json.dumps({"metric": [[1, 0], [0, 1]], "S": dict(self.S_EMPTY, dim=dim)}))
        code, out, err = run(capsys, "classify", str(path))
        self.assert_one_line_error(code, out, err, f"dim must be an integer, got {dim!r}")

    @pytest.mark.parametrize("metric, entries", [([["1"]], {}), ([[1.0]], {"0,0,0": 0.0})],
                             ids=["exact", "float"])
    def test_classify_rejects_dimension_one(self, tmp_path, capsys, metric, entries):
        # the defining one-form divides by D - 1: a one-dimensional S has none
        path = tmp_path / "dim1.json"
        s = {"dim": 1, "valence": ["d", "d", "d"], "entries": entries}
        path.write_text(json.dumps({"metric": metric, "S": s}))
        code, out, err = run(capsys, "classify", str(path))
        self.assert_one_line_error(code, out, err, f"error: {path}: classify needs dimension at least 2, got 1")

    @pytest.mark.parametrize(
        "data,text",
        [([1, 2], "structure must be a JSON object"),
         ("S", "structure must be a JSON object"),
         ({"metric": [[1, 0], [0, 1]], "S": []}, "S must be a JSON object")],
        ids=["list", "string", "S-list"],
    )
    def test_classify_rejects_non_object(self, tmp_path, capsys, data, text):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "classify", str(path))
        self.assert_one_line_error(code, out, err, text)

    @pytest.mark.parametrize(
        "metric",
        [[1, 2], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], {"0": [1]}],
        ids=["flat", "ragged", "wide", "tall", "object"],
    )
    def test_classify_rejects_non_square_metric(self, tmp_path, capsys, metric):
        path = tmp_path / "metric.json"
        path.write_text(json.dumps({"metric": metric, "S": dict(self.S_EMPTY, dim=2)}))
        code, out, err = run(capsys, "classify", str(path))
        self.assert_one_line_error(code, out, err, "metric must be a square array")

    @pytest.mark.parametrize("form, field", [("classify", "S"), ("jacobi", "dim"),
                                             ("reductive", "dim"), ("reduce", "n")])
    def test_missing_field_is_named(self, tmp_path, capsys, form, field):
        if form == "reduce":
            data = generate_instance("deg", 2, 1).to_json()
            argv = ["--case", "deg"]
        elif form == "classify":
            data = {"metric": [[1, 0], [0, 1]], "S": dict(self.S_EMPTY, dim=2)}
            argv = []
        else:
            data = {"dim": 3, "brackets": {"0,1": {"2": "1"}}}
            argv = ["--m", "0,1", "--h", "2"] if form == "reductive" else []
        del data[field]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, form, str(path), *argv)
        assert code == 2 and out == ""
        assert err == f"error: {path}: missing field '{field}'\n"

    @pytest.mark.parametrize("where", ["entry", "metric", "jacobi", "reductive"])
    def test_zero_denominator_is_malformed(self, tmp_path, capsys, where):
        path = tmp_path / "zero.json"
        if where in ("entry", "metric"):
            metric = [[1, 0], [0, "1/0" if where == "metric" else 1]]
            s = dict(self.S_EMPTY, dim=2, entries={"0,0,1": "1/0" if where == "entry" else "1"})
            path.write_text(json.dumps({"metric": metric, "S": s}))
            argv = ["classify", str(path)]
        else:
            path.write_text(json.dumps({"dim": 2, "brackets": {"0,1": {"1": "1/0"}}}))
            argv = [where, str(path)] + (["--m", "0", "--h", "1"] if where == "reductive" else [])
        code, out, err = run(capsys, *argv)
        self.assert_one_line_error(code, out, err, "zero denominator in scalar '1/0'")


class TestUnreadableInput:
    """An input file that cannot be read or decoded exits 2 with one error line."""

    COMMANDS = {"jacobi": (), "classify": (), "reduce": ("--case", "deg")}

    @staticmethod
    def write(tmp_path, kind):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not UTF-8":
            path.write_bytes(b'{"dim": \xff}')
        else:  # nested deeper than the decoder's recursion limit
            path.write_text("[" * 200_000 + "]" * 200_000)
        return str(path)

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("kind, text", [
        ("directory", "cannot read ([Errno"),
        ("not UTF-8", "cannot read ('utf-8' codec can't decode byte 0xff"),
        ("nested", "cannot read (maximum recursion depth exceeded"),
    ])
    def test_exits_two_with_one_line(self, tmp_path, capsys, command, kind, text):
        path = self.write(tmp_path, kind)
        code, out, err = run(capsys, command, path, *self.COMMANDS[command])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {text}") and err.count("\n") == 1


class TestUnwritableOutput:
    """An --out file that cannot be written exits 2 with one error line, after the work."""

    @staticmethod
    def argv(tmp_path, wave_files, command):
        if command == "gen":
            return ["gen", "--case", "deg", "--n", "2", "--seed", "1"]
        if command == "reduce":
            ansatz = tmp_path / "ansatz.json"
            ansatz.write_text(json.dumps(generate_instance("deg", 2, 1).to_json()))
            return ["reduce", str(ansatz), "--case", "deg"]
        f, h = wave_files
        return ["planewave", "--n", "2", "--F", f, "--H", h, "algebra"]

    @pytest.mark.parametrize("command", ["gen", "reduce", "planewave algebra"])
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_exits_two_with_one_line(self, tmp_path, wave_files, capsys, command, target):
        out_path = tmp_path / "no" / "such" / "a.json" if target == "missing directory" else tmp_path
        for quiet in ((), ("--quiet",)):
            argv = self.argv(tmp_path, wave_files, command) + ["--out", str(out_path), *quiet]
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {out_path}: cannot write ([Errno") and err.count("\n") == 1


class BrokenStdout(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestUnwritableStdout:
    """A stdout that cannot take the report exits 2 with one error line, after the work."""

    @staticmethod
    def argv(tmp_path, command):
        if command == "classify":
            path = tmp_path / "s.json"
            path.write_text(json.dumps(frame_structure(WAVE).to_json()))
            return ["classify", str(path)]
        return ["gen", "--case", "deg", "--n", "3", "--seed", "1"]

    @pytest.mark.parametrize("command", ["gen", "classify"])
    @pytest.mark.parametrize("quiet", [(), ("--quiet",)], ids=["report", "quiet"])
    def test_broken_pipe_in_process(self, tmp_path, capsys, monkeypatch, command, quiet):
        argv = self.argv(tmp_path, command) + list(quiet)
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: <stdout>: cannot write ([Errno 32] Broken pipe)\n"

    def test_closed_descriptor_in_process(self, capsys, monkeypatch):
        # with descriptor 1 closed at start-up, Python sets sys.stdout to None
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["gen", "--case", "deg", "--n", "1"]) == 2
        assert capsys.readouterr().err == "error: <stdout>: cannot write (closed)\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["gen", "classify"])
    @pytest.mark.parametrize("quiet", [(), ("--quiet",)], ids=["report", "quiet"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_dev_full_in_a_child(self, tmp_path, command, quiet, unbuffered):
        src = os.path.dirname(os.path.dirname(os.path.abspath(homkit.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        # a buffered stdout is flushed again at exit, which must not fail a second time
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        cmd = [sys.executable, "-m", "homkit.cli", *self.argv(tmp_path, command), *quiet]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.returncode == 2
        # one line: no traceback, and no "Exception ignored" from the exit-time flush
        assert proc.stderr.startswith("error: <stdout>: cannot write ([Errno 28] ")
        assert proc.stderr.count("\n") == 1


class TestVerifyFloatRange:
    """planewave verify runs on float64: nan never passes, and out-of-range input is malformed."""

    @staticmethod
    def files(tmp_path, f, h):
        """F and H files of 1 x 1 matrices, or of the matrices given."""
        paths = tmp_path / "f.json", tmp_path / "h.json"
        for path, m in zip(paths, (f, h)):
            path.write_text(json.dumps(m if isinstance(m, list) else [[m]]))
        return [str(p) for p in paths]

    def test_overflowing_chain_fails_with_nan(self, tmp_path, capsys):
        f, h = self.files(tmp_path, "0", "1e308")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "planewave", "--n", "1", "--F", f, "--H", h,
                                 "verify", "--points", "3")
        report = json.loads(out)
        assert code == 1 and report["verdict"] == "fail" and err == ""
        assert report["residuals"]["r_R"] == "nan" and "r_R" in report["failures"]

    @pytest.mark.parametrize("field", ["F", "H"])
    def test_entry_beyond_float_range_is_malformed(self, tmp_path, capsys, field):
        zero = [["0", "0"], ["0", "0"]]
        # F is antisymmetric and H symmetric
        big = [["0", "1e400"], ["-1e400" if field == "F" else "1e400", "0"]]
        f, h = self.files(tmp_path, *((big, zero) if field == "F" else (zero, big)))
        code, out, err = run(capsys, "planewave", "--n", "2", "--F", f, "--H", h, "verify")
        assert code == 2 and out == ""
        path = f if field == "F" else h
        assert err == f"error: {path}: an entry of {field} is beyond float range\n"

    def test_algebra_takes_an_entry_beyond_float_range(self, tmp_path, capsys):
        f, h = self.files(tmp_path, "0", "1e400")
        code, out, _ = run(capsys, "planewave", "--n", "1", "--F", f, "--H", h, "algebra")
        assert code == 0 and json.loads(out)["labels"]

    @pytest.mark.parametrize("flag", ["--tol-g", "--tol-s", "--tol-geo", "--tol-r"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_tolerance_that_is_not_finite_and_non_negative_is_malformed(
            self, wave_files, capsys, flag, value):
        f, h = wave_files
        code, out, err = run(capsys, "planewave", "--n", "2", "--F", f, "--H", h,
                             "verify", f"{flag}={value}")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be a finite number")
