"""Command-line interface: every subcommand, exit codes, file formats."""

import json

import pytest

from plicode import cli
from plicode.bench import BenchmarkError
from plicode.bingreedy import EncoderStallError
from plicode.cli import main
from plicode.fields import FMatrix, InconsistentSystemError
from plicode.instances import PliableInstance
from plicode.oracle import OracleError
from plicode.randomized import RandomizedCapError

from conftest import DEMO_REQUIREMENTS


@pytest.fixture
def demo_file(tmp_path, demo_instance):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(demo_instance.to_json()))
    return str(path)


@pytest.fixture
def quad_file(tmp_path, quad_instance):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(quad_instance.to_json()))
    return str(path)


class TestGen:
    def test_random_json(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "random", "--n", "10", "--m", "5", "--p", "0.4",
                     "--seed", "3", "--out", str(out)]) == 0
        inst = PliableInstance.from_json(json.loads(out.read_text()))
        assert inst.n == 10 and inst.m == 5

    def test_random_text_format(self, tmp_path):
        out = tmp_path / "inst.txt"
        assert main(["gen", "random", "--n", "4", "--m", "3", "--seed", "1",
                     "--out", str(out)]) == 0
        inst = PliableInstance.from_text(out.read_text())
        assert inst.n == 4 and inst.m == 3

    def test_all_pairs(self, tmp_path):
        out = tmp_path / "quad.json"
        assert main(["gen", "all-pairs", "--m", "4", "--out", str(out)]) == 0
        inst = PliableInstance.from_json(json.loads(out.read_text()))
        assert inst.n == 4 + 6

    def test_seeded_reproducibility(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["gen", "random", "--n", "20", "--m", "8", "--seed", "9",
                  "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_m_is_error(self, tmp_path, capsys):
        rc = main(["gen", "random", "--n", "5", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestEncode:
    def test_bingreedy_demo(self, tmp_path, demo_file, demo_instance):
        mat_out, rep_out = tmp_path / "mat.json", tmp_path / "rep.json"
        rc = main(["encode", "--alg", "bingreedy", "--instance", demo_file,
                   "--matrix-out", str(mat_out), "--report-out", str(rep_out)])
        assert rc == 0
        report = json.loads(rep_out.read_text())
        assert len(report["rounds"]) == 1
        assert report["rows_raw"] == 6 and report["rows_pruned"] == 3
        matrix = FMatrix.from_json(json.loads(mat_out.read_text()))
        assert matrix.n_rows == 6 and matrix.field.q == 2

    def test_bingreedy_prune(self, tmp_path, demo_file):
        mat_out = tmp_path / "mat.json"
        main(["encode", "--alg", "bingreedy", "--prune", "--instance", demo_file,
              "--matrix-out", str(mat_out), "--report-out", str(tmp_path / "r.json")])
        matrix = FMatrix.from_json(json.loads(mat_out.read_text()))
        assert matrix.n_rows == 3

    def test_randomized_prune(self, tmp_path, demo_file):
        mat_out, rep_out = tmp_path / "mat.json", tmp_path / "rep.json"
        assert main(["encode", "--alg", "randomized", "--seed", "5", "--prune",
                     "--instance", demo_file, "--matrix-out", str(mat_out),
                     "--report-out", str(rep_out)]) == 0
        matrix = FMatrix.from_json(json.loads(mat_out.read_text()))
        assert matrix.n_rows == json.loads(rep_out.read_text())["rows_pruned"]
        assert matrix.entries.any(axis=1).all()

    def test_randomized_seeded(self, tmp_path, demo_file):
        outs = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            rc = main(["encode", "--alg", "randomized", "--seed", "5",
                       "--instance", demo_file, "--matrix-out", str(path),
                       "--report-out", str(tmp_path / ("r" + name))])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_optimal_on_quad(self, tmp_path, quad_file):
        mat_out, rep_out = tmp_path / "mat.json", tmp_path / "rep.json"
        rc = main(["encode", "--alg", "optimal", "--q", "3", "--max-k", "2",
                   "--instance", quad_file, "--matrix-out", str(mat_out),
                   "--report-out", str(rep_out)])
        assert rc == 0
        assert json.loads(rep_out.read_text())["K"] == 2

    def test_optimal_infeasible_cap(self, quad_file, tmp_path, capsys):
        rc = main(["encode", "--alg", "optimal", "--q", "2", "--max-k", "2",
                   "--instance", quad_file,
                   "--matrix-out", str(tmp_path / "m.json"),
                   "--report-out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "no code" in capsys.readouterr().err

    def test_optimal_zero_cap_is_a_cap(self, demo_file, tmp_path, capsys):
        # --max-k 0 allows only the empty code, not "no cap".
        rc = main(["encode", "--alg", "optimal", "--max-k", "0",
                   "--instance", demo_file,
                   "--matrix-out", str(tmp_path / "m.json"),
                   "--report-out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "no code of length <= 0" in capsys.readouterr().err

    def test_bad_instance_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not valid")
        rc = main(["encode", "--alg", "bingreedy", "--instance", str(bad),
                   "--matrix-out", str(tmp_path / "m.json"),
                   "--report-out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "not a valid instance" in capsys.readouterr().err


class TestVerify:
    def test_valid_ternary_code(self, tmp_path, quad_file, ternary_code, capsys):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps(ternary_code.to_json()))
        rc = main(["verify", "--instance", quad_file, "--matrix", str(mat)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "valid"

    def test_all_zero_matrix_invalid(self, tmp_path, quad_file, capsys):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps({"q": 3, "rows": [[0, 0, 0, 0], [0, 0, 0, 0]]}))
        rc = main(["verify", "--instance", quad_file, "--matrix", str(mat)])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "invalid"

    def test_report_out(self, tmp_path, demo_file, demo_matrix):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps(demo_matrix.to_json()))
        rep = tmp_path / "rep.json"
        rc = main(["verify", "--instance", demo_file, "--matrix", str(mat),
                   "--report-out", str(rep)])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert len(report) == len(DEMO_REQUIREMENTS)
        assert all(r["status"] == "satisfied" for r in report)

    def test_missing_matrix_file(self, tmp_path, demo_file, capsys):
        rc = main(["verify", "--instance", demo_file,
                   "--matrix", str(tmp_path / "none.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err


class TestMinrank:
    def test_quad_ternary(self, tmp_path, quad_file):
        out = tmp_path / "res.json"
        rc = main(["minrank", "--instance", quad_file, "--q", "3",
                   "--out", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["K"] == 2 and obj["witness"]["q"] == 3

    def test_stdout_default(self, quad_file, capsys):
        rc = main(["minrank", "--instance", quad_file, "--q", "3"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["K"] == 2

    def test_zero_cap_is_a_cap(self, quad_file, capsys):
        # --max-r 0 searches no dimension at all, so nothing is found.
        rc = main(["minrank", "--instance", quad_file, "--q", "3", "--max-r", "0"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["K"] is None


class TestBench:
    def test_small_run_and_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--n", "20", "30", "--instances", "2",
                   "--seed", "1", "--no-timing", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("n,m,p,seed,algorithm,code_length_raw,"
                            "code_length_pruned,rounds,satisfied,runtime_ms")
        assert len(lines) == 1 + 2 * 2 * 2
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"20", "30"} or set(summary) == {20, 30}

    def test_no_timing_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["bench", "--n", "25", "--instances", "2", "--seed", "4",
                  "--no-timing", "--out", str(out),
                  "--summary-out", str(tmp_path / ("s" + out.name))])
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_m(self, tmp_path):
        out = tmp_path / "bench.csv"
        main(["bench", "--n", "15", "--instances", "1", "--m-fixed", "6",
              "--no-timing", "--out", str(out),
              "--summary-out", str(tmp_path / "s.json")])
        assert out.read_text().splitlines()[1].split(",")[1] == "6"


class TestCounterexample:
    def test_all_checks_pass(self, capsys):
        rc = main(["counterexample"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 9
        assert all(l.startswith("PASS") for l in lines)


class TestExitCodes:
    """0 ok, 1 invalid code, 2 usage or input error, 3 internal invariant failure."""

    @pytest.mark.parametrize(
        "target, error, argv",
        [
            ("bingreedy", EncoderStallError, ["encode", "--alg", "bingreedy"]),
            ("bingreedy", InconsistentSystemError, ["encode", "--alg", "bingreedy"]),
            ("randomized_code", RandomizedCapError, ["encode", "--alg", "randomized"]),
            ("optimal_code_length", OracleError, ["encode", "--alg", "optimal"]),
            ("run_benchmark", BenchmarkError, ["bench", "--n", "10"]),
        ],
    )
    def test_internal_error_exits_3(self, monkeypatch, tmp_path, demo_file, capsys,
                                    target, error, argv):
        def fail(*args, **kwargs):
            raise error("invariant broken")

        monkeypatch.setattr(cli, target, fail)
        if argv[0] == "encode":
            argv = argv + ["--instance", demo_file, "--matrix-out", str(tmp_path / "m.json"),
                           "--report-out", str(tmp_path / "r.json")]
        else:
            argv = argv + ["--out", str(tmp_path / "b.csv")]
        assert main(argv) == 3
        assert "error: internal: invariant broken" in capsys.readouterr().err

    def test_encoder_output_failing_self_check_exits_3(self, monkeypatch, tmp_path,
                                                       demo_file, capsys):
        monkeypatch.setattr(cli, "is_valid_code", lambda matrix, instance: False)
        rc = main(["encode", "--alg", "bingreedy", "--instance", demo_file,
                   "--matrix-out", str(tmp_path / "m.json")])
        assert rc == 3
        assert "error: internal:" in capsys.readouterr().err

    def test_matrix_width_mismatch_exits_2(self, tmp_path, demo_file, capsys):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps({"q": 2, "rows": [[1, 0]]}))
        assert main(["verify", "--instance", demo_file, "--matrix", str(mat)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "internal" not in err

    def test_non_integer_matrix_entry_exits_2(self, tmp_path, demo_file, capsys):
        mat = tmp_path / "mat.json"
        mat.write_text(json.dumps({"q": 2, "rows": [[1.7, 0, 0]]}))
        assert main(["verify", "--instance", demo_file, "--matrix", str(mat)]) == 2
        assert "not a valid matrix" in capsys.readouterr().err

    def test_composite_field_order_exits_2(self, quad_file, capsys):
        assert main(["minrank", "--instance", quad_file, "--q", "4"]) == 2
        assert "prime" in capsys.readouterr().err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        rc = main(["gen", "random", "--n", "5", "--m", "3",
                   "--out", str(tmp_path / "missing" / "inst.json")])
        assert rc == 2
        assert "No such file or directory" in capsys.readouterr().err

    def test_bad_bench_config_exits_2(self, tmp_path, capsys):
        assert main(["bench", "--n", "10", "--instances", "0",
                     "--out", str(tmp_path / "b.csv")]) == 2
        assert "instances must be >= 1" in capsys.readouterr().err
