import json
import os
from pathlib import Path

import pytest

from curvlab import cli
from curvlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
from curvlab.report import Check, VerificationReport


class TestExitCodes:
    def test_passing_suite_exits_zero(self, capsys):
        assert main(["verify", "--suite", "berger", "--t", "4",
                     "--exact"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "=> PASS" in out

    def test_failing_tolerance_exits_one(self, capsys):
        code = main(["verify", "--suite", "thm_invariance",
                     "--model", "random4", "--trials", "1", "--seed", "3",
                     "--tol", "1e-30"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_unknown_model_exits_two(self):
        assert main(["verify", "--suite", "thm_invariance",
                     "--model", "mystery"]) == 2

    def test_exact_with_irrational_t_exits_two(self, capsys):
        code = main(["verify", "--suite", "berger", "--t", "2", "--exact"])
        assert code == 2
        assert "sqrt" in capsys.readouterr().err

    def test_bad_rational_exits_two(self):
        assert main(["verify", "--suite", "berger", "--t", "4/0"]) == 2

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("dim, structure, message", [
        # (e, a, a) is written as c and then as -c, so c^e_aa = -c != 0
        (2, [(0, 1, 1)], "structure constants not antisymmetric"),
        (3, [(0, 0, 1), (1, 1, 2), (0, 1, 2)], "Jacobi identity fails"),
    ])
    def test_broken_frame_config_exits_two(self, exact, dim, structure,
                                           message, tmp_path, capsys):
        cfg = {"kind": "frame", "dim": dim, "exact": exact,
               "metric": [[str(int(i == j)) for j in range(dim)]
                          for i in range(dim)],
               "structure": [{"e": e, "a": a, "b": b, "c": "1"}
                             for e, a, b in structure]}
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_pfaffian",
                     "--model", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--trials", "0"], "trials must be at least 1"),
        (["--trials", "-3"], "trials must be at least 1"),
        (["--tol", "nan"], "tol must be finite and positive"),
        (["--tol", "inf"], "tol must be finite and positive"),
        (["--tol", "-1"], "tol must be finite and positive"),
        (["--tol", "0"], "tol must be finite and positive"),
        (["--jet-order", "-1"], "jet order must be at least 1"),
        (["--jet-order", "0"], "jet order must be at least 1"),
    ])
    def test_meaningless_arguments_exit_two(self, args, message, capsys):
        """Arguments under which a verification would prove nothing are
        configuration errors, not passes or failed verifications."""
        assert main(["verify", "--suite", "thm_invariance"] + args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [RuntimeError, KeyError])
    def test_internal_error_exits_three(self, exc, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise exc("boom")
        monkeypatch.setattr(cli, "run_suite", crash)
        assert main(["verify", "--suite", "berger", "--t", "4"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and f"{exc.__name__}: " in err


class TestJsonReport:
    def test_deterministic_given_seed(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--suite", "thm_invariance", "--model", "random4",
                "--trials", "2", "--seed", "9"]
        assert main(args + ["--json", str(p1)]) == 0
        assert main(args + ["--json", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("t, golden", [
        ("4", "berger_t4_exact.json"),
        ("9/4", "berger_t9_4_exact.json"),
    ], ids=["t4", "t9_4"])
    def test_exact_berger_matches_golden(self, t, golden, tmp_path):
        """Exact reports are byte-identical to the checked-in golden files."""
        path = tmp_path / "berger.json"
        assert main(["verify", "--suite", "berger", "--t", t, "--exact",
                     "--json", str(path)]) == 0
        assert path.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "rep.json"
        main(["verify", "--suite", "berger", "--t", "4", "--json", str(path)])
        data = json.loads(path.read_text())
        assert data["schema"] == 1
        assert data["suite"] == "berger"
        assert data["pass"] is True
        names = [c["name"] for c in data["checks"]]
        assert names == sorted(names)

    def test_residuals_reported_even_on_pass(self, tmp_path):
        path = tmp_path / "rep.json"
        main(["verify", "--suite", "thm_invariance", "--model", "random4",
              "--trials", "1", "--seed", "2", "--json", str(path)])
        data = json.loads(path.read_text())
        assert all("residual" in c for c in data["checks"])


class TestModelConfigPath:
    def test_config_file_model(self, tmp_path):
        cfg = {
            "kind": "chart", "dim": 4, "jet_order": 3,
            "base_point": ["0", "0", "0", "0"],
            "metric": [
                [{"num": {"0,0,0,0": "1" if i == j else "0"}}
                 for j in range(4)] for i in range(4)
            ],
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_invariance",
                     "--model", str(path), "--trials", "1"]) == 0

    @pytest.mark.parametrize("order", [0, -1])
    def test_config_jet_order_below_one_exits_two(self, order, tmp_path,
                                                  capsys):
        cfg = json.loads((CONFIGS / "round_s4_chart.json").read_text())
        cfg["jet_order"] = order
        path = tmp_path / "order.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_invariance",
                     "--model", str(path), "--trials", "1"]) == 2
        assert "jet order must be at least 1" in capsys.readouterr().err

    def test_broken_config_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["verify", "--suite", "thm_invariance",
                     "--model", str(path), "--trials", "1"]) == 2

    @pytest.mark.parametrize("orientation", [2, 0])
    def test_bad_orientation_exits_two(self, orientation, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "berger_frame.json").read_text())
        cfg["factors"][0]["orientation"] = orientation
        path = tmp_path / "oriented.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_pfaffian",
                     "--model", str(path)]) == 2
        assert "orientation must be 1 or -1" in capsys.readouterr().err

    def test_frame_config_without_dim_exits_two(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "berger_frame.json").read_text())
        del cfg["factors"][0]["dim"]
        path = tmp_path / "nodim.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_pfaffian",
                     "--model", str(path)]) == 2
        assert "KeyError: 'dim'" in capsys.readouterr().err


class TestReportObject:
    def test_table_and_flags(self):
        rep = VerificationReport("s", "m", 1)
        rep.add(Check("a", True, 1e-9, 1e-8))
        rep.add(Check("b", True, exact=True))
        assert rep.passed and rep.max_residual() == 1e-9
        txt = rep.table()
        assert "exact" in txt and "residual" in txt
        rep.add(Check("c", False, 1.0, 1e-8))
        assert not rep.passed
