import json
import os
from fractions import Fraction
from pathlib import Path

import pytest

from curvlab import cli, suites
from curvlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"
IDENTITY4 = [[str(int(i == j)) for j in range(4)] for i in range(4)]
from curvlab.report import Check, VerificationReport


def _berger_times_line(frame_metric):
    """A float Berger 3-frame with the given metric table times a flat
    line chart: a 4-dimensional model that is not homogeneous."""
    cfg = json.loads((CONFIGS / "berger_frame.json").read_text())
    frame = dict(cfg["factors"][0], exact=False, metric=frame_metric)
    line = {"kind": "chart", "dim": 1, "base_point": ["0"],
            "metric": [[{"num": {"0": "1"}}]]}
    return {"kind": "product", "factors": [frame, line]}


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

    def test_model_help_lists_every_model(self, capsys):
        assert main(["verify", "--help"]) == 0
        out = capsys.readouterr().out
        assert all(name in out for name in suites.MODELS)

    def test_unknown_model_exits_two(self, capsys):
        assert main(["verify", "--suite", "thm_invariance",
                     "--model", "mystery"]) == 2
        assert "unknown model 'mystery'; the models of dimension 4 are " \
            "flat, flat4, fs_cp2, random4, round_s4" in capsys.readouterr().err

    def test_frame_model_name_exits_two(self, capsys):
        """--model takes charts only; a frame name is unknown to it."""
        assert main(["verify", "--suite", "lemmas",
                     "--model", "berger_product"]) == 2
        assert "unknown model 'berger_product'; the models of dimension 4 " \
            "are flat, flat4, fs_cp2, random4, round_s4" in \
            capsys.readouterr().err

    def test_model_of_wrong_dimension_exits_two(self, capsys):
        assert main(["verify", "--suite", "ac_identities",
                     "--model", "round_s4"]) == 2
        assert "model 'round_s4' has dimension 4, but this suite runs in " \
            "dimension 6; the models of dimension 6 are flat6, random6" \
            in capsys.readouterr().err

    def test_float_berger_exits_two(self, capsys):
        """The berger suite asserts exact equalities; --float is refused
        rather than ignored."""
        assert main(["verify", "--suite", "berger", "--t", "4",
                     "--float"]) == 2
        assert "does not take --float" in capsys.readouterr().err

    def test_exact_with_irrational_t_exits_two(self, capsys):
        code = main(["verify", "--suite", "berger", "--t", "2", "--exact"])
        assert code == 2
        assert "sqrt" in capsys.readouterr().err

    def test_bad_rational_exits_two(self):
        assert main(["verify", "--suite", "berger", "--t", "4/0"]) == 2

    @pytest.mark.parametrize("t_args", [["--t", "-1"], ["--t=-1/4"],
                                        ["--t", "0"]])
    def test_nonpositive_berger_t_exits_two(self, t_args, capsys):
        assert main(["verify", "--suite", "berger"] + t_args) == 2
        assert "Berger parameter t must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["thm_invariance", "lemmas",
                                       "naturality", "core_identities",
                                       "berger"])
    def test_negative_seed_exits_two(self, suite, capsys):
        assert main(["verify", "--suite", suite, "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

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

    def test_config_named_random_is_one_chart(self, tmp_path, monkeypatch,
                                              capsys):
        """A config path is a fixed chart whatever its name: thm_pfaffian
        runs it once, not once per trial."""
        monkeypatch.chdir(tmp_path)
        Path("random_s4.json").write_text(
            (CONFIGS / "round_s4_chart.json").read_text())
        assert main(["verify", "--suite", "thm_pfaffian",
                     "--model", "random_s4.json"]) == 0
        out = capsys.readouterr().out
        assert "[1 charts]" in out and "[20 charts]" not in out

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

    @pytest.mark.parametrize("cfg, message", [
        ({"kind": "frame", "dim": 4, "metric": IDENTITY4,
          "structure": [{"e": 5, "a": 0, "b": 1, "c": "1"}]},
         "structure index (5, 0, 1) is out of range"),
        # numpy would wrap a negative index onto the last row
        ({"kind": "frame", "dim": 4, "metric": IDENTITY4,
          "structure": [{"e": -1, "a": 0, "b": 1, "c": "1"}]},
         "structure index (-1, 0, 1) is out of range"),
        ({"kind": "frame", "dim": 4, "metric": IDENTITY4[:3]}, "IndexError"),
        ({"kind": "chart", "dim": 4, "base_point": ["0"] * 4,
          "metric": [[{"num": {"0,0,0,0": x}} for x in row]
                     for row in IDENTITY4[:3]]}, "IndexError"),
        ([{"kind": "frame", "dim": 4, "metric": IDENTITY4}],
         "a model config must be a JSON object, got list"),
    ])
    def test_malformed_config_exits_two(self, cfg, message, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_pfaffian",
                     "--model", str(path), "--trials", "1"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, sizes", [
        ({"kind": "chart", "dim": 4, "base_point": ["0"] * 4,
          "metric": [[{"num": {"0,0,0,0": str(int(i == j))}}
                      for j in range(5)] for i in range(5)]},
         [5] * 5),
        ({"kind": "chart", "dim": 4, "base_point": ["0"] * 4,
          "metric": [[{"num": {"0,0,0,0": x}} for x in row + ["0"] * (i == 2)]
                     for i, row in enumerate(IDENTITY4)]},
         [4, 4, 5, 4]),
        (_berger_times_line(IDENTITY4), [4] * 4),
        (_berger_times_line([["4", "0", "0"], ["0", "1", "0", "0"],
                             ["0", "0", "1"]]), [3, 4, 3]),
    ])
    def test_oversized_metric_exits_two(self, cfg, sizes, tmp_path, capsys):
        """Rows or entries beyond dim are an error, not dropped: without
        the check each model runs thm_invariance to exit 0."""
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_invariance",
                     "--model", str(path), "--trials", "1"]) == 2
        assert f"the metric table has rows of sizes {sizes}" in \
            capsys.readouterr().err

    def test_frame_config_without_dim_exits_two(self, tmp_path, capsys):
        cfg = json.loads((CONFIGS / "berger_frame.json").read_text())
        del cfg["factors"][0]["dim"]
        path = tmp_path / "nodim.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--suite", "thm_pfaffian",
                     "--model", str(path)]) == 2
        assert "KeyError: 'dim'" in capsys.readouterr().err


class TestSingularMetric:
    @staticmethod
    def _singular_chart(tmp_path, exact):
        """A chart whose g_33 = x_0^2 vanishes at the base point."""
        cfg = {"kind": "chart", "dim": 4, "jet_order": 3, "exact": exact,
               "base_point": ["0"] * 4,
               "metric": [[{"num": {"2,0,0,0": "1"} if i == j == 3
                            else {"0,0,0,0": "1"} if i == j else {}}
                           for j in range(4)] for i in range(4)]}
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("exact", [False, True])
    def test_singular_chart_exits_two(self, exact, tmp_path, capsys):
        path = self._singular_chart(tmp_path, exact)
        assert main(["verify", "--suite", "thm_invariance", "--model", path,
                     "--trials", "1"]) == 2
        assert "metric is singular at the base point" in \
            capsys.readouterr().err


class TestBadChartEntries:
    @staticmethod
    def _chart(tmp_path, exact, entry, mirror=True):
        """The flat 4-chart with entry (1, 2) replaced, and (2, 1) too
        when mirror is set."""
        metric = [[{"num": {"0,0,0,0": "1"} if i == j else {}}
                   for j in range(4)] for i in range(4)]
        metric[1][2] = entry
        if mirror:
            metric[2][1] = entry
        cfg = {"kind": "chart", "dim": 4, "jet_order": 4, "exact": exact,
               "base_point": ["0"] * 4, "metric": metric}
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("suite", ["thm_invariance", "naturality"])
    def test_pole_at_the_base_point_exits_two(self, suite, exact, tmp_path,
                                              capsys):
        """den = x0 vanishes at the origin: a configuration error naming
        the entry, not an internal error."""
        path = self._chart(tmp_path, exact,
                           {"num": {"0,0,0,0": "1/10"},
                            "den": {"1,0,0,0": "1"}})
        assert main(["verify", "--suite", suite, "--model", path,
                     "--trials", "1"]) == 2
        assert "denominator of metric entry (1, 2) vanishes at the base " \
            "point" in capsys.readouterr().err

    @pytest.mark.parametrize("exact", [False, True])
    def test_asymmetric_chart_exits_two(self, exact, tmp_path, capsys):
        path = self._chart(tmp_path, exact, {"num": {"0,0,1,0": "1/10"}},
                           mirror=False)
        assert main(["verify", "--suite", "thm_invariance", "--model", path,
                     "--trials", "1"]) == 2
        assert "chart metric not symmetric" in capsys.readouterr().err

    def test_negative_exponent_exits_two(self, tmp_path, capsys):
        path = self._chart(tmp_path, False, {"num": {"-1,0,0,0": "1/10"}})
        assert main(["verify", "--suite", "thm_invariance", "--model", path,
                     "--trials", "1"]) == 2
        assert "negative entry" in capsys.readouterr().err


class TestSuiteOptions:
    def test_option_a_suite_does_not_take_exits_two(self, tmp_path, capsys):
        """core_identities verifies builtin models only, so --model is an
        error, not silently ignored."""
        path = TestSingularMetric._singular_chart(tmp_path, False)
        assert main(["verify", "--suite", "core_identities",
                     "--model", path]) == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag", [
        (["--t", "4"], "--t"), (["--trials", "2"], "--trials"),
        (["--tol", "1e-3"], "--tol"), (["--float"], "--exact/--float")])
    def test_each_untaken_option_is_named(self, args, flag, capsys):
        assert main(["verify", "--suite", "core_identities"] + args) == 2
        assert f"does not take {flag}" in capsys.readouterr().err

    def test_all_gives_each_suite_only_its_options(self, monkeypatch):
        seen = {}

        def with_model(model="m", seed=0):
            seen["with_model"] = (model, seed)
            return VerificationReport("with_model", model, seed)

        def without_model(seed=0, t=1):
            seen["without_model"] = (seed, t)
            return VerificationReport("without_model", "builtin", seed)
        monkeypatch.setattr(suites, "SUITES", {"with_model": with_model,
                                               "without_model": without_model})
        assert main(["verify", "--suite", "all", "--model", "x",
                     "--seed", "4", "--t", "2"]) == 0
        assert seen == {"with_model": ("x", 4),
                        "without_model": (4, Fraction(2))}


class TestReportObject:
    def test_table_and_flags(self):
        rep = VerificationReport("s", "m", 1)
        rep.add(Check("a", True, 1e-9, 1e-8))
        rep.add(Check("b", True, exact=True))
        assert rep.passed
        assert max(c.residual for c in rep.checks
                   if c.residual is not None) == 1e-9
        txt = rep.table()
        assert "exact" in txt and "residual" in txt
        rep.add(Check("c", False, 1.0, 1e-8))
        assert not rep.passed
