"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from tracing import COUNTERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOLDOUT_SEED = 918_273       # used by no tuning or timing run
ONE_MODEL = 1e-9             # a loop this short runs exactly one model


def _traced_pair(name, seed):
    records = harness.measure(SRC, WORKLOADS[name], seed, ONE_MODEL,
                              trace=True)[0]
    by_mode = {r["traced"]: r for r in records}
    assert len(records) == 2 and set(by_mode) == {False, True}
    return by_mode[False], by_mode[True]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_trials_agree(name):
    plain, traced = _traced_pair(name, seed=5)
    assert plain["passed"] and traced["passed"]
    assert plain["checks"] == traced["checks"]      # residuals bit for bit


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_repeat_exactly(name):
    first = _traced_pair(name, seed=9)[1]["layers"]
    second = _traced_pair(name, seed=9)[1]["layers"]
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}


def test_layers_that_do_not_run_read_zero():
    layers = {name: _traced_pair(name, seed=2)[1]["layers"]
              for name in WORKLOADS}
    jets = [k for k in layers["frame_exact"] if k.startswith("jets.")]
    assert jets and all(layers["frame_exact"][k] == 0 for k in jets)
    assert all(layers[n]["jets.mul_calls"] > 0
               for n in ("chart4_o3", "chart4_o5"))
    for name, lay in layers.items():
        assert (lay["conformal.linearize_s"] > 0) == (name == "chart4_o3")
        assert (lay["geometry.bach_s"] > 0) == (name == "chart4_o5")
        assert lay["tensors.gkd_calls"] > 0 and lay["tensors.raise_s"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_holdout_seed_has_no_failures(name):
    for seed in (HOLDOUT_SEED, HOLDOUT_SEED + 1):
        records = harness.measure(SRC, WORKLOADS[name], seed, ONE_MODEL,
                                  trace=False)[0]
        assert records and all(r["passed"] for r in records)


def test_inputs_depend_only_on_seed_and_index():
    for wl in WORKLOADS.values():
        assert wl.make_input(3, 4) == wl.make_input(3, 4)
        assert wl.make_input(3, 4) != wl.make_input(4, 4)


def test_tail_percentile_keeps_ten_trials_beyond():
    assert harness.tail_percentile(200, 90) == 90
    assert harness.tail_percentile(60, 90) == 83
    xs = list(range(1, 101))
    assert harness.percentile(xs, 90) == 90 and harness.percentile(xs, 50) == 50


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_cli_prints_the_declared_metrics(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(ROOT, "--workload", "frame_exact", "--seed", "1",
               "--seconds", "0.5", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "chart4_o3", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
