"""Tests of the benchmark itself, at the tiny size (a few seconds each).

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from mixbo.bench import run_ablation  # noqa: E402
from mixbo.optimizer import Optimizer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "4", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_workloads_match_the_declared_ones():
    assert NAMES == list(wl.SPECS["full"]) == list(wl.SPECS["tiny"])


def test_batch_check_catches_corrupted_batches():
    space = wl.objective_for("serve-d32", 0).space
    good = [space.random_point(np.random.default_rng(i)) for i in range(4)]
    assert checks.batch_problems(space, good, 4) == []
    assert checks.batch_problems(space, good[:3], 4)
    bad = dict(good[0], c0="z")
    assert checks.batch_problems(space, [bad, *good[1:]], 4)
    missing = {k: v for k, v in good[0].items() if k != "x0"}
    assert checks.batch_problems(space, [missing, *good[1:]], 4)


def test_corrupted_suggest_fails_the_run(monkeypatch):
    suggest = Optimizer.suggest

    def drop_a_point(self):
        return suggest(self)[1:]

    monkeypatch.setattr(Optimizer, "suggest", drop_a_point)
    m = wl.d64_run(0, 0.0, wl.SPECS["tiny"]["mixed-d64"], traced=False)
    assert any("expected 8" in p for p in m.problems)


def test_ablation_score_equals_run_ablation():
    spec = wl.SPECS["tiny"]["ablation-ladder"]
    m = wl.ablation_run(5, 0.0, spec, traced=False)
    assert m.problems == []
    report, _ = run_ablation([5, 6], base_config=spec.base(), arms=["full"])
    assert m.scores["full"] == report["aggregate"]["full"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert wl.tail_percentile(142) == 90
    assert wl.tail_percentile(40) == 75
    assert wl.tail_percentile(20) == 50
    assert wl.tail_percentile(13) == 100


def test_fails_without_printing_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("ablation-ladder", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
