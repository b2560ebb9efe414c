"""Tests for the benchmark objectives, scoring, and report plumbing."""

import csv
import json
import math

import numpy as np
import pytest

from mixbo.bench import (
    ARMS,
    RANDOM_ARM,
    Objective,
    RandomSearch,
    ScoreError,
    StudyTrace,
    arm_config,
    builtin_objectives,
    get_objective,
    improvement,
    normalized_score,
    run_ablation,
    run_study,
    write_scores_json,
    write_traces_csv,
)
from mixbo.optimizer import OptimizerConfig
from mixbo.space import ParamSpec, SearchSpace

OPTIMA = {
    "mixed-sphere": {"x1": 0.3, "x2": 0.3, "x3": 0.3, "x4": 0.3, "n1": 7, "n2": 3, "c1": "b", "c2": "v"},
    "mixed-rosenbrock": {"x1": 1.0, "x2": 1.0, "k": 1, "mirror": False},
    "two-basin": {"x1": 0.75, "x2": 0.25, "mode": "calm"},
    "qual-dominant": {"x1": 0.7, "x2": 0.3, "x3": 0.6, "x4": 0.4, "knob": "k1"},
    "log-scale-tune": {"lr": 0.01, "depth": 10, "sched": "const"},
}


# --- objectives ---------------------------------------------------------


def test_suite_has_five_objectives_plus_noisy_variants():
    obs = builtin_objectives()
    names = [ob.name for ob in obs]
    base = [n for n in names if not n.endswith("-noisy")]
    noisy = [n for n in names if n.endswith("-noisy")]
    assert len(base) == 5 and len(noisy) == 5
    assert set(noisy) == {n + "-noisy" for n in base}


def test_documented_optima_are_attained_exactly():
    for name, argmin in OPTIMA.items():
        ob = get_objective(name)
        ob.space.validate(argmin)
        assert ob.fn(argmin) == pytest.approx(ob.known_optimum, abs=1e-12)


def test_no_random_point_beats_the_documented_optimum():
    rng = np.random.default_rng(0)
    for name in OPTIMA:
        ob = get_objective(name)
        worst_gap = min(
            ob.fn(ob.space.random_point(rng)) - ob.known_optimum for _ in range(4000)
        )
        assert worst_gap >= 0.0


def test_unknown_objective_name_raises():
    with pytest.raises(KeyError):
        get_objective("no-such-surface")


def test_noise_is_deterministic_per_point():
    ob = get_objective("mixed-sphere-noisy")
    base = get_objective("mixed-sphere")
    pt = OPTIMA["mixed-sphere"]
    v1, v2 = ob.evaluate(pt), ob.evaluate(pt)
    assert v1 == v2
    assert v1 != base.evaluate(pt)
    assert base.evaluate(pt) == base.fn(pt)
    # perturbation is small and point-dependent
    other = dict(pt, x1=0.31)
    assert abs(v1 - base.fn(pt)) < 0.1
    assert (v1 - base.fn(pt)) != (ob.evaluate(other) - base.fn(other))


# --- scoring -------------------------------------------------------------


def fake_trace(name, arm, seed, finals):
    return StudyTrace(
        objective=name,
        optimizer=arm,
        seed=seed,
        best_values=tuple(finals),
        wall_seconds=0.1,
        error=None,
    )


def test_normalized_score_anchors():
    ob = get_objective("mixed-sphere")
    ref = [fake_trace("mixed-sphere", RANDOM_ARM, s, [1.0, 0.8]) for s in range(3)]
    perfect = [
        fake_trace("mixed-sphere", "full", s, [1.0, ob.known_optimum]) for s in range(3)
    ]
    assert normalized_score(ref, ob, ref) == 0.0
    assert normalized_score(perfect, ob, ref) == pytest.approx(100.0)
    bad = [fake_trace("mixed-sphere", "full", s, [50.0, 40.0]) for s in range(3)]
    assert normalized_score(bad, ob, ref) == -100.0  # clipped below


def test_normalized_score_rejects_degenerate_reference():
    ob = get_objective("mixed-sphere")
    ref = [fake_trace("mixed-sphere", RANDOM_ARM, 0, [ob.known_optimum])]
    with pytest.raises(ScoreError):
        normalized_score(ref, ob, ref)


def test_improvement_handles_zero_baseline():
    assert improvement(50.0, 40.0) == pytest.approx(0.25)
    assert improvement(50.0, 0.0) is None
    assert improvement(50.0, 1e-15) is None


# --- arms ------------------------------------------------------------------


def test_arm_configurations_wire_the_flags():
    base = OptimizerConfig()
    b = arm_config("baseline", base)
    assert not (b.enable_arp or b.enable_mixture_kernel or b.enable_bandit)
    assert b.turbo.length_min == pytest.approx(2.0**-7)
    t = arm_config("tuning", base)
    assert not (t.enable_arp or t.enable_mixture_kernel or t.enable_bandit)
    assert t.turbo.length_min == pytest.approx(2.0**-3)
    a = arm_config("arp", base)
    assert a.enable_arp and not a.enable_mixture_kernel and not a.enable_bandit
    f = arm_config("full", base)
    assert f.enable_arp and f.enable_mixture_kernel and f.enable_bandit
    assert tuple(ARMS) == ("baseline", "tuning", "arp", "full")


def test_run_study_records_cumulative_minima():
    ob = get_objective("two-basin")
    cfg = OptimizerConfig(batch_size=4, max_iterations=4)
    traces = run_study("baseline", ob, seeds=[0, 1], base_config=cfg)
    assert len(traces) == 2
    for tr in traces:
        assert tr.error is None
        assert len(tr.best_values) == 4
        assert list(tr.best_values) == sorted(tr.best_values, reverse=True) or all(
            tr.best_values[i] >= tr.best_values[i + 1] - 1e-12
            for i in range(len(tr.best_values) - 1)
        )
        assert tr.wall_seconds > 0


def test_run_study_captures_objective_failures():
    ob = get_objective("two-basin")
    boom = type(ob)(
        name="boom",
        space=ob.space,
        fn=lambda pt: (_ for _ in ()).throw(RuntimeError("no value")),
        known_optimum=0.0,
    )
    traces = run_study("baseline", boom, seeds=[0], base_config=OptimizerConfig(batch_size=4, max_iterations=2))
    assert traces[0].error is not None
    assert traces[0].best_values == ()


def test_a_noisy_curve_records_the_noiseless_value_at_the_best_observed_point():
    space = SearchSpace([ParamSpec("x", "real", lo=-1.0, hi=1.0)])
    ob = Objective(name="noisy-bowl", space=space, fn=lambda pt: pt["x"] ** 2, known_optimum=0.0, noise_std=1.0)
    cfg = OptimizerConfig(batch_size=4, max_iterations=3)
    (trace,) = run_study(RANDOM_ARM, ob, seeds=[0], base_config=cfg)
    search = RandomSearch(space, 4, 0)
    observed = [(ob.evaluate(pt), pt) for _ in range(3) for pt in search.suggest()]
    # min keeps the earliest of equal values
    want = [ob.fn(min(observed[: 4 * i], key=lambda t: t[0])[1]) for i in (1, 2, 3)]
    assert trace.best_values == tuple(want)
    # the noise pushed an observation below the optimum; the curve stays above it
    assert min(v for v, _ in observed) < ob.known_optimum <= min(trace.best_values)


def test_random_arm_follows_the_same_protocol():
    ob = get_objective("qual-dominant")
    cfg = OptimizerConfig(batch_size=4, max_iterations=3)
    traces = run_study(RANDOM_ARM, ob, seeds=[0, 1], base_config=cfg)
    a, b = traces
    assert a.best_values != b.best_values  # seeds decouple
    again = run_study(RANDOM_ARM, ob, seeds=[0], base_config=cfg)[0]
    assert again.best_values == a.best_values  # but each is reproducible


# --- reports ----------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_ablation():
    objectives = [get_objective("two-basin"), get_objective("qual-dominant")]
    cfg = OptimizerConfig(batch_size=4, max_iterations=4)
    return run_ablation(seeds=[0, 1], objectives=objectives, base_config=cfg)


def test_ablation_report_structure(tiny_ablation):
    report, traces = tiny_ablation
    assert report["seeds"] == [0, 1]
    assert report["objectives"] == ["two-basin", "qual-dominant"]
    assert report["arms"] == ["baseline", "tuning", "arp", "full"]
    for arm in ["random", "baseline", "tuning", "arp", "full"]:
        assert set(report["scores"][arm]) == {"two-basin", "qual-dominant"}
        assert arm in report["aggregate"]
    for ob_name in report["objectives"]:
        assert report["scores"]["random"][ob_name] == 0.0
    assert set(report["improvement_vs_baseline_pct"]) == set(report["arms"])
    assert report["failures"] == []
    assert set(report["wall_seconds"]) == {"random", "baseline", "tuning", "arp", "full"}
    assert sum(report["wall_seconds"].values()) > 0
    # five arms times two objectives times two seeds
    assert len(traces) == 20


def test_traces_csv_round_trip(tiny_ablation, tmp_path):
    _, traces = tiny_ablation
    path = tmp_path / "traces.csv"
    write_traces_csv(traces, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {
        "objective",
        "optimizer",
        "seed",
        "iteration",
        "best_so_far",
        "wall_s",
    }
    assert len(rows) == 20 * 4
    by_key = {}
    for row in rows:
        by_key.setdefault((row["objective"], row["optimizer"], row["seed"]), []).append(row)
    for rws in by_key.values():
        assert [int(r["iteration"]) for r in rws] == [1, 2, 3, 4]
        vals = [float(r["best_so_far"]) for r in rws]
        assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))
        # repr round-trip: the parsed float prints back to the field
        for r in rws:
            assert repr(float(r["best_so_far"])) == r["best_so_far"]


def test_scores_json_is_sorted_and_parseable(tiny_ablation, tmp_path):
    report, _ = tiny_ablation
    path = tmp_path / "scores.json"
    write_scores_json(report, path)
    text = path.read_text()
    assert json.loads(text) == json.loads(json.dumps(report, sort_keys=True))
