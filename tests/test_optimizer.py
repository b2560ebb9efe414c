"""Tests for the ask/tell optimizer loop."""

import dataclasses
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

import mixbo
from mixbo import arp
from mixbo import bandit as bandit_mod
from mixbo import optimizer as optimizer_mod
from mixbo import surrogate
from mixbo.bench import get_objective
from mixbo.optimizer import (
    ConfigError,
    EmptyHistoryError,
    Optimizer,
    OptimizerConfig,
    ProtocolError,
    config_from_dict,
)
from mixbo.space import ParamSpec, SearchSpace, ValidationError
from mixbo.turbo import TrustRegionConfig


def small_space():
    return SearchSpace(
        [
            ParamSpec("x", "real", lo=0.0, hi=1.0),
            ParamSpec("y", "real", lo=0.0, hi=1.0),
            ParamSpec("n", "integer", lo=0, hi=4),
            ParamSpec("m", "categorical", categories=("a", "b", "c")),
        ]
    )


def bowl(pt):
    pen = {"a": 0.5, "b": 0.0, "c": 1.0}
    return (pt["x"] - 0.6) ** 2 + (pt["y"] - 0.4) ** 2 + 0.05 * abs(pt["n"] - 2) + pen[pt["m"]]


def drive(opt, fn, rounds):
    for _ in range(rounds):
        pts = opt.suggest()
        opt.observe(pts, [fn(p) for p in pts])


# --- configuration ------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        OptimizerConfig(batch_size=0)
    with pytest.raises(ConfigError):
        OptimizerConfig(max_iterations=0)
    with pytest.raises(ConfigError):
        OptimizerConfig(init_points=-1)
    with pytest.raises(ConfigError):
        OptimizerConfig(seed=-1)
    # counts are integers: no floats, not even integral ones, and no bools
    for bad in (
        {"batch_size": 2.5},
        {"batch_size": True},
        {"max_iterations": 1.5},
        {"init_points": 8.0},
        {"seed": True},
    ):
        with pytest.raises(ConfigError):
            OptimizerConfig(**bad)
    assert OptimizerConfig(batch_size=np.int64(4), seed=np.int64(3)).seed == 3


def test_resolved_init_points_formula():
    # max(batch, min(2 (D+1), 3 batch))
    cfg = OptimizerConfig(batch_size=8)
    assert cfg.resolved_init_points(dim=3) == 8
    assert cfg.resolved_init_points(dim=7) == 16
    assert cfg.resolved_init_points(dim=40) == 24
    assert OptimizerConfig(batch_size=8, init_points=24).resolved_init_points(dim=3) == 24
    with pytest.raises(ConfigError):
        OptimizerConfig(batch_size=8, init_points=5)  # below one batch


def test_config_from_dict_round_trip_and_unknown_keys():
    doc = {
        "batch_size": 4,
        "max_iterations": 6,
        "seed": 3,
        "flags": {"arp": False, "mixture_kernel": True, "bandit": False},
        "turbo": {"length_min": 0.25},
    }
    cfg = config_from_dict(doc)
    assert cfg.batch_size == 4 and cfg.seed == 3
    assert cfg.enable_arp is False and cfg.enable_bandit is False
    assert cfg.turbo.length_min == 0.25
    with pytest.raises(ConfigError):
        config_from_dict({"batchsize": 4})
    with pytest.raises(ConfigError):
        config_from_dict({"turbo": {"length_mni": 0.25}})
    with pytest.raises(ConfigError):
        config_from_dict({"flags": {"turbo": True}})
    # the sections of the settings that are now constants are rejected,
    # even empty and even with their old defaults
    for removed in (
        {"arp": {}},
        {"arp": {"activation_threshold": None, "fallback_fraction": 0.2, "svm_c": 1.0}},
        {"bandit": {"beta_update": True}},
        {"surrogate": {"lambda_grid": [0.0, 0.25, 0.5, 0.75, 1.0]}},
    ):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict(removed)
    # so are the trust-region settings that are now constants or worked
    # out from the problem, even at their old defaults
    for key, old in (
        ("length_init", 0.8),
        ("length_max", 1.6),
        ("success_tolerance", 3),
        ("failure_tolerance", None),
        ("perturbation_prob", None),
    ):
        with pytest.raises(ConfigError, match="unknown turbo settings"):
            config_from_dict({"turbo": {"length_min": 0.125, key: old}})
    for bad in (
        {"batch_size": 2.5},
        {"max_iterations": 1.5},
        {"seed": True},
        {"init_points": 16.5},
        {"turbo": {"n_candidates": 2.5}},
        {"turbo": {"n_candidates": True}},
        {"turbo": {"n_candidates": 100.0}},
        {"turbo": {"length_min": "0.1"}},
        {"turbo": {"length_min": None}},
        {"turbo": {"length_min": 0.8}},
        {"turbo": []},
    ):
        with pytest.raises(ConfigError):
            config_from_dict(bad)


def readme_block(heading, fence):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(heading, 1)[1].split(fence, 1)[1].split("```", 1)[0]


def test_readme_config_document_is_the_default_config():
    doc = readme_block("**Config document**", "```json")
    assert config_from_dict(json.loads(doc)) == OptimizerConfig()


def test_readme_quick_start_runs():
    ns = {}
    exec(readme_block("## Quick start", "```python"), ns)
    assert ns["opt"].diagnostics["observations"] == 64
    assert math.isfinite(ns["best_value"])


def test_public_names_resolve_and_removed_settings_are_gone():
    for name in mixbo.__all__:
        assert hasattr(mixbo, name), name
    for name in ("SurrogateConfig", "BanditConfig", "ArpConfig"):
        assert name not in mixbo.__all__ and not hasattr(mixbo, name)
    assert {f.name for f in dataclasses.fields(OptimizerConfig)} == {
        "batch_size", "max_iterations", "init_points", "seed", "turbo",
        "enable_arp", "enable_mixture_kernel", "enable_bandit",
    }
    assert {f.name for f in dataclasses.fields(TrustRegionConfig)} == {"length_min", "n_candidates"}
    assert not hasattr(TrustRegionConfig, "resolve")


# --- protocol -------------------------------------------------------------


def test_suggest_observe_protocol_enforced():
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=4, seed=0))
    pts = opt.suggest()
    assert len(pts) == 4
    with pytest.raises(ProtocolError):
        opt.suggest()  # pending batch not yet observed
    with pytest.raises(ProtocolError):
        opt.observe(pts, [1.0])  # wrong arity
    other = list(pts)
    other[0] = dict(other[0], x=0.123456)
    with pytest.raises(ProtocolError):
        opt.observe(other, [1.0, 1.0, 1.0, 1.0])  # not the pending points
    opt.observe(pts, [bowl(p) for p in pts])
    assert len(opt.history) == 4


def test_observe_rejects_points_that_are_not_mappings():
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=2, seed=0))
    pts = opt.suggest()
    # dict() of (name, value) pairs equals the suggestion, so the pairs
    # shape would pass a bare comparison
    pairs = [list(p.items()) for p in pts]
    for bad in ([1, 2], ["ab", "cd"], [None, None], pairs):
        with pytest.raises(ProtocolError, match="must be mappings"):
            opt.observe(bad, [1.0, 2.0])
        assert opt.history == ()
    opt.observe(pts, [1.0, 2.0])
    assert [ob.value for ob in opt.history] == [1.0, 2.0]


def test_observe_rejects_arguments_without_a_length():
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=2, seed=0))
    pts = opt.suggest()
    for points, values in ((None, [1.0, 2.0]), (pts, None), (pts, 5), (iter(pts), [1.0, 2.0])):
        with pytest.raises(ProtocolError, match="must be a sequence"):
            opt.observe(points, values)
        assert opt.history == ()
    opt.observe(pts, [1.0, 2.0])
    assert [ob.value for ob in opt.history] == [1.0, 2.0]


def test_observe_without_pending_batch_fails():
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=2, seed=0))
    with pytest.raises(ProtocolError):
        opt.observe([], [])


def test_best_requires_history():
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=2, seed=0))
    with pytest.raises(EmptyHistoryError):
        opt.best()


def test_best_is_the_earliest_tied_point_or_the_first_when_all_failed():
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=4, seed=0))
    first = opt.suggest()
    with pytest.warns(RuntimeWarning):
        opt.observe(first, [math.nan, math.inf, -math.inf, math.nan])
    assert opt.best() == (first[0], math.inf)
    second = opt.suggest()
    opt.observe(second, [2.0, 1.0, 1.0, 3.0])
    third = opt.suggest()
    opt.observe(third, [1.0, 1.0, 5.0, 5.0])
    assert second[1] != second[2] and second[1] not in third
    assert opt.best() == (second[1], 1.0)


def test_suggested_points_are_valid_and_snapped():
    space = small_space()
    opt = Optimizer(space, OptimizerConfig(batch_size=8, seed=1))
    drive(opt, bowl, 4)
    for ob in opt.history:
        space.validate(ob.point)
        assert isinstance(ob.point["n"], int)
        assert ob.point["m"] in ("a", "b", "c")


def test_dimension_limits():
    too_big = SearchSpace([ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(65)])
    with pytest.raises(Exception):
        Optimizer(too_big, OptimizerConfig())


# --- behavior ---------------------------------------------------------------


def test_loop_improves_on_random_sampling():
    space = small_space()
    opt = Optimizer(space, OptimizerConfig(batch_size=8, max_iterations=10, seed=7))
    drive(opt, bowl, 10)
    best_pt, best_val = opt.best()
    assert best_val == min(ob.value for ob in opt.history)
    assert bowl(best_pt) == best_val
    rng = np.random.default_rng(7)
    rand_best = min(bowl(space.random_point(rng)) for _ in range(80))
    assert best_val <= rand_best + 0.05


def test_runs_are_deterministic_for_a_seed():
    space = small_space()
    cfg = OptimizerConfig(batch_size=4, seed=11)
    a, b = Optimizer(space, cfg), Optimizer(space, cfg)
    for _ in range(5):
        pa, pb = a.suggest(), b.suggest()
        assert pa == pb
        vals = [bowl(p) for p in pa]
        a.observe(pa, vals)
        b.observe(pb, vals)
    assert a.best() == b.best()


def test_runs_are_deterministic_for_a_seed_over_3000_candidates(monkeypatch):
    # a caller may set more candidates than the default's 2048; with the
    # bandits off, model rounds factor all of them in float64 and give
    # the same bits for the same inputs
    factored = []
    dpotrf = surrogate.dpotrf
    monkeypatch.setattr(surrogate, "dpotrf", lambda a, **kw: factored.append(a.shape) or dpotrf(a, **kw))
    space = small_space()
    cfg = OptimizerConfig(batch_size=4, seed=11, turbo=TrustRegionConfig(n_candidates=3000), enable_bandit=False)
    a, b = Optimizer(space, cfg), Optimizer(space, cfg)
    for _ in range(5):
        pa, pb = a.suggest(), b.suggest()
        assert pa == pb
        vals = [bowl(p) for p in pa]
        a.observe(pa, vals)
        b.observe(pb, vals)
    assert (3000, 3000) in factored
    assert a.best() == b.best()


def test_runs_are_deterministic_for_a_seed_over_3000_candidates_with_bandits(monkeypatch):
    # with the bandits on, each group of equal selections draws over its
    # share of the 3000 candidates, and gives the same bits too
    factored, draws = [], []
    dpotrf, gp_sample = surrogate.dpotrf, optimizer_mod.gp_sample
    monkeypatch.setattr(surrogate, "dpotrf", lambda a, **kw: factored.append(a.shape) or dpotrf(a, **kw))

    def traced(model, queries, rng, count=1):
        start = len(factored)
        out = gp_sample(model, queries, rng, count=count)
        draws.append((count, factored[start:]))
        return out

    monkeypatch.setattr(optimizer_mod, "gp_sample", traced)
    space = small_space()
    cfg = OptimizerConfig(batch_size=4, seed=11, turbo=TrustRegionConfig(n_candidates=3000))
    a, b = Optimizer(space, cfg), Optimizer(space, cfg)
    for _ in range(5):
        pa, pb = a.suggest(), b.suggest()
        assert pa == pb
        vals = [bowl(p) for p in pa]
        a.observe(pa, vals)
        b.observe(pb, vals)
    assert a.best() == b.best()
    assert draws
    for count, shapes in draws:
        share = min(3000, max(16 * count, 3000 * count // 4))
        assert shapes and all(r == c <= share for r, c in shapes)


def record_model_draws(monkeypatch):
    """Record the selections, the ARP filter inputs and the Thompson draws of every suggest."""
    rounds = []
    ts_select, gp_sample, filter_candidates = bandit_mod.ts_select, optimizer_mod.gp_sample, arp.filter_candidates

    def select(state, rng):
        sel = ts_select(state, rng)
        rounds[-1]["selections"].append(sel)
        return sel

    def sample(model, queries, rng, count=1):
        rounds[-1]["draws"].append((np.array(queries), count))
        return gp_sample(model, queries, rng, count=count)

    def keep(classifier, candidates):
        rounds[-1]["filtered"].append(np.array(candidates))
        return filter_candidates(classifier, candidates)

    monkeypatch.setattr(bandit_mod, "ts_select", select)
    monkeypatch.setattr(optimizer_mod, "gp_sample", sample)
    monkeypatch.setattr(arp, "filter_candidates", keep)
    return rounds


def mixed_space():
    return SearchSpace(
        [
            ParamSpec("x", "real", lo=0.0, hi=1.0),
            ParamSpec("n", "integer", lo=0, hi=4),
            ParamSpec("m", "categorical", categories=("a", "b", "c")),
            ParamSpec("f", "boolean"),
        ]
    )


def mixed_bowl(pt):
    return (pt["x"] - 0.6) ** 2 + 0.05 * abs(pt["n"] - 2) + {"a": 0.5, "b": 0.0, "c": 1.0}[pt["m"]] + 0.3 * pt["f"]


def test_bandit_arms_are_picked_before_the_thompson_draw(monkeypatch):
    rounds = record_model_draws(monkeypatch)
    space = mixed_space()
    quals = space.qualitative_params
    cols = [space.index(p.name) for p in quals]
    q, b = 400, 4
    cfg = OptimizerConfig(batch_size=b, seed=2, init_points=4, turbo=TrustRegionConfig(n_candidates=q))
    opt = Optimizer(space, cfg)
    model_rounds = filtered = 0
    for _ in range(8):
        rounds.append({"n": len(opt.history), "selections": [], "draws": [], "filtered": []})
        pts = opt.suggest()
        opt.observe(pts, [mixed_bowl(p) for p in pts])
        r = rounds[-1]
        if not r["draws"]:
            continue
        model_rounds += 1
        # the region filter sees the arms each group will evaluate
        for cands in r["filtered"]:
            assert np.all(cands[:, cols] == cands[0, cols])
        filtered += len(r["filtered"])
        sels = r["selections"]
        assert len(sels) == b
        # each batch position evaluates the arms selected for it
        for p, sel in zip(pts, sels):
            assert all(p[qp.name] == qp.choices[sel[qp.name]] for qp in quals)
        assert sum(count for _, count in r["draws"]) == b
        for queries, count in r["draws"]:
            # one selection's arms in every query, drawn once per position holding it
            codes = queries[:, cols]
            assert np.all(codes == codes[0])
            sel = {qp.name: round(c * (qp.n_arms - 1)) for qp, c in zip(quals, codes[0])}
            assert sels.count(sel) == count
            if r["n"] < max(16, 2 * space.dim):  # before ARP filters
                assert queries.shape[0] == max(16 * count, q * count // b)
    assert model_rounds >= 4 and filtered > 0


def test_without_bandits_one_draw_covers_every_candidate(monkeypatch):
    rounds = record_model_draws(monkeypatch)
    space = mixed_space()
    q, b = 400, 4
    cfg = OptimizerConfig(
        batch_size=b, seed=2, init_points=4, turbo=TrustRegionConfig(n_candidates=q), enable_bandit=False
    )
    opt = Optimizer(space, cfg)
    model_rounds = 0
    for _ in range(8):
        rounds.append({"n": len(opt.history), "selections": [], "draws": [], "filtered": []})
        pts = opt.suggest()
        opt.observe(pts, [mixed_bowl(p) for p in pts])
        r = rounds[-1]
        assert r["selections"] == []
        if not r["draws"]:
            continue
        model_rounds += 1
        [(queries, count)] = r["draws"]
        assert count == b
        if r["n"] < max(16, 2 * space.dim):
            assert queries.shape[0] == q
    assert model_rounds >= 4


def test_different_seeds_diverge():
    space = small_space()
    a = Optimizer(space, OptimizerConfig(batch_size=4, seed=1))
    b = Optimizer(space, OptimizerConfig(batch_size=4, seed=2))
    assert a.suggest() != b.suggest()


def test_non_finite_values_are_imputed_and_flagged():
    space = small_space()
    opt = Optimizer(space, OptimizerConfig(batch_size=4, seed=3))
    pts = opt.suggest()
    with pytest.warns(RuntimeWarning, match="2 of 4"):
        opt.observe(pts, [float("nan"), 1.0, float("inf"), 2.0])
    hist = opt.history
    assert hist[0].value == np.inf and hist[0].warned
    assert hist[2].value == np.inf and hist[2].warned
    assert not hist[1].warned
    assert opt.diagnostics["imputed_values"] == 2
    # a usable best still exists
    assert opt.best()[1] == 1.0


def test_a_rejected_observation_changes_nothing():
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=2, seed=3))
    pts = opt.suggest()
    # float() rejects 10**400 after the NaN was seen; a retry counts the NaN once
    for bad in (10**400, "high", None):
        with pytest.raises(ProtocolError):
            opt.observe(pts, [float("nan"), bad])
        assert opt.diagnostics["imputed_values"] == 0 and opt.history == ()
    with pytest.warns(RuntimeWarning, match="1 of 2"):
        opt.observe(pts, [float("nan"), 1.0])
    assert opt.diagnostics["imputed_values"] == 1
    assert len(opt.history) == 2 and opt.best()[1] == 1.0


@pytest.mark.parametrize("bad", [[True, False], [1.0, np.bool_(False)]], ids=["bool", "numpy_bool"])
def test_boolean_values_are_rejected_and_change_nothing(bad):
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=2, seed=3))
    pts = opt.suggest()
    before = opt.diagnostics
    # float(True) is 1.0, so without the check this batch would be recorded
    with pytest.raises(ProtocolError, match="booleans"):
        opt.observe(pts, bad)
    assert opt.history == () and opt.diagnostics == before
    with pytest.raises(ProtocolError):
        opt.suggest()  # the same suggestion is still pending
    opt.observe(pts, [1.0, 0.0])
    assert [ob.value for ob in opt.history] == [1.0, 0.0]
    assert opt.best()[1] == 0.0


@pytest.mark.parametrize(
    "bad", [["0.25", "1e3"], [1.0, b"0.25"], [np.str_("0.25"), 1.0]], ids=["str", "bytes", "numpy_str"]
)
def test_numeric_strings_are_rejected_and_change_nothing(bad):
    opt = Optimizer(small_space(), OptimizerConfig(batch_size=2, seed=3))
    pts = opt.suggest()
    before = opt.diagnostics
    # float("0.25") is 0.25, so without the check this batch would be recorded
    with pytest.raises(ProtocolError, match="strings"):
        opt.observe(pts, bad)
    assert opt.history == () and opt.diagnostics == before
    opt.observe(pts, [1.0, 0.5])
    assert opt.best()[1] == 0.5


def test_failed_evaluations_survive_the_model_phase():
    space = small_space()
    opt = Optimizer(space, OptimizerConfig(batch_size=4, seed=3))
    rounds = 9  # 3 init batches, then 6 model batches
    with pytest.warns(RuntimeWarning) as caught:
        for _ in range(rounds):
            pts = opt.suggest()
            for p in pts:
                space.validate(p)
            opt.observe(pts, [float("nan")] + [bowl(p) for p in pts[1:]])
    assert len(caught) == rounds  # one warning per batch with a failure
    d = opt.diagnostics
    assert d["gp_fits"] >= 3 and d["arp_fits"] >= 1
    assert d["imputed_values"] == rounds
    assert all(ob.value == np.inf for ob in opt.history[::4])
    assert np.isfinite(opt.best()[1])


EXTREME_PATTERNS = {
    "huge": lambda u, i: 1e308 if i % 2 else -1e308,
    "tiny": lambda u, i: 1e-300 * u,
    "flat": lambda u, i: 3.0,
    "mostly-nan": lambda u, i: u if i % 20 in (0, 7, 13) else math.nan,
    "neg-inf": lambda u, i: -math.inf if i % 7 == 6 else u,
}


@pytest.mark.parametrize("pattern", sorted(EXTREME_PATTERNS))
def test_extreme_values_do_not_break_the_loop(pattern):
    ob = get_objective("mixed-sphere")
    opt = Optimizer(ob.space, OptimizerConfig(batch_size=4, seed=0))
    value = EXTREME_PATTERNS[pattern]
    seen = 0
    with warnings.catch_warnings():
        # failed values and overflowing sums warn; neither may stop the loop
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(12):
            pts = opt.suggest()
            for p in pts:
                ob.space.validate(p)
            vals = [value(ob.evaluate(p), seen + k) for k, p in enumerate(pts)]
            seen += len(pts)
            opt.observe(pts, vals)
    assert len(opt.history) == 48
    fits = opt.diagnostics["arp_fits"]
    if pattern == "flat":
        assert fits == 0  # a flat history carries no region signal
    else:
        assert fits > 0
    # -inf is a failed evaluation, recorded as +inf, never the best value
    assert all(ob_.value != -math.inf for ob_ in opt.history)
    assert opt.best()[1] != -math.inf
    m = opt.model
    assert np.all(np.isfinite([m.target_mean, m.target_std, m.log_likelihood]))
    assert np.all(np.isfinite(m._alpha))


@pytest.mark.parametrize("finite_per_run", [0, 1])
def test_too_few_finite_values_skip_the_fit(finite_per_run):
    space = small_space()
    opt = Optimizer(space, OptimizerConfig(batch_size=4, seed=3))
    with pytest.warns(RuntimeWarning):
        for k in range(6):
            pts = opt.suggest()
            values = [float("nan")] * len(pts)
            if k == 0 and finite_per_run:
                values[0] = 1.0
            opt.observe(pts, values)
    assert opt.diagnostics["gp_fits"] == 0
    assert len(opt.history) == 24


def test_flags_disable_components():
    space = small_space()
    cfg = OptimizerConfig(
        batch_size=8,
        seed=5,
        enable_arp=False,
        enable_bandit=False,
        enable_mixture_kernel=False,
    )
    opt = Optimizer(space, cfg)
    drive(opt, bowl, 6)
    d = opt.diagnostics
    assert d["arp_fits"] == 0
    assert d["bandit_selects"] == 0 and d["bandit_updates"] == 0
    assert d["gp_fits"] > 0


def test_components_engage_when_enabled():
    space = small_space()
    opt = Optimizer(space, OptimizerConfig(batch_size=8, seed=5))
    drive(opt, bowl, 6)
    d = opt.diagnostics
    assert d["gp_fits"] > 0
    assert d["arp_fits"] > 0
    assert d["bandit_selects"] > 0
    assert d["bandit_updates"] == 6  # one update per observed batch


def test_restart_fires_when_region_collapses():
    space = small_space()
    cfg = OptimizerConfig(batch_size=4, seed=9, turbo=TrustRegionConfig(length_min=0.5))
    opt = Optimizer(space, cfg)
    # constant responses: the first batch of a region succeeds and the
    # next 4 (max(4, ceil(4 / 4))) fail, which halves the length from
    # 0.8 to 0.4, below the floor, so the region restarts every 5 rounds
    restarts = []
    for _ in range(10):
        pts = opt.suggest()
        opt.observe(pts, [5.0 for _ in pts])
        d = opt.diagnostics
        assert d["restarts"] == opt._tr.restarts
        restarts.append(d["restarts"])
    assert restarts == [0, 0, 0, 0, 1, 1, 1, 1, 1, 2]
    # the restart count is reported once
    assert "tr_restarts" not in opt.diagnostics


def collapsing_optimizer(space):
    """One halving takes the region from 0.8 to 0.4, below the 0.5 floor."""
    return Optimizer(space, OptimizerConfig(batch_size=4, seed=9, turbo=TrustRegionConfig(length_min=0.5)))


def test_a_failed_restart_batch_keeps_the_collapsed_center():
    space = small_space()
    opt = collapsing_optimizer(space)
    # round 1 improves on round 0, then 4 flat rounds halve the region
    # below the floor
    while opt.diagnostics["restarts"] == 0:
        pts = opt.suggest()
        values = [5.0] * len(pts)
        if opt.diagnostics["iterations"] == 1:
            values[2] = 1.0
        collapsed = opt._tr.center
        opt.observe(pts, values)
    assert opt.diagnostics["iterations"] == 6 and collapsed is not None
    pts = opt.suggest()  # the restart batch
    with pytest.warns(RuntimeWarning):
        opt.observe(pts, [float("nan")] * len(pts))
    np.testing.assert_array_equal(opt._tr.center, collapsed)
    fits = opt.diagnostics["gp_fits"]
    pts = opt.suggest()  # a model batch around the kept center
    assert opt.diagnostics["gp_fits"] == fits + 1 and len(pts) == 4
    for p in pts:
        space.validate(p)
    # the region's first finite value re-centers it, even one worse than
    # the global best
    opt.observe(pts, [9.0, 7.0, 9.0, 9.0])
    np.testing.assert_array_equal(opt._tr.center, space.warp(pts[1]))


def test_a_region_that_never_saw_a_finite_value_restarts_without_a_center():
    opt = collapsing_optimizer(small_space())
    with pytest.warns(RuntimeWarning):
        for _ in range(7):
            pts = opt.suggest()
            opt.observe(pts, [float("nan")] * len(pts))
    assert opt.diagnostics["restarts"] == 1 and opt._tr.center is None
    assert opt.diagnostics["gp_fits"] == 0


def step(pt):
    """Two levels split on x, so the region classifier has a boundary to learn."""
    return 1.0 if pt["x"] < 0.5 else 2.0


def record_restart_calls(monkeypatch):
    from mixbo import arp, optimizer

    calls = {"restart_samples": [], "gp_mean": 0}
    samples, mean = arp.restart_samples, optimizer.gp_mean

    def restart_samples(clf, space, rng, count):
        calls["restart_samples"].append(count)
        return samples(clf, space, rng, count)

    def gp_mean(*args):
        calls["gp_mean"] += 1
        return mean(*args)

    monkeypatch.setattr(arp, "restart_samples", restart_samples)
    monkeypatch.setattr(optimizer, "gp_mean", gp_mean)
    return calls


def test_a_restart_draws_only_its_batch_from_the_good_region(monkeypatch):
    calls = record_restart_calls(monkeypatch)
    opt = collapsing_optimizer(small_space())
    while opt.diagnostics["restarts"] == 0:
        drive(opt, step, 1)
    assert opt._classifier is not None
    opt.suggest()
    assert calls == {"restart_samples": [4], "gp_mean": 0}


def test_restarts_after_partitioning_keep_the_loop_valid(monkeypatch):
    calls = record_restart_calls(monkeypatch)
    space = small_space()
    opt = collapsing_optimizer(space)
    restarts_with_classifier = 0
    for _ in range(16):
        pts = opt.suggest()
        for p in pts:
            space.validate(p)
        before = opt._tr
        opt.observe(pts, [step(p) for p in pts])
        if opt._tr.restarts > before.restarts:
            restarts_with_classifier += opt._classifier is not None
            np.testing.assert_array_equal(opt._tr.center, before.center)
    d = opt.diagnostics
    assert d["restarts"] >= 3 and restarts_with_classifier >= 2
    assert d["arp_fits"] > 0 and d["bandit_selects"] > 0
    assert calls["restart_samples"] == [4] * restarts_with_classifier
    assert calls["gp_mean"] == 0


def test_history_is_append_only_copies():
    space = small_space()
    opt = Optimizer(space, OptimizerConfig(batch_size=4, seed=13))
    drive(opt, bowl, 2)
    h1 = opt.history
    h1_len = len(h1)
    drive(opt, bowl, 1)
    assert len(opt.history) == h1_len + 4
    # mutating a returned point must not corrupt internal state
    pt, _ = opt.best()
    pt["x"] = 99.0
    assert opt.best()[0]["x"] != 99.0


def test_create_helper_matches_constructor():
    from mixbo.optimizer import create

    space = small_space()
    a = create(space, OptimizerConfig(batch_size=4, seed=2))
    b = Optimizer(space, OptimizerConfig(batch_size=4, seed=2))
    assert a.suggest() == b.suggest()
