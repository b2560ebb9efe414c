"""Synthetic objectives and the ablation benchmark harness.

Five mixed-variable objectives with known optima exercise the distinct
capabilities of the optimizer: a separable bowl, a curved valley with a
sign-flipping boolean, a two-basin landscape that punishes greedy local
search, a problem dominated by one categorical choice, and a log-scaled
tuning surface. Each also exists in a noisy variant with additive
Gaussian noise of standard deviation 0.01 that is a deterministic
function of the evaluated point and a noise seed, so repeated studies
see identical values.

Studies run arms of a fixed ablation ladder against these objectives
with paired seeds. An arm's quality on an objective is a normalized
score: 100 means the known optimum was reached, 0 means no better than
random search with the same seeds, negative means worse than random
(clipped at -100). Results serialize to a per-iteration CSV of traces
and a JSON summary of scores.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .optimizer import Optimizer, OptimizerConfig
from .space import ParamSpec, Point, SearchSpace

NOISY_STD = 0.01


class ScoreError(ValueError):
    """Normalized score is undefined (degenerate baseline)."""


@dataclass(frozen=True, eq=False)
class Objective:
    """A synthetic target with a documented optimum.

    ``fn`` maps a valid point to its noiseless value. ``noise_std`` > 0
    adds Gaussian noise drawn deterministically from (point, noise_seed)
    so the same point always returns the same value within and across
    studies. ``known_optimum`` is the noiseless optimal value.
    """

    name: str
    space: SearchSpace
    fn: Callable[[Point], float]
    known_optimum: float
    noise_std: float = 0.0
    noise_seed: int = 0

    def evaluate(self, point: Point) -> float:
        base = float(self.fn(point))
        if self.noise_std <= 0.0:
            return base
        key = repr(sorted(point.items())) + f"|{self.name}|{self.noise_seed}"
        digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        return base + self.noise_std * float(rng.standard_normal())


# ---------------------------------------------------------------------------
# the objective suite


def _mixed_sphere() -> Objective:
    """Separable bowl over 4 reals, 2 integers, and 2 categoricals.

    f = sum_i (x_i - 0.3)^2 + ((n1 - 7)/10)^2 + ((n2 - 3)/10)^2
        + P1[c1] + P2[c2]
    with penalties P1 = (a: 1.2, b: 0, c: 1.8, d: 0.6) and
    P2 = (u: 0.9, v: 0, w: 1.5), not monotone in label order. The
    structure is fully additive, which makes this the sanity objective
    of the suite: every configuration of the optimizer should score
    high here. Optimum 0 at x = 0.3, n1 = 7, n2 = 3, c1 = "b",
    c2 = "v".
    """
    space = SearchSpace(
        [ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(1, 5)]
        + [
            ParamSpec("n1", "integer", lo=0, hi=10),
            ParamSpec("n2", "integer", lo=0, hi=10),
            ParamSpec("c1", "categorical", categories=("a", "b", "c", "d")),
            ParamSpec("c2", "categorical", categories=("u", "v", "w")),
        ]
    )
    p1 = {"a": 1.2, "b": 0.0, "c": 1.8, "d": 0.6}
    p2 = {"u": 0.9, "v": 0.0, "w": 1.5}

    def fn(pt: Point) -> float:
        quad = sum((pt[f"x{i}"] - 0.3) ** 2 for i in range(1, 5))
        quad += ((pt["n1"] - 7) / 10.0) ** 2 + ((pt["n2"] - 3) / 10.0) ** 2
        return quad + p1[pt["c1"]] + p2[pt["c2"]]

    return Objective(name="mixed-sphere", space=space, fn=fn, known_optimum=0.0)


def _mixed_rosenbrock() -> Objective:
    """Curved valley with a mirroring boolean and an integer offset.

    f = 100 (x2 - x1^2)^2 + (1 - u)^2 + 0.7 |k - 1| with u = -x1 when
    mirror is true and u = x1 otherwise. Optimum 0 at k = 1 and
    (x1, x2, mirror) = (1, 1, false) or (-1, 1, true).
    """
    space = SearchSpace(
        [
            ParamSpec("x1", "real", lo=-2.0, hi=2.0),
            ParamSpec("x2", "real", lo=-2.0, hi=2.0),
            ParamSpec("k", "integer", lo=0, hi=4),
            ParamSpec("mirror", "boolean"),
        ]
    )

    def fn(pt: Point) -> float:
        u = -pt["x1"] if pt["mirror"] else pt["x1"]
        return 100.0 * (pt["x2"] - pt["x1"] ** 2) ** 2 + (1.0 - u) ** 2 + 0.7 * abs(pt["k"] - 1)

    return Objective(name="mixed-rosenbrock", space=space, fn=fn, known_optimum=0.0)


def _two_basin() -> Objective:
    """A broad quadratic trend with two pits sunk near its floor.

    f = 0.5 (|x - (0.7, 0.3)|^2)
        - exp(-|x - g(m)|^2 / 0.01) - 0.6 exp(-|x - l(m)|^2 / 0.02)
        + P[m]
    The trend pulls every optimizer toward the same quarter of the cube.
    The shallow pit l sits right at the trend floor and is wide, so it
    is found first; the deep pit g = (0.75, 0.25) is narrow and off to
    the side. Mode m shifts both pits (calm none, drift +(0.05, 0),
    storm +(0, -0.05)) and adds a non-monotone penalty (calm 0,
    drift 0.3, storm 0.15). The documented optimum is mode calm at the
    deep center; ``known_optimum`` is the value there (the exact
    minimizer is displaced by the trend by well under 1e-3).
    """
    space = SearchSpace(
        [
            ParamSpec("x1", "real", lo=0.0, hi=1.0),
            ParamSpec("x2", "real", lo=0.0, hi=1.0),
            ParamSpec("mode", "categorical", categories=("calm", "drift", "storm")),
        ]
    )
    trend_center = np.array([0.7, 0.3])
    deep = np.array([0.75, 0.25])
    shallow = np.array([0.55, 0.45])
    shift = {"calm": np.zeros(2), "drift": np.array([0.05, 0.0]), "storm": np.array([0.0, -0.05])}
    penalty = {"calm": 0.0, "drift": 0.3, "storm": 0.15}

    def fn(pt: Point) -> float:
        x = np.array([pt["x1"], pt["x2"]])
        d = shift[pt["mode"]]
        trend = 0.5 * float(np.sum((x - trend_center) ** 2))
        a = float(np.sum((x - (deep + d)) ** 2))
        b = float(np.sum((x - (shallow + d)) ** 2))
        return trend - math.exp(-a / 0.01) - 0.6 * math.exp(-b / 0.02) + penalty[pt["mode"]]

    opt = fn({"x1": 0.75, "x2": 0.25, "mode": "calm"})
    return Objective(name="two-basin", space=space, fn=fn, known_optimum=opt)


def _qual_dominant() -> Objective:
    """One 5-way choice dominates, and it moves the continuous optimum.

    f = P[knob] + 2.5 |x - c[knob]|^2 over four reals, where each arm
    has its own continuous center
    c = ((0.2, 0.8, 0.3, 0.7), (0.7, 0.3, 0.6, 0.4),
         (0.5, 0.5, 0.9, 0.1), (0.9, 0.9, 0.2, 0.8),
         (0.1, 0.2, 0.8, 0.6))
    and the penalties P = (k0: 0.8, k1: 0, k2: 1.1, k3: 0.45, k4: 1.4)
    are not monotone in label order. Observations made under one arm say
    little about where another arm's center lies, so treating the choice
    as a smooth coordinate mixes five incompatible quadratics, and a
    search that keeps revisiting losing arms pays for every visit in a
    4-D space where random sampling rarely lands near any center.
    Optimum 0 at knob = "k1", x = (0.7, 0.3, 0.6, 0.4).
    """
    space = SearchSpace(
        [ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(1, 5)]
        + [ParamSpec("knob", "categorical", categories=("k0", "k1", "k2", "k3", "k4"))]
    )
    penalty = {"k0": 0.8, "k1": 0.0, "k2": 1.1, "k3": 0.45, "k4": 1.4}
    centers = {
        "k0": np.array([0.2, 0.8, 0.3, 0.7]),
        "k1": np.array([0.7, 0.3, 0.6, 0.4]),
        "k2": np.array([0.5, 0.5, 0.9, 0.1]),
        "k3": np.array([0.9, 0.9, 0.2, 0.8]),
        "k4": np.array([0.1, 0.2, 0.8, 0.6]),
    }

    def fn(pt: Point) -> float:
        x = np.array([pt[f"x{i}"] for i in range(1, 5)])
        c = centers[pt["knob"]]
        return penalty[pt["knob"]] + 2.5 * float(np.sum((x - c) ** 2))

    return Objective(name="qual-dominant", space=space, fn=fn, known_optimum=0.0)


def _log_scale_tune() -> Objective:
    """Tuning surface whose good region is tiny on a linear axis.

    f = (log10(lr) - L[sched])^2 + 0.08 (10 - depth) + P[sched]
    with lr on a log scale in [1e-4, 1], integer depth in [1, 10], and a
    schedule choice whose best learning rate moves by more than a decade:
    L = (const: -2, cosine: -1, step: -2.7) and penalties
    P = (const: 0, cosine: 0.25, step: 0.12), not monotone in label
    order. The learning-rate response is a parabola in log10(lr), so
    nearly all of the progress hinges on the log warp, and the
    schedule-dependent optimum means samples taken under one schedule
    mislead a model that smooths over the choice. Optimum 0 at
    lr = 0.01, depth = 10, sched = "const".
    """
    space = SearchSpace(
        [
            ParamSpec("lr", "real", lo=1e-4, hi=1.0, scale="log"),
            ParamSpec("depth", "integer", lo=1, hi=10),
            ParamSpec("sched", "categorical", categories=("const", "cosine", "step")),
        ]
    )
    center = {"const": -2.0, "cosine": -1.0, "step": -2.7}
    penalty = {"const": 0.0, "cosine": 0.25, "step": 0.12}

    def fn(pt: Point) -> float:
        s = pt["sched"]
        t = (math.log10(pt["lr"]) - center[s]) ** 2
        return t + 0.08 * (10.0 - pt["depth"]) + penalty[s]

    return Objective(name="log-scale-tune", space=space, fn=fn, known_optimum=0.0)


def builtin_objectives() -> list[Objective]:
    """The five noiseless objectives followed by their noisy variants.

    Noisy variants share the space, function, and optimum of their base
    objective, carry the suffix ``-noisy``, and add deterministic
    Gaussian noise with standard deviation 0.01.
    """
    base = [_mixed_sphere(), _mixed_rosenbrock(), _two_basin(), _qual_dominant(), _log_scale_tune()]
    noisy = [
        replace(ob, name=ob.name + "-noisy", noise_std=NOISY_STD, noise_seed=1)
        for ob in base
    ]
    return base + noisy


def get_objective(name: str) -> Objective:
    """Look up a built-in objective by name."""
    for ob in builtin_objectives():
        if ob.name == name:
            return ob
    known = ", ".join(ob.name for ob in builtin_objectives())
    raise KeyError(f"unknown objective {name!r}; known: {known}")


# ---------------------------------------------------------------------------
# arms


#: Ablation ladder. Each arm lists the config overrides applied on top
#: of the shared base config. The ladder is cumulative: tuning tightens
#: the restart floor, arp adds partitioning, full adds the mixed kernel
#: and the bandits. At the default budget (16 batches of 8) no region
#: reaches either floor before the last round, so tuning reproduces
#: baseline curve for curve.
ARMS: dict[str, dict] = {
    "baseline": {"length_min": 2.0**-7, "arp": False, "mixture_kernel": False, "bandit": False},
    "tuning": {"length_min": 2.0**-3, "arp": False, "mixture_kernel": False, "bandit": False},
    "arp": {"length_min": 2.0**-3, "arp": True, "mixture_kernel": False, "bandit": False},
    "full": {"length_min": 2.0**-3, "arp": True, "mixture_kernel": True, "bandit": True},
}

#: Reference arm scored alongside the ladder.
RANDOM_ARM = "random"


def arm_config(arm: str, base: OptimizerConfig | None = None, seed: int = 0) -> OptimizerConfig:
    """Concrete config for one ablation arm.

    Raises KeyError for unknown arm names (the random arm has no config).
    """
    if base is None:
        base = OptimizerConfig()
    spec = ARMS[arm]
    return replace(
        base,
        seed=seed,
        turbo=replace(base.turbo, length_min=spec["length_min"]),
        enable_arp=spec["arp"],
        enable_mixture_kernel=spec["mixture_kernel"],
        enable_bandit=spec["bandit"],
    )


class RandomSearch:
    """Uniform random batches behind the same suggest/observe protocol."""

    def __init__(self, space: SearchSpace, batch_size: int, seed: int):
        self.space = space
        self.batch_size = batch_size
        self._rng = np.random.default_rng(seed)

    def suggest(self) -> list[Point]:
        return [self.space.random_point(self._rng) for _ in range(self.batch_size)]

    def observe(self, points: Sequence[Point], values: Sequence[float]) -> None:
        """Accept a batch; the study tracks the best, so nothing is kept."""


@dataclass(frozen=True, eq=False)
class StudyTrace:
    """Best-so-far curve of one (objective, optimizer, seed) run.

    ``best_values[i]`` is the best observed value after batch i. A
    failed run records the error message and an empty curve.
    """

    objective: str
    optimizer: str
    seed: int
    best_values: tuple[float, ...]
    wall_seconds: float
    error: str | None = None


def run_study(
    arm: str,
    objective: Objective,
    seeds: Sequence[int],
    base_config: OptimizerConfig | None = None,
) -> list[StudyTrace]:
    """Run one arm on one objective across seeds.

    Parameters
    ----------
    arm : str
        A key of ``ARMS`` or ``"random"``.
    objective : Objective
    seeds : sequence of int
    base_config : OptimizerConfig, optional
        Shared settings (batch size, iteration budget, ...); each seed
        replaces only the seed and the arm's flag overrides.

    Returns
    -------
    list of StudyTrace
        One per seed, in seed order. A run that raises is captured as a
        trace with an error message instead of propagating.
    """
    if base_config is None:
        base_config = OptimizerConfig()
    if arm != RANDOM_ARM and arm not in ARMS:
        raise KeyError(f"unknown arm {arm!r}; known: {[RANDOM_ARM, *ARMS]}")
    traces = []
    for seed in seeds:
        t0 = time.perf_counter()
        curve: list[float] = []
        error = None
        try:
            if arm == RANDOM_ARM:
                opt = RandomSearch(objective.space, base_config.batch_size, seed)
            else:
                opt = Optimizer(objective.space, arm_config(arm, base_config, seed))
            best = math.inf
            for _ in range(base_config.max_iterations):
                pts = opt.suggest()
                vals = [objective.evaluate(p) for p in pts]
                opt.observe(pts, vals)
                finite = [v for v in vals if math.isfinite(v)]
                if finite:
                    best = min(best, min(finite))
                curve.append(best)
        except Exception as exc:  # noqa: BLE001 - a failed run must not sink the study
            curve, error = [], f"{type(exc).__name__}: {exc}"
        traces.append(
            StudyTrace(
                objective=objective.name,
                optimizer=arm,
                seed=seed,
                best_values=tuple(curve),
                wall_seconds=time.perf_counter() - t0,
                error=error,
            )
        )
    return traces


# ---------------------------------------------------------------------------
# scoring


def normalized_score(
    traces: Sequence[StudyTrace],
    objective: Objective,
    random_traces: Sequence[StudyTrace],
) -> float:
    """Score an arm's final results against random search on [.., 100].

    100 means the mean final best equals the known optimum, 0 means it
    equals the mean final best of random search, and worse-than-random
    results go negative, clipped at -100.

    Raises
    ------
    ScoreError
        If random search already sits at the optimum (or below it, which
        only noise can cause), leaving nothing to normalize by.
    """
    finals = [t.best_values[-1] for t in traces if not t.error and t.best_values]
    ref = [t.best_values[-1] for t in random_traces if not t.error and t.best_values]
    if not finals or not ref:
        raise ScoreError("no successful runs to score")
    denom = float(np.mean(ref)) - objective.known_optimum
    if denom <= 0.0:
        raise ScoreError(f"random search is degenerate on {objective.name}")
    score = 100.0 * (1.0 - (float(np.mean(finals)) - objective.known_optimum) / denom)
    return max(score, -100.0)


def improvement(score: float, score_baseline: float) -> float | None:
    """Relative improvement over a baseline score, None when undefined."""
    if abs(score_baseline) < 1e-12:
        return None
    return (score - score_baseline) / score_baseline


def run_ablation(
    seeds: Sequence[int],
    objectives: Sequence[Objective] | None = None,
    base_config: OptimizerConfig | None = None,
    arms: Sequence[str] | None = None,
) -> tuple[dict, list[StudyTrace]]:
    """Run the full ablation ladder plus the random reference.

    Every arm sees the same seeds on the same objectives (paired
    comparison). The random reference that defines score zero is also
    reported as the ``"random"`` row, where it scores exactly zero by
    construction; the row documents the normalization rather than adding
    information.

    Parameters
    ----------
    seeds : sequence of int
    objectives : sequence of Objective, optional
        Defaults to the five noiseless built-ins.
    base_config : OptimizerConfig, optional
    arms : sequence of str, optional
        Subset of the ladder, default all of it.

    Returns
    -------
    report : dict
        Scores per arm per objective, aggregate means, improvement over
        the baseline arm, and wall-clock totals.
    traces : list of StudyTrace
        Every trace the ablation produced, including the references.
    """
    if objectives is None:
        objectives = [ob for ob in builtin_objectives() if ob.noise_std == 0.0]
    if base_config is None:
        base_config = OptimizerConfig()
    if arms is None:
        arms = list(ARMS)
    unknown = [a for a in arms if a not in ARMS]
    if unknown:
        raise KeyError(f"unknown arms: {unknown}; known: {list(ARMS)}")
    seeds = list(seeds)

    all_traces: list[StudyTrace] = []
    scores: dict[str, dict[str, float]] = {a: {} for a in [RANDOM_ARM, *arms]}

    for ob in objectives:
        ref = run_study(RANDOM_ARM, ob, seeds, base_config)
        all_traces.extend(ref)
        scores[RANDOM_ARM][ob.name] = normalized_score(ref, ob, ref)
        for arm in arms:
            traces = run_study(arm, ob, seeds, base_config)
            all_traces.extend(traces)
            scores[arm][ob.name] = normalized_score(traces, ob, ref)

    aggregate = {
        arm: float(np.mean([scores[arm][ob.name] for ob in objectives]))
        for arm in scores
    }
    base_score = aggregate.get("baseline")
    improvements = {}
    if base_score is not None:
        for arm in arms:
            rel = improvement(aggregate[arm], base_score)
            improvements[arm] = None if rel is None else round(100.0 * rel, 2)
    failures = [
        {"objective": t.objective, "optimizer": t.optimizer, "seed": t.seed, "error": t.error}
        for t in all_traces
        if t.error
    ]
    report = {
        "seeds": seeds,
        "objectives": [ob.name for ob in objectives],
        "arms": list(arms),
        "scores": {a: dict(s) for a, s in scores.items()},
        "aggregate": aggregate,
        "improvement_vs_baseline_pct": improvements,
        "wall_seconds": {
            arm: round(
                sum(t.wall_seconds for t in all_traces if t.optimizer == arm), 3
            )
            for arm in [RANDOM_ARM, *arms]
        },
        "failures": failures,
    }
    return report, all_traces


# ---------------------------------------------------------------------------
# serialization


def write_traces_csv(traces: Sequence[StudyTrace], path: str) -> None:
    """Write per-iteration traces as CSV.

    Columns: objective, optimizer, seed, iteration (1-based),
    best_so_far, wall_s. ``wall_s`` repeats the run's total wall time on
    every row. Failed runs contribute no rows.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["objective", "optimizer", "seed", "iteration", "best_so_far", "wall_s"])
        for t in traces:
            if t.error:
                continue
            for i, v in enumerate(t.best_values, start=1):
                w.writerow([t.objective, t.optimizer, t.seed, i, repr(float(v)), repr(t.wall_seconds)])


def write_scores_json(report: dict, path: str) -> None:
    """Write the ablation report as pretty-printed JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
