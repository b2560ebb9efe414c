"""The benchmark's three closed-loop workloads.

Every workload is one caller with one batch in flight: suggest, evaluate
the batch, observe, repeat. Inputs are made from the workload seed and
the optimizer sees only the generated space and values.

``ablation-ladder``
    The paper's study: the five noiseless built-in objectives, batch
    8 x 16 rounds, each arm paired with random search on the same seed.
    A timed unit runs the ``full`` arm on two seeds; the traced run runs
    all four arms on one.
``mixed-d64``
    A seed-made D = 64 space (32 reals, 16 integers, 16 four-label
    categoricals) with 5000 candidates per batch, so Thompson sampling
    dominates and ARP never activates.
``serve-d32``
    A seed-made D = 32 space (8 of each kind) driven over the
    ``mixbo serve`` wire protocol, one JSON line per message.

A run repeats whole units (studies or sessions) until ``seconds`` have
passed, so every unit has the same shape and the metrics do not depend
on where a time limit happened to cut.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from mixbo.bench import Objective, StudyTrace, arm_config, builtin_objectives, normalized_score, run_study
from mixbo.optimizer import Optimizer, OptimizerConfig
from mixbo.space import ParamSpec, SearchSpace
from mixbo.turbo import TrustRegionConfig

import tracing
from checks import batch_problems, same_problems

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Spec:
    """Size of one workload.

    ``rounds`` is the length of one study or session, ``replay_rounds``
    how much of the first one is re-run to check reproducibility
    (``ablation-ladder`` re-runs its cheapest objective's whole study
    and this much of the others'), and ``n_candidates``
    overrides the trust-region default when set.
    """

    batch: int
    rounds: int
    replay_rounds: int = 4
    init_points: int | None = None
    n_candidates: int | None = None

    def base(self) -> OptimizerConfig:
        base = OptimizerConfig(batch_size=self.batch, max_iterations=self.rounds, init_points=self.init_points)
        if self.n_candidates is not None:
            base = replace(base, turbo=TrustRegionConfig(n_candidates=self.n_candidates))
        return base

    def config(self, seed: int, arm: str = "full") -> OptimizerConfig:
        return arm_config(arm, self.base(), seed)


SPECS = {
    "full": {
        "ablation-ladder": Spec(batch=8, rounds=16),
        "mixed-d64": Spec(batch=8, rounds=7),
        "serve-d32": Spec(batch=8, rounds=10),
    },
    # a few seconds per workload, for the benchmark's own tests
    "tiny": {
        "ablation-ladder": Spec(batch=4, rounds=4, init_points=4),
        "mixed-d64": Spec(batch=8, rounds=3, replay_rounds=2, init_points=8, n_candidates=256),
        "serve-d32": Spec(batch=8, rounds=3, replay_rounds=2, init_points=8, n_candidates=256),
    },
}

TIMED_ARMS = ("full",)
TRACED_ARMS = ("full", "baseline", "arp", "tuning")


@dataclass
class Measure:
    """What the closed loops saw, summed over the units of one run."""

    # Times are CPU seconds of the processes doing the work (the optimizer's,
    # and on serve-d32 also the client's); *_wall_* are the wall-clock
    # counterparts, which on a shared machine also count the time the CPU
    # was taken away.
    suggest_s: list[float] = field(default_factory=list)  # suggests after the init design
    suggest_wall_s: list[float] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)  # each round of the first unit
    loop_s: float = 0.0
    loop_wall_s: float = 0.0
    evals: int = 0
    attempted: int = 0
    failed: int = 0
    error_replies: int = 0
    distinct: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)
    units: int = 0
    per_unit_suggests: int = 0
    replay_s: float = 0.0  # untraced wall of the replayed rounds
    replayed_s: float = 0.0  # wall of the same rounds in the measured unit
    tracer: tracing.Tracer | None = None  # spans of the optimizer's layers
    bench_tracer: tracing.Tracer | None = None  # spans of the benchmark's own loop


# ---------------------------------------------------------------------------
# inputs


def _non_monotone_penalties(rng: np.random.Generator) -> list[float]:
    levels = [0.0, 0.3, 0.6, 0.9]
    while True:
        perm = [levels[i] for i in rng.permutation(4)]
        if perm not in (levels, levels[::-1]):
            return perm


def synthetic_objective(name: str, seed: int, n_real: int, n_int: int, n_cat: int, n_bool: int) -> Objective:
    """A mixed objective with a known optimum of 0, drawn from the seed.

    f = sum (x_i - c_i)^2 + sum ((n_j - t_j) / 9)^2 + sum P_k[label_k]
        + sum w_m [b_m != s_m]
    over reals in [0, 1], integers in [0, 9], four-label categoricals
    whose penalties are a non-monotone permutation of (0, .3, .6, .9),
    and booleans with weights w in [0.2, 0.8].
    """
    rng = np.random.default_rng([seed, n_real, n_int, n_cat, n_bool])
    labels = ("a", "b", "c", "d")
    params = [ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(n_real)]
    params += [ParamSpec(f"n{i}", "integer", lo=0, hi=9) for i in range(n_int)]
    params += [ParamSpec(f"c{i}", "categorical", categories=labels) for i in range(n_cat)]
    params += [ParamSpec(f"b{i}", "boolean") for i in range(n_bool)]
    centers = rng.uniform(0.1, 0.9, n_real).tolist()
    targets = rng.integers(0, 10, n_int).tolist()
    penalties = [dict(zip(labels, _non_monotone_penalties(rng))) for _ in range(n_cat)]
    signs = rng.integers(0, 2, n_bool).astype(bool).tolist()
    weights = rng.uniform(0.2, 0.8, n_bool).tolist()

    def fn(pt) -> float:
        f = sum((pt[f"x{i}"] - c) ** 2 for i, c in enumerate(centers))
        f += sum(((pt[f"n{i}"] - t) / 9.0) ** 2 for i, t in enumerate(targets))
        f += sum(p[pt[f"c{i}"]] for i, p in enumerate(penalties))
        f += sum(w for i, (s, w) in enumerate(zip(signs, weights)) if pt[f"b{i}"] != s)
        return f

    return Objective(name=name, space=SearchSpace(params), fn=fn, known_optimum=0.0)


def objective_for(workload: str, seed: int) -> Objective:
    if workload == "mixed-d64":
        return synthetic_objective("mixed-d64", seed, 32, 16, 16, 0)
    return synthetic_objective("serve-d32", seed, 8, 8, 8, 8)


def ladder_objectives() -> list[Objective]:
    return [ob for ob in builtin_objectives() if ob.noise_std == 0.0]


def init_rounds(space: SearchSpace, config: OptimizerConfig) -> int:
    return math.ceil(config.resolved_init_points(space.dim) / config.batch_size)


def tail_percentile(n: int) -> int:
    """Highest of p99/95/90/75/50 with at least ten of n samples beyond it; 100 (the max) if none.

    n is the suggest count of one unit, so the percentile reported for a
    workload does not change when a faster program fits more units.
    """
    for p in (99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return p
    return 100



# ---------------------------------------------------------------------------
# the closed loop


class WireError(RuntimeError):
    """The server answered a message with an unexpected reply."""


def _failed(m: Measure, what: str, exc: Exception) -> None:
    m.failed += 1
    m.error_replies += isinstance(exc, WireError)
    m.problems.append(f"{what} failed: {type(exc).__name__}: {exc}")


def _evaluate(objective: Objective, points: list, tracer) -> list[float]:
    if tracer is None:
        return [objective.evaluate(p) for p in points]
    with tracer.span("bench.evaluate"):
        return [objective.evaluate(p) for p in points]


def _distinct(points: list) -> float:
    return len({json.dumps(p, sort_keys=True) for p in points}) / max(len(points), 1)


def drive(client, objective: Objective, batch: int, skip: int, rounds: int, m: Measure, tracer=None, first=False):
    """Run one closed loop; return its best-so-far curve and batches.

    ``client`` is an Optimizer or a WireSession: anything with
    ``suggest()``, ``observe(points, values)`` and ``cpu()``, the CPU
    seconds used so far by the processes doing the work. Suggests after
    the first ``skip`` rounds (the init design) are timed into
    ``m.suggest_s``; with ``first`` every round goes to ``m.round_s``.
    The curve is built as ``mixbo.bench.run_study`` builds it, so the two
    can be compared exactly.
    """
    cpu = getattr(client, "cpu", time.process_time)
    best = math.inf
    curve, batches = [], []
    t_loop, c_loop = time.perf_counter(), cpu()
    for r in range(rounds):
        t0, c0 = time.perf_counter(), cpu()
        m.attempted += 1
        try:
            points = client.suggest()
        except Exception as exc:  # noqa: BLE001 - a raised suggest is a counted failure
            _failed(m, "suggest", exc)
            break
        if r >= skip:
            m.suggest_wall_s.append(time.perf_counter() - t0)
            m.suggest_s.append(cpu() - c0)
        m.problems += batch_problems(objective.space, points, batch)
        m.distinct.append(_distinct(points))
        values = _evaluate(objective, points, tracer)
        m.attempted += 1
        try:
            client.observe(points, values)
        except Exception as exc:  # noqa: BLE001
            _failed(m, "observe", exc)
            break
        m.evals += len(values)
        finite = [v for v in values if math.isfinite(v)]
        if finite:
            best = min(best, min(finite))
        curve.append(best)
        batches.append(points)
        if first:
            m.round_s.append(cpu() - c0)
    m.loop_s += cpu() - c_loop
    m.loop_wall_s += time.perf_counter() - t_loop
    return curve, batches


def drive_optimizer(opt: Optimizer, objective: Objective, rounds: int, m: Measure, tracer=None, first=False):
    skip = init_rounds(opt.space, opt.config)
    return drive(opt, objective, opt.config.batch_size, skip, rounds, m, tracer, first)


def _score(objective: Objective, curves: list[list[float]], randoms: list[StudyTrace], m: Measure) -> float | None:
    """normalized_score of the curves against the random traces of the same seeds."""
    mine = [StudyTrace(objective.name, "full", r.seed, tuple(c), 0.0) for c, r in zip(curves, randoms)]
    try:
        return normalized_score(mine, objective, randoms)
    except ValueError as exc:
        m.problems.append(f"score on {objective.name}: {exc}")
        return None


def _repeat_units(seconds: float, traced: bool, unit) -> None:
    """Run unit(k) for k = 0, 1, ... until seconds have passed; once when traced."""
    t0 = time.perf_counter()
    k = 0
    while k == 0 or (not traced and time.perf_counter() - t0 < seconds):
        unit(k)
        k += 1


def _replay_check(m: Measure, replay: Measure, curve, batches, first: dict, n: int) -> None:
    m.replay_s = sum(replay.round_s)
    m.replayed_s = sum(m.round_s[:n])
    m.attempted += replay.attempted
    m.failed += replay.failed
    m.problems += replay.problems
    m.problems += same_problems("replayed curve", curve, first["curve"][:n])
    m.problems += same_problems("replayed batches", batches, first["batches"][:n])


# ---------------------------------------------------------------------------
# ablation-ladder


def ablation_setup(seed: int, spec: Spec) -> None:
    Optimizer(ladder_objectives()[0].space, spec.config(seed))


def ablation_run(seed: int, seconds: float, spec: Spec, traced: bool) -> Measure:
    """Timed: unit k runs the full arm on seeds 2k and 2k + 1 after seed.

    Traced: one unit, all four arms on seed. The ARP SMO makes the full
    arm's cost vary with the seed, so a timed unit averages two.
    """
    m = Measure()
    objectives = ladder_objectives()
    arms, per_unit = (TRACED_ARMS, 1) if traced else (TIMED_ARMS, 2)
    base = spec.base()
    m.per_unit_suggests = len(arms) * per_unit * sum(
        spec.rounds - init_rounds(ob.space, base) for ob in objectives
    )
    randoms = {ob.name: run_study("random", ob, range(seed, seed + per_unit), base) for ob in objectives}
    replayed = objectives[-1]  # log-scale-tune, D = 3
    m.tracer = m.bench_tracer = tracing.install() if traced else None
    first: dict[tuple[str, str], list[float]] = {}
    first_s: dict[str, float] = {}

    def unit(k: int) -> None:
        for arm in arms:
            scores = []
            for ob in objectives:
                curves = []
                for s in range(seed + per_unit * k, seed + per_unit * (k + 1)):
                    c0 = time.process_time()
                    opt = Optimizer(ob.space, spec.config(s, arm))
                    curves.append(drive_optimizer(opt, ob, spec.rounds, m, m.tracer)[0])
                    if s == seed:
                        first[arm, ob.name] = curves[-1]
                        if ob is replayed:
                            first_s[arm] = time.process_time() - c0
                if k == 0:
                    scores.append(_score(ob, curves, randoms[ob.name], m))
            if k == 0 and None not in scores:
                m.scores[arm] = float(np.mean(scores))
        m.units += 1

    _repeat_units(seconds, traced, unit)
    if traced:
        m.tracer.uninstall()
    # Re-run the first seed's studies of every arm through the library
    # harness: they must reproduce the benchmark's own curves exactly. The
    # cheapest objective runs its whole study, the others their first
    # replay_rounds (max_iterations only sets where run_study stops).
    short = replace(base, max_iterations=min(spec.replay_rounds, spec.rounds))
    for arm in arms:
        for ob in objectives:
            c0 = time.process_time()
            ref = run_study(arm, ob, [seed], base if ob is replayed else short)[0]
            if ob is replayed:
                m.replay_s += time.process_time() - c0
                m.replayed_s += first_s[arm]
            if ref.error:
                m.problems.append(f"run_study {arm} on {ob.name} failed: {ref.error}")
            mine = first[arm, ob.name][: len(ref.best_values)]
            m.problems += same_problems(f"{arm} curve on {ob.name} vs run_study", mine, ref.best_values)
    return m


# ---------------------------------------------------------------------------
# mixed-d64


def d64_setup(seed: int, spec: Spec) -> None:
    Optimizer(objective_for("mixed-d64", seed).space, spec.config(seed))


def d64_run(seed: int, seconds: float, spec: Spec, traced: bool) -> Measure:
    m = Measure()
    objective = objective_for("mixed-d64", seed)
    m.per_unit_suggests = spec.rounds - init_rounds(objective.space, spec.base())
    random_trace = run_study("random", objective, [seed], spec.base())[0]
    m.tracer = m.bench_tracer = tracing.install() if traced else None
    first = {}

    def unit(k: int) -> None:
        opt = Optimizer(objective.space, spec.config(seed + k))
        curve, batches = drive_optimizer(opt, objective, spec.rounds, m, m.tracer, first=k == 0)
        if k == 0:
            first["curve"], first["batches"] = curve, batches
            score = _score(objective, [curve], [random_trace], m)
            if score is not None:
                m.scores["full"] = score
        m.units += 1

    _repeat_units(seconds, traced, unit)
    if traced:
        m.tracer.uninstall()
    n = spec.replay_rounds
    replay = Measure()
    opt = Optimizer(objective.space, spec.config(seed))
    curve, batches = drive_optimizer(opt, objective, n, replay, first=True)
    _replay_check(m, replay, curve, batches, first, n)
    return m


# ---------------------------------------------------------------------------
# serve-d32


class WireSession:
    """One ``mixbo serve`` process, driven a line at a time like an Optimizer.

    With a tracer, every request is a ``cli.<kind>`` span on the client.
    """

    def __init__(self, cmd: list[str], tracer=None):
        self.tracer = tracer
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

    def _send(self, kind: str, fields: dict) -> dict:
        self.proc.stdin.write(json.dumps({"kind": kind, **fields}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise WireError(f"server closed the session after a {kind!r} message")
        return json.loads(line)

    def request(self, kind: str, expect: str, **fields) -> dict:
        if self.tracer is None:
            reply = self._send(kind, fields)
        else:
            with self.tracer.span(f"cli.{kind}"):
                reply = self._send(kind, fields)
        if reply.get("kind") != expect:
            raise WireError(f"{kind} was answered with {reply}")
        return reply

    def hello(self, objective: Objective, spec: Spec, seed: int) -> None:
        doc = {"batch_size": spec.batch, "max_iterations": spec.rounds, "seed": seed}
        if spec.init_points is not None:
            doc["init_points"] = spec.init_points
        if spec.n_candidates is not None:
            doc["turbo"] = {"n_candidates": spec.n_candidates}
        self.request("hello", "ack", space=objective.space.to_dict(), config=doc)

    def suggest(self) -> list:
        return self.request("suggest_request", "suggestions")["points"]

    def observe(self, points: list, values: list) -> None:
        self.request("observe", "ack", points=points, values=values)

    def server_cpu(self) -> float:
        """CPU seconds the server has used, from the scheduler's ns counters."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{task}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except FileNotFoundError:  # the thread ended meanwhile
                pass
        return total / 1e9

    def cpu(self) -> float:
        """CPU seconds of this client and its server."""
        return time.process_time() + self.server_cpu()

    def best(self) -> float | None:
        return self.request("best", "best")["value"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def server_cmd(dump_path: str | None = None) -> list[str]:
    """The real serve entry point, or the traced one that dumps its spans."""
    if dump_path is None:
        return [sys.executable, "-m", "mixbo.cli", "serve"]
    return [sys.executable, os.path.join(HERE, "serve_traced.py"), dump_path]


def serve_setup(seed: int, spec: Spec) -> tuple[float, float]:
    """CPU and wall seconds from starting a server to its ack of hello."""
    objective = objective_for("serve-d32", seed)
    t0 = time.monotonic()
    wire = WireSession(server_cmd())
    try:
        wire.hello(objective, spec, seed)
        return wire.server_cpu(), time.monotonic() - t0
    finally:
        wire.close()


def session(cmd, objective: Objective, spec: Spec, seed: int, rounds: int, m: Measure, tracer=None, first=False):
    """hello, rounds x (suggest_request, observe), best; returns curve and batches."""
    wire = WireSession(cmd, tracer)
    try:
        m.attempted += 1
        try:
            wire.hello(objective, spec, seed)
        except WireError as exc:
            _failed(m, "hello", exc)
            return [], []
        skip = init_rounds(objective.space, spec.config(seed))
        curve, batches = drive(wire, objective, spec.batch, skip, rounds, m, tracer, first)
        m.attempted += 1
        try:
            value = wire.best()
        except WireError as exc:
            _failed(m, "best", exc)
        else:
            if curve and value != curve[-1]:
                m.problems.append(f"server best {value} differs from the observed best {curve[-1]}")
    finally:
        wire.close()
    return curve, batches


def serve_run(seed: int, seconds: float, spec: Spec, traced: bool, dump_path: str | None = None) -> Measure:
    m = Measure()
    objective = objective_for("serve-d32", seed)
    m.per_unit_suggests = spec.rounds - init_rounds(objective.space, spec.base())
    random_trace = run_study("random", objective, [seed], spec.base())[0]
    m.bench_tracer = tracing.Tracer() if traced else None
    cmd = server_cmd(dump_path if traced else None)
    first = {}

    def unit(k: int) -> None:
        curve, batches = session(cmd, objective, spec, seed + k, spec.rounds, m, m.bench_tracer, first=k == 0)
        if k == 0:
            first["curve"], first["batches"] = curve, batches
            score = _score(objective, [curve], [random_trace], m) if curve else None
            if score is not None:
                m.scores["full"] = score
        m.units += 1

    _repeat_units(seconds, traced, unit)
    if traced:
        with open(dump_path) as fh:
            m.tracer = tracing.Tracer.load(json.load(fh))
    n = spec.replay_rounds
    replay = Measure()
    curve, batches = session(server_cmd(), objective, spec, seed, n, replay, first=True)
    _replay_check(m, replay, curve, batches, first, n)
    return m
