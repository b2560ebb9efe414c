"""Batched ask/tell optimizer tying the pieces together.

The loop alternates strictly between :meth:`Optimizer.suggest`, which
returns a batch of points, and :meth:`Optimizer.observe`, which takes
their objective values. Early batches come from a scrambled Sobol design
over the whole cube. Once the design is exhausted, each batch is chosen
by fitting the surrogate to all history, generating Sobol candidates
inside the trust region, and taking the per-draw minima of joint
posterior samples (Thompson sampling on the surrogate) over the
candidates inside the learned good region. One loop serves every batch:
batch points with equal qualitative picks form a group, and each group
draws over its own random share of the candidates, with its picks
written into their qualitative coordinates before the region filter
sees them. With the bandits on, the per-variable bandits make those
picks first; without bandits, or without qualitative variables, there
are no picks, so one group of the whole batch draws over every
candidate.

Every observed batch updates the trust region. When the region collapses
below its minimum length the optimizer restarts it: the next batch is a
fresh design drawn from the learned good region (uniform if partitioning
is off or not yet active), and the region is re-centered on the best
point of that restart batch.

All randomness flows through a single generator seeded at construction,
so runs with equal inputs are bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping, Sized
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import arp as arp_mod
from . import bandit as bandit_mod
from . import turbo as turbo_mod
from .arp import DegenerateValuesError, RegionClassifier
from .bandit import BanditState
from .space import Blocks, Point, SearchSpace, is_integer
from .surrogate import GpModel, gp_fit, gp_sample
from .surrogate import gp_mean  # unused here, but perfbench/tracing.py wraps optimizer.gp_mean
from .turbo import TrustRegionConfig


class ProtocolError(RuntimeError):
    """suggest/observe were called out of turn or with mismatched data."""


class ConfigError(ValueError):
    """The optimizer configuration is inconsistent with the space."""


class EmptyHistoryError(RuntimeError):
    """best() was asked for before any observation arrived."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Run settings, trust-region settings and the feature flags of the ablation arms.

    ``init_points`` defaults to ``max(batch_size, min(2 * (D + 1),
    3 * batch_size))`` and is rounded up to whole batches when served.
    The three ``enable_*`` flags switch region partitioning, the mixed
    kernel, and the qualitative bandits independently; with all three
    off the optimizer is a plain trust-region method on the warped cube.
    ``turbo`` holds the trust region's floor and candidate count.
    Everything else is fixed: the rest of the trust region, the
    surrogate's search boxes and mixing weights, the region classifier
    and its filter, and the bandits' updates. Partitioning starts once
    ``max(16, 2 * D)`` observations exist.
    """

    batch_size: int = 8
    max_iterations: int = 16
    init_points: int | None = None
    seed: int = 0
    turbo: TrustRegionConfig = field(default_factory=TrustRegionConfig)
    enable_arp: bool = True
    enable_mixture_kernel: bool = True
    enable_bandit: bool = True

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_iterations", "init_points", "seed"):
            value = getattr(self, name)
            if not (is_integer(value) or (value is None and name == "init_points")):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.init_points is not None and self.init_points < self.batch_size:
            raise ConfigError("init_points must be at least batch_size")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    def resolved_init_points(self, dim: int) -> int:
        if self.init_points is not None:
            return self.init_points
        return max(self.batch_size, min(2 * (dim + 1), 3 * self.batch_size))


_CONFIG_SCALARS = {"batch_size", "max_iterations", "init_points", "seed"}
_FLAG_KEYS = {"arp": "enable_arp", "mixture_kernel": "enable_mixture_kernel", "bandit": "enable_bandit"}


def config_from_dict(doc: dict) -> OptimizerConfig:
    """Build an OptimizerConfig from the documented JSON schema.

    Every field is optional. Recognized keys are the scalar settings
    (``batch_size``, ``max_iterations``, ``init_points``, ``seed``), the
    nested ``turbo`` section (``length_min`` and ``n_candidates``), and
    a ``flags`` object with booleans
    ``arp``, ``mixture_kernel``, and ``bandit``. Unknown keys anywhere
    raise ConfigError.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be an object")
    unknown = set(doc) - _CONFIG_SCALARS - {"turbo", "flags"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {k: doc[k] for k in _CONFIG_SCALARS if k in doc}
    if "turbo" in doc:
        turbo = doc["turbo"]
        if not isinstance(turbo, dict):
            raise ConfigError('"turbo" must be an object')
        unknown = set(turbo) - set(TrustRegionConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown turbo settings: {sorted(unknown)}")
        try:
            kwargs["turbo"] = TrustRegionConfig(**turbo)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad turbo settings: {exc}") from exc
    flags = doc.get("flags", {})
    if not isinstance(flags, dict):
        raise ConfigError('"flags" must be an object')
    unknown = set(flags) - set(_FLAG_KEYS)
    if unknown:
        raise ConfigError(f"unknown flags: {sorted(unknown)}")
    for key, attr in _FLAG_KEYS.items():
        if key in flags:
            if not isinstance(flags[key], bool):
                raise ConfigError(f'flag "{key}" must be a boolean')
            kwargs[attr] = flags[key]
    try:
        return OptimizerConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class Observation:
    """One evaluated point as the optimizer recorded it.

    ``warped`` is the exact coordinate vector of ``point``; ``warned``
    marks values that arrived non-finite and were imputed to +inf.
    """

    point: Point
    warped: np.ndarray
    value: float
    warned: bool


@dataclass(eq=False)
class _Pending:
    points: list[Point]
    warped: np.ndarray


class Optimizer:
    """Mixed-variable trust-region optimizer with an ask/tell interface.

    Parameters
    ----------
    space : SearchSpace
        At least one parameter, at most 64.
    config : OptimizerConfig, optional

    Notes
    -----
    ``suggest`` and ``observe`` must alternate strictly; breaking the
    protocol raises ProtocolError without corrupting state. Non-finite
    observed values are imputed to +inf and flagged rather than
    rejected, so a crashing objective cannot wedge the loop; the
    surrogate and the region labels see them as the worst finite value,
    and a model batch with fewer than two finite values falls back to a
    restart-style batch.
    """

    def __init__(self, space: SearchSpace, config: OptimizerConfig | None = None):
        if config is None:
            config = OptimizerConfig()
        if space.dim < 1:
            raise ConfigError("the search space has no parameters")
        if space.dim > 64:
            raise ConfigError("at most 64 dimensions are supported")
        self.space = space
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self._init_points = config.resolved_init_points(space.dim)
        n_batches = math.ceil(self._init_points / config.batch_size)
        design_seed = int(self._rng.integers(0, 2**31))
        # suggest unwarps every row onto the lattice
        self._init_design = turbo_mod.sobol_points(n_batches * config.batch_size, space.dim, seed=design_seed)
        self._history: list[Observation] = []
        self._pending: _Pending | None = None
        self._tr = turbo_mod.new_state()
        self._restart_pending = False
        self._model: GpModel | None = None
        self._classifier: RegionClassifier | None = None
        self._bandit = BanditState.from_space(space) if space.qualitative_params else None
        self._counters = {
            "gp_fits": 0,
            "arp_fits": 0,
            "bandit_selects": 0,
            "bandit_updates": 0,
        }

    # -- read-only views ---------------------------------------------------

    @property
    def history(self) -> tuple[Observation, ...]:
        return tuple(self._history)

    @property
    def model(self) -> GpModel | None:
        """Most recently fitted surrogate, None before the first model batch."""
        return self._model

    @property
    def diagnostics(self) -> dict[str, Any]:
        """Counters and region geometry, for tests and instrumentation."""
        out = dict(self._counters)
        out["imputed_values"] = sum(ob.warned for ob in self._history)
        out["iterations"] = len(self._history) // self.config.batch_size
        out["observations"] = len(self._history)
        out["restarts"] = self._tr.restarts
        out["tr_length"] = self._tr.length
        return out

    def best(self) -> tuple[Point, float]:
        """Best observed point and value (earliest on exact ties).

        When every observation was imputed (all values infinite) the
        earliest observed point is returned with an infinite value, so
        callers can always rely on getting a point back.
        """
        if not self._history:
            raise EmptyHistoryError("no observations yet")
        ob = min(self._history, key=lambda o: o.value)
        return dict(ob.point), ob.value

    # -- ask ---------------------------------------------------------------

    def suggest(self) -> list[Point]:
        """Propose the next batch of points to evaluate.

        Returns
        -------
        list of dict
            Exactly ``batch_size`` valid points. The same list must be
            passed back to :meth:`observe`.
        """
        if self._pending is not None:
            raise ProtocolError("suggest called again before observe")
        if len(self._history) < self._init_points:
            batch = self._next_init_batch()
        elif self._restart_pending:
            batch = self._restart_batch()
            self._restart_pending = False
        else:
            batch = self._model_batch()
        points = [self.space.unwarp(w) for w in batch]
        warped = np.array([self.space.warp(p) for p in points])
        self._pending = _Pending(points=points, warped=warped)
        return [dict(p) for p in points]

    def _next_init_batch(self) -> np.ndarray:
        # suggest and observe alternate, so the history holds every
        # point served so far
        lo = len(self._history)
        return self._init_design[lo : lo + self.config.batch_size]

    def _restart_batch(self) -> np.ndarray:
        b = self.config.batch_size
        if self.config.enable_arp and self._classifier is not None:
            pts = arp_mod.restart_samples(self._classifier, self.space, self._rng, b)
            return np.array([self.space.warp(p) for p in pts])
        return np.array([self.space.warp(self.space.random_point(self._rng)) for _ in range(b)])

    def _model_batch(self) -> np.ndarray:
        space = self.space
        cfg = self.config
        X = np.array([ob.warped for ob in self._history])
        y = np.array([ob.value for ob in self._history])
        finite = np.isfinite(y)
        if np.count_nonzero(finite) < 2:
            return self._restart_batch()
        # Failed evaluations count as the worst success, as in TuRBO and
        # HEBO, so the surrogate and the region labels see them as bad
        # without an infinite target.
        y = np.where(finite, y, y[finite].max())
        blocks = space.blocks if cfg.enable_mixture_kernel else Blocks.all_real(space.dim)
        model = gp_fit(X, y, space, blocks=blocks)
        self._model = model
        self._counters["gp_fits"] += 1

        cands = turbo_mod.generate_candidates(self._tr, model, space, self._rng, cfg.turbo)
        # Score candidates as the points they would actually evaluate to.
        cands = space.snap(cands)

        classifier = None
        if cfg.enable_arp and len(self._history) >= max(16, 2 * space.dim):
            try:
                labels = arp_mod.label_observations(y)
            except DegenerateValuesError:
                pass  # a flat history carries no region signal this round
            else:
                classifier = self._classifier = arp_mod.fit_classifier(X, labels)
                self._counters["arp_fits"] += 1

        b = cfg.batch_size
        # The bandits pick the qualitative values first (CoCaBO's order);
        # batch positions with equal selections form a group, in order of
        # first appearance. Without bandits every selection is None, so
        # one group holds all b positions. A group of k positions draws
        # k times over a sorted random k/b share of the candidates (at
        # least 16 per draw, all q when k = b) with its arms written in,
        # so the draws factor several small matrices instead of one q x q
        # one, and keeps the argmins, distinct while they last.
        if cfg.enable_bandit and self._bandit is not None:
            selections = [bandit_mod.ts_select(self._bandit, self._rng) for _ in range(b)]
            self._counters["bandit_selects"] += b
        else:
            selections = [None] * b
        groups: dict[tuple | None, list[int]] = {}
        for pos, sel in enumerate(selections):
            groups.setdefault(None if sel is None else tuple(sel.values()), []).append(pos)
        q = cands.shape[0]
        batch = np.empty((b, space.dim))
        for positions in groups.values():
            k = len(positions)
            m = min(q, max(16 * k, q * k // b))
            share = cands[np.sort(self._rng.choice(q, m, replace=False))] if m < q else cands
            sel = selections[positions[0]]
            if sel is not None:
                share = bandit_mod.overwrite_qualitative(share, sel, space)
            if classifier is not None:
                share = arp_mod.filter_candidates(classifier, share)
            chosen: list[int] = []
            for row in gp_sample(model, share, self._rng, count=k):
                order = np.argsort(row, kind="stable")
                chosen.append(next((int(i) for i in order if int(i) not in chosen), int(order[0])))
            batch[positions] = share[chosen]
        return batch

    # -- tell ----------------------------------------------------------------

    def observe(self, points: Sequence[Point], values: Sequence[float]) -> None:
        """Report objective values for the batch returned by suggest.

        Parameters
        ----------
        points : sequence of dict
            Must equal the pending suggestion, same order; a points or
            values argument without a length, or a point that is not a
            mapping, raises ProtocolError.
        values : sequence of float
            One value per point. NaN, +inf and -inf count as failed
            evaluations: each is recorded as +inf (so -inf never becomes
            the best value) and flagged in the history rather than
            rejected, with one RuntimeWarning per batch that had any.
            A boolean, a string (even a numeric one), or a value
            ``float()`` rejects raises ProtocolError, and a rejected
            batch changes no state.
        """
        if self._pending is None:
            raise ProtocolError("observe called with no pending suggestion")
        pend = self._pending
        for name, given in (("points", points), ("values", values)):
            if not isinstance(given, Sized):
                raise ProtocolError(f"observed {name} must be a sequence, got {type(given).__name__}")
        if len(points) != len(pend.points):
            raise ProtocolError(f"expected {len(pend.points)} points, got {len(points)}")
        if len(values) != len(pend.points):
            raise ProtocolError("points and values disagree on length")
        for given, expected in zip(points, pend.points):
            if not isinstance(given, Mapping):
                raise ProtocolError(f"observed points must be mappings, got {type(given).__name__}")
            if dict(given) != expected:
                raise ProtocolError("observed points do not match the pending suggestion")

        # float(True) is 1.0 and float("0.25") is 0.25, but a boolean or a
        # string objective value is a caller's bug (np.str_ is a str)
        if any(isinstance(v, (bool, np.bool_)) for v in values):
            raise ProtocolError("observed values must be numbers, not booleans")
        if any(isinstance(v, (str, bytes, bytearray)) for v in values):
            raise ProtocolError("observed values must be numbers, not strings")
        try:
            floats = [float(v) for v in values]
        except (TypeError, ValueError, OverflowError) as exc:
            raise ProtocolError(f"observed values must be numbers: {exc}") from exc
        warned = [not math.isfinite(v) for v in floats]
        imputed = [math.inf if w else v for v, w in zip(floats, warned)]
        if any(warned):
            warnings.warn(
                f"{sum(warned)} of {len(values)} observed values were not finite; "
                "recorded as +inf",
                RuntimeWarning,
                stacklevel=2,
            )

        if self.config.enable_bandit and self._bandit is not None:
            pre_best = min((ob.value for ob in self._history), default=math.inf)
            quals = self.space.qualitative_params
            arms = [{p.name: p.choices.index(point[p.name]) for p in quals} for point in pend.points]
            bandit_mod.update_rewards(self._bandit, arms, [v < pre_best for v in imputed])
            self._counters["bandit_updates"] += 1

        for point, w, v, warn in zip(pend.points, pend.warped, imputed, warned):
            self._history.append(Observation(point=dict(point), warped=w.copy(), value=v, warned=warn))

        bidx = int(np.argmin(imputed))
        self._tr = turbo_mod.update_region(
            self._tr, imputed[bidx], pend.warped[bidx], self.config.batch_size
        )
        if turbo_mod.needs_restart(self._tr, self.config.turbo):
            # The fresh region keeps the old center until the restart
            # batch's best finite point re-centers it (best_value is +inf).
            self._tr = turbo_mod.restarted(self._tr, self._tr.center)
            self._restart_pending = True

        self._pending = None


def create(space: SearchSpace, config: OptimizerConfig | None = None) -> Optimizer:
    """Convenience constructor mirroring Optimizer(space, config)."""
    return Optimizer(space, config)
