"""Spans and counts recorded around the calls into each mixbo layer.

Nothing here changes mixbo itself: :func:`install` swaps public
functions for timing wrappers on the module or class the optimizer looks
them up on, and the returned tracer puts the originals back. Spans stay
in memory until :meth:`Tracer.write`; per-layer metrics are derived from
them by :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

SUGGEST_SPANS = ("optimizer.suggest", "cli.suggest_request")


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent, suggest]``: ``parent`` is the
    index of the enclosing span (None at top level) and ``suggest`` the
    id of the suggest round the span belongs to. Each suggest span (the
    optimizer's, or the wire client's request) opens a new suggest id,
    which the evaluate and observe spans of its round share.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.errors: Counter = Counter()
        self.suggest_id: int | None = None
        self.restarts: dict = {}  # optimizer -> its diagnostics restart count
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        if name in SUGGEST_SPANS:
            self.suggest_id = (self.suggest_id or 0) + 1
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.suggest_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span.

        ``note(tracer, args, result)`` may record samples from the call.
        Exceptions are counted by type under the span name and re-raised.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            if note is not None:
                note(self, args, out)
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def _child_time(self) -> defaultdict:
        child: defaultdict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def self_time(self, name: str) -> float:
        """Time in spans called name not covered by their direct children."""
        child = self._child_time()
        return sum(s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def write(self, path: str) -> None:
        """Write every span as one JSON line, with its self time."""
        child = self._child_time()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, suggest) in enumerate(self.spans):
                doc = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "suggest": suggest,
                    "self_s": end - start - child[i],
                }
                fh.write(json.dumps(doc) + "\n")

    def dump(self) -> dict:
        """Everything layer_metrics needs, as plain JSON types."""
        return {
            "spans": self.spans,
            "samples": dict(self.samples),
            "errors": [[n, e, c] for (n, e), c in self.errors.items()],
            "restarts": sum(self.restarts.values()),
        }

    @classmethod
    def load(cls, doc: dict) -> "Tracer":
        t = cls()
        t.spans = doc["spans"]
        t.samples.update(doc["samples"])
        for n, e, c in doc["errors"]:
            t.errors[n, e] = c
        t.restarts = {0: doc["restarts"]}
        return t


def _note_fit(t, args, model):
    t.samples["gp_fit.n"].append(model.n)
    if math.isfinite(model.log_likelihood):
        t.samples["gp_fit.loglik"].append(model.log_likelihood)
    t.samples["gp_fit.jittered"].append(1.0 if model.jitter > 0 else 0.0)


def _note_sample(t, args, draws):
    t.samples["gp_sample.q"].append(draws.shape[1])


def _note_classifier(t, args, clf):
    t.samples["fit_classifier.accuracy"].append(clf.train_accuracy)
    t.samples["fit_classifier.support_vectors"].append(clf.support_vectors.shape[0])


def _note_filter(t, args, kept):
    t.samples["filter.in"].append(len(args[1]))
    t.samples["filter.kept"].append(len(kept))


def _note_candidates(t, args, cands):
    t.samples["turbo.candidates"].append(cands.shape[0])


def _note_observe(t, args, _):
    opt = args[0]
    t.restarts[opt] = opt.diagnostics["restarts"]


def install() -> Tracer:
    """Wrap the public functions of every optimizer layer and return the tracer.

    ``optimizer`` imports ``gp_fit``, ``gp_sample`` and ``gp_mean`` by
    name, so those are wrapped on ``mixbo.optimizer``; the ARP, bandit
    and trust-region functions are called through their modules and are
    wrapped there; the space warp is wrapped on the class.
    """
    from mixbo import arp, bandit, optimizer, turbo
    from mixbo.optimizer import Optimizer
    from mixbo.space import SearchSpace

    t = Tracer()
    t.wrap(Optimizer, "suggest", "optimizer.suggest")
    t.wrap(Optimizer, "observe", "optimizer.observe", _note_observe)
    t.wrap(optimizer, "gp_fit", "surrogate.gp_fit", _note_fit)
    t.wrap(optimizer, "gp_sample", "surrogate.gp_sample", _note_sample)
    t.wrap(optimizer, "gp_mean", "surrogate.gp_mean")
    t.wrap(arp, "label_observations", "arp.label_observations")
    t.wrap(arp, "fit_classifier", "arp.fit_classifier", _note_classifier)
    t.wrap(arp, "filter_candidates", "arp.filter_candidates", _note_filter)
    t.wrap(arp, "restart_samples", "arp.restart_samples")
    for fn in ("generate_candidates", "sobol_points", "update_region", "needs_restart", "restarted"):
        t.wrap(turbo, fn, f"turbo.{fn}", _note_candidates if fn == "generate_candidates" else None)
    for fn in ("ts_select", "update_rewards", "overwrite_qualitative"):
        t.wrap(bandit, fn, f"bandit.{fn}")
    for fn in ("warp", "unwarp", "snap"):
        t.wrap(SearchSpace, fn, f"space.{fn}")
    return t


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _mean(xs) -> float:
    return float(statistics.fmean(xs)) if xs else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics from one process's spans and samples.

    Layers the workload never reached report zero.
    """
    s = t.samples
    suggest = t.total("optimizer.suggest")
    fit = t.total("surrogate.gp_fit")
    sample = t.total("surrogate.gp_sample")
    clf = t.total("arp.fit_classifier")
    kept_in = sum(s["filter.in"])
    layer: defaultdict[str, float] = defaultdict(float)
    for name, start, end, _, _ in t.spans:
        layer[name.split(".")[0]] += end - start
    return {
        "surrogate.gp_fit.s": fit,
        "surrogate.gp_fit.p50_s": _median(t.durations("surrogate.gp_fit")),
        "surrogate.gp_fit.calls": len(t.durations("surrogate.gp_fit")),
        "surrogate.gp_fit.n_max": max(s["gp_fit.n"], default=0),
        "surrogate.gp_fit.loglik_median": _median(s["gp_fit.loglik"]),
        "surrogate.gp_fit.jittered": sum(s["gp_fit.jittered"]),
        "surrogate.gp_fit.share": fit / suggest if suggest else 0.0,
        "surrogate.gp_sample.s": sample,
        "surrogate.gp_sample.p50_s": _median(t.durations("surrogate.gp_sample")),
        "surrogate.gp_sample.q_median": _median(s["gp_sample.q"]),
        "surrogate.gp_sample.share": sample / suggest if suggest else 0.0,
        "surrogate.gp_mean.s": t.total("surrogate.gp_mean"),
        "arp.fit_classifier.s": clf,
        "arp.fit_classifier.p50_s": _median(t.durations("arp.fit_classifier")),
        "arp.fit_classifier.calls": len(t.durations("arp.fit_classifier")),
        "arp.fit_classifier.share": clf / suggest if suggest else 0.0,
        "arp.fit_classifier.train_accuracy_mean": _mean(s["fit_classifier.accuracy"]),
        "arp.fit_classifier.support_vectors_median": _median(s["fit_classifier.support_vectors"]),
        "arp.label_observations.s": t.total("arp.label_observations"),
        "arp.filter_candidates.s": t.total("arp.filter_candidates"),
        "arp.filter.kept_frac": sum(s["filter.kept"]) / kept_in if kept_in else 0.0,
        "arp.restart_samples.s": t.total("arp.restart_samples"),
        "arp.degenerate": t.errors["arp.label_observations", "DegenerateValuesError"],
        "turbo.generate_candidates.s": t.total("turbo.generate_candidates"),
        "turbo.candidates": sum(s["turbo.candidates"]),
        "space.s": layer["space"],
        "space.calls": sum(1 for sp in t.spans if sp[0].startswith("space.")),
        "bandit.s": layer["bandit"],
        "bandit.ts_select.calls": len(t.durations("bandit.ts_select")),
        "optimizer.suggest.s": suggest,
        "optimizer.suggest.self_s": t.self_time("optimizer.suggest"),
        "optimizer.observe.s": t.total("optimizer.observe"),
        "optimizer.restarts": sum(t.restarts.values()),
    }

