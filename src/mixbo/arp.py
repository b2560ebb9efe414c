"""Adaptive partitioning of the search space by observed quality.

Once enough observations exist, they are split into a good and a bad
group by exact two-cluster k-means on the objective values alone, and a
soft-margin RBF support vector machine is trained on the warped inputs
to carve the cube into a good region and a bad region. Candidate points
outside the good region are discarded before acquisition, and restart
proposals are drawn from the good region by rejection sampling, so a
fresh trust region starts in territory that history suggests is
promising rather than anywhere in the cube.

The SVM is deliberately small: a precomputed Gram matrix and a
sequential minimal optimization loop over pairs of dual variables, with
deterministic pair selection so identical inputs always give the same
classifier. Training sets here stay in the low hundreds, where this is
both fast and exact enough. Squared distances come from the surrogate's
:func:`~mixbo.surrogate.sqdist`; the training distances are computed
once and serve both the kernel width and the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .space import Point, SearchSpace
from .surrogate import sqdist


class DegenerateValuesError(ValueError):
    """All objective values are identical; no meaningful split exists."""


@dataclass(frozen=True)
class ArpConfig:
    """Partitioning settings.

    ``activation_threshold`` is the observation count below which
    partitioning stays inactive; None resolves to ``max(16, 2 * D)``.
    ``svm_budget`` caps full SMO passes over the training set.
    ``fallback_fraction`` is the share of candidates retained by decision
    value when the good region captures fewer than that share.
    """

    activation_threshold: int | None = None
    svm_budget: int = 200
    fallback_fraction: float = 0.2
    svm_c: float = 1.0

    def __post_init__(self) -> None:
        if self.activation_threshold is not None and self.activation_threshold < 4:
            raise ValueError("activation_threshold must be at least 4")
        if self.svm_budget < 1:
            raise ValueError("svm_budget must be at least 1")
        if not 0.0 < self.fallback_fraction <= 1.0:
            raise ValueError("fallback_fraction must lie in (0, 1]")
        if self.svm_c <= 0:
            raise ValueError("svm_c must be positive")

    def resolve(self, dim: int) -> "ArpConfig":
        """Fill the activation threshold for a concrete dimension."""
        if self.activation_threshold is not None:
            return self
        return replace(self, activation_threshold=max(16, 2 * dim))


def label_observations(values: np.ndarray) -> np.ndarray:
    """Split objective values into good (True) and bad (False) groups.

    Runs exact two-cluster k-means in one dimension: the optimal
    clustering is a split of the sorted values, so every split point is
    scanned and the one with the smallest within-cluster sum of squared
    deviations wins (first such split on ties). The cluster with the
    lower mean is the good one.

    Parameters
    ----------
    values : ndarray, shape (n,)
        Finite objective values, n >= 4, not all identical.

    Returns
    -------
    ndarray of bool, shape (n,)
        True marks the good group. Both groups are always nonempty.

    Raises
    ------
    DegenerateValuesError
        If every value is identical.
    """
    vals = np.asarray(values, dtype=float).ravel()
    n = vals.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 values, got {n}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if np.ptp(vals) == 0.0:
        raise DegenerateValuesError("all values are identical")

    order = np.argsort(vals, kind="stable")
    s = vals[order]
    csum = np.cumsum(s)
    csq = np.cumsum(s * s)
    total_sum = csum[-1]
    total_sq = csq[-1]
    ks = np.arange(1, n)
    left_sse = csq[:-1] - csum[:-1] ** 2 / ks
    right_n = n - ks
    right_sum = total_sum - csum[:-1]
    right_sse = (total_sq - csq[:-1]) - right_sum**2 / right_n
    k = int(np.argmin(left_sse + right_sse)) + 1

    labels = np.zeros(n, dtype=bool)
    labels[order[:k]] = True  # sorted-left cluster has the lower mean
    return labels


@dataclass(frozen=True, eq=False)
class RegionClassifier:
    """A trained good/bad region boundary.

    ``decision`` is positive on the side the classifier calls good at
    training time; the optimizer re-anchors the sign at the incumbent
    when filtering, so only the boundary itself matters.
    """

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    kernel_gamma: float
    trained_on: int
    train_accuracy: float

    def decision(self, points: np.ndarray) -> np.ndarray:
        """Signed distance-like score for each row of points."""
        q = np.atleast_2d(np.asarray(points, dtype=float))
        k = np.exp(-self.kernel_gamma * sqdist(q, self.support_vectors))
        return k @ self.dual_coefs + self.bias


def _median_heuristic_gamma(d2: np.ndarray) -> float:
    """Reciprocal median of the off-diagonal squared distances d2."""
    med = float(np.median(d2[np.triu_indices(d2.shape[0], k=1)]))
    if med <= 0.0:
        return 1.0
    return 1.0 / med


def fit_classifier(
    points: np.ndarray, labels: np.ndarray, config: ArpConfig | None = None
) -> RegionClassifier:
    """Train the RBF soft-margin boundary between good and bad points.

    Parameters
    ----------
    points : ndarray, shape (n, D)
        Warped inputs, n >= 4.
    labels : ndarray of bool, shape (n,)
        Good/bad split; both classes must be present.
    config : ArpConfig, optional

    Returns
    -------
    RegionClassifier

    Notes
    -----
    The RBF width follows the median heuristic, gamma equal to the
    reciprocal of the median squared pairwise distance (1.0 if that
    median is zero). Dual variables are optimized by sequential minimal
    optimization with box constraint ``svm_c``: the first variable is
    scanned in index order among KKT violators; its partner is chosen to
    maximize the error gap |E_i - E_j|, falling back deterministically
    to the next index that makes progress. Passes stop early once a full
    scan changes nothing. Identical inputs therefore give identical
    classifiers.
    """
    if config is None:
        config = ArpConfig()
    X = np.atleast_2d(np.asarray(points, dtype=float))
    lab = np.asarray(labels, dtype=bool).ravel()
    n = X.shape[0]
    if n < 4:
        raise ValueError(f"need at least 4 points, got {n}")
    if lab.shape[0] != n:
        raise ValueError("points and labels disagree on n")
    if lab.all() or not lab.any():
        raise ValueError("both classes must be present")
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")

    y = np.where(lab, 1.0, -1.0)
    d2 = sqdist(X, X)
    gamma = _median_heuristic_gamma(d2)
    K = np.exp(-gamma * d2)

    C = config.svm_c
    tol = 1e-3
    alpha = np.zeros(n)
    b = 0.0
    # Decision values over the training set, maintained incrementally so
    # errors and partner selection stay linear per step.
    f = np.full(n, b)

    def try_step(i: int, j: int) -> bool:
        nonlocal b, f
        if i == j:
            return False
        e_i = f[i] - y[i]
        e_j = f[j] - y[j]
        a_i_old, a_j_old = alpha[i], alpha[j]
        if y[i] != y[j]:
            lo, hi = max(0.0, a_j_old - a_i_old), min(C, C + a_j_old - a_i_old)
        else:
            lo, hi = max(0.0, a_i_old + a_j_old - C), min(C, a_i_old + a_j_old)
        if lo >= hi:
            return False
        eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
        if eta >= 0.0:
            return False
        a_j = a_j_old - y[j] * (e_i - e_j) / eta
        a_j = min(max(a_j, lo), hi)
        if abs(a_j - a_j_old) < 1e-12:
            return False
        a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
        alpha[i], alpha[j] = a_i, a_j
        b1 = b - e_i - y[i] * (a_i - a_i_old) * K[i, i] - y[j] * (a_j - a_j_old) * K[i, j]
        b2 = b - e_j - y[i] * (a_i - a_i_old) * K[i, j] - y[j] * (a_j - a_j_old) * K[j, j]
        b_old = b
        if 0.0 < a_i < C:
            b = b1
        elif 0.0 < a_j < C:
            b = b2
        else:
            b = 0.5 * (b1 + b2)
        f = f + y[i] * (a_i - a_i_old) * K[:, i] + y[j] * (a_j - a_j_old) * K[:, j] + (b - b_old)
        return True

    for _ in range(config.svm_budget):
        changed = 0
        for i in range(n):
            e_i = f[i] - y[i]
            r = y[i] * e_i
            if not ((r < -tol and alpha[i] < C) or (r > tol and alpha[i] > 0)):
                continue
            gaps = np.abs(e_i - (f - y))
            gaps[i] = -1.0
            if try_step(i, int(np.argmax(gaps))):
                changed += 1
                continue
            # Deterministic fallback scan from the next index.
            for off in range(1, n):
                if try_step(i, (i + off) % n):
                    changed += 1
                    break
        if changed == 0:
            break

    dec = f
    accuracy = float(np.mean(np.sign(dec) == y))
    keep = alpha > 1e-10
    return RegionClassifier(
        support_vectors=X[keep].copy(),
        dual_coefs=(alpha * y)[keep].copy(),
        bias=float(b),
        kernel_gamma=gamma,
        trained_on=n,
        train_accuracy=accuracy,
    )


def filter_candidates(
    classifier: RegionClassifier,
    candidates: np.ndarray,
    best_point: np.ndarray,
    fallback_fraction: float = 0.2,
) -> np.ndarray:
    """Keep candidates on the incumbent's side of the boundary.

    The good side is whatever side the current best point falls on, with
    a decision value of exactly zero counted as positive. If fewer than
    ``fallback_fraction`` of the candidates survive, the filter instead
    keeps the ``ceil(fallback_fraction * len(candidates))`` candidates
    whose decision values lie furthest toward the chosen side, so the
    acquisition step never runs out of points.

    Returns the surviving candidates in their original order (fallback
    ranking reorders by decision value).
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cand.shape[0] == 0:
        raise ValueError("no candidates to filter")
    side = 1.0 if float(classifier.decision(best_point)[0]) >= 0.0 else -1.0
    dec = classifier.decision(cand)
    matches = (dec >= 0.0) if side > 0 else (dec < 0.0)
    need = math.ceil(fallback_fraction * cand.shape[0])
    if int(matches.sum()) >= need:
        return cand[matches]
    ranked = np.argsort(-side * dec, kind="stable")[:need]
    return cand[ranked]


def restart_samples(
    classifier: RegionClassifier,
    space: SearchSpace,
    rng: np.random.Generator,
    count: int,
) -> list[Point]:
    """Uniform draws from the good region by rejection sampling.

    Draws uniform points in the warped cube and keeps those with a
    nonnegative decision value, stopping after ``count`` acceptances or
    ``50 * count`` attempts; any shortfall is filled with unconditioned
    uniform points so exactly ``count`` points always come back.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    d = space.dim
    accepted: list[np.ndarray] = []
    attempts = 0
    budget = 50 * count
    chunk = max(4 * count, 64)
    while len(accepted) < count and attempts < budget:
        take = min(chunk, budget - attempts)
        draws = rng.random((take, d))
        attempts += take
        good = classifier.decision(draws) >= 0.0
        accepted.extend(draws[good])
    out = accepted[:count]
    while len(out) < count:
        out.append(rng.random(d))
    return [space.unwarp(w) for w in out]
