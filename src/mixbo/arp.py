"""Adaptive partitioning of the search space by observed quality.

Once enough observations exist, they are split into a good and a bad
group by exact two-cluster k-means on the objective values alone, and a
least-squares support vector machine with an RBF kernel (Suykens and
Vandewalle, 1999) is trained on the warped inputs to carve the cube
into a good region and a bad region. The good region is where the
decision value is nonnegative, the side of the points labeled good.
Candidate points outside it are discarded before acquisition, and
restart rows of the cube are drawn from it by rejection sampling, so a
fresh trust region starts in territory that history suggests is
promising rather than anywhere in the cube.

The classifier is one dense linear solve: the least-squares form turns
the SVM's quadratic program into a bordered (n+1)x(n+1) system, so it
is exact, has no iteration or stopping rule, and identical inputs give
identical classifiers. Training sets here stay in the low hundreds.
Squared distances come from the surrogate's
:func:`~mixbo.surrogate.sqdist`; the training distances are computed
once and serve both the kernel width and the Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .surrogate import sqdist


class DegenerateValuesError(ValueError):
    """All objective values are identical; no meaningful split exists."""


#: Weight of the squared training errors in the least-squares SVM;
#: smaller values give a smoother boundary.
_SVM_C = 1.0

#: Share of the candidates the filter keeps, by decision value, when
#: fewer than this share lie in the good region.
_FALLBACK_FRACTION = 0.2


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
    if vals.min() == vals.max():
        raise DegenerateValuesError("all values are identical")

    order = np.argsort(vals, kind="stable")
    # scaled by a power of two, exactly, so the squares cannot overflow
    s = np.ldexp(vals[order], -np.frexp(np.max(np.abs(vals)))[1])
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

    ``decision`` is nonnegative on the good side, the side of the points
    labeled good at training time.
    """

    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    bias: float
    kernel_gamma: float
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


def fit_classifier(points: np.ndarray, labels: np.ndarray) -> RegionClassifier:
    """Train the RBF least-squares SVM boundary between good and bad points.

    Parameters
    ----------
    points : ndarray, shape (n, D)
        Warped inputs, n >= 4.
    labels : ndarray of bool, shape (n,)
        Good/bad split; both classes must be present.

    Returns
    -------
    RegionClassifier
        Every training point is a support vector.

    Notes
    -----
    The RBF width follows the median heuristic, gamma equal to the
    reciprocal of the median squared pairwise distance (1.0 if that
    median is zero). With y = +1 for good and -1 for bad points, K the
    RBF Gram and C = 1 the weight of the squared training errors, the
    coefficients beta and the bias b solve

        [[0, 1'], [1, K + I / C]] [b; beta] = [0; y],

    so beta sums to zero and the training decisions K beta + b equal
    y - beta / C. K + I / C is positive definite, so the system always
    has a unique solution.
    """
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

    system = np.ones((n + 1, n + 1))
    system[0, 0] = 0.0
    system[1:, 1:] = K + np.eye(n) / _SVM_C
    solution = np.linalg.solve(system, np.concatenate(([0.0], y)))
    bias, beta = float(solution[0]), solution[1:]

    dec = K @ beta + bias
    return RegionClassifier(
        support_vectors=X.copy(),
        dual_coefs=beta,
        bias=bias,
        kernel_gamma=gamma,
        train_accuracy=float(np.mean((dec >= 0.0) == lab)),
    )


def filter_candidates(classifier: RegionClassifier, candidates: np.ndarray) -> np.ndarray:
    """Keep candidates on the good side of the boundary.

    The good side is where the decision value is nonnegative. If fewer
    than a fifth of the candidates lie there, the filter instead keeps
    the ``ceil(0.2 * len(candidates))`` candidates with the largest
    decision values, so the acquisition step never runs out of points.

    Returns the surviving candidates in their original order (fallback
    ranking reorders by decision value).
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    if cand.shape[0] == 0:
        raise ValueError("no candidates to filter")
    dec = classifier.decision(cand)
    good = dec >= 0.0
    need = math.ceil(_FALLBACK_FRACTION * cand.shape[0])
    if int(good.sum()) >= need:
        return cand[good]
    ranked = np.argsort(-dec, kind="stable")[:need]
    return cand[ranked]


def restart_samples(
    classifier: RegionClassifier,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Uniform draws from the good region by rejection sampling.

    Draws uniform rows of the warped cube and keeps those with a
    nonnegative decision value, stopping after ``count`` acceptances or
    ``50 * count`` attempts; any shortfall is filled with unconditioned
    uniform rows so exactly ``count`` rows, shape ``(count, D)``, come back.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    d = classifier.support_vectors.shape[1]
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
    return np.array(out)
