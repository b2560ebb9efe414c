"""
Partitioning the space into good and bad regions
================================================

Once enough observations exist, the optimizer labels them by running an
exact two-cluster k-means on the objective values, fits an RBF
least-squares support-vector machine to the labels in one linear solve,
and then (a) filters candidate points to the good side of the boundary
and (b) seeds restarts inside the good region instead of uniformly.
"""

import numpy as np

from mixbo import ParamSpec, SearchSpace
from mixbo.arp import fit_classifier, filter_candidates, label_observations, restart_samples

rng = np.random.default_rng(21)

# A toy landscape with a good basin in the lower-left corner.
def f(w):
    return float(np.sum((w - 0.25) ** 2))

W = rng.random((30, 2))
values = np.array([f(w) for w in W])

# The 1-d k-means split is exact, not iterative: it scans every split of
# the sorted values and keeps the one with minimal within-group scatter.
labels = label_observations(values)
print("good points:", int(labels.sum()), "of", labels.size)
print("good mean value:", round(values[labels].mean(), 4), " bad mean value:", round(values[~labels].mean(), 4))

# The classifier learns a smooth boundary around the good cluster.
clf = fit_classifier(W, labels)
print("training accuracy:", clf.train_accuracy)

# Candidate filtering keeps the good side, where the decision value is
# nonnegative. If the boundary would reject nearly everything, the filter
# falls back to the best-ranked fifth of the candidates so the search
# never starves.
cands = rng.random((200, 2))
kept = filter_candidates(clf, cands)
print("kept", kept.shape[0], "of 200 candidates")
dist_kept = np.linalg.norm(kept - 0.25, axis=1).mean()
dist_all = np.linalg.norm(cands - 0.25, axis=1).mean()
print("mean distance to basin, kept vs all:", round(dist_kept, 3), "vs", round(dist_all, 3))

# Restart seeding draws uniformly from the good side by rejection. The
# draws are rows of the warped cube, like the candidates; the optimizer
# unwarps them into points as it does every batch it serves.
space = SearchSpace([ParamSpec("u", "real", lo=0.0, hi=1.0), ParamSpec("v", "real", lo=0.0, hi=1.0)])
seeds = restart_samples(clf, rng, count=5)
print("restart rows on the good side:", int((clf.decision(seeds) >= 0).sum()), "of", seeds.shape[0])
for w in seeds:
    print("  restart candidate:", {k: round(v, 3) for k, v in space.unwarp(w).items()})
