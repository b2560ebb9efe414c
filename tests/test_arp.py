"""Tests for value labeling, region classification, and region sampling."""

import numpy as np
import pytest

from mixbo.arp import (
    _SVM_C,
    DegenerateValuesError,
    RegionClassifier,
    fit_classifier,
    filter_candidates,
    label_observations,
    restart_samples,
)
from mixbo.optimizer import Optimizer, OptimizerConfig
from mixbo.space import ParamSpec, SearchSpace


def brute_force_split_sse(values):
    """Minimal within-cluster sum of squares over every sorted split."""
    v = np.sort(values)
    n = v.size
    best = np.inf
    for k in range(1, n):
        a, b = v[:k], v[k:]
        sse = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
        best = min(best, sse)
    return best


def labels_sse(values, labels):
    a = values[labels]
    b = values[~labels]
    return ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()


# --- labeling ---------------------------------------------------------


def test_labeling_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(4, 13))
        vals = rng.standard_normal(n) * rng.uniform(0.5, 10)
        labels = label_observations(vals)
        assert labels.dtype == bool and labels.shape == (n,)
        # the good cluster holds the smaller values and is nonempty
        assert 0 < labels.sum() < n
        assert vals[labels].max() <= vals[~labels].min()
        assert labels_sse(vals, labels) == pytest.approx(brute_force_split_sse(vals), rel=1e-12)


def test_labeling_puts_low_values_in_good_cluster():
    vals = np.array([0.1, 0.2, 5.0, 5.1, 5.2])
    labels = label_observations(vals)
    np.testing.assert_array_equal(labels, [True, True, False, False, False])
    # unscaled, the squares of values near the float64 limit overflow
    vals = np.array([1e308, -1e308] * 8)
    np.testing.assert_array_equal(label_observations(vals), vals < 0)


def test_labeling_rejects_degenerate_inputs():
    with pytest.raises(DegenerateValuesError):
        label_observations(np.full(6, 3.3))
    with pytest.raises(ValueError):
        label_observations(np.array([1.0, 2.0, 3.0]))  # too few
    with pytest.raises(ValueError):
        label_observations(np.array([1.0, np.nan, 2.0, 3.0]))


# --- classifier -------------------------------------------------------


def blob_data(rng, n_per=20, gap=2.0):
    a = rng.normal((-1.0, -1.0), 0.3, size=(n_per, 2))
    b = rng.normal((1.0 + gap - 2.0, 1.0 + gap - 2.0), 0.3, size=(n_per, 2))
    X = np.vstack([a, b])
    y = np.concatenate([np.ones(n_per, dtype=bool), np.zeros(n_per, dtype=bool)])
    return X, y


def test_classifier_separates_clean_blobs():
    rng = np.random.default_rng(42)
    X, y = blob_data(rng)
    clf = fit_classifier(X, y)
    assert clf.train_accuracy == 1.0
    pred = clf.decision(X) >= 0
    np.testing.assert_array_equal(pred, y)


def test_classifier_handles_alternating_pattern():
    # four clusters on a 2x2 grid with diagonal labels; not linearly
    # separable, so this exercises the radial kernel
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([True, True, False, False])
    X = np.vstack([rng.normal(c, 0.08, size=(15, 2)) for c in centers])
    y = np.repeat(labels, 15)
    clf = fit_classifier(X, y)
    assert clf.train_accuracy >= 0.9


@pytest.mark.parametrize("svm_c", [_SVM_C])
def test_classifier_solves_the_least_squares_system(svm_c):
    rng = np.random.default_rng(3)
    # overlapping classes, so training errors are not zero
    X = rng.random((40, 3))
    y = X[:, 0] + 0.3 * rng.standard_normal(40) < 0.5
    clf = fit_classifier(X, y)
    beta = clf.dual_coefs
    assert clf.support_vectors.shape == X.shape
    assert clf.trained_on == 40
    assert abs(beta.sum()) <= 1e-12
    signs = np.where(y, 1.0, -1.0)
    np.testing.assert_allclose(clf.decision(X), signs - beta / svm_c, rtol=0.0, atol=1e-10)
    assert clf.train_accuracy == np.mean((clf.decision(X) >= 0) == y)
    again = fit_classifier(X.copy(), y.copy())
    assert again.bias == clf.bias and again.kernel_gamma == clf.kernel_gamma
    np.testing.assert_array_equal(again.dual_coefs, clf.dual_coefs)
    np.testing.assert_array_equal(again.support_vectors, clf.support_vectors)


def test_classifier_accepts_duplicated_points():
    # repeated rows make the Gram singular; the I / C term keeps the
    # bordered system nonsingular
    rng = np.random.default_rng(4)
    X = np.repeat(rng.random((6, 2)), 3, axis=0)
    y = np.repeat(np.array([True, True, False, True, False, False]), 3)
    clf = fit_classifier(X, y)
    assert np.all(np.isfinite(clf.dual_coefs)) and np.isfinite(clf.bias)
    signs = np.where(y, 1.0, -1.0)
    np.testing.assert_allclose(clf.decision(X), signs - clf.dual_coefs, rtol=0.0, atol=1e-10)
    # copies of one point share one coefficient
    per_point = clf.dual_coefs.reshape(6, 3)
    np.testing.assert_allclose(per_point, per_point[:, :1].repeat(3, axis=1), rtol=0.0, atol=1e-12)


# --- candidate filtering ----------------------------------------------


def test_filter_keeps_candidates_on_the_good_side():
    rng = np.random.default_rng(1)
    X, y = blob_data(rng)
    clf = fit_classifier(X, y)
    cand = rng.uniform(-2.5, 2.5, size=(200, 2))
    kept = filter_candidates(clf, cand)
    dec = clf.decision(cand)
    assert kept.shape[0] > 0
    np.testing.assert_array_equal(kept, cand[dec >= 0])


def bump_classifier():
    """decision(w) = exp(-4 |w - 0.2|^2) - 0.5: good within 0.42 of 0.2."""
    return RegionClassifier(
        support_vectors=np.array([[0.2]]),
        dual_coefs=np.array([1.0]),
        bias=-0.5,
        kernel_gamma=4.0,
        trained_on=4,
        train_accuracy=1.0,
    )


def test_filter_and_restarts_share_the_training_sign():
    # The best observed point may score negative (a training error). The
    # filter must still keep the nonnegative side, the one restart
    # sampling draws from, not the side the incumbent happens to be on.
    clf = bump_classifier()
    incumbent = np.array([1.5])
    assert clf.decision(incumbent[None])[0] < 0
    cand = np.linspace(0.0, 1.0, 21)[:, None]
    good = clf.decision(cand) >= 0
    assert 0.2 * cand.shape[0] <= good.sum() < cand.shape[0]
    kept = filter_candidates(clf, cand)
    np.testing.assert_array_equal(kept, cand[good])
    space = SearchSpace([ParamSpec("a", "real", lo=0.0, hi=1.0)])
    pts = restart_samples(clf, space, np.random.default_rng(0), count=30)
    W = np.array([space.warp(p) for p in pts])
    assert np.all(clf.decision(W) >= 0)


def test_filter_falls_back_to_least_bad_candidates():
    rng = np.random.default_rng(5)
    X, y = blob_data(rng)
    clf = fit_classifier(X, y)
    # all candidates deep on the wrong side
    wrong = X[~y].mean(axis=0)
    cand = rng.normal(wrong, 0.05, size=(50, 2))
    kept = filter_candidates(clf, cand)
    assert kept.shape[0] == 10  # ceil(0.2 * 50)
    # the fallback picks the candidates closest to the good side
    dec_all = np.sort(clf.decision(cand))[::-1]
    dec_kept = np.sort(clf.decision(kept))[::-1]
    np.testing.assert_allclose(dec_kept, dec_all[:10])


def test_filter_preserves_original_candidate_order():
    rng = np.random.default_rng(9)
    X, y = blob_data(rng)
    clf = fit_classifier(X, y)
    cand = np.vstack([X[y] + rng.normal(0, 0.05, X[y].shape) for _ in range(3)])
    kept = filter_candidates(clf, cand)
    # every kept row appears in the original order
    idx = [np.flatnonzero((cand == row).all(axis=1))[0] for row in kept]
    assert idx == sorted(idx)


# --- restart sampling ---------------------------------------------------


def test_restart_samples_live_in_the_good_region():
    rng = np.random.default_rng(11)
    # good region: left half of the warped cube
    X = rng.random((60, 2))
    y = X[:, 0] < 0.5
    clf = fit_classifier(X, y)
    space = SearchSpace(
        [ParamSpec("a", "real", lo=0.0, hi=1.0), ParamSpec("b", "real", lo=0.0, hi=1.0)]
    )
    pts = restart_samples(clf, space, np.random.default_rng(2), count=25)
    assert len(pts) == 25
    W = np.array([space.warp(p) for p in pts])
    dec = clf.decision(W)
    # the sampler prefers the modeled good side; allow a small spill
    assert np.mean(dec >= 0) >= 0.8


def test_restart_samples_fill_with_uniform_when_region_is_tiny():
    rng = np.random.default_rng(13)
    X = rng.random((40, 2))
    # region so small that rejection rarely hits it
    y = (np.abs(X[:, 0] - 0.5) < 0.02) & (np.abs(X[:, 1] - 0.5) < 0.02)
    y[:2] = True  # make sure both classes exist
    clf = fit_classifier(X, y)
    space = SearchSpace(
        [ParamSpec("a", "real", lo=0.0, hi=1.0), ParamSpec("b", "real", lo=0.0, hi=1.0)]
    )
    pts = restart_samples(clf, space, np.random.default_rng(3), count=20)
    assert len(pts) == 20
    for p in pts:
        space.validate(p)


def test_config_threshold_resolution():
    # the optimizer first partitions at the first model batch that has
    # max(16, 2 D) observations
    for dim, threshold in ((3, 16), (12, 24)):
        space = SearchSpace([ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(dim)])
        opt = Optimizer(space, OptimizerConfig(batch_size=4, seed=0))
        while opt.diagnostics["arp_fits"] == 0:
            seen = len(opt.history)
            pts = opt.suggest()
            opt.observe(pts, [sum((v - 0.3) ** 2 for v in p.values()) for p in pts])
        assert seen == threshold
