"""Tests for the trust-region state machine and the Sobol generator."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import qmc

from mixbo.space import ParamSpec, SearchSpace
from mixbo.surrogate import gp_fit
from mixbo.turbo import (
    TrustRegionConfig,
    TrustRegionState,
    UnsupportedDimensionError,
    generate_candidates,
    needs_restart,
    new_state,
    region_bounds,
    restarted,
    sobol_points,
    update_region,
)

# Direction numbers for dims 2..4 from the published table; dim 1 is
# the van der Corput sequence. Frozen here for the independent
# construction used by test_first_points_match_hand_construction.
JOE_KUO_HEAD = {2: (1, 0, (1,)), 3: (2, 1, (1, 3)), 4: (3, 1, (1, 3, 1))}
BITS = 32


def hand_sobol(n, d):
    """Direct digital construction: XOR of direction vectors over the
    set bits of gray(i), written independently of the package's
    incremental generator."""

    def vectors(dim, depth):
        if dim == 1:
            return [1 << (BITS - k) for k in range(1, depth + 1)]
        s, a, m = JOE_KUO_HEAD[dim]
        a_bits = [(a >> (s - 2 - i)) & 1 for i in range(s - 1)] if s > 1 else []
        v = [m[k - 1] << (BITS - k) for k in range(1, min(s, depth) + 1)]
        for k in range(s + 1, depth + 1):
            word = v[k - s - 1] ^ (v[k - s - 1] >> s)
            for i in range(1, s):
                if a_bits[i - 1]:
                    word ^= v[k - i - 1]
            v.append(word)
        return v

    depth = max(1, (n - 1).bit_length())
    vs = [vectors(j + 1, depth) for j in range(d)]
    out = np.empty((n, d))
    for i in range(n):
        g = i ^ (i >> 1)
        for j in range(d):
            acc = 0
            for k in range(depth):
                if (g >> k) & 1:
                    acc ^= vs[j][k]
            out[i, j] = acc / 2.0**BITS
    return out


# --- Sobol ------------------------------------------------------------


def test_first_points_match_hand_construction():
    for d in (1, 2, 3, 4):
        np.testing.assert_array_equal(sobol_points(8, d), hand_sobol(8, d))


def test_dimension_one_is_van_der_corput():
    got = sobol_points(8, 1)[:, 0]
    np.testing.assert_array_equal(
        got, [0.0, 0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125]
    )


def test_matches_external_generator_unscrambled():
    for d in (2, 5, 13, 64):
        ours = sobol_points(64, d)
        ref = qmc.Sobol(d, scramble=False).random(64)
        np.testing.assert_array_equal(ours, ref)


def test_scramble_is_deterministic_and_in_unit_cube():
    a = sobol_points(32, 6, seed=123)
    b = sobol_points(32, 6, seed=123)
    c = sobol_points(32, 6, seed=124)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a >= 0.0) and np.all(a < 1.0)
    assert not np.array_equal(a, sobol_points(32, 6))


def test_scrambled_spread_beats_uniform_random():
    wins = 0
    for seed in range(20):
        s = qmc.discrepancy(sobol_points(64, 4, seed=seed))
        u = qmc.discrepancy(np.random.default_rng(seed).random((64, 4)))
        wins += s < u
    assert wins >= 15


def test_dimension_cap():
    with pytest.raises(UnsupportedDimensionError):
        sobol_points(8, 65)
    with pytest.raises(ValueError):
        sobol_points(8, 0)


# --- trust-region configuration ----------------------------------------


def test_config_resolution_defaults():
    # failures before a halving: max(4, ceil(D / batch_size))
    for dim, batch, tolerance in ((8, 8, 4), (60, 4, 15), (2, 4, 4)):
        pt = np.full(dim, 0.5)
        st = update_region(new_state(), 1.0, pt, batch)
        for _ in range(tolerance - 1):
            st = update_region(st, 2.0, pt, batch)
        assert st.length == 0.8 and st.failure_count == tolerance - 1
        st = update_region(st, 2.0, pt, batch)
        assert st.length == 0.4 and st.failure_count == 0
    # n_candidates None means min(100 D, 2048), and each coordinate
    # moves off the center with probability min(1, 20 / D)
    rng = np.random.default_rng(0)
    for dim, count, prob in ((8, 800, 1.0), (60, 2048, 20 / 60)):
        space = SearchSpace([ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(dim)])
        st = update_region(new_state(), 1.0, np.full(dim, 0.5), 4)
        cand = generate_candidates(st, None, space, rng, TrustRegionConfig())
        assert cand.shape == (count, dim)
        assert np.mean(cand != st.center) == pytest.approx(prob, abs=0.01)
    cand = generate_candidates(st, None, space, rng, TrustRegionConfig(n_candidates=37))
    assert cand.shape == (37, 60)


def test_config_rejects_bad_lengths():
    # the floor must lie below the initial length 0.8
    for bad in (0.0, -0.1, 0.8, 1.0, float("nan"), True):
        with pytest.raises(ValueError):
            TrustRegionConfig(length_min=bad)
    for bad in (0, 2.5, 100.0, True, "100"):
        with pytest.raises(ValueError):
            TrustRegionConfig(n_candidates=bad)
    assert TrustRegionConfig(length_min=0.79, n_candidates=1).n_candidates == 1


# --- state machine ------------------------------------------------------

# D = 2 in batches of 4: a halving takes max(4, ceil(2 / 4)) = 4 failures
BATCH = 4


def test_fresh_state_has_no_center_and_no_incumbent():
    st = new_state()
    assert st.center is None
    assert st.length == 0.8
    assert st.best_value == np.inf
    with pytest.raises(ValueError):
        region_bounds(st)


def test_first_finite_value_recenters_as_a_success():
    st = update_region(new_state(), 10.0, np.array([0.3, 0.7]), BATCH)
    assert st.success_count == 1 and st.failure_count == 0
    assert st.best_value == 10.0
    np.testing.assert_array_equal(st.center, [0.3, 0.7])


def test_successes_double_length_at_tolerance():
    st = new_state()
    for i, v in enumerate((10.0, 8.0, 6.0)):
        st = update_region(st, v, np.array([0.4, 0.6]), BATCH)
        assert st.best_value == v
        if i < 2:
            assert st.length == 0.8
            assert st.success_count == i + 1
    # third consecutive success doubles and resets the counter
    assert st.length == pytest.approx(1.6)
    assert st.success_count == 0
    np.testing.assert_array_equal(st.center, [0.4, 0.6])


def test_length_never_exceeds_maximum():
    st = new_state()
    v = 100.0
    for _ in range(12):
        v -= 10.0
        st = update_region(st, v, np.array([0.5, 0.5]), BATCH)
    assert st.length == 1.6


def test_failures_halve_length_at_tolerance():
    st = update_region(new_state(), 5.0, np.array([0.5, 0.5]), BATCH)
    for i in range(4):
        st = update_region(st, 9.0, np.array([0.2, 0.2]), BATCH)
        assert st.failure_count == (i + 1) % 4
    assert st.length == pytest.approx(0.4)
    # a non-improving batch point must not move the center
    np.testing.assert_array_equal(st.center, [0.5, 0.5])


def test_tiny_improvement_counts_as_failure():
    st = update_region(new_state(), 10.0, np.array([0.5, 0.5]), BATCH)
    # within the relative margin 1e-3 |incumbent|: scored as a failure
    st = update_region(st, 10.0 - 1e-5, np.array([0.6, 0.6]), BATCH)
    assert st.failure_count == 1
    assert st.success_count == 0
    assert st.best_value == 10.0


def test_mixed_events_reset_opposite_counter():
    st = update_region(new_state(), 10.0, np.array([0.5, 0.5]), BATCH)
    st = update_region(st, 8.0, np.array([0.5, 0.5]), BATCH)  # success
    assert st.success_count == 2 and st.failure_count == 0
    st = update_region(st, 9.0, np.array([0.5, 0.5]), BATCH)  # failure
    assert st.success_count == 0 and st.failure_count == 1
    st = update_region(st, 6.0, np.array([0.5, 0.5]), BATCH)  # success
    assert st.success_count == 1 and st.failure_count == 0


def test_restart_threshold_at_length_min():
    cfg = TrustRegionConfig(length_min=0.125)
    st = update_region(new_state(), 1.0, np.array([0.5, 0.5]), BATCH)
    halvings = 0
    while not needs_restart(st, cfg):
        for _ in range(4):
            st = update_region(st, 2.0, np.array([0.5, 0.5]), BATCH)
        halvings += 1
        assert halvings < 20
    # 0.8 -> 0.4 -> 0.2 -> 0.1 < 0.125 after three halvings
    assert halvings == 3
    assert st.length == pytest.approx(0.1)

    fresh = restarted(st, np.array([0.9, 0.1]))
    assert fresh.length == 0.8
    assert fresh.restarts == st.restarts + 1
    assert fresh.best_value == np.inf
    assert fresh.success_count == 0 and fresh.failure_count == 0
    np.testing.assert_array_equal(fresh.center, [0.9, 0.1])


def assert_same_state(got, want):
    for f in dataclasses.fields(TrustRegionState):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.array_equal(a, b) if f.name == "center" else a == b, f.name


def test_fresh_and_restarted_states_are_the_field_defaults():
    assert_same_state(TrustRegionState(), new_state())
    st = update_region(new_state(), 1.0, np.array([0.2, 0.4]), BATCH)
    st = dataclasses.replace(st, restarts=2, length=0.05)
    center = np.array([0.9, 0.1])
    fresh = restarted(st, center)
    assert_same_state(fresh, TrustRegionState(center=center, restarts=3))
    center[0] = 0.0  # the restarted state holds its own copy
    assert fresh.center[0] == 0.9


def test_unweighted_sides_are_exactly_the_length():
    st = TrustRegionState(center=np.array([0.3, 0.5, 0.9]), length=0.35)
    lo, hi = region_bounds(st)
    np.testing.assert_array_equal(lo, np.clip(st.center - 0.175, 0.0, 1.0))
    np.testing.assert_array_equal(hi, np.clip(st.center + 0.175, 0.0, 1.0))


def test_region_bounds_weighting():
    st = TrustRegionState(
        center=np.array([0.5, 0.5]),
        length=0.4,
        success_count=0,
        failure_count=0,
        best_value=1.0,
        restarts=0,
    )
    # isotropic lengthscales: every side equals the base length
    lo, hi = region_bounds(st, np.array([0.7, 0.7]))
    np.testing.assert_allclose(hi - lo, [0.4, 0.4])
    # anisotropic: side i scales with ls_i / geometric_mean(ls)
    lo, hi = region_bounds(st, np.array([0.2, 0.8]))
    w = np.array([0.2, 0.8]) / np.sqrt(0.2 * 0.8)
    np.testing.assert_allclose(hi - lo, 0.4 * w, atol=1e-12)
    # no lengthscales given: unweighted sides
    lo, hi = region_bounds(st)
    np.testing.assert_allclose(hi - lo, [0.4, 0.4])


def test_region_bounds_clip_to_unit_cube():
    st = TrustRegionState(
        center=np.array([0.02, 0.98]),
        length=1.0,
        success_count=0,
        failure_count=0,
        best_value=0.0,
        restarts=0,
    )
    lo, hi = region_bounds(st, np.array([1.0, 1.0]))
    assert lo[0] == 0.0 and hi[1] == 1.0
    assert np.all(hi > lo)


# --- candidate generation ----------------------------------------------


def test_candidates_stay_inside_region_and_cube():
    space = SearchSpace(
        [
            ParamSpec("a", "real", lo=0.0, hi=1.0),
            ParamSpec("b", "real", lo=0.0, hi=1.0),
            ParamSpec("n", "integer", lo=0, hi=9),
        ]
    )
    rng = np.random.default_rng(0)
    X = space.snap(rng.random((12, 3)))
    y = X[:, 0] + X[:, 1] ** 2 + 0.1 * X[:, 2]
    model = gp_fit(X, y, space)
    st = update_region(new_state(), float(y.min()), np.array([0.5, 0.5, 0.5]), 4)
    cand = generate_candidates(st, model, space, rng, TrustRegionConfig())
    assert cand.shape == (300, 3)  # min(100 D, 2048)
    ls = np.ones(3)
    ls[space.blocks.x] = model.params.lengthscales
    lo, hi = region_bounds(st, ls)
    assert np.all(cand >= lo - 1e-12) and np.all(cand <= hi + 1e-12)


def test_candidates_perturb_at_least_one_coordinate():
    space = SearchSpace(
        [ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(30)]
    )
    rng = np.random.default_rng(1)
    X = rng.random((8, 30))
    y = X.sum(axis=1)
    model = gp_fit(X, y, space)
    st = update_region(new_state(), float(y.min()), np.full(30, 0.5), 4)
    cand = generate_candidates(st, model, space, rng, TrustRegionConfig())
    moved = np.sum(cand != st.center, axis=1)
    assert moved.min() >= 1
    # with probability 2/3 per coordinate, most rows leave some fixed
    assert np.median(moved) < 30


def test_candidate_stream_is_reproducible():
    space = SearchSpace([ParamSpec("a", "real", lo=0.0, hi=1.0), ParamSpec("b", "real", lo=0.0, hi=1.0)])
    rng = np.random.default_rng(4)
    X = rng.random((10, 2))
    y = X[:, 0]
    model = gp_fit(X, y, space)
    cfg = TrustRegionConfig()
    st = update_region(new_state(), 0.1, np.array([0.4, 0.6]), 4)
    c1 = generate_candidates(st, model, space, np.random.default_rng(99), cfg)
    c2 = generate_candidates(st, model, space, np.random.default_rng(99), cfg)
    np.testing.assert_array_equal(c1, c2)
