"""Tests for the qualitative-variable bandit."""

import numpy as np
import pytest

from mixbo.bandit import (
    BanditState,
    overwrite_qualitative,
    ts_select,
    update_rewards,
)
from mixbo.space import ParamSpec, SearchSpace


def qual_space():
    return SearchSpace(
        [
            ParamSpec("x", "real", lo=0.0, hi=1.0),
            ParamSpec("flag", "boolean"),
            ParamSpec("mode", "categorical", categories=("a", "b", "c", "d")),
        ]
    )


def test_state_from_space_sets_uniform_priors():
    st = BanditState.from_space(qual_space())
    assert st.names == ("flag", "mode")
    np.testing.assert_array_equal(st.alpha["mode"], np.ones(4))
    np.testing.assert_array_equal(st.beta["mode"], np.ones(4))


def test_selection_is_uniform_under_flat_priors():
    st = BanditState.from_space(qual_space())
    rng = np.random.default_rng(0)
    counts = np.zeros(4)
    trials = 20000
    for _ in range(trials):
        counts[ts_select(st, rng)["mode"]] += 1
    freqs = counts / trials
    np.testing.assert_allclose(freqs, 0.25, atol=0.02)


def test_selection_favors_rewarded_arm():
    st = BanditState.from_space(qual_space())
    # heavy evidence for arm 2 of "mode"
    st.alpha["mode"][2] += 40
    st.beta["mode"][[0, 1, 3]] += 40
    rng = np.random.default_rng(1)
    picks = [ts_select(st, rng)["mode"] for _ in range(500)]
    assert np.mean(np.array(picks) == 2) > 0.9


def test_one_beta_draw_selects_and_consumes_as_one_draw_per_variable():
    st = BanditState.from_space(qual_space())
    st.alpha["mode"] += [3.0, 0.0, 7.0, 1.0]
    st.beta["flag"] += [2.0, 5.0]
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(50):
        want = {name: int(np.argmax(ref.beta(st.alpha[name], st.beta[name]))) for name in st.names}
        assert ts_select(st, rng) == want
    assert rng.bit_generator.state == ref.bit_generator.state


def test_bernoulli_convergence_two_arms():
    space = SearchSpace(
        [ParamSpec("arm", "categorical", categories=("good", "bad"))]
    )
    last_frac = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        st = BanditState.from_space(space)
        picks = []
        for _ in range(400):
            sel = ts_select(st, rng)
            k = sel["arm"]
            reward = rng.random() < (0.8 if k == 0 else 0.2)
            update_rewards(st, [sel], [bool(reward)])
            picks.append(k)
        last_frac.append(np.mean(np.array(picks[-100:]) == 0))
    assert np.mean(last_frac) >= 0.9


def test_update_increments_alpha_on_new_best_and_beta_otherwise():
    st = BanditState.from_space(qual_space())
    arms = [{"flag": 1, "mode": 3}, {"flag": 0, "mode": 3}]
    update_rewards(st, arms, [True, False])
    np.testing.assert_array_equal(st.alpha["flag"], [1, 2])
    np.testing.assert_array_equal(st.beta["flag"], [2, 1])
    np.testing.assert_array_equal(st.alpha["mode"], [1, 1, 1, 2])
    np.testing.assert_array_equal(st.beta["mode"], [1, 1, 1, 2])


def test_update_validates_arm_dictionaries():
    st = BanditState.from_space(qual_space())
    with pytest.raises(ValueError):
        update_rewards(st, [{"flag": 0}], [True])  # missing "mode"
    with pytest.raises(ValueError):
        update_rewards(st, [{"flag": 0, "mode": 9}], [True])  # out of range
    with pytest.raises(ValueError):
        update_rewards(st, [{"flag": 0, "mode": 1}], [True, False])  # length


@pytest.mark.parametrize("flags", [[True, True], [False, False]], ids=["improving", "not_improving"])
def test_a_rejected_batch_leaves_the_counts_unchanged(flags):
    st = BanditState.from_space(qual_space())
    with pytest.raises(ValueError):
        # the first point is valid, the second plays an arm out of range
        update_rewards(st, [{"flag": 1, "mode": 1}, {"flag": 0, "mode": 5}], flags)
    for name in st.names:
        np.testing.assert_array_equal(st.alpha[name], 1.0)
        np.testing.assert_array_equal(st.beta[name], 1.0)


def test_overwrite_qualitative_writes_arm_codes():
    space = qual_space()
    rng = np.random.default_rng(5)
    cand = rng.random((6, 3))
    before = cand.copy()
    out = overwrite_qualitative(cand, {"flag": 1, "mode": 2}, space)
    assert out is not cand
    np.testing.assert_array_equal(cand, before)  # input not modified
    np.testing.assert_array_equal(out[:, 0], cand[:, 0])  # real untouched
    np.testing.assert_array_equal(out[:, 1], np.ones(6))
    np.testing.assert_array_equal(out[:, 2], np.full(6, 2 / 3))
    for row in out:
        pt = space.unwarp(row)
        assert pt["flag"] is True and pt["mode"] == "c"
    for row in overwrite_qualitative(cand, {"flag": 0, "mode": 0}, space):
        pt = space.unwarp(row)
        assert pt["flag"] is False and pt["mode"] == "a"


def test_overwrite_requires_complete_selection():
    space = qual_space()
    cand = np.random.default_rng(0).random((3, 3))
    with pytest.raises(ValueError, match="missing variable 'mode'"):
        overwrite_qualitative(cand, {"flag": 1}, space)
    with pytest.raises(ValueError, match="arm 4 out of range for variable 'mode'"):
        overwrite_qualitative(cand, {"flag": 1, "mode": 4}, space)
    with pytest.raises(ValueError, match="arm -1 out of range for variable 'flag'"):
        overwrite_qualitative(cand, {"flag": -1, "mode": 0}, space)


def test_overwrite_without_qualitative_params_is_identity():
    space = SearchSpace([ParamSpec("x", "real", lo=0.0, hi=1.0)])
    cand = np.random.default_rng(0).random((4, 1))
    out = overwrite_qualitative(cand, {}, space)
    assert out is not cand
    np.testing.assert_array_equal(out, cand)
