"""
Thompson-sampling bandits for qualitative variables
===================================================

Categorical and boolean parameters get a separate treatment from the
numeric ones: each qualitative variable keeps a Beta posterior per
arm (category), updated by whether an evaluated point improved the best
value seen so far. Selection samples every posterior once and plays the
arm with the largest draw.
"""

import numpy as np

from mixbo import BanditState, ParamSpec, SearchSpace, ts_select, update_rewards

space = SearchSpace(
    [
        ParamSpec("x", "real", lo=0.0, hi=1.0),
        ParamSpec("optimizer", "categorical", categories=("sgd", "adam", "rmsprop")),
        ParamSpec("amsgrad", "boolean"),
    ]
)

# Only the qualitative variables are tracked; each starts at Beta(1, 1).
state = BanditState.from_space(space)
print("tracked:", state.names)
print("arms per variable:", {n: state.alpha[n].size for n in state.names})

# Under the flat prior, selection is uniform.
rng = np.random.default_rng(0)
first = [ts_select(state, rng)["optimizer"] for _ in range(12)]
print("first picks (uniform):", first)

# Simulate feedback where "adam" improves the incumbent 60% of the time
# and everything else 10%. After a few dozen rounds the posterior locks
# onto the winning arm.
better = {0: 0.1, 1: 0.6, 2: 0.1}
for _ in range(60):
    choice = ts_select(state, rng)
    improved = bool(rng.random() < better[choice["optimizer"]])
    update_rewards(state, [choice], [improved])

print("posterior means for optimizer arms:",
      np.round(state.alpha["optimizer"] / (state.alpha["optimizer"] + state.beta["optimizer"]), 2))
late = [ts_select(state, rng)["optimizer"] for _ in range(12)]
print("late picks (locked on arm 1):", late)

# Within the full optimizer, the selections come first: batch points with
# equal selections form a group, the group's arms are written into the
# qualitative coordinates of its own share of the GP candidates, and the
# Thompson draw picks the numeric values for exactly those arms.
