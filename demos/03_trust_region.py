"""
Trust-region bookkeeping and Sobol candidates
=============================================

The optimizer samples candidates only inside a hyper-rectangle around
the incumbent. The rectangle doubles after a streak of improving
batches, halves after a streak of stalls, and a restart is signalled
once it shrinks below a floor. The floor and the candidate count are
the only settings; the rest is fixed or follows the problem's size.
"""

import math

import numpy as np

from mixbo import (
    TrustRegionConfig,
    generate_candidates,
    needs_restart,
    new_state,
    region_bounds,
    sobol_points,
    update_region,
)

# A 6-dimensional problem evaluated in batches of 2. The region starts
# at length 0.8, doubles (up to 1.6) after 3 successes, and halves after
# max(4, ceil(D / batch)) failures: the failure tolerance scales with D/batch.
dim, batch = 6, 2
cfg = TrustRegionConfig()
failure_tolerance = max(4, math.ceil(dim / batch))
state = new_state()
print("initial length:", state.length, " floor:", cfg.length_min)
print("failures per halving:", failure_tolerance)

center = np.full(dim, 0.5)

# Three improving batches in a row double the region.
for value in (5.0, 4.0, 3.0):
    state = update_region(state, value, center, batch)
print("after 3 successes, length =", state.length)

# Stalls shrink it. Watch the region walk down to the restart floor.
while not needs_restart(state, cfg):
    for _ in range(failure_tolerance):
        state = update_region(state, 99.0, center, batch)
    print("  halved to", state.length, " restart needed:", needs_restart(state, cfg))

# The rectangle is anisotropic: each side is scaled by the fitted GP
# lengthscale of that dimension (normalized to geometric mean 1), so
# sensitive dimensions get a narrower span.
state = new_state()
state = update_region(state, 1.0, center, batch)
ls = np.array([0.1, 0.4, 0.4, 0.4, 0.4, 6.0])
lo, hi = region_bounds(state, ls)
print("side lengths:", np.round(hi - lo, 3))

# Candidates come from a scrambled Sobol sequence stretched over the
# region; a perturbation mask keeps most coordinates pinned to the
# center in high dimension. The first unscrambled points show the
# usual balanced binary pattern.
print("unscrambled sobol, d=2:")
print(sobol_points(8, 2))

from mixbo import ParamSpec, SearchSpace

space = SearchSpace([ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(dim)])
rng = np.random.default_rng(7)
# n_candidates=None draws min(100 D, 2048) candidates: at most 2048,
# whose Thompson draws are always float64
cands = generate_candidates(state, None, space, rng, cfg)
lo, hi = region_bounds(state)  # unit lengthscales without a model
inside = np.all((cands >= lo - 1e-12) & (cands <= hi + 1e-12), axis=1)
print("candidates:", cands.shape, " all inside region:", bool(inside.all()))
