"""Thompson-sampling bandits for qualitative variables.

Each boolean or categorical parameter gets its own bandit with one arm
per admissible value. Arm quality is tracked by a Beta distribution,
initialized to the uniform Beta(1, 1). Selection draws one sample per
arm and plays the argmax, so exploration falls out of posterior
uncertainty rather than an explicit schedule. After a batch is
evaluated, the arms chosen for a point are credited with a success when
that point improved on the global best, and with a failure otherwise.

Arm k of a parameter is its value ``choices[k]``: a boolean's
``(False, True)`` or a categorical's labels in declaration order, whose
warped coordinate is k/(K-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .space import SearchSpace


@dataclass(eq=False)
class BanditState:
    """Beta posteriors per qualitative variable.

    ``alpha[name][k]`` and ``beta[name][k]`` hold the success and
    failure counts (plus the unit prior) of arm k for variable name.
    Only the owning optimizer mutates a state.
    """

    names: tuple[str, ...]
    alpha: dict[str, np.ndarray]
    beta: dict[str, np.ndarray]

    @classmethod
    def from_space(cls, space: SearchSpace) -> "BanditState":
        names = tuple(p.name for p in space.qualitative_params)
        alpha = {p.name: np.ones(p.n_arms) for p in space.qualitative_params}
        beta = {p.name: np.ones(p.n_arms) for p in space.qualitative_params}
        return cls(names=names, alpha=alpha, beta=beta)


def ts_select(state: BanditState, rng: np.random.Generator) -> dict[str, int]:
    """Pick one arm per variable by Thompson sampling.

    Draws an independent Beta sample for every arm and returns the
    argmax per variable (lowest index on exact ties). Consumes the rng.
    """
    choice = {}
    for name in state.names:
        theta = rng.beta(state.alpha[name], state.beta[name])
        choice[name] = int(np.argmax(theta))
    return choice


def update_rewards(
    state: BanditState,
    chosen_arms: list[dict[str, int]],
    new_best_flags: list[bool],
) -> BanditState:
    """Credit the arms played by a batch of evaluated points.

    Parameters
    ----------
    state : BanditState
        Mutated in place and returned.
    chosen_arms : list of dict
        One map per point, covering every tracked variable with an arm
        index in range.
    new_best_flags : list of bool
        Same length; True marks points that improved the global best.

    Returns
    -------
    BanditState
        The same object, with alpha bumped on improving points and beta
        bumped on the rest. A batch that fails validation changes
        nothing.
    """
    if len(chosen_arms) != len(new_best_flags):
        raise ValueError("chosen_arms and new_best_flags disagree on length")
    for arms in chosen_arms:
        for name in state.names:
            if name not in arms:
                raise ValueError(f"no arm recorded for variable {name!r}")
            k = arms[name]
            if not 0 <= k < state.alpha[name].shape[0]:
                raise ValueError(f"arm {k} out of range for variable {name!r}")
    for arms, flag in zip(chosen_arms, new_best_flags):
        counts = state.alpha if flag else state.beta
        for name in state.names:
            counts[name][arms[name]] += 1.0
    return state


def overwrite_qualitative(
    candidates: np.ndarray,
    selections: list[dict[str, int]],
    space: SearchSpace,
) -> np.ndarray:
    """Force bandit-selected arms onto a batch of warped points.

    Parameters
    ----------
    candidates : ndarray, shape (B, D)
        Warped batch; not modified.
    selections : list of dict, length B
        Arm index per qualitative variable per point. Every qualitative
        variable of the space must be present in every map.
    space : SearchSpace

    Returns
    -------
    ndarray, shape (B, D)
        Copy with each qualitative coordinate replaced by the warped
        value of the selected arm. Spaces without qualitative variables
        come back unchanged.
    """
    quals = space.qualitative_params
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    if not quals:
        return cand
    if len(selections) != cand.shape[0]:
        raise ValueError("need exactly one selection map per candidate")
    out = cand.copy()
    for row, sel in enumerate(selections):
        for p in quals:
            if p.name not in sel:
                raise ValueError(f"selection for point {row} is missing variable {p.name!r}")
            k = sel[p.name]
            if not 0 <= k < p.n_arms:
                raise ValueError(f"arm {k} out of range for variable {p.name!r}")
            out[row, space.index(p.name)] = k / (p.n_arms - 1)
    return out
