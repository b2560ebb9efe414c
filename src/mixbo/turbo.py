"""Single trust region maintenance and quasirandom candidate generation.

The optimizer keeps one axis-aligned hyperrectangle inside the warped
unit cube, centered at the incumbent. The region doubles its base side
length after a run of improving batches and halves it after a run of
failing ones; when the length falls below a floor the region is
considered exhausted and the caller restarts it elsewhere. Candidate
points are drawn from a scrambled Sobol sequence inside the region, with
per-dimension sides weighted by the fitted Matern lengthscales, and are
sparsified so that each candidate differs from the center only in a
random subset of coordinates. The floor and the candidate count are the
only settings (:class:`TrustRegionConfig`); the region's other rules
are fixed. The initial length, its cap and the run of successes that
doubles it are TuRBO's; the run of failures that halves it and the
perturbation probability are worked out from the dimension and the
batch size.

The Sobol generator is self-contained. It walks the sequence in Gray
code order using direction numbers shipped with the package (data file
``data/sobol-direction-numbers-v1.txt``), supports up to 64 dimensions,
and scrambles by XORing a per-dimension random 32-bit digital shift onto
every point, which permutes each dyadic interval without breaking the
low-discrepancy structure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .space import SearchSpace, is_integer
from .surrogate import GpModel

_SOBOL_BITS = 32
_SOBOL_MAX_DIM = 64
_SOBOL_DATA = "sobol-direction-numbers-v1.txt"


class UnsupportedDimensionError(ValueError):
    """Requested Sobol dimension is outside the supported range."""


# TuRBO's geometry (Eriksson et al., 2019): the initial and maximum
# side lengths and the run of successes that doubles the length.
_LENGTH_INIT = 0.8
_LENGTH_MAX = 1.6
_SUCCESS_TOLERANCE = 3


@dataclass(frozen=True)
class TrustRegionConfig:
    """The two trust-region settings a caller may change.

    ``length_min`` is the floor below which the region restarts; it
    must lie in (0, 0.8), below the initial length. ``n_candidates``
    defaults to None, which means ``min(100 * D, 2048)``: at most 2048
    candidates, whose Thompson draws are always float64. The rest of
    the method is fixed: the region starts at length 0.8, doubles
    (up to 1.6) after 3 consecutive successes, halves after
    ``max(4, ceil(D / batch_size))`` consecutive failures, and perturbs
    each coordinate of a candidate with probability ``min(1, 20 / D)``.
    """

    length_min: float = 0.125
    n_candidates: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.length_min < _LENGTH_INIT):
            raise ValueError(f"length_min must lie in (0, {_LENGTH_INIT}), got {self.length_min!r}")
        if self.n_candidates is not None and (
            not is_integer(self.n_candidates) or self.n_candidates < 1
        ):
            raise ValueError("n_candidates must be an integer of at least 1")


@dataclass(frozen=True)
class TrustRegionState:
    """Adaptation state. success_count and failure_count are never both positive.

    The defaults are the fresh state: no center, the initial length, no
    runs and no incumbent.
    """

    center: np.ndarray | None = None
    length: float = _LENGTH_INIT
    success_count: int = 0
    failure_count: int = 0
    best_value: float = math.inf
    restarts: int = 0


def new_state() -> TrustRegionState:
    """Fresh state with no center and no incumbent."""
    return TrustRegionState()


def restarted(state: TrustRegionState, center: np.ndarray | None) -> TrustRegionState:
    """Reset geometry and incumbent at a new center, bumping the restart count."""
    return TrustRegionState(
        center=None if center is None else np.asarray(center, dtype=float).copy(),
        restarts=state.restarts + 1,
    )


def update_region(
    state: TrustRegionState,
    batch_best_value: float,
    batch_best_point: np.ndarray,
    batch_size: int,
) -> TrustRegionState:
    """Advance the state by one observed batch of ``batch_size`` points.

    A batch is a success when its best value improves on the incumbent
    by more than a relative margin of ``1e-3 * |incumbent|``. A success
    recenters the region on the new incumbent and zeroes the failure
    run; 3 consecutive successes double the length (capped at 1.6). A
    failure zeroes the success run; ``max(4, ceil(D / batch_size))``
    consecutive failures halve the length, where D is the length of
    ``batch_best_point``. The length may fall below ``length_min``,
    which :func:`needs_restart` reports.

    Returns the updated state; the input state is not modified.
    """
    if math.isfinite(state.best_value):
        margin = 1e-3 * abs(state.best_value)
        improved = batch_best_value < state.best_value - margin
    else:
        improved = math.isfinite(batch_best_value)
    if improved:
        successes = state.success_count + 1
        state = replace(
            state,
            center=np.asarray(batch_best_point, dtype=float).copy(),
            best_value=float(batch_best_value),
            success_count=successes,
            failure_count=0,
        )
        if successes >= _SUCCESS_TOLERANCE:
            state = replace(
                state,
                length=min(2.0 * state.length, _LENGTH_MAX),
                success_count=0,
            )
    else:
        failures = state.failure_count + 1
        state = replace(state, failure_count=failures, success_count=0)
        if failures >= max(4, math.ceil(len(batch_best_point) / batch_size)):
            state = replace(state, length=state.length / 2.0, failure_count=0)
    return state


def needs_restart(state: TrustRegionState, config: TrustRegionConfig) -> bool:
    """True when the region has shrunk past its minimum length."""
    return state.length < config.length_min


def region_bounds(
    state: TrustRegionState, lengthscales: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounds of the region, clipped to the unit cube.

    Side i is ``state.length * lengthscales[i] / geometric_mean(lengthscales)``
    clipped to at most 1, so better-fitting (shorter) lengthscales narrow
    their dimensions while the region volume stays roughly controlled by
    ``state.length``. With no lengthscales every side is ``state.length``.
    """
    if state.center is None:
        raise ValueError("region has no center yet")
    center = np.asarray(state.center, dtype=float)
    d = center.shape[0]
    ls = np.ones(d) if lengthscales is None else np.asarray(lengthscales, dtype=float)
    if ls.shape != (d,):
        raise ValueError(f"expected {d} lengthscales, got shape {ls.shape}")
    weights = ls / math.exp(float(np.mean(np.log(ls))))
    side = np.minimum(state.length * weights, 1.0)
    lo = np.clip(center - side / 2.0, 0.0, 1.0)
    hi = np.clip(center + side / 2.0, 0.0, 1.0)
    return lo, hi


# ---------------------------------------------------------------------------
# Sobol sequence


def _parse_direction_table(text: str) -> list[tuple[int, int, list[int]]]:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [int(tok) for tok in line.split()]
        dim, s, a = parts[0], parts[1], parts[2]
        m = parts[3:]
        if len(m) != s:
            raise ValueError(f"direction table row for dimension {dim} is malformed")
        rows.append((dim, a, m))
    return rows


@functools.cache
def _load_direction_vectors() -> np.ndarray:
    """Direction vectors V with shape (64, 32), scaled to the top bits."""
    text = resources.files("mixbo.data").joinpath(_SOBOL_DATA).read_text()
    table = _parse_direction_table(text)
    V = np.zeros((_SOBOL_MAX_DIM, _SOBOL_BITS), dtype=np.uint64)
    # First dimension: van der Corput in base 2.
    for k in range(_SOBOL_BITS):
        V[0, k] = np.uint64(1) << np.uint64(_SOBOL_BITS - 1 - k)
    expected = 2
    for dim, a, m in table:
        if dim != expected:
            raise ValueError("direction table rows must cover dimensions 2..64 in order")
        expected += 1
        s = len(m)
        row = np.zeros(_SOBOL_BITS, dtype=np.uint64)
        for k in range(min(s, _SOBOL_BITS)):
            row[k] = np.uint64(m[k]) << np.uint64(_SOBOL_BITS - 1 - k)
        for k in range(s, _SOBOL_BITS):
            prev = row[k - s]
            val = prev ^ (prev >> np.uint64(s))
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    val ^= row[k - i]
            row[k] = val
        V[dim - 1] = row
    if expected != _SOBOL_MAX_DIM + 1:
        raise ValueError("direction table must define dimensions up to 64")
    return V


def sobol_points(n: int, dim: int, seed: int | None = None) -> np.ndarray:
    """First n points of a (optionally scrambled) Sobol sequence.

    Parameters
    ----------
    n : int
        Number of points, at least 1.
    dim : int
        Dimension, between 1 and 64.
    seed : int, optional
        None returns the unscrambled sequence (first point at the
        origin). An integer seed applies a reproducible digital-shift
        scramble: one 32-bit mask per dimension is XORed onto every
        point, which preserves the low-discrepancy structure.

    Returns
    -------
    ndarray, shape (n, dim)
        Points in [0, 1).

    Notes
    -----
    Points are generated in Gray code order: point i flips a single
    direction vector, chosen by the index of the lowest zero bit of i.
    This yields the standard sequence but permuted within each block of
    2^k consecutive points, which leaves all dyadic balance properties
    intact.
    """
    if not 1 <= dim <= _SOBOL_MAX_DIM:
        raise UnsupportedDimensionError(f"dim must be in [1, {_SOBOL_MAX_DIM}], got {dim}")
    if n < 1:
        raise ValueError("n must be at least 1")
    V = _load_direction_vectors()[:dim]
    out = np.zeros((n, dim), dtype=np.uint64)
    state = np.zeros(dim, dtype=np.uint64)
    for i in range(1, n):
        # Gray code flips the vector indexed by the count of trailing
        # zeros of i (equivalently the lowest zero bit of i - 1).
        c = (i & -i).bit_length() - 1
        state = state ^ V[:, c]
        out[i] = state
    if seed is not None:
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 1 << _SOBOL_BITS, size=dim, dtype=np.uint64)
        out ^= mask
    return out.astype(np.float64) / float(1 << _SOBOL_BITS)


def generate_candidates(
    state: TrustRegionState,
    model: GpModel | None,
    space: SearchSpace,
    rng: np.random.Generator,
    config: TrustRegionConfig,
) -> np.ndarray:
    """Scrambled Sobol candidates inside the trust region.

    The region sides are weighted by the model's fitted Matern
    lengthscales (dimensions outside the x-block, which have no
    lengthscale, get weight 1). Each candidate keeps the center's value
    in every coordinate except a random subset: coordinates are
    perturbed independently with probability ``min(1, 20 / D)``, and
    every candidate perturbs at least one coordinate.

    Parameters
    ----------
    state : TrustRegionState
        Must have a center.
    model : GpModel or None
        None means unit lengthscales everywhere.
    space : SearchSpace
    rng : numpy Generator
        Supplies the scramble seed and the perturbation mask.
    config : TrustRegionConfig
        Its ``n_candidates``, or ``min(100 * D, 2048)`` when None, is
        the number of candidates: at most 2048 by default, so that the
        Thompson draw over them is an exact float64 factorization.

    Returns
    -------
    ndarray, shape (n_candidates, D)
        Points inside the region, hence inside the unit cube.
    """
    d = space.dim
    ls_full = np.ones(d)
    if model is not None and model.blocks.x.size:
        ls_full[model.blocks.x] = model.params.lengthscales
    lo, hi = region_bounds(state, ls_full)
    n = config.n_candidates if config.n_candidates is not None else min(100 * d, 2048)
    scramble_seed = int(rng.integers(0, 2**31))
    pts = sobol_points(n, d, seed=scramble_seed)
    cand = lo + pts * (hi - lo)
    mask = rng.random((n, d)) < min(1.0, 20.0 / d)
    none_on = ~mask.any(axis=1)
    if np.any(none_on):
        forced = rng.integers(0, d, size=int(none_on.sum()))
        mask[np.nonzero(none_on)[0], forced] = True
    center = np.asarray(state.center, dtype=float)
    return np.where(mask, cand, center)
