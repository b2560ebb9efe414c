"""Gaussian-process surrogate with a mixture kernel for mixed variables.

The kernel treats the three blocks of a warped vector differently. With
x the real block, y the integer block, and z the qualitative block, the
covariance between two warped vectors h and h' is

    k(h, h') = (1 - lam) * (k_M(x, x') + k_L(y, y') + k_I(z, z'))
               + lam * k_M(x, x') * k_L(y, y') * k_I(z, z')

where k_M is a Matern covariance with smoothness 5/2 and per-dimension
lengthscales, k_L is the linear covariance y.y',
and k_I averages per-dimension indicator matches. An absent block drops
out of the sum and contributes a factor of 1 to the product, so a purely
continuous space reduces to the plain Matern kernel. The mixing weight
lam is a kernel hyperparameter on a small grid. Every vectorized Gram,
training, cross, and prior, is composed by one function from the block
Grams that are present; the scalar kernels stay as the reference.

Targets are standardized internally before fitting. Hyperparameters are
chosen by maximizing the log marginal likelihood with a deterministic
coordinate search whose fixed starts race, as in successive halving
(Jamieson & Talwalkar, AISTATS 2016): every start runs one coordinate
sweep, and only the leader, the start with the highest evidence, runs
the rest. A hard budget of likelihood evaluations limits the starts
that race to those that leave the leader's remaining sweeps whole, so
fits are reproducible and their cost is bounded. Every
training Gram of a fit, searched or final, comes from one builder and
is factored in its buffer by LAPACK ``potrf``. The builder keeps the
pieces of its last Gram and rebuilds only those a probe changed: only a
lengthscale probe recomputes the scaled distances and the Matern
factors, a signal-variance probe rescales the Matern Gram and
recomposes, a lam probe only recomposes, and a noise probe copies the
noiseless Gram and adds the noise to its diagonal. Each Gram has the
bits of a build from scratch.

Large matrices are built and factored in place. A Gram is filled into
one preallocated output a row tile at a time, each tile holding about
``_TILE_ELEMENTS`` entries (8 MB of float64), so every temporary is
tile-sized, and the Gram has the bits a whole-matrix assembly gives.
The per-point inputs of the block Grams are prepared once per Gram, and
a tile takes row slices of them: the x-block divided by the lengthscales
with its squared row norms, the y-block, and the z-block coded as small
unsigned integers, equal codes for values that compare equal, so the
indicator counts compare codes, not floats. Within a tile, the matrix
products run on the whole tile and the elementwise work (the Matern
transform, the indicator counts and the composition) on pieces of whole
rows of about ``_PIECE_ELEMENTS`` entries (512 KB), which stay in cache.

Every matrix the module factors holds its values in its C-order upper
triangle. That triangle is the lower triangle of the Fortran-ordered
transpose, which LAPACK ``potrf`` overwrites with the lower Cholesky
factor in place; a failed attempt refills the matrix and retries with
diagonal jitter. Every square triangle outside the fit comes from one
builder: each row tile of the prior Gram is built, and the explained
part ``w.T @ w`` subtracted, from the diagonal of the tile's first row
rightwards, and everything below the diagonal is zero, so the factor
needs no cleanup. The posterior covariance of a Thompson draw exists
only as that triangle. A public square Gram is the same triangle with
an empty ``w``, mirrored, so it is exactly symmetric.

A draw is always float64: the triangle is factored by ``dpotrf``, and
a draw over q candidates holds one q x q float64 matrix plus a few
tiles. At the default candidate count, ``min(100 D, 2048)``, that is at
most 2048 candidates and 32 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotrs

from .space import Blocks, SearchSpace

SQRT5 = math.sqrt(5.0)

#: Floor applied to the target standard deviation before standardizing.
STD_FLOOR = 1e-8

#: The first search start of every fit; the variances are also
#: ``KernelParams``' defaults.
DEFAULT_LENGTHSCALE = 0.5
DEFAULT_SIGNAL_VARIANCE = 1.0
DEFAULT_NOISE_VARIANCE = 1e-3

#: Entries of one work tile (8 MB of float64); large matrices are built,
#: updated and factored in place one tile at a time.
_TILE_ELEMENTS = 1 << 20

#: Row tiles start at multiples of this, a multiple of the row unroll of
#: the GEMM kernels of common BLAS builds.
_ROW_ALIGN = 192

#: Entries of one elementwise piece (512 KB of float64): inside a row
#: tile, the kernel transforms and the composition run one block of
#: whole rows of about this size at a time, so their passes stay in cache.
_PIECE_ELEMENTS = 1 << 16


class NumericalError(RuntimeError):
    """The kernel matrix stayed non positive definite after jitter escalation."""


@dataclass(frozen=True)
class KernelParams:
    """Hyperparameters of the mixture kernel.

    The Matern smoothness is not among them: the kernel is Matern 5/2.

    Parameters
    ----------
    lengthscales : ndarray
        One positive Matern lengthscale per x-block dimension (warped units).
    signal_variance : float
        Matern output variance, positive.
    lam : float
        Mixing weight between the sum and product composition, in [0, 1].
    noise_variance : float
        Observation noise added to the Gram diagonal, at least 1e-8.
    """

    lengthscales: np.ndarray
    signal_variance: float = DEFAULT_SIGNAL_VARIANCE
    lam: float = 0.5
    noise_variance: float = DEFAULT_NOISE_VARIANCE

    def __post_init__(self) -> None:
        ls = np.atleast_1d(np.asarray(self.lengthscales, dtype=float))
        object.__setattr__(self, "lengthscales", ls)
        if ls.size and not np.all(ls > 0):
            raise ValueError("lengthscales must be positive")
        if not self.signal_variance > 0:
            raise ValueError("signal_variance must be positive")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not self.noise_variance >= 1e-8:
            raise ValueError("noise_variance must be at least 1e-8")


# ---------------------------------------------------------------------------
# kernel primitives


def matern52(x: np.ndarray, x2: np.ndarray, lengthscales: np.ndarray, signal_variance: float = 1.0) -> float:
    """Matern covariance with smoothness 5/2 between two real vectors.

    Uses the closed form
    ``s * (1 + sqrt(5) d + 5 d^2 / 3) * exp(-sqrt(5) d)`` with
    ``d`` the lengthscale-weighted Euclidean distance.

    Parameters
    ----------
    x, x2 : ndarray
        Vectors of equal length.
    lengthscales : ndarray or float
        Positive lengthscale per dimension (broadcast if scalar).
    signal_variance : float
        Output variance s.

    Returns
    -------
    float
        Covariance value in (0, signal_variance], equal to
        signal_variance when x == x2.
    """
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    d = math.sqrt(float(np.sum(((x - x2) / lengthscales) ** 2)))
    return signal_variance * (1.0 + SQRT5 * d + 5.0 * d * d / 3.0) * math.exp(-SQRT5 * d)


def linear_kernel(y: np.ndarray, y2: np.ndarray) -> float:
    """Linear covariance <y, y2>. Empty inputs give 0."""
    y = np.asarray(y, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    return float(np.dot(y, y2))


def indicator_kernel(z: np.ndarray, z2: np.ndarray) -> float:
    """Fraction of the dimensions of two qualitative blocks with equal values.

    Empty blocks count as a perfect match.
    """
    z = np.asarray(z)
    z2 = np.asarray(z2)
    if z.size == 0:
        return 1.0
    return float(np.mean(z == z2))


def mixture_kernel(h: np.ndarray, h2: np.ndarray, params: KernelParams, blocks: Blocks) -> float:
    """Mixture covariance between two warped vectors.

    The sum part adds the kernels of the blocks that are present; the
    product part multiplies them, with absent blocks contributing a
    factor of 1. With only an x-block present the result reduces to the
    plain Matern covariance for every value of ``params.lam``. This is
    the scalar reference that :func:`mixture_gram` vectorizes.

    Parameters
    ----------
    h, h2 : ndarray
        Full warped vectors (all blocks interleaved).
    params : KernelParams
        Hyperparameters; ``lengthscales`` must match the x-block size.
    blocks : Blocks
        Index arrays selecting each block out of h.

    Returns
    -------
    float
    """
    h = np.asarray(h, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    terms = []
    prod = 1.0
    if blocks.x.size:
        km = matern52(h[blocks.x], h2[blocks.x], params.lengthscales, params.signal_variance)
        terms.append(km)
        prod *= km
    if blocks.y.size:
        kl = linear_kernel(h[blocks.y], h2[blocks.y])
        terms.append(kl)
        prod *= kl
    if blocks.z.size:
        ki = indicator_kernel(h[blocks.z], h2[blocks.z])
        terms.append(ki)
        prod *= ki
    return (1.0 - params.lam) * sum(terms) + params.lam * prod


# ---------------------------------------------------------------------------
# vectorized grams


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of a and b.

    Uses the expansion ``|a|^2 + |b|^2 - 2 a.b``, clipped at 0 against
    rounding, so the cost is one matrix product.
    """
    return _sqdist(a, np.sum(a**2, axis=1), b, np.sum(b**2, axis=1))


def _sqdist(a: np.ndarray, aa: np.ndarray, b: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """:func:`sqdist` of a and b, given their squared row norms aa and bb."""
    d2 = aa[:, None] + bb[None, :]
    d2 -= 2.0 * a @ b.T
    return np.maximum(d2, 0.0, out=d2)


def _row_tiles(n: int, width: int):
    """Yield row slices of an n x width matrix, each about one tile.

    A product's rows come out of BLAS with the same bits in a row tile
    as in the whole matrix only if the tile's rows meet the same GEMM
    micro-kernel: tiles start at multiples of ``_ROW_ALIGN`` rows, and
    no tile has a single row unless n is 1, because numpy multiplies a
    one-row matrix by GEMV, which rounds differently from GEMM.
    """
    step = max(_ROW_ALIGN, _TILE_ELEMENTS // max(width, 1) // _ROW_ALIGN * _ROW_ALIGN)
    start = 0
    while start < n:
        stop = min(start + step, n)
        if n - stop == 1:
            stop = n
        yield slice(start, stop)
        start = stop


def _matern_factors(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two lengthscale-only factors of the Matern 5/2 Gram; d2 is overwritten.

    Returns ``(sqrt(5) d + 1) + 5/3 d2`` and ``exp(-sqrt(5) d)`` for the
    squared scaled distances d2. The Gram is ``s * poly * expo``, with s
    multiplying the polynomial before the exponential factor does, as
    :func:`_matern` computes it.
    """
    d = np.sqrt(d2)
    poly = d * SQRT5
    poly += 1.0
    d2 *= 5.0 / 3.0
    poly += d2
    d *= -SQRT5
    return poly, np.exp(d, out=d)


def _matern(poly: np.ndarray, expo: np.ndarray, signal_variance: float, out: np.ndarray) -> np.ndarray:
    """Write the Matern 5/2 Gram ``(signal_variance * poly) * expo`` to out."""
    np.multiply(poly, signal_variance, out=out)
    out *= expo
    return out


def _codes(Z: np.ndarray) -> np.ndarray:
    """Small integer codes of the values of Z, column by column, as an F-ordered array.

    Two entries of a column share a code exactly when they compare equal
    as floats: -0.0 and 0.0 share one, and every NaN has its own. All
    columns take the smallest unsigned type that holds the largest count
    of distinct values, and each column is contiguous.
    """
    coded = [np.unique(col, return_inverse=True, equal_nan=False) for col in Z.T]
    dtype = np.min_scalar_type(max(len(values) for values, _ in coded))
    return np.array([codes for _, codes in coded], dtype=dtype).T


class _Inputs(NamedTuple):
    """The per-row inputs of the block Grams of a set of points; None for an absent block.

    ``x`` is the x-block divided by the lengthscales, C-contiguous, and
    ``xx`` its squared row norms; ``y`` is the y-block, C-contiguous; and
    ``z`` holds the z-block's codes (see :func:`_codes`).
    """

    x: np.ndarray | None
    xx: np.ndarray | None
    y: np.ndarray | None
    z: np.ndarray | None

    def rows(self, rows: slice) -> _Inputs:
        return _Inputs(*(None if v is None else v[rows] for v in self))


def _block_inputs(A: np.ndarray, B: np.ndarray, params: KernelParams, blocks: Blocks) -> tuple[_Inputs, _Inputs]:
    """The block inputs of the rows of A and of B, coded together.

    Each is built once for a whole Gram, and its tiles take row slices.
    The features are C-contiguous whatever the order of A and B, and a
    row's squared norm adds its squares one dimension at a time, so the
    Gram has the same bits for C- and F-ordered points. B's inputs are a
    second buffer even where B is A: a NaN then matches no entry, itself
    included, and no product multiplies a buffer by its own transpose,
    which numpy computes with ``syrk`` instead of ``gemm``.
    """

    def stacked(block: np.ndarray) -> np.ndarray:
        return np.vstack([A[:, block], B[:, block]])

    x = xx = y = z = None
    if blocks.x.size:
        xf = np.asfortranarray(stacked(blocks.x) / params.lengthscales)
        # an F-ordered sum adds a row's squares one dimension at a time
        xx = np.sum(xf**2, axis=1)
        x = np.ascontiguousarray(xf)
    if blocks.y.size:
        y = np.ascontiguousarray(stacked(blocks.y))
    if blocks.z.size:
        z = _codes(stacked(blocks.z))
    both = _Inputs(x, xx, y, z)
    n = A.shape[0]
    return both.rows(slice(0, n)), both.rows(slice(n, None))


def _indicator_gram(za: np.ndarray, zb: np.ndarray) -> np.ndarray:
    """Fraction of matching qualitative dimensions of two sets of codes, one dimension at a time.

    Each dimension compares two contiguous columns of codes into one
    reused boolean buffer, whose bytes are added to the counts; the
    counts are exact in the smallest unsigned integer type that holds
    the dimension count.
    """
    dz = za.shape[1]
    counts = np.zeros((za.shape[0], zb.shape[0]), dtype=np.min_scalar_type(dz))
    eq = np.empty(counts.shape, dtype=bool)
    for k in range(dz):
        np.equal(za[:, k, None], zb[:, k], out=eq)
        counts += eq.view(np.uint8)
    return np.divide(counts, dz, dtype=float)


def _compose(grams, lam: float, out: np.ndarray) -> np.ndarray:
    """``(1 - lam) * sum + lam * product`` of the block Grams that are present.

    The result is written to ``out``. Sum and product start from the
    first two Grams, as ``0 + g`` and ``1 * g`` are exact. The Grams
    themselves are never modified.
    """
    if not grams:
        raise ValueError("cannot evaluate a kernel over zero dimensions")
    first, rest = grams[0], grams[1:]
    if rest:
        np.add(first, rest[0], out=out)
        prod = np.multiply(first, rest[0])
        rest = rest[1:]
    else:
        np.copyto(out, first)
        prod = first.copy()
    for g in rest:
        out += g
        prod *= g
    out *= 1.0 - lam
    prod *= lam
    out += prod
    return out


def _gram_tile(a: _Inputs, b: _Inputs, params: KernelParams, out: np.ndarray) -> None:
    """Write the mixture Gram of the points of a against the points of b to out.

    a and b are block inputs (see :func:`_block_inputs`), a the rows of
    the tile. The matrix products (the Matern distances and the linear
    Gram) are made for the whole tile, so each entry has the bits of a
    whole-matrix product. The Matern transform, the indicator counts and
    the composition then run on blocks of whole rows of about
    ``_PIECE_ELEMENTS`` entries, with the operations of a whole-matrix
    assembly in the same order. A piece spans every column of its tile,
    on a diagonal tile too: the entries below the diagonal are computed
    and then discarded.
    """
    d2 = lin = None
    if a.x is not None:
        d2 = _sqdist(a.x, a.xx, b.x, b.xx)
    if a.y is not None:
        lin = a.y @ b.y.T
    step = max(1, _PIECE_ELEMENTS // max(out.shape[1], 1))
    for start in range(0, out.shape[0], step):
        piece = slice(start, start + step)
        grams = []
        if d2 is not None:
            poly, expo = _matern_factors(d2[piece])
            grams.append(_matern(poly, expo, params.signal_variance, poly))
        if lin is not None:
            grams.append(lin[piece])
        if a.z is not None:
            grams.append(_indicator_gram(a.z[piece], b.z))
        _compose(grams, params.lam, out[piece])


def _upper_gram(Q: np.ndarray, params: KernelParams, blocks: Blocks, w: np.ndarray) -> np.ndarray:
    """Upper triangle of ``k(Q, Q) - w.T @ w``, zero below the diagonal.

    The block inputs of Q are built once, for the rows and for the
    columns. Each row tile gets the prior Gram from its first row's
    diagonal rightwards, built in the output, and ``w.T @ w`` of the same
    entries is subtracted in place; the entries a diagonal tile computed
    below the diagonal are then zeroed. A ``w`` with no rows subtracts
    exact zeros, which leaves the prior Gram's triangle.
    """
    q = Q.shape[0]
    a, b = _block_inputs(Q, Q, params, blocks)
    out = np.zeros((q, q))
    for rows in _row_tiles(q, q):
        cols = slice(rows.start, q)
        tile = out[rows, cols]
        _gram_tile(a.rows(rows), b.rows(cols), params, tile)
        tile -= w[:, rows].T @ w[:, cols]
        block = tile[:, : rows.stop - rows.start]
        block[np.tri(block.shape[0], k=-1, dtype=bool)] = 0.0
    return out


def mixture_gram(
    inputs: np.ndarray,
    inputs2: np.ndarray | None,
    params: KernelParams,
    blocks: Blocks,
) -> np.ndarray:
    """Mixture covariance matrix between two sets of warped vectors.

    Equivalent to evaluating :func:`mixture_kernel` on every pair, but
    assembled blockwise in vector form, one row tile of the output at a
    time, so temporaries stay tile-sized. Pass ``inputs2=None`` for the
    square Gram of one set: its upper triangle is built as a posterior
    triangle with nothing explained and mirrored, so the result is
    exactly symmetric.

    Parameters
    ----------
    inputs : ndarray, shape (n, D)
    inputs2 : ndarray, shape (m, D), optional
    params : KernelParams
    blocks : Blocks

    Returns
    -------
    ndarray, shape (n, m)

    Raises
    ------
    ValueError
        If ``blocks`` selects no dimension at all.
    """
    A = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs2 is None:
        out = _upper_gram(A, params, blocks, np.zeros((0, A.shape[0])))
        # exact: the strict lower triangle is zero
        out += np.triu(out, 1).T
        return out
    B = np.atleast_2d(np.asarray(inputs2, dtype=float))
    a, b = _block_inputs(A, B, params, blocks)
    out = np.empty((A.shape[0], B.shape[0]))
    for rows in _row_tiles(*out.shape):
        _gram_tile(a.rows(rows), b, params, out[rows])
    return out


# ---------------------------------------------------------------------------
# model fitting


@dataclass(frozen=True, eq=False)
class GpModel:
    """A fitted surrogate, frozen after construction.

    Stores the training design in warped coordinates, the standardized
    Cholesky factorization, and everything needed to evaluate posterior
    quantities. ``target_mean`` and ``target_std`` undo the internal
    standardization. ``evaluations`` counts the likelihood evaluations
    of the hyperparameter search, not the final factorization. ``_chol``
    is the lower Cholesky factor of the training Gram in Fortran order,
    exactly zero above the diagonal.
    """

    inputs: np.ndarray
    blocks: Blocks
    params: KernelParams
    log_likelihood: float
    target_mean: float
    target_std: float
    jitter: float
    evaluations: int
    _chol: np.ndarray
    _alpha: np.ndarray

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


def _cholesky(fill, first: float, retries: int) -> tuple[np.ndarray | None, float]:
    """Lower Cholesky factor of the matrix ``fill()`` returns, in place, with jitter if needed.

    ``fill()`` returns a C-contiguous float64 square matrix m whose upper
    triangle holds the symmetric matrix. LAPACK ``dpotrf`` factors the
    Fortran-ordered view ``m.T``, whose lower triangle that is, in place.
    An attempt fails unless ``dpotrf`` reports success and the factor's
    diagonal is positive (a NaN pivot passes the first test). Each failure
    drops m and calls ``fill()`` again, adding ``first``, ``10 * first``,
    ... to the diagonal, ``retries`` times in all. Returns ``m.T``, whose
    strict upper triangle is m's untouched strict lower, and the jitter it
    took; or None and the last jitter tried.
    """
    jitter = 0.0
    for k in range(retries + 1):
        m = fill()
        if k:
            jitter = first if k == 1 else 10.0 * jitter
            m[np.diag_indices_from(m)] += jitter
        c, info = dpotrf(m.T, lower=1, clean=0, overwrite_a=1)
        if info == 0 and (c.diagonal() > 0).all():
            return c, jitter
        del m, c  # before the next fill allocates its matrix
    return None, jitter


#: Coordinate sweeps of a fit: every start races through the first and
#: the leader alone runs the rest. Likelihood evaluations per fit; the
#: cap limits the starts that race on the largest spaces (D = 64).
_FIT_SWEEPS = 2
_MAX_FIT_EVALS = 2000

#: Search boxes of the fit in warped units, searched on a log scale. The
#: lengthscale and signal boxes are TuRBO's (Eriksson et al., NeurIPS 2019).
_LENGTHSCALE_BOUNDS = (5e-3, 2.0)
_SIGNAL_BOUNDS = (0.05, 20.0)
_NOISE_BOUNDS = (1e-6, 1e-2)

#: Admissible mixing weights lam.
_LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Search starts as (lengthscale, signal variance, noise variance), in
#: race order; the first is the default, so a fit is never below it.
_FIT_STARTS = (
    (DEFAULT_LENGTHSCALE, DEFAULT_SIGNAL_VARIANCE, DEFAULT_NOISE_VARIANCE),
    (0.15, 2.0, 1e-4),
    (1.0, 0.5, 1e-3),
    (0.05, 5.0, 1e-2),
)


def _training_gram(X: np.ndarray, blocks: Blocks):
    """Return ``gram(theta, lam)``, which writes the noisy training Gram of X.

    ``theta`` holds the log lengthscales, log signal variance and log
    noise variance. Every call fills and returns the same n x n buffer.
    The x-block's per-dimension squared differences and the linear and
    indicator Grams are computed once; each is the same for (i, j) as
    for (j, i), so every Gram is exactly symmetric.

    A call rebuilds only the pieces whose inputs differ from the last
    call's: the two lengthscale-only Matern factors when a lengthscale
    changed, the Matern Gram when they or the signal variance changed,
    and the noiseless composed Gram when the Matern Gram or lam changed.
    So a probe of the signal variance recomposes without the distances
    or the exponential, a probe of lam only recomposes, and a probe of
    the noise only copies the noiseless Gram into the returned buffer
    and adds the noise to its diagonal. A piece is rebuilt with the
    operations of a full build, so every Gram has the same bits whatever
    came before it. The returned buffer is none of the kept pieces, so
    ``potrf`` may overwrite it.
    """
    n = X.shape[0]
    dx = blocks.x.size
    Xx = X[:, blocks.x]
    diff2 = ((Xx[:, None, :] - Xx[None, :, :]) ** 2).reshape(n * n, dx) if dx else None
    fixed = []
    if blocks.y.size:
        Y = X[:, blocks.y]
        fixed.append(Y @ Y.T)
    if blocks.z.size:
        # the inputs are finite, so a code matches itself as the value does
        Z = _codes(X[:, blocks.z])
        fixed.append(_indicator_gram(Z, Z))
    matern = np.empty((n, n)) if dx else None
    noiseless = np.empty((n, n))
    work = np.empty((n, n))
    diag = work.reshape(-1)[:: n + 1]
    poly = expo = last_ls = last_sv = last_lam = None

    def gram(theta: np.ndarray, lam: float) -> np.ndarray:
        nonlocal poly, expo, last_ls, last_sv, last_lam
        if dx:
            # bytes are a copy: the search moves one trial array in place
            # between probes
            if theta[:dx].tobytes() != last_ls:
                # the product np.tensordot makes, without its wrapper
                w = (1.0 / np.exp(theta[:dx]) ** 2).reshape(dx, 1)
                poly, expo = _matern_factors(np.dot(diff2, w).reshape(n, n))
                last_ls, last_sv = theta[:dx].tobytes(), None
            if theta[dx] != last_sv:
                _matern(poly, expo, math.exp(theta[dx]), matern)
                last_sv, last_lam = float(theta[dx]), None
        if lam != last_lam:
            _compose([matern, *fixed] if dx else fixed, lam, noiseless)
            last_lam = lam
        np.copyto(work, noiseless)
        np.add(diag, math.exp(theta[dx + 1]), out=diag)
        return work

    return gram


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 9


def _golden_section(fun, lo: float, hi: float):
    """Deterministic golden-section maximization on [lo, hi].

    Probes both ends, two inner points and ``_GOLDEN_STEPS`` more, and
    returns the best probed (argument, value) pair.
    """
    pts = [(lo, fun(lo)), (hi, fun(hi))]
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    pts += [(c, fc), (d, fd)]
    for _ in range(_GOLDEN_STEPS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
            pts.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
            pts.append((d, fd))
    return max(pts, key=lambda t: t[1])


def gp_fit(
    inputs: np.ndarray,
    targets: np.ndarray,
    space: SearchSpace,
    blocks: Blocks | None = None,
) -> GpModel:
    """Fit the surrogate to warped observations.

    Parameters
    ----------
    inputs : ndarray, shape (n, D)
        Warped training design, n >= 2.
    targets : ndarray, shape (n,)
        Finite objective values.
    space : SearchSpace
        Provides the dimension and the default block structure.
    blocks : Blocks, optional
        Override for the block partition. Passing ``Blocks.all_real(D)``
        treats every dimension as continuous.

    Returns
    -------
    GpModel

    Notes
    -----
    Targets are standardized to zero mean and unit variance (std floored
    at 1e-8) before fitting, scaled by a power of two so that they stay
    finite up to the float64 limit. Hyperparameters maximize the log
    marginal likelihood by sweeps of coordinate-wise golden-section
    refinement of the log lengthscales, the log signal variance (with
    an x-block) and the log noise variance, each sweep followed by a
    scan of the four mixing weights in 0, 0.25, ..., 1 other than the
    one the sweep started with. Four fixed starts race: each runs one
    sweep, and the leader, the start with the highest log evidence
    (the first on ties), runs the second sweep alone, on the path a
    fit from that start alone takes. A sweep makes
    ``P = 13 c + 4`` evaluations over c coordinates (``13 c`` without
    a discrete block), so an uncapped fit makes ``4 (1 + P) + P``.
    Each probe rebuilds only the parts of the training Gram it changed:
    signal-variance probes and the lam scan reuse the lengthscale-only
    Matern factors, and noise probes reuse the whole noiseless Gram.
    Lengthscales lie in [0.005, 2], the signal variance in [0.05, 20]
    and the noise variance in [1e-6, 1e-2]. The search is
    deterministic and makes at most 2000 likelihood evaluations, which
    ``GpModel.evaluations`` counts: only ``(2000 - P) // (1 + P)``
    starts race when that is fewer than four, at least one, so the
    leader's second sweep is whole unless one start's two sweeps
    exceed the cap (beyond D = 64), where the search stops at it. A
    probe that repeats an earlier (hyperparameters, lam) pair, as about
    one in a hundred do, is computed again and counts as one. The
    fitted likelihood is never below the likelihood at the default
    hyperparameters because the first start probes them and the leader
    is the best start. The final factorization escalates diagonal
    jitter from 1e-8 by factors of 10 up to 1e-2 before raising
    NumericalError; without jitter, the log likelihood is the evidence
    of the Gram the model holds.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float).ravel()
    n, d = X.shape
    if d != space.dim:
        raise ValueError(f"inputs have {d} columns but the space has {space.dim} dimensions")
    if y.shape[0] != n:
        raise ValueError("inputs and targets disagree on n")
    if n < 2:
        raise ValueError("need at least 2 observations to fit")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("inputs and targets must be finite")
    if blocks is None:
        blocks = space.blocks

    # scaling by a power of two is exact and keeps the squares finite
    e = int(np.frexp(np.max(np.abs(y)))[1])
    s = np.ldexp(y, -e)
    mean_s = np.mean(s)
    mean = float(np.ldexp(mean_s, e))
    std = max(float(np.ldexp(np.std(s), e)), STD_FLOOR)
    ys = (s - mean_s) / np.ldexp(std, -e)

    dx = int(blocks.x.size)
    gram = _training_gram(X, blocks)
    lam_relevant = bool(blocks.y.size or blocks.z.size)
    evals = 0

    def likelihood(theta: np.ndarray, lam: float) -> float:
        """Exact Gaussian log evidence; -inf when the factorization fails."""
        nonlocal evals
        if evals >= _MAX_FIT_EVALS:
            return -np.inf
        evals += 1
        c, _ = _cholesky(lambda: gram(theta, lam), 0.0, 0)
        if c is None:
            return -np.inf
        alpha, _ = dpotrs(c, ys, lower=1)
        return float(-0.5 * ys @ alpha - np.log(c.diagonal()).sum() - 0.5 * n * math.log(2.0 * math.pi))

    # theta = (log lengthscales, log signal variance, log noise variance);
    # the signal variance scales only the Matern Gram
    box = [_LENGTHSCALE_BOUNDS] * dx + [_SIGNAL_BOUNDS, _NOISE_BOUNDS]
    bounds = np.array([(math.log(lo), math.log(hi)) for lo, hi in box])
    coords = range(dx + 2) if dx else [dx + 1]

    def sweep(theta: np.ndarray, lam: float, ll: float) -> tuple[np.ndarray, float, float]:
        """One golden section per coordinate, then the lam scan; ll only rises."""
        for k in coords:
            trial = theta.copy()

            def along(v: float) -> float:
                trial[k] = v
                return likelihood(trial, lam)

            arg, val = _golden_section(along, *bounds[k])
            if val > ll:
                theta[k], ll = arg, val
        if lam_relevant:
            scanned = lam
            for g in _LAMBDA_GRID:
                if g == scanned:  # its likelihood is at most ll already
                    continue
                val = likelihood(theta, g)
                if val > ll:
                    lam, ll = g, val
        return theta, lam, ll

    # A sweep makes one golden section per coordinate and 4 evaluations
    # in the lam scan. Every start that races gets one sweep; as many
    # race as leave the leader's remaining sweeps whole under the cap.
    per_sweep = (4 + _GOLDEN_STEPS) * len(coords) + 4 * lam_relevant
    rest = (_FIT_SWEEPS - 1) * per_sweep
    racers = max(1, min(len(_FIT_STARTS), (_MAX_FIT_EVALS - rest) // (1 + per_sweep)))
    raced = []
    for ls0, sv0, nv0 in _FIT_STARTS[:racers]:
        log_start = [math.log(ls0)] * dx + [math.log(sv0), math.log(nv0)]
        theta = np.clip(log_start, bounds[:, 0], bounds[:, 1])
        lam = 0.5 if lam_relevant else 0.0
        raced.append(sweep(theta, lam, likelihood(theta, lam)))
    # the leader has the highest evidence, the first start on ties
    theta, lam, ll_best = max(raced, key=lambda run: run[2])
    for _ in range(_FIT_SWEEPS - 1):
        theta, lam, ll_best = sweep(theta, lam, ll_best)

    params = KernelParams(
        lengthscales=np.exp(theta[:dx]),
        signal_variance=math.exp(theta[dx]),
        lam=lam,
        noise_variance=math.exp(theta[dx + 1]),
    )

    # Final factorization at the selected hyperparameters, escalating
    # jitter only if the noise floor alone is not enough.
    chol, jitter = _cholesky(lambda: np.triu(gram(theta, lam)), 1e-8, 7)
    if chol is None:
        raise NumericalError("kernel matrix is not positive definite even with jitter 1e-2")
    alpha, _ = dpotrs(chol, ys, lower=1)
    return GpModel(
        inputs=X,
        blocks=blocks,
        params=params,
        log_likelihood=ll_best if math.isfinite(ll_best) else -np.inf,
        target_mean=mean,
        target_std=std,
        jitter=jitter,
        evaluations=evals,
        _chol=chol,
        _alpha=alpha,
    )


# ---------------------------------------------------------------------------
# posterior evaluation


def _check_queries(model: GpModel, queries: np.ndarray) -> np.ndarray:
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    if Q.shape[1] != model.inputs.shape[1]:
        raise ValueError(
            f"queries have {Q.shape[1]} columns, model expects {model.inputs.shape[1]}"
        )
    if not np.all(np.isfinite(Q)):
        raise ValueError("query points must be finite")
    return Q


def _cross(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked queries Q, the standardized posterior mean, and ``w = L^-1 k(X, Q)``.

    The posterior covariance is ``k(Q, Q) - w.T @ w``, whose upper
    triangle :func:`_upper_gram` builds.
    """
    Q = _check_queries(model, queries)
    ks = mixture_gram(model.inputs, Q, model.params, model.blocks)
    mean = ks.T @ model._alpha
    w = solve_triangular(model._chol, ks, lower=True, check_finite=False)
    return Q, mean, w


def _eigen_root(cov: np.ndarray) -> np.ndarray:
    """A root r with ``r @ r.T`` the matrix in cov's upper triangle, eigenvalues clipped at zero."""
    vals, vecs = np.linalg.eigh(cov, UPLO="U")
    vecs *= np.sqrt(np.clip(vals, 0.0, None))
    return vecs


def gp_posterior(model: GpModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean vector and covariance matrix of the latent function.

    Parameters
    ----------
    model : GpModel
    queries : ndarray, shape (q, D)
        Warped query points.

    Returns
    -------
    mean : ndarray, shape (q,)
    cov : ndarray, shape (q, q)
        Symmetric positive semidefinite (eigenvalues clipped at zero),
        in target units. Observation noise is not added.
    """
    Q, mean, w = _cross(model, queries)
    root = _eigen_root(_upper_gram(Q, model.params, model.blocks, w))
    # numpy forms a product with its own transpose by syrk, exactly symmetric
    cov = root @ root.T
    cov *= model.target_std**2
    return model.target_mean + model.target_std * mean, cov


def gp_mean(model: GpModel, queries: np.ndarray) -> np.ndarray:
    """Posterior mean only, skipping all covariance work."""
    ks = mixture_gram(model.inputs, _check_queries(model, queries), model.params, model.blocks)
    return model.target_mean + model.target_std * (ks.T @ model._alpha)


def gp_sample(
    model: GpModel,
    queries: np.ndarray,
    rng: np.random.Generator,
    count: int = 1,
) -> np.ndarray:
    """Joint posterior draws over a set of query points.

    Parameters
    ----------
    model : GpModel
    queries : ndarray, shape (q, D)
    rng : numpy Generator
        Consumed; identical rng state gives identical draws.
    count : int
        Number of joint draws.

    Returns
    -------
    ndarray, shape (count, q)
        Draws in target units.

    Notes
    -----
    Only the upper triangle of the posterior covariance is assembled, in
    one q x q buffer, a row tile at a time: each tile's matrix products
    run whole, and its elementwise kernel work in cache-sized pieces of
    whole rows. The candidates' block inputs (scaled features, their
    norms, and integer codes of the qualitative values) are prepared once
    per fill, not per tile. The covariance root is its Cholesky factor,
    computed in place by LAPACK ``dpotrf`` from that triangle.

    Draws are always float64. The default candidate count,
    ``min(100 D, 2048)``, keeps the buffer at most 2048 x 2048 (32 MB);
    a caller who sets more candidates gets the same exact draw at a
    cost that grows as q**2 in memory and q**3 in time. The cross
    covariances and their solve against the training factor are made
    once per draw. If the factorization fails, the triangle is rebuilt
    and jitter added to its diagonal, from 1e-10 by factors of 10 up to
    1e-5; past that, the root is an eigendecomposition of one more
    rebuild with clipped eigenvalues, so rank-deficient covariances
    (duplicate or fully explained points) are handled without error.
    Memory is one q x q float64 matrix plus tiles of about 8 MB each,
    and ``O(n q)`` for the cross covariances with the n training points;
    only the eigendecomposition fallback allocates more. Identical rng
    state gives identical draws on one BLAS build.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    Q, mean, w = _cross(model, queries)

    def fill() -> np.ndarray:
        return _upper_gram(Q, model.params, model.blocks, w)

    root, _ = _cholesky(fill, 1e-10, 6)
    if root is None:
        root = _eigen_root(fill())
    z = rng.standard_normal((mean.shape[0], count))
    draws = mean[:, None] + root @ z
    return model.target_mean + model.target_std * draws.T
