"""Tests for the mixture kernel and the Gaussian process surrogate.

Scalar kernel reference values were computed independently from the
closed-form expression at 40 decimal digits and are frozen here.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mixbo import surrogate
from mixbo.space import Blocks, ParamSpec, SearchSpace
from mixbo.surrogate import (
    KernelParams,
    gp_fit,
    gp_mean,
    gp_posterior,
    gp_sample,
    indicator_kernel,
    linear_kernel,
    matern52,
    mixture_gram,
    mixture_kernel,
)


def mixed_space():
    return SearchSpace(
        [
            ParamSpec("a", "real", lo=0.0, hi=1.0),
            ParamSpec("b", "real", lo=0.0, hi=1.0),
            ParamSpec("n", "integer", lo=0, hi=6),
            ParamSpec("c", "categorical", categories=("p", "q", "r")),
            ParamSpec("f", "boolean"),
        ]
    )


# --- scalar kernels ---------------------------------------------------


def test_matern_matches_high_precision_reference():
    # reference values: sv (1 + sqrt(5) d + 5 d^2 / 3) exp(-sqrt(5) d)
    # evaluated with 40-digit arithmetic
    cases = [
        ((0.0,), (1.0,), (1.0,), 1.0, 0.52399410883182031059),
        ((0.2,), (0.9,), (0.35,), 2.5, 0.34665054784626061059),
        (
            (0.1, 0.4, 0.8),
            (0.3, 0.3, 0.5),
            (0.5, 0.25, 1.5),
            0.7,
            0.53829517647613251853,
        ),
    ]
    for x, x2, ls, sv, want in cases:
        got = matern52(np.array(x), np.array(x2), np.array(ls), sv)
        assert got == pytest.approx(want, abs=1e-15)


def test_matern_at_zero_distance_is_signal_variance():
    x = np.array([0.3, 0.7])
    ls = np.array([0.2, 0.9])
    assert matern52(x, x, ls, 3.25) == pytest.approx(3.25, abs=0.0)


def test_matern_is_symmetric_and_decreasing():
    ls = np.array([0.5])
    vals = [matern52(np.array([0.0]), np.array([d]), ls, 1.0) for d in (0.1, 0.4, 0.9)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert matern52(np.array([0.1]), np.array([0.6]), ls, 1.0) == pytest.approx(
        matern52(np.array([0.6]), np.array([0.1]), ls, 1.0), abs=0.0
    )


def test_linear_kernel_is_a_dot_product():
    y = np.array([0.5, 1.0])
    y2 = np.array([0.2, 0.4])
    assert linear_kernel(y, y2) == pytest.approx(0.5, abs=1e-15)


def test_indicator_kernel_counts_matching_dims():
    z = np.array([0.0, 0.5, 1.0])
    z2 = np.array([0.0, 0.5, 0.0])
    assert indicator_kernel(z, z2) == pytest.approx(2.0 / 3.0, abs=1e-15)


# --- mixture combination ---------------------------------------------


def sample_inputs(rng, space, n):
    return space.snap(rng.random((n, space.dim)))


def test_mixture_edges_reduce_to_sum_and_product():
    space = mixed_space()
    bl = space.blocks
    rng = np.random.default_rng(11)
    H = sample_inputs(rng, space, 12)
    ls = np.array([0.4, 0.8])
    for i in range(0, 12, 3):
        h1, h2 = H[i], H[(i + 5) % 12]
        km = matern52(h1[bl.x], h2[bl.x], ls, 2.0)
        kl = linear_kernel(h1[bl.y], h2[bl.y])
        ki = indicator_kernel(h1[bl.z], h2[bl.z])
        p0 = KernelParams(lengthscales=ls, signal_variance=2.0, lam=0.0)
        p1 = KernelParams(lengthscales=ls, signal_variance=2.0, lam=1.0)
        ph = KernelParams(lengthscales=ls, signal_variance=2.0, lam=0.3)
        assert mixture_kernel(h1, h2, p0, bl) == pytest.approx(km + kl + ki, abs=0.0)
        assert mixture_kernel(h1, h2, p1, bl) == pytest.approx(km * kl * ki, abs=0.0)
        assert mixture_kernel(h1, h2, ph, bl) == pytest.approx(
            0.7 * (km + kl + ki) + 0.3 * (km * kl * ki), rel=1e-15
        )


def test_mixture_on_pure_continuous_space_is_matern():
    bl = Blocks.all_real(3)
    rng = np.random.default_rng(5)
    h1, h2 = rng.random(3), rng.random(3)
    p = KernelParams(lengthscales=np.array([0.3, 0.5, 0.7]), signal_variance=1.7, lam=0.6)
    km = matern52(h1, h2, p.lengthscales, 1.7)
    assert mixture_kernel(h1, h2, p, bl) == pytest.approx(km, abs=0.0)


def test_missing_block_drops_from_sum_and_product():
    # integers and categoricals, no reals
    space = SearchSpace(
        [
            ParamSpec("n", "integer", lo=0, hi=5),
            ParamSpec("c", "categorical", categories=("u", "v")),
        ]
    )
    bl = space.blocks
    h1 = np.array([0.2, 0.0])
    h2 = np.array([0.4, 0.0])
    kl = linear_kernel(h1[:1], h2[:1])
    ki = 1.0
    p = KernelParams(lengthscales=np.array([]), signal_variance=1.0, lam=0.25)
    assert mixture_kernel(h1, h2, p, bl) == pytest.approx(0.75 * (kl + ki) + 0.25 * kl * ki, abs=0.0)


BLOCK_PARAMS = {
    "x": [ParamSpec("a", "real", lo=0.0, hi=1.0), ParamSpec("b", "real", lo=-2.0, hi=3.0)],
    "y": [ParamSpec("n", "integer", lo=0, hi=6), ParamSpec("k", "integer", lo=-3, hi=9)],
    "z": [ParamSpec("c", "categorical", categories=("p", "q", "r")), ParamSpec("f", "boolean")],
}


@pytest.mark.parametrize("present", ["x", "y", "z", "xy", "yz", "xz", "xyz"])
@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_gram_matches_scalar_kernel_for_every_block_combination(present, lam, monkeypatch):
    space = SearchSpace([p for key in present for p in BLOCK_PARAMS[key]])
    bl = space.blocks
    rng = np.random.default_rng(17)
    H = sample_inputs(rng, space, 9)
    Q = sample_inputs(rng, space, 6)
    p = KernelParams(lengthscales=rng.uniform(0.1, 1.5, size=bl.x.size), signal_variance=1.7, lam=lam)
    square = np.array([[mixture_kernel(a, b, p, bl) for b in H] for a in H])
    cross = np.array([[mixture_kernel(a, b, p, bl) for b in Q] for a in H])
    np.testing.assert_allclose(mixture_gram(H, None, p, bl), square, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(mixture_gram(H, Q, p, bl), cross, rtol=0.0, atol=1e-12)
    # row tiles of 2 to 6 rows, some with a last tile that absorbs a lone row
    for tile in (2, 4, 6):
        monkeypatch.setattr(surrogate, "_TILE_ROWS", tile)
        np.testing.assert_allclose(mixture_gram(H, None, p, bl), square, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(mixture_gram(H, Q, p, bl), cross, rtol=0.0, atol=1e-12)


def test_row_tiles_cover_every_row_without_lone_rows(monkeypatch):
    monkeypatch.setattr(surrogate, "_TILE_ROWS", 4)
    cases = {
        1: [(0, 1)],
        3: [(0, 3)],
        4: [(0, 4)],
        5: [(0, 5)],
        6: [(0, 4), (4, 6)],
        8: [(0, 4), (4, 8)],
        9: [(0, 4), (4, 9)],
        10: [(0, 4), (4, 8), (8, 10)],
    }
    for n, want in cases.items():
        assert [(t.start, t.stop) for t in surrogate._row_tiles(n)] == want


def test_gram_over_zero_dimensions_is_an_error():
    empty = np.array([], dtype=np.intp)
    none = Blocks(x=empty, y=empty, z=empty)
    p = KernelParams(lengthscales=np.ones(0))
    with pytest.raises(ValueError, match="zero dimensions"):
        mixture_gram(np.zeros((3, 2)), None, p, none)
    space = SearchSpace([ParamSpec("a", "real", lo=0.0, hi=1.0), ParamSpec("b", "real", lo=0.0, hi=1.0)])
    with pytest.raises(ValueError, match="zero dimensions"):
        gp_fit(np.random.default_rng(0).random((4, 2)), np.arange(4.0), space, blocks=none)


def test_random_grams_are_positive_semidefinite():
    space = mixed_space()
    bl = space.blocks
    rng = np.random.default_rng(2)
    H = sample_inputs(rng, space, 60)
    for _ in range(8):
        p = KernelParams(
            lengthscales=rng.uniform(0.05, 2.0, size=2),
            signal_variance=float(rng.uniform(0.1, 5.0)),
            lam=float(rng.uniform(0.0, 1.0)),
        )
        G = np.array([[mixture_kernel(H[i], H[j], p, bl) for j in range(60)] for i in range(60)])
        w = np.linalg.eigvalsh(G + 1e-8 * np.eye(60))
        assert w.min() >= -1e-10


# --- kernel parameter validation --------------------------------------


def test_kernel_params_validation():
    ls = np.array([0.5])
    with pytest.raises(ValueError):
        KernelParams(lengthscales=ls, signal_variance=0.0)
    with pytest.raises(ValueError):
        KernelParams(lengthscales=ls, signal_variance=1.0, lam=1.5)
    with pytest.raises(ValueError):
        KernelParams(lengthscales=ls, signal_variance=1.0, noise_variance=0.0)
    with pytest.raises(ValueError):
        KernelParams(lengthscales=np.array([-0.1]), signal_variance=1.0)


# --- GP fit and posterior ---------------------------------------------


def test_posterior_matches_dense_solve_oracle():
    space = mixed_space()
    rng = np.random.default_rng(7)
    for n in (2, 3, 6):
        X = sample_inputs(rng, space, n)
        y = rng.standard_normal(n)
        model = gp_fit(X, y, space)
        Q = sample_inputs(rng, space, 5)
        mu, cov = gp_posterior(model, Q)

        p = model.params
        bl = space.blocks
        K = np.array(
            [[mixture_kernel(X[i], X[j], p, bl) for j in range(n)] for i in range(n)]
        )
        K[np.diag_indices(n)] += p.noise_variance + model.jitter
        ys = (y - model.target_mean) / model.target_std
        Ks = np.array(
            [[mixture_kernel(Q[i], X[j], p, bl) for j in range(n)] for i in range(5)]
        )
        Kss = np.array(
            [[mixture_kernel(Q[i], Q[j], p, bl) for j in range(5)] for i in range(5)]
        )
        mu_o = Ks @ np.linalg.solve(K, ys) * model.target_std + model.target_mean
        cov_o = (Kss - Ks @ np.linalg.solve(K, Ks.T)) * model.target_std**2
        np.testing.assert_allclose(mu, mu_o, atol=1e-10, rtol=0.0)
        np.testing.assert_allclose(cov, cov_o, atol=1e-10, rtol=0.0)
    # queries that repeat the training points and each other make the
    # covariance rank deficient: it stays exactly symmetric, and positive
    # semidefinite up to rounding
    _, cov = gp_posterior(model, np.vstack([X, Q, X, Q[:3]]))
    assert np.array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * cov.diagonal().max()


def test_posterior_covariance_clips_negative_eigenvalues(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(9)
    model = gp_fit(sample_inputs(rng, space, 8), rng.standard_normal(8), space)
    # an upper triangle with a clearly negative eigenvalue, which the root clips
    q = 6
    vecs = np.linalg.qr(rng.standard_normal((q, q)))[0]
    vals = np.array([-0.5, 1e-3, 0.2, 0.7, 1.0, 2.0])
    indefinite = (vecs * vals) @ vecs.T
    monkeypatch.setattr(surrogate, "_upper_gram", lambda *a: np.triu(indefinite))
    _, cov = gp_posterior(model, sample_inputs(rng, space, q))
    assert np.array_equal(cov, cov.T)
    scale = cov.diagonal().max()
    assert np.linalg.eigvalsh(cov).min() >= -1e-12 * scale
    clipped = (vecs * np.clip(vals, 0.0, None)) @ vecs.T * model.target_std**2
    np.testing.assert_allclose(cov, clipped, rtol=0.0, atol=1e-12 * scale)


def test_noise_free_interpolation_on_smooth_curve():
    space = SearchSpace([ParamSpec("x", "real", lo=0.0, hi=1.0)])
    X = np.linspace(0.02, 0.98, 8).reshape(-1, 1)
    y = np.sin(3.0 * X[:, 0])
    model = gp_fit(X, y, space)
    mu, _ = gp_posterior(model, X)
    assert np.abs(mu - y).max() < 1e-3


def test_fit_never_does_worse_than_default_parameters(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(19)
    X = sample_inputs(rng, space, 14)
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 2] + (X[:, 3] > 0.4)
    model = gp_fit(X, y, space)
    assert model.evaluations <= surrogate._MAX_FIT_EVALS
    # the search evaluates the default start first and keeps the best
    # point seen, so a truncated budget can never beat the full one
    monkeypatch.setattr(surrogate, "_MAX_FIT_EVALS", 10)
    stub = gp_fit(X, y, space)
    assert stub.evaluations == 10
    assert model.log_likelihood >= stub.log_likelihood - 1e-9


def sweep_evaluations(space):
    """Likelihood evaluations of one coordinate sweep of a fit on space."""
    blocks = space.blocks
    coords = blocks.x.size + 2 if blocks.x.size else 1
    return 13 * coords + 4 * bool(blocks.y.size or blocks.z.size)


def same_model(a, b):
    return (
        np.array_equal(a.params.lengthscales, b.params.lengthscales)
        and (a.params.signal_variance, a.params.lam, a.params.noise_variance)
        == (b.params.signal_variance, b.params.lam, b.params.noise_variance)
        and np.array_equal(a._chol, b._chol)
        and np.array_equal(a._alpha, b._alpha)
        and a.log_likelihood == b.log_likelihood
    )


def test_fit_races_every_start_for_one_sweep(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(19)
    X = sample_inputs(rng, space, 14)
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 2] + (X[:, 3] > 0.4)
    P = sweep_evaluations(space)
    assert gp_fit(X, y, space).evaluations == 4 * (1 + P) + P
    assert len(surrogate._FIT_STARTS) == 4
    # a cap with room for two racers and the leader's second sweep: two
    # race, and the fit is the uncapped fit over the first two starts
    monkeypatch.setattr(surrogate, "_FIT_STARTS", surrogate._FIT_STARTS[:2])
    pair = gp_fit(X, y, space)
    monkeypatch.undo()
    for cap in (2 * (1 + P) + P, 3 * (1 + P) + P - 1):
        monkeypatch.setattr(surrogate, "_MAX_FIT_EVALS", cap)
        capped = gp_fit(X, y, space)
        assert capped.evaluations == pair.evaluations == 2 * (1 + P) + P
        assert same_model(capped, pair)


def test_raced_fit_is_the_leaders_single_start_fit(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(19)
    X = sample_inputs(rng, space, 14)
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 2] + (X[:, 3] > 0.4)
    raced = gp_fit(X, y, space)
    starts = surrogate._FIT_STARTS

    def alone(start, sweeps):
        monkeypatch.setattr(surrogate, "_FIT_STARTS", (start,))
        monkeypatch.setattr(surrogate, "_FIT_SWEEPS", sweeps)
        model = gp_fit(X, y, space)
        monkeypatch.undo()
        return model

    # the leader has the highest evidence after one sweep, the first on
    # ties; here it is not the default start
    first = [alone(start, 1).log_likelihood for start in starts]
    leader = first.index(max(first))
    assert leader != 0
    assert same_model(raced, alone(starts[leader], 2))
    # the second sweep only rises, so the race beats every start's first
    # sweep, the default's included
    assert raced.log_likelihood >= max(first)


def probe_log(monkeypatch, fail_below=0.0):
    """Record every training Gram the fit builds as (theta bytes, lam).

    Grams whose noise variance is below ``fail_below`` come back all NaN,
    so their factorization fails.
    """
    build = surrogate._training_gram
    probes = []

    def logged(X, blocks):
        gram = build(X, blocks)

        def probe(theta, lam):
            probes.append((theta.tobytes(), lam))
            out = gram(theta, lam)
            if math.exp(theta[-1]) < fail_below:
                out.fill(np.nan)
            return out

        return probe

    monkeypatch.setattr(surrogate, "_training_gram", logged)
    return probes


def test_fit_builds_one_gram_per_evaluation(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(3)
    X = sample_inputs(rng, space, 40)
    y = np.sin(6 * X[:, 0]) + 0.3 * X[:, 2] + 0.2 * X[:, 3]
    probes = probe_log(monkeypatch)
    model = gp_fit(X, y, space)
    # the final factorization rebuilds the Gram of a probed point
    assert model.jitter == 0.0
    final = probes.pop()
    assert final in probes
    # the search repeats some probes, and a repeat is computed again
    assert len(set(probes)) < len(probes) == model.evaluations


def test_fit_steps_around_failed_factorizations(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(19)
    X = sample_inputs(rng, space, 14)
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 2] + (X[:, 3] > 0.4)
    assert gp_fit(X, y, space).params.noise_variance < 1e-4
    probe_log(monkeypatch, fail_below=1e-4)
    model = gp_fit(X, y, space)
    # a failed probe has likelihood -inf, so the search keeps to the
    # noise variances that factor
    assert model.params.noise_variance >= 1e-4 and model.jitter == 0.0
    assert math.isfinite(model.log_likelihood)
    assert np.isfinite(model._chol).all() and np.isfinite(model._alpha).all()


def test_fit_raises_when_every_factorization_fails(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(19)
    X = sample_inputs(rng, space, 14)
    y = np.sin(4 * X[:, 0]) + 0.5 * X[:, 2] + (X[:, 3] > 0.4)
    probes = probe_log(monkeypatch, fail_below=np.inf)
    with pytest.raises(surrogate.NumericalError):
        gp_fit(X, y, space)
    # every start ties at -inf, so the first leads and no probe moves it;
    # the final factorization tries it 8 times (no jitter, then 1e-8 up
    # to 1e-2) after the uncapped search
    P = sweep_evaluations(space)
    assert len(probes) == 4 * (1 + P) + P + 8
    assert probes[-8:] == probes[:1] * 8


@pytest.mark.parametrize("present", ["x", "xy", "xz", "xyz", "z"])
def test_fitted_log_likelihood_is_the_evidence_of_the_model_gram(present):
    space = SearchSpace([p for key in present for p in BLOCK_PARAMS[key]])
    rng = np.random.default_rng(41)
    n = 15
    X = sample_inputs(rng, space, n)
    y = np.sin(3.0 * X.sum(axis=1)) + 0.1 * rng.standard_normal(n)
    model = gp_fit(X, y, space)
    assert model.jitter == 0.0
    p = model.params
    K = mixture_gram(X, None, p, space.blocks) + p.noise_variance * np.eye(n)
    ys = (y - model.target_mean) / model.target_std
    sign, logdet = np.linalg.slogdet(K)
    assert sign == 1.0
    ll = -0.5 * ys @ np.linalg.solve(K, ys) - 0.5 * logdet - 0.5 * n * np.log(2.0 * np.pi)
    assert model.log_likelihood == pytest.approx(ll, rel=1e-9, abs=0.0)
    # the fit factors the upper triangle of its Gram, which is the whole
    # Gram only if it is exactly symmetric
    theta = np.log([*p.lengthscales, p.signal_variance, p.noise_variance])
    G = surrogate._training_gram(X, space.blocks)(theta, p.lam)
    assert np.array_equal(G, G.T)


@pytest.mark.parametrize("present", ["x", "xy", "xz", "xyz", "z"])
def test_training_gram_reuse_gives_the_bits_of_a_fresh_build(present):
    space = SearchSpace([p for key in present for p in BLOCK_PARAMS[key]])
    rng = np.random.default_rng(43)
    X = sample_inputs(rng, space, 13)
    dx = space.blocks.x.size
    gram = surrogate._training_gram(X, space.blocks)
    first = np.log([*[0.4] * dx, 1.5, 1e-3])

    def probe(theta, lam):
        got = gram(theta, lam)
        assert np.array_equal(got, surrogate._training_gram(X, space.blocks)(theta.copy(), lam))
        got.fill(np.nan)  # as potrf overwrites it

    theta = first.copy()
    probe(theta, 0.5)
    theta[dx + 1] = np.log(3e-4)  # noise only
    probe(theta, 0.5)
    theta[dx] = np.log(0.7)  # signal only
    probe(theta, 0.5)
    probe(theta, 0.25)  # lam only
    # one lengthscale (the noise without an x-block), then the same array
    # moved in place, as the search moves its trial array between probes
    k = 0 if dx else dx + 1
    theta[k] = np.log(0.09)
    probe(theta, 0.25)
    theta[k] += 0.6
    probe(theta, 0.25)
    probe(first, 0.5)  # back to the first point


def test_targets_at_the_float64_limit_give_a_finite_model():
    space = mixed_space()
    rng = np.random.default_rng(5)
    X = sample_inputs(rng, space, 16)
    model = gp_fit(X, np.array([1e308, -1e308] * 8), space)
    assert np.all(np.isfinite([model.target_mean, model.target_std, model.log_likelihood]))
    assert np.all(np.isfinite(model._alpha))
    assert np.all(np.isfinite(gp_mean(model, np.vstack([X, sample_inputs(rng, space, 8)]))))


def test_fitted_parameters_respect_bounds():
    space = mixed_space()
    rng = np.random.default_rng(23)
    X = sample_inputs(rng, space, 16)
    y = rng.standard_normal(16)
    model = gp_fit(X, y, space)
    p = model.params
    lo, hi = surrogate._LENGTHSCALE_BOUNDS
    assert np.all(p.lengthscales >= lo) and np.all(p.lengthscales <= hi)
    assert surrogate._SIGNAL_BOUNDS[0] <= p.signal_variance <= surrogate._SIGNAL_BOUNDS[1]
    assert surrogate._NOISE_BOUNDS[0] <= p.noise_variance <= surrogate._NOISE_BOUNDS[1]
    assert p.lam in surrogate._LAMBDA_GRID


def test_lambda_fixed_to_zero_without_discrete_blocks():
    space = SearchSpace(
        [ParamSpec("x", "real", lo=0.0, hi=1.0), ParamSpec("y", "real", lo=0.0, hi=1.0)]
    )
    rng = np.random.default_rng(3)
    X = rng.random((10, 2))
    y = X[:, 0] ** 2
    model = gp_fit(X, y, space)
    assert model.params.lam == 0.0


def test_constant_targets_do_not_crash_the_fit():
    space = SearchSpace([ParamSpec("x", "real", lo=0.0, hi=1.0)])
    X = np.linspace(0, 1, 6).reshape(-1, 1)
    y = np.full(6, 2.5)
    model = gp_fit(X, y, space)
    mu, _ = gp_posterior(model, np.array([[0.37]]))
    assert mu[0] == pytest.approx(2.5, abs=1e-6)


def test_gp_mean_agrees_with_posterior_mean():
    space = mixed_space()
    rng = np.random.default_rng(31)
    X = sample_inputs(rng, space, 12)
    y = rng.standard_normal(12)
    model = gp_fit(X, y, space)
    Q = sample_inputs(rng, space, 7)
    mu, _ = gp_posterior(model, Q)
    np.testing.assert_allclose(gp_mean(model, Q), mu, atol=1e-10, rtol=0.0)
    # both reject what the model cannot evaluate
    wide = np.hstack([Q, np.zeros((7, 1))])
    holed = Q.copy()
    holed[2, 0] = np.nan
    for bad in (wide, holed):
        for fn in (gp_mean, gp_posterior):
            with pytest.raises(ValueError):
                fn(model, bad)


def poison_lower_triangle(monkeypatch):
    """Make every Gram tile NaN below its own diagonal.

    A tile of a posterior triangle starts its columns at its first row's
    diagonal, so its corner below that diagonal lies in the lower
    triangle. A NaN that survives there was left unzeroed. Cross Grams
    have no such corner, so the poison is for triangles only.
    """
    tile = surrogate._gram_tile

    def poisoned(a, b, params, out):
        tile(a, b, params, out)
        m = min(out.shape)
        out[:, :m][np.tri(m, k=-1, dtype=bool)] = np.nan

    monkeypatch.setattr(surrogate, "_gram_tile", poisoned)


def set_tiles(monkeypatch, rows):
    if rows is not None:
        monkeypatch.setattr(surrogate, "_TILE_ROWS", rows)


def tiled_triangle(Q, params, blocks, w):
    """The posterior triangle made with the row tiles of the triangle builder.

    Each tile is a cross Gram of its rows against the columns from its
    first row's diagonal rightwards, the products of the triangle's own
    shapes: BLAS may round an entry of a product differently in products
    of other shapes.
    """
    q = Q.shape[0]
    want = np.zeros((q, q))
    for rows in surrogate._row_tiles(q):
        cols = slice(rows.start, q)
        want[rows, cols] = mixture_gram(Q[rows], Q[cols], params, blocks) - w[:, rows].T @ w[:, cols]
    return want


# (q, tile rows): one tile; 2-row tiles whose last absorbs a lone row;
# 4-row tiles, the last ending at q; 5-row tiles, the last of 4 rows
TILINGS = [
    pytest.param(23, None, id="23-None-None-None"),
    pytest.param(23, 2, id="23-2-16-1"),
    pytest.param(24, 4, id="24-2-96-1"),
    pytest.param(24, 5, id="24-2-96-40"),
]


@pytest.mark.parametrize("q,rows", TILINGS)
def test_raw_posterior_upper_triangle_is_prior_gram_minus_update(q, rows, monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(13)
    model = gp_fit(sample_inputs(rng, space, 10), rng.standard_normal(10), space)
    Q = sample_inputs(rng, space, q)
    _, ref = gp_posterior(model, Q)
    set_tiles(monkeypatch, rows)
    w = solve_triangular(model._chol, mixture_gram(model.inputs, Q, model.params, model.blocks), lower=True)
    want = tiled_triangle(Q, model.params, model.blocks, w)
    upper = np.triu_indices(q)
    if rows is None:
        # one tile: the whole prior Gram minus the whole update
        assert np.array_equal(want[upper], (mixture_gram(Q, Q, model.params, model.blocks) - w.T @ w)[upper])
    checked, _, w = surrogate._cross(model, Q)
    with monkeypatch.context() as poisoned:
        poison_lower_triangle(poisoned)
        cov = surrogate._upper_gram(checked, model.params, model.blocks, w)
    assert np.array_equal(cov[upper], want[upper])
    assert not np.any(np.tril(cov, -1))
    # the triangle gives the posterior covariance and finite draws
    _, got = gp_posterior(model, Q)
    assert np.array_equal(got, got.T)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-10)
    draws = gp_sample(model, Q, np.random.default_rng(3), count=2)
    assert np.all(np.isfinite(draws))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_real_only_gram_is_the_matern_gram_bit_for_bit(lam, monkeypatch):
    # without a discrete block a = 1 and c = 0, so no composition rounds
    bl = Blocks.all_real(3)
    rng = np.random.default_rng(9)
    H, Q = rng.random((14, 3)), rng.random((9, 3))
    p = KernelParams(lengthscales=np.array([0.3, 0.5, 0.7]), signal_variance=1.7, lam=lam)

    def matern(A, B):
        a, b = surrogate._block_inputs(A, B, p, bl)
        d2 = surrogate._sqdist(a.x, a.xx, b.x, b.xx)
        d = np.sqrt(d2)
        poly = (math.sqrt(5.0) * d + 1.0) + 5.0 / 3.0 * d2
        return (p.signal_variance * poly) * np.exp(-math.sqrt(5.0) * d)

    upper = np.triu_indices(14)
    for rows in (None, 2):
        set_tiles(monkeypatch, rows)
        # the reference's products have the shapes of the Gram's tiles
        square = np.vstack([matern(H[t], H) for t in surrogate._row_tiles(14)])
        cross = np.vstack([matern(H[t], Q) for t in surrogate._row_tiles(14)])
        assert np.array_equal(mixture_gram(H, Q, p, bl), cross)
        assert np.array_equal(mixture_gram(H, None, p, bl)[upper], square[upper])


@pytest.mark.parametrize("present", ["x", "xy", "xz", "xyz", "z"])
def test_discrete_part_composes_the_mixture(present):
    # k = k_M a + c with a Matern block, a + c without one, and k_M alone
    # without a discrete block, at every mixing weight of the fit
    space = SearchSpace([p for key in present for p in BLOCK_PARAMS[key]])
    bl = space.blocks
    rng = np.random.default_rng(29)
    H, Q = sample_inputs(rng, space, 8), sample_inputs(rng, space, 5)
    ls = rng.uniform(0.1, 1.5, size=bl.x.size)

    def block_gram(kernel, idx, *args):
        return np.array([[kernel(a[idx], b[idx], *args) for b in Q] for a in H])

    km = block_gram(matern52, bl.x, ls, 1.7) if bl.x.size else None
    for lam in surrogate._LAMBDA_GRID:
        p = KernelParams(lengthscales=ls, signal_variance=1.7, lam=lam)
        want = np.array([[mixture_kernel(a, b, p, bl) for b in Q] for a in H])
        discrete = surrogate._discrete_grams(*surrogate._block_inputs(H, Q, p, bl))
        if discrete is not None:
            a, c = surrogate._discrete_part(*discrete, lam, km is not None)
            got = a + c if km is None else km * a + c
        else:
            got = km
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(mixture_gram(H, Q, p, bl), want, rtol=0.0, atol=1e-12)


def test_a_column_that_holds_one_value_on_a_side_is_not_coded():
    empty = np.array([], dtype=np.intp)
    bl = Blocks(x=empty, y=empty, z=np.arange(3))
    p = KernelParams(lengthscales=np.ones(0))
    rng = np.random.default_rng(2)
    A = rng.choice([0.0, 0.5, 1.0], size=(30, 3))
    B = rng.choice([0.0, 0.5, 1.0], size=(20, 3))
    A[:, 1] = 0.5  # one value on A's side
    B[:, 0] = 1.0  # one value on B's side
    a, b = surrogate._block_inputs(A, B, p, bl)
    # only the column constant on the column side B is not coded: its
    # matches are one vector over A's rows; the column constant on A
    # alone is coded like the one that varies on both sides
    assert a.z.shape == (30, 2) and b.z.shape == (20, 2)
    assert np.array_equal(a.zc, A[:, 0] == 1.0)
    assert b.zc is None
    assert np.array_equal(mixture_gram(A, B, p, bl), float_indicator_gram(A, B, p.lam))
    # every column constant on the query side: nothing is coded, and the
    # indicator is one column against the queries
    B[:, 1:] = [0.5, 0.0]
    a, b = surrogate._block_inputs(A, B, p, bl)
    assert a.z is None and b.z is None and b.zc is None
    assert np.array_equal(a.zc, (A == B[0]).sum(axis=1))
    assert surrogate._indicator_gram(a, b).shape == (30, 1)
    assert np.array_equal(mixture_gram(A, B, p, bl), float_indicator_gram(A, B, p.lam))


@pytest.mark.parametrize("q,rows", TILINGS)
def test_posterior_triangle_over_one_qualitative_selection(q, rows, monkeypatch):
    # a bandit group's share: every qualitative column of the queries
    # holds the group's selection
    space = mixed_space()
    bl = space.blocks
    rng = np.random.default_rng(15)
    model = gp_fit(sample_inputs(rng, space, 12), rng.standard_normal(12), space)
    Q = sample_inputs(rng, space, q)
    Q[:, bl.z] = [0.5, 1.0]
    set_tiles(monkeypatch, rows)
    p = model.params
    ks = mixture_gram(model.inputs, Q, p, bl)
    w = solve_triangular(model._chol, ks, lower=True)
    want = tiled_triangle(Q, p, bl, w)
    with monkeypatch.context() as poisoned:
        poison_lower_triangle(poisoned)
        cov = surrogate._upper_gram(Q, p, bl, w)
    upper = np.triu_indices(q)
    assert np.array_equal(cov[upper], want[upper])
    assert not np.any(np.tril(cov, -1))
    # the scalar kernel, at lengthscales whose distances the expansion
    # |a|^2 + |b|^2 - 2 a.b leaves accurate to 1e-12
    p = KernelParams(lengthscales=np.array([0.4, 0.9]), signal_variance=1.7, lam=0.25)
    scalar = np.array([[mixture_kernel(a, b, p, bl) for b in Q] for a in Q])
    got = surrogate._upper_gram(Q, p, bl, np.zeros((0, q)))
    np.testing.assert_allclose(got[upper], scalar[upper], rtol=0.0, atol=1e-12)
    scalar = np.array([[mixture_kernel(a, b, p, bl) for b in Q] for a in model.inputs])
    np.testing.assert_allclose(mixture_gram(model.inputs, Q, p, bl), scalar, rtol=0.0, atol=1e-12)


def test_square_gram_is_exactly_symmetric():
    space = SearchSpace(
        [ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(32)]
        + [ParamSpec(f"n{i}", "integer", lo=0, hi=9) for i in range(16)]
        + [ParamSpec(f"c{i}", "categorical", categories=("a", "b", "c", "d")) for i in range(16)]
    )
    rng = np.random.default_rng(8)
    H = sample_inputs(rng, space, 700)
    p = KernelParams(lengthscales=rng.uniform(0.2, 1.0, size=32), signal_variance=1.3, lam=0.5)
    G = mixture_gram(H, None, p, space.blocks)
    assert np.array_equal(G, G.T)
    upper = np.triu_indices(700)
    assert np.array_equal(G[upper], mixture_gram(H, H, p, space.blocks)[upper])
    # F-ordered points give the same bits, square and cross
    F = np.asfortranarray(H)
    assert np.array_equal(mixture_gram(F, None, p, space.blocks), G)
    assert np.array_equal(mixture_gram(F, F, p, space.blocks)[upper], G[upper])


def float_indicator_gram(A, B, lam):
    """The mixture Gram of a qualitative block alone, matches counted by float ``==``."""
    ind = (A[:, None, :] == B[None, :, :]).sum(axis=2) / A.shape[1]
    return (1.0 - lam) * ind + lam * ind


def qualitative_values(case, rng, n, dz):
    if case == "off-lattice":
        return rng.choice([0.1, 1.0 / 3.0, 0.35, 0.7, 0.7000000000000001, 2.5], size=(n, dz))
    if case == "signed-zero":
        return rng.choice([-0.0, 0.0, 0.5], size=(n, dz))
    if case == "nan":
        return rng.choice([np.nan, 0.0, 1.0], size=(n, dz))
    values = rng.choice([0.0, 0.5, 1.0], size=(n, dz))
    values[:, 1] = rng.permutation(n) / 7.0  # n distinct values
    return values


@pytest.mark.parametrize("case", ["off-lattice", "signed-zero", "nan", "many-values"])
def test_coded_indicator_matches_float_comparison(case, monkeypatch):
    # codes stand for the values exactly when float == says they are
    # equal: NaN matches nothing, itself included
    rng = np.random.default_rng(12)
    n, m, dz = 300, 40, 5
    A = qualitative_values(case, rng, n, dz)
    B = np.vstack([A[:10], qualitative_values(case, rng, m - 10, dz)])
    empty = np.array([], dtype=np.intp)
    bl = Blocks(x=empty, y=empty, z=np.arange(dz))
    p = KernelParams(lengthscales=np.ones(0), lam=0.3)
    square, cross = float_indicator_gram(A, A, p.lam), float_indicator_gram(A, B, p.lam)
    # more than 255 distinct values in a column need 16-bit codes
    assert surrogate._codes(A).dtype == (np.uint16 if case == "many-values" else np.uint8)
    # 64-row tiles; then 2-row tiles
    for rows in (None, 2):
        set_tiles(monkeypatch, rows)
        assert np.array_equal(mixture_gram(A, None, p, bl), square)
        assert np.array_equal(mixture_gram(A, B, p, bl), cross)
        assert np.array_equal(mixture_gram(B, A, p, bl), cross.T)


def test_gp_sample_over_several_row_tiles_matches_numpy_cholesky(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(27)
    model = gp_fit(sample_inputs(rng, space, 12), rng.standard_normal(12), space)
    q = 40
    Q = sample_inputs(rng, space, q)
    mean, _ = gp_posterior(model, Q)
    w = solve_triangular(model._chol, mixture_gram(model.inputs, Q, model.params, model.blocks), lower=True)
    cov = mixture_gram(Q, Q, model.params, model.blocks) - w.T @ w
    cov = np.triu(cov) + np.triu(cov, 1).T
    root, _ = reference_cholesky(cov, 1e-10, 6)
    z = np.random.default_rng(6).standard_normal((q, 3))
    want = mean + model.target_std * (root @ z).T
    set_tiles(monkeypatch, 8)
    assert len(list(surrogate._row_tiles(q))) == 5
    got = gp_sample(model, Q, np.random.default_rng(6), count=3)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def reference_cholesky(m, first, retries):
    """The jitter escalation of the Cholesky helper, on np.linalg.cholesky."""
    jitter = 0.0
    for k in range(retries + 1):
        if k:
            jitter = first if k == 1 else 10.0 * jitter
        try:
            return np.linalg.cholesky(m + jitter * np.eye(len(m))), jitter
        except np.linalg.LinAlgError:
            pass
    return None, jitter


def check_factor(m, below=None, first=1e-10, retries=6, entrywise=True):
    """Factor m with the helper, its lower triangle replaced by ``below``'s if given.

    The factor is compared with numpy's entry by entry, or, where m is
    near singular and its factor ill determined, by reconstructing the
    jittered m from it.
    """
    want, want_jitter = reference_cholesky(m, first, retries)
    made = m.copy() if below is None else np.triu(m) + np.tril(below, -1)
    filled = []

    def fill():
        filled.append(made.copy())
        return filled[-1]

    got, jitter = surrogate._cholesky(fill, first, retries)
    assert jitter == want_jitter
    # the factor is the transpose of the last fill, and its strict upper
    # triangle is what the fill held below the diagonal, untouched
    assert got.base is filled[-1] and got.flags.f_contiguous
    assert np.array_equal(np.triu(got, 1), np.triu(made.T, 1))
    low = np.tril(got)
    if entrywise:
        np.testing.assert_allclose(low, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    else:
        jittered = m + jitter * np.eye(len(m))
        np.testing.assert_allclose(low @ low.T, jittered, rtol=0.0, atol=1e-12 * np.abs(jittered).max())
    return jitter


@pytest.mark.parametrize("rows", [None, pytest.param(2, id="16")])
def test_cholesky_matches_numpy(rows, monkeypatch):
    set_tiles(monkeypatch, rows)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((11, 11))
    spd = a @ a.T + 11.0 * np.eye(11)
    assert check_factor(spd) == 0.0
    # only the upper triangle is read
    assert check_factor(spd, below=rng.standard_normal((11, 11))) == 0.0
    # duplicated rows make the Gram singular; both take the same jitter,
    # and the factor reproduces the jittered Gram
    space = mixed_space()
    H = sample_inputs(rng, space, 6)
    H = np.vstack([H, H[:5]])
    p = KernelParams(lengthscales=np.array([0.3, 0.7]), signal_variance=2.0, lam=0.4)
    assert check_factor(mixture_gram(H, None, p, space.blocks), entrywise=False) > 0.0


@pytest.mark.parametrize("rows", [None, pytest.param(2, id="16")])
def test_cholesky_failure_leaves_the_source_unchanged(rows, monkeypatch):
    set_tiles(monkeypatch, rows)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9))
    indefinite = a + a.T
    indefinite[np.diag_indices(9)] -= 20.0
    source = indefinite.copy()
    fills = []

    def fill():
        # the tile size is no concern of the factorization
        m = np.triu(indefinite)
        m += np.triu(m, 1).T
        fills.append(m)
        return m

    got, jitter = surrogate._cholesky(fill, 1e-10, 6)
    # it gives up after retries + 1 fills, each a fresh matrix, and writes
    # only into the matrices the fill handed it, never into what they came from
    assert got is None and jitter == pytest.approx(1e-5)
    assert len(fills) == 7
    assert len({id(f) for f in fills}) == 7
    assert np.array_equal(indefinite, source)


def test_cholesky_counts_a_nan_pivot_as_a_failure():
    # potrf can report success on a NaN pivot; the factor's diagonal cannot
    m = np.eye(4)
    m[1, 2] = np.nan
    fills = []
    got, _ = surrogate._cholesky(lambda: fills.append(m.copy()) or fills[-1], 1e-10, 2)
    assert got is None and len(fills) == 3


def test_gp_sample_falls_back_to_eigh_when_every_factorization_fails(monkeypatch):
    space = mixed_space()
    rng = np.random.default_rng(17)
    model = gp_fit(sample_inputs(rng, space, 12), rng.standard_normal(12), space)
    Q = sample_inputs(rng, space, 6)
    mean, cov = gp_posterior(model, Q)
    fills, solves = [], []
    upper = surrogate._upper_gram
    monkeypatch.setattr(surrogate, "_upper_gram", lambda *a: fills.append(1) or upper(*a))
    solve = surrogate.solve_triangular
    monkeypatch.setattr(surrogate, "solve_triangular", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    monkeypatch.setattr(surrogate, "dpotrf", lambda a, **kw: (a, 1))
    draws = gp_sample(model, Q, np.random.default_rng(2), count=4000)
    assert np.all(np.isfinite(draws))
    # every retry refills only the triangle: the cross covariances are
    # solved against the training factor once
    assert len(fills) == 6 + 2
    assert len(solves) == 1
    # the eigendecomposition root draws from the posterior all the same
    np.testing.assert_allclose(draws.mean(axis=0), mean, rtol=0.0, atol=0.1 * np.sqrt(cov.diagonal().max()))
    np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.0, atol=0.1 * cov.diagonal().max())


def test_gp_sample_holds_about_one_candidate_covariance():
    # one q x q float64 matrix plus tiles; whole-matrix temporaries would
    # need about five
    space = mixed_space()
    rng = np.random.default_rng(21)
    X = sample_inputs(rng, space, 40)
    model = gp_fit(X, rng.standard_normal(40), space)
    q = 2000
    Q = sample_inputs(rng, space, q)
    tracemalloc.start()
    try:
        draws = gp_sample(model, Q, np.random.default_rng(0), count=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (8, q)
    assert peak <= 2.5 * q * q * 8


def test_a_draw_over_2048_candidates_at_d32_peaks_below_44_mb():
    # the triangle alone is 32 MB; everything else a draw holds at once
    # must stay small, so D = 64 spaces cannot exhaust memory
    space = SearchSpace(
        [ParamSpec(f"x{i}", "real", lo=0.0, hi=1.0) for i in range(8)]
        + [ParamSpec(f"n{i}", "integer", lo=0, hi=9) for i in range(8)]
        + [ParamSpec(f"c{i}", "categorical", categories=("a", "b", "c", "d")) for i in range(8)]
        + [ParamSpec(f"f{i}", "boolean") for i in range(8)]
    )
    rng = np.random.default_rng(33)
    model = gp_fit(space.snap(rng.random((72, 32))), rng.standard_normal(72), space)
    Q = space.snap(rng.random((2048, 32)))
    tracemalloc.start()
    try:
        draws = gp_sample(model, Q, np.random.default_rng(0), count=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.shape == (8, 2048)
    assert peak <= 44 * 2**20


def test_draws_over_duplicated_candidates_are_equal_up_to_the_jitter():
    # each candidate twice makes the posterior covariance singular, so
    # the factorization takes jitter
    space = mixed_space()
    rng = np.random.default_rng(32)
    model = gp_fit(sample_inputs(rng, space, 30), rng.standard_normal(30), space)
    half = 300
    Q = sample_inputs(rng, space, half)
    Q = np.vstack([Q, Q])
    draws = gp_sample(model, Q, np.random.default_rng(6), count=8)
    assert np.all(np.isfinite(draws))
    # a duplicate draws the same value, up to the jitter
    sd = np.sqrt(gp_posterior(model, Q[:50])[1].diagonal().max())
    np.testing.assert_allclose(draws[:, :half], draws[:, half:], rtol=0.0, atol=0.05 * sd)


def test_gp_sample_shapes_and_determinism():
    space = mixed_space()
    rng = np.random.default_rng(13)
    X = sample_inputs(rng, space, 10)
    y = rng.standard_normal(10)
    model = gp_fit(X, y, space)
    Q = sample_inputs(rng, space, 6)
    s1 = gp_sample(model, Q, np.random.default_rng(77), count=4)
    s2 = gp_sample(model, Q, np.random.default_rng(77), count=4)
    assert s1.shape == (4, 6)
    np.testing.assert_array_equal(s1, s2)
    # samples concentrate near the posterior mean, not the prior
    mu, cov = gp_posterior(model, Q)
    sd = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    big = np.abs(gp_sample(model, Q, np.random.default_rng(5), count=64) - mu)
    assert np.mean(big <= 4.0 * sd + 1e-6) > 0.99
