"""
The mixed-variable kernel and the Gaussian process surrogate
============================================================

The surrogate covariance combines three per-block kernels: Matern 5/2
over the real dimensions, a linear kernel over the integers, and an
indicator (match-score) kernel over the qualitative dimensions. A
mixture weight lam blends the sum of the blocks with their product.
"""

import numpy as np

from mixbo import (
    KernelParams,
    ParamSpec,
    SearchSpace,
    gp_fit,
    gp_posterior,
    indicator_kernel,
    linear_kernel,
    matern52,
    mixture_gram,
    mixture_kernel,
)

space = SearchSpace(
    [
        ParamSpec("x", "real", lo=0.0, hi=1.0),
        ParamSpec("y", "real", lo=0.0, hi=1.0),
        ParamSpec("n", "integer", lo=0, hi=5),
        ParamSpec("mode", "categorical", categories=("fast", "safe")),
    ]
)
bl = space.blocks

h1 = space.warp({"x": 0.2, "y": 0.7, "n": 3, "mode": "fast"})
h2 = space.warp({"x": 0.4, "y": 0.5, "n": 4, "mode": "safe"})

# The three block kernels, evaluated separately:
ls = np.array([0.5, 0.5])
print("matern block:     ", round(matern52(h1[bl.x], h2[bl.x], ls, 1.0), 4))
print("linear block:     ", round(linear_kernel(h1[bl.y], h2[bl.y]), 4))
print("indicator block:  ", round(indicator_kernel(h1[bl.z], h2[bl.z]), 4))

# lam = 0 gives the pure sum, lam = 1 the pure product, and values in
# between trade additive structure against interactions.
for lam in (0.0, 0.5, 1.0):
    p = KernelParams(lengthscales=ls, signal_variance=1.0, lam=lam)
    print(f"mixture at lam={lam}:", round(mixture_kernel(h1, h2, p, bl), 4))

# Any Gram matrix the mixture produces is positive semidefinite. The
# vectorized builder evaluates whole matrices at once.
rng = np.random.default_rng(3)
H = space.snap(rng.random((40, space.dim)))
p = KernelParams(lengthscales=ls, signal_variance=2.0, lam=0.4)
G = mixture_gram(H, None, p, bl)
print("gram min eigenvalue:", float(np.linalg.eigvalsh(G).min().round(8)))

# gp_fit standardizes the targets, maximizes the marginal likelihood
# over lengthscales, signal variance, noise, and lam, and returns a
# frozen model. Posterior mean and covariance come from gp_posterior.
# Four starts race through one coordinate sweep each and only the
# leader runs the second. Here a sweep makes P = 13 * 4 + 4 = 56
# likelihood evaluations (two real dimensions, signal and noise, then
# the lam scan), so the search makes 4 * (1 + P) + P = 284.
values = np.array([np.sin(6 * h[0]) + 0.3 * h[2] + 0.2 * h[3] for h in H])
model = gp_fit(H, values, space)
print("fitted lam:", round(model.params.lam, 3), "log likelihood:", round(model.log_likelihood, 2))
print("likelihood evaluations of the search:", model.evaluations)

Q = space.snap(rng.random((4, space.dim)))
mu, cov = gp_posterior(model, Q)
sd = np.sqrt(np.diag(cov))
for q, m, s in zip(Q, mu, sd):
    print(f"  f({np.round(q, 2)}) ~ {m:+.3f} +- {s:.3f}")

# On noise-free smooth data the posterior mean interpolates: feeding the
# training inputs back in reproduces the training values.
mu_train, _ = gp_posterior(model, H[:5])
print("max interpolation error on 5 training rows:", float(np.abs(mu_train - values[:5]).max().round(6)))
