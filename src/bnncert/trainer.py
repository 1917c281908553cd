"""Desk-scale posterior producers: reparameterized-ELBO VI and HMC.

These exist so the package is self-contained; the certification engine is
inference-agnostic and accepts any diagonal-Gaussian or sample posterior.
Training is plain numpy with a hand-rolled Adam loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .net import Network, backprop, softmax
from .posterior import GaussianPosterior, SamplePosterior

log = logging.getLogger("bnncert.trainer")


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.01
    prior_variance: float = 0.5
    likelihood: str = "categorical"     # "categorical" | "gaussian"
    noise_var: float = 0.1              # observation noise for gaussian likelihood
    kl_weight: float = 1.0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if min(self.learning_rate, self.prior_variance, self.noise_var) <= 0:
            raise ValueError("learning_rate, prior_variance, noise_var must be positive")
        if self.kl_weight < 0:
            raise ValueError("kl_weight must be nonnegative")
        if self.likelihood not in ("categorical", "gaussian"):
            raise ValueError(f"unknown likelihood {self.likelihood!r}")


@dataclass
class HmcConfig:
    leapfrog_steps: int = 20
    step_size: float = 0.01
    num_samples: int = 100
    burn_in: int = 100
    prior_variance: float = 0.5

    def __post_init__(self):
        if min(self.leapfrog_steps, self.num_samples) < 1 or self.burn_in < 0:
            raise ValueError("leapfrog_steps, num_samples >= 1 and burn_in >= 0 required")
        if self.step_size <= 0 or self.prior_variance <= 0:
            raise ValueError("step_size and prior_variance must be positive")


def _softplus(x):
    return np.logaddexp(0.0, x)


def _softplus_deriv(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softplus_inv(y):
    return np.log(np.expm1(y))


def _nll_and_grad(net: Network, w, X, Y, cfg: TrainConfig):
    """Summed negative log-likelihood of the rows of (X, Y) at weights w and
    its gradient in w, from one batched backprop."""
    def nll(logits):
        if cfg.likelihood == "categorical":
            g = softmax(logits)
            rows = np.arange(logits.shape[0])
            c = np.asarray(Y, dtype=int).reshape(-1)
            value = -np.sum(np.log(np.maximum(g[rows, c], 1e-300)))
            g[rows, c] -= 1.0
            return value, g
        resid = logits - np.asarray(Y, dtype=float).reshape(logits.shape)
        return 0.5 * np.sum(resid * resid) / cfg.noise_var, resid / cfg.noise_var

    value, _, gw = backprop(net, w, X, nll)
    return float(value), gw


def elbo(net: Network, X, Y, mean, raw_var, cfg: TrainConfig, rng) -> float:
    """One-sample ELBO estimate on the given data, used for monitoring."""
    var = _softplus(raw_var)
    w = mean + np.sqrt(var) * rng.standard_normal(mean.shape[0])
    nll = _nll_and_grad(net, w, X, Y, cfg)[0]
    kl = 0.5 * np.sum(var / cfg.prior_variance
                      + mean ** 2 / cfg.prior_variance
                      - 1.0 + np.log(cfg.prior_variance) - np.log(var))
    return float(-nll - cfg.kl_weight * kl)


def fit_vi(net: Network, dataset, cfg: TrainConfig, seed: int = 0) -> GaussianPosterior:
    """Mean-field Gaussian VI with the reparameterization trick.

    dataset is (X, Y). One MC weight sample per step; Adam on the mean and
    on an unconstrained pre-softplus variance vector. The KL against the
    isotropic N(0, prior_variance) prior is analytic. NaN loss aborts with
    the epoch index in the error.
    """
    X, Y = dataset
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.asarray(Y)
    if X.shape[0] == 0:
        raise ValueError("dataset must be nonempty")
    n_data = X.shape[0]
    rng = np.random.default_rng(seed)

    mean = 0.05 * rng.standard_normal(net.n_weights)
    raw_var = np.full(net.n_weights, _softplus_inv(0.05 ** 2))

    adam_m = [np.zeros_like(mean), np.zeros_like(raw_var)]
    adam_v = [np.zeros_like(mean), np.zeros_like(raw_var)]
    b1, b2, eps_adam = 0.9, 0.999, 1e-8
    t = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_data)
        for start in range(0, n_data, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            var = _softplus(raw_var)
            std = np.sqrt(var)
            noise = rng.standard_normal(mean.shape[0])
            w = mean + std * noise

            nll, g_w = _nll_and_grad(net, w, X[idx], Y[idx], cfg)
            scale = n_data / len(idx)
            g_w *= scale
            nll *= scale

            if not np.isfinite(nll):
                raise FloatingPointError(f"VI diverged at epoch {epoch}: loss is not finite")

            # d KL / d mean and d KL / d var, then chain through the
            # reparameterization w = mean + sqrt(var) * noise.
            g_mean = g_w + cfg.kl_weight * mean / cfg.prior_variance
            g_var = (g_w * noise / (2.0 * std)
                     + cfg.kl_weight * 0.5 * (1.0 / cfg.prior_variance - 1.0 / var))
            g_raw = g_var * _softplus_deriv(raw_var)

            t += 1
            for k, (p, g) in enumerate(((mean, g_mean), (raw_var, g_raw))):
                adam_m[k] = b1 * adam_m[k] + (1 - b1) * g
                adam_v[k] = b2 * adam_v[k] + (1 - b2) * g * g
                m_hat = adam_m[k] / (1 - b1 ** t)
                v_hat = adam_v[k] / (1 - b2 ** t)
                p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps_adam)
        if epoch % max(cfg.epochs // 10, 1) == 0:
            log.debug("epoch %d nll %.4f", epoch, nll)

    return GaussianPosterior(mean=mean, variance=_softplus(raw_var))


def _log_posterior_and_grad(net, X, Y, w, cfg_like, prior_variance):
    """Unnormalized log posterior and gradient for HMC."""
    nll, gw = _nll_and_grad(net, w, X, Y, cfg_like)
    return (-0.5 * float(w @ w) / prior_variance - nll,
            -w / prior_variance - gw)


def sample_hmc(net: Network, dataset, cfg: HmcConfig, seed: int = 0,
               likelihood: str = "categorical",
               noise_var: float = 0.1) -> SamplePosterior:
    """Hamiltonian Monte Carlo over the flat weight vector.

    Standard leapfrog integrator with a Metropolis accept step; the
    dataset may be empty, in which case the chain targets the prior. The
    acceptance rate is recorded in the posterior metadata, with a warning
    flag when it falls below 0.1.
    """
    X, Y = dataset
    X = np.atleast_2d(np.asarray(X, dtype=float)) if len(X) else np.zeros((0, net.input_dim))
    cfg_like = TrainConfig(likelihood=likelihood, noise_var=noise_var,
                           prior_variance=cfg.prior_variance)
    rng = np.random.default_rng(seed)
    w = 0.05 * rng.standard_normal(net.n_weights)
    logp, g = _log_posterior_and_grad(net, X, Y, w, cfg_like, cfg.prior_variance)

    kept = []
    accepted = 0
    total = cfg.burn_in + cfg.num_samples
    for it in range(total):
        p0 = rng.standard_normal(net.n_weights)
        w_new, g_new, logp_new = w.copy(), g, logp
        p = p0 + 0.5 * cfg.step_size * g_new
        for step in range(cfg.leapfrog_steps):
            w_new = w_new + cfg.step_size * p
            logp_new, g_new = _log_posterior_and_grad(net, X, Y, w_new,
                                                      cfg_like, cfg.prior_variance)
            if step < cfg.leapfrog_steps - 1:
                p = p + cfg.step_size * g_new
        p = p + 0.5 * cfg.step_size * g_new

        h0 = -logp + 0.5 * float(p0 @ p0)
        h1 = -logp_new + 0.5 * float(p @ p)
        if np.isfinite(h1) and np.log(rng.uniform()) < h0 - h1:
            w, g, logp = w_new, g_new, logp_new
            accepted += 1
        if it >= cfg.burn_in:
            kept.append(w.copy())

    rate = accepted / total
    meta = {"acceptance_rate": rate}
    if rate < 0.1:
        meta["warning"] = "low HMC acceptance rate; decrease step_size"
        log.warning("HMC acceptance rate %.3f below 0.1", rate)
    return SamplePosterior(samples=np.stack(kept), metadata=meta)


# ---------------------------------------------------------------------------
# Bundled synthetic tasks


def make_blobs(n: int = 200, seed: int = 0):
    """Two linearly separable 2-D Gaussian blobs, labels 0/1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal([-1.5, -1.5], 0.5, size=(half, 2))
    x1 = rng.normal([1.5, 1.5], 0.5, size=(n - half, 2))
    X = np.vstack([x0, x1])
    Y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    perm = rng.permutation(n)
    return X[perm], Y[perm]


def make_hcas_like(n: int = 500, seed: int = 0):
    """4-D collision-avoidance-flavored states with 5 advisory classes.

    State: (distance, bearing, heading, time-to-loss). Labels come from a
    simple deterministic rule, so a small network can fit them.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform([-1, -1, -1, -1], [1, 1, 1, 1], size=(n, 4))
    return X, hcas_label(X)


def hcas_label(X):
    """Advisory of each state row of ``make_hcas_like``: 0 clear of
    conflict, 1/2 weak left/right, 3/4 strong left/right."""
    dist, bearing, heading, tau = np.asarray(X, dtype=float).T
    return np.select([dist >= 0.0, bearing >= 0.5, bearing >= 0.0,
                      heading >= tau], [0, 1, 2, 3], 4)


def make_cubic(n: int = 100, seed: int = 0, noise: float = 0.1):
    """1-D regression task y = x^3 + noise on [-2, 2]."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 1))
    Y = X[:, 0] ** 3 + noise * rng.standard_normal(n)
    return X, Y.reshape(-1, 1)
