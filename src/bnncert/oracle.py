"""Monte-Carlo and attack-based estimators used to sandwich the certificates.

Nothing here is sound; the point is the opposite direction: a certified
lower bound must sit below the empirical estimate minus statistical slack,
and a certified upper bound above it. Test code and `bnncert validate`
both lean on these.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import beta

from . import attack as attack_mod
from .net import Network, forward, softmax
from .posterior import GaussianPosterior, Posterior
from .spec import Box, OutputSpec

_CHUNK = 2048


def draw_weights(posterior: Posterior, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if isinstance(posterior, GaussianPosterior):
        return posterior.mean + posterior.std * rng.standard_normal((n, posterior.n_weights))
    idx = rng.choice(posterior.samples.shape[0], size=n, p=posterior.weights)
    return posterior.samples[idx]


def _probe_points(net: Network, T: Box, w_attack: np.ndarray,
                  S: OutputSpec, n_grid: int, seed: int) -> np.ndarray:
    """Probe set for 'safe for all x in T': box corners-ish random grid plus
    one PGD point per attacked weight vector (rows of w_attack)."""
    rng = np.random.default_rng(seed)
    pts = [T.center, T.lower, T.upper]
    pts.extend(T.sample(rng, max(n_grid - 3, 0)))
    acfg = attack_mod.AttackConfig(seed=seed)
    pts.extend(attack_mod.pgd(net, np.atleast_2d(w_attack), T, S, acfg))
    return np.stack(pts)


def psafe_estimate(net: Network, posterior: Posterior, T: Box,
                   S: OutputSpec, n_weights: int = 2000, n_grid: int = 32,
                   seed: int = 0, confidence: float = 0.999,
                   n_attacks: int = 1):
    """Estimate of P_safe with a Clopper-Pearson confidence interval.

    A weight sample counts as safe when every probe point in T satisfies S.
    Probes only cover T partially, so the point estimate is itself an upper
    bias on the true P_safe; the CP interval accounts only for sampling
    error over weights. n_attacks controls how many posterior draws get a
    dedicated PGD probe (the first is the posterior center).
    """
    ws = draw_weights(posterior, n_weights, seed)
    center = posterior.mean if isinstance(posterior, GaussianPosterior) \
        else posterior.samples[np.argmax(posterior.weights)]
    attacked = np.vstack([center[None, :], ws[:max(n_attacks - 1, 0)]])
    probes = _probe_points(net, T, attacked, S, n_grid, seed)
    safe = np.zeros(n_weights, dtype=bool)
    for start in range(0, n_weights, _CHUNK):
        chunk = ws[start:start + _CHUNK]
        ys = forward(net, chunk[:, None, :], probes)   # (chunk, probes, out)
        safe[start:start + chunk.shape[0]] = S.satisfied(ys).all(axis=1)
    k = int(safe.sum())
    est = k / n_weights
    alpha = 1.0 - confidence
    lo = beta.ppf(alpha / 2, k, n_weights - k + 1) if k > 0 else 0.0
    hi = beta.ppf(1 - alpha / 2, k + 1, n_weights - k) if k < n_weights else 1.0
    return est, float(lo), float(hi)


def _predictive_draws(net: Network, posterior: Posterior, pts: np.ndarray,
                      n_weights: int, seed: int, kind: str) -> np.ndarray:
    """Outputs at each row of pts under n_weights posterior draws, shape
    (n_weights, points, n_out): softmax probabilities for classification,
    raw outputs for regression."""
    ws = draw_weights(posterior, n_weights, seed)
    outs = []
    for start in range(0, n_weights, _CHUNK):
        ys = forward(net, ws[start:start + _CHUNK, None, :], pts)
        outs.append(softmax(ys) if kind == "classification" else ys)
    return np.concatenate(outs)


def predictive_mean_estimate(net: Network, posterior: Posterior, x: np.ndarray,
                             n_weights: int = 2000, seed: int = 0,
                             kind: str = "classification"):
    """MC estimate of the posterior-predictive mean at one point, plus its
    standard error per output: softmax mean for classification, raw output
    mean for regression."""
    pts = np.asarray(x, dtype=float)[None, :]
    outs = _predictive_draws(net, posterior, pts, n_weights, seed, kind)[:, 0]
    return outs.mean(axis=0), outs.std(axis=0) / np.sqrt(n_weights)


def predictive_mean_range_estimate(net: Network, posterior: Posterior,
                                   T: Box, n_weights: int = 1000,
                                   n_points: int = 16, seed: int = 0,
                                   kind: str = "classification"):
    """Empirical (min, max) of the predictive mean over probe points in T,
    from one set of weight draws shared by every point.

    The certified decision bounds must bracket every entry of both arrays.
    """
    rng = np.random.default_rng(seed)
    pts = np.vstack([T.center[None, :], T.lower[None, :], T.upper[None, :],
                     T.sample(rng, n_points)])
    outs = _predictive_draws(net, posterior, pts, n_weights, seed, kind)
    # One mean per point, as predictive_mean_estimate takes it: numpy sums
    # a (draws, 1) column pairwise but a (draws, points, 1) block row by row.
    means = np.stack([outs[:, j].mean(axis=0) for j in range(len(pts))])
    return means.min(axis=0), means.max(axis=0)
