"""Gradient attack on a fixed-weight network sample.

PGD over an input box against an output spec, used to seed unsafe-box
checks and as the empirical probe in the Monte-Carlo sandwich validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Network, backprop, forward
from .spec import InputBox, OutputSpec, stack_specs


@dataclass
class AttackConfig:
    iterations: int = 25
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be >= 1")


def pgd(net: Network, w: np.ndarray, T: InputBox,
        S: OutputSpec | list[OutputSpec], acfg: AttackConfig) -> np.ndarray:
    """Projected gradient descent over T on the spec margin
    min(C y + d), which is negative exactly where the point violates S;
    returns the iterate with the smallest margin.

    ``w`` is one weight vector (n_w,) or K of them (K, n_w); ``T`` is one
    region (n_in,) or M of them (M, n_in), and ``S`` one spec for every
    region or a sequence of M specs, one per region. Every weight vector
    attacks every region in one batch and gets one point per region, shape
    (M, K, n_in), without the M axis for one region and without the K axis
    for one weight vector; each point equals the one a call with that
    weight vector and region alone returns.

    The region centre and seeded random starts descend together as one
    batch, so each step is one backprop call, which takes the input
    gradient only, from weights unpacked once per call; the last iterates
    take one final forward pass. Each region has its own step and every
    step is projected back into the region, so a point is always a member
    of it and never worse than its centre. Each restart keeps its first
    iterate strictly below the centre's margin and below its own earlier
    iterates; ties between restarts go to the earliest one.
    """
    w = np.asarray(w, dtype=float)
    ws = np.atleast_2d(w)
    lo, hi = np.atleast_2d(T.lower)[:, None], np.atleast_2d(T.upper)[:, None]
    K, (M, _, n_in), R = len(ws), lo.shape, acfg.restarts
    C, d = stack_specs(S, M, net.output_dim)
    rows = np.arange(len(C))[:, None]

    def spec_margin(y):
        y = y.reshape(K, M, R, C.shape[-1])
        m = (C[:, None] @ y[..., None])[..., 0] + d[:, None]
        grad = C[rows, np.argmin(m, axis=-1)]
        return m.min(axis=-1), grad.reshape(K, M * R, C.shape[-1])

    def flat(x):
        return x.reshape(K, M * R, n_in)

    step = 2.5 * np.max(hi - lo, axis=-1, keepdims=True) / acfg.iterations
    # Every region draws the random starts a fresh generator gives it:
    # lo + (hi - lo) * u is the value rng.uniform(lo, hi) returns.
    u = np.random.default_rng(acfg.seed).random((R - 1, n_in))
    starts = np.concatenate([0.5 * (lo + hi), lo + (hi - lo) * u], axis=1)
    x = np.broadcast_to(starts, (K, M, R, n_in))

    params = net.unpack(ws)
    m, g, _ = backprop(net, ws, flat(x), spec_margin, params)
    best_m = np.broadcast_to(m[..., :1], m.shape).copy()
    best_x = np.broadcast_to(starts[:, :1], x.shape).copy()
    for k in range(acfg.iterations):
        x = np.clip(x - step * np.sign(g.reshape(x.shape)), lo, hi)
        if k + 1 < acfg.iterations:
            m, g, _ = backprop(net, ws, flat(x), spec_margin, params)
        else:
            m = spec_margin(forward(net, ws[:, None, :], flat(x)))[0]
        better = m < best_m
        np.copyto(best_m, m, where=better)
        np.copyto(best_x, x, where=better[..., None])
    best = np.argmin(best_m, axis=-1)[..., None, None]
    out = np.take_along_axis(best_x, best, axis=2)[:, :, 0].swapaxes(0, 1)
    if w.ndim == 1:
        out = out[:, 0]
    return out if T.lower.ndim > 1 else out[0]
