"""Gradient attack on a fixed-weight network sample.

PGD over an input box against an output spec, used to seed unsafe-box
checks and as the empirical probe in the Monte-Carlo sandwich validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Network, backprop, forward
from .spec import InputBox, OutputSpec


@dataclass
class AttackConfig:
    iterations: int = 25
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be >= 1")


def pgd(net: Network, w: np.ndarray, T: InputBox, S: OutputSpec,
        acfg: AttackConfig) -> np.ndarray:
    """Projected gradient descent over T on the spec margin
    min(C y + d), which is negative exactly where the point violates S;
    returns the iterate with the smallest margin.

    ``w`` is one weight vector (n_w,), or K of them stacked (K, n_w), which
    are attacked together and get one point each, shape (K, n_in); each
    equals the point a call with that weight vector alone returns.

    The box center and seeded random starts descend together as one batch,
    so each step is one backprop call and the last iterates take one final
    forward pass. Every step is projected back into T, so the result is
    always a member of T and never worse than the center. Each restart keeps
    its first iterate strictly below the center's margin and below its own
    earlier iterates; ties between restarts go to the earliest one.
    """
    def spec_margin(y):
        m = (S.C @ y[..., None])[..., 0] + S.d
        return m.min(axis=-1), S.C[np.argmin(m, axis=-1)]

    w = np.asarray(w, dtype=float)
    ws = np.atleast_2d(w)
    width = np.max(T.width)
    step = 2.5 * width / acfg.iterations if width > 0 else 0.0
    rng = np.random.default_rng(acfg.seed)
    starts = np.stack([T.center] + [rng.uniform(T.lower, T.upper)
                                    for _ in range(acfg.restarts - 1)])
    x = np.broadcast_to(starts, (len(ws), *starts.shape))

    m, g, _ = backprop(net, ws, x, spec_margin)
    best_m = np.broadcast_to(m[:, :1], m.shape).copy()
    best_x = np.broadcast_to(T.center, x.shape).copy()
    for k in range(acfg.iterations):
        x = T.clip(x - step * np.sign(g))
        if k + 1 < acfg.iterations:
            m, g, _ = backprop(net, ws, x, spec_margin)
        else:
            m = spec_margin(forward(net, ws[:, None, :], x))[0]
        better = m < best_m
        best_m[better], best_x[better] = m[better], x[better]
    best = np.argmin(best_m, axis=-1)
    out = np.take_along_axis(best_x, best[:, None, None], axis=1)[:, 0]
    return out if w.ndim > 1 else out[0]
