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
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


def pgd(net: Network, w: np.ndarray, T: InputBox, S: OutputSpec,
        acfg: AttackConfig) -> np.ndarray:
    """Projected gradient descent over T on the spec margin
    min(C y + d), which is negative exactly where the point violates S;
    returns the iterate with the smallest margin.

    The search starts at the box center plus seeded random restarts; every
    step is projected back into T, so the result is always a member of T and
    never worse than the starting center. Each iterate is evaluated once:
    its margins pick the constraint row that the next step descends.
    """
    def margins(x):
        return S.C @ forward(net, w, x) + S.d

    width = np.max(T.width)
    step = 2.5 * width / acfg.iterations if width > 0 else 0.0
    rng = np.random.default_rng(acfg.seed)
    starts = [T.center] + [rng.uniform(T.lower, T.upper)
                           for _ in range(acfg.restarts - 1)]

    center_m = margins(T.center)
    best_x, best_val = T.center, np.min(center_m)
    for k, x in enumerate(starts):
        m = center_m if k == 0 else margins(x)
        for _ in range(acfg.iterations):
            g, _ = backprop(net, w, x, S.C[np.argmin(m)])
            x = T.clip(x - step * np.sign(g))
            m = margins(x)
            val = np.min(m)
            if val < best_val:
                best_val, best_x = val, x
    return best_x
