"""Gradient attack on a fixed-weight network sample.

PGD over an input box against an output spec, used to seed unsafe-box
checks and as the empirical probe in the Monte-Carlo sandwich validation.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass

import numpy as np

from . import net as net_mod
from .net import Network, backprop
from .spec import Box, OutputSpec, stack_specs

log = logging.getLogger("bnncert.attack")
# PGD takes only backprop steps; perfbench/spans.py still traces
# ``forward`` by this name.
forward = net_mod.forward


def check_count(config, name: str, least: int):
    """Reject a config field that is not an integer (Python or numpy) of
    at least ``least``, so a bad value fails at construction."""
    value = getattr(config, name)
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


@dataclass
class AttackConfig:
    iterations: int = 25
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("iterations", 1), ("restarts", 1), ("seed", 0)):
            check_count(self, name, least)


def pgd(net: Network, w: np.ndarray, T: Box,
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
    batch of (region, restart) rows, so each step is one backprop call,
    which takes the input gradient only, from weights unpacked once per
    call. Each region has its own step and every step is projected back
    into the region, so a point is always a member of it and never worse
    than its centre. Each restart keeps its first iterate strictly below
    the centre's margin and below its own earlier iterates; ties between
    restarts go to the earliest one.

    A step is a function of the current iterate alone. So once a row's new
    iterate equals its current one (a fixed point) or the one before (a
    2-cycle) under every weight vector, its later iterates only repeat
    points whose margins the strict test has seen, and its best point can
    no longer change: the row retires, and leaves the batch, with the
    point the full ``iterations`` steps would return.

    Every backward pass sees at least two rows, so it is a matrix product
    and never a matrix-vector product, whose last bits can differ: a call
    with one row runs it beside a copy of itself, and a lone row left by
    retirement keeps a retired one beside it.
    """
    w = np.asarray(w, dtype=float)
    ws = np.atleast_2d(w)
    lo, hi = np.atleast_2d(T.lower), np.atleast_2d(T.upper)
    K, (M, n_in), R = len(ws), lo.shape, acfg.restarts
    C, d = stack_specs(S, M, net.output_dim)
    # Row i is restart i % R of region i // R; it carries its region's
    # box, step and spec, and ``origin`` says where its result goes. A lone
    # row travels with a copy of itself, dropped at the end.
    ids = np.arange(M * R) if M * R != 1 else np.zeros(2, dtype=int)
    region = ids // R
    spec = region if len(C) > 1 else np.zeros_like(region)
    C, d = C[spec], d[spec]
    step = (2.5 * np.max(hi - lo, axis=-1, keepdims=True)
            / acfg.iterations)[region]
    # Every region draws the random starts a fresh generator gives it:
    # lo + (hi - lo) * u is the value rng.uniform(lo, hi) returns.
    u = np.random.default_rng(acfg.seed).random((R - 1, n_in))
    starts = np.concatenate([0.5 * (lo + hi)[:, None],
                             lo[:, None] + (hi - lo)[:, None] * u], axis=1)
    lo, hi = lo[region], hi[region]
    x = prev = np.broadcast_to(starts.reshape(M * R, n_in)[ids],
                               (K, len(ids), n_in))

    def spec_margin(y):
        m = (C @ y[..., None])[..., 0] + d
        rows = np.arange(len(C))
        return m.min(axis=-1), C[rows, np.argmin(m, axis=-1)]

    params = net.unpack(ws)
    m, g, _ = backprop(net, ws, x, spec_margin, params)
    best_m, best_x = m[:, region * R], x[:, region * R]
    out_m, out_x = np.empty_like(best_m), np.empty_like(best_x)
    origin, steps = np.arange(len(ids)), 0
    while len(origin) and steps < acfg.iterations:
        new = np.clip(x - step * np.sign(g), lo, hi)
        m, g, _ = backprop(net, ws, new, spec_margin, params)
        steps += 1
        better = m < best_m
        np.copyto(best_m, m, where=better)
        np.copyto(best_x, new, where=better[..., None])
        keep = ~((new == x).all(axis=-1)
                 | (new == prev).all(axis=-1)).all(axis=0)
        x, prev = new, x
        if keep.sum() == 1:             # keep a retired row as a partner
            keep[np.argmin(keep)] = True
        if steps < acfg.iterations and not keep.all():
            gone = origin[~keep]
            out_m[:, gone], out_x[:, gone] = best_m[:, ~keep], best_x[:, ~keep]
            x, prev, g, best_m, best_x = (a[:, keep] for a in
                                          (x, prev, g, best_m, best_x))
            lo, hi, step, C, d, origin = (a[keep] for a in
                                          (lo, hi, step, C, d, origin))
    out_m[:, origin], out_x[:, origin] = best_m, best_x
    log.debug("pgd: %d of %d steps, %d rows x %d weights, %d rows retired "
              "early", steps, acfg.iterations, M * R, K,
              M * R - np.count_nonzero(origin < M * R))
    out_m, out_x = out_m[:, :M * R], out_x[:, :M * R]
    best = np.argmin(out_m.reshape(K, M, R), axis=-1)[..., None, None]
    out = np.take_along_axis(out_x.reshape(K, M, R, n_in), best,
                             axis=2)[:, :, 0].swapaxes(0, 1)
    if w.ndim == 1:
        out = out[:, 0]
    return out if T.lower.ndim > 1 else out[0]
