"""Linear search for certified-safe and certified-unsafe input radii.

MaxRR is the largest epsilon whose L-infinity ball still certifies
P_safe above tau_safe; MinUR is the smallest epsilon whose ball is
certified below tau_unsafe. Both evaluate a fixed epsilon grid in region
batches and reduce to the walk's prefix, the points a linear walk visits
(not bisection: the sampled bounds are only monotone when the certify
seed is held fixed, which the search does). The batches double in size,
and every step reuses the same weight boxes. A point's two searches share
one set: both take it from a one-entry memo of the last set built, which
serves them while the posterior object and the box-deciding config fields
stay the same.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .certify import (BoxSet, Certificate, CertifyConfig, box_set,
                      psafe_lower, psafe_upper)
from .net import Network
from .posterior import Posterior
from .spec import OutputSpec, linf_ball

log = logging.getLogger("bnncert.search")


@dataclass
class RadiusSearchConfig:
    tau_safe: float = 0.7
    tau_unsafe: float = 0.7
    eps_start_safe: float = 0.01
    eps_start_unsafe: float = 0.5
    step: float = 0.01
    eps_cap: float = 1.0
    clip: tuple | None = None

    def __post_init__(self):
        if not 0.0 < self.tau_safe <= 1.0:
            raise ValueError("tau_safe must lie in (0, 1]")
        if not 0.0 < self.tau_unsafe < 1.0:
            raise ValueError("tau_unsafe must lie in (0, 1)")
        for name in ("step", "eps_start_safe", "eps_start_unsafe", "eps_cap"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, not "
                                 f"{getattr(self, name)!r}")
        if self.eps_cap < max(self.eps_start_safe, self.eps_start_unsafe):
            raise ValueError("eps_cap must cover both start radii")


@dataclass
class RadiusResult:
    radius: float
    epsilons: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    certificates: list[Certificate] = field(default_factory=list)
    vacuous: bool = False


# The last box set built. It holds its posterior, so that object's id cannot
# be reused by another posterior while the set is cached.
_last_set: BoxSet | None = None


def _shared_box_set(posterior: Posterior, cfg: CertifyConfig) -> BoxSet:
    """``box_set(posterior, cfg)``, reusing the last set built when it
    serves the same posterior and config (MaxRR then MinUR at one point)."""
    global _last_set
    if _last_set is None or not _last_set.serves(posterior, cfg):
        _last_set = box_set(posterior, cfg)
    return _last_set


def _up_grid(start, step, cap):
    eps = start
    while eps <= cap + 1e-12:
        yield round(eps, 12)
        eps += step


def _down_grid(start, step):
    eps = start - step
    while eps > 1e-12:
        eps = round(eps, 12)
        yield eps
        eps -= step


FIRST_BLOCK = 16        # grid points in the first region batch of a walk


def _runner(fn, net, posterior, x, S, cfg, scfg):
    """A function from a list of radii to the certificates of ``fn`` on
    their balls around x, in one region-batch call on the shared box set."""
    boxes = _shared_box_set(posterior, cfg)
    return lambda radii: fn(
        net, posterior, linf_ball(np.broadcast_to(x, (len(radii), len(x))),
                                  np.asarray(radii, dtype=float)[:, None],
                                  scfg.clip), S, cfg, boxes=boxes)


def _walk(grid, run, done=(), size=FIRST_BLOCK):
    """(eps, certificate) pairs: ``done``, then ``grid`` in blocks of size,
    2 size, 4 size, ..., each passed to ``run`` once it is reached. Each
    certificate's ``wall_time`` is its block's time over the block's size."""
    yield from done
    while block := list(islice(grid, size)):
        yield from zip(block, run(block))
        size *= 2


def _reduce(res, name, pairs, certified, stop) -> RadiusResult:
    """Record (eps, certificate) pairs, each certified eps as the radius, up
    to the first pair whose ``certified(value)`` is ``stop``."""
    for eps, cert in pairs:
        log.debug("%s eps=%g: psafe_%s=%.6f", name, eps, cert.direction,
                  cert.value)
        res.epsilons.append(eps)
        res.values.append(cert.value)
        res.certificates.append(cert)
        ok = certified(cert.value)
        if ok:
            res.radius, res.vacuous = eps, False
        if ok == stop:
            break
    return res


def max_robust_radius(net: Network, posterior: Posterior, x: np.ndarray,
                      S: OutputSpec, cfg: CertifyConfig,
                      scfg: RadiusSearchConfig) -> RadiusResult:
    """Largest grid epsilon with psafe_lower strictly above tau_safe.

    Returns radius 0.0 when even the first grid point fails. Growing the
    ball with a fixed seed can only shrink the certified mass, so the
    search stops at the first failure.
    """
    run = _runner(psafe_lower, net, posterior, x, S, cfg, scfg)
    grid = _up_grid(scfg.eps_start_safe, scfg.step, scfg.eps_cap)
    return _reduce(RadiusResult(radius=0.0), "MaxRR", _walk(grid, run),
                   lambda v: v > scfg.tau_safe, stop=False)


def min_unrobust_radius(net: Network, posterior: Posterior, x: np.ndarray,
                        S: OutputSpec, cfg: CertifyConfig,
                        scfg: RadiusSearchConfig) -> RadiusResult:
    """Smallest grid epsilon with psafe_upper below tau_unsafe.

    Starts at eps_start_unsafe. If that radius is already certified unsafe
    the search walks down until certification is lost and keeps the last
    certified epsilon; otherwise it walks up toward eps_cap looking for
    the first certified one. When nothing up to eps_cap certifies, the
    result carries the cap with vacuous=True, meaning 'not found', not
    'robust up to cap'.
    """
    run = _runner(psafe_upper, net, posterior, x, S, cfg, scfg)
    eps0 = round(scfg.eps_start_unsafe, 12)
    down = _down_grid(eps0, scfg.step)
    up = _up_grid(eps0 + scfg.step, scfg.step, scfg.eps_cap)
    # The first block holds eps0 and the nearest points of both walks, about
    # half each; later blocks extend only the walk taken.
    near_up = list(islice(up, FIRST_BLOCK // 2 - 1))
    near_down = list(islice(down, FIRST_BLOCK - 1 - len(near_up)))
    near_up += islice(up, FIRST_BLOCK - 1 - len(near_up) - len(near_down))
    cert0, *certs = run([eps0] + near_down + near_up)
    walk_down = cert0.value < scfg.tau_unsafe
    grid, near = ((down, zip(near_down, certs)) if walk_down else
                  (up, zip(near_up, certs[len(near_down):])))
    return _reduce(RadiusResult(radius=scfg.eps_cap, vacuous=True), "MinUR",
                   _walk(grid, run, [(eps0, cert0), *near], 2 * FIRST_BLOCK),
                   lambda v: v < scfg.tau_unsafe, stop=not walk_down)
