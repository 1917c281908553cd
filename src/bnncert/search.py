"""Linear search for certified-safe and certified-unsafe input radii.

MaxRR is the largest epsilon whose L-infinity ball still certifies
P_safe above tau_safe; MinUR is the smallest epsilon whose ball is
certified below tau_unsafe. Both walk a fixed epsilon grid (linear, not
bisection: the sampled bounds are only monotone when the certify seed is
held fixed, which the search does) and reuse the same weight boxes at
every step. A point's two searches share one set: both take it from a
one-entry memo of the last set built, which serves them while the
posterior object and the box-deciding config fields stay the same.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

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
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.eps_start_safe <= 0 or self.eps_start_unsafe <= 0:
            raise ValueError("eps starts must be positive")
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


def max_robust_radius(net: Network, posterior: Posterior, x: np.ndarray,
                      S: OutputSpec, cfg: CertifyConfig,
                      scfg: RadiusSearchConfig) -> RadiusResult:
    """Largest grid epsilon with psafe_lower strictly above tau_safe.

    Returns radius 0.0 when even the first grid point fails. Growing the
    ball with a fixed seed can only shrink the certified mass, so the
    search stops at the first failure.
    """
    res = RadiusResult(radius=0.0)
    boxes = _shared_box_set(posterior, cfg)
    for eps in _up_grid(scfg.eps_start_safe, scfg.step, scfg.eps_cap):
        T = linf_ball(x, eps, scfg.clip)
        cert = psafe_lower(net, posterior, T, S, cfg, boxes=boxes)
        log.debug("MaxRR eps=%g: psafe_lower=%.6f", eps, cert.value)
        res.epsilons.append(eps)
        res.values.append(cert.value)
        res.certificates.append(cert)
        if cert.value > scfg.tau_safe:
            res.radius = eps
        else:
            break
    return res


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

    def check(eps):
        T = linf_ball(x, eps, scfg.clip)
        cert = psafe_upper(net, posterior, T, S, cfg, boxes=boxes)
        log.debug("MinUR eps=%g: psafe_upper=%.6f", eps, cert.value)
        res.epsilons.append(eps)
        res.values.append(cert.value)
        res.certificates.append(cert)
        return cert.value < scfg.tau_unsafe

    boxes = _shared_box_set(posterior, cfg)
    res = RadiusResult(radius=scfg.eps_cap, vacuous=True)
    eps0 = round(scfg.eps_start_unsafe, 12)
    if check(eps0):
        res.radius, res.vacuous = eps0, False
        eps = eps0 - scfg.step
        while eps > 1e-12:
            eps = round(eps, 12)
            if not check(eps):
                break
            res.radius = eps
            eps -= scfg.step
        return res
    for eps in _up_grid(eps0 + scfg.step, scfg.step, scfg.eps_cap):
        if check(eps):
            res.radius, res.vacuous = eps, False
            break
    return res
