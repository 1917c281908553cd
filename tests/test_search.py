import logging

import numpy as np
import pytest

from bnncert import search
from bnncert.certify import CertifyConfig, psafe_lower, psafe_upper
from bnncert.net import Network
from bnncert.posterior import GaussianPosterior, SamplePosterior
from bnncert.search import (RadiusResult, RadiusSearchConfig,
                            max_robust_radius, min_unrobust_radius)
from bnncert.spec import argmax_spec, linf_ball

from conftest import random_net

S01 = argmax_spec(0, 2)
NET12 = Network.dense([1, 2])


def near_point_posterior(w, var=1e-12):
    return GaussianPosterior(mean=np.asarray(w, dtype=float),
                             variance=np.full(len(w), var))


def ccfg(**kw):
    base = dict(num_samples=3, gamma=1.0, method="ibp", rng_seed=0)
    base.update(kw)
    return CertifyConfig(**base)


def test_always_safe_net_reaches_cap():
    # constant logits (2, 0): class 0 wins for every input and weight draw
    w = np.array([0.0, 0.0, 2.0, 0.0])
    post = near_point_posterior(w)
    scfg = RadiusSearchConfig(eps_start_safe=0.05, step=0.05, eps_cap=0.3,
                              eps_start_unsafe=0.3)
    res = max_robust_radius(NET12, post, np.array([0.0]), S01, ccfg(gamma=5.0), scfg)
    assert res.radius == pytest.approx(0.3)
    assert not res.vacuous


def test_violated_at_center_gives_zero():
    w = np.array([0.0, 0.0, 0.0, 2.0])  # class 1 always wins
    post = near_point_posterior(w)
    scfg = RadiusSearchConfig(eps_start_safe=0.05, step=0.05, eps_cap=0.3,
                              eps_start_unsafe=0.3)
    res = max_robust_radius(NET12, post, np.array([0.0]), S01, ccfg(gamma=5.0), scfg)
    assert res.radius == 0.0


def test_minur_finds_handbuilt_flip():
    # y0 = 0.25 - x, y1 = 0: spec flips exactly at |x| = 0.25
    w = np.array([-1.0, 0.0, 0.25, 0.0])
    post = near_point_posterior(w)
    scfg = RadiusSearchConfig(eps_start_safe=0.01, eps_start_unsafe=0.5,
                              step=0.01, eps_cap=0.5)
    res = min_unrobust_radius(NET12, post, np.array([0.0]), S01, ccfg(gamma=5.0), scfg)
    assert not res.vacuous
    assert abs(res.radius - 0.25) <= 0.01 + 1e-9


def test_minur_vacuous_when_never_unsafe():
    w = np.array([0.0, 0.0, 2.0, 0.0])
    post = near_point_posterior(w)
    scfg = RadiusSearchConfig(eps_start_safe=0.05, eps_start_unsafe=0.2,
                              step=0.05, eps_cap=0.3)
    res = min_unrobust_radius(NET12, post, np.array([0.0]), S01, ccfg(gamma=5.0), scfg)
    assert res.vacuous and res.radius == pytest.approx(0.3)


def test_grid_alignment():
    w = np.array([-1.0, 0.0, 0.25, 0.0])
    post = near_point_posterior(w)
    scfg = RadiusSearchConfig(eps_start_safe=0.01, eps_start_unsafe=0.5,
                              step=0.01, eps_cap=0.5)
    res = min_unrobust_radius(NET12, post, np.array([0.0]), S01, ccfg(gamma=5.0), scfg)
    frac = (res.radius - scfg.eps_start_safe) / scfg.step
    assert abs(frac - round(frac)) < 1e-9


def test_maxrr_below_minur_paired(rng):
    violations = 0
    for i in range(10):
        net = random_net(rng, n_layers=1, max_width=6, n_in=2, n_out=2)
        post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                                 variance=np.full(net.n_weights, 1e-4))
        x = rng.uniform(-0.3, 0.3, 2)
        c = ccfg(rng_seed=i)
        scfg = RadiusSearchConfig(eps_start_safe=0.05, eps_start_unsafe=0.25,
                                  step=0.05, eps_cap=0.5)
        maxrr = max_robust_radius(net, post, x, S01, c, scfg).radius
        minur_res = min_unrobust_radius(net, post, x, S01, c, scfg)
        if not minur_res.vacuous and maxrr > minur_res.radius:
            violations += 1
    assert violations == 0


def test_maxrr_monotone_in_tau(rng):
    net = random_net(rng, n_layers=1, max_width=6, n_in=2, n_out=2)
    post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                             variance=np.full(net.n_weights, 1e-4))
    x = rng.uniform(-0.2, 0.2, 2)
    radii = []
    for tau in (0.3, 0.6, 0.9):
        scfg = RadiusSearchConfig(tau_safe=tau, eps_start_safe=0.05,
                                  eps_start_unsafe=0.25, step=0.05, eps_cap=0.5)
        radii.append(max_robust_radius(net, post, x, S01, ccfg(), scfg).radius)
    assert all(a >= b for a, b in zip(radii, radii[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        RadiusSearchConfig(tau_safe=0.0)
    with pytest.raises(ValueError):
        RadiusSearchConfig(step=0.0)
    with pytest.raises(ValueError):
        RadiusSearchConfig(eps_cap=0.01, eps_start_unsafe=0.5)


@pytest.mark.parametrize("field", ["step", "eps_start_safe",
                                   "eps_start_unsafe", "eps_cap"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_radii(field, value):
    # An infinite cap would make the upward grid endless; NaN compares
    # false everywhere and slipped through the sign checks.
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        RadiusSearchConfig(**{field: value})


def sequential_walks(net, post, x, S, cfg, scfg):
    """MaxRR and MinUR as linear walks with one certificate call per grid
    point: the rule that the batched searches reduce to."""
    def run(fn, eps):
        cert = fn(net, post, linf_ball(x, eps, scfg.clip), S, cfg)
        return cert.value

    maxrr = RadiusResult(radius=0.0)
    eps = scfg.eps_start_safe
    while eps <= scfg.eps_cap + 1e-12:
        e = round(eps, 12)
        maxrr.epsilons.append(e)
        maxrr.values.append(run(psafe_lower, e))
        if not maxrr.values[-1] > scfg.tau_safe:
            break
        maxrr.radius = e
        eps += scfg.step

    minur = RadiusResult(radius=scfg.eps_cap, vacuous=True)

    def check(e):
        minur.epsilons.append(e)
        minur.values.append(run(psafe_upper, e))
        return minur.values[-1] < scfg.tau_unsafe

    eps0 = round(scfg.eps_start_unsafe, 12)
    if check(eps0):
        minur.radius, minur.vacuous = eps0, False
        eps = eps0 - scfg.step
        while eps > 1e-12:
            eps = round(eps, 12)
            if not check(eps):
                break
            minur.radius = eps
            eps -= scfg.step
        return maxrr, minur
    eps = eps0 + scfg.step
    while eps <= scfg.eps_cap + 1e-12:
        if check(round(eps, 12)):
            minur.radius, minur.vacuous = round(eps, 12), False
            break
        eps += scfg.step
    return maxrr, minur


def fields(res):
    return res.radius, res.vacuous, res.epsilons, res.values


@pytest.mark.parametrize("step", [0.03, 0.07, 0.003])
@pytest.mark.parametrize("start_unsafe", [0.1, 0.9])
def test_batched_walks_equal_sequential_walks(step, start_unsafe, caplog):
    # y0 = 0.25 - x, y1 = 0: safe below |x| = 0.25, unsafe above. MinUR
    # walks up from 0.1 and down from 0.9; step 0.003 spans several blocks.
    post = near_point_posterior([-1.0, 0.0, 0.25, 0.0])
    x = np.array([0.0])
    scfg = RadiusSearchConfig(eps_start_safe=step, eps_start_unsafe=start_unsafe,
                              step=step, eps_cap=1.0)
    cfg = ccfg(gamma=5.0)
    caplog.set_level(logging.DEBUG, logger="bnncert.search")
    batched = (max_robust_radius(NET12, post, x, S01, cfg, scfg),
               min_unrobust_radius(NET12, post, x, S01, cfg, scfg))
    reference = sequential_walks(NET12, post, x, S01, cfg, scfg)
    for got, want in zip(batched, reference):
        assert fields(got) == fields(want)
        assert len(got.certificates) == len(got.epsilons)
    assert not batched[1].vacuous and batched[0].radius < 0.25
    # One DEBUG line per reported step, none for discarded grid points.
    logged = [r.getMessage().split(" ")[0] for r in caplog.records]
    assert logged.count("MaxRR") == len(batched[0].epsilons)
    assert logged.count("MinUR") == len(batched[1].epsilons)


def test_regions_evaluated_stay_near_the_reported_steps(monkeypatch):
    # Long walks on a 10,000-point grid: MaxRR and MinUR up from 0.05 stop
    # near 0.25; MinUR down from 9.0 stops there too.
    post = near_point_posterior([-1.0, 0.0, 0.25, 0.0])
    regions = []
    for name in ("psafe_lower", "psafe_upper"):
        def counted(net, post, T, *args, _real=getattr(search, name), **kw):
            regions.append(len(T.lower))
            return _real(net, post, T, *args, **kw)
        monkeypatch.setattr(search, name, counted)
    for fn, start_unsafe in ((max_robust_radius, 0.05),
                             (min_unrobust_radius, 0.05),
                             (min_unrobust_radius, 9.0)):
        scfg = RadiusSearchConfig(eps_start_safe=1e-3, step=1e-3,
                                  eps_start_unsafe=start_unsafe, eps_cap=10.0)
        regions.clear()
        res = fn(NET12, post, np.array([0.0]), S01, ccfg(gamma=5.0), scfg)
        steps = len(res.epsilons)
        assert 50 < steps < 9000 and not res.vacuous
        assert sum(regions) <= 2 * (steps + search.FIRST_BLOCK)
        assert len(regions) <= np.log2(steps) + 2
