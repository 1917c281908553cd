import numpy as np
import pytest

from bnncert import attack
from bnncert.net import Network
from bnncert.oracle import (predictive_mean_estimate,
                            predictive_mean_range_estimate, psafe_estimate)
from bnncert.posterior import GaussianPosterior, SamplePosterior
from bnncert.spec import argmax_spec, linf_ball


@pytest.mark.parametrize("kind", ["classification", "regression"])
@pytest.mark.parametrize("n_out", [1, 3])
@pytest.mark.parametrize("atoms", [False, True])
def test_range_matches_per_point_loop(kind, n_out, atoms):
    # One draw and one forward pass over every probe point give exactly the
    # means of one predictive_mean_estimate call per point. 3000 draws span
    # two forward chunks.
    rng = np.random.default_rng(n_out + 10 * atoms)
    net = Network.dense([3, 6, n_out], activation="tanh")
    if atoms:
        post = SamplePosterior(samples=rng.normal(0, 1, (5, net.n_weights)))
    else:
        post = GaussianPosterior(mean=rng.normal(0, 1, net.n_weights),
                                 variance=np.full(net.n_weights, 0.05))
    T = linf_ball(rng.uniform(-1, 1, 3), 0.1)
    lo, hi = predictive_mean_range_estimate(net, post, T, n_weights=3000,
                                            n_points=5, seed=7, kind=kind)
    pts_rng = np.random.default_rng(7)
    pts = np.vstack([T.center[None, :], T.lower[None, :], T.upper[None, :],
                     T.sample(pts_rng, 5)])
    means = np.stack([predictive_mean_estimate(net, post, p, 3000, 7, kind)[0]
                      for p in pts])
    assert np.array_equal(lo, means.min(axis=0))
    assert np.array_equal(hi, means.max(axis=0))


@pytest.mark.parametrize("atoms", [False, True])
def test_attacks_share_one_pgd_call(monkeypatch, atoms):
    # Every attacked weight vector goes to PGD in one stack, and the
    # estimate and interval equal those of one single-weight call each.
    rng = np.random.default_rng(7 + atoms)
    net = Network.dense([2, 6, 3], activation="tanh")
    if atoms:
        post = SamplePosterior(samples=rng.normal(0, 1, (6, net.n_weights)))
    else:
        post = GaussianPosterior(mean=rng.normal(0, 1, net.n_weights),
                                 variance=np.full(net.n_weights, 0.1))
    T = linf_ball(rng.uniform(-1, 1, 2), 0.4)
    S = argmax_spec(0, 3)
    real, calls = attack.pgd, []

    def counting(net, w, *args):
        calls.append(np.shape(w))
        return real(net, w, *args)

    def one_at_a_time(net, w, *args):
        return np.stack([real(net, wk, *args) for wk in w])

    monkeypatch.setattr(attack, "pgd", counting)
    got = psafe_estimate(net, post, T, S, n_weights=400, seed=2, n_attacks=4)
    assert calls == [(4, net.n_weights)]
    monkeypatch.setattr(attack, "pgd", one_at_a_time)
    assert psafe_estimate(net, post, T, S, n_weights=400, seed=2,
                          n_attacks=4) == got
    assert 0.0 < got[0] < 1.0
