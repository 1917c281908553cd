"""A region axis through IBP, LBP, PGD and the P_safe and D_safe
certificates.

A stack of M regions must give every region the certificate, the output
bounds and the attack points that a call on that region alone gives, in
chunks whose memory does not grow with M.
"""

import tracemalloc

import numpy as np
import pytest

from bnncert import attack, certify
from bnncert.attack import AttackConfig, pgd
from bnncert.certify import (CertifyConfig, Task, box_set, decision_robust,
                             dsafe_bounds_all_classes, dsafe_lower,
                             dsafe_upper, psafe_lower, psafe_upper,
                             uncertainty_check)
from bnncert.cli import _grid_cells
from bnncert.net import Network, ShapeError
from bnncert.posterior import GaussianPosterior, WeightBox
from bnncert.propagate import propagate
from bnncert.spec import InputBox, OutputSpec, argmax_spec
from bnncert.trainer import HmcConfig, hcas_label, make_hcas_like, sample_hmc

from conftest import random_net

# Criterion 10's 100-cell grid over (distance, bearing).
HCAS_GRID = [[-1, 1, 0.2], [-1, 1, 0.2], [-1, 1, 2.0], [-1, 1, 2.0]]


def regions(T):
    return [InputBox(lower=lo, upper=hi) for lo, hi in zip(T.lower, T.upper)]


def hcas_specs(T, n_out=5):
    return [argmax_spec(int(c), n_out) for c in hcas_label(T.center)]


def assert_batch_equals_single_calls(net, post, T, S, cfg):
    boxes = box_set(post, cfg)
    specs = S if isinstance(S, list) else [S] * len(T.lower)
    for fn in (psafe_lower, psafe_upper):
        batch = fn(net, post, T, S, cfg, boxes)
        assert isinstance(batch, list) and len(batch) == len(specs)
        for cert, Tm, Sm in zip(batch, regions(T), specs):
            one = fn(net, post, Tm, Sm, cfg, boxes)
            assert (cert.value, cert.covered_mass, cert.boxes_kept,
                    cert.boxes_used, cert.direction) == \
                (one.value, one.covered_mass, one.boxes_kept, one.boxes_used,
                 one.direction)
    return batch


def assert_dsafe_batch_equals_single_calls(net, post, T, cfg, tasks):
    """D_safe certificates and all-class bounds of a region stack equal the
    calls on each region alone; returns the stack's all-class bounds."""
    boxes = box_set(post, cfg)
    for task in tasks:
        for fn in (dsafe_lower, dsafe_upper):
            batch = fn(net, post, T, cfg, task, boxes)
            assert isinstance(batch, list) and len(batch) == len(T.lower)
            for cert, Tm in zip(batch, regions(T)):
                one = fn(net, post, Tm, cfg, task, boxes)
                assert (cert.value, cert.covered_mass, cert.boxes_kept,
                        cert.extra) == \
                    (one.value, one.covered_mass, one.boxes_kept, one.extra)
    lowers, uppers = dsafe_bounds_all_classes(net, post, T, cfg, boxes)
    assert lowers.shape == uppers.shape == (len(T.lower), net.output_dim)
    for lo, up, Tm in zip(lowers, uppers, regions(T)):
        one = dsafe_bounds_all_classes(net, post, Tm, cfg, boxes)
        assert np.array_equal(lo, one[0]) and np.array_equal(up, one[1])
    return lowers, uppers


@pytest.fixture(scope="module")
def hmc_hcas_atoms():
    """An HMC atom posterior on [4,8,5]: 16 draws at gamma 0 certify some
    cells of the HCAS grid and leave others open."""
    net = Network.dense([4, 8, 5])
    X, Y = make_hcas_like(200, seed=0)
    post = sample_hmc(net, (X, Y), HmcConfig(leapfrog_steps=10, step_size=0.02,
                                             num_samples=16, burn_in=16), seed=0)
    return net, post


def test_atom_sweep_batch_equals_per_cell_calls(hmc_hcas_atoms):
    net, post = hmc_hcas_atoms
    T = _grid_cells(HCAS_GRID)
    cfg = CertifyConfig(num_samples=16, gamma=0.0, rng_seed=0)
    uppers = assert_batch_equals_single_calls(net, post, T, hcas_specs(T), cfg)
    lowers = psafe_lower(net, post, T, hcas_specs(T), cfg)
    assert len({c.value for c in lowers}) > 2      # not a vacuous sweep
    assert len({c.value for c in uppers}) > 2


def test_atom_dsafe_batch_equals_per_cell_calls(hmc_hcas_atoms):
    net, post = hmc_hcas_atoms
    T = _grid_cells(HCAS_GRID)
    cfg = CertifyConfig(num_samples=16, gamma=0.0, rng_seed=0)
    tasks = [Task.classification(0), Task.classification(3)]
    lowers, uppers = assert_dsafe_batch_equals_single_calls(net, post, T, cfg,
                                                            tasks)
    assert len(set(lowers[:, 0])) > 2 and len(set(uppers[:, 3])) > 2


@pytest.mark.parametrize("method, bonferroni", [("ibp", None), ("lbp", None),
                                                ("ibp", 2)],
                         ids=["ibp", "lbp", "bonferroni"])
def test_gaussian_dsafe_batch_equals_per_cell_calls(method, bonferroni):
    rng = np.random.default_rng(5)
    net = Network.dense([4, 6, 5], activation="tanh")
    post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                             variance=np.full(net.n_weights, 0.01))
    T = _grid_cells([[-1, 1, 0.5], [-1, 1, 1.0], [-1, 1, 2.0], [-1, 1, 2.0]])
    cfg = CertifyConfig(num_samples=3, gamma=1.0, method=method,
                        bonferroni=bonferroni, rng_seed=2, sigma_floor=-2.0,
                        sigma_ceil=2.0)
    tasks = [Task.classification(1), Task.regression(4)]
    assert_dsafe_batch_equals_single_calls(net, post, T, cfg, tasks)


def test_decision_checks_take_one_region():
    net = Network.dense([2, 2])
    post = GaussianPosterior(mean=np.zeros(6), variance=np.ones(6))
    T = InputBox(lower=np.zeros((2, 2)), upper=np.ones((2, 2)))
    cfg = CertifyConfig(num_samples=2)
    with pytest.raises(ShapeError, match="takes one region"):
        decision_robust(net, post, T, 0, cfg)
    with pytest.raises(ShapeError, match="takes one region"):
        uncertainty_check(net, post, T, 0.5, cfg)
    empty = InputBox(lower=np.zeros((0, 2)), upper=np.zeros((0, 2)))
    assert dsafe_lower(net, post, empty, cfg, Task.classification(0)) == []
    lowers, uppers = dsafe_bounds_all_classes(net, post, empty, cfg)
    assert lowers.shape == uppers.shape == (0, 2)


def test_gaussian_lbp_sweep_batch_equals_per_cell_calls():
    rng = np.random.default_rng(3)
    net = Network.dense([4, 6, 5], activation="tanh")
    post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                             variance=np.full(net.n_weights, 0.01))
    T = _grid_cells([[-1, 1, 0.5], [-1, 1, 1.0], [-1, 1, 2.0], [-1, 1, 2.0]])
    cfg = CertifyConfig(num_samples=3, gamma=1.0, method="lbp", rng_seed=2)
    assert_batch_equals_single_calls(net, post, T, hcas_specs(T), cfg)


@pytest.mark.parametrize("grid, n_cells", [([[1, 1.3, 0.1]], 3),
                                           ([[0, 1, 1.0]], 1)],
                         ids=["uneven", "one-cell"])
def test_small_grids_batch_equals_per_cell_calls(grid, n_cells):
    rng = np.random.default_rng(4)
    net = Network.dense([1, 5, 3])
    post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                             variance=np.full(net.n_weights, 0.001))
    T = _grid_cells(grid)
    assert len(T.lower) == n_cells
    for method in ("ibp", "lbp"):
        cfg = CertifyConfig(num_samples=4, gamma=1.0, method=method)
        assert_batch_equals_single_calls(net, post, T, argmax_spec(1, 3), cfg)


def test_one_region_in_a_stack_gives_a_list():
    net = Network.dense([2, 2])
    post = GaussianPosterior(mean=np.zeros(6), variance=np.ones(6))
    T = InputBox(lower=np.zeros((1, 2)), upper=np.ones((1, 2)))
    cfg = CertifyConfig(num_samples=2)
    for fn in (psafe_lower, psafe_upper):
        certs = fn(net, post, T, [argmax_spec(0, 2)], cfg)
        assert isinstance(certs, list) and len(certs) == 1
        assert certs[0].wall_time >= 0.0
        empty = InputBox(lower=np.zeros((0, 2)), upper=np.zeros((0, 2)))
        assert fn(net, post, empty, [], cfg) == []
        with pytest.raises(ShapeError, match="specs"):
            fn(net, post, T, [argmax_spec(0, 2)] * 2, cfg)


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_pgd_over_regions_and_weights_equals_single_calls(act):
    rng = np.random.default_rng(9)
    for _ in range(6):
        net = random_net(rng, max_width=10, n_out=3, activation=act)
        n_w, M, K = net.n_weights, int(rng.integers(1, 7)), int(rng.integers(1, 4))
        ws = rng.normal(size=(K, n_w))
        c = rng.uniform(-0.5, 0.5, (M, net.input_dim))
        hw = rng.uniform(0, 0.4, (M, net.input_dim))
        hw[0] = 0.0                                  # a point region
        T = InputBox(lower=c - hw, upper=c + hw)
        S = [argmax_spec(int(k), 3) for k in rng.integers(3, size=M)]
        # A spec with fewer rows than the others.
        S[-1] = OutputSpec(C=[[1.0, -1.0, 0.0]], d=[0.1])
        acfg = AttackConfig(iterations=int(rng.integers(1, 12)),
                            restarts=int(rng.integers(1, 4)),
                            seed=int(rng.integers(100)))
        xs = pgd(net, ws, T, S, acfg)
        assert xs.shape == (M, K, net.input_dim)
        for Tm, Sm, x_m in zip(regions(T), S, xs):
            assert np.array_equal(x_m, pgd(net, ws, Tm, Sm, acfg))
            for w, x in zip(ws, x_m):
                assert np.array_equal(x, pgd(net, w, Tm, Sm, acfg))
        assert pgd(net, ws[0], T, S, acfg).shape == (M, net.input_dim)
        # One spec serves every region.
        assert np.array_equal(pgd(net, ws, T, S[0], acfg),
                              pgd(net, ws, T, [S[0]] * M, acfg))


def test_lbp_crosses_regions_with_boxes(rng):
    net = random_net(rng, max_width=6)
    M, K = 3, 2
    c = rng.uniform(-0.5, 0.5, (M, 1, net.input_dim))
    T = InputBox(lower=c - 0.1, upper=c + 0.1)
    wc = rng.normal(size=(K, net.n_weights))
    R = WeightBox(lower=wc - 0.05, upper=wc + 0.05)
    for method in ("ibp", "lbp"):
        yL, yU = propagate(net, T, R, method)
        assert yL.shape == (M, K, net.output_dim)
        for m in range(M):
            for k in range(K):
                one = propagate(net, InputBox(lower=T.lower[m, 0],
                                              upper=T.upper[m, 0]),
                                WeightBox(lower=R.lower[k], upper=R.upper[k]),
                                method)
                assert np.array_equal(yL[m, k], one[0])
                assert np.array_equal(yU[m, k], one[1])


@pytest.fixture(scope="module")
def hcas_sized():
    """A [4,125,5] Gaussian posterior, one box, and criterion 10's grid."""
    net = Network.dense([4, 125, 5])
    rng = np.random.default_rng(0)
    post = GaussianPosterior(mean=rng.normal(0, 0.3, net.n_weights),
                             variance=np.full(net.n_weights, 0.01))
    T = _grid_cells(HCAS_GRID)
    cfg = CertifyConfig(num_samples=1, gamma=2.5)
    return net, post, T, hcas_specs(T), cfg, box_set(post, cfg)


def test_one_pgd_and_propagate_call_per_chunk(hcas_sized, monkeypatch):
    net, post, T, S, cfg, boxes = hcas_sized
    calls = []
    for module, name, t_arg in ((attack, "pgd", 2), (certify, "propagate", 1)):
        def counted(*args, _real=getattr(module, name), _name=name, _t=t_arg):
            calls.append((_name, len(args[_t].lower)))
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    psafe_upper(net, post, T, S, cfg, boxes)
    # 2**14 // (1 box x 125 x 5 products in the widest layer) = 26 cells.
    chunks = [26, 26, 26, 22]
    assert calls == [c for n in chunks for c in (("pgd", n), ("propagate", n))]
    calls.clear()
    psafe_lower(net, post, T, S, cfg, boxes)
    assert calls == [("propagate", n) for n in chunks]


def test_one_propagate_call_per_chunk_for_dsafe(hcas_sized, monkeypatch):
    net, post, T, _, cfg, boxes = hcas_sized
    calls = []

    def counted(*args, _real=certify.propagate):
        calls.append(len(args[1].lower))
        return _real(*args)
    monkeypatch.setattr(certify, "propagate", counted)
    dsafe_bounds_all_classes(net, post, T, cfg, boxes)
    assert calls == [26, 26, 26, 22]


def test_sweep_memory_does_not_grow_with_the_cells(hcas_sized):
    net, post, T, S, cfg, boxes = hcas_sized

    def sweep():
        psafe_lower(net, post, T, S, cfg, boxes)
        psafe_upper(net, post, T, S, cfg, boxes)

    sweep()
    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6        # about 0.7 MB in chunks; 2.1 MB in one pass
