"""One box set per job, and one batched evaluation per certificate.

The stacked kernels (IBP, Gaussian box masses, disjointify, backprop, PGD)
must give each box the same bits as a call on that box alone, and a search
must match a reference that evaluates one box at a time.
"""

import dataclasses
import itertools
import logging
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from bnncert import attack, certify, search
from bnncert.attack import AttackConfig, pgd
from bnncert.certify import (CertifyConfig, Task, box_set,
                             dsafe_bounds_all_classes, dsafe_lower,
                             dsafe_upper, psafe_lower, psafe_upper)
from bnncert.net import Network, backprop
from bnncert.posterior import (GaussianPosterior, SamplePosterior, WeightBox,
                               box_mass, disjointify, draws, make_box, sample)
from bnncert.propagate import ibp_forward, lbp_forward, propagate
from bnncert.search import (RadiusSearchConfig, max_robust_radius,
                            min_unrobust_radius)
from bnncert.spec import InputBox, argmax_spec, contains, excludes, linf_ball
from bnncert.trainer import HmcConfig, make_blobs, sample_hmc

from conftest import random_net

K = 5


def stacked_boxes(rng, net, w_width):
    """K random weight boxes, stacked, of half-width up to w_width."""
    wc = rng.normal(0, 1.0, (K, net.n_weights))
    ww = rng.uniform(0, w_width, (K, net.n_weights))
    return WeightBox(lower=wc - ww, upper=wc + ww)


def rows(box):
    return [type(box)(lower=lo, upper=hi) for lo, hi in zip(box.lower, box.upper)]


@pytest.mark.parametrize("act", ["relu", "tanh"])
@pytest.mark.parametrize("w_width", [0.0, 0.2], ids=["point", "wide"])
def test_batched_ibp_equals_per_box(act, w_width):
    rng = np.random.default_rng(11)
    for _ in range(6):
        net = random_net(rng, max_width=12, activation=act)
        R = stacked_boxes(rng, net, w_width)
        xc = rng.uniform(-0.5, 0.5, (K, net.input_dim))
        xw = rng.uniform(0, 0.3 if w_width else 0.0, (K, net.input_dim))
        Ts = InputBox(lower=xc - xw, upper=xc + xw)
        for T, pairs in ((rows(Ts)[0], [(rows(Ts)[0], r) for r in rows(R)]),
                         (Ts, list(zip(rows(Ts), rows(R))))):
            yL, yU = ibp_forward(net, T, R)
            for k, (Tk, Rk) in enumerate(pairs):
                want = ibp_forward(net, Tk, Rk)
                assert np.array_equal(yL[k], want[0])
                assert np.array_equal(yU[k], want[1])
        # A stacked input box against one weight box pairs every row with it.
        yL, _ = ibp_forward(net, Ts, rows(R)[0])
        assert np.array_equal(yL[-1], ibp_forward(net, rows(Ts)[-1], rows(R)[0])[0])
        # LBP keeps its per-box loop behind the same stacked interface.
        yL, yU = propagate(net, Ts, R, "lbp")
        want = lbp_forward(net, rows(Ts)[1], rows(R)[1])
        assert np.array_equal(yL[1], want[0]) and np.array_equal(yU[1], want[1])


def test_batched_gaussian_box_mass_equals_per_box(rng):
    for _ in range(10):
        n = int(rng.integers(1, 300))
        post = GaussianPosterior(mean=rng.normal(0, 1, n),
                                 variance=rng.uniform(0.01, 2.0, n))
        boxes = [make_box(sample(post, (3, i)), float(g), post, scale)
                 for i, (g, scale) in enumerate(
                     [(0.0, "std"), (0.5, "std"), (2.5, "std"), (1.0, "var")])]
        # A box far in the tail, whose per-dimension masses underflow to 0.
        boxes.append(WeightBox(lower=post.mean + 60.0, upper=post.mean + 61.0))
        stack = WeightBox(np.stack([b.lower for b in boxes]),
                          np.stack([b.upper for b in boxes]))
        masses = box_mass(post, stack)
        assert masses.shape == (len(boxes),) and masses[-1] == 0.0
        assert np.array_equal(masses, [box_mass(post, b) for b in boxes])


def test_sample_box_mass_over_a_stack(rng):
    post = SamplePosterior(samples=rng.normal(size=(6, 4)))
    boxes = [make_box(sample(post, (0, i)), 0.0, post) for i in range(8)]
    stack = WeightBox(np.stack([b.lower for b in boxes]),
                      np.stack([b.upper for b in boxes]))
    masses = box_mass(post, stack)
    assert np.array_equal(masses, [box_mass(post, b) for b in boxes])


def greedy_pairwise(boxes):
    """Indices kept by the pairwise greedy rule, one overlap test per pair."""
    def overlaps(a, b):
        return bool(np.all(np.maximum(a.lower, b.lower)
                           <= np.minimum(a.upper, b.upper)))

    kept = []
    for i, b in enumerate(boxes):
        if not any(overlaps(b, boxes[j]) for j in kept):
            kept.append(i)
    return kept


def test_disjointify_keeps_the_pairwise_greedy_indices(rng):
    for _ in range(40):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 4))
        c = rng.uniform(-1, 1, (n, d))
        hw = rng.uniform(0, 0.6, (n, d)) * (rng.uniform(size=(n, 1)) > 0.2)
        c[rng.uniform(size=n) < 0.2] = c[0]        # repeated atoms
        boxes = [WeightBox(lower=lo, upper=hi) for lo, hi in zip(c - hw, c + hw)]
        assert list(disjointify(c - hw, c + hw)) == greedy_pairwise(boxes)
    assert len(disjointify(np.empty((0, 2)), np.empty((0, 2)))) == 0


def masked_greedy(lower, upper):
    """The earlier disjointify loop: every candidate against every earlier
    box in one expression, masked to the kept ones."""
    kept = np.zeros(len(lower), dtype=bool)
    for i in range(len(lower)):
        meets = np.all((lower[:i] <= upper[i]) & (lower[i] <= upper[:i]), axis=1)
        kept[i] = not np.any(meets & kept[:i])
    return np.flatnonzero(kept)


def test_disjointify_equals_the_masked_loop(rng):
    """Duplicate rows, zero-width atoms and touching faces: integer corners
    and widths of 0 or 1 make lower == upper across boxes common."""
    for n in [0, 1, 1] + rng.integers(2, 40, 80).tolist():
        d = int(rng.integers(1, 4))
        if rng.uniform() < 0.5:
            lower = rng.integers(-2, 3, (n, d)).astype(float)
            width = rng.integers(0, 2, (n, d)).astype(float)
        else:
            lower = rng.uniform(-1, 1, (n, d))
            width = rng.uniform(0, 0.6, (n, d))
        width *= rng.uniform(size=(n, 1)) > 0.3        # zero-width atoms
        upper = lower + width
        dup = np.flatnonzero(rng.uniform(size=n) < 0.3)
        src = rng.integers(0, n, len(dup)) if n else dup
        lower[dup], upper[dup] = lower[src], upper[src]
        got, want = disjointify(lower, upper), masked_greedy(lower, upper)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    # Faces that touch meet, so the later box goes.
    assert disjointify(np.array([[0.0], [1.0]]),
                       np.array([[1.0], [2.0]])).tolist() == [0]


@pytest.mark.parametrize("act", ["relu", "tanh"])
def test_pgd_over_stacked_weights_equals_single_calls(act):
    rng = np.random.default_rng(5)
    for _ in range(8):
        net = random_net(rng, max_width=10, n_out=3, activation=act)
        ws = rng.normal(size=(K, net.n_weights))
        c = rng.uniform(-0.5, 0.5, net.input_dim)
        T = InputBox(lower=c - 0.3, upper=c + 0.3)
        S = argmax_spec(int(rng.integers(3)), 3)
        acfg = AttackConfig(iterations=int(rng.integers(1, 12)),
                            restarts=int(rng.integers(1, 4)), seed=7)
        xs = pgd(net, ws, T, S, acfg)
        assert xs.shape == (K, net.input_dim)
        for w, x in zip(ws, xs):
            assert np.array_equal(x, pgd(net, w, T, S, acfg))


def test_backprop_over_stacked_weights_equals_single_calls(rng):
    net = random_net(rng, max_width=10, n_out=3)
    ws = rng.normal(size=(K, net.n_weights))
    x = rng.normal(size=(K, 4, net.input_dim))

    def loss(y):
        return (y ** 2).sum(axis=-1), 2.0 * y

    value, gx, gw = backprop(net, ws, x, loss)
    assert gx.shape == x.shape and gw.shape == ws.shape
    for k in range(K):
        v1, gx1, gw1 = backprop(net, ws[k], x[k], loss)
        assert np.array_equal(value[k], v1)
        assert np.array_equal(gx[k], gx1) and np.array_equal(gw[k], gw1)


def per_box_psafe(net, post, T, S, cfg, boxes=None, upper=False):
    """psafe certificates of a region stack evaluated one region and one box
    at a time, with the boxes built afresh: one IBP call per box, and one
    PGD call per box for the upper bound. Disjoint boxes at depth 1 reduce
    to a plain mass-weighted sum."""
    boxes = [make_box(sample(post, (cfg.rng_seed, i)), cfg.gamma, post,
                      cfg.margin_scale) for i in range(cfg.num_samples)]
    kept = [boxes[i] for i in greedy_pairwise(boxes)]
    certs = []
    for lo, hi in zip(T.lower, T.upper):
        Tm = InputBox(lower=lo, upper=hi)
        flags = []
        for R in kept:
            if upper:
                x = pgd(net, R.center, Tm, S, cfg.attack or AttackConfig())
                flags.append(float(excludes(S, *ibp_forward(
                    net, InputBox.point(x), R))))
            else:
                flags.append(float(contains(S, *ibp_forward(net, Tm, R))))
        acc = sum(box_mass(post, R) * f for R, f in zip(kept, flags))
        value = min(max(acc, 0.0), 1.0)
        certs.append(certify.Certificate(
            "psafe", "upper" if upper else "lower",
            1.0 - value if upper else value, 0.0, 0, 0, 0.0))
    return certs


@pytest.fixture(scope="module")
def hmc_atoms():
    net = Network.dense([2, 8, 2])
    X, Y = make_blobs(40, seed=1)
    post = sample_hmc(net, (X, Y), HmcConfig(leapfrog_steps=10, step_size=0.05,
                                             num_samples=24, burn_in=24), seed=1)
    return net, post


def test_radius_search_equals_per_box_reference(hmc_atoms, monkeypatch):
    net, post = hmc_atoms
    X, Y = make_blobs(8, seed=[1, 7])
    scfg = RadiusSearchConfig(tau_safe=0.7, tau_unsafe=0.7, eps_start_safe=0.1,
                              eps_start_unsafe=1.0, step=0.1, eps_cap=1.3)

    def run():
        out = []
        for i, (x, y) in enumerate(zip(X, Y)):
            cfg = CertifyConfig(num_samples=32, gamma=0.0, rng_seed=i,
                                attack=AttackConfig(iterations=10, restarts=2))
            S = argmax_spec(int(y), 2)
            for fn in (max_robust_radius, min_unrobust_radius):
                r = fn(net, post, x, S, cfg, scfg)
                out.append((r.radius, r.epsilons, r.values, r.vacuous))
        return out

    batched = run()
    monkeypatch.setattr(search, "psafe_lower", per_box_psafe)
    monkeypatch.setattr(search, "psafe_upper",
                        lambda *a, **kw: per_box_psafe(*a, **kw, upper=True))
    assert run() == batched
    assert any(not vacuous for *_, vacuous in batched[1::2])


def gaussian_case(rng, n_out=2):
    net = random_net(rng, n_layers=1, max_width=8, n_out=n_out)
    post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                             variance=np.full(net.n_weights, 0.02))
    T = linf_ball(rng.uniform(-0.3, 0.3, net.input_dim), 0.1)
    return net, post, T, argmax_spec(0, n_out)


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_one_propagate_call_per_ibp_certificate(rng, monkeypatch):
    net, post, T, S = gaussian_case(rng)
    cfg = CertifyConfig(num_samples=6, gamma=1.0)
    boxes = box_set(post, cfg)
    calls = counting(monkeypatch, certify, "propagate")
    task = Task.classification(0)
    for cert in (lambda: psafe_lower(net, post, T, S, cfg, boxes),
                 lambda: psafe_upper(net, post, T, S, cfg, boxes),
                 lambda: dsafe_lower(net, post, T, cfg, task, boxes),
                 lambda: dsafe_upper(net, post, T, cfg, task, boxes),
                 lambda: dsafe_bounds_all_classes(net, post, T, cfg, boxes)):
        calls.clear()
        cert()
        assert len(calls) == 1


def test_one_pgd_call_per_psafe_upper(rng, monkeypatch):
    net, post, T, S = gaussian_case(rng)
    cfg = CertifyConfig(num_samples=6, gamma=1.0)
    calls = counting(monkeypatch, attack, "pgd")
    cert = psafe_upper(net, post, T, S, cfg)
    assert len(calls) == 1
    assert calls[0][1].shape == (len(box_set(post, cfg).masses), net.n_weights)
    assert cert.boxes_used == 6


@pytest.mark.parametrize("fn", [max_robust_radius, min_unrobust_radius])
def test_search_samples_once_per_call(fn, monkeypatch):
    net = Network.dense([1, 2])
    w = np.array([-1.0, 0.0, 0.25, 0.0])       # y0 = 0.25 - x, y1 = 0
    post = GaussianPosterior(mean=w, variance=np.full(4, 1e-6))
    cfg = CertifyConfig(num_samples=7, gamma=3.0)
    scfg = RadiusSearchConfig(eps_start_safe=0.05, eps_start_unsafe=0.05,
                              step=0.05, eps_cap=0.5)
    calls = counting(monkeypatch, certify, "draws")
    res = fn(net, post, np.zeros(1), argmax_spec(0, 2), cfg, scfg)
    assert len(res.epsilons) > 1
    assert [len(seeds) for _, seeds in calls] == [cfg.num_samples]


def test_a_points_two_searches_build_one_box_set(hmc_atoms, monkeypatch):
    """MaxRR then MinUR on one posterior and config sample the boxes once;
    another posterior object, rng_seed or gamma builds a new set, and every
    result equals the one from a set built afresh for each search."""
    net, hmc = hmc_atoms
    X, Y = make_blobs(2, seed=[1, 7])
    x, S = X[0], argmax_spec(int(Y[0]), 2)
    cfg = CertifyConfig(num_samples=64, gamma=0.0, rng_seed=3,
                        attack=AttackConfig(iterations=10, restarts=2))
    scfg = RadiusSearchConfig(tau_safe=0.7, tau_unsafe=0.7, eps_start_safe=0.1,
                              eps_start_unsafe=1.0, step=0.1, eps_cap=1.3)

    def twin():
        return SamplePosterior(samples=hmc.samples, weights=hmc.weights)

    def search_pair(posts, cfg):
        return [(r.radius, r.epsilons, r.values, r.vacuous,
                 [c.covered_mass for c in r.certificates])
                for r in (fn(net, p, x, S, cfg, scfg) for fn, p in
                          zip((max_robust_radius, min_unrobust_radius), posts))]

    post, other = twin(), twin()
    seed4 = dataclasses.replace(cfg, rng_seed=4)
    runs = [(post, cfg), (other, cfg), (other, seed4),
            (other, dataclasses.replace(seed4, gamma=0.5))]
    calls = counting(monkeypatch, certify, "draws")
    got, sampled = [], []
    for p, c in runs:
        calls.clear()
        got.append(search_pair((p, p), c))
        sampled.append([len(seeds) for _, seeds in calls])
    assert sampled == [[cfg.num_samples]] * len(runs)
    assert got == [search_pair((twin(), twin()), c) for _, c in runs]


@pytest.mark.parametrize("change", [
    dict(rng_seed=1), dict(gamma=2.0), dict(num_samples=5),
    dict(margin_scale="var"), dict(bonferroni=2)])
def test_box_set_for_another_config_is_refused(rng, change):
    net, post, T, S = gaussian_case(rng)
    cfg = CertifyConfig(num_samples=4, gamma=1.0)
    boxes = box_set(post, cfg)
    other = dataclasses.replace(cfg, **change)
    for cert in (psafe_lower, psafe_upper):
        with pytest.raises(ValueError, match="box set"):
            cert(net, post, T, S, other, boxes)
    with pytest.raises(ValueError, match="box set"):
        dsafe_bounds_all_classes(net, post, T, other, boxes)
    # Fields that only steer the evaluation may differ.
    same = dataclasses.replace(cfg, method="lbp", attack=AttackConfig(seed=3))
    assert psafe_lower(net, post, T, S, same, boxes).boxes_used == 4


def test_box_set_for_another_posterior_is_refused(rng):
    net, post, T, S = gaussian_case(rng)
    cfg = CertifyConfig(num_samples=4, gamma=1.0)
    twin = GaussianPosterior(mean=post.mean.copy(), variance=post.variance.copy())
    with pytest.raises(ValueError, match="box set"):
        psafe_lower(net, twin, T, S, cfg, box_set(post, cfg))


def test_shared_box_set_gives_the_same_certificates(rng):
    net, post, T, S = gaussian_case(rng, n_out=3)
    for bonferroni in (None, 2):
        cfg = CertifyConfig(num_samples=6, gamma=1.5, bonferroni=bonferroni)
        boxes = box_set(post, cfg)
        for fn in (psafe_lower, psafe_upper):
            a, b = fn(net, post, T, S, cfg), fn(net, post, T, S, cfg, boxes)
            assert (a.value, a.covered_mass, a.boxes_kept) == \
                (b.value, b.covered_mass, b.boxes_kept)
        a = dsafe_bounds_all_classes(net, post, T, cfg)
        b = dsafe_bounds_all_classes(net, post, T, cfg, boxes)
        assert np.array_equal(a, b)


def test_zero_samples_give_an_empty_set(rng):
    net, post, T, S = gaussian_case(rng)
    cfg = CertifyConfig(num_samples=0, method="lbp")
    boxes = box_set(post, cfg)
    assert boxes.boxes.lower.shape == (0, net.n_weights)
    assert psafe_lower(net, post, T, S, cfg, boxes).value == 0.0
    assert psafe_upper(net, post, T, S, cfg, boxes).value == 1.0


def test_mean_bound_of_zero_masses_is_a_positive_zero():
    """Zero masses times negative psi give -0.0 per box; summed from a
    leading +0.0, as a scalar loop sums them, every region's value is +0.0
    (here a regression upper bound with sigma_ceil = -0.0)."""
    post = GaussianPosterior(mean=np.zeros(2), variance=np.ones(2))
    zero = np.zeros((3, 2))
    boxes = certify.BoxSet(posterior=post, boxes=WeightBox(lower=zero,
                                                           upper=zero),
                           masses=np.zeros(3), terms=[], used=3, built_for=())
    value, covered = boxes.mean_bound(-np.ones((2, 3)), -1.0, -0.0,
                                      lower=False)
    assert covered == 0.0
    assert value.tolist() == [0.0, 0.0] and not np.signbit(value).any()


def frozen_box_set(post, cfg):
    """The box set as it was built before one buffer held it: a list of
    one-seed draws, stacked by np.reshape, boxed as make_box boxes them, and
    integrated by the two-pass erf formula. Returns the kept corners, the
    masses and the Bonferroni terms."""
    def one_draw(seed):
        rng = np.random.default_rng(seed)
        if isinstance(post, GaussianPosterior):
            return post.mean + post.std * rng.standard_normal(post.n_weights)
        cdf = post.weights.cumsum()
        cdf /= cdf[-1]
        return post.samples[cdf.searchsorted(rng.random(), side="right")].copy()

    def mass(lower, upper):
        if isinstance(post, SamplePosterior):
            return box_mass(post, WeightBox(lower=lower, upper=upper))
        denom = np.sqrt(2.0 * post.variance)
        per_dim = np.divide(post.mean - lower, denom)
        erf(per_dim, out=per_dim)
        per_dim -= erf((post.mean - upper) / denom)
        per_dim *= 0.5
        np.clip(per_dim, 0.0, 1.0, out=per_dim)
        empty = np.any(per_dim == 0.0, axis=-1)
        with np.errstate(divide="ignore"):
            m = np.exp(np.log(per_dim, out=per_dim).sum(axis=-1))
        m = np.clip(np.where(empty, 0.0, m), 0.0, 1.0)
        return float(m) if m.ndim == 0 else m

    N = cfg.num_samples
    w = np.reshape([one_draw((cfg.rng_seed, i)) for i in range(N)],
                   (N, post.n_weights))
    if isinstance(post, SamplePosterior):
        lower = upper = w
    else:
        hw = cfg.gamma * (post.std if cfg.margin_scale == "std"
                          else post.variance)
        lower, upper = w - hw, w + hw
    if cfg.bonferroni is None:
        keep = disjointify(lower, upper)
    else:
        first = {}
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            first.setdefault((lo.tobytes(), hi.tobytes()), i)
        keep = list(first.values())
    lower, upper = lower[keep], upper[keep]
    terms = []
    for j in range(2, min(cfg.bonferroni or 1, len(keep)) + 1):
        for J in itertools.combinations(range(len(keep)), j):
            lo, hi = lower[list(J)].max(axis=0), upper[list(J)].min(axis=0)
            if np.all(lo <= hi):
                terms.append((J, (-1.0) ** (j + 1) * mass(lo, hi)))
    return lower, upper, mass(lower, upper), terms


def gaussian_and_atom_configs(rng):
    """Posteriors and configs: Gaussians of 3 weights (whose boxes often
    overlap, so disjointify drops some) and of 40, under both margin scales;
    atom posteriors drawn with repeats, with a -0.0 entry."""
    for n in (3, 40):
        post = GaussianPosterior(mean=rng.normal(0, 1, n),
                                 variance=rng.uniform(0.01, 2.0, n))
        for gamma, scale, N, bonferroni in itertools.product(
                (0.0, 0.5, 2.5), ("std", "var"), (1, 3, 8), (None, 2)):
            yield post, CertifyConfig(num_samples=N, gamma=gamma,
                                      margin_scale=scale, bonferroni=bonferroni,
                                      rng_seed=int(rng.integers(100)))
    atoms = rng.normal(size=(3, 5))
    atoms[:, 0] = -0.0
    for weights in (None, [0.6, 0.3, 0.1]):
        post = SamplePosterior(samples=atoms, weights=weights)
        for N, bonferroni in itertools.product((1, 3, 8), (None, 2, 4)):
            yield post, CertifyConfig(num_samples=N, gamma=0.0,
                                      bonferroni=bonferroni, rng_seed=N)


def test_box_set_bits_equal_the_frozen_build(rng):
    dropped = 0
    for post, cfg in gaussian_and_atom_configs(rng):
        got = box_set(post, cfg)
        lower, upper, masses, terms = frozen_box_set(post, cfg)
        for a, b in ((got.boxes.lower, lower), (got.boxes.upper, upper),
                     (got.masses, masses)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert got.terms == terms and got.used == cfg.num_samples
        dropped += len(masses) < cfg.num_samples
    assert dropped > 10


def test_box_set_memory_is_under_five_stacks():
    """Draws, corners and masses share buffers: the peak of a box set is
    under 5 stacks of N x n_w doubles (the draws, which become the upper
    corner, the lower corner, two mass work arrays and n_w-sized rows)."""
    n, N = 17_285, 8
    rng = np.random.default_rng(0)
    post = GaussianPosterior(mean=rng.normal(0.0, 0.1, n),
                             variance=np.full(n, 1e-4))
    cfg = CertifyConfig(num_samples=N, gamma=2.5)
    box_set(post, cfg)
    tracemalloc.start()
    try:
        boxes = box_set(post, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(boxes.masses) == N
    assert peak < 5 * N * n * 8


def test_box_set_logs_one_debug_line(caplog):
    caplog.set_level(logging.DEBUG, logger="bnncert.certify")
    post = SamplePosterior(samples=np.array([[0.0], [1.0]]))
    boxes = box_set(post, CertifyConfig(num_samples=6))
    lines = [r for r in caplog.records
             if r.name == "bnncert.certify.box_set"]
    assert len(lines) == 1
    assert lines[0].args[:2] == (len(boxes.masses), 6) and lines[0].args[2] >= 0
    assert lines[0].getMessage().startswith(
        f"box_set: {len(boxes.masses)} of 6 boxes kept, ")
