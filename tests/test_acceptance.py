"""Acceptance gate: one test per criterion, tolerances pinned.

These are slower than the unit tests; together they should stay inside a
ten-minute budget on a laptop-class machine.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from bnncert.certify import (CertifyConfig, Task, box_set,
                             dsafe_bounds_all_classes, dsafe_lower,
                             dsafe_upper, psafe_lower, psafe_upper)
from bnncert.cli import _grid_cells
from bnncert.cli import main as cli_main
from bnncert.io import load_posterior
from bnncert.net import Network, forward
from bnncert.oracle import draw_weights, psafe_estimate
from bnncert.posterior import (GaussianPosterior, SamplePosterior, WeightBox,
                               bonferroni_bounds, box_mass)
from bnncert.propagate import ibp_forward, lbp_forward
from bnncert.search import (RadiusSearchConfig, max_robust_radius,
                            min_unrobust_radius)
from bnncert.spec import InputBox, argmax_spec, contains, linf_ball
from bnncert.trainer import hcas_label

from conftest import count_violations, random_boxes, random_net

S01 = argmax_spec(0, 2)


def small_gaussian_bnn(rng, n_in=2, n_out=2, var=0.02):
    net = random_net(rng, n_layers=1, min_width=4, max_width=10,
                     n_in=n_in, n_out=n_out)
    post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                             variance=np.full(net.n_weights, var))
    return net, post


def test_criterion_1_propagation_soundness_fuzz():
    """50 random nets, 10^5 (x, w) draws each: zero IBP/LBP violations."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for i in range(50):
        net = random_net(rng, min_width=4, max_width=32)
        T, R = random_boxes(rng, net)
        for bounds in (ibp_forward(net, T, R), lbp_forward(net, T, R)):
            yL, yU = bounds
            assert count_violations(net, T, R, yL, yU, 100_000, rng) == 0, \
                f"soundness violation on instance {i}"
    assert time.perf_counter() - t0 <= 300.0


def test_criterion_2_psafe_sandwich():
    """psafe bounds bracket the MC estimate with 99% CP slack, 50 BNNs."""
    rng = np.random.default_rng(23)
    for i in range(50):
        net, post = small_gaussian_bnn(rng)
        T = linf_ball(rng.uniform(-0.4, 0.4, net.input_dim),
                      float(rng.uniform(0.02, 0.15)))
        cfg = CertifyConfig(num_samples=6, gamma=1.5, method="lbp", rng_seed=i)
        lo = psafe_lower(net, post, T, S01, cfg).value
        up = psafe_upper(net, post, T, S01, cfg).value
        est, ci_lo, ci_hi = psafe_estimate(net, post, T, S01,
                                           n_weights=10_000, n_grid=64,
                                           seed=1000 + i, confidence=0.99,
                                           n_attacks=4)
        assert lo <= ci_hi + 1e-9, f"instance {i}: lower {lo} > CI hi {ci_hi}"
        assert up >= ci_lo - 1e-9, f"instance {i}: upper {up} < CI lo {ci_lo}"


def _predictive_mean_stats(net, post, probes, n_weights, seed, chunk=2048):
    """Per-probe softmax-mean estimates and standard errors, vectorized."""
    total = np.zeros((probes.shape[0], net.output_dim))
    total_sq = np.zeros_like(total)
    done = 0
    while done < n_weights:
        m = min(chunk, n_weights - done)
        ws = draw_weights(post, m, (seed, done))
        ys = forward(net, ws[:, None, :], probes)       # (m, P, out)
        shift = ys - ys.max(axis=2, keepdims=True)
        e = np.exp(shift)
        p = e / e.sum(axis=2, keepdims=True)
        total += p.sum(axis=0)
        total_sq += (p ** 2).sum(axis=0)
        done += m
    mean = total / n_weights
    var = np.maximum(total_sq / n_weights - mean ** 2, 0.0)
    return mean, np.sqrt(var / n_weights)


def test_criterion_3_dsafe_sandwich():
    """dsafe bounds bracket the probed predictive-mean estimates, 50 BNNs."""
    rng = np.random.default_rng(37)
    for i in range(50):
        net, post = small_gaussian_bnn(rng)
        T = linf_ball(rng.uniform(-0.4, 0.4, net.input_dim),
                      float(rng.uniform(0.02, 0.1)))
        cfg = CertifyConfig(num_samples=6, gamma=1.5, method="lbp", rng_seed=i)
        c = int(rng.integers(0, net.output_dim))
        task = Task.classification(c)
        lo = dsafe_lower(net, post, T, cfg, task).value
        up = dsafe_upper(net, post, T, cfg, task).value
        probes = np.vstack([T.center[None, :], T.lower[None, :],
                            T.upper[None, :],
                            T.sample(np.random.default_rng(2000 + i), 29)])
        mean, se = _predictive_mean_stats(net, post, probes, 10_000, 3000 + i)
        slack = 3.0 * se[:, c]
        assert lo <= np.min(mean[:, c] + slack) + 1e-9, f"instance {i}"
        assert up >= np.max(mean[:, c] - slack) - 1e-9, f"instance {i}"


def test_criterion_4_gaussian_box_integral():
    """box_mass matches 1-D quadrature products to 1e-6 on 100 instances."""
    std = GaussianPosterior(mean=np.zeros(1), variance=np.ones(1))
    box = WeightBox(lower=np.array([-1.0]), upper=np.array([1.0]))
    assert box_mass(std, box) == pytest.approx(0.682689, abs=1e-6)

    rng = np.random.default_rng(41)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        mean = rng.normal(0, 2, n)
        var = rng.uniform(0.05, 4, n)
        lo = rng.normal(0, 2, n)
        hi = lo + rng.uniform(0, 5, n)
        post = GaussianPosterior(mean=mean, variance=var)
        want = 1.0
        for j in range(n):
            val, _ = quad(lambda t: norm.pdf(t, mean[j], np.sqrt(var[j])),
                          lo[j], hi[j])
            want *= val
        got = box_mass(post, WeightBox(lower=lo, upper=hi))
        assert got == pytest.approx(want, abs=1e-6)


def test_criterion_5_bonferroni_brackets_exact_union():
    """Truncated bounds bracket exact inclusion-exclusion; full depth exact."""
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 3))
        post = GaussianPosterior(mean=np.zeros(dim), variance=np.ones(dim))
        boxes = []
        for _ in range(n):
            lo = rng.normal(0, 1, dim)
            boxes.append(WeightBox(lower=lo, upper=lo + rng.uniform(0.3, 2, dim)))
        exact = 0.0
        for r in range(1, n + 1):
            for combo in itertools.combinations(range(n), r):
                lo = np.maximum.reduce([boxes[k].lower for k in combo])
                hi = np.minimum.reduce([boxes[k].upper for k in combo])
                if np.all(lo <= hi):
                    exact += (-1) ** (r + 1) * box_mass(
                        post, WeightBox(lower=lo, upper=hi))
        for dl, du in ((2, 1), (4, 3)):
            b_lo, b_up = bonferroni_bounds(boxes, post, dl, du)
            assert b_lo <= exact + 1e-10 and exact <= b_up + 1e-10
        full_dl = n if n % 2 == 0 else n + 1
        full_du = n if n % 2 == 1 else n + 1
        f_lo, f_up = bonferroni_bounds(boxes, post, full_dl, full_du)
        assert f_lo == pytest.approx(exact, abs=1e-10)
        assert f_up == pytest.approx(exact, abs=1e-10)


def test_criterion_6_sample_posterior_exactness():
    """With gamma=0 on atom posteriors over linear nets and a single-output
    threshold spec (where interval propagation is exact), the two bounds
    recover the exact safe/unsafe atom fractions to 1e-12."""
    from bnncert.spec import OutputSpec
    rng = np.random.default_rng(61)
    net = Network.dense([2, 1])
    S = OutputSpec(C=np.array([[1.0]]), d=np.array([0.0]))  # y0 >= 0
    for i in range(20):
        M = int(rng.choice([4, 8]))
        atoms = rng.normal(0, 1.0, (M, net.n_weights))
        post = SamplePosterior(samples=atoms)
        c = rng.uniform(-0.5, 0.5, 2)
        T = InputBox(lower=c - 0.3, upper=c + 0.3)

        # exact per-atom check: the linear output is minimized at a corner
        safe_frac = 0.0
        for w in atoms:
            W, b = net.unpack(w)[0]
            worst = np.where(W[0] >= 0, W[0] * T.lower,
                             W[0] * T.upper).sum() + b[0]
            safe_frac += (worst >= 0) / M

        cfg = CertifyConfig(num_samples=64, gamma=0.0, method="ibp",
                            rng_seed=i)
        lo = psafe_lower(net, post, T, S, cfg)
        up = psafe_upper(net, post, T, S, cfg)
        assert lo.covered_mass == pytest.approx(1.0, abs=1e-12), \
            "sampling missed an atom; bump num_samples"
        assert lo.value == pytest.approx(safe_frac, abs=1e-12)
        assert 1.0 - up.value == pytest.approx(1.0 - safe_frac, abs=1e-12)


def test_criterion_7_degenerate_collapse():
    """Point posterior + point input: all four bounds collapse within 1e-9."""
    rng = np.random.default_rng(71)
    from bnncert.net import softmax
    done = 0
    while done < 20:
        net = random_net(rng, max_width=10, n_out=2)
        w = rng.normal(0, 1.0, net.n_weights)
        x = rng.normal(0, 0.5, net.input_dim)
        y = forward(net, w, x)
        if abs(y[0] - y[1]) < 1e-3:
            continue            # stay away from the decision boundary
        done += 1
        post = SamplePosterior(samples=w[None, :])
        T = InputBox(lower=x, upper=x)
        cfg = CertifyConfig(num_samples=1, gamma=0.0, method="ibp", rng_seed=0)
        indicator = 1.0 if y[0] >= y[1] else 0.0
        assert psafe_lower(net, post, T, S01, cfg).value == pytest.approx(
            indicator, abs=1e-9)
        assert psafe_upper(net, post, T, S01, cfg).value == pytest.approx(
            indicator, abs=1e-9)
        want = softmax(y)[0]
        task = Task.classification(0)
        assert dsafe_lower(net, post, T, cfg, task).value == pytest.approx(
            want, abs=1e-9)
        assert dsafe_upper(net, post, T, cfg, task).value == pytest.approx(
            want, abs=1e-9)


def test_criterion_8_radius_ordering():
    """MaxRR <= MinUR over 30 instances; MaxRR non-increasing in tau_safe."""
    rng = np.random.default_rng(83)
    for i in range(30):
        net, post = small_gaussian_bnn(rng, var=1e-4)
        x = rng.uniform(-0.3, 0.3, net.input_dim)
        cfg = CertifyConfig(num_samples=3, gamma=3.0, method="ibp", rng_seed=i)
        scfg = RadiusSearchConfig(eps_start_safe=0.05, eps_start_unsafe=0.25,
                                  step=0.05, eps_cap=0.5)
        maxrr = max_robust_radius(net, post, x, S01, cfg, scfg).radius
        minur = min_unrobust_radius(net, post, x, S01, cfg, scfg)
        if not minur.vacuous:
            assert maxrr <= minur.radius + 1e-12, f"instance {i}"

    net, post = small_gaussian_bnn(np.random.default_rng(84), var=1e-4)
    x = np.zeros(net.input_dim)
    cfg = CertifyConfig(num_samples=3, gamma=3.0, method="ibp", rng_seed=0)
    radii = []
    for tau in (0.2, 0.5, 0.8, 0.95):
        scfg = RadiusSearchConfig(tau_safe=tau, eps_start_safe=0.05,
                                  eps_start_unsafe=0.25, step=0.05,
                                  eps_cap=0.5)
        radii.append(max_robust_radius(net, post, x, S01, cfg, scfg).radius)
    assert all(a >= b for a, b in zip(radii, radii[1:]))


def test_criterion_9_timing_hcas_sized():
    """4-input, 125-hidden, 5-output psafe_lower with N=5 LBP: <= 5 s for a
    Gaussian posterior, <= 1 s for a sample posterior."""
    rng = np.random.default_rng(97)
    net = Network.dense([4, 125, 5])
    S = argmax_spec(0, 5)
    T = linf_ball(np.zeros(4), 0.01)

    post = GaussianPosterior(mean=rng.normal(0, 0.3, net.n_weights),
                             variance=np.full(net.n_weights, 1e-3))
    cfg = CertifyConfig(num_samples=5, gamma=2.5, method="lbp", rng_seed=0)
    t0 = time.perf_counter()
    psafe_lower(net, post, T, S, cfg)
    vi_time = time.perf_counter() - t0
    assert vi_time <= 5.0, f"VI-posterior certification took {vi_time:.2f}s"

    hmc_post = SamplePosterior(samples=rng.normal(0, 0.3, (20, net.n_weights)))
    cfg = CertifyConfig(num_samples=5, gamma=0.0, method="lbp", rng_seed=0)
    t0 = time.perf_counter()
    psafe_lower(net, hmc_post, T, S, cfg)
    hmc_time = time.perf_counter() - t0
    assert hmc_time <= 1.0, f"HMC-posterior certification took {hmc_time:.2f}s"


def test_criterion_10_end_to_end_pattern(tmp_path, capsys):
    """Train on HCAS-like data, sweep a 100-cell grid, verify the verdict
    partition; the bundled validation suite passes."""
    post_path = str(tmp_path / "hcas_post.json")
    code = cli_main(["train", "--dataset", "hcas", "--hidden", "8",
                     "--epochs", "30", "--n-data", "300", "--seed", "0",
                     "--out", post_path])
    assert code == 0
    capsys.readouterr()

    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({
        "grid": [[-1, 1, 0.2], [-1, 1, 0.2], [-1, 1, 2.0], [-1, 1, 2.0]],
        "label_rule": "hcas"}))
    out_path = str(tmp_path / "sweep.csv")
    code = cli_main(["sweep", "--posterior", post_path,
                     "--sweep-spec", sweep_path.as_posix(),
                     "--spec", "unused", "--samples", "3", "--gamma", "2.5",
                     "--out", out_path])
    assert code == 0
    lines = open(out_path).read().strip().splitlines()
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 100
    counts = {"safe": 0, "unsafe": 0, "uncertifiable": 0}
    for r in rows:
        counts[r[3]] += 1
    assert sum(counts.values()) == 100
    footer = lines[-1]
    for k, v in counts.items():
        assert f"{k}={v}" in footer
    assert "tau_safe=0.98" in lines[-2] and "tau_unsafe=0.05" in lines[-2]

    code = cli_main(["validate", "--cases", "3", "--seed", "0",
                     "--out", str(tmp_path / "validate.json")])
    assert code == 0


def test_cold_hcas_fixture_certifies_soundly(tmp_path):
    """The paper's sweep on a cold HCAS posterior (narrow enough for boxes
    of gamma 6.5 to certify): some cell is certified safe, and the bounds
    bracket MC estimates, P_safe on every cell and D_safe on a few."""
    post_path = str(tmp_path / "cold.json")
    assert cli_main(["train", "--dataset", "hcas", "--hidden", "125",
                     "--n-data", "3000", "--epochs", "40", "--kl-weight",
                     "1e-4", "--seed", "1", "--out", post_path]) == 0
    grid = [[-1, 1, 0.2], [-1, 1, 0.2], [-1, 1, 2.0], [-1, 1, 2.0]]
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps({"grid": grid, "label_rule": "hcas"}))
    out_path = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--posterior", post_path, "--spec", "unused",
                     "--sweep-spec", str(sweep_path), "--samples", "4",
                     "--gamma", "6.5", "--out", str(out_path)]) == 0
    rows = [l.split(",") for l in out_path.read_text().splitlines()[1:]
            if not l.startswith("#")]
    assert len(rows) == 100
    assert any(r[3] == "safe" for r in rows)

    net, post = load_posterior(post_path)
    T = _grid_cells(grid)
    labels = hcas_label(T.center)
    S = [argmax_spec(int(c), net.output_dim) for c in labels]
    cfg = CertifyConfig(num_samples=4, gamma=6.5)
    boxes = box_set(post, cfg)
    lowers = psafe_lower(net, post, T, S, cfg, boxes)
    uppers = psafe_upper(net, post, T, S, cfg, boxes)
    assert [(f"{lo.value:.6f}", f"{up.value:.6f}") for lo, up in
            zip(lowers, uppers)] == [(r[1], r[2]) for r in rows]
    cells = [InputBox(lower=lo, upper=hi) for lo, hi in zip(T.lower, T.upper)]
    for i, (Ti, Si, lo, up) in enumerate(zip(cells, S, lowers, uppers)):
        _, ci_lo, ci_hi = psafe_estimate(net, post, Ti, Si, n_weights=300,
                                         n_grid=32, seed=1000 + i)
        assert lo.value <= ci_hi + 1e-9, f"cell {i}: lower {lo.value} > {ci_hi}"
        assert up.value >= ci_lo - 1e-9, f"cell {i}: upper {up.value} < {ci_lo}"

    dl, du = dsafe_bounds_all_classes(net, post, T, cfg, boxes)
    safe = next(i for i, r in enumerate(rows) if r[3] == "safe")
    for i in sorted({0, 33, 66, 99, safe}):
        Ti = cells[i]
        probes = np.vstack([Ti.center[None, :], Ti.lower[None, :],
                            Ti.upper[None, :],
                            Ti.sample(np.random.default_rng(2000 + i), 13)])
        mean, se = _predictive_mean_stats(net, post, probes, 2000, 3000 + i)
        slack = 3.0 * se
        assert np.all(dl[i] <= np.min(mean + slack, axis=0) + 1e-9), f"cell {i}"
        assert np.all(du[i] >= np.max(mean - slack, axis=0) - 1e-9), f"cell {i}"
