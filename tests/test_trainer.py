import numpy as np
import pytest

from bnncert.net import Network, backprop, forward, softmax
from bnncert.posterior import GaussianPosterior, SamplePosterior
from bnncert.trainer import (HmcConfig, TrainConfig, _nll_and_grad, elbo,
                             fit_vi, make_blobs, make_cubic, make_hcas_like,
                             sample_hmc)


def row_by_row_nll_and_grad(net, w, X, Y, cfg):
    """Reference for the batched likelihood: one forward and one backprop
    per example."""
    nll, gw = 0.0, np.zeros(net.n_weights)
    for x, y in zip(X, Y):
        out = forward(net, w, x)
        if cfg.likelihood == "categorical":
            g = softmax(out)
            nll -= np.log(max(g[int(y)], 1e-300))
            g[int(y)] -= 1.0
        else:
            resid = out - np.atleast_1d(y)
            nll += 0.5 * float(resid @ resid) / cfg.noise_var
            g = resid / cfg.noise_var
        gw += backprop(net, w, x, lambda y: (0.0, g))[2]
    return nll, gw


@pytest.mark.parametrize("likelihood,n", [("categorical", 50),
                                          ("gaussian", 50),
                                          ("categorical", 0),
                                          ("gaussian", 0)])
def test_batched_likelihood_matches_row_by_row(likelihood, n):
    rng = np.random.default_rng(4)
    if likelihood == "categorical":
        net, (X, Y) = Network.dense([2, 6, 2], "tanh"), make_blobs(max(n, 2))
    else:
        net, (X, Y) = Network.dense([1, 6, 1], "tanh"), make_cubic(max(n, 2))
    X, Y = X[:n], Y[:n]
    cfg = TrainConfig(likelihood=likelihood)
    w = rng.normal(size=net.n_weights)
    nll, gw = _nll_and_grad(net, w, X, Y, cfg)
    ref_nll, ref_gw = row_by_row_nll_and_grad(net, w, X, Y, cfg)
    assert nll == pytest.approx(ref_nll, rel=1e-12, abs=0.0)
    assert np.abs(gw - ref_gw).max(initial=0) <= \
        1e-12 * np.abs(ref_gw).max(initial=0)


class TestFitVi:
    def test_blob_accuracy(self):
        X, Y = make_blobs(200, seed=1)
        net = Network.dense([2, 16, 2])
        post = fit_vi(net, (X, Y), TrainConfig(epochs=60, learning_rate=0.02),
                      seed=0)
        Xt, Yt = make_blobs(200, seed=99)
        ys = forward(net, post.mean, Xt)
        assert (ys.argmax(axis=1) == Yt).mean() >= 0.95

    def test_prior_shrinks_mean(self):
        X, Y = make_blobs(80, seed=2)
        net = Network.dense([2, 8, 2])
        norms = []
        for prior in (1.0, 0.1, 0.01):
            post = fit_vi(net, (X, Y),
                          TrainConfig(epochs=40, learning_rate=0.02,
                                      prior_variance=prior), seed=0)
            norms.append(np.linalg.norm(post.mean))
        assert norms[0] > norms[1] > norms[2]

    def test_cubic_regression_within_two_sigma(self):
        X, Y = make_cubic(200, seed=2)
        net = Network.dense([1, 32, 1], activation="tanh")
        cfg = TrainConfig(epochs=400, batch_size=50, learning_rate=0.02,
                          likelihood="gaussian", noise_var=0.05,
                          kl_weight=0.02, prior_variance=2.0)
        post = fit_vi(net, (X, Y), cfg, seed=0)
        grid = np.linspace(-1.5, 1.5, 9).reshape(-1, 1)
        rng = np.random.default_rng(0)
        ws = post.mean + post.std * rng.standard_normal((400, net.n_weights))
        preds = forward(net, ws[:, None, :], grid)[..., 0]
        sigma = np.sqrt(preds.var(axis=0) + cfg.noise_var)
        err = np.abs(preds.mean(axis=0) - grid[:, 0] ** 3)
        assert np.all(err <= 2 * sigma)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self):
        X, Y = make_cubic(30, seed=0)
        net = Network.dense([1, 8, 1], activation="tanh")
        cfg = TrainConfig(epochs=20, learning_rate=1e9, likelihood="gaussian")
        with pytest.raises(FloatingPointError, match="epoch"):
            fit_vi(net, (X, Y), cfg, seed=0)

    def test_variance_strictly_positive(self):
        X, Y = make_blobs(40, seed=3)
        net = Network.dense([2, 4, 2])
        post = fit_vi(net, (X, Y), TrainConfig(epochs=5), seed=0)
        assert np.all(post.variance > 0)

    def test_deterministic_given_seed(self):
        X, Y = make_blobs(40, seed=3)
        net = Network.dense([2, 4, 2])
        cfg = TrainConfig(epochs=5)
        a = fit_vi(net, (X, Y), cfg, seed=11)
        b = fit_vi(net, (X, Y), cfg, seed=11)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)

    def test_elbo_improves_over_training(self):
        X, Y = make_blobs(80, seed=4)
        net = Network.dense([2, 8, 2])
        rng = np.random.default_rng(0)
        init_mean = 0.05 * rng.standard_normal(net.n_weights)
        init_raw = np.full(net.n_weights, np.log(np.expm1(0.05 ** 2)))
        cfg = TrainConfig(epochs=40, learning_rate=0.02)
        post = fit_vi(net, (X, Y), cfg, seed=0)
        raw_after = np.log(np.expm1(post.variance))
        before = elbo(net, X, Y, init_mean, init_raw, cfg,
                      np.random.default_rng(5))
        after = elbo(net, X, Y, post.mean, raw_after, cfg,
                     np.random.default_rng(5))
        assert after > before

    def test_empty_dataset_rejected(self):
        net = Network.dense([2, 4, 2])
        with pytest.raises(ValueError):
            fit_vi(net, (np.zeros((0, 2)), np.zeros(0)), TrainConfig(), seed=0)


class TestSampleHmc:
    def test_prior_recovery_with_no_data(self):
        net = Network.dense([1, 1])
        cfg = HmcConfig(leapfrog_steps=10, step_size=0.2, num_samples=1000,
                        burn_in=100, prior_variance=0.5)
        post = sample_hmc(net, ([], []), cfg, seed=3)
        var = post.samples.var(axis=0)
        assert np.all(np.abs(var - 0.5) <= 0.2 * 0.5)

    def test_conjugate_linear_regression(self):
        # single linear layer y = w*x + b with Gaussian likelihood has an
        # analytic Gaussian posterior to compare against
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (40, 1))
        true_w, true_b, noise_var = 1.3, -0.4, 0.1
        Y = (true_w * X[:, 0] + true_b
             + np.sqrt(noise_var) * rng.standard_normal(40)).reshape(-1, 1)
        net = Network.dense([1, 1])
        prior_var = 0.5
        Phi = np.hstack([X, np.ones((40, 1))])
        cov = np.linalg.inv(Phi.T @ Phi / noise_var + np.eye(2) / prior_var)
        mean_analytic = cov @ Phi.T @ Y[:, 0] / noise_var
        cfg = HmcConfig(leapfrog_steps=15, step_size=0.05, num_samples=1500,
                        burn_in=300, prior_variance=prior_var)
        post = sample_hmc(net, (X, Y), cfg, seed=1, likelihood="gaussian",
                          noise_var=noise_var)
        sample_mean = post.samples.mean(axis=0)
        # generous effective-sample-size discount for autocorrelation
        se = post.samples.std(axis=0) / np.sqrt(post.samples.shape[0] / 10)
        assert np.all(np.abs(sample_mean - mean_analytic) <= 3 * se + 0.05)

    def test_tiny_step_accepts_everything(self):
        net = Network.dense([1, 1])
        cfg = HmcConfig(leapfrog_steps=5, step_size=1e-5, num_samples=50,
                        burn_in=0, prior_variance=0.5)
        post = sample_hmc(net, ([], []), cfg, seed=0)
        assert post.metadata["acceptance_rate"] > 0.99

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_low_acceptance_warns_in_metadata(self):
        X, Y = make_cubic(30, seed=0)
        net = Network.dense([1, 8, 1], activation="tanh")
        cfg = HmcConfig(leapfrog_steps=30, step_size=5.0, num_samples=30,
                        burn_in=0, prior_variance=0.5)
        post = sample_hmc(net, (X, Y), cfg, seed=0, likelihood="gaussian")
        assert post.metadata["acceptance_rate"] < 0.1
        assert "warning" in post.metadata

    def test_deterministic_given_seed(self):
        net = Network.dense([1, 1])
        cfg = HmcConfig(leapfrog_steps=5, step_size=0.1, num_samples=20,
                        burn_in=5)
        a = sample_hmc(net, ([], []), cfg, seed=7)
        b = sample_hmc(net, ([], []), cfg, seed=7)
        assert np.array_equal(a.samples, b.samples)


class TestDatasets:
    def test_blobs_shapes_and_balance(self):
        X, Y = make_blobs(100, seed=0)
        assert X.shape == (100, 2) and Y.shape == (100,)
        assert set(Y) == {0, 1}

    def test_hcas_labels_cover_all_classes(self):
        X, Y = make_hcas_like(1000, seed=0)
        assert X.shape == (1000, 4)
        assert set(Y) == {0, 1, 2, 3, 4}

    def test_cubic_tracks_truth(self):
        X, Y = make_cubic(500, seed=0, noise=0.01)
        resid = Y[:, 0] - X[:, 0] ** 3
        assert abs(resid.mean()) < 0.01 and resid.std() < 0.02

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(likelihood="poisson")
        with pytest.raises(ValueError):
            HmcConfig(step_size=-1.0)
