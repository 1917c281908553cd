import json

import numpy as np
import pytest

from bnncert.io import (FileFormatError, load_posterior, load_spec,
                        save_posterior, save_spec)
from bnncert.net import Network, ShapeError
from bnncert.posterior import GaussianPosterior, SamplePosterior


def test_gaussian_roundtrip_bit_exact(tmp_path, rng):
    net = Network.dense([3, 7, 2], activation="tanh")
    post = GaussianPosterior(mean=rng.normal(size=net.n_weights),
                             variance=rng.uniform(0.01, 1, net.n_weights))
    path = tmp_path / "p.json"
    save_posterior(path, net, post)
    net2, post2 = load_posterior(path)
    assert net2 == net
    assert np.array_equal(post2.mean, post.mean)
    assert np.array_equal(post2.variance, post.variance)


def test_sample_roundtrip(tmp_path, rng):
    net = Network.dense([2, 3, 2])
    post = SamplePosterior(samples=rng.normal(size=(5, net.n_weights)),
                           metadata={"acceptance_rate": 0.8})
    path = tmp_path / "p.json"
    save_posterior(path, net, post)
    _, post2 = load_posterior(path)
    assert np.array_equal(post2.samples, post.samples)
    assert post2.metadata["acceptance_rate"] == 0.8


def test_malformed_posterior_raises(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("{not json")
    with pytest.raises(FileFormatError):
        load_posterior(path)
    path.write_text(json.dumps({"kind": "gaussian"}))
    with pytest.raises(FileFormatError):
        load_posterior(path)


def test_non_finite_posterior_is_format_error(tmp_path):
    path = tmp_path / "p.json"
    save_posterior(path, Network.dense([1, 1]),
                   GaussianPosterior(mean=np.zeros(2), variance=np.ones(2)))
    doc = json.loads(path.read_text())
    doc["mean"][0] = float("nan")
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="finite"):
        load_posterior(path)


def test_posterior_arch_mismatch(tmp_path):
    net = Network.dense([2, 2])
    post = GaussianPosterior(mean=np.zeros(10), variance=np.ones(10))
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "arch": {"layers": [{"rows": 2, "cols": 2,
                             "activation": "identity", "has_bias": True}]},
        "kind": "gaussian", "mean": [0.0] * 10, "variance": [1.0] * 10}))
    with pytest.raises(ShapeError):
        load_posterior(path)


def test_spec_with_constraints(tmp_path):
    path = tmp_path / "s.json"
    save_spec(path, {"center": [0.0], "epsilon": 0.5,
                     "constraints": {"C": [[1.0, -1.0]], "d": [0.0]}})
    T, S, meta = load_spec(path)
    assert T.lower == pytest.approx([-0.5])
    assert S.C.shape == (1, 2)


def test_spec_true_class_needs_output_count(tmp_path):
    path = tmp_path / "s.json"
    save_spec(path, {"center": [0.0], "epsilon": 0.1, "true_class": 1})
    with pytest.raises(FileFormatError):
        load_spec(path)
    T, S, meta = load_spec(path, n_outputs=3)
    assert S.C.shape == (2, 3) and meta["true_class"] == 1


def test_spec_missing_fields(tmp_path):
    path = tmp_path / "s.json"
    save_spec(path, {"epsilon": 0.1})
    with pytest.raises(FileFormatError):
        load_spec(path)
    save_spec(path, {"center": [0.0], "epsilon": 0.1})
    with pytest.raises(FileFormatError):
        load_spec(path, n_outputs=2)
