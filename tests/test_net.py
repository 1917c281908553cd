import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnncert.net import (LayerSpec, Network, ShapeError, backprop, forward,
                         forward_batch, softmax)


def linear_net(W, b, activation="identity"):
    """Single-layer net and its flat weight vector, for hand examples."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    layers = (LayerSpec(rows=W.shape[0], cols=W.shape[1], activation=activation),)
    # hidden layers cannot be identity; single-layer nets are final layers
    net = Network(layers=layers)
    return net, np.concatenate([W.ravel(), b])


def test_forward_identity_map():
    net, w = linear_net([[1.0]], [0.0])
    assert forward(net, w, np.array([3.0])) == pytest.approx([3.0])


def test_forward_affine():
    net, w = linear_net([[2.0]], [1.0])
    assert forward(net, w, np.array([0.5])) == pytest.approx([2.0])


def test_forward_relu_clips():
    net = Network.dense([1, 1, 1], activation="relu")
    w = net.pack([(np.array([[1.0]]), np.array([-1.0])),
                  (np.array([[1.0]]), np.array([0.0]))])
    assert forward(net, w, np.array([0.5])) == pytest.approx([0.0])


def test_forward_dimension_error_names_layer():
    net = Network.dense([2, 3, 2])
    w = np.zeros(net.n_weights)
    with pytest.raises(ShapeError, match="layer 0"):
        forward(net, w, np.zeros(3))
    with pytest.raises(ShapeError):
        forward(net, np.zeros(net.n_weights + 1), np.zeros(2))


def test_forward_deterministic():
    rng = np.random.default_rng(3)
    net = Network.dense([3, 8, 2], activation="tanh")
    w = rng.normal(size=net.n_weights)
    x = rng.normal(size=3)
    y1, y2 = forward(net, w, x), forward(net, w, x)
    assert np.array_equal(y1, y2)


def test_network_rejects_mismatched_dims():
    with pytest.raises(ShapeError):
        Network(layers=(LayerSpec(rows=3, cols=2, activation="relu"),
                        LayerSpec(rows=2, cols=4, activation="identity")))


def test_hidden_identity_rejected():
    with pytest.raises(ValueError):
        Network(layers=(LayerSpec(rows=3, cols=2, activation="identity"),
                        LayerSpec(rows=2, cols=3, activation="identity")))


def test_softmax_symmetry():
    assert softmax(np.array([0.0, 0.0])) == pytest.approx([0.5, 0.5])


def test_softmax_known_value():
    assert softmax(np.array([1.0, 0.0])) == pytest.approx([0.7311, 0.2689], abs=1e-4)


def test_softmax_constant_logits():
    for c in (-40.0, 0.0, 3.7):
        assert softmax(np.full(3, c)) == pytest.approx([1 / 3] * 3, abs=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError):
        softmax(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        softmax(np.array([np.inf, 0.0]))


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
       st.floats(-100, 100))
def test_softmax_shift_invariance(logits, c):
    y = np.array(logits)
    assert np.allclose(softmax(y + c), softmax(y), atol=1e-12)
    p = softmax(y)
    assert np.all(p > 0) and abs(p.sum() - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_pack_unpack_roundtrip(seed):
    rng = np.random.default_rng(seed)
    dims = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
    net = Network.dense(dims, activation="relu") if len(dims) > 2 \
        else Network.dense(dims, activation="relu")
    w = rng.normal(size=net.n_weights)
    assert np.array_equal(net.pack(net.unpack(w)), w)


def test_forward_batch_matches_loop():
    rng = np.random.default_rng(5)
    net = Network.dense([3, 6, 2], activation="relu")
    ws = rng.normal(size=(20, net.n_weights))
    xs = rng.normal(size=(20, 3))
    ys = forward_batch(net, ws, xs)
    for i in range(20):
        assert np.array_equal(ys[i], forward(net, ws[i], xs[i]))
    probes = rng.normal(size=(4, 3))
    yp = forward(net, ws[:, None, :], probes)
    assert yp.shape == (20, 4, 2)
    for i in range(20):
        for p in range(4):
            assert np.array_equal(yp[i, p], forward(net, ws[i], probes[p]))


def linear_loss(dy):
    """Loss dy . y summed over rows, with its constant logit gradient."""
    return lambda y: (float(np.sum(y * dy)), np.broadcast_to(dy, y.shape))


def test_backprop_value_is_loss_of_forward():
    rng = np.random.default_rng(3)
    net = Network.dense([2, 5, 3], activation="relu")
    w = rng.normal(size=net.n_weights)
    X = rng.normal(size=(4, 2))
    loss = lambda y: (np.min(y, axis=-1), np.ones_like(y))
    value, _, _ = backprop(net, w, X, loss)
    assert np.array_equal(value, loss(forward(net, w, X))[0])


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = Network.dense([2, 5, 3], activation="tanh")
    w = rng.normal(size=net.n_weights)
    x = rng.normal(size=2)
    dy = rng.normal(size=3)
    _, gx, gw = backprop(net, w, x, linear_loss(dy))
    f = lambda ww, xx: float(dy @ forward(net, ww, xx))
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2); e[i] = eps
        fd = (f(w, x + e) - f(w, x - e)) / (2 * eps)
        assert fd == pytest.approx(gx[i], abs=1e-5)
    for i in rng.choice(net.n_weights, 10, replace=False):
        e = np.zeros(net.n_weights); e[i] = eps
        fd = (f(w + e, x) - f(w - e, x)) / (2 * eps)
        assert fd == pytest.approx(gw[i], abs=1e-5)


def test_backprop_batch_matches_rows():
    rng = np.random.default_rng(11)
    net = Network.dense([3, 6, 4, 2], activation="tanh")
    w = rng.normal(size=net.n_weights)
    X = rng.normal(size=(7, 3))
    dY = rng.normal(size=(7, 2))
    value, gx, gw = backprop(net, w, X, linear_loss(dY))
    rows = [backprop(net, w, x, linear_loss(dy)) for x, dy in zip(X, dY)]
    assert gx.shape == X.shape
    assert value == pytest.approx(sum(v for v, _, _ in rows), rel=1e-12)
    for i, (_, gx_i, _) in enumerate(rows):
        assert np.allclose(gx[i], gx_i, rtol=0, atol=1e-12)
    assert np.allclose(gw, sum(gw_i for _, _, gw_i in rows), rtol=0, atol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("stacked", [False, True])
def test_input_gradient_path_equals_full_backprop(activation, stacked):
    """With the unpacked weights passed in, backprop returns full backprop's
    value and grad_x to the bit, and no weight gradient."""
    rng = np.random.default_rng(13)
    net = Network.dense([4, 9, 7, 3], activation=activation)
    w = rng.normal(size=(5, net.n_weights) if stacked else net.n_weights)
    x = rng.normal(size=(5, 6, 4) if stacked else (6, 4))
    loss = lambda y: (np.min(y, axis=-1), np.cos(y))
    value, gx, gw = backprop(net, w, x, loss)
    value_p, gx_p, gw_p = backprop(net, w, x, loss, net.unpack(w))
    assert gw.shape == w.shape and gw_p is None
    assert np.array_equal(value_p, value) and np.array_equal(gx_p, gx)
