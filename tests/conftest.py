import numpy as np
import pytest

from bnncert.net import Network, forward
from bnncert.posterior import WeightBox
from bnncert.spec import InputBox


def random_net(rng, n_layers=None, min_width=4, max_width=32,
               n_in=None, n_out=None, activation=None):
    """Random small feed-forward net with a random hidden activation, unless
    one is given."""
    if n_layers is None:
        n_layers = int(rng.integers(1, 4))
    dims = [n_in or int(rng.integers(2, 6))]
    dims += [int(rng.integers(min_width, max_width + 1)) for _ in range(n_layers)]
    dims.append(n_out or int(rng.integers(2, 6)))
    act = activation or str(rng.choice(["relu", "tanh"]))
    return Network.dense(dims, activation=act)


def random_boxes(rng, net, x_scale=0.5, x_width=0.3, w_scale=1.0, w_width=0.2):
    """A random (InputBox, WeightBox) pair sized for a given network."""
    xc = rng.uniform(-x_scale, x_scale, net.input_dim)
    xw = rng.uniform(0, x_width, net.input_dim)
    wc = rng.normal(0, w_scale, net.n_weights)
    ww = rng.uniform(0, w_width, net.n_weights)
    return (InputBox(lower=xc - xw, upper=xc + xw),
            WeightBox(lower=wc - ww, upper=wc + ww))


def count_violations(net, T, R, yL, yU, n_draws, rng, tol=0.0, chunk=10_000):
    """Sampled soundness check: how many (x, w) draws escape [yL, yU]."""
    bad = 0
    left = n_draws
    while left > 0:
        m = min(chunk, left)
        xs = rng.uniform(T.lower, T.upper, size=(m, net.input_dim))
        ws = rng.uniform(R.lower, R.upper, size=(m, net.n_weights))
        ys = forward(net, ws, xs)
        bad += int(np.sum(np.any((ys < yL - tol) | (ys > yU + tol), axis=1)))
        left -= m
    return bad


@pytest.fixture
def rng():
    return np.random.default_rng(0)
