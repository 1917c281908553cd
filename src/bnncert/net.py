"""Feed-forward network description and deterministic evaluation.

Weight vectors are flat arrays in a fixed canonical order: layer 0 weights
(row-major), layer 0 biases, layer 1 weights, ... Every other module (posterior
files, weight boxes, bound propagation) indexes the same parameter space
through this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")


class ShapeError(ValueError):
    """Dimension mismatch between declared architecture and supplied data."""


@dataclass(frozen=True)
class LayerSpec:
    rows: int
    cols: int
    activation: str = "identity"
    has_bias: bool = True

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ShapeError(f"layer shape ({self.rows}, {self.cols}) must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def n_params(self) -> int:
        return self.rows * self.cols + (self.rows if self.has_bias else 0)


@dataclass(frozen=True)
class Network:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("a network needs at least one layer")
        for k in range(len(self.layers) - 1):
            if self.layers[k].rows != self.layers[k + 1].cols:
                raise ShapeError(
                    f"layer {k} outputs {self.layers[k].rows} units but layer "
                    f"{k + 1} expects {self.layers[k + 1].cols}"
                )
            if self.layers[k].activation == "identity":
                raise ValueError(f"hidden layer {k} must use relu or tanh")
        if self.layers[-1].activation != "identity":
            raise ValueError("final layer activation must be identity; "
                             "softmax/decision rules are applied downstream")

    @property
    def input_dim(self) -> int:
        return self.layers[0].cols

    @property
    def output_dim(self) -> int:
        return self.layers[-1].rows

    @property
    def n_weights(self) -> int:
        return sum(l.n_params for l in self.layers)

    @staticmethod
    def dense(dims: list[int], activation: str = "relu") -> "Network":
        """Fully-connected net with the given unit counts, e.g. [4, 16, 5]."""
        if len(dims) < 2:
            raise ShapeError("need at least input and output dims")
        layers = []
        for k in range(len(dims) - 1):
            act = activation if k < len(dims) - 2 else "identity"
            layers.append(LayerSpec(rows=dims[k + 1], cols=dims[k], activation=act))
        return Network(layers=tuple(layers))

    def param_slices(self) -> list[tuple[slice, slice | None]]:
        """Per-layer (weight, bias) slices into the canonical flat vector."""
        out = []
        ofs = 0
        for l in self.layers:
            w = slice(ofs, ofs + l.rows * l.cols)
            ofs += l.rows * l.cols
            b = None
            if l.has_bias:
                b = slice(ofs, ofs + l.rows)
                ofs += l.rows
            out.append((w, b))
        return out

    def unpack(self, w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Split a flat weight vector into per-layer (W, b) arrays.

        Leading batch axes on ``w`` are preserved: shape (..., n_w) unpacks
        to W of shape (..., rows, cols) and b of shape (..., rows).
        """
        w = np.asarray(w, dtype=float)
        if w.shape[-1] != self.n_weights:
            raise ShapeError(
                f"weight vector has {w.shape[-1]} entries, network needs {self.n_weights}"
            )
        out = []
        for l, (ws, bs) in zip(self.layers, self.param_slices()):
            W = w[..., ws].reshape(*w.shape[:-1], l.rows, l.cols)
            if bs is not None:
                b = w[..., bs]
            else:
                b = np.zeros((*w.shape[:-1], l.rows))
            out.append((W, b))
        return out

    def pack(self, params: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Inverse of unpack: W of shape (..., rows, cols) and b of shape
        (..., rows) pack to (..., n_w)."""
        pieces = []
        for l, (W, b) in zip(self.layers, params):
            W = np.asarray(W, dtype=float)
            pieces.append(W.reshape(*W.shape[:-2], l.rows * l.cols))
            if l.has_bias:
                pieces.append(np.asarray(b, dtype=float))
        return np.concatenate(pieces, axis=-1)


def activate(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "identity":
        return x
    raise ValueError(f"unknown activation {kind!r}")


def activate_deriv(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return (x > 0.0).astype(float)
    if kind == "tanh":
        return 1.0 - np.tanh(x) ** 2
    if kind == "identity":
        return np.ones_like(x)
    raise ValueError(f"unknown activation {kind!r}")


def _trace(net: Network, params, x: np.ndarray):
    """The one layer loop, over per-layer (W, b) arrays: pre- and
    post-activations of every layer, for ``forward`` and ``backprop``."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.input_dim:
        raise ShapeError(f"input has {x.shape[-1]} entries, layer 0 expects {net.input_dim}")
    zetas, zs = [], [x]
    z = x
    for k, (W, b) in enumerate(params):
        zeta = (W @ z[..., None])[..., 0] + b
        zetas.append(zeta)
        z = activate(net.layers[k].activation, zeta) if k < len(net.layers) - 1 else zeta
        zs.append(z)
    return zetas, zs


def forward(net: Network, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Final logits of the network.

    Leading axes of ``w`` (..., n_w) and ``x`` (..., n_in) broadcast against
    each other: one weight on a batch of inputs, weight i on input i, or
    ``w[:, None, :]`` on every probe. Each row is computed as the
    matrix-vector product ``W @ z``, so a row's result does not depend on
    the batch it travels in.
    """
    return _trace(net, net.unpack(w), x)[1][-1]


forward_batch = forward


def backprop(net: Network, w: np.ndarray, x: np.ndarray, loss, params=None):
    """A loss of the logits and its gradients, from one forward pass.

    ``loss(logits) -> (value, dvalue/dlogits)``. ``x`` is one input (n_in,)
    or a batch (B, n_in) at the single weight vector ``w``; or ``w`` stacks
    K weight vectors (K, n_w) and ``x`` is (K, B, n_in), batch k at w[k].
    Returns (value, grad_x, grad_w): grad_x is shaped like x, and grad_w is
    shaped like w, each weight vector summing the contributions of its
    batch rows.

    ``params``, the list ``net.unpack(w)`` returns, asks for the input
    gradient only: the pass reuses those matrices, skips the weight
    gradient and returns None for grad_w, with value and grad_x unchanged
    to the bit. A PGD step takes this path, unpacking once per attack.
    """
    w = np.asarray(w, dtype=float)
    lead = w.shape[:-1]
    grads = None
    if params is None:
        params = net.unpack(w)
        grads = [None] * len(net.layers)
    # Stacked weights meet their (K, B, .) batch through a new batch axis.
    zetas, zs = _trace(net, [(W[..., None, :, :], b[..., None, :])
                             for W, b in params] if lead else params, x)
    value, delta = loss(zs[-1])
    for k in range(len(net.layers) - 1, -1, -1):
        if grads is not None:
            # Stacked weights are already (K, B, .); a single weight vector
            # sums over every batch row, whatever the shape of x.
            rows = delta if lead else delta.reshape(-1, delta.shape[-1])
            z = zs[k] if lead else zs[k].reshape(-1, zs[k].shape[-1])
            grads[k] = (rows.swapaxes(-1, -2) @ z, rows.sum(axis=-2))
        delta = delta @ params[k][0]
        if k > 0:
            delta = delta * activate_deriv(net.layers[k - 1].activation, zetas[k - 1])
    return value, delta, None if grads is None else net.pack(grads)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax along the last axis."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise ValueError("softmax requires finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
