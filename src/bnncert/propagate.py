"""Joint input/weight bound propagation.

Both methods compute output boxes [yL, yU] that are sound for every input in
an input box T and every weight vector in a weight box R:

* ``ibp_forward`` propagates intervals, bounding each bilinear monomial
  W_ij * z_j by the extreme corner products of its rectangle.
* ``lbp_forward`` maintains, per neuron, linear bounding functions (LBFs) in
  the input x and in all weight matrices, composing activation relaxations
  with McCormick under/over-estimators of the bilinear terms layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import Network, ShapeError, activate
from .posterior import WeightBox
from .spec import InputBox


def _unpack_box(net: Network, R: WeightBox):
    """Per-layer (WL, WU, bL, bU) arrays from a flat weight box."""
    if R.lower.shape[0] != net.n_weights:
        raise ShapeError(
            f"weight box has {R.lower.shape[0]} entries, network needs {net.n_weights}"
        )
    lows = net.unpack(R.lower)
    highs = net.unpack(R.upper)
    return [(wl, wu, bl, bu) for (wl, bl), (wu, bu) in zip(lows, highs)]


def _bilinear_interval(WL, WU, bL, bU, zL, zU):
    """Interval of W z + b when both W and z live in boxes.

    Each monomial attains its extremes at a corner of
    [WL_ij, WU_ij] x [zL_j, zU_j].
    """
    corners = np.stack([WL * zL, WL * zU, WU * zL, WU * zU])
    tL = corners.min(axis=0)
    tU = corners.max(axis=0)
    return tL.sum(axis=1) + bL, tU.sum(axis=1) + bU


def ibp_layer_intervals(net: Network, T: InputBox, R: WeightBox):
    """Pre-activation intervals (zetaL, zetaU) for every layer, last included."""
    if T.dim != net.input_dim:
        raise ShapeError(f"input box dim {T.dim} != network input dim {net.input_dim}")
    zL, zU = T.lower, T.upper
    pre = []
    for k, (WL, WU, bL, bU) in enumerate(_unpack_box(net, R)):
        zetaL, zetaU = _bilinear_interval(WL, WU, bL, bU, zL, zU)
        pre.append((zetaL, zetaU))
        if k < len(net.layers) - 1:
            act = net.layers[k].activation
            zL, zU = activate(act, zetaL), activate(act, zetaU)
    return pre


def ibp_forward(net: Network, T: InputBox, R: WeightBox):
    """Output bounding box via interval bound propagation."""
    zetaL, zetaU = ibp_layer_intervals(net, T, R)[-1]
    return zetaL, zetaU


# ---------------------------------------------------------------------------
# Activation relaxations


def _tanh_sound_intercepts(zl, zu, alpha):
    """Extremes of tanh(z) - alpha*z over [zl, zu], solved in closed form.

    For any slope alpha the stationary points satisfy 1 - tanh(z)^2 = alpha,
    so the tightest sound intercepts can be computed exactly; this makes the
    relaxation sound regardless of how the slope was chosen.
    """
    cands = [zl, zu]
    if 0.0 < alpha < 1.0:
        zstar = np.arctanh(np.sqrt(1.0 - alpha))
        for z in (zstar, -zstar):
            if zl < z < zu:
                cands.append(z)
    vals = [np.tanh(z) - alpha * z for z in cands]
    return min(vals), max(vals)


def _tanh_tangent_slope(anchor, lo, hi, iters=60):
    """Slope of the line through (anchor, tanh(anchor)) tangent to tanh at a
    point inside [lo, hi], found by bisection on the tangency residual."""
    def residual(d):
        return np.tanh(d) + (1.0 - np.tanh(d) ** 2) * (anchor - d) - np.tanh(anchor)

    a, b = lo, hi
    fa, fb = residual(a), residual(b)
    if fa * fb > 0:
        return None
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = residual(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    d = 0.5 * (a + b)
    return 1.0 - np.tanh(d) ** 2


def _relax_tanh(zl, zu):
    if zu - zl < 1e-12:
        mid = 0.5 * (zl + zu)
        val = np.tanh(mid)
        return 0.0, val, 0.0, val
    chord = (np.tanh(zu) - np.tanh(zl)) / (zu - zl)
    if zl >= 0.0:
        # Concave region: chord below, tangent above.
        aL, aU = chord, 1.0 - np.tanh(0.5 * (zl + zu)) ** 2
    elif zu <= 0.0:
        # Convex region: tangent below, chord above.
        aL, aU = 1.0 - np.tanh(0.5 * (zl + zu)) ** 2, chord
    else:
        # Mixed sign: tangent through the far endpoint on each side; fall
        # back to a flat line (constant bound) when no tangent point exists.
        aU = _tanh_tangent_slope(zl, 0.0, max(zu, 20.0))
        aL = _tanh_tangent_slope(zu, min(zl, -20.0), 0.0)
        aU = 0.0 if aU is None else aU
        aL = 0.0 if aL is None else aL
    bL, _ = _tanh_sound_intercepts(zl, zu, aL)
    _, bU = _tanh_sound_intercepts(zl, zu, aU)
    return aL, bL, aU, bU


def relax_activation(kind: str, zl: float, zu: float):
    """Coefficients (alphaL, betaL, alphaU, betaU) with
    alphaL*z + betaL <= sigma(z) <= alphaU*z + betaU on [zl, zu]."""
    if zl > zu:
        raise ValueError("empty pre-activation interval")
    if kind == "identity":
        return 1.0, 0.0, 1.0, 0.0
    if kind == "relu":
        if zl >= 0.0:
            return 1.0, 0.0, 1.0, 0.0
        if zu <= 0.0:
            return 0.0, 0.0, 0.0, 0.0
        aU = zu / (zu - zl)
        bU = -zl * zu / (zu - zl)
        aL = 1.0 if zu >= -zl else 0.0
        return aL, 0.0, aU, bU
    if kind == "tanh":
        return _relax_tanh(zl, zu)
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# Linear bound propagation


@dataclass
class LinearBoundingFunction:
    """A bound of the form mu . x + sum_l <nu[l], W^(l)> + lam, one row per
    neuron of the current layer."""

    mu: np.ndarray              # (m, n_in)
    nu: list[np.ndarray]        # nu[l]: (m, rows_l, cols_l)
    lam: np.ndarray             # (m,)


def _lbf_extreme(f: LinearBoundingFunction, T: InputBox, wboxes, minimize: bool):
    """Analytic optimum of each LBF row over the input and weight boxes."""
    if minimize:
        lo_x, hi_x = T.lower, T.upper
    else:
        lo_x, hi_x = T.upper, T.lower
    total = f.lam + np.where(f.mu >= 0, f.mu * lo_x, f.mu * hi_x).sum(axis=1)
    for nu_l, (WL, WU, _, _) in zip(f.nu, wboxes):
        if minimize:
            contrib = np.where(nu_l >= 0, nu_l * WL, nu_l * WU)
        else:
            contrib = np.where(nu_l >= 0, nu_l * WU, nu_l * WL)
        total = total + contrib.sum(axis=(1, 2))
    return total


def _scale_rows(fL: LinearBoundingFunction, fU: LinearBoundingFunction,
                alpha: np.ndarray, beta: np.ndarray, lower_side: bool):
    """Per-row composition alpha_j * f_j + beta_j, picking the lower or upper
    source LBF by the sign of alpha_j (linear-transform lemma)."""
    pick_L = (alpha >= 0) if lower_side else (alpha < 0)
    a = alpha[:, None]
    mu = np.where(pick_L[:, None], a * fL.mu, a * fU.mu)
    nu = []
    for nuL, nuU in zip(fL.nu, fU.nu):
        sel = pick_L[:, None, None]
        nu.append(np.where(sel, alpha[:, None, None] * nuL,
                           alpha[:, None, None] * nuU))
    lam = np.where(pick_L, alpha * fL.lam, alpha * fU.lam) + beta
    return LinearBoundingFunction(mu=mu, nu=nu, lam=lam)


def _combine(A_pos, A_neg, fL: LinearBoundingFunction, fU: LinearBoundingFunction):
    """Row-mix LBFs: row i gets sum_j A_ij * (lower LBF of z_j if A_ij >= 0
    else upper LBF), expressed with the positive/negative parts of A."""
    mu = A_pos @ fL.mu + A_neg @ fU.mu
    nu = [np.einsum("ij,jrc->irc", A_pos, nL) + np.einsum("ij,jrc->irc", A_neg, nU)
          for nL, nU in zip(fL.nu, fU.nu)]
    lam = A_pos @ fL.lam + A_neg @ fU.lam
    return LinearBoundingFunction(mu=mu, nu=nu, lam=lam)


def _bilinear_lbf(A, b_end, zref, zL_f, zU_f, lower_side: bool):
    """McCormick-composed LBF for W z + b over one layer transition.

    A is the relevant corner of the weight box (WL for the lower bound, WU
    for the upper; both McCormick forms anchor on the z lower reference
    vector zref). The term W . zref is linear in this layer's own weights and
    lands in a fresh nu entry.
    """
    m = A.shape[0]
    A_pos, A_neg = np.maximum(A, 0.0), np.minimum(A, 0.0)
    if lower_side:
        f = _combine(A_pos, A_neg, zL_f, zU_f)
    else:
        f = _combine(A_pos, A_neg, zU_f, zL_f)
    own = np.zeros((m, A.shape[0], A.shape[1]))
    own[np.arange(m), np.arange(m), :] = zref
    f.nu.append(own)
    f.lam = f.lam - A @ zref + b_end
    return f


def lbp_forward(net: Network, T: InputBox, R: WeightBox):
    """Output bounding box via linear bound propagation.

    Intermediate pre-activation intervals come from optimizing the current
    LBFs analytically over (T, R), intersected with IBP's intervals at the
    same layer, which is sound and never looser than either method alone.
    """
    wboxes = _unpack_box(net, R)
    ibp_pre = ibp_layer_intervals(net, T, R)
    if T.dim != net.input_dim:
        raise ShapeError(f"input box dim {T.dim} != network input dim {net.input_dim}")

    # First layer: McCormick on W x directly (both forms anchor at x^L).
    WL0, WU0, bL0, bU0 = wboxes[0]
    m0 = WL0.shape[0]
    own = np.zeros((m0, WL0.shape[0], WL0.shape[1]))
    own[np.arange(m0), np.arange(m0), :] = T.lower
    fL = LinearBoundingFunction(mu=WL0.copy(), nu=[own.copy()],
                                lam=bL0 - WL0 @ T.lower)
    fU = LinearBoundingFunction(mu=WU0.copy(), nu=[own.copy()],
                                lam=bU0 - WU0 @ T.lower)

    for k in range(len(net.layers) - 1):
        zetaL = _lbf_extreme(fL, T, wboxes, minimize=True)
        zetaU = _lbf_extreme(fU, T, wboxes, minimize=False)
        zetaL = np.maximum(zetaL, ibp_pre[k][0])
        zetaU = np.minimum(zetaU, ibp_pre[k][1])
        # Two sound bounds can cross by rounding when the interval is a point.
        zetaL = np.minimum(zetaL, zetaU)
        act = net.layers[k].activation
        coeffs = np.array([relax_activation(act, lo, hi)
                           for lo, hi in zip(zetaL, zetaU)])
        aL, bL, aU, bU = coeffs.T
        zL_f = _scale_rows(fL, fU, aL, bL, lower_side=True)
        zU_f = _scale_rows(fL, fU, aU, bU, lower_side=False)
        # Post-activation interval endpoints (activations are monotone).
        z_lo = activate(act, zetaL)

        WLn, WUn, bLn, bUn = wboxes[k + 1]
        fL = _bilinear_lbf(WLn, bLn, z_lo, zL_f, zU_f, lower_side=True)
        fU = _bilinear_lbf(WUn, bUn, z_lo, zL_f, zU_f, lower_side=False)

    yL = _lbf_extreme(fL, T, wboxes, minimize=True)
    yU = _lbf_extreme(fU, T, wboxes, minimize=False)
    yL = np.maximum(yL, ibp_pre[-1][0])
    yU = np.minimum(yU, ibp_pre[-1][1])
    yL = np.minimum(yL, yU)
    return yL, yU


def propagate(net: Network, T: InputBox, R: WeightBox, method: str = "ibp"):
    """Dispatch to the named propagation method."""
    if method == "ibp":
        return ibp_forward(net, T, R)
    if method == "lbp":
        return lbp_forward(net, T, R)
    raise ValueError(f"unknown propagation method {method!r}")
