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
from .spec import Box


def _unpack_box(net: Network, R: Box):
    """Per-layer (WL, WU, bL, bU) arrays from a flat weight box, keeping a
    leading box axis."""
    if R.lower.shape[-1] != net.n_weights:
        raise ShapeError(
            f"weight box has {R.lower.shape[-1]} entries, network needs {net.n_weights}"
        )
    lows = net.unpack(R.lower)
    highs = net.unpack(R.upper)
    return [(wl, wu, bl, bu) for (wl, bl), (wu, bu) in zip(lows, highs)]


def _bilinear_interval(WL, WU, bL, bU, zL, zU):
    """Interval of W z + b when both W and z live in boxes.

    Each monomial attains its extremes at a corner of
    [WL_ij, WU_ij] x [zL_j, zU_j]. The corner products are elementwise,
    folded into the running min and max one corner at a time (three arrays
    live at once), and the sums run over the last axis, so each box of a
    stack gets the same bits as on its own.
    """
    zL, zU = zL[..., None, :], zU[..., None, :]
    tL = WL * zL
    tU, corner = tL.copy(), np.empty_like(tL)
    for W, z in ((WL, zU), (WU, zL), (WU, zU)):
        np.multiply(W, z, out=corner)
        np.minimum(tL, corner, out=tL)
        np.maximum(tU, corner, out=tU)
    return tL.sum(axis=-1) + bL, tU.sum(axis=-1) + bU


def ibp_layer_intervals(net: Network, T: Box, R: Box):
    """Pre-activation intervals (zetaL, zetaU) for every layer, last included.

    The leading axes of T broadcast against R's axis of K boxes, and every
    interval gets the broadcast axes: a (K, n_in) stack pairs box k with
    box k, and M regions shaped (M, 1, n_in) meet every box, (M, K, n_out).
    """
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


def ibp_forward(net: Network, T: Box, R: Box):
    """Output bounding box via interval bound propagation, for one box pair
    or a stack of them."""
    zetaL, zetaU = ibp_layer_intervals(net, T, R)[-1]
    return zetaL, zetaU


# ---------------------------------------------------------------------------
# Activation relaxations, elementwise over arrays of intervals


def _tanh_sound_intercepts(zl, zu, alpha):
    """Extremes of tanh(z) - alpha*z over [zl, zu], solved in closed form.

    For any slope alpha the stationary points satisfy 1 - tanh(z)^2 = alpha,
    so the tightest sound intercepts can be computed exactly; this makes the
    relaxation sound regardless of how the slope was chosen.
    """
    inner = (0.0 < alpha) & (alpha < 1.0)
    with np.errstate(divide="ignore"):     # a tiny alpha puts zstar at inf
        zstar = np.arctanh(np.sqrt(1.0 - np.where(inner, alpha, 0.5)))
    cands = [zl, zu]
    for z in (zstar, -zstar):
        # A stationary point outside (zl, zu) falls back to zl, already a candidate.
        cands.append(np.where(inner & (zl < z) & (z < zu), z, zl))
    vals = np.stack([np.tanh(z) - alpha * z for z in cands])
    return vals.min(axis=0), vals.max(axis=0)


def _tanh_tangent_slope(anchor, lo, hi, iters=60):
    """Slope of the line through (anchor, tanh(anchor)) tangent to tanh at a
    point inside [lo, hi], found by bisection on the tangency residual; 0 (a
    flat line) where the bracket holds no tangent point."""
    def residual(d):
        return np.tanh(d) + (1.0 - np.tanh(d) ** 2) * (anchor - d) - np.tanh(anchor)

    a, b = lo, hi
    fa = residual(a)
    bracketed = fa * residual(b) <= 0
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = residual(m)
        left = fa * fm <= 0
        a, fa, b = np.where(left, a, m), np.where(left, fa, fm), np.where(left, m, b)
    d = 0.5 * (a + b)
    return np.where(bracketed, 1.0 - np.tanh(d) ** 2, 0.0)


def _relax_tanh(zl, zu):
    point = zu - zl < 1e-12
    chord = (np.tanh(zu) - np.tanh(zl)) / np.where(point, 1.0, zu - zl)
    tangent = 1.0 - np.tanh(0.5 * (zl + zu)) ** 2
    # Concave region (zl >= 0): chord below, tangent above. Convex region
    # (zu <= 0): tangent below, chord above. Mixed sign: tangent through the
    # far endpoint on each side.
    # The bisection runs on the mixed-sign entries only; each entry's
    # bisection is independent of the others.
    concave, convex = zl >= 0.0, zu <= 0.0
    mixed = ~(concave | convex)
    aL = np.where(concave, chord, tangent)
    aU = np.where(concave, tangent, chord)
    aL[mixed] = _tanh_tangent_slope(zu[mixed], np.minimum(zl[mixed], -20.0), 0.0)
    aU[mixed] = _tanh_tangent_slope(zl[mixed], 0.0, np.maximum(zu[mixed], 20.0))
    bL, _ = _tanh_sound_intercepts(zl, zu, aL)
    _, bU = _tanh_sound_intercepts(zl, zu, aU)
    val = np.tanh(0.5 * (zl + zu))
    return (np.where(point, 0.0, aL), np.where(point, val, bL),
            np.where(point, 0.0, aU), np.where(point, val, bU))


def relax_activation(kind: str, zl, zu):
    """Coefficients (alphaL, betaL, alphaU, betaU) with
    alphaL*z + betaL <= sigma(z) <= alphaU*z + betaU on [zl, zu], elementwise
    over arrays (or scalars) of interval endpoints."""
    zl, zu = np.asarray(zl, dtype=float), np.asarray(zu, dtype=float)
    if np.any(zl > zu):
        raise ValueError("empty pre-activation interval")
    if kind == "identity":
        one, zero = np.ones_like(zl), np.zeros_like(zl)
        return one, zero, one, zero
    if kind == "relu":
        on = zl >= 0.0
        mixed = (zl < 0.0) & (zu > 0.0)
        span = np.where(mixed, zu - zl, 1.0)
        aU = np.where(mixed, zu / span, on)
        bU = np.where(mixed, -zl * zu / span, 0.0)
        aL = np.where(mixed, zu >= -zl, on).astype(float)
        return aL, np.zeros_like(aU), aU, bU
    if kind == "tanh":
        return _relax_tanh(zl, zu)
    raise ValueError(f"unknown activation {kind!r}")


# ---------------------------------------------------------------------------
# Linear bound propagation
#
# The input is its own LBF (mu = I, no weight terms, lam = 0), so every layer
# takes one McCormick step. Both forms of layer l anchor at one reference
# vector zref_l (T.lower for layer 0, the post-activation lower bound of the
# layer before otherwise), and every later step only mixes rows. So the
# coefficient of W^(l)[r, c] in an LBF row i is always C_l[i, r] * zref_l[c]:
# an LBF stores C_l, and the weight box enters through zref_l . W_r alone.
# The newest layer's C_l is diagonal until the next layer mixes its rows, so
# it is kept as that diagonal; a product with a diagonal matrix adds one
# product to exact zeros, so the elementwise form rounds to the same bits.


@dataclass
class LinearBoundingFunction:
    """A bound of the form mu . x + sum_l sum_r coef[l][..., r] * (zref_l . W^(l)_r)
    + lam, one row per neuron of the current layer; the current layer's own
    term, row i times zref . W_i, is diag[..., i], the diagonal of its C_l."""

    mu: np.ndarray              # (..., m, n_in)
    coef: list[np.ndarray]      # coef[l]: (..., m, rows_l), layers before the current one
    diag: np.ndarray | None     # (..., m); None for the input, which has no weights
    lam: np.ndarray             # (..., m)


def _matvec(A, x):
    """A @ x over leading axes: (..., m, n) and (..., n) give (..., m)."""
    return (A @ x[..., None])[..., 0]


def _ref_range(WL, WU, zref):
    """(min, max) of zref . W_r over the weight box, for each row r of W."""
    zref = zref[..., None, :]
    pos = zref >= 0
    return (np.where(pos, zref * WL, zref * WU).sum(axis=-1),
            np.where(pos, zref * WU, zref * WL).sum(axis=-1))


def _lbf_extreme(f: LinearBoundingFunction, T: Box, ranges, minimize: bool):
    """Analytic optimum of each LBF row over the input and weight boxes;
    ranges[l] is layer l's ``_ref_range``, the last one the current layer's."""
    lo_x, hi_x = (T.lower, T.upper) if minimize else (T.upper, T.lower)
    lo_x, hi_x = lo_x[..., None, :], hi_x[..., None, :]
    total = f.lam + np.where(f.mu >= 0, f.mu * lo_x, f.mu * hi_x).sum(axis=-1)
    for C, (lo, hi) in zip(f.coef, ranges):
        lo, hi = (lo, hi) if minimize else (hi, lo)
        total = (total + _matvec(np.maximum(C, 0.0), lo)
                 + _matvec(np.minimum(C, 0.0), hi))
    lo, hi = ranges[-1] if minimize else ranges[-1][::-1]
    return total + np.maximum(f.diag, 0.0) * lo + np.minimum(f.diag, 0.0) * hi


def _scale_rows(fL: LinearBoundingFunction, fU: LinearBoundingFunction,
                alpha: np.ndarray, beta: np.ndarray, lower_side: bool):
    """Per-row composition alpha_j * f_j + beta_j, picking the lower or upper
    source LBF by the sign of alpha_j (linear-transform lemma)."""
    pick_L = (alpha >= 0) if lower_side else (alpha < 0)
    a, sel = alpha[..., None], pick_L[..., None]
    mu = np.where(sel, a * fL.mu, a * fU.mu)
    coef = [np.where(sel, a * CL, a * CU) for CL, CU in zip(fL.coef, fU.coef)]
    diag = np.where(pick_L, alpha * fL.diag, alpha * fU.diag)
    lam = np.where(pick_L, alpha * fL.lam, alpha * fU.lam) + beta
    return LinearBoundingFunction(mu=mu, coef=coef, diag=diag, lam=lam)


def _combine(A_pos, A_neg, fL: LinearBoundingFunction, fU: LinearBoundingFunction):
    """Row-mix LBFs: row i gets sum_j A_ij * (lower LBF of z_j if A_ij >= 0
    else upper LBF), expressed with the positive/negative parts of A. The
    diagonal of the layer before becomes its dense block, A scaled by
    columns."""
    mu = A_pos @ fL.mu + A_neg @ fU.mu
    coef = [A_pos @ CL + A_neg @ CU for CL, CU in zip(fL.coef, fU.coef)]
    if fL.diag is not None:
        coef.append(A_pos * fL.diag[..., None, :] + A_neg * fU.diag[..., None, :])
    lam = _matvec(A_pos, fL.lam) + _matvec(A_neg, fU.lam)
    return LinearBoundingFunction(mu=mu, coef=coef, diag=None, lam=lam)


def _bilinear_lbf(A, b_end, zref, zL_f, zU_f, lower_side: bool):
    """McCormick-composed LBF for W z + b over one layer transition.

    A is the relevant corner of the weight box (WL for the lower bound, WU
    for the upper; both McCormick forms anchor on the z lower reference
    vector zref). The term W . zref is linear in this layer's own weights:
    its coefficient starts as the identity, kept as a diagonal of ones.
    """
    pos_f, neg_f = (zL_f, zU_f) if lower_side else (zU_f, zL_f)
    f = _combine(np.maximum(A, 0.0), np.minimum(A, 0.0), pos_f, neg_f)
    f.diag = np.ones(A.shape[-2])
    f.lam = f.lam - _matvec(A, zref) + b_end
    return f


def lbp_forward(net: Network, T: Box, R: Box):
    """Output bounding box via linear bound propagation, one McCormick step
    per layer.

    Each layer's pre-activation interval comes from optimizing its LBFs
    analytically over (T, R), intersected with IBP's interval at the same
    layer, which is sound and never looser than either method alone.
    T and R may carry leading axes, which broadcast as in
    ``ibp_layer_intervals``; every LBF array carries the broadcast axes.
    """
    ibp_pre = ibp_layer_intervals(net, T, R)
    fL = fU = LinearBoundingFunction(mu=np.eye(net.input_dim), coef=[],
                                     diag=None, lam=np.zeros(net.input_dim))
    z_lo, ranges = T.lower, []
    for k, (WL, WU, bL, bU) in enumerate(_unpack_box(net, R)):
        ranges.append(_ref_range(WL, WU, z_lo))
        fL, fU = (_bilinear_lbf(WL, bL, z_lo, fL, fU, lower_side=True),
                  _bilinear_lbf(WU, bU, z_lo, fL, fU, lower_side=False))
        zetaL = np.maximum(_lbf_extreme(fL, T, ranges, minimize=True), ibp_pre[k][0])
        zetaU = np.minimum(_lbf_extreme(fU, T, ranges, minimize=False), ibp_pre[k][1])
        # Two sound bounds can cross by rounding when the interval is a point.
        zetaL = np.minimum(zetaL, zetaU)
        if k == len(net.layers) - 1:
            return zetaL, zetaU
        act = net.layers[k].activation
        aL, bL, aU, bU = relax_activation(act, zetaL, zetaU)
        fL, fU = (_scale_rows(fL, fU, aL, bL, lower_side=True),
                  _scale_rows(fL, fU, aU, bU, lower_side=False))
        z_lo = activate(act, zetaL)     # post-activation lower end (monotone)


def propagate(net: Network, T: Box, R: Box, method: str = "ibp"):
    """Dispatch to the named propagation method.

    T and R may carry leading axes, which broadcast as in
    ``ibp_layer_intervals``; the output bounds have the broadcast axes,
    shape (..., n_out). Both methods bound every pair in one pass.
    """
    if method == "ibp":
        return ibp_forward(net, T, R)
    if method != "lbp":
        raise ValueError(f"unknown propagation method {method!r}")
    return lbp_forward(net, T, R)
