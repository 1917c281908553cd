import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnncert.propagate as propagate_mod
from bnncert.net import Network, ShapeError, activate, forward
from bnncert.posterior import WeightBox
from bnncert.propagate import (ibp_forward, lbp_forward, propagate,
                               relax_activation)
from bnncert.spec import InputBox

from conftest import count_violations, random_boxes, random_net

log = logging.getLogger(__name__)


def boxes_1d(w_lo, w_hi, b_lo, b_hi, x_lo, x_hi):
    return (InputBox(lower=np.array([x_lo]), upper=np.array([x_hi])),
            WeightBox(lower=np.array([w_lo, b_lo]), upper=np.array([w_hi, b_hi])))


class TestIbp:
    def test_exact_linear_case(self):
        net = Network.dense([2, 1])
        T = InputBox(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
        w = np.array([1.0, 1.0, 0.0])
        R = WeightBox(lower=w, upper=w)
        yL, yU = ibp_forward(net, T, R)
        assert yL == pytest.approx([0.0]) and yU == pytest.approx([2.0])

    def test_bilinear_corner_products(self):
        net = Network.dense([1, 1])
        T, R = boxes_1d(-1.0, 2.0, 0.0, 0.0, -3.0, 1.0)
        yL, yU = ibp_forward(net, T, R)
        # corner products of w*x: {3, -1, -6, 2}
        assert yL == pytest.approx([-6.0]) and yU == pytest.approx([3.0])

    def test_relu_layer(self):
        net = Network.dense([1, 1, 1], activation="relu")
        # hidden: w in [1,2], b = 0; output layer passes through
        lo = np.array([1.0, 0.0, 1.0, 0.0])
        hi = np.array([2.0, 0.0, 1.0, 0.0])
        T = InputBox(lower=np.array([-1.0]), upper=np.array([1.0]))
        yL, yU = ibp_forward(net, T, WeightBox(lower=lo, upper=hi))
        # pre-activation [-2, 2], relu clips to [0, 2]
        assert yL == pytest.approx([0.0]) and yU == pytest.approx([2.0])

    def test_monotone_in_T(self, rng):
        for _ in range(20):
            net = random_net(rng, n_layers=1, max_width=8)
            T, R = random_boxes(rng, net)
            grow = rng.uniform(0, 0.2, net.input_dim)
            T2 = InputBox(lower=T.lower - grow, upper=T.upper + grow)
            yL1, yU1 = ibp_forward(net, T, R)
            yL2, yU2 = ibp_forward(net, T2, R)
            assert np.all(yL2 <= yL1 + 1e-12) and np.all(yU2 >= yU1 - 1e-12)

    def test_shape_mismatch(self):
        net = Network.dense([2, 2])
        T = InputBox(lower=np.zeros(3), upper=np.ones(3))
        R = WeightBox(lower=np.zeros(net.n_weights), upper=np.ones(net.n_weights))
        with pytest.raises(ShapeError):
            ibp_forward(net, T, R)


class TestRelaxActivation:
    def test_relu_all_positive(self):
        assert relax_activation("relu", 1.0, 2.0) == pytest.approx((1, 0, 1, 0))

    def test_relu_mixed_upper_chord(self):
        aL, bL, aU, bU = relax_activation("relu", -1.0, 1.0)
        assert (aU, bU) == pytest.approx((0.5, 0.5))
        # chord passes through both endpoints
        assert aU * -1.0 + bU == pytest.approx(0.0)
        assert aU * 1.0 + bU == pytest.approx(1.0)

    def test_identity(self):
        assert relax_activation("identity", -3.0, 5.0) == pytest.approx((1, 0, 1, 0))

    def test_order_violation(self):
        with pytest.raises(ValueError):
            relax_activation("relu", 2.0, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["relu", "tanh"]),
           st.floats(-6, 6), st.floats(0, 8))
    def test_soundness_fuzz(self, kind, zl, width):
        zu = zl + width
        aL, bL, aU, bU = relax_activation(kind, zl, zu)
        z = np.linspace(zl, zu, 1000)
        s = activate(kind, z)
        assert np.all(aL * z + bL <= s + 1e-12)
        assert np.all(aU * z + bU >= s - 1e-12)


    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["relu", "tanh"]),
           st.lists(st.tuples(st.sampled_from(["point", "pos", "neg", "cross"]),
                              st.floats(0, 6), st.floats(0, 6)),
                    min_size=1, max_size=24),
           st.integers(0, 23))
    def test_array_soundness_fuzz(self, kind, cases, flip):
        # One call relaxes a whole layer: point intervals, all-positive,
        # all-negative and zero-crossing ones side by side.
        zl, zu = np.empty(len(cases)), np.empty(len(cases))
        for i, (case, p, q) in enumerate(cases):
            zl[i], zu[i] = {"point": (p - 3.0, p - 3.0 + q * 1e-13),
                            "pos": (p, p + q),
                            "neg": (-p - q, -p),
                            "cross": (-p - 1e-3, q + 1e-3)}[case]
        aL, bL, aU, bU = relax_activation(kind, zl, zu)
        z = np.linspace(zl, zu, 400)             # (400, n): a grid per interval
        s = activate(kind, z)
        assert np.all(aL * z + bL <= s + 1e-12)
        assert np.all(aU * z + bU >= s - 1e-12)
        i = flip % len(cases)
        zl[i], zu[i] = zu[i] + 1.0, zl[i]
        with pytest.raises(ValueError):
            relax_activation(kind, zl, zu)


# lbp_forward outputs recorded when LBP still kept a dense (m, m, cols)
# coefficient tensor per layer; storing the coefficients in rank-one form
# may change the summation order and nothing else. Every instance has
# pre-activation intervals that cross zero (the tanh ones in the mixed-sign
# branch of the relaxation).
PINNED = [
    (([3, 6, 5, 2], "relu", 1, 1.0),
     [-4.622649758858533, -4.28411754987294],
     [-0.2687773517381679, 1.7761559504884494]),
    (([2, 6, 3], "tanh", 2, 2.0),
     [-3.385124220291423, 2.9924601969858147, -1.1197808907650413],
     [0.577234901751829, 8.550743272391408, 1.285222698766329]),
    (([3, 5, 5, 5, 2], "tanh", 3, 1.0),
     [-3.15210298316121, -4.827820900300306],
     [1.4349102401691431, -0.2939983026732553]),
]


def dense_identity_lbp(net, T, R):
    """LBP as it was while each layer's own weight coefficient was a dense
    np.eye(rows) that the next layer multiplied as a full matrix, frozen as
    the bit-for-bit reference. An LBF is a tuple (mu, coef, lam)."""
    def matvec(A, x):
        return (A @ x[..., None])[..., 0]

    def extreme(f, ranges, minimize):
        mu, coef, lam = f
        lo_x, hi_x = (T.lower, T.upper) if minimize else (T.upper, T.lower)
        lo_x, hi_x = lo_x[..., None, :], hi_x[..., None, :]
        total = lam + np.where(mu >= 0, mu * lo_x, mu * hi_x).sum(axis=-1)
        for C, (lo, hi) in zip(coef, ranges):
            lo, hi = (lo, hi) if minimize else (hi, lo)
            total = (total + matvec(np.maximum(C, 0.0), lo)
                     + matvec(np.minimum(C, 0.0), hi))
        return total

    def scale(fL, fU, alpha, beta, lower_side):
        pick_L = (alpha >= 0) if lower_side else (alpha < 0)
        a, sel = alpha[..., None], pick_L[..., None]
        return (np.where(sel, a * fL[0], a * fU[0]),
                [np.where(sel, a * CL, a * CU) for CL, CU in zip(fL[1], fU[1])],
                np.where(pick_L, alpha * fL[2], alpha * fU[2]) + beta)

    def bilinear(A, b_end, zref, fL, fU, lower_side):
        (pos_mu, pos_c, pos_lam), (neg_mu, neg_c, neg_lam) = (
            (fL, fU) if lower_side else (fU, fL))
        A_pos, A_neg = np.maximum(A, 0.0), np.minimum(A, 0.0)
        coef = [A_pos @ CL + A_neg @ CU for CL, CU in zip(pos_c, neg_c)]
        coef.append(np.eye(A.shape[-2]))
        lam = matvec(A_pos, pos_lam) + matvec(A_neg, neg_lam)
        return (A_pos @ pos_mu + A_neg @ neg_mu, coef,
                lam - matvec(A, zref) + b_end)

    ibp_pre = propagate_mod.ibp_layer_intervals(net, T, R)
    fL = fU = (np.eye(net.input_dim), [], np.zeros(net.input_dim))
    z_lo, ranges = T.lower, []
    for k, (WL, WU, bL, bU) in enumerate(propagate_mod._unpack_box(net, R)):
        zref = z_lo[..., None, :]
        pos = zref >= 0
        ranges.append((np.where(pos, zref * WL, zref * WU).sum(axis=-1),
                       np.where(pos, zref * WU, zref * WL).sum(axis=-1)))
        fL, fU = (bilinear(WL, bL, z_lo, fL, fU, lower_side=True),
                  bilinear(WU, bU, z_lo, fL, fU, lower_side=False))
        zetaL = np.maximum(extreme(fL, ranges, minimize=True), ibp_pre[k][0])
        zetaU = np.minimum(extreme(fU, ranges, minimize=False), ibp_pre[k][1])
        zetaL = np.minimum(zetaL, zetaU)
        if k == len(net.layers) - 1:
            return zetaL, zetaU
        act = net.layers[k].activation
        aL, betaL, aU, betaU = relax_activation(act, zetaL, zetaU)
        fL, fU = (scale(fL, fU, aL, betaL, lower_side=True),
                  scale(fL, fU, aU, betaU, lower_side=False))
        z_lo = activate(act, zetaL)


def reference_case(rng, act, n_layers, shape):
    """A random net with n_layers layers and boxes of one of four shapes:
    one pair, a stack of K pairs, (M, 1, n_in) regions against K boxes, or
    point regions against K boxes. A third of the weight coordinates have
    zero width."""
    net = random_net(rng, n_layers=n_layers - 1, min_width=2, max_width=10,
                     activation=act)
    K, M = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    lead_x, lead_w = {"one": ((), ()), "stack": ((K,), (K,)),
                      "regions": ((M, 1), (K,)), "points": ((M, 1), (K,))}[shape]
    xc = rng.uniform(-1.0, 1.0, (*lead_x, net.input_dim))
    xw = 0.0 if shape == "points" else rng.uniform(0, 0.4, xc.shape)
    wc = rng.normal(0, 1.0, (*lead_w, net.n_weights))
    ww = rng.uniform(0, 0.2, wc.shape)
    ww[..., ::3] = 0.0
    return net, InputBox(lower=xc - xw, upper=xc + xw), WeightBox(
        lower=wc - ww, upper=wc + ww)


def pinned_instance(dims, act, seed, w_scale):
    rng = np.random.default_rng(seed)
    net = Network.dense(dims, activation=act)
    xc = rng.uniform(-1, 1, net.input_dim)
    wc = rng.normal(0, w_scale, net.n_weights)
    return (net, InputBox(lower=xc - 0.2, upper=xc + 0.2),
            WeightBox(lower=wc - 0.05, upper=wc + 0.05))


class TestLbp:
    @pytest.mark.parametrize("instance,yL_ref,yU_ref", PINNED,
                             ids=["relu-2-hidden", "tanh-mixed-sign",
                                  "tanh-3-hidden"])
    def test_pinned_values(self, instance, yL_ref, yU_ref):
        yL, yU = lbp_forward(*pinned_instance(*instance))
        for y, ref in ((yL, np.array(yL_ref)), (yU, np.array(yU_ref))):
            assert np.all(np.abs(y - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_memory_grows_with_width_squared(self, rng):
        # A dense (m, m, cols) tensor per layer peaked at 104 MB here.
        net = Network.dense([4, 128, 128, 5])
        T, R = random_boxes(rng, net, w_scale=0.1, w_width=0.025)
        tracemalloc.start()
        try:
            lbp_forward(net, T, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_one_relaxation_per_hidden_layer(self, rng, monkeypatch):
        shapes = []
        real = propagate_mod.relax_activation

        def counting(kind, zl, zu):
            shapes.append(np.shape(zl))
            return real(kind, zl, zu)

        monkeypatch.setattr(propagate_mod, "relax_activation", counting)
        net = Network.dense([3, 7, 6, 5, 2], activation="tanh")
        lbp_forward(net, *random_boxes(rng, net))
        assert shapes == [(7,), (6,), (5,)]

    @pytest.mark.parametrize("n_layers", [1, 2, 3, 4])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_bits_equal_the_dense_identity_reference(self, act, n_layers,
                                                      monkeypatch):
        mixed = []
        real = propagate_mod.relax_activation

        def spying(kind, zl, zu):
            mixed.append(np.any((zl < 0) & (zu > 0)))
            return real(kind, zl, zu)

        monkeypatch.setattr(propagate_mod, "relax_activation", spying)
        rng = np.random.default_rng(10 * n_layers + (act == "tanh"))
        for trial in range(40):
            shape = ("one", "stack", "regions", "points")[trial % 4]
            net, T, R = reference_case(rng, act, n_layers, shape)
            got, want = lbp_forward(net, T, R), dense_identity_lbp(net, T, R)
            for y, ref in zip(got, want):
                assert y.shape == ref.shape
                assert np.array_equal(y, ref)
        # Some hidden intervals cross zero (for tanh, the mixed-sign branch).
        assert any(mixed) or n_layers == 1

    def test_newest_layer_coefficient_is_a_diagonal(self, rng, monkeypatch):
        seen = []
        real = propagate_mod._lbf_extreme

        def spying(f, T, ranges, minimize):
            seen.append(([C.shape for C in f.coef], np.shape(f.diag)))
            return real(f, T, ranges, minimize)

        monkeypatch.setattr(propagate_mod, "_lbf_extreme", spying)
        net = Network.dense([3, 7, 6, 5, 2], activation="tanh")
        rows, K = [7, 6, 5, 2], 2
        T, R = random_boxes(rng, net)
        T = InputBox(lower=np.stack([T.lower] * K), upper=np.stack([T.upper] * K))
        R = WeightBox(lower=np.stack([R.lower] * K), upper=np.stack([R.upper] * K))
        lbp_forward(net, T, R)
        # A lower and an upper bounding function per layer: layer l holds l
        # dense blocks, one per layer before it, and its own coefficient as
        # a vector of rows_l entries, never a (rows_l, rows_l) identity.
        assert len(seen) == 2 * len(rows)
        for (coef, diag), l in zip(seen, np.repeat(np.arange(len(rows)), 2)):
            assert coef == [(K, rows[l], rows[j]) for j in range(l)]
            assert np.broadcast_shapes(diag, (K, rows[l])) == (K, rows[l])

    def test_point_weights_exact_linear_image(self):
        net = Network.dense([2, 2])
        w = np.array([1.0, -2.0, 0.5, 3.0, 0.1, -0.1])
        R = WeightBox(lower=w, upper=w)
        T = InputBox(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0]))
        yL, yU = lbp_forward(net, T, R)
        W, b = net.unpack(w)[0]
        exactL = np.where(W >= 0, W * T.lower, W * T.upper).sum(axis=1) + b
        exactU = np.where(W >= 0, W * T.upper, W * T.lower).sum(axis=1) + b
        assert yL == pytest.approx(exactL, abs=1e-12)
        assert yU == pytest.approx(exactU, abs=1e-12)

    def test_sound_on_random_instances(self, rng):
        # Zero-hidden-layer nets too: there the first step is also the last.
        for n_layers in [None] * 10 + [0] * 10:
            net = random_net(rng, n_layers=n_layers, max_width=12)
            T, R = random_boxes(rng, net)
            yL, yU = lbp_forward(net, T, R)
            assert count_violations(net, T, R, yL, yU, 20_000, rng) == 0

    def test_width_vs_ibp_diagnostic(self, rng):
        # paired comparison, logged not asserted: LBP is designed to be
        # tighter on most instances but is not provably so everywhere
        tighter = 0
        trials = 40
        for _ in range(trials):
            net = random_net(rng, n_layers=1, min_width=8, max_width=16)
            T, R = random_boxes(rng, net, w_width=0.1)
            iL, iU = ibp_forward(net, T, R)
            lL, lU = lbp_forward(net, T, R)
            if np.sum(lU - lL) <= np.sum(iU - iL) + 1e-12:
                tighter += 1
        log.info("LBP tighter-or-equal than IBP on %d/%d instances",
                 tighter, trials)


class TestDegenerateExactness:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["ibp", "lbp"]))
    def test_point_boxes_collapse(self, seed, method):
        rng = np.random.default_rng(seed)
        net = random_net(rng, max_width=10)
        x = rng.normal(0, 0.5, net.input_dim)
        w = rng.normal(0, 1.0, net.n_weights)
        T = InputBox(lower=x, upper=x)
        R = WeightBox(lower=w, upper=w)
        yL, yU = propagate(net, T, R, method)
        y = forward(net, w, x)
        assert yL == pytest.approx(y, abs=1e-9)
        assert yU == pytest.approx(y, abs=1e-9)


def test_ibp_soundness_fuzz(rng):
    for _ in range(10):
        net = random_net(rng, max_width=12)
        T, R = random_boxes(rng, net)
        yL, yU = ibp_forward(net, T, R)
        assert count_violations(net, T, R, yL, yU, 20_000, rng) == 0


def test_propagate_dispatch():
    net = Network.dense([1, 1])
    T, R = boxes_1d(1.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert propagate(net, T, R, "ibp")[1] == pytest.approx([1.0])
    assert propagate(net, T, R, "lbp")[1] == pytest.approx([1.0])
    with pytest.raises(ValueError):
        propagate(net, T, R, "bogus")
