import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnncert import attack
from bnncert.attack import AttackConfig, pgd
from bnncert.net import Network, backprop, forward
from bnncert.spec import InputBox, OutputSpec, argmax_spec, stack_specs

from conftest import random_net


def margin(net, w, x, S):
    """The spec margin PGD minimises; negative iff x violates S."""
    return float(np.min(S.C @ forward(net, w, x) + S.d))


def reference_pgd(net, w, T, S, acfg):
    """PGD that always runs all ``iterations`` steps on every row: one
    backprop per step but the last, which takes a forward pass instead."""
    w = np.asarray(w, dtype=float)
    ws = np.atleast_2d(w)
    lo, hi = np.atleast_2d(T.lower)[:, None], np.atleast_2d(T.upper)[:, None]
    K, (M, _, n_in), R = len(ws), lo.shape, acfg.restarts
    C, d = stack_specs(S, M, net.output_dim)
    rows = np.arange(len(C))[:, None]

    def spec_margin(y):
        y = y.reshape(K, M, R, C.shape[-1])
        m = (C[:, None] @ y[..., None])[..., 0] + d[:, None]
        grad = C[rows, np.argmin(m, axis=-1)]
        return m.min(axis=-1), grad.reshape(K, M * R, C.shape[-1])

    def flat(x):
        return x.reshape(K, M * R, n_in)

    step = 2.5 * np.max(hi - lo, axis=-1, keepdims=True) / acfg.iterations
    u = np.random.default_rng(acfg.seed).random((R - 1, n_in))
    starts = np.concatenate([0.5 * (lo + hi), lo + (hi - lo) * u], axis=1)
    x = np.broadcast_to(starts, (K, M, R, n_in))
    params = net.unpack(ws)
    m, g, _ = backprop(net, ws, flat(x), spec_margin, params)
    best_m = np.broadcast_to(m[..., :1], m.shape).copy()
    best_x = np.broadcast_to(starts[:, :1], x.shape).copy()
    for k in range(acfg.iterations):
        x = np.clip(x - step * np.sign(g.reshape(x.shape)), lo, hi)
        if k + 1 < acfg.iterations:
            m, g, _ = backprop(net, ws, flat(x), spec_margin, params)
        else:
            m = spec_margin(forward(net, ws[:, None, :], flat(x)))[0]
        better = m < best_m
        np.copyto(best_m, m, where=better)
        np.copyto(best_x, x, where=better[..., None])
    best = np.argmin(best_m, axis=-1)[..., None, None]
    out = np.take_along_axis(best_x, best, axis=2)[:, :, 0].swapaxes(0, 1)
    if w.ndim == 1:
        out = out[:, 0]
    return out if T.lower.ndim > 1 else out[0]


def counted_backprop(monkeypatch):
    """Record the number of (region, restart) rows of each backprop call."""
    rows = []

    def wrapper(net, w, x, loss, params=None):
        rows.append(x.shape[-2])
        return backprop(net, w, x, loss, params)

    monkeypatch.setattr(attack, "backprop", wrapper)
    return rows


def wide_box(net):
    return InputBox(lower=np.full(net.input_dim, -0.5),
                    upper=np.full(net.input_dim, 0.5))


class TestPgd:
    def test_zero_width_box_returns_center(self):
        net = Network.dense([2, 2])
        w = np.arange(6, dtype=float)
        T = InputBox(lower=np.array([0.3, -0.1]), upper=np.array([0.3, -0.1]))
        x = pgd(net, w, T, argmax_spec(0, 2), AttackConfig())
        assert np.array_equal(x, T.center)

    def test_monotone_objective_hits_boundary(self):
        net = Network.dense([1, 1])
        w = np.array([2.0, 0.5])
        T = InputBox(lower=np.array([-1.0]), upper=np.array([3.0]))
        S = OutputSpec(C=[[1.0]], d=[0.0])     # margin y = 2x + 0.5
        x = pgd(net, w, T, S, AttackConfig(iterations=30))
        assert x == pytest.approx([-1.0], abs=1e-9)

    def test_never_worse_than_center(self, rng):
        for _ in range(10):
            net = random_net(rng, max_width=8, n_out=3)
            w = rng.normal(size=net.n_weights)
            c = rng.uniform(-0.5, 0.5, net.input_dim)
            T = InputBox(lower=c - 0.2, upper=c + 0.2)
            S = argmax_spec(0, 3)
            x = pgd(net, w, T, S, AttackConfig())
            assert margin(net, w, x, S) <= margin(net, w, T.center, S) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_iterate_stays_in_box(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, max_width=8)
        w = rng.normal(size=net.n_weights)
        c = rng.normal(0, 0.5, net.input_dim)
        T = InputBox(lower=c - rng.uniform(0, 0.5, net.input_dim),
                     upper=c + rng.uniform(0, 0.5, net.input_dim))
        S = argmax_spec(0, net.output_dim)
        x = pgd(net, w, T, S, AttackConfig(seed=seed))
        assert np.all(x >= T.lower) and np.all(x <= T.upper)

    def test_more_restarts_never_worse(self, rng):
        net = random_net(rng, max_width=8, n_out=2)
        w = rng.normal(size=net.n_weights)
        T = InputBox(lower=np.full(net.input_dim, -0.5),
                     upper=np.full(net.input_dim, 0.5))
        S = argmax_spec(0, 2)
        vals = []
        for restarts in (1, 3, 6):
            x = pgd(net, w, T, S, AttackConfig(restarts=restarts))
            vals.append(margin(net, w, x, S))
        assert vals[1] <= vals[0] + 1e-12 and vals[2] <= vals[1] + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AttackConfig(iterations=0)
        with pytest.raises(ValueError):
            AttackConfig(restarts=0)

    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("restarts", 2.5), ("seed", -1), ("seed", 1.5),
        ("iterations", "3")])
    def test_config_rejects_non_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            AttackConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        acfg = AttackConfig(iterations=np.int64(3), restarts=np.int32(2),
                            seed=np.uint8(4))
        net = Network.dense([2, 2])
        T = InputBox(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
        w = np.arange(6, dtype=float)
        assert np.array_equal(pgd(net, w, T, argmax_spec(0, 2), acfg),
                              reference_pgd(net, w, T, argmax_spec(0, 2), acfg))

    @pytest.mark.parametrize("restarts", [1, 3, 6])
    def test_one_network_pass_per_step(self, monkeypatch, caplog, rng,
                                       restarts):
        calls = []

        def counted(name):
            fn = getattr(attack, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("forward", "backprop"):
            monkeypatch.setattr(attack, name, counted(name))
        caplog.set_level(logging.DEBUG, logger="bnncert.attack")
        net = random_net(rng, max_width=8, n_out=3)
        w = rng.normal(size=net.n_weights)
        acfg = AttackConfig(iterations=7, restarts=restarts)
        pgd(net, w, wide_box(net), argmax_spec(0, 3), acfg)
        (record,) = caplog.records
        steps = record.args[0]
        # The starts, then one backprop per step taken, and no more than
        # one per step of the full loop.
        assert calls == ["backprop"] * (steps + 1)
        assert len(calls) <= acfg.iterations + 1

    def test_weights_unpacked_once_per_attack(self, monkeypatch, rng):
        """Unpacking the weights costs the same at 3 and at 7 steps."""
        unpack = Network.unpack
        counts = []

        def counted(self, w):
            counts[-1] += 1
            return unpack(self, w)

        monkeypatch.setattr(Network, "unpack", counted)
        net = random_net(rng, max_width=8, n_out=3)
        ws = rng.normal(size=(2, net.n_weights))
        T = InputBox(lower=np.full(net.input_dim, -0.5),
                     upper=np.full(net.input_dim, 0.5))
        for iterations in (3, 7):
            counts.append(0)
            pgd(net, ws, T, argmax_spec(0, 3), AttackConfig(iterations=iterations))
        assert counts[0] == counts[1]


class TestRetirement:
    """Rows that reach a fixed point or a 2-cycle leave the batch, and every
    point stays the one the full-length loop returns."""

    @pytest.mark.parametrize("iterations", [1, 2, 7, 25])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    def test_points_equal_the_full_length_loop(self, act, iterations):
        rng = np.random.default_rng(iterations)
        for trial in range(3):
            net = random_net(rng, max_width=10, n_out=3, activation=act)
            n_in, n_w = net.input_dim, net.n_weights
            c = rng.uniform(-0.5, 0.5, (3, n_in))
            hw = rng.uniform(0, 0.6, (3, n_in))
            hw[0, ::2] = 0.0                     # zero-width coordinates
            hw[1] = 0.0                          # a point region
            stack = InputBox(lower=c - hw, upper=c + hw)
            one = InputBox(lower=c[2] - hw[2], upper=c[2] + hw[2])
            specs = [argmax_spec(int(k), 3) for k in rng.integers(3, size=3)]
            specs[0] = OutputSpec(C=[[1.0, -1.0, 0.0]], d=[0.05])
            for w in (rng.normal(size=n_w), rng.normal(size=(1, n_w)),
                      rng.normal(size=(3, n_w))):
                for restarts in (1, 3, 6):
                    acfg = AttackConfig(iterations=iterations,
                                        restarts=restarts, seed=trial)
                    for T, S in ((stack, specs[1]), (stack, specs),
                                 (one, specs[2]), (one, specs[:1])):
                        got = pgd(net, w, T, S, acfg)
                        want = reference_pgd(net, w, T, S, acfg)
                        assert got.shape == want.shape
                        assert np.array_equal(got, want)

    def test_retired_rows_skip_their_passes(self, monkeypatch):
        rng = np.random.default_rng(3)
        net = random_net(rng, n_layers=2, max_width=8, n_out=3,
                         activation="relu")
        ws = rng.normal(size=(2, net.n_weights))
        acfg = AttackConfig(iterations=25, restarts=3)
        rows = counted_backprop(monkeypatch)
        got = pgd(net, ws, wide_box(net), argmax_spec(0, 3), acfg)
        assert len(rows) < acfg.iterations + 1
        monkeypatch.undo()
        assert np.array_equal(got, reference_pgd(net, ws, wide_box(net),
                                                 argmax_spec(0, 3), acfg))

    def test_lone_row_keeps_a_partner(self, monkeypatch):
        # Margin y0 - y1 = 2x. The point region's row stops at step 1; the
        # other steps by 1.0 from 0 to -1 and stops at step 2. In step 2
        # it keeps the retired row as a partner: a batch of one would take
        # the backward pass through a matrix-vector product, whose bits
        # can differ from the matrix product of the batch it started in.
        net = Network.dense([1, 2])
        w = np.array([1.0, -1.0, 0.0, 0.0])
        T = InputBox(lower=np.array([[0.2], [-1.0]]),
                     upper=np.array([[0.2], [1.0]]))
        S = OutputSpec(C=[[1.0, -1.0]], d=[0.0])
        acfg = AttackConfig(iterations=5, restarts=1)
        rows = counted_backprop(monkeypatch)
        got = pgd(net, w, T, S, acfg)
        assert rows == [2, 2, 2]
        assert np.array_equal(got, [[0.2], [-1.0]])

    def test_empty_stacks_keep_their_shapes(self, rng):
        net = random_net(rng, max_width=6, n_out=3)
        n_in, n_w = net.input_dim, net.n_weights
        T = InputBox(lower=np.full((4, n_in), -0.5), upper=np.full((4, n_in), 0.5))
        none = InputBox(lower=np.zeros((0, n_in)), upper=np.zeros((0, n_in)))
        acfg = AttackConfig(iterations=4)
        for w, T, S, shape in (
                (np.zeros((0, n_w)), T, argmax_spec(0, 3), (4, 0, n_in)),
                (rng.normal(size=(2, n_w)), none, [], (0, 2, n_in)),
                (rng.normal(size=(2, n_w)), none, argmax_spec(0, 3), (0, 2, n_in))):
            got = pgd(net, w, T, S, acfg)
            assert got.shape == reference_pgd(net, w, T, S, acfg).shape == shape

    def test_debug_line_per_call(self, caplog, rng):
        caplog.set_level(logging.DEBUG, logger="bnncert.attack")
        net = random_net(rng, max_width=6, n_out=3)
        T = InputBox(lower=np.full((2, net.input_dim), -0.5),
                     upper=np.full((2, net.input_dim), 0.5))
        acfg = AttackConfig(iterations=9, restarts=3)
        pgd(net, rng.normal(size=(4, net.n_weights)), T, argmax_spec(0, 3), acfg)
        (record,) = caplog.records
        steps, iterations, rows, weights, retired = record.args
        assert (iterations, rows, weights) == (9, 6, 4)
        assert 1 <= steps <= 9 and 0 <= retired <= rows
        assert record.getMessage().startswith(f"pgd: {steps} of 9 steps")
        caplog.clear()
        caplog.set_level(logging.INFO, logger="bnncert.attack")
        pgd(net, rng.normal(size=net.n_weights), T, argmax_spec(0, 3), acfg)
        assert caplog.records == []
