import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnncert import attack
from bnncert.attack import AttackConfig, pgd
from bnncert.net import Network, forward
from bnncert.spec import InputBox, OutputSpec, argmax_spec

from conftest import random_net


def margin(net, w, x, S):
    """The spec margin PGD minimises; negative iff x violates S."""
    return float(np.min(S.C @ forward(net, w, x) + S.d))


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

    @pytest.mark.parametrize("restarts", [1, 3, 6])
    def test_one_network_pass_per_step(self, monkeypatch, rng, restarts):
        calls = []

        def counted(name):
            fn = getattr(attack, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("forward", "backprop"):
            monkeypatch.setattr(attack, name, counted(name))
        net = random_net(rng, max_width=8, n_out=3)
        w = rng.normal(size=net.n_weights)
        T = InputBox(lower=np.full(net.input_dim, -0.5),
                     upper=np.full(net.input_dim, 0.5))
        acfg = AttackConfig(iterations=7, restarts=restarts)
        pgd(net, w, T, argmax_spec(0, 3), acfg)
        assert calls == ["backprop"] * acfg.iterations + ["forward"]

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
