import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnncert.certify import (CertifyConfig, Task, decision_robust,
                             dsafe_bounds_all_classes, dsafe_lower,
                             dsafe_upper, k0_decision_check, median_bounds,
                             output_best, output_worst, psafe_lower,
                             psafe_upper, uncertainty_check)
from bnncert.net import Network, forward, softmax
from bnncert.posterior import GaussianPosterior, SamplePosterior, sample
from bnncert.spec import InputBox, argmax_spec, linf_ball

from conftest import random_net

S01 = argmax_spec(0, 2)


def atom_posterior(*weight_vectors, weights=None):
    return SamplePosterior(samples=np.stack(weight_vectors), weights=weights)


def linear12_weights(W, b):
    """Flat weights of a 1-input, 2-output linear net."""
    return np.concatenate([np.asarray(W, dtype=float).ravel(),
                           np.asarray(b, dtype=float)])


NET12 = Network.dense([1, 2])
T_UNIT = InputBox(lower=np.array([-1.0]), upper=np.array([1.0]))
# atom A: y = (x+2, 0) -> class 0 everywhere on [-1, 1]
W_SAFE = linear12_weights([[1.0], [0.0]], [2.0, 0.0])
# atom B: y = (0, x+2) -> class 1 everywhere on [-1, 1]
W_UNSAFE = linear12_weights([[0.0], [1.0]], [0.0, 2.0])


def cfg(**kw):
    base = dict(num_samples=8, gamma=0.0, method="ibp", rng_seed=0)
    base.update(kw)
    return CertifyConfig(**base)


class TestPsafeLower:
    def test_single_safe_atom(self):
        post = atom_posterior(W_SAFE)
        cert = psafe_lower(NET12, post, T_UNIT, S01, cfg(num_samples=1))
        assert cert.value == pytest.approx(1.0)
        assert cert.covered_mass == pytest.approx(1.0)

    def test_half_safe_atoms(self):
        post = atom_posterior(W_SAFE, W_UNSAFE)
        # enough samples to hit both atoms with the per-index seeds
        cert = psafe_lower(NET12, post, T_UNIT, S01, cfg(num_samples=32))
        assert cert.value == pytest.approx(0.5)

    def test_zero_samples_vacuous(self):
        post = atom_posterior(W_SAFE)
        cert = psafe_lower(NET12, post, T_UNIT, S01, cfg(num_samples=0))
        assert cert.value == 0.0 and cert.boxes_used == 0

    def test_value_in_unit_interval(self, rng):
        for _ in range(5):
            net = random_net(rng, n_layers=1, max_width=8, n_out=2)
            post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                                     variance=np.full(net.n_weights, 0.05))
            T = linf_ball(rng.uniform(-0.3, 0.3, net.input_dim), 0.05)
            cert = psafe_lower(net, post, T, S01, cfg(num_samples=6, gamma=1.0))
            assert 0.0 <= cert.value <= 1.0
            assert 0.0 <= cert.covered_mass <= 1.0


class TestPsafeUpper:
    def test_single_unsafe_atom(self):
        post = atom_posterior(W_UNSAFE)
        cert = psafe_upper(NET12, post, T_UNIT, S01, cfg(num_samples=1))
        assert cert.value == pytest.approx(0.0)

    def test_vacuous_when_nothing_unsafe(self):
        post = atom_posterior(W_SAFE)
        cert = psafe_upper(NET12, post, T_UNIT, S01, cfg(num_samples=1))
        assert cert.value == pytest.approx(1.0)

    def test_lower_below_upper_paired(self, rng):
        for _ in range(10):
            net = random_net(rng, n_layers=1, max_width=8, n_out=2)
            post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                                     variance=np.full(net.n_weights, 0.05))
            T = linf_ball(rng.uniform(-0.3, 0.3, net.input_dim), 0.1)
            c = cfg(num_samples=6, gamma=1.5)
            lo = psafe_lower(net, post, T, S01, c)
            up = psafe_upper(net, post, T, S01, c)
            assert lo.value <= up.value + 1e-12


def scalar_worst(yL, yU, c):
    """The per-class formula the batched bound replaced: class c's lower
    logit against the upper logits of the others, picked with np.delete."""
    others = np.delete(yU, c)
    m = max(float(yL[c]), float(others.max())) if others.size else float(yL[c])
    denom = np.exp(yL[c] - m) + np.exp(others - m).sum()
    return float(np.exp(yL[c] - m) / denom)


class TestOutputWorstBest:
    def test_every_class_at_once_equals_the_scalar_formula(self):
        rng = np.random.default_rng(17)
        for n in range(1, 12):
            for scale in (1.0, 40.0, 800.0):
                yL = rng.uniform(-scale, scale, (12, n))
                yU = np.minimum(yL + rng.uniform(0, scale, (12, n)), 800.0)
                yU[0] = yL[0]                        # a point box
                yL[1], yU[1] = scale, scale          # every logit tied
                worst, best = output_worst(yL, yU), output_best(yL, yU)
                assert worst.shape == best.shape == (12, n)
                assert np.array_equal(worst, [[scalar_worst(a, b, c)
                                               for c in range(n)]
                                              for a, b in zip(yL, yU)])
                assert np.array_equal(best, [[scalar_worst(b, a, c)
                                              for c in range(n)]
                                             for a, b in zip(yL, yU)])
                for c in range(n):
                    assert np.array_equal(output_worst(yL, yU, c), worst[:, c])
                    one = output_best(yL[2], yU[2], c)
                    assert isinstance(one, float) and one == best[2, c]

    def test_degenerate_symmetric(self):
        assert output_worst([0, 0], [0, 0], 0) == pytest.approx(0.5)
        assert output_best([0, 0], [0, 0], 0) == pytest.approx(0.5)

    def test_known_value(self):
        assert output_worst([1, 0], [1, 0], 0) == pytest.approx(0.7311, abs=1e-4)
        assert output_best([1, 0], [1, 0], 0) == pytest.approx(0.7311, abs=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_bracket_softmax_on_box(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        yL = rng.normal(0, 2, n)
        yU = yL + rng.uniform(0, 2, n)
        c = int(rng.integers(0, n))
        lo, hi = output_worst(yL, yU, c), output_best(yL, yU, c)
        assert lo <= hi + 1e-12
        ys = rng.uniform(yL, yU, size=(1000, n))
        probs = np.exp(ys - ys.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.all(probs[:, c] >= lo - 1e-12)
        assert np.all(probs[:, c] <= hi + 1e-12)

    def test_extreme_logits_stable(self):
        assert output_worst([800, 0], [800, 0], 0) == pytest.approx(1.0)
        assert output_best([-800, 0], [-800, 0], 0) == pytest.approx(0.0, abs=1e-12)


class TestDsafe:
    def test_zero_samples_classification(self):
        post = atom_posterior(W_SAFE)
        task = Task.classification(0)
        assert dsafe_lower(NET12, post, T_UNIT, cfg(num_samples=0), task).value == 0.0
        assert dsafe_upper(NET12, post, T_UNIT, cfg(num_samples=0), task).value == 1.0

    def test_single_atom_point_T_exact(self):
        post = atom_posterior(W_SAFE)
        x = np.array([0.25])
        T = InputBox(lower=x, upper=x)
        want = softmax(forward(NET12, W_SAFE, x))[0]
        task = Task.classification(0)
        lo = dsafe_lower(NET12, post, T, cfg(num_samples=1), task).value
        up = dsafe_upper(NET12, post, T, cfg(num_samples=1), task).value
        assert lo == pytest.approx(want, abs=1e-9)
        assert up == pytest.approx(want, abs=1e-9)

    def test_lower_below_upper_paired(self, rng):
        for _ in range(8):
            net = random_net(rng, n_layers=1, max_width=8, n_out=3)
            post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                                     variance=np.full(net.n_weights, 0.02))
            T = linf_ball(rng.uniform(-0.3, 0.3, net.input_dim), 0.05)
            c = cfg(num_samples=6, gamma=1.5)
            task = Task.classification(int(rng.integers(0, 3)))
            lo = dsafe_lower(net, post, T, c, task).value
            up = dsafe_upper(net, post, T, c, task).value
            assert 0.0 <= lo <= up + 1e-12 <= 1.0 + 1e-12

    def test_regression_requires_range(self):
        net = Network.dense([1, 1])
        post = atom_posterior(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="sigma"):
            dsafe_lower(net, post, T_UNIT, cfg(num_samples=1), Task.regression())

    def test_regression_with_range(self):
        net = Network.dense([1, 1])
        post = atom_posterior(np.array([1.0, 0.0]))  # y = x
        c = cfg(num_samples=1, sigma_floor=-5.0, sigma_ceil=5.0)
        lo = dsafe_lower(net, post, T_UNIT, c, Task.regression()).value
        up = dsafe_upper(net, post, T_UNIT, c, Task.regression()).value
        assert lo == pytest.approx(-1.0, abs=1e-9)
        assert up == pytest.approx(1.0, abs=1e-9)


class TestDecisionRules:
    def test_confident_atom_is_robust(self):
        post = atom_posterior(W_SAFE)
        verdict = decision_robust(NET12, post, T_UNIT, 0, cfg(num_samples=1))
        assert verdict == "certified-robust"

    def test_wrong_class_detected(self):
        post = atom_posterior(W_UNSAFE)
        verdict = decision_robust(NET12, post, T_UNIT, 0, cfg(num_samples=1))
        assert verdict == "certified-wrong"

    def test_unknown_on_vacuous_bounds(self):
        post = atom_posterior(W_SAFE)
        verdict = decision_robust(NET12, post, T_UNIT, 0, cfg(num_samples=0))
        assert verdict == "unknown"

    def test_uncertainty_uniform_softmax(self):
        net = Network.dense([1, 3])
        w = np.zeros(net.n_weights)  # constant uniform softmax
        post = atom_posterior(w)
        x = np.array([0.0])
        T = InputBox(lower=x, upper=x)
        assert uncertainty_check(net, post, T, 0.4, cfg(num_samples=1))
        assert not uncertainty_check(net, post, T, 0.3, cfg(num_samples=1))

    def test_uncertainty_contradicts_confidence(self):
        post = atom_posterior(W_SAFE)
        assert not uncertainty_check(NET12, post, T_UNIT, 0.55, cfg(num_samples=1))

    def test_uncertainty_tau_validation(self):
        post = atom_posterior(W_SAFE)
        with pytest.raises(ValueError):
            uncertainty_check(NET12, post, T_UNIT, 1.5, cfg(num_samples=1))

    @pytest.mark.xfail(reason=(
        "ROADMAP item 8: output_worst/output_best and BoxSet.mean_bound round "
        "to nearest, so both uppers read 0.49999999999999994 below the mean 0.5"))
    def test_uppers_reach_mean_in_floating_point(self):
        # atom A: logits (0, 20); atom B: logits (20, 0); seed 0 draws both
        a, b = np.array([0.0, 0, 0, 20]), np.array([0.0, 0, 20, 0])
        post = atom_posterior(a, b)
        T = InputBox.point(np.zeros(1))
        drawn = {tuple(sample(post, (0, i))) for i in range(8)}
        assert drawn == {tuple(a), tuple(b)}
        means = post.weights @ softmax(forward(NET12, post.samples, T.center))
        assert means.tolist() == [0.5, 0.5]
        _, uppers = dsafe_bounds_all_classes(NET12, post, T, cfg())
        assert np.all(uppers >= means)
        assert not uncertainty_check(NET12, post, T, 0.5, cfg())


class TestMedianBounds:
    def test_full_coverage_three_boxes(self):
        entries = [(1.0, 1.5, 0.25), (2.0, 2.5, 0.5), (3.0, 3.5, 0.25)]
        lo, up = median_bounds(entries)
        assert lo == pytest.approx(2.0)

    def test_single_full_mass_box(self):
        lo, up = median_bounds([(0.3, 0.9, 1.0)])
        assert lo == pytest.approx(0.3) and up == pytest.approx(0.9)

    def test_insufficient_mass_errors(self):
        with pytest.raises(ValueError, match="half"):
            median_bounds([(0.0, 1.0, 0.4)])

    def test_point_everything_collapses(self):
        y = 1.7
        lo, up = median_bounds([(y, y, 1.0)])
        assert lo == up == pytest.approx(y)


class TestK0Rule:
    def test_uniform_penalties(self):
        assert k0_decision_check([0.6, 0.1], [1.0, 1.0]) == 0

    def test_skewed_penalties(self):
        assert k0_decision_check([0.3, 0.1], [1.0, 3.0]) == 0

    def test_no_class_clears(self):
        assert k0_decision_check([0.1, 0.1], [1.0, 1.0]) is None

    def test_inconsistent_penalties_error(self):
        with pytest.raises(ValueError, match="inconsistent"):
            k0_decision_check([0.6, 0.6], [1.0, 1.0])

    def test_nonpositive_penalty_error(self):
        with pytest.raises(ValueError):
            k0_decision_check([0.5, 0.5], [1.0, 0.0])


class TestProperties:
    def test_monotone_in_eps(self, rng):
        net = random_net(rng, n_layers=1, max_width=8, n_out=2)
        post = GaussianPosterior(mean=rng.normal(0, 0.5, net.n_weights),
                                 variance=np.full(net.n_weights, 0.02))
        x = rng.uniform(-0.3, 0.3, net.input_dim)
        c = cfg(num_samples=6, gamma=2.0)
        lowers = []
        for eps in (0.01, 0.05, 0.1, 0.2):
            T = linf_ball(x, eps)
            lo = psafe_lower(net, post, T, S01, c).value
            up = psafe_upper(net, post, T, S01, c).value
            lowers.append(lo)
            assert lo <= up + 1e-12
        # the lower bound can only shrink as the ball grows (fixed seeds);
        # the upper bound is not monotone because the attack point moves
        assert all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_more_samples_never_hurt_lower(self, rng):
        net = random_net(rng, n_layers=1, max_width=8, n_out=2)
        post = GaussianPosterior(mean=rng.normal(0, 0.4, net.n_weights),
                                 variance=np.full(net.n_weights, 0.02))
        T = linf_ball(rng.uniform(-0.2, 0.2, net.input_dim), 0.03)
        vals = [psafe_lower(net, post, T, S01, cfg(num_samples=n, gamma=1.0)).value
                for n in (2, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_config_echo_recorded(self):
        post = atom_posterior(W_SAFE)
        cert = psafe_lower(NET12, post, T_UNIT, S01, cfg(num_samples=1))
        assert cert.config["method"] == "ibp"
        assert cert.config["margin_scale"] == "std"
        assert cert.wall_time >= 0.0

    def test_each_certificate_owns_its_config(self):
        post = atom_posterior(W_SAFE, W_UNSAFE)
        T = InputBox(lower=np.array([[-1.0], [0.0], [0.5]]),
                     upper=np.array([[1.0], [0.5], [1.0]]))
        c = cfg(num_samples=4)
        for certs in (psafe_lower(NET12, post, T, S01, c),
                      psafe_upper(NET12, post, T, S01, c),
                      dsafe_lower(NET12, post, T, c, Task.classification(0))):
            certs[0].config["method"] = "lbp"
            assert [cert.config["method"] for cert in certs[1:]] == ["ibp"] * 2

    def test_bonferroni_mode_still_sound(self, rng):
        net = random_net(rng, n_layers=1, max_width=6, n_out=2)
        post = GaussianPosterior(mean=rng.normal(0, 0.4, net.n_weights),
                                 variance=np.full(net.n_weights, 0.02))
        T = linf_ball(np.zeros(net.input_dim), 0.03)
        c = cfg(num_samples=5, gamma=1.0, bonferroni=2)
        lo = psafe_lower(net, post, T, S01, c)
        up = psafe_upper(net, post, T, S01, c)
        assert 0.0 <= lo.value <= up.value + 1e-12

    @pytest.mark.parametrize("field, value", [
        ("num_samples", 2.5), ("num_samples", -1), ("rng_seed", -1),
        ("rng_seed", 1.5)])
    def test_counts_must_be_non_negative_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            cfg(**{field: value})

    def test_numpy_integer_counts_are_accepted(self):
        post = atom_posterior(W_SAFE)
        want = psafe_lower(NET12, post, T_UNIT, S01, cfg(num_samples=3))
        got = psafe_lower(NET12, post, T_UNIT, S01,
                          cfg(num_samples=np.int64(3), rng_seed=np.int32(0)))
        assert (got.value, got.boxes_used) == (want.value, want.boxes_used)

    def test_debug_line_per_certificate_batch(self, caplog):
        caplog.set_level(logging.DEBUG, logger="bnncert.certify")
        post = atom_posterior(W_SAFE, W_UNSAFE)
        T = InputBox(lower=np.array([[-1.0], [0.0], [0.5]]),
                     upper=np.array([[1.0], [0.5], [1.0]]))
        c = cfg(num_samples=4)
        psafe_lower(NET12, post, T, S01, c)
        psafe_upper(NET12, post, T_UNIT, S01, c)
        dsafe_lower(NET12, post, T, c, Task.classification(0))
        lines = [r for r in caplog.records if r.name == "bnncert.certify"]
        assert [r.args[:5] for r in lines] == [
            ("psafe", "lower", 3, 2, 4), ("psafe", "upper", 1, 2, 4),
            ("dsafe", "lower", 3, 2, 4)]
        assert all(r.args[5] >= 0.0 for r in lines)
        assert lines[0].getMessage().startswith(
            "psafe_lower: 3 regions, 2 of 4 boxes kept, ")

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_bonferroni_depth_must_be_even(self, depth):
        with pytest.raises(ValueError):
            cfg(bonferroni=depth)


class TestBonferroniDecision:
    """Overlapping boxes priced by inclusion-exclusion instead of being
    disjointified; the bounds must still bracket the predictive mean."""

    def test_repeated_atom_keeps_upper_above_mean(self):
        # atom A: logits (0, 20), class 1; atom B: logits (20, 0), class 0
        a, b = np.array([0.0, 0, 0, 20]), np.array([0.0, 0, 20, 0])
        post = atom_posterior(a, b)
        T = InputBox.point(np.zeros(1))
        c = cfg(num_samples=2, rng_seed=3, bonferroni=2)
        assert all(np.array_equal(sample(post, (3, i)), a) for i in range(2))
        # the predictive mean of class 0 is 0.5: B carries half the mass
        up = dsafe_upper(NET12, post, T, c, Task.classification(0))
        assert up.value >= 0.5
        assert decision_robust(NET12, post, T, 1, c) != "certified-robust"

    def test_constant_regression_output_is_bracketed(self):
        net = Network.dense([1, 1])
        post = atom_posterior(np.array([0.0, -4.0]))    # y = -4 everywhere
        T = InputBox.point(np.zeros(1))
        c = cfg(num_samples=4, bonferroni=2, sigma_floor=-5.0, sigma_ceil=5.0)
        task = Task.regression(0)
        assert dsafe_lower(net, post, T, c, task).value <= -4.0
        assert dsafe_upper(net, post, T, c, task).value >= -4.0

    def test_repeated_atom_is_priced_once(self):
        # four draws of the one atom are one box of mass 1, so both bounds
        # are exact; pricing the four copies at depth 2 gives 4 - 6 < 0
        net = Network.dense([1, 1])
        post = atom_posterior(np.array([0.0, -4.0]))    # y = -4 everywhere
        T = InputBox.point(np.zeros(1))
        c = cfg(num_samples=4, bonferroni=2, sigma_floor=-5.0, sigma_ceil=5.0)
        task = Task.regression(0)
        assert dsafe_lower(net, post, T, c, task).value == -4.0
        assert dsafe_upper(net, post, T, c, task).value == -4.0
