import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnncert.net import ShapeError
from bnncert.posterior import WeightBox
from bnncert.spec import (Box, InputBox, OutputSpec, argmax_spec, contains,
                          excludes, linf_ball, margins, stack_specs)


class TestLinfBall:
    def test_zero_eps_degenerate(self):
        T = linf_ball(np.array([0.5]), 0.0)
        assert T.lower == pytest.approx([0.5]) and T.upper == pytest.approx([0.5])

    def test_basic_widening(self):
        T = linf_ball(np.array([0.5]), 0.1, clip=(0, 1))
        assert T.lower == pytest.approx([0.4]) and T.upper == pytest.approx([0.6])

    def test_clipping(self):
        T = linf_ball(np.array([0.05]), 0.1, clip=(0, 1))
        assert T.lower == pytest.approx([0.0]) and T.upper == pytest.approx([0.15])

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            linf_ball(np.array([0.0]), -0.1)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_eps(self, e1, e2):
        lo, hi = sorted([e1, e2])
        x = np.array([0.3, -0.7])
        small, big = linf_ball(x, lo), linf_ball(x, hi)
        assert np.all(big.lower <= small.lower)
        assert np.all(big.upper >= small.upper)


class TestArgmaxSpec:
    def test_two_class_first(self):
        S = argmax_spec(0, 2)
        assert np.array_equal(S.C, [[1.0, -1.0]])
        assert np.array_equal(S.d, [0.0])

    def test_two_class_second(self):
        S = argmax_spec(1, 2)
        assert np.array_equal(S.C, [[-1.0, 1.0]])

    def test_three_class(self):
        S = argmax_spec(0, 3)
        assert np.array_equal(S.C, [[1, -1, 0], [1, 0, -1]])
        assert np.array_equal(S.d, [0.0, 0.0])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            argmax_spec(0, 1)
        with pytest.raises(ValueError):
            argmax_spec(2, 2)


S01 = argmax_spec(0, 2)  # y0 - y1 >= 0


class TestContainsExcludes:
    def test_contains_clear_margin(self):
        assert contains(S01, [2, 0], [3, 1])

    def test_contains_overlap_fails(self):
        assert not contains(S01, [0, 0], [1, 1])

    def test_contains_point(self):
        y = np.array([1.0, 0.5])
        assert contains(S01, y, y)

    def test_excludes_clear(self):
        assert excludes(S01, [0, 2], [1, 3])

    def test_excludes_overlap_fails(self):
        assert not excludes(S01, [0, 0], [1, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            contains(S01, [0, 0, 0], [1, 1, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_never_both(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        S = OutputSpec(C=rng.normal(size=(3, n)), d=rng.normal(size=3))
        lo = rng.normal(size=n)
        hi = lo + rng.uniform(0, 2, size=n)
        assert not (contains(S, lo, hi) and excludes(S, lo, hi))

    def test_contains_fuzz(self, rng):
        hits = 0
        while hits < 5:
            n = int(rng.integers(2, 5))
            S = OutputSpec(C=rng.normal(size=(2, n)), d=rng.uniform(0, 3, 2))
            lo = rng.normal(0, 0.3, n)
            hi = lo + rng.uniform(0, 0.5, n)
            if not contains(S, lo, hi):
                continue
            hits += 1
            ys = rng.uniform(lo, hi, size=(10_000, n))
            assert np.all(S.satisfied(ys))

    def test_excludes_fuzz(self, rng):
        hits = 0
        while hits < 5:
            n = int(rng.integers(2, 5))
            S = OutputSpec(C=rng.normal(size=(2, n)), d=rng.uniform(-3, 0, 2))
            lo = rng.normal(0, 0.3, n)
            hi = lo + rng.uniform(0, 0.5, n)
            if not excludes(S, lo, hi):
                continue
            hits += 1
            ys = rng.uniform(lo, hi, size=(10_000, n))
            assert not np.any(S.satisfied(ys))


def integer_specs(rng, M, n_out):
    """M specs with 1 to 4 rows of small integer coefficients, so that many
    margins over integer output boxes come out exactly 0.0."""
    return [OutputSpec(C=rng.integers(-2, 3, (r, n_out)),
                       d=rng.integers(-2, 3, r))
            for r in rng.integers(1, 5, M)]


@pytest.mark.parametrize("n_out", [2, 5, 9, 13])
def test_stacked_margins_equal_the_row_formula(n_out):
    # n_out >= 9 takes numpy's pairwise summation of the products.
    rng = np.random.default_rng(n_out)
    M, K = 7, 6
    specs = integer_specs(rng, M, n_out)
    C, d = stack_specs(specs, M, n_out)
    yL = rng.normal(size=(M, K, n_out))
    yU = yL + rng.uniform(0, 1, (M, K, n_out))
    low, high = margins(C[:, None], d[:, None], yL, yU)
    for m, S in enumerate(specs):
        r = len(S.d)
        for k in range(K):
            worst = np.where(S.C >= 0, S.C * yL[m, k], S.C * yU[m, k])
            best = np.where(S.C >= 0, S.C * yU[m, k], S.C * yL[m, k])
            assert np.array_equal(low[m, k, :r], worst.sum(axis=1) + S.d)
            assert np.array_equal(high[m, k, :r], best.sum(axis=1) + S.d)
            # Padding repeats the last row, so every minimum is the spec's.
            assert low[m, k].min() == low[m, k, :r].min()
            assert high[m, k].min() == high[m, k, :r].min()


@pytest.mark.parametrize("n_out", [2, 4, 9, 12])
def test_stacked_flags_equal_per_pair_checks(n_out):
    rng = np.random.default_rng([n_out, 1])
    M, K = 9, 8
    specs = integer_specs(rng, M, n_out)
    yL = rng.integers(-3, 4, (M, K, n_out)).astype(float)
    yU = yL + rng.integers(0, 3, (M, K, n_out))
    C, d = stack_specs(specs, M, n_out)
    low, high = margins(C[:, None], d[:, None], yL, yU)
    assert np.any(low == 0.0) and np.any(high == 0.0)
    assert np.array_equal(low.min(axis=-1) >= 0.0,
                          [[contains(S, a, b) for a, b in zip(L, U)]
                           for S, L, U in zip(specs, yL, yU)])
    assert np.array_equal(high.min(axis=-1) < 0.0,
                          [[excludes(S, a, b) for a, b in zip(L, U)]
                           for S, L, U in zip(specs, yL, yU)])


def test_zero_margin_is_contained_not_excluded():
    y = np.array([1.0, 1.0])                  # y0 - y1 == 0 on the point
    assert contains(S01, y, y) and not excludes(S01, y, y)
    assert contains(S01, [1, 0], [2, 1])      # lower margin 1 - 1 == 0
    assert not excludes(S01, [0, 1], [1, 2])  # upper margin 1 - 1 == 0


def test_stack_specs_shapes_and_errors():
    S3 = OutputSpec(C=[[1.0, -1.0, 0.0]], d=[0.5])
    C, d = stack_specs(S3, 4, 3)
    assert C.shape == (1, 1, 3) and d.shape == (1, 1)
    C, d = stack_specs([argmax_spec(0, 3), S3], 2, 3)
    assert np.array_equal(C[1], [[1.0, -1.0, 0.0]] * 2)
    assert np.array_equal(d[1], [0.5, 0.5])
    C, d = stack_specs([], 0, 3)
    assert C.shape == (0, 1, 3) and d.shape == (0, 1)
    with pytest.raises(ShapeError, match="specs for"):
        stack_specs([S3], 2, 3)
    with pytest.raises(ShapeError, match="outputs"):
        stack_specs([S3, argmax_spec(0, 2)], 2, 3)


def test_regions_and_weight_boxes_are_one_box_type():
    assert InputBox is WeightBox is Box
    stack = Box(lower=np.zeros((2, 3, 4)), upper=np.ones((2, 3, 4)))
    assert stack.dim == 4 and stack.center.shape == (2, 3, 4)
    assert stack.sample(np.random.default_rng(0), 5).shape == (5, 2, 3, 4)
    with pytest.raises(ShapeError):
        Box(lower=0.0, upper=1.0)


def test_input_box_validation():
    with pytest.raises(ValueError):
        InputBox(lower=np.array([1.0]), upper=np.array([0.0]))
    with pytest.raises(ValueError):
        InputBox(lower=np.array([np.inf]), upper=np.array([np.inf]))
