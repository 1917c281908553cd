import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from bnncert import posterior as posterior_mod
from bnncert.posterior import (GaussianPosterior, SamplePosterior, WeightBox,
                               bonferroni_bounds, box_mass, disjointify,
                               draws, inclusion_exclusion, make_box, sample)

STD_NORMAL = GaussianPosterior(mean=np.zeros(1), variance=np.ones(1))


def quad_mass(mean, var, lo, hi):
    """Independent 1-D quadrature oracle for the Gaussian box integral."""
    val, _ = quad(lambda t: norm.pdf(t, loc=mean, scale=np.sqrt(var)), lo, hi)
    return val


class TestSample:
    def test_degenerate_variance_returns_mean(self):
        post = GaussianPosterior(mean=np.array([1.0, -2.0]),
                                 variance=np.full(2, 1e-20))
        w = sample(post, 0)
        assert w == pytest.approx([1.0, -2.0], abs=1e-8)

    def test_single_atom(self):
        post = SamplePosterior(samples=np.array([[3.0, 4.0]]))
        for seed in range(5):
            assert np.array_equal(sample(post, seed), [3.0, 4.0])

    def test_clt_mean(self):
        draws = np.array([sample(STD_NORMAL, (0, i))[0] for i in range(100_000)])
        assert abs(draws.mean()) < 0.02

    def test_seeded_determinism(self):
        assert np.array_equal(sample(STD_NORMAL, (7, 3)), sample(STD_NORMAL, (7, 3)))

    @pytest.mark.parametrize("weights", [
        None,
        [0.1, 0.2, 0.3, 0.4],
        [0.5, 0.0, 0.25, 0.0, 0.25],
        [0.0, 0.3, 0.7],
    ])
    def test_atom_draw_equals_generator_choice(self, weights):
        """An atom draw picks the index rng.choice(n, p=weights) picks from
        a generator seeded alike, and never an atom of zero weight."""
        n = 4 if weights is None else len(weights)
        post = SamplePosterior(samples=np.arange(n, dtype=float)[:, None],
                               weights=weights)
        for seed in [*range(2000), *((s, i) for s in range(3) for i in range(200))]:
            idx = int(sample(post, seed)[0])
            assert idx == np.random.default_rng(seed).choice(n, p=post.weights)
            assert post.weights[idx] > 0.0

    @pytest.mark.parametrize("post", [
        GaussianPosterior(mean=[0.5, -1.0, 2.0], variance=[0.1, 1.0, 3.0]),
        SamplePosterior(samples=np.arange(12.0).reshape(4, 3),
                        weights=[0.1, 0.2, 0.3, 0.4])], ids=["gauss", "atoms"])
    def test_a_draw_is_a_one_seed_stack(self, post):
        seeds = [0, 5, (1, 2), (7, 3)]
        stack = draws(post, seeds)
        assert stack.shape == (len(seeds), post.n_weights)
        for seed, row in zip(seeds, stack):
            assert np.array_equal(sample(post, seed), draws(post, [seed])[0])
            assert np.array_equal(sample(post, seed), row)
        assert draws(post, []).shape == (0, post.n_weights)


class TestMakeBox:
    def test_zero_gamma(self):
        box = make_box(np.array([1.0, 2.0]), 0.0, STD_NORMAL)
        assert np.array_equal(box.lower, box.upper)

    def test_std_convention(self):
        post = GaussianPosterior(mean=np.array([0.0]), variance=np.array([4.0]))
        box = make_box(np.array([1.0]), 2.0, post)
        assert box.lower == pytest.approx([-3.0]) and box.upper == pytest.approx([5.0])

    def test_var_convention(self):
        post = GaussianPosterior(mean=np.array([0.0]), variance=np.array([4.0]))
        box = make_box(np.array([1.0]), 2.0, post, margin_scale="var")
        assert box.lower == pytest.approx([-7.0]) and box.upper == pytest.approx([9.0])

    def test_sample_posterior_forces_zero_width(self):
        post = SamplePosterior(samples=np.array([[1.0], [2.0]]))
        box = make_box(np.array([1.0]), 5.0, post)
        assert np.array_equal(box.lower, box.upper)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            make_box(np.array([0.0]), -1.0, STD_NORMAL)


class TestBoxMass:
    def test_total_mass(self):
        box = WeightBox(lower=np.array([-50.0]), upper=np.array([50.0]))
        assert box_mass(STD_NORMAL, box) == pytest.approx(1.0, abs=1e-12)

    def test_one_sigma_interval(self):
        box = WeightBox(lower=np.array([-1.0]), upper=np.array([1.0]))
        assert box_mass(STD_NORMAL, box) == pytest.approx(0.682689, abs=1e-6)

    def test_two_dim_product(self):
        post = GaussianPosterior(mean=np.zeros(2), variance=np.ones(2))
        box = WeightBox(lower=np.full(2, -1.0), upper=np.full(2, 1.0))
        assert box_mass(post, box) == pytest.approx(0.466065, abs=1e-6)

    def test_against_quadrature(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            mean = rng.normal(0, 2, n)
            var = rng.uniform(0.1, 3, n)
            lo = rng.normal(0, 2, n)
            hi = lo + rng.uniform(0, 4, n)
            post = GaussianPosterior(mean=mean, variance=var)
            want = np.prod([quad_mass(mean[j], var[j], lo[j], hi[j])
                            for j in range(n)])
            got = box_mass(post, WeightBox(lower=lo, upper=hi))
            assert got == pytest.approx(want, abs=1e-8)

    def test_underflow_guard_high_dim(self):
        # naive product of 400 per-dim masses would lose precision; the
        # log-space path keeps the tiny product representable and accurate
        n = 400
        post = GaussianPosterior(mean=np.zeros(n), variance=np.ones(n))
        box = WeightBox(lower=np.full(n, -1.0), upper=np.full(n, 1.0))
        m = box_mass(post, box)
        want = np.exp(n * np.log(0.6826894921370859))
        assert m == pytest.approx(want, rel=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_under_enlargement(self, seed, grow_lo, grow_hi):
        rng = np.random.default_rng(seed)
        lo = rng.normal(size=2)
        hi = lo + rng.uniform(0, 2, 2)
        post = GaussianPosterior(mean=rng.normal(size=2),
                                 variance=rng.uniform(0.2, 2, 2))
        small = WeightBox(lower=lo, upper=hi)
        big = WeightBox(lower=lo - grow_lo, upper=hi + grow_hi)
        assert box_mass(post, big) >= box_mass(post, small) - 1e-15

    def test_sample_posterior_closed_boundaries(self):
        post = SamplePosterior(samples=np.array([[0.0], [1.0], [2.0]]),
                               weights=np.array([0.2, 0.3, 0.5]))
        box = WeightBox(lower=np.array([0.0]), upper=np.array([1.0]))
        assert box_mass(post, box) == pytest.approx(0.5)

    def test_sample_posterior_atom_partition(self):
        rng = np.random.default_rng(1)
        post = SamplePosterior(samples=rng.normal(size=(10, 3)))
        total = sum(box_mass(post, make_box(s, 0.0, post))
                    for s in post.samples)
        assert total == pytest.approx(1.0, abs=1e-12)


def brute_union_mass(boxes, posterior):
    """Full inclusion-exclusion over all 2^N - 1 subsets."""
    total = 0.0
    n = len(boxes)
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            lo = np.maximum.reduce([boxes[i].lower for i in combo])
            hi = np.minimum.reduce([boxes[i].upper for i in combo])
            if np.all(lo <= hi):
                total += (-1) ** (r + 1) * box_mass(
                    posterior, WeightBox(lower=lo, upper=hi))
    return total


class TestBonferroni:
    def test_disjoint_pair_exact_at_minimal_depths(self):
        boxes = [WeightBox(lower=np.array([-2.0]), upper=np.array([-1.0])),
                 WeightBox(lower=np.array([0.0]), upper=np.array([1.0]))]
        want = sum(box_mass(STD_NORMAL, b) for b in boxes)
        lo, up = bonferroni_bounds(boxes, STD_NORMAL, 2, 1)
        assert lo == pytest.approx(want, abs=1e-12)
        assert up == pytest.approx(want, abs=1e-12)

    def test_two_overlapping_exact_at_depth_two(self):
        boxes = [WeightBox(lower=np.array([0.0]), upper=np.array([2.0])),
                 WeightBox(lower=np.array([1.0]), upper=np.array([3.0]))]
        lo, _ = bonferroni_bounds(boxes, STD_NORMAL, 2, 1)
        want = quad_mass(0.0, 1.0, 0.0, 3.0)
        assert lo == pytest.approx(want, abs=1e-8)

    def test_random_overlapping_sandwich(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 6))
            boxes = []
            for _ in range(n):
                lo = rng.normal(0, 1, 2)
                boxes.append(WeightBox(lower=lo, upper=lo + rng.uniform(0.5, 2, 2)))
            post = GaussianPosterior(mean=np.zeros(2), variance=np.ones(2))
            exact = brute_union_mass(boxes, post)
            lo2, up1 = bonferroni_bounds(boxes, post, 2, 1)
            lo4, up3 = bonferroni_bounds(boxes, post, 4, 3)
            assert lo2 <= exact + 1e-10 and exact <= up1 + 1e-10
            assert lo4 <= exact + 1e-10 and exact <= up3 + 1e-10
            # deeper truncations tighten
            assert lo4 >= lo2 - 1e-10 and up3 <= up1 + 1e-10

    def test_union_bound_at_depth_one(self, rng):
        boxes = [WeightBox(lower=np.array([0.0]), upper=np.array([2.0])),
                 WeightBox(lower=np.array([1.0]), upper=np.array([3.0]))]
        _, up = bonferroni_bounds(boxes, STD_NORMAL, 2, 1)
        union_bound = sum(box_mass(STD_NORMAL, b) for b in boxes)
        assert up <= union_bound + 1e-12

    def test_invalid_depths(self):
        boxes = [WeightBox(lower=np.array([0.0]), upper=np.array([1.0]))]
        with pytest.raises(ValueError):
            bonferroni_bounds(boxes, STD_NORMAL, 3, 1)
        with pytest.raises(ValueError):
            bonferroni_bounds(boxes, STD_NORMAL, 2, 2)

    def test_empty_list(self):
        assert bonferroni_bounds([], STD_NORMAL, 2, 1) == (0.0, 0.0)

    @pytest.mark.parametrize("depths", [(2, 1), (2, 3), (4, 3), (4, 5)])
    def test_intersections_integrated_once(self, monkeypatch, depths):
        # Both bounds sum a prefix of one term list, integrated to the
        # deeper depth, with the bits of one enumeration per depth.
        boxes = [WeightBox(lower=np.array([a]), upper=np.array([a + 1.5]))
                 for a in (-1.0, -0.5, 0.0, 0.25, 0.5)]
        stack = WeightBox(lower=np.array([b.lower for b in boxes]),
                          upper=np.array([b.upper for b in boxes]))
        singles = sum(box_mass(STD_NORMAL, stack))
        want = [float(np.clip(sum((m for _, m in inclusion_exclusion(
            stack, STD_NORMAL, d)), singles), 0.0, 1.0)) for d in depths]
        calls = []

        def counting(boxes, posterior, depth):
            calls.append(depth)
            return inclusion_exclusion(boxes, posterior, depth)

        monkeypatch.setattr(posterior_mod, "inclusion_exclusion", counting)
        assert list(bonferroni_bounds(boxes, STD_NORMAL, *depths)) == want
        assert calls == [max(depths)]


def boxes_1d(*intervals):
    """(lower, upper) row stacks of one-dimensional boxes."""
    lo, hi = np.array(intervals, dtype=float).T
    return lo[:, None], hi[:, None]


class TestDisjointify:
    def test_disjoint_unchanged(self):
        assert list(disjointify(*boxes_1d((0, 1), (2, 3)))) == [0, 1]

    def test_overlap_keeps_earlier(self):
        assert list(disjointify(*boxes_1d((0, 2), (1, 3)))) == [0]

    def test_third_box_dropped(self):
        assert list(disjointify(*boxes_1d((0, 1), (2, 3), (0.5, 2.5)))) == [0, 1]


def test_posterior_arrays_are_read_only_copies():
    """A posterior's identity implies its values: writing to its arrays
    raises, and the caller's own arrays stay writable and unshared."""
    mean, var = np.zeros(3), np.ones(3)
    samples, weights = np.zeros((2, 3)), np.full(2, 0.5)
    gauss = GaussianPosterior(mean=mean, variance=var)
    atoms = SamplePosterior(samples=samples, weights=weights)
    for view in (gauss.mean, gauss.variance, atoms.samples, atoms.weights,
                 SamplePosterior(samples=samples).weights):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
    for own, kept in ((mean, gauss.mean), (var, gauss.variance),
                      (samples, atoms.samples), (weights, atoms.weights)):
        own.fill(7.0)
        assert not np.shares_memory(own, kept) and not np.any(kept == 7.0)


def test_sample_posterior_validation():
    with pytest.raises(ValueError):
        SamplePosterior(samples=np.array([[1.0]]), weights=np.array([0.5]))
    with pytest.raises(ValueError):
        GaussianPosterior(mean=np.zeros(2), variance=np.array([1.0, 0.0]))


@pytest.mark.parametrize("make", [
    lambda: GaussianPosterior(mean=np.array([np.nan, 0.0]), variance=np.ones(2)),
    lambda: GaussianPosterior(mean=np.zeros(2), variance=np.array([1.0, np.inf])),
    lambda: SamplePosterior(samples=np.array([[0.0, np.nan]])),
    lambda: SamplePosterior(samples=np.zeros((2, 1)),
                            weights=np.array([np.nan, 0.5])),
    lambda: WeightBox(lower=np.array([-np.inf]), upper=np.array([0.0])),
    lambda: WeightBox(lower=np.array([0.0]), upper=np.array([np.nan])),
])
def test_non_finite_input_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()
