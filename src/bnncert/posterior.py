"""Weight-space posteriors, weight boxes and exact posterior box integrals."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .net import ShapeError


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")


def _frozen(a) -> np.ndarray:
    """A read-only float copy of a, so a posterior object's identity
    implies its values (box sets are reused on that identity)."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GaussianPosterior:
    """Diagonal-Gaussian posterior over the flat weight vector; its arrays
    are read-only copies."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        m = _frozen(self.mean).reshape(-1)
        v = _frozen(self.variance).reshape(-1)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "variance", v)
        if m.shape != v.shape:
            raise ShapeError("mean and variance lengths differ")
        _require_finite(m, "posterior mean")
        _require_finite(v, "posterior variance")
        if np.any(v <= 0):
            raise ValueError("variance entries must be strictly positive")

    @property
    def n_weights(self) -> int:
        return self.mean.shape[0]

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)


@dataclass(frozen=True, eq=False)
class SamplePosterior:
    """Discrete posterior given by weighted weight-vector atoms (e.g. HMC);
    its arrays are read-only copies."""

    samples: np.ndarray
    weights: np.ndarray | None = None
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        s = np.atleast_2d(_frozen(self.samples))
        object.__setattr__(self, "samples", s)
        if s.shape[0] < 1:
            raise ValueError("need at least one sample")
        _require_finite(s, "posterior samples")
        w = self.weights
        if w is None:
            w = np.full(s.shape[0], 1.0 / s.shape[0])
        w = _frozen(w).reshape(-1)
        object.__setattr__(self, "weights", w)
        if w.shape[0] != s.shape[0]:
            raise ShapeError("one weight per sample required")
        _require_finite(w, "sample weights")
        if abs(w.sum() - 1.0) > 1e-9 or np.any(w < 0):
            raise ValueError("sample weights must be a probability vector")

    @property
    def n_weights(self) -> int:
        return self.samples.shape[1]


Posterior = GaussianPosterior | SamplePosterior


@dataclass(frozen=True, eq=False)
class WeightBox:
    """An axis-aligned box over the flat weight vector, or a stack of K
    boxes when ``lower`` and ``upper`` have shape (K, n_w)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim < 2:
            lo, hi = lo.reshape(-1), hi.reshape(-1)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim > 2:
            raise ShapeError("box bounds must have equal shapes, (n_w,) or (K, n_w)")
        _require_finite(lo, "box lower bound")
        _require_finite(hi, "box upper bound")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


def sample(posterior: Posterior, rng_seed) -> np.ndarray:
    """Draw one weight vector; the seed fully determines the draw."""
    rng = np.random.default_rng(rng_seed)
    if isinstance(posterior, GaussianPosterior):
        return posterior.mean + posterior.std * rng.standard_normal(posterior.n_weights)
    # The inverse-CDF draw rng.choice(n, p=weights) makes, without its
    # checks of p, which the posterior already validated.
    cdf = posterior.weights.cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(), side="right")
    return posterior.samples[idx].copy()


def make_box(w: np.ndarray, gamma: float, posterior: Posterior,
             margin_scale: str = "std") -> WeightBox:
    """Axis-aligned box of half-width gamma (in posterior scale) around w,
    or a stack of boxes around the rows of w, shape (N, n_w).

    margin_scale 'std' uses gamma standard deviations per weight, 'var' uses
    gamma times the variance. Sample-based posteriors always get zero-width
    boxes, so the box probability is the atom's own mass.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    w = np.asarray(w, dtype=float)
    if isinstance(posterior, SamplePosterior):
        return WeightBox(lower=w, upper=w)
    if margin_scale == "std":
        hw = gamma * posterior.std
    elif margin_scale == "var":
        hw = gamma * posterior.variance
    else:
        raise ValueError(f"unknown margin scale {margin_scale!r}")
    return WeightBox(lower=w - hw, upper=w + hw)


def box_mass(posterior: Posterior, box: WeightBox):
    """Exact posterior probability of an axis-aligned weight box; for a
    stack of K boxes, an array of the K masses.

    Gaussian: product of per-dimension erf differences, accumulated in log
    space so very high-dimensional products do not underflow, over the
    whole stack at once. Sample-based: summed weight of atoms inside each
    closed box, one box at a time (a stacked test would hold K x atoms x
    n_w flags).
    """
    lower, upper = box.lower, box.upper
    if isinstance(posterior, SamplePosterior):
        s, w = posterior.samples, posterior.weights
        mass = np.array([w[np.all((s >= lo) & (s <= hi), axis=1)].sum()
                         for lo, hi in zip(np.atleast_2d(lower),
                                           np.atleast_2d(upper))])
    else:
        if lower.shape[-1] != posterior.n_weights:
            raise ShapeError("box dimensionality differs from posterior")
        # In place: over a stack, every temporary holds K x n_w entries.
        denom = np.sqrt(2.0 * posterior.variance)
        per_dim = np.divide(posterior.mean - lower, denom)
        erf(per_dim, out=per_dim)
        per_dim -= erf((posterior.mean - upper) / denom)
        per_dim *= 0.5
        np.clip(per_dim, 0.0, 1.0, out=per_dim)
        empty = np.any(per_dim == 0.0, axis=-1)
        with np.errstate(divide="ignore"):
            mass = np.exp(np.log(per_dim, out=per_dim).sum(axis=-1))
        mass = np.where(empty, 0.0, mass)
    mass = np.clip(mass, 0.0, 1.0).reshape(lower.shape[:-1])
    return float(mass) if mass.ndim == 0 else mass


def inclusion_exclusion(boxes: WeightBox, posterior: Posterior,
                        depth: int) -> list[tuple[tuple, float]]:
    """The higher-order terms of truncated inclusion-exclusion over a stack
    of weight boxes: (J, s_J m(J)) for every index set J of 2 to ``depth``
    boxes whose intersection is not empty, in ``itertools.combinations``
    order, where m(J) is the posterior mass of the intersection and
    s_J = (-1)^(|J|+1).

    Added after the single masses, the terms give the truncated union
    mass: an even depth under-counts it, an odd depth over-counts it, and
    any depth is exact for pairwise-disjoint boxes. Weighting term J by the
    least of values g[J] >= 0, an even depth likewise bounds from below the
    integral of the largest g among the boxes containing each weight. The
    terms do not depend on g, so one list serves every g. Cost is
    O(N^depth).
    """
    terms = []
    for j in range(2, min(depth, len(boxes.lower)) + 1):
        sign = (-1.0) ** (j + 1)
        for combo in itertools.combinations(range(len(boxes.lower)), j):
            lo = boxes.lower[list(combo)].max(axis=0)
            hi = boxes.upper[list(combo)].min(axis=0)
            if np.all(lo <= hi):
                terms.append((combo, sign * box_mass(
                    posterior, WeightBox(lower=lo, upper=hi))))
    return terms


def bonferroni_bounds(boxes: list[WeightBox], posterior: Posterior,
                      depth_lower: int = 2, depth_upper: int = 1) -> tuple[float, float]:
    """Two-sided bounds on the posterior mass of a union of (possibly
    overlapping) boxes: inclusion-exclusion truncated at an even depth
    (lower bound) and at an odd depth (upper bound), each summing a prefix
    of one term list integrated to the deeper of the two depths."""
    if depth_lower % 2 != 0 or depth_lower < 2:
        raise ValueError("depth_lower must be an even integer >= 2")
    if depth_upper % 2 != 1 or depth_upper < 1:
        raise ValueError("depth_upper must be an odd integer >= 1")
    shape = (len(boxes), posterior.n_weights)
    stack = WeightBox(lower=np.reshape([b.lower for b in boxes], shape),
                      upper=np.reshape([b.upper for b in boxes], shape))
    singles = sum(box_mass(posterior, stack))
    terms = inclusion_exclusion(stack, posterior, max(depth_lower, depth_upper))
    lower = sum((m for J, m in terms if len(J) <= depth_lower), singles)
    upper = sum((m for J, m in terms if len(J) <= depth_upper), singles)
    return float(np.clip(lower, 0.0, 1.0)), float(np.clip(upper, 0.0, 1.0))


def disjointify(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Row indices of a greedy pairwise-disjoint subset of the boxes
    [lower[i], upper[i]]: keep each box unless it intersects an already-kept
    one. Earlier boxes win, so results are order-dependent but
    deterministic. Each kept box clears every later box it meets in one
    array expression, so only kept boxes are tested against others: boxes
    meet iff each one's lower corner lies below the other's upper corner."""
    alive = np.ones(len(lower), dtype=bool)
    for i in range(len(lower)):
        if alive[i]:
            alive[i + 1:] &= ~np.all((lower[i + 1:] <= upper[i])
                                     & (lower[i] <= upper[i + 1:]), axis=1)
    return np.flatnonzero(alive)
