"""Weight-space posteriors and exact posterior integrals over weight boxes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf

from .net import ShapeError
from .spec import Box


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
WeightBox = Box             # a box over the flat weight vector


def draws(posterior: Posterior, seeds) -> np.ndarray:
    """One weight vector per seed, stacked (len(seeds), n_w); each seed
    alone decides its row, so a longer list of seeds extends a shorter one.

    Gaussian: each seed's generator fills its own row, and the stack is
    scaled and shifted in place, with the bits of mean + std * z.
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    if isinstance(posterior, GaussianPosterior):
        out = np.empty((len(rngs), posterior.n_weights))
        for rng, row in zip(rngs, out):
            rng.standard_normal(out=row)
        out *= posterior.std
        out += posterior.mean
        return out
    # The inverse-CDF draw rng.choice(n, p=weights) makes, without its
    # checks of p, which the posterior already validated.
    cdf = posterior.weights.cumsum()
    cdf /= cdf[-1]
    idx = cdf.searchsorted([rng.random() for rng in rngs], side="right")
    return np.take(posterior.samples, idx, axis=0)


def sample(posterior: Posterior, rng_seed) -> np.ndarray:
    """Draw one weight vector; the seed fully determines the draw."""
    return draws(posterior, [rng_seed])[0]


def half_width(posterior: Posterior, gamma: float,
               margin_scale: str = "std") -> np.ndarray | None:
    """Per-weight half-width of a box gamma posterior scales wide: gamma
    standard deviations ('std') or gamma times the variance ('var'); None
    for a sample posterior, whose boxes have zero width."""
    if not 0.0 <= gamma < np.inf:
        raise ValueError("gamma must be finite and nonnegative")
    if isinstance(posterior, SamplePosterior):
        return None
    if margin_scale == "std":
        hw = posterior.std
        hw *= gamma
        return hw
    if margin_scale == "var":
        return gamma * posterior.variance
    raise ValueError(f"unknown margin scale {margin_scale!r}")


def make_box(w: np.ndarray, gamma: float, posterior: Posterior,
             margin_scale: str = "std") -> Box:
    """Axis-aligned box of ``half_width`` around w, or a stack of boxes
    around the rows of w, shape (N, n_w). Sample-based posteriors always
    get zero-width boxes, so the box probability is the atom's own mass.
    """
    hw = half_width(posterior, gamma, margin_scale)
    w = np.asarray(w, dtype=float)
    if hw is None:
        return Box(lower=w, upper=w)
    return Box(lower=w - hw, upper=w + hw)


def box_mass(posterior: Posterior, box: Box):
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
        # 0.5 * (erf((mean - lower) / denom) - erf((mean - upper) / denom)),
        # in place on two work arrays of the stack's shape.
        denom = 2.0 * posterior.variance
        np.sqrt(denom, out=denom)
        per_dim = np.subtract(posterior.mean, lower)
        per_dim /= denom
        erf(per_dim, out=per_dim)
        work = np.subtract(posterior.mean, upper)
        work /= denom
        per_dim -= erf(work, out=work)
        per_dim *= 0.5
        np.clip(per_dim, 0.0, 1.0, out=per_dim)
        empty = np.any(per_dim == 0.0, axis=-1)
        with np.errstate(divide="ignore"):
            mass = np.exp(np.log(per_dim, out=per_dim).sum(axis=-1))
        mass = np.where(empty, 0.0, mass)
    mass = np.clip(mass, 0.0, 1.0).reshape(lower.shape[:-1])
    return float(mass) if mass.ndim == 0 else mass


def inclusion_exclusion(boxes: Box, posterior: Posterior,
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
                    posterior, Box(lower=lo, upper=hi))))
    return terms


def bonferroni_bounds(boxes: list[Box], posterior: Posterior,
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
    stack = Box(lower=np.reshape([b.lower for b in boxes], shape),
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
