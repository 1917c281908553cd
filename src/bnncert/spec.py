"""Input regions and safe output sets.

An input region is an axis-aligned box; a safe output set is a convex
polytope C y + d >= 0 over the network logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .net import ShapeError


@dataclass(frozen=True, eq=False)
class InputBox:
    """An axis-aligned input box, or a stack of boxes when ``lower`` and
    ``upper`` carry leading axes, shape (..., n_in)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim < 1:
            raise ShapeError("box bounds must have equal shapes, (..., n_in)")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box lower bound exceeds upper bound")

    @property
    def dim(self) -> int:
        return self.lower.shape[-1]

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)

    @staticmethod
    def point(x) -> "InputBox":
        x = np.asarray(x, dtype=float)
        return InputBox(lower=x, upper=x)


@dataclass(frozen=True, eq=False)
class OutputSpec:
    C: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        d = np.asarray(self.d, dtype=float).reshape(-1)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)
        if C.shape[0] != d.shape[0]:
            raise ShapeError(f"C has {C.shape[0]} rows but d has {d.shape[0]} entries")
        if not (np.all(np.isfinite(C)) and np.all(np.isfinite(d))):
            raise ValueError("spec constraints C and d must be finite")

    @property
    def n_outputs(self) -> int:
        return self.C.shape[1]

    def satisfied(self, y: np.ndarray) -> np.ndarray:
        """Pointwise membership check; accepts batches on leading axes."""
        vals = np.asarray(y, dtype=float) @ self.C.T + self.d
        return np.all(vals >= 0.0, axis=-1)


def linf_ball(x, eps, clip: tuple | None = None) -> InputBox:
    """L-infinity ball around x with scalar or per-dimension radius.

    clip, when given, is a (lo, hi) pair applied per dimension after widening.
    """
    x = np.asarray(x, dtype=float)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), x.shape)
    if np.any(eps < 0):
        raise ValueError("epsilon must be nonnegative")
    lo, hi = x - eps, x + eps
    if clip is not None:
        lo = np.maximum(lo, clip[0])
        hi = np.minimum(hi, clip[1])
    return InputBox(lower=lo, upper=hi)


def argmax_spec(true_class: int, n_classes: int) -> OutputSpec:
    """Polytope encoding 'true_class is the argmax': y_c - y_j >= 0 for j != c."""
    if n_classes < 2:
        raise ValueError("argmax spec needs at least 2 classes")
    if not 0 <= true_class < n_classes:
        raise ValueError(f"true_class {true_class} out of range for {n_classes} classes")
    rows = []
    for j in range(n_classes):
        if j == true_class:
            continue
        r = np.zeros(n_classes)
        r[true_class] = 1.0
        r[j] = -1.0
        rows.append(r)
    return OutputSpec(C=np.stack(rows), d=np.zeros(n_classes - 1))


def _check_box(S: OutputSpec, yL: np.ndarray, yU: np.ndarray):
    yL = np.asarray(yL, dtype=float)
    yU = np.asarray(yU, dtype=float)
    if yL.shape != yU.shape or yL.shape[0] != S.n_outputs:
        raise ShapeError(
            f"output box dim {yL.shape} does not match spec with {S.n_outputs} outputs"
        )
    if np.any(yL > yU):
        raise ValueError("output box lower bound exceeds upper bound")
    return yL, yU


def contains(S: OutputSpec, yL, yU) -> bool:
    """True iff every y in [yL, yU] satisfies all constraint rows.

    The minimum of a linear form over a box is attained at a corner, so this
    check is exact for polytopes.
    """
    yL, yU = _check_box(S, yL, yU)
    worst = np.where(S.C >= 0, S.C * yL, S.C * yU).sum(axis=1) + S.d
    return bool(np.min(worst) >= 0.0)


def excludes(S: OutputSpec, yL, yU) -> bool:
    """True if some single row is violated by every y in [yL, yU].

    Sound but conservative: a box outside S only via different rows at
    different points is not detected.
    """
    yL, yU = _check_box(S, yL, yU)
    best = np.where(S.C >= 0, S.C * yU, S.C * yL).sum(axis=1) + S.d
    return bool(np.min(best) < 0.0)
