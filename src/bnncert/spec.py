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

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

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


def stack_specs(S, M: int, n_out: int):
    """One spec, or M specs, as arrays C (M or 1, r, n_out) and d (M or 1,
    r). A shorter spec repeats its last row, which keeps every minimum over
    the rows and its first argmin; no specs give (0, 1, n_out) and (0, 1)."""
    specs = [S] if isinstance(S, OutputSpec) else list(S)
    if len(specs) != M and not isinstance(S, OutputSpec):
        raise ShapeError(f"{len(specs)} specs for {M} regions")
    if any(s.n_outputs != n_out for s in specs):
        raise ShapeError(f"specs must have {n_out} outputs")
    r = max((len(s.d) for s in specs), default=1)

    def padded(a):          # a spec's C or d, one entry per row
        return a if len(a) == r else a[np.minimum(np.arange(r), len(a) - 1)]

    return (np.reshape([padded(s.C) for s in specs], (-1, r, n_out)),
            np.reshape([padded(s.d) for s in specs], (-1, r)))


def margins(C, d, yL, yU):
    """Exact lower and upper bounds, attained at corners, of every row of
    C y + d over output boxes [yL, yU] (..., n_out), each (..., r), with C
    (..., r, n_out) and d (..., r) broadcast against the leading axes."""
    yL, yU, pos = yL[..., None, :], yU[..., None, :], C >= 0
    return (np.where(pos, C * yL, C * yU).sum(axis=-1) + d,
            np.where(pos, C * yU, C * yL).sum(axis=-1) + d)


def _margins(S: OutputSpec, yL, yU):
    yL = np.asarray(yL, dtype=float)
    yU = np.asarray(yU, dtype=float)
    if yL.shape != yU.shape or yL.shape[0] != S.n_outputs:
        raise ShapeError(
            f"output box dim {yL.shape} does not match spec with {S.n_outputs} outputs"
        )
    if np.any(yL > yU):
        raise ValueError("output box lower bound exceeds upper bound")
    return margins(S.C, S.d, yL, yU)


def contains(S: OutputSpec, yL, yU) -> bool:
    """True iff every y in [yL, yU] satisfies all constraint rows: every
    row's lower margin is >= 0."""
    return bool(np.min(_margins(S, yL, yU)[0]) >= 0.0)


def excludes(S: OutputSpec, yL, yU) -> bool:
    """True if some single row is violated by every y in [yL, yU]: some
    row's upper margin is < 0.

    Sound but conservative: a box outside S only via different rows at
    different points is not detected.
    """
    return bool(np.min(_margins(S, yL, yU)[1]) < 0.0)
