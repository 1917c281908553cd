"""Bound algorithms for probabilistic and decision robustness.

Four certificates are produced: lower/upper bounds on the posterior
probability of safety, and lower/upper bounds on the posterior-predictive
decision (softmax mean for classification, output mean for regression).
All of them are one pipeline: sample weight boxes from the posterior and
integrate each box's mass exactly (``box_set``, once per job), propagate
the input region jointly with the whole stack of boxes to one value per
box, and reduce those values to a bound.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import attack as attack_mod
from . import posterior as posterior_mod
from .net import Network, ShapeError
from .posterior import (Posterior, WeightBox, box_mass, disjointify, draws,
                        half_width, inclusion_exclusion)
from .propagate import propagate
from .spec import (InputBox, OutputSpec, contains, excludes, margins,
                   stack_specs)

log = logging.getLogger("bnncert.certify")
# One line per box set, apart from the one line per certificate batch.
box_log = logging.getLogger("bnncert.certify.box_set")
# box_set draws and boxes on one buffer; perfbench/spans.py still traces
# ``sample`` and ``make_box`` by these names.
sample, make_box = posterior_mod.sample, posterior_mod.make_box


@dataclass
class CertifyConfig:
    num_samples: int = 5
    gamma: float = 2.5
    method: str = "ibp"
    margin_scale: str = "std"
    # Even inclusion-exclusion depth that prices overlapping boxes; None
    # disjointifies the boxes instead.
    bonferroni: int | None = None
    rng_seed: int = 0
    # Finite co-domain bounds for regression decision robustness; softmax
    # classification always uses [0, 1].
    sigma_floor: float | None = None
    sigma_ceil: float | None = None
    attack: attack_mod.AttackConfig | None = None

    def __post_init__(self):
        attack_mod.check_count(self, "num_samples", 0)
        attack_mod.check_count(self, "rng_seed", 0)
        if self.method not in ("ibp", "lbp"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (isinstance(self.gamma, numbers.Real)
                and 0.0 <= self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and nonnegative, not "
                             f"{self.gamma!r}")
        if self.margin_scale not in ("std", "var"):
            raise ValueError(f"unknown margin scale {self.margin_scale!r}")
        if self.bonferroni is not None and (self.bonferroni < 2
                                            or self.bonferroni % 2):
            raise ValueError("bonferroni must be an even depth >= 2")


@dataclass
class Certificate:
    property: str              # "psafe" | "dsafe"
    direction: str             # "lower" | "upper"
    value: float
    covered_mass: float
    boxes_used: int
    boxes_kept: int
    wall_time: float
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _box_key(cfg: CertifyConfig) -> tuple:
    """The config fields that decide which boxes a certificate uses."""
    return (cfg.num_samples, cfg.gamma, cfg.margin_scale, cfg.rng_seed,
            cfg.bonferroni)


@dataclass(frozen=True, eq=False)
class BoxSet:
    """The kept weight boxes of one job, stacked, each box's posterior mass
    and the Bonferroni terms of their intersections (integrated once).

    Boxes, masses and terms do not depend on the input region, so one set serves
    every certificate of a job: each step of a radius search, each cell of
    a sweep. It records the posterior and the config fields it was built
    from, and a certificate refuses a set built for anything else.
    """

    posterior: Posterior
    boxes: WeightBox           # lower/upper of shape (K, n_w)
    masses: np.ndarray         # (K,)
    terms: list                # [(J, s_J m(J))] of inclusion_exclusion
    used: int                  # boxes sampled before disjointify or dedupe
    built_for: tuple           # _box_key of the config
    # Masses, then terms, summed once from 0.0 as a scalar loop sums them.
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", float(sum(
            (m for _, m in self.terms), sum(self.masses, 0.0))))

    def serves(self, posterior: Posterior, cfg: CertifyConfig) -> bool:
        """Whether this is the set ``box_set(posterior, cfg)`` builds: the
        same posterior object (whose arrays are read-only) and the same
        box-deciding config fields."""
        return self.posterior is posterior and self.built_for == _box_key(cfg)

    def mean_bound(self, psi, lo: float, hi: float, lower: bool):
        """Bound on the posterior mean of any f with lo <= f <= hi that is
        >= psi[..., i] (lower) or <= psi[..., i] (upper) on box i, one per
        leading index of psi (..., K); also returns the covered mass.

        Uncovered mass is charged at lo (resp. hi), and an intersection at
        its least favourable psi, so the value is sigma + IE(g) (resp.
        sigma - IE(g)) with g = |psi - sigma| >= 0. IE(g) at an even depth,
        or over disjoint boxes, is at most the integral of the largest g
        among the boxes holding each weight, and the mean lies in [lo, hi],
        so clamping the value into [lo, hi] keeps it sound.

        Each value sums from a leading +0.0 over the boxes left to right,
        then over the terms, with the bits of a scalar loop.
        """
        sigma, pick = (lo, np.min) if lower else (hi, np.max)
        acc = np.zeros(psi.shape[:-1] + (psi.shape[-1] + 1,))
        np.multiply(self.masses, psi, out=acc[..., 1:])
        acc = np.add.accumulate(acc, axis=-1)[..., -1]
        for J, m in self.terms:
            acc += m * pick(psi[..., list(J)], axis=-1)
        value = acc + sigma * (1.0 - min(self.total, 1.0))
        # Python's min(max(value, lo), hi): a bound only where strictly out.
        value = np.where(lo > value, lo, value)
        value = np.where(hi < value, hi, value)
        return value, min(max(self.total, 0.0), 1.0)


def box_set(posterior: Posterior, cfg: CertifyConfig) -> BoxSet:
    """Sample one box per index (each with its own seed, so a longer run
    extends a shorter one instead of reshuffling it), disjointify unless
    Bonferroni pricing is on, and integrate the mass of every kept box.

    Bonferroni pricing keeps one copy of each repeated box (an atom drawn
    twice): the union of identical boxes is that box, so this is exact,
    while a truncated inclusion-exclusion over k copies is not."""
    t0 = time.perf_counter()
    hw = half_width(posterior, cfg.gamma, cfg.margin_scale)
    # The box corners are built on the buffer of the draws: the upper corner
    # is the draws shifted in place. Atom boxes have zero width and keep the
    # draws as both corners (adding 0.0 would turn -0.0 into +0.0).
    lower = upper = draws(posterior, [(cfg.rng_seed, i)
                                      for i in range(cfg.num_samples)])
    if hw is not None:
        lower = upper - hw
        upper += hw
    stack = WeightBox(lower=lower, upper=upper)
    used = len(upper)
    if cfg.bonferroni is None:
        keep = disjointify(lower, upper)
    else:
        first = {}
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            first.setdefault((lo.tobytes(), hi.tobytes()), i)
        keep = list(first.values())
    if len(keep) < used:
        lower, upper = lower[keep], upper[keep]
        stack = WeightBox(lower=lower, upper=upper)
    boxes = BoxSet(posterior=posterior, boxes=stack,
                   masses=box_mass(posterior, stack),
                   terms=inclusion_exclusion(stack, posterior,
                                             cfg.bonferroni or 1),
                   used=used, built_for=_box_key(cfg))
    box_log.debug("box_set: %d of %d boxes kept, %.6f s", len(keep), used,
                  time.perf_counter() - t0)
    return boxes


def _config(cfg: CertifyConfig) -> dict:
    """The config a certificate records; build it once per batch and give
    each certificate its own copy."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)
            if f.name != "attack"}


def _batch_time(prop, direction, t0, n, boxes) -> float:
    """Log a batch of n certificates and return each one's share of its
    wall time."""
    seconds = time.perf_counter() - t0
    log.debug("%s_%s: %d regions, %d of %d boxes kept, %.6f s", prop,
              direction, n, len(boxes.masses), boxes.used, seconds)
    return seconds / max(n, 1)


def _certificate(prop, direction, value, covered, boxes, kept, wall_time,
                 config, extra=None) -> Certificate:
    return Certificate(property=prop, direction=direction, value=value,
                       covered_mass=covered, boxes_used=boxes.used,
                       boxes_kept=kept, wall_time=wall_time,
                       config=dict(config), extra=extra or {})


# The (region, box) pairs of a batch go through the network in chunks,
# holding about this many entries per (region, box) pair for the method,
# so the memory of a certificate grows with neither regions nor boxes.
_CHUNK_ENTRIES = 2 ** 14


def _over_regions(net, posterior, T: InputBox, S, cfg, boxes,
                  attack: bool = False):
    """The one propagate body behind every certificate and the only code that
    batches pairs: regions T, (n_in,) or (M, n_in), with specs S (one, M or
    None) meet every box in chunks (with ``attack``, at each pair's PGD point
    from the box center). Returns the box set, the specs stacked by
    ``stack_specs`` (None without S) and (M, K, n_out) bounds."""
    if boxes is None:
        boxes = box_set(posterior, cfg)
    elif not boxes.serves(posterior, cfg):
        raise ValueError("box set was built for another posterior or for "
                         "other num_samples/gamma/margin_scale/rng_seed/"
                         "bonferroni values")
    lo, hi = np.atleast_2d(T.lower), np.atleast_2d(T.upper)
    if lo.ndim != 2:
        raise ShapeError("regions must have shape (n_in,) or (M, n_in)")
    M, K = len(lo), len(boxes.masses)
    specs = None if S is None else stack_specs(S, M, net.output_dim)
    # IBP's corner products per layer, or LBP's bounding functions of layer
    # l, counted as rows_l x (n_in + rows_0 + ... + rows_l) coefficients.
    # Layer l's own block is a diagonal of rows_l entries, so this
    # over-counts by rows_l**2 - rows_l; the count is kept, so the chunks,
    # and with them every value, stay as they were.
    pairs = max(1, _CHUNK_ENTRIES // max(
        l.rows * (l.cols if cfg.method == "ibp" else
                  net.input_dim + sum(m.rows for m in net.layers[:i + 1]))
        for i, l in enumerate(net.layers)))
    chunk, step = max(1, pairs // max(K, 1)), max(1, min(K, pairs))
    yL, yU = np.empty((2, M, K, net.output_dim))
    for first in range(0, M, chunk):
        cells = slice(first, first + chunk)
        if attack:
            x = attack_mod.pgd(net, boxes.boxes.center, InputBox(
                lower=lo[cells], upper=hi[cells]),
                S if isinstance(S, OutputSpec) else S[cells],
                cfg.attack or attack_mod.AttackConfig())
        for ks in (slice(k, k + step) for k in range(0, K, step)):
            Tc = (InputBox.point(x[:, ks]) if attack else
                  InputBox(lower=lo[cells, None], upper=hi[cells, None]))
            R = boxes.boxes if step >= K else WeightBox(
                boxes.boxes.lower[ks], boxes.boxes.upper[ks])
            yL[cells, ks], yU[cells, ks] = propagate(net, Tc, R, cfg.method)
    return boxes, specs, yL, yU


def _psafe(net, posterior, T: InputBox, S, cfg, boxes, check):
    """Both P_safe bounds. Each (region, box) pair gets the flag that
    ``check`` returns for its spec and output box: ``contains`` for the
    lower bound, ``excludes`` at the attack point for the upper bound. One
    ``margins`` call gives the flags of every pair."""
    t0 = time.perf_counter()
    upper = check is excludes
    direction = "upper" if upper else "lower"
    boxes, (C, d), yL, yU = _over_regions(net, posterior, T, S, cfg, boxes,
                                          attack=upper)
    low, high = margins(C[:, None], d[:, None], yL, yU)
    flags = (high.min(axis=-1) < 0.0 if upper else
             low.min(axis=-1) >= 0.0).astype(float)
    values, covered = boxes.mean_bound(flags, 0.0, 1.0, lower=True)
    wall_time = _batch_time("psafe", direction, t0, len(flags), boxes)
    config = _config(cfg)
    certs = [_certificate("psafe", direction, 1.0 - v if upper else v,
                          covered, boxes, int(kept), wall_time, config)
             for v, kept in zip(values.tolist(), flags.sum(axis=-1))]
    return certs if T.lower.ndim > 1 else certs[0]


def psafe_lower(net: Network, posterior: Posterior, T: InputBox,
                S: OutputSpec | list[OutputSpec], cfg: CertifyConfig,
                boxes: BoxSet | None = None) -> Certificate | list[Certificate]:
    """Sound lower bound: mass of sampled weight boxes whose propagated
    output box lies entirely inside S.

    T is one region (n_in,), with S its spec, and the result one
    Certificate; or T stacks M regions (M, n_in), S is one spec for all or
    a sequence of M specs, and the result is a list of M certificates,
    each equal to a call on its region alone, with ``wall_time`` the
    batch's time divided by M. The regions go through in chunks of cells.
    ``boxes``, from ``box_set(posterior, cfg)``, saves building the boxes
    again; without it they are built here."""
    return _psafe(net, posterior, T, S, cfg, boxes, contains)


def psafe_upper(net: Network, posterior: Posterior, T: InputBox,
                S: OutputSpec | list[OutputSpec], cfg: CertifyConfig,
                boxes: BoxSet | None = None) -> Certificate | list[Certificate]:
    """Sound upper bound: 1 minus the mass of boxes certified unsafe.

    Each box's center weight is attacked over each region (every center
    and region of a chunk in one PGD batch); the point found is then
    propagated jointly with the whole weight box, and the box counts as
    unsafe only if every weight in it maps that point outside S. A failed
    attack merely skips the box, which keeps the bound sound (if loose).
    Regions, specs, results and ``boxes`` are as in ``psafe_lower``.
    """
    return _psafe(net, posterior, T, S, cfg, boxes, excludes)


# ---------------------------------------------------------------------------
# Decision robustness


def output_worst(yL: np.ndarray, yU: np.ndarray, c: int | None = None):
    """Sound lower bound on softmax_c over logit boxes (..., n_out): own
    lower logit against every other class's upper logit (gathered in order,
    so each sum has a scalar evaluation's bits), in log space. Every class,
    (..., n_out), without ``c``; class c's alone with it."""
    yL = np.asarray(yL, dtype=float)
    yU = np.asarray(yU, dtype=float)
    n = yL.shape[-1]
    idx = np.array([[j for j in range(n) if j != k] for k in range(n)],
                   dtype=int).reshape(n, n - 1)
    others = yU[..., idx]                                # (..., n, n - 1)
    m = np.maximum(yL, others.max(axis=-1, initial=-np.inf))
    own = np.exp(yL - m)
    p = own / (own + np.exp(others - m[..., None]).sum(axis=-1))
    return p if c is None else np.take(p, c, axis=-1)


def output_best(yL: np.ndarray, yU: np.ndarray, c: int | None = None):
    """Mirror of output_worst: own upper logit against other lower logits."""
    return output_worst(yU, yL, c)


@dataclass(frozen=True)
class Task:
    kind: str                   # "classification" | "regression"
    class_index: int = 0

    @staticmethod
    def classification(c: int) -> "Task":
        return Task(kind="classification", class_index=c)

    @staticmethod
    def regression(index: int = 0) -> "Task":
        return Task(kind="regression", class_index=index)


def _dsafe(net, posterior, T, cfg, task, lower: bool, boxes):
    """One D_safe bound per region: each box's least (lower) or greatest
    (upper) task output over its output box, reduced by ``mean_bound``."""
    t0 = time.perf_counter()
    if task.kind == "classification":
        lo, hi = 0.0, 1.0
    elif cfg.sigma_floor is None or cfg.sigma_ceil is None:
        raise ValueError("regression decision bounds need explicit "
                         "sigma_floor/sigma_ceil output-range limits")
    else:
        lo, hi = float(cfg.sigma_floor), float(cfg.sigma_ceil)
    c = task.class_index
    boxes, _, yL, yU = _over_regions(net, posterior, T, None, cfg, boxes)
    if task.kind == "classification":
        psi = (output_worst if lower else output_best)(yL, yU)[..., c]
    elif lower:
        psi = np.maximum(yL[..., c], lo)
    else:
        psi = np.minimum(yU[..., c], hi)
    values, covered = boxes.mean_bound(psi, lo, hi, lower)
    direction = "lower" if lower else "upper"
    wall_time = _batch_time("dsafe", direction, t0, len(psi), boxes)
    config = _config(cfg)
    certs = [_certificate("dsafe", direction, v, covered, boxes,
                          len(boxes.masses), wall_time, config,
                          extra={"task": task.kind, "index": c})
             for v in values.tolist()]
    return certs if T.lower.ndim > 1 else certs[0]


def dsafe_lower(net: Network, posterior: Posterior, T: InputBox,
                cfg: CertifyConfig, task: Task,
                boxes: BoxSet | None = None) -> Certificate | list[Certificate]:
    """Sound lower bound on the posterior-predictive decision for one output;
    T, the result and ``boxes`` are as in ``psafe_lower``."""
    return _dsafe(net, posterior, T, cfg, task, True, boxes)


def dsafe_upper(net: Network, posterior: Posterior, T: InputBox,
                cfg: CertifyConfig, task: Task,
                boxes: BoxSet | None = None) -> Certificate | list[Certificate]:
    """Sound upper bound on the posterior-predictive decision for one output;
    T, the result and ``boxes`` are as in ``psafe_lower``."""
    return _dsafe(net, posterior, T, cfg, task, False, boxes)


def dsafe_bounds_all_classes(net: Network, posterior: Posterior, T: InputBox,
                             cfg: CertifyConfig, boxes: BoxSet | None = None):
    """Per-class decision bounds sharing one box set and one propagation
    pass, as (lowers, uppers) arrays of shape (output_dim,) for one region
    or (M, output_dim) for M; T and ``boxes`` are as in ``psafe_lower``."""
    boxes, _, yL, yU = _over_regions(net, posterior, T, None, cfg, boxes)
    shape = T.lower.shape[:-1] + (net.output_dim,)
    lowers, _ = boxes.mean_bound(np.moveaxis(output_worst(yL, yU), -1, -2),
                                 0.0, 1.0, lower=True)
    uppers, _ = boxes.mean_bound(np.moveaxis(output_best(yL, yU), -1, -2),
                                 0.0, 1.0, lower=False)
    return lowers.reshape(shape), uppers.reshape(shape)


def decision_robust(net: Network, posterior: Posterior, T: InputBox,
                    true_class: int, cfg: CertifyConfig) -> str:
    """Tri-state decision certificate over the predictive softmax mean.

    'certified-robust' when the true class's lower bound beats every other
    class's upper bound (or exceeds 0.5 outright), 'certified-wrong' when
    some other class certifiably dominates, 'unknown' otherwise. Ties are
    not certified.
    """
    if T.lower.ndim != 1:
        raise ShapeError("decision_robust takes one region, shape (n_in,)")
    lowers, uppers = dsafe_bounds_all_classes(net, posterior, T, cfg)
    others = [j for j in range(net.output_dim) if j != true_class]
    if lowers[true_class] > 0.5:
        return "certified-robust"
    if others and lowers[true_class] > max(uppers[j] for j in others):
        return "certified-robust"
    if any(lowers[j] > uppers[true_class] for j in others):
        return "certified-wrong"
    return "unknown"


def uncertainty_check(net: Network, posterior: Posterior, T: InputBox,
                      tau_uncertain: float, cfg: CertifyConfig) -> bool:
    """True iff no class's predictive mean can reach tau_uncertain on T."""
    if not 0.0 < tau_uncertain < 1.0:
        raise ValueError("tau_uncertain must lie in (0, 1)")
    if T.lower.ndim != 1:
        raise ShapeError("uncertainty_check takes one region, shape (n_in,)")
    _, uppers = dsafe_bounds_all_classes(net, posterior, T, cfg)
    return bool(np.all(uppers < tau_uncertain))


def median_bounds(entries) -> tuple[float, float]:
    """Bounds on the posterior-predictive median from per-box output boxes.

    entries: iterable of (yL, yU, mass) for pairwise-disjoint weight boxes.
    The uncaptured mass (1 - sum of masses) could sit anywhere, so it is
    pushed below the lowest box for the lower bound and above the highest
    for the upper bound. One walk serves both, up the lower ends or down
    the upper ends (ties in input order), and stops at the endpoint where
    the shifted cumulative mass crosses one half.
    """
    entries = [(float(a), float(b), float(m)) for a, b, m in entries]
    eta = 1.0 - sum(m for _, _, m in entries)
    if eta >= 0.5 - 1e-15:
        raise ValueError("captured mass must exceed one half to bound the median")

    def crossing(end: int, reverse: bool) -> float:
        walk = sorted(entries, key=lambda e: e[end], reverse=reverse)
        cum = eta
        for e in walk:
            cum += e[2]
            if cum >= 0.5:
                return e[end]
        return walk[-1][end]

    return crossing(0, reverse=False), crossing(1, reverse=True)


def k0_decision_check(lower_bounds, penalties) -> int | None:
    """Certified class under class-weighted penalties.

    Class i is certified when its decision lower bound clears the threshold
    K_i / sum(K). Several classes clearing at once means the penalty vector
    is inconsistent with the bounds, which is an error.
    """
    lower_bounds = np.asarray(lower_bounds, dtype=float)
    K = np.asarray(penalties, dtype=float)
    if K.shape != lower_bounds.shape:
        raise ValueError("one penalty per class required")
    if np.any(K <= 0):
        raise ValueError("penalties must be positive")
    thresholds = K / K.sum()
    cleared = np.flatnonzero(lower_bounds >= thresholds)
    if cleared.size > 1:
        raise ValueError(f"classes {cleared.tolist()} all clear their "
                         "thresholds; penalties are inconsistent")
    return int(cleared[0]) if cleared.size == 1 else None
