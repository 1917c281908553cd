"""Bound algorithms for probabilistic and decision robustness.

Four certificates are produced: lower/upper bounds on the posterior
probability of safety, and lower/upper bounds on the posterior-predictive
decision (softmax mean for classification, output mean for regression).
All of them are one pipeline: sample weight boxes from the posterior,
integrate each box's mass exactly, propagate the input region jointly with
each box to one value per box, and reduce that table to a bound.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import attack as attack_mod
from .net import Network
from .posterior import (Posterior, WeightBox, box_mass, disjointify,
                        inclusion_exclusion, make_box, sample)
from .propagate import propagate
from .spec import InputBox, OutputSpec, contains, excludes


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
        if self.num_samples < 0:
            raise ValueError("num_samples must be >= 0")
        if self.method not in ("ibp", "lbp"):
            raise ValueError(f"unknown method {self.method!r}")
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


@dataclass
class _BoxTable:
    """The kept weight boxes of one certificate, each box's posterior mass
    (integrated once) and one value per box."""

    posterior: Posterior
    depth: int                 # inclusion-exclusion depth; 1 when disjoint
    boxes: list[WeightBox]
    masses: list[float]
    values: list
    used: int                  # boxes sampled before disjointify

    def mean_bound(self, psi, lo: float, hi: float, lower: bool):
        """Bound on the posterior mean of any f with lo <= f <= hi that is
        >= psi[i] (lower) or <= psi[i] (upper) on box i; also returns the
        covered mass.

        Uncovered mass is charged at lo (resp. hi), and an intersection at
        its least favourable psi, so the value is sigma + IE(g) (resp.
        sigma - IE(g)) with g = |psi - sigma| >= 0. IE(g) at an even depth,
        or over disjoint boxes, is at most the integral of the largest g
        among the boxes holding each weight, and the mean lies in [lo, hi],
        so clamping the value into [lo, hi] keeps it sound.
        """
        sigma, pick = (lo, min) if lower else (hi, max)
        acc, total = inclusion_exclusion(self.boxes, self.masses, psi, pick,
                                         self.posterior, self.depth)
        value = acc + sigma * (1.0 - min(total, 1.0))
        return min(max(value, lo), hi), min(max(total, 0.0), 1.0)


def _box_table(posterior: Posterior, cfg: CertifyConfig, per_box) -> _BoxTable:
    """Sample one box per index (each with its own seed, so a longer run
    extends a shorter one instead of reshuffling it), disjointify unless
    Bonferroni pricing is on, and evaluate per_box on every kept box.

    Bonferroni pricing keeps one copy of each repeated box (an atom drawn
    twice): the union of identical boxes is that box, so this is exact,
    while a truncated inclusion-exclusion over k copies is not."""
    boxes = [make_box(sample(posterior, (cfg.rng_seed, i)), cfg.gamma,
                      posterior, cfg.margin_scale)
             for i in range(cfg.num_samples)]
    used = len(boxes)
    if cfg.bonferroni is None:
        boxes = disjointify(boxes)
    else:
        boxes = list({(b.lower.tobytes(), b.upper.tobytes()): b
                      for b in boxes}.values())
    return _BoxTable(posterior=posterior, depth=cfg.bonferroni or 1,
                     boxes=boxes,
                     masses=[box_mass(posterior, b) for b in boxes],
                     values=[per_box(b) for b in boxes], used=used)


def _certificate(prop, direction, value, covered, table, kept, t0, cfg,
                 extra=None) -> Certificate:
    config = asdict(cfg)
    config.pop("attack")
    return Certificate(property=prop, direction=direction, value=value,
                       covered_mass=covered, boxes_used=table.used,
                       boxes_kept=kept, wall_time=time.perf_counter() - t0,
                       config=config, extra=extra or {})


def psafe_lower(net: Network, posterior: Posterior, T: InputBox, S: OutputSpec,
                cfg: CertifyConfig) -> Certificate:
    """Sound lower bound: mass of sampled weight boxes whose propagated
    output box lies entirely inside S."""
    t0 = time.perf_counter()
    table = _box_table(posterior, cfg, lambda box: float(
        contains(S, *propagate(net, T, box, cfg.method))))
    value, covered = table.mean_bound(table.values, 0.0, 1.0, lower=True)
    return _certificate("psafe", "lower", value, covered, table,
                        int(sum(table.values)), t0, cfg)


def psafe_upper(net: Network, posterior: Posterior, T: InputBox, S: OutputSpec,
                cfg: CertifyConfig) -> Certificate:
    """Sound upper bound: 1 minus the mass of boxes certified unsafe.

    Each box's center weight is attacked over T; the found point is then
    propagated jointly with the whole weight box, and the box counts as
    unsafe only if every weight in it maps that point outside S. A failed
    attack merely skips the box, which keeps the bound sound (if loose).
    """
    t0 = time.perf_counter()
    acfg = cfg.attack or attack_mod.AttackConfig()

    def is_unsafe(box):
        x_adv = attack_mod.pgd(net, box.center, T, S, acfg)
        return float(excludes(S, *propagate(net, InputBox.point(x_adv), box,
                                            cfg.method)))

    table = _box_table(posterior, cfg, is_unsafe)
    unsafe_mass, covered = table.mean_bound(table.values, 0.0, 1.0, lower=True)
    return _certificate("psafe", "upper", 1.0 - unsafe_mass, covered, table,
                        int(sum(table.values)), t0, cfg)


# ---------------------------------------------------------------------------
# Decision robustness


def output_worst(yL: np.ndarray, yU: np.ndarray, c: int) -> float:
    """Sound lower bound on softmax_c over a logit box: own lower logit
    against every other class's upper logit, evaluated in log space."""
    yL = np.asarray(yL, dtype=float)
    yU = np.asarray(yU, dtype=float)
    others = np.delete(yU, c)
    m = max(float(yL[c]), float(others.max())) if others.size else float(yL[c])
    denom = np.exp(yL[c] - m) + np.exp(others - m).sum()
    return float(np.exp(yL[c] - m) / denom)


def output_best(yL: np.ndarray, yU: np.ndarray, c: int) -> float:
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


def _sigma_range(task: Task, cfg: CertifyConfig):
    if task.kind == "classification":
        return 0.0, 1.0
    if cfg.sigma_floor is None or cfg.sigma_ceil is None:
        raise ValueError("regression decision bounds need explicit "
                         "sigma_floor/sigma_ceil output-range limits")
    return float(cfg.sigma_floor), float(cfg.sigma_ceil)


def _output_table(net, posterior, T, cfg) -> _BoxTable:
    return _box_table(posterior, cfg,
                      lambda box: propagate(net, T, box, cfg.method))


def _decision_bound(table: _BoxTable, task: Task, lo: float, hi: float,
                    lower: bool) -> tuple[float, float]:
    """Bound on one output's posterior-predictive mean, known to lie in
    [lo, hi], from a table of per-box output boxes; returns the value and
    the covered mass."""
    c = task.class_index
    if task.kind == "classification":
        psi = [output_worst(yL, yU, c) if lower else output_best(yL, yU, c)
               for yL, yU in table.values]
    elif lower:
        psi = [max(float(yL[c]), lo) for yL, _ in table.values]
    else:
        psi = [min(float(yU[c]), hi) for _, yU in table.values]
    return table.mean_bound(psi, lo, hi, lower)


def _dsafe(net, posterior, T, cfg, task, lower: bool) -> Certificate:
    t0 = time.perf_counter()
    lo, hi = _sigma_range(task, cfg)
    table = _output_table(net, posterior, T, cfg)
    value, covered = _decision_bound(table, task, lo, hi, lower)
    return _certificate("dsafe", "lower" if lower else "upper", value,
                        covered, table, len(table.boxes), t0, cfg,
                        extra={"task": task.kind, "index": task.class_index})


def dsafe_lower(net: Network, posterior: Posterior, T: InputBox,
                cfg: CertifyConfig, task: Task) -> Certificate:
    """Sound lower bound on the posterior-predictive decision for one output."""
    return _dsafe(net, posterior, T, cfg, task, lower=True)


def dsafe_upper(net: Network, posterior: Posterior, T: InputBox,
                cfg: CertifyConfig, task: Task) -> Certificate:
    """Sound upper bound on the posterior-predictive decision for one output."""
    return _dsafe(net, posterior, T, cfg, task, lower=False)


def dsafe_bounds_all_classes(net: Network, posterior: Posterior, T: InputBox,
                             cfg: CertifyConfig):
    """Per-class decision bounds sharing one propagation pass.

    Returns (lowers, uppers) arrays of length output_dim.
    """
    table = _output_table(net, posterior, T, cfg)
    tasks = [Task.classification(c) for c in range(net.output_dim)]
    lowers = np.array([_decision_bound(table, t, 0.0, 1.0, True)[0]
                       for t in tasks])
    uppers = np.array([_decision_bound(table, t, 0.0, 1.0, False)[0]
                       for t in tasks])
    return lowers, uppers


def decision_robust(net: Network, posterior: Posterior, T: InputBox,
                    true_class: int, cfg: CertifyConfig) -> str:
    """Tri-state decision certificate over the predictive softmax mean.

    'certified-robust' when the true class's lower bound beats every other
    class's upper bound (or exceeds 0.5 outright), 'certified-wrong' when
    some other class certifiably dominates, 'unknown' otherwise. Ties are
    not certified.
    """
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
    _, uppers = dsafe_bounds_all_classes(net, posterior, T, cfg)
    return bool(np.all(uppers < tau_uncertain))


def median_bounds(entries) -> tuple[float, float]:
    """Bounds on the posterior-predictive median from per-box output boxes.

    entries: iterable of (yL, yU, mass) for pairwise-disjoint weight boxes.
    The uncaptured mass (1 - sum of masses) could sit anywhere, so it is
    pushed below the lowest box for the lower bound and above the highest
    for the upper bound; the bound is the output endpoint where the shifted
    cumulative mass crosses one half.
    """
    entries = [(float(a), float(b), float(m)) for a, b, m in entries]
    eta = 1.0 - sum(m for _, _, m in entries)
    if eta >= 0.5 - 1e-15:
        raise ValueError("captured mass must exceed one half to bound the median")
    lo_sorted = sorted(entries, key=lambda e: e[0])
    cum = eta
    median_lower = lo_sorted[-1][0]
    for yL, _, m in lo_sorted:
        cum += m
        if cum >= 0.5:
            median_lower = yL
            break
    hi_sorted = sorted(entries, key=lambda e: e[1], reverse=True)
    cum = eta
    median_upper = hi_sorted[-1][1]
    for _, yU, m in hi_sorted:
        cum += m
        if cum >= 0.5:
            median_upper = yU
            break
    return median_lower, median_upper


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
