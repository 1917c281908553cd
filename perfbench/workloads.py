"""The three benchmark workloads.

Each workload is a closed loop with a single caller: the harness makes the
next call only after the previous one returns.  Every input is a function of
the workload seed and the call index, so the same seed gives the same
inputs, and no two calls share an input (a cache keyed on the input would
not be rewarded).  Calls go through module attributes (``certify.psafe_lower``,
not a name imported once) so that the traced run sees them.

A workload provides:

* ``setup()``: build the fixture (train or draw the posterior); it is timed
  and repeated by the harness, and must be deterministic;
* ``prepare(i)``: the input of call ``i``, made outside the timed region;
* ``call(inp)``: the timed call, one entry-point invocation;
* ``collect(inp, raw, detail)``: turn the raw result into a record, outside
  the timed region; ``detail`` is set for the first ``quality_calls`` calls;
* ``check(rec)``: the number of operations in the call that failed a
  correctness check;
* ``summary(rec)``: the deterministic part of the record, used to compare a
  traced call with the untraced call on the same input;
* ``quality(recs)``: quality metrics over the first ``quality_calls`` records.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from pathlib import Path

import numpy as np

from bnncert import attack, certify, cli, io, search, trainer
from bnncert.net import Network, forward, forward_batch
from bnncert.posterior import GaussianPosterior, make_box, sample
from bnncert.propagate import propagate
from bnncert.spec import argmax_spec, linf_ball

TINY = sys.float_info.min * sys.float_info.epsilon   # smallest double


def _op_seed(seed: int, i: int) -> int:
    """Certification seed of call ``i``, distinct per call and per workload seed."""
    return seed * 1_000_003 + i


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _cert_failed(cert, lower: bool) -> bool:
    """A certificate fails unless finite, within [0, 1], and (for a lower
    bound) no larger than the mass the boxes cover."""
    v, m = cert.value, cert.covered_mass
    if not (math.isfinite(v) and math.isfinite(m)):
        return True
    if not (0.0 <= v <= 1.0 and 0.0 <= m <= 1.0):
        return True
    return lower and v > m


def _log10_mass(masses) -> tuple[float, int]:
    """Mean log10 of covered masses; an underflow to 0 is recorded at the
    smallest double and counted."""
    masses = np.asarray(masses, dtype=float)
    under = int(np.sum(masses <= 0.0))
    return float(np.mean(np.log10(np.maximum(masses, TINY)))), under


def _hcas_posterior(seed: int):
    """[4,125,5] mean-field VI posterior trained on the HCAS-like task."""
    X, Y = trainer.make_hcas_like(300, seed=seed)
    net = Network.dense([4, 125, 5])
    post = trainer.fit_vi(net, (X, Y), trainer.TrainConfig(epochs=20),
                          seed=seed)
    return net, post


def _predicted_region(net, post, rng, eps):
    """Seeded L-inf region around a uniform centre in [-1, 1]^d, labelled
    with the posterior-mean network's prediction at the centre."""
    c = rng.uniform(-1.0, 1.0, net.input_dim)
    label = int(np.argmax(forward(net, post.mean, c)))
    return linf_ball(c, eps), argmax_spec(label, net.output_dim)


class Sweep:
    """The paper's HCAS grid job, run through ``cli.main`` as users run it.

    One call is one whole sweep of criterion 10's 100-cell grid; one op is
    one cell.  It is the only workload that runs ``cli`` and ``io``, so a fix
    inside ``cmd_sweep`` (building the boxes once instead of 2 x 100 times)
    shows here.  PGD does most of the work.
    """

    name = "sweep"
    quality_calls = 2
    ops_per_call = 100          # one op is one grid cell
    # Criterion 10's grid: 10 x 10 cells over (distance, bearing).
    GRID = {"grid": [[-1, 1, 0.2], [-1, 1, 0.2], [-1, 1, 2.0], [-1, 1, 2.0]],
            "label_rule": "hcas"}
    SAMPLES = 1

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.posterior_path = work_dir / "posterior.json"
        self.grid_path = work_dir / "grid.json"
        self.csv_path = work_dir / "sweep.csv"

    def setup(self) -> str:
        net, post = _hcas_posterior(self.seed)
        io.save_posterior(self.posterior_path, net, post)
        io.save_spec(self.grid_path, self.GRID)
        return _digest(post.mean, post.variance)

    def prepare(self, i: int):
        self.csv_path.unlink(missing_ok=True)
        return [
            "sweep", "--posterior", str(self.posterior_path), "--spec", "unused",
            "--sweep-spec", str(self.grid_path), "--method", "ibp",
            "--samples", str(self.SAMPLES), "--gamma", "2.5",
            "--seed", str(_op_seed(self.seed, i)), "--out", str(self.csv_path)]

    def call(self, argv):
        return cli.main(argv)

    def collect(self, argv, code, detail):
        if code != 0:
            return {"code": code, "text": "", "rows": [], "footer": ""}
        text = self.csv_path.read_text()     # a missing file fails the call
        lines = text.strip().splitlines()
        rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
        return {"code": code, "text": text, "rows": rows, "footer": lines[-1]}

    def check(self, rec) -> int:
        rows = rec["rows"]
        if rec["code"] != 0 or len(rows) != self.ops_per_call:
            return self.ops_per_call
        counts = {"safe": 0, "unsafe": 0, "uncertifiable": 0}
        bad = 0
        for _, lo, up, verdict in rows:
            lo, up = float(lo), float(up)
            bad += not (math.isfinite(lo) and math.isfinite(up)
                        and 0.0 <= lo <= up <= 1.0 and verdict in counts)
            if verdict in counts:
                counts[verdict] += 1
        footer = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", rec["footer"])}
        if footer != counts:
            return self.ops_per_call
        return bad

    def summary(self, rec):
        return rec["code"], rec["text"]

    def quality(self, recs) -> dict:
        rows = [r for rec in recs for r in rec["rows"]]
        lo = np.array([float(r[1]) for r in rows])
        up = np.array([float(r[2]) for r in rows])
        certified = np.mean([r[3] in ("safe", "unsafe") for r in rows])
        return {"psafe_lower_mean": (float(lo.mean()), "1"),
                "psafe_upper_mean": (float(up.mean()), "1"),
                "certified_frac": (float(certified), "1")}


class LbpWide:
    """``psafe_lower`` with LBP on a wide net, one region per call.

    LBP propagation does nearly all the work and its memory grows with the
    cube of the width; there is no PGD and almost no posterior work.
    """

    name = "lbp_wide"
    quality_calls = 4
    ops_per_call = 1
    SAMPLES, GAMMA, EPS = 2, 2.5, 0.01
    PAIRS = 256                 # sampled (x, w) pairs checked per detailed call

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def setup(self) -> str:
        self.net = Network.dense([4, 128, 128, 5])
        rng = np.random.default_rng([self.seed, 1])
        self.post = GaussianPosterior(
            mean=rng.normal(0.0, 0.1, self.net.n_weights),
            variance=np.full(self.net.n_weights, 1e-4))
        return _digest(self.post.mean, self.post.variance)

    def prepare(self, i: int):
        rng = np.random.default_rng([self.seed, 2, i])
        T, S = _predicted_region(self.net, self.post, rng, self.EPS)
        cfg = certify.CertifyConfig(num_samples=self.SAMPLES, gamma=self.GAMMA,
                                    method="lbp", rng_seed=_op_seed(self.seed, i))
        return T, S, cfg

    def call(self, inp):
        T, S, cfg = inp
        return certify.psafe_lower(self.net, self.post, T, S, cfg)

    def collect(self, inp, cert, detail):
        rec = {"cert": cert, "width": None, "outside": 0}
        if detail:
            # The region's first box, drawn the way certify draws it, and
            # its LBP output box; sampled (x, w) pairs must land inside.
            T, _, cfg = inp
            box = make_box(sample(self.post, (cfg.rng_seed, 0)), cfg.gamma,
                           self.post, cfg.margin_scale)
            yL, yU = propagate(self.net, T, box, "lbp")
            rng = np.random.default_rng([self.seed, 3, cfg.rng_seed])
            x = T.sample(rng, self.PAIRS)
            w = rng.uniform(box.lower, box.upper, (self.PAIRS, box.lower.size))
            y = forward_batch(self.net, w, x)
            # Rounding slack: the bound is sound in exact arithmetic only.
            tol = 1e-9 * (1.0 + np.abs(y))
            rec["outside"] = int(np.sum(np.any((y < yL - tol) | (y > yU + tol),
                                               axis=1)))
            rec["width"] = float(np.mean(yU - yL))
        return rec

    def check(self, rec) -> int:
        return int(_cert_failed(rec["cert"], lower=True) or rec["outside"] > 0)

    def summary(self, rec):
        c = rec["cert"]
        return c.value, c.covered_mass, c.boxes_kept

    def quality(self, recs) -> dict:
        return {"psafe_lower_mean": (float(np.mean([r["cert"].value for r in recs])), "1"),
                "out_width_mean": (float(np.mean([r["width"] for r in recs])), "logit")}


class Radius:
    """MaxRR and MinUR for one held-out point, on an HMC sample posterior.

    The only workload with the search layer's sequential epsilon walk, and
    with atom posteriors: zero-width boxes, draws with replacement, masses
    summed over atoms.  PGD does most of the work.
    """

    name = "radius"
    quality_calls = 10
    ops_per_call = 1            # one op is one point
    ATOMS, DRAWS = 24, 64       # 2.67 draws per atom, so MaxRR is defined
    # The cap bounds MinUR's upward walk at three steps, which keeps the
    # per-point cost (and so the run-to-run spread) in check.
    SEARCH = dict(tau_safe=0.7, tau_unsafe=0.7, eps_start_safe=0.1,
                  eps_start_unsafe=1.0, step=0.1, eps_cap=1.3)
    # 20 PGD steps per box instead of the default 75: MinUR is found for as
    # many points, at a third of the cost, so a run holds over a hundred
    # points and their median settles.
    ATTACK = dict(iterations=10, restarts=2)

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def setup(self) -> str:
        self.net = Network.dense([2, 8, 2])
        X, Y = trainer.make_blobs(40, seed=self.seed)
        cfg = trainer.HmcConfig(leapfrog_steps=10, step_size=0.05,
                                num_samples=self.ATOMS, burn_in=self.ATOMS)
        self.post = trainer.sample_hmc(self.net, (X, Y), cfg, seed=self.seed)
        self.points = trainer.make_blobs(2000, seed=[self.seed, 7])
        return _digest(self.post.samples, self.post.weights)

    def prepare(self, i: int):
        X, Y = self.points
        x, S = X[i % len(X)], argmax_spec(int(Y[i % len(X)]), 2)
        cfg = certify.CertifyConfig(num_samples=self.DRAWS, gamma=0.0,
                                    method="ibp", rng_seed=_op_seed(self.seed, i),
                                    attack=attack.AttackConfig(**self.ATTACK))
        return x, S, cfg, search.RadiusSearchConfig(**self.SEARCH)

    def call(self, inp):
        x, S, cfg, scfg = inp
        maxrr = search.max_robust_radius(self.net, self.post, x, S, cfg, scfg)
        minur = search.min_unrobust_radius(self.net, self.post, x, S, cfg, scfg)
        return maxrr, minur

    def collect(self, inp, raw, detail):
        return raw

    def check(self, rec) -> int:
        maxrr, minur = rec
        bad = any(_cert_failed(c, lower=True) for c in maxrr.certificates)
        bad |= any(_cert_failed(c, lower=False) for c in minur.certificates)
        if not minur.vacuous:     # criterion 8: MaxRR <= MinUR
            bad |= maxrr.radius > minur.radius + 1e-12
        return int(bad)

    def summary(self, rec):
        maxrr, minur = rec
        return (maxrr.radius, maxrr.values, minur.radius, minur.vacuous,
                minur.values)

    def quality(self, recs) -> dict:
        masses = [c.covered_mass for maxrr, minur in recs
                  for c in maxrr.certificates + minur.certificates]
        log_mass, under = _log10_mass(masses)
        minur = [m.radius for _, m in recs]   # a vacuous result is eps_cap
        return {"maxrr_mean": (float(np.mean([m.radius for m, _ in recs])), "eps"),
                "minur_mean": (float(np.mean(minur)), "eps"),
                "minur_found": (sum(not m.vacuous for _, m in recs), "count"),
                "covered_mass_log10": (log_mass, "log10"),
                "covered_mass_underflows": (under, "count")}


WORKLOADS = {w.name: w for w in (Sweep, LbpWide, Radius)}
