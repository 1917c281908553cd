"""Timed loop, metrics and tracing for one workload run.

An untraced run gives the end-to-end metrics.  A traced run gives the
per-layer metrics: it makes each call twice on the same input, once
untraced and once traced, taking turns at going first, so the tracing
overhead is the paired difference between the two.  Counts, ratios and
quality metrics are taken over the first ``quality_calls`` calls, so they
repeat exactly for a given seed; self times are averaged over every traced
call.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from spans import Tracer
from workloads import WORKLOADS

MIN_CALLS = 21          # untraced calls, so the tail is at least the median
MIN_SETUPS = 3          # setup repeats; more while under SETUP_BUDGET_S
SETUP_BUDGET_S = 2.5
MAX_SETUPS = 50
BLOCK_S = 4.0           # ops_per_s is the median over blocks this long
TAIL_CAP = 0.9          # highest percentile call_s.tail may be
OVERRUN = 4             # hard stop at OVERRUN x seconds when calls are slow


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def tail(samples) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (the 11th
    largest sample), but no higher than p90.  Above p90 a run of hundreds of
    short calls would rank host-scheduling stalls, not the program.
    Returns (value, percentile, samples)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    rank = min(n - 10, math.ceil(round(TAIL_CAP * n, 9)))    # 1-based
    return s[rank - 1], 100.0 * rank / n, n


def throughput(calls, ops_per_call: int) -> float:
    """Median ops/s over consecutive blocks of calls lasting at least BLOCK_S
    each; a shorter remainder joins the last block.  The host's speed drifts
    over tens of seconds, and the median keeps a drift over part of the run
    from moving the figure."""
    blocks, n, t = [], 0, 0.0
    for dt in calls:
        n, t = n + 1, t + dt
        if t >= BLOCK_S:
            blocks.append((n, t))
            n, t = 0, 0.0
    if n and blocks:
        blocks[-1] = (blocks[-1][0] + n, blocks[-1][1] + t)
    elif n:
        blocks.append((n, t))
    return statistics.median(ops_per_call * n / t for n, t in blocks)


def _setup(wl, tracer):
    """Repeat the workload's setup; return the per-setup times."""
    times, digests = [], []
    while (len(times) < MIN_SETUPS
           or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS)):
        with tracer.installed() if tracer else nullcontext():
            t0 = perf_counter()
            digests.append(wl.setup())
            times.append(perf_counter() - t0)
    if len(set(digests)) != 1:
        raise RuntimeError(f"{wl.name}: setup is not deterministic")
    return times


def _run_call(wl, inp):
    """One timed call; returns (seconds, raw result or None on error)."""
    t0 = perf_counter()
    try:
        raw = wl.call(inp)
    except Exception:
        dt = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None
    return perf_counter() - t0, raw


class _Tally:
    """Failures and quality records, filled outside the timed region."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.records = []

    def add(self, inp, raw, detail: bool):
        """Check one call's result; keep it for quality if ``detail``."""
        wl = self.wl
        self.attempted += wl.ops_per_call
        if raw is None:
            self.failed += wl.ops_per_call
            return None
        try:
            rec = wl.collect(inp, raw, detail)
            self.failed += wl.check(rec)
        except Exception:       # malformed output fails the call, not the run
            traceback.print_exc(file=sys.stderr)
            self.failed += wl.ops_per_call
            return None
        if detail:
            self.records.append(rec)
        return rec

    def quality(self) -> dict:
        return self.wl.quality(self.records) if self.records else {}


def _untraced(wl, seconds):
    tally, calls = _Tally(wl), []
    t_begin = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - t_begin
        need = i < wl.quality_calls or (i < MIN_CALLS
                                        and elapsed < OVERRUN * seconds)
        if elapsed >= seconds and not need:
            break
        inp = wl.prepare(i)
        dt, raw = _run_call(wl, inp)
        calls.append(dt)
        tally.add(inp, raw, i < wl.quality_calls)
        i += 1
    return tally, calls


def _traced(wl, seconds, tracer):
    """Paired calls, untraced and traced, on the same input.  Returns the
    tally, both call-time lists and the counters after the first
    ``quality_calls`` traced calls."""
    tally, plain, traced = _Tally(wl), [], []
    first = None
    t_begin = perf_counter()
    i = 0
    while perf_counter() - t_begin < seconds or i < wl.quality_calls:
        inp = wl.prepare(i)
        # Alternate which side of the pair runs first, so neither side
        # always gets the caches and files the other left warm.
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                with tracer.installed(), tracer.span("op"):
                    dt, raw = _run_call(wl, inp)
                traced.append(dt)
                rec_t = tally.add(inp, raw, False)
            else:
                dt, raw = _run_call(wl, inp)
                plain.append(dt)
                rec = tally.add(inp, raw, i < wl.quality_calls)
        # Tracing must not change results.
        if (rec is not None and rec_t is not None
                and wl.summary(rec) != wl.summary(rec_t)):
            tally.failed += wl.ops_per_call
        i += 1
        if i == wl.quality_calls:
            first = dict(tracer.counts)
    return tally, plain, traced, first


def _layer_metrics(tracer, first, n_first_ops, n_traced_ops, plain, traced):
    times = tracer.times()

    def calls(name):          # calls per op, over the first calls
        return first.get(name + ".calls", 0) / n_first_ops

    def self_s(*names):       # self time per op, over every traced call
        return sum(times.get(n, (0, 0.0, 0.0))[2] for n in names) / n_traced_ops

    def per_call(name):       # mean span duration per call
        spans, total, _ = times.get(name, (0, 0.0, 0.0))
        return total / spans if spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    certify_spans = ("certify.psafe_lower", "certify.psafe_upper")
    pgd_calls = first.get("attack.pgd.calls", 0)
    return {
        "posterior.sample.calls": (calls("posterior.sample"), "calls/op"),
        "posterior.sample.self_s": (self_s("posterior.sample",
                                           "posterior.make_box"), "s/op"),
        "posterior.box_mass.calls": (calls("posterior.box_mass"), "calls/op"),
        "posterior.box_mass.self_s": (self_s("posterior.box_mass"), "s/op"),
        "posterior.disjointify.self_s": (self_s("posterior.disjointify"), "s/op"),
        "posterior.disjointify.keep_ratio": (
            ratio(first.get("posterior.disjointify.out", 0),
                  first.get("posterior.disjointify.in", 0)), "ratio"),
        "propagate.calls": (calls("propagate"), "calls/op"),
        "propagate.self_s": (self_s("propagate"), "s/op"),
        "propagate.ibp_layer_intervals.self_s": (
            self_s("propagate.ibp_layer_intervals"), "s/op"),
        "propagate.relax_activation.calls": (
            calls("propagate.relax_activation"), "calls/op"),
        "attack.pgd.calls": (calls("attack.pgd"), "calls/op"),
        "attack.pgd.self_s": (self_s("attack.pgd"), "s/op"),
        "attack.net_evals": (calls("attack.forward") + calls("attack.backprop"),
                             "calls/op"),
        "attack.unsafe_ratio": (ratio(first.get("spec.excludes.true", 0),
                                      pgd_calls), "ratio"),
        "spec.contains.calls": (calls("spec.contains"), "calls/op"),
        "spec.contains.true_ratio": (
            ratio(first.get("spec.contains.true", 0),
                  first.get("spec.contains.calls", 0)), "ratio"),
        "certify.psafe_lower.s": (per_call("certify.psafe_lower"), "s"),
        "certify.psafe_upper.s": (per_call("certify.psafe_upper"), "s"),
        "certify.self_s": (self_s(*certify_spans), "s/op"),
        "search.certificates_per_point": (
            first.get("search.certificates", 0) / n_first_ops, "count/op"),
        "search.self_s": (self_s("search.max_robust_radius",
                                 "search.min_unrobust_radius"), "s/op"),
        "cli.sweep.self_s": (self_s("cli.sweep"), "s/op"),
        "io.load_posterior.s": (per_call("io.load_posterior"), "s"),
        "trainer.fit_vi.s": (per_call("trainer.fit_vi"), "s"),
        "trainer.sample_hmc.s": (per_call("trainer.sample_hmc"), "s"),
        "trace.overhead_frac": (sum(traced) / sum(plain) - 1.0, "ratio"),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> dict:
    """Run one workload; return the result document.

    ``metrics`` holds the end-to-end metrics (untraced) or the per-layer
    metrics (traced); ``report`` holds everything else worth printing.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        wl = WORKLOADS[name](seed, Path(work))
        setup_times = _setup(wl, tracer)
        if trace:
            tally, plain, traced, first = _traced(wl, seconds, tracer)
        else:
            tally, calls = _untraced(wl, seconds)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "failed_frac": tally.failed / tally.attempted,
              "quality": tally.quality()}
    if trace:
        n_first = wl.quality_calls * wl.ops_per_call
        metrics = _layer_metrics(tracer, first, n_first,
                                 len(traced) * wl.ops_per_call, plain, traced)
        report["traced_calls"] = len(traced)
        spans_path = out_dir / f"{name}-seed{seed}.spans.npz"
        tracer.save(spans_path)
        report["spans"] = str(spans_path)
    else:
        t_val, t_pct, t_n = tail(calls)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (throughput(calls, wl.ops_per_call), "1/s"),
            "call_s.p50": (statistics.median(calls), "s"),
            "call_s.tail": (t_val, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        report.update(calls=t_n, tail_percentile=t_pct, setups=len(setup_times))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "report": report}
