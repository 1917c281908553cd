"""Train a small BNN on the synthetic advisory task and certify a state grid.

Reproduces the table-style experiment: partition a 2-D slice of the input
space into cells, compute P_safe bounds per cell, and report the fraction
certified safe / unsafe / uncertifiable for each posterior method.

Usage:
    python scripts/run_grid_sweep.py --epochs 80 --samples 5 --out sweep.csv
"""

import argparse
import csv
import sys
import time

import numpy as np

from bnncert.certify import CertifyConfig, box_set, psafe_lower, psafe_upper
from bnncert.net import Network
from bnncert.spec import InputBox, argmax_spec
from bnncert.trainer import TrainConfig, fit_vi, hcas_label, make_hcas_like


def grid_cells(lo, hi, width):
    edges = np.arange(lo, hi - 1e-12, width)
    return [(e, min(e + width, hi)) for e in edges]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--epochs", type=int, default=80)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--n-data", type=int, default=1000)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--gamma", type=float, default=2.5)
    p.add_argument("--method", choices=["ibp", "lbp"], default="lbp")
    p.add_argument("--cell-width", type=float, default=0.25)
    p.add_argument("--tau-safe", type=float, default=0.9)
    p.add_argument("--tau-unsafe", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional CSV path")
    args = p.parse_args(argv)

    X, Y = make_hcas_like(args.n_data, seed=args.seed)
    net = Network.dense([4, args.hidden, 5])
    post = fit_vi(net, (X, Y),
                  TrainConfig(epochs=args.epochs, learning_rate=0.02),
                  seed=args.seed)

    cfg = CertifyConfig(num_samples=args.samples, gamma=args.gamma,
                        method=args.method, rng_seed=args.seed)
    boxes = box_set(post, cfg)       # the same weight boxes for every cell

    # sweep the (distance, bearing) plane at fixed heading/tau slice,
    # every cell in one stack of regions
    t0 = time.time()
    cells = [(d, b) for d in grid_cells(-1.0, 1.0, args.cell_width)
             for b in grid_cells(-1.0, 1.0, args.cell_width)]
    T = InputBox(lower=[[dlo, blo, 0.25, -0.25] for (dlo, _), (blo, _) in cells],
                 upper=[[dhi, bhi, 0.25, -0.25] for (_, dhi), (_, bhi) in cells])
    S = [argmax_spec(int(c), 5) for c in hcas_label(T.center)]
    lowers = psafe_lower(net, post, T, S, cfg, boxes)
    uppers = psafe_upper(net, post, T, S, cfg, boxes)
    rows = []
    for ((dlo, dhi), (blo, bhi)), lower, upper in zip(cells, lowers, uppers):
        lo, up = lower.value, upper.value
        if lo >= args.tau_safe:
            verdict = "safe"
        elif up <= args.tau_unsafe:
            verdict = "unsafe"
        else:
            verdict = "uncertifiable"
        rows.append((f"{dlo:.2f}:{dhi:.2f}", f"{blo:.2f}:{bhi:.2f}",
                     lo, up, verdict))

    n = len(rows)
    counts = {v: sum(r[4] == v for r in rows)
              for v in ("safe", "unsafe", "uncertifiable")}
    print(f"method={args.method} samples={args.samples} gamma={args.gamma} "
          f"cells={n} wall={time.time() - t0:.1f}s")
    for v, k in counts.items():
        print(f"  {v:>14s}: {k:4d} ({100.0 * k / n:.1f}%)")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dist_cell", "bearing_cell", "psafe_lower",
                        "psafe_upper", "verdict"])
            w.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
