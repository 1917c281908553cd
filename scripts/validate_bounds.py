"""Fuzz the certified bounds against Monte-Carlo estimates on random BNNs.

For each case: draw a random network and Gaussian posterior, certify
P_safe from both sides, and check the bounds bracket an attack-assisted
MC estimate of the true probability. Any violation is printed and the
script exits nonzero. Heavier-duty cousin of `bnncert validate`.

Usage:
    python scripts/validate_bounds.py --cases 25 --mc-weights 20000
"""

import argparse
import sys

import numpy as np

from bnncert.certify import CertifyConfig, box_set, psafe_lower, psafe_upper
from bnncert.net import Network
from bnncert.oracle import psafe_estimate
from bnncert.posterior import GaussianPosterior
from bnncert.spec import InputBox, argmax_spec


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--mc-weights", type=int, default=20000)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--gamma", type=float, default=1.5)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    failures = 0
    for i in range(args.cases):
        width = int(rng.integers(4, 17))
        net = Network.dense([2, width, 2],
                            activation=rng.choice(["relu", "tanh"]))
        post = GaussianPosterior(
            mean=rng.normal(0, 0.5, net.n_weights),
            variance=np.full(net.n_weights, float(rng.uniform(0.005, 0.05))))
        c = rng.uniform(-1, 1, 2)
        eps = float(rng.uniform(0.02, 0.2))
        T = InputBox(lower=c - eps, upper=c + eps)
        S = argmax_spec(int(rng.integers(2)), 2)

        # Both methods certify over the same weight boxes, built once.
        boxes = box_set(post, CertifyConfig(num_samples=args.samples,
                                            gamma=args.gamma, rng_seed=i))
        for method in ("ibp", "lbp"):
            cfg = CertifyConfig(num_samples=args.samples, gamma=args.gamma,
                                method=method, rng_seed=i)
            lo = psafe_lower(net, post, T, S, cfg, boxes).value
            up = psafe_upper(net, post, T, S, cfg, boxes).value
            est, ci_lo, ci_hi = psafe_estimate(
                net, post, T, S, n_weights=args.mc_weights, n_grid=64,
                seed=i, confidence=0.999, n_attacks=4)
            ok = lo <= ci_hi and up >= ci_lo
            mark = "ok " if ok else "FAIL"
            print(f"[{mark}] case {i:3d} {method}: "
                  f"lo={lo:.4f} mc=[{ci_lo:.4f}, {ci_hi:.4f}] up={up:.4f}")
            failures += not ok

    print(f"\n{args.cases * 2 - failures}/{args.cases * 2} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
