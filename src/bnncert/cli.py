"""Command-line front end.

Subcommands: certify, sweep, radius, train, hmc, validate. Posteriors and
specifications travel as JSON files, tabular results as CSV. Exit codes:
0 success, 2 I/O or parse failure, 3 shape mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from . import certify as certify_mod
from . import io as io_mod
from . import oracle, search, trainer
from .net import Network, ShapeError, forward
from .posterior import GaussianPosterior
from .spec import InputBox, argmax_spec, linf_ball

EXIT_OK = 0
EXIT_IO = 2
EXIT_SHAPE = 3
EXIT_USAGE = 64

log = logging.getLogger("bnncert")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_certify_flags(p):
    p.add_argument("--posterior", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--method", choices=("ibp", "lbp"), default="ibp")
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--gamma", type=float, default=2.5)
    p.add_argument("--margin-scale", choices=("std", "var"), default="std")
    p.add_argument("--bonferroni", type=int, default=None, metavar="D",
                   help="even inclusion-exclusion depth for overlapping boxes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once: each build grows the process's peak RSS."""
    p = _Parser(prog="bnncert",
                description="Certify adversarial robustness of Bayesian "
                            "neural networks over input boxes.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("certify", help="one certificate for one input region")
    _add_certify_flags(pc)
    pc.add_argument("--property", choices=("psafe", "dsafe"), default="psafe")
    pc.add_argument("--bound", choices=("lower", "upper"), default="lower")

    ps = sub.add_parser("sweep", help="grid sweep with safe/unsafe verdicts")
    _add_certify_flags(ps)
    ps.add_argument("--sweep-spec", required=True,
                    help="JSON grid description (see docs)")
    ps.add_argument("--tau-safe", type=float, default=0.98)
    ps.add_argument("--tau-unsafe", type=float, default=0.05)

    pr = sub.add_parser("radius", help="max robust / min unrobust radius search")
    _add_certify_flags(pr)
    pr.add_argument("--tau-safe", type=float, default=0.7)
    pr.add_argument("--tau-unsafe", type=float, default=0.7)
    pr.add_argument("--eps-start-safe", type=float, default=0.01)
    pr.add_argument("--eps-start-unsafe", type=float, default=0.5)
    pr.add_argument("--step", type=float, default=0.01)
    pr.add_argument("--eps-cap", type=float, default=1.0)

    pt = sub.add_parser("train", help="fit a variational Gaussian posterior")
    pt.add_argument("--dataset", choices=("blobs", "hcas", "cubic"), required=True)
    pt.add_argument("--hidden", type=int, default=16)
    pt.add_argument("--layers", type=int, default=1)
    pt.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    pt.add_argument("--epochs", type=int, default=200)
    pt.add_argument("--learning-rate", type=float, default=0.01)
    pt.add_argument("--prior-variance", type=float, default=0.5)
    pt.add_argument("--kl-weight", type=float, default=1.0)
    pt.add_argument("--n-data", type=int, default=300)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", required=True)

    ph = sub.add_parser("hmc", help="draw an HMC sample posterior")
    ph.add_argument("--dataset", choices=("blobs", "hcas", "cubic"), required=True)
    ph.add_argument("--hidden", type=int, default=16)
    ph.add_argument("--layers", type=int, default=1)
    ph.add_argument("--activation", choices=("relu", "tanh"), default="relu")
    ph.add_argument("--num-samples", type=int, default=100)
    ph.add_argument("--burn-in", type=int, default=100)
    ph.add_argument("--leapfrog-steps", type=int, default=20)
    ph.add_argument("--step-size", type=float, default=0.01)
    ph.add_argument("--prior-variance", type=float, default=0.5)
    ph.add_argument("--n-data", type=int, default=100)
    ph.add_argument("--seed", type=int, default=0)
    ph.add_argument("--out", required=True)

    pv = sub.add_parser("validate",
                        help="sandwich certified bounds against MC/PGD estimates")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=int, default=6)
    pv.add_argument("--out", default=None)
    return p


def _certify_config(args) -> certify_mod.CertifyConfig:
    return certify_mod.CertifyConfig(
        num_samples=args.samples, gamma=args.gamma, method=args.method,
        margin_scale=args.margin_scale, bonferroni=args.bonferroni,
        rng_seed=args.seed)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_certify(args) -> int:
    net, post = io_mod.load_posterior(args.posterior)
    T, S, meta = io_mod.load_spec(args.spec, n_outputs=net.output_dim)
    if T.dim != net.input_dim:
        raise ShapeError(f"spec has {T.dim} input dims, network expects "
                         f"{net.input_dim}")
    cfg = _certify_config(args)
    cfg.sigma_floor = meta.get("sigma_floor")
    cfg.sigma_ceil = meta.get("sigma_ceil")
    if args.property == "psafe":
        fn = certify_mod.psafe_lower if args.bound == "lower" else certify_mod.psafe_upper
        cert = fn(net, post, T, S, cfg)
    else:
        if meta.get("task") == "regression":
            task = certify_mod.Task.regression(int(meta.get("index", 0)))
        else:
            task = certify_mod.Task.classification(int(meta.get("true_class", 0)))
        fn = certify_mod.dsafe_lower if args.bound == "lower" else certify_mod.dsafe_upper
        cert = fn(net, post, T, cfg, task)
    _emit(io_mod.certificate_to_json(cert) + "\n", args.out)
    return EXIT_OK


def _grid_cells(grid) -> InputBox:
    """The grid's cells, covering [min, max) per dimension, as one stack of
    input boxes; cell i is row i."""
    try:
        grid = np.asarray(grid, dtype=float)
    except (TypeError, ValueError) as e:
        raise io_mod.FileFormatError(f"bad grid: {e}") from e
    if grid.ndim != 2 or grid.shape[1] != 3:
        raise io_mod.FileFormatError("grid needs [min, max, cell_width] rows")
    axes = []
    for lo, hi, width in grid:
        if not np.all(np.isfinite((lo, hi, width))) or width <= 0 or hi <= lo:
            raise io_mod.FileFormatError("grid needs finite lo < hi and "
                                         "cell_width > 0")
        # Rounding can make arange add a last cell that starts at hi, as
        # (1.3 - 1) / 0.1 > 3 does; count the cells with a tolerance.
        n = math.ceil((hi - lo) / width - 1e-9)
        edges = np.arange(lo, hi, width)[:n]
        axes.append([(e, min(e + width, hi)) for e in edges])
    cells = np.reshape(list(itertools.product(*axes)), (-1, len(axes), 2))
    return InputBox(lower=cells[..., 0], upper=cells[..., 1])


def cmd_sweep(args) -> int:
    net, post = io_mod.load_posterior(args.posterior)
    doc = json.loads(open(args.sweep_spec).read())
    if not isinstance(doc, dict) or "grid" not in doc:
        raise io_mod.FileFormatError("sweep spec needs a 'grid' field")
    if "true_class" in doc:
        try:
            S = argmax_spec(int(doc["true_class"]), net.output_dim)
        except (TypeError, ValueError) as e:
            raise io_mod.FileFormatError(f"bad true_class: {e}") from e
    elif doc.get("label_rule") != "hcas":
        raise io_mod.FileFormatError("sweep spec needs true_class or "
                                     "label_rule 'hcas'")
    T = _grid_cells(doc["grid"])
    if T.dim != net.input_dim:
        raise ShapeError(f"grid cell has {T.dim} dims, network expects "
                         f"{net.input_dim}")
    if "true_class" not in doc:
        labels = trainer.hcas_label(T.center)
        specs = {c: argmax_spec(int(c), net.output_dim) for c in set(labels)}
        S = [specs[c] for c in labels]
    cfg = _certify_config(args)
    boxes = certify_mod.box_set(post, cfg)
    lowers = certify_mod.psafe_lower(net, post, T, S, cfg, boxes)
    uppers = certify_mod.psafe_upper(net, post, T, S, cfg, boxes)
    rows = []
    counts = {"safe": 0, "unsafe": 0, "uncertifiable": 0}
    for cid, (lower, upper) in enumerate(zip(lowers, uppers)):
        pl, pu = lower.value, upper.value
        if pl >= args.tau_safe:
            verdict = "safe"
        elif pu <= args.tau_unsafe:
            verdict = "unsafe"
        else:
            verdict = "uncertifiable"
        counts[verdict] += 1
        log.debug("sweep cell %d: psafe in [%.6f, %.6f], %s",
                  cid, pl, pu, verdict)
        rows.append((cid, f"{pl:.6f}", f"{pu:.6f}", verdict))

    total = max(sum(counts.values()), 1)
    lines = ["cell_id,psafe_lower,psafe_upper,verdict"]
    lines += [",".join(map(str, r)) for r in rows]
    lines.append(f"# tau_safe={args.tau_safe} tau_unsafe={args.tau_unsafe}")
    lines.append("# " + " ".join(
        f"{k}={counts[k]} ({counts[k] / total:.1%})" for k in
        ("safe", "unsafe", "uncertifiable")))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_radius(args) -> int:
    net, post = io_mod.load_posterior(args.posterior)
    T0, S, meta = io_mod.load_spec(args.spec, n_outputs=net.output_dim)
    x = T0.center
    cfg = _certify_config(args)
    scfg = search.RadiusSearchConfig(
        tau_safe=args.tau_safe, tau_unsafe=args.tau_unsafe,
        eps_start_safe=args.eps_start_safe,
        eps_start_unsafe=args.eps_start_unsafe,
        step=args.step, eps_cap=args.eps_cap)
    maxrr = search.max_robust_radius(net, post, x, S, cfg, scfg)
    minur = search.min_unrobust_radius(net, post, x, S, cfg, scfg)
    lines = ["quantity,radius,vacuous,epsilons,values"]
    for name, res in (("maxrr", maxrr), ("minur", minur)):
        lines.append(",".join([
            name, f"{res.radius:.6f}", str(res.vacuous).lower(),
            ";".join(f"{e:.4f}" for e in res.epsilons),
            ";".join(f"{v:.6f}" for v in res.values)]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


_DATASETS = {
    "blobs": (trainer.make_blobs, 2, 2, "categorical"),
    "hcas": (trainer.make_hcas_like, 4, 5, "categorical"),
    "cubic": (trainer.make_cubic, 1, 1, "gaussian"),
}


def _build_net(args, n_in, n_out) -> Network:
    dims = [n_in] + [args.hidden] * args.layers + [n_out]
    return Network.dense(dims, activation=args.activation)


def cmd_train(args) -> int:
    maker, n_in, n_out, likelihood = _DATASETS[args.dataset]
    X, Y = maker(args.n_data, seed=args.seed)
    net = _build_net(args, n_in, n_out)
    cfg = trainer.TrainConfig(epochs=args.epochs, learning_rate=args.learning_rate,
                              prior_variance=args.prior_variance,
                              likelihood=likelihood, kl_weight=args.kl_weight)
    post = trainer.fit_vi(net, (X, Y), cfg, seed=args.seed)
    io_mod.save_posterior(args.out, net, post)
    log.info("wrote Gaussian posterior with %d weights to %s",
             post.n_weights, args.out)
    return EXIT_OK


def cmd_hmc(args) -> int:
    maker, n_in, n_out, likelihood = _DATASETS[args.dataset]
    X, Y = maker(args.n_data, seed=args.seed)
    net = _build_net(args, n_in, n_out)
    cfg = trainer.HmcConfig(leapfrog_steps=args.leapfrog_steps,
                            step_size=args.step_size,
                            num_samples=args.num_samples, burn_in=args.burn_in,
                            prior_variance=args.prior_variance)
    post = trainer.sample_hmc(net, (X, Y), cfg, seed=args.seed,
                              likelihood=likelihood)
    io_mod.save_posterior(args.out, net, post)
    log.info("wrote %d HMC samples to %s (acceptance %.2f)",
             post.samples.shape[0], args.out,
             post.metadata["acceptance_rate"])
    return EXIT_OK


def _validate_cases(n_cases, seed):
    rng = np.random.default_rng(seed)
    for i in range(n_cases):
        dims = [2, int(rng.integers(3, 7)), 2]
        act = ("relu", "tanh")[i % 2]
        net = Network.dense(dims, activation=act)
        post = GaussianPosterior(mean=rng.normal(0, 0.6, net.n_weights),
                                 variance=np.full(net.n_weights, 0.01))
        x = rng.uniform(-0.5, 0.5, 2)
        T = linf_ball(x, 0.05)
        yield i, net, post, T


def cmd_validate(args) -> int:
    """MC/PGD sandwich over a bundled family of small random posteriors.

    A certified lower bound above the empirical estimate (plus confidence
    slack), or an upper bound below it, is a soundness violation and fails
    the run.
    """
    failures = []
    report = []
    for i, net, post, T in _validate_cases(args.cases, args.seed):
        c = int(np.argmax(forward(net, post.mean, T.center)))
        S = argmax_spec(c, net.output_dim)
        cfg = certify_mod.CertifyConfig(num_samples=8, gamma=1.5,
                                        method="lbp", rng_seed=args.seed + i)
        boxes = certify_mod.box_set(post, cfg)
        lo = certify_mod.psafe_lower(net, post, T, S, cfg, boxes).value
        up = certify_mod.psafe_upper(net, post, T, S, cfg, boxes).value
        est, ci_lo, ci_hi = oracle.psafe_estimate(net, post, T, S,
                                                  n_weights=2000,
                                                  seed=args.seed + i)
        ok_lo = lo <= ci_hi + 1e-9
        ok_up = up >= ci_lo - 1e-9
        report.append({"case": i, "psafe_lower": lo, "psafe_upper": up,
                       "mc_estimate": est, "ci": [ci_lo, ci_hi],
                       "ok": ok_lo and ok_up})
        if not (ok_lo and ok_up):
            failures.append(i)

        dl, du = certify_mod.dsafe_bounds_all_classes(net, post, T, cfg, boxes)
        mn, mx = oracle.predictive_mean_range_estimate(net, post, T,
                                                       n_weights=500,
                                                       seed=args.seed + i)
        slack = 0.05
        if np.any(dl > mn + slack) or np.any(du < mx - slack):
            failures.append(i)
            report[-1]["ok"] = False
        report[-1]["dsafe_lower"] = dl.tolist()
        report[-1]["dsafe_upper"] = du.tolist()
    doc = {"cases": report, "failures": sorted(set(failures))}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return EXIT_OK if not failures else 1


_COMMANDS = {"certify": cmd_certify, "sweep": cmd_sweep, "radius": cmd_radius,
             "train": cmd_train, "hmc": cmd_hmc, "validate": cmd_validate}


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("BNNCERT_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, io_mod.FileFormatError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ShapeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SHAPE
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
