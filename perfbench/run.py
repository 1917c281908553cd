"""bnncert benchmark: one workload, one run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Workloads: sweep, lbp_wide, radius (see workloads.py).  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics and the tracing overhead.  Every metric is printed on its
own line with its unit; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result (quality metrics, environment, tail percentile) and, for a
traced run, every span are written under ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without it the
run exits with status 2 before measuring anything.  BLAS is pinned to one
thread: the workloads are a single caller in one process, and extra BLAS
threads on a shared host widen the run-to-run spread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one bnncert benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _print_report(res: dict) -> None:
    rep = res["report"]
    name = rep["workload"]
    env = rep["environment"]
    print(f"# {name} seed={rep['seed']} trace={int(rep['trace'])} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, m in res["metrics"].items():
        print(f"{name}  {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"{name}  {'failed_frac':40s} {rep['failed_frac']:.6g} 1  "
          f"({res['failed']} of {res['attempted']} ops)")
    for key, (value, unit) in rep["quality"].items():
        print(f"{name}  {key:40s} {value:.6g} {unit}")
    if "tail_percentile" in rep:
        print(f"{name}  call_s.tail is p{rep['tail_percentile']:.1f} of "
              f"{rep['calls']} calls; setup_s is the median of "
              f"{rep['setups']} setups")
    else:
        print(f"{name}  per-layer metrics from {rep['traced_calls']} traced "
              f"calls; spans in {rep['spans']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "bnncert" / "__init__.py").is_file():
        print(f"error: program source not found at {src}/bnncert",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import bnncert
    if Path(bnncert.__file__).resolve().parent != (src / "bnncert").resolve():
        print(f"error: bnncert imported from {bnncert.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out"
    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                      out_dir)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(res, indent=1))
    _print_report(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
