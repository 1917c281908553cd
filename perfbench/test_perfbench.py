"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that are counts or ratios over the first calls of a run,
# so that a later claim may rest on them.  Self times are not among them.
COUNTED = ("posterior.sample.calls", "posterior.box_mass.calls",
           "posterior.disjointify.keep_ratio", "propagate.calls",
           "propagate.relax_activation.calls", "attack.pgd.calls",
           "attack.net_evals", "attack.unsafe_ratio", "spec.contains.calls",
           "spec.contains.true_ratio", "search.certificates_per_point")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_and_quality_repeat(name, tmp_path):
    runs = [harness.run(name, seed=3, seconds=0, trace=True,
                        out_dir=tmp_path / str(k)) for k in range(2)]
    for res in runs:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    counts = [{k: res["metrics"][k]["value"] for k in COUNTED} for res in runs]
    assert counts[0] == counts[1]
    quality = [res["report"]["quality"] for res in runs]
    assert quality[0] and quality[0] == quality[1]


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    res = harness.run("lbp_wide", seed=3, seconds=0, trace=False,
                      out_dir=tmp_path)
    assert res["correct"] and res["attempted"] == WORKLOADS["lbp_wide"].quality_calls
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tail_is_eleventh_largest_up_to_p90():
    assert harness.tail(range(1000)) == (899, 90.0, 1000)
    assert harness.tail(range(100)) == (89, 90.0, 100)
    assert harness.tail(range(21)) == (10, 100.0 * 11 / 21, 21)
    assert harness.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def test_throughput_is_median_over_blocks():
    b = harness.BLOCK_S
    # Blocks of 2 calls in b s, 4 calls in b s and 1 call in 2b s; the last
    # call is a remainder and joins the block before it.
    calls = [b / 2] * 2 + [b / 4] * 4 + [2 * b, b / 4]
    assert harness.throughput(calls, 3) == pytest.approx(3 * 2 / b)
    # A run shorter than one block is one block.
    assert harness.throughput([b / 4, b / 4], 5) == pytest.approx(20 / b)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "sweep", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
