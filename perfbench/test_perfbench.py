"""Tests of the benchmark itself: oracles and smoke-size runs.

    python3 -m pytest perfbench -q

Run from the repository root. Each smoke run takes a second or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402

END_TO_END = {"setup_s", "query_p50_s", "query_p90_s", "queries_per_s", "peak_rss_mb",
              "cnf_clauses_mean"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_oracles_agree_with_the_running_example():
    oracle.self_check()


def test_oracles_reject_wrong_answers():
    ella = oracle.read_obdd(oracle.ELLA_OBDD)
    v, c = oracle.ELLA_VALUES, oracle.ELLA_LABEL
    assert not oracle.is_axp(ella, v, c, {1, 2, 3})      # weak but not minimal
    assert not oracle.is_axp(ella, v, c, {3})            # not weak
    assert oracle.relevant_features(ella, v, c) != {1, 2, 3}
    with pytest.raises(oracle.OracleError):
        oracle.read_dimacs("p cnf 2 2\n1 2 0\n")          # header says two clauses
    with pytest.raises(oracle.OracleError):
        oracle.read_dimacs("p cnf 1 1\n1 2 0\n")          # variable beyond the header


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.PER_LAYER_UNITS)
    for metric in spec["per_layer"]:
        assert metric["unit"] == tracing.PER_LAYER_UNITS[metric["name"]]


@pytest.mark.parametrize("workload", ["desk-scale", "relevancy-sdd", "encode-dimacs"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = set(result["metrics"])
    assert names == (set(tracing.PER_LAYER_UNITS) if trace == "1" else END_TO_END)
    if trace == "1" and workload == "encode-dimacs":
        assert result["metrics"]["kernel.calls"]["value"] == 0


def test_same_seed_same_answers():
    first, second = (run_bench("--workload", "encode-dimacs", "--seed", "9", "--seconds", "0.1",
                               "--smoke") for _ in range(2))
    a, b = (json.loads(p.stdout.strip().splitlines()[-1]) for p in (first, second))
    assert a["metrics"]["cnf_clauses_mean"] == b["metrics"]["cnf_clauses_mean"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = run_bench("--workload", "relevancy-sdd", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
