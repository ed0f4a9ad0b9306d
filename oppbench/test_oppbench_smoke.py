"""Smoke test of the benchmark at tiny sizes (--smoke): every workload runs,
its checks pass, and the result line carries exactly the metrics that
BENCHMARK.json names. No timing assertions."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "oppbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def assert_metrics(result: dict, spec: list[dict]) -> dict[str, float]:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    values = assert_metrics(result_of(run_bench(ROOT, workload, 0)), SPEC["end_to_end"])
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    values = assert_metrics(result_of(run_bench(ROOT, workload, 1)), SPEC["per_layer"])
    assert values["cli.commands"] >= 2
    assert values["strategies.construct_failed"] == 0
    if workload == "capture":
        assert values["fit.windowed_converged_share"] == 1
        assert values["traceio.read_cycles"] == 3 * 10_000
        assert values["smmpp.generate_cycles"] == 0
    else:
        assert values["simulate.runs"] > 0 and values["strategies.constructions"] > 0
        assert values["fit.em_fit_iters"] == 0


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "oppbench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    proc = run_bench(tmp_path, "sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
