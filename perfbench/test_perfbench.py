"""Tests of the benchmark itself, on a few catalogue entries per workload.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_LIMIT = {"monic_qq": 4, "strong_zz": 6, "toric_cli_gfp": 1}


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = HERE.parent, script: Path = HERE / "run.py"):
    cmd = [
        sys.executable, str(script), "--workload", workload, "--seed", str(seed),
        "--seconds", "0.1", "--trace", str(trace), "--limit", str(SMOKE_LIMIT[workload]),
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


def _result(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result, _ = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_the_same_counters_and_answers(workload):
    runs = [_result(_run(workload, 1)) for _ in range(2)]
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counters = [
        {k: v["value"] for k, v in result["metrics"].items() if units[k] != "s" and k != "trace.wall_ratio"}
        for result, _ in runs
    ]
    assert counters[0] == counters[1]
    digests = [[line for line in lines if line.startswith("answers sha256")] for _, lines in runs]
    assert digests[0] == digests[1] and len(digests[0]) == 1


def test_seeds_change_the_inputs_but_not_the_catalogue():
    a = _result(_run("monic_qq", 0, seed=1))[1]
    b = _result(_run("monic_qq", 0, seed=2))[1]
    digest = [line for line in a if line.startswith("answers")]
    assert digest != [line for line in b if line.startswith("answers")]
    assert a[0].split(": ")[1].split(",")[0] == b[0].split(": ")[1].split(",")[0] == "4 instances"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("monic_qq", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_percentile_leaves_ten_values_above_it():
    values = [float(v) for v in range(50)]
    assert run._tail(values) == (80, 39.0)
    assert run._tail(values[:47]) == (78, 36.0)
    assert run._tail(values[:5]) == (100, 4.0)
