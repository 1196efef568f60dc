"""Tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench/test_perfbench.py -q
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(workload: str, trace: int = 0, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    out = result(bench(workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def _corrupt(ref: dict, workload: str) -> None:
    entry = ref[workload]["tiny"]["0"]
    if workload == "r_curves":
        entry["0.125/plus"][0] += 1e-3
    elif workload == "front_tracking":
        entry["events"] = "0" * 64
    else:
        entry["solve/burgers_shock"]["report"] = "0" * 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_raises_failed_ratio(workload, tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    _corrupt(ref, workload)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    out = result(bench(workload, 0, "--reference", str(path)))
    assert out["correct"] is False
    assert out["failed"] / out["attempted"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
