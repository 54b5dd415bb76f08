"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``.
It is kept out of the tier-1 suite, whose test path is ``tests/``.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B", "bit")


def run(workload, trace, cwd=ROOT, seed=7):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = run(workload, 0)
    result = result_of(proc)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert re.search(rf"^\s+{re.escape(name)}\s.*\s{re.escape(metric['unit'])}\s",
                         proc.stdout, re.M), name
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
    assert re.search(r"^\s+error_rate\s+0\s", proc.stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    first, second = (result_of(run(workload, 1)) for _ in range(2))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] in COUNT_UNITS} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["measurement.failures"] == 0
    assert counts[0]["cli.main.exit_nonzero"] == 0
    values = {name: m["value"] for name, m in first["metrics"].items()}
    layers = ("spectrum", "clockstates", "measurement", "bounds", "cli", "units", "harness")
    accounted = sum(values[f"{layer}.self_s"] for layer in layers)
    assert accounted == pytest.approx(values["trace.op_s"], rel=1e-9)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout
