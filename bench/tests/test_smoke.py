"""Smoke self-check of the benchmark.

Runs every workload at reduced size (--smoke) with and without tracing and
checks the output contract: the last stdout line is one JSON object with
exactly correct/attempted/failed/metrics, and the metrics are exactly the
ones BENCHMARK.json names, with its units.  Timings are never a gate.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*COMMAND, *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_output_schema(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
        assert any(line.startswith(f"{name} ") for line in lines[:-1])
    assert any(line.startswith("fail_ratio 0 ratio") for line in lines[:-1])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "7",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
