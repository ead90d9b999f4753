"""Smoke test of the benchmark: each workload at minimal size, both modes.

    python3 -m pytest perfbench/test_smoke.py

Checks the result line against BENCHMARK.json (every named metric, with its
unit), that the wrappers catch the hot calls, and that the benchmark refuses
to run without the program's sources.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == wanted
    for name, unit in wanted.items():
        assert isinstance(metrics[name]["value"], float)
        assert any(line.startswith(f"{workload} {name}: ") and line.endswith(f" {unit}")
                   for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
        return

    value = {name: m["value"] for name, m in metrics.items()}
    if workload == "fivepoint":
        assert value["tracker.track_s"] >= 0.9 * value["monodromy.run_s"]
    if workload == "groups":
        parts = ("parse", "order", "blocks", "even", "width")
        assert sum(value[f"groups.{p}_s"] for p in parts) >= 0.9 * value["cli.instance_s"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
