"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py

A tiny run of every workload must print every metric BENCHMARK.json lists,
with its unit, and answer every request correctly.  Without confalg's
sources next to it, the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    return subprocess.run(
        [*cmd, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_reports_every_metric_and_no_errors(trace, section):
    proc = run_bench(ROOT, "--workload", "all", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    text = "\n".join(lines[:-1])
    for name in WORKLOADS:
        assert f"workload {name} " in text
        for metric in SPEC[section]:
            got = result["metrics"][f"{name}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
    error_lines = [ln.split() for ln in lines if ln.strip().startswith("error_ratio")]
    assert len(error_lines) == len(WORKLOADS)
    assert all(float(parts[1]) == 0 for parts in error_lines)


def test_refuses_without_confalg_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
