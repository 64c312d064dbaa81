"""Smoke tests of the benchmark at tiny sizes (``--smoke``).

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "5", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines[:-1], result


def test_one_command_prints_every_end_to_end_metric_on_every_workload():
    lines, result = result_of(run("--workload", "all", "--trace", "0", "--smoke"))
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in expected.items():
        workload, metric = name.split(".", 1)
        assert any(line.split()[:2] == [workload, metric] and line.endswith(" " + unit)
                   for line in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    _, result = result_of(run("--workload", workload, "--trace", "1", "--smoke"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert (ROOT / ".perfbench_out" / f"spans-{workload}-seed5.json").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "train", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
