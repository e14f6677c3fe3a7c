"""Tests of the benchmark itself, on every workload shrunk to tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import scenarios  # noqa: E402


def _declared():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", sorted(scenarios.SIZES))
def test_deterministic_metrics_repeat_exactly(workload):
    size = scenarios.TINY_SIZES[workload]
    traced, layers = scenarios.run_workload(workload, 3, 0.5, True, size=size)
    untraced, _ = scenarios.run_workload(workload, 3, 0.5, False, size=size)
    assert traced.failures == [] and untraced.failures == []
    assert untraced.fixed_work == traced.fixed_work
    assert untraced.fixed_misses == traced.fixed_misses
    assert untraced.paces == traced.paces
    assert set(layers) == {name for name, _ in scenarios.LAYER_METRICS}
    metrics, _ = run.end_to_end_metrics(untraced)
    assert all(value > 0 for value in metrics.values()), metrics


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_declared_metric_with_its_unit(monkeypatch, capsys, trace):
    monkeypatch.setattr(scenarios, "SIZES", scenarios.TINY_SIZES)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    for workload in sorted(scenarios.TINY_SIZES):
        assert run.main(["--workload", workload, "--seed", "4",
                         "--seconds", "0.2", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, lines
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared
        }
        for name in result["metrics"]:
            assert any(line.split()[0] == name for line in lines[:-1]), name


def test_declared_workloads_match_the_benchmark():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(scenarios.SIZES)
    assert declared["command"] == ["python3", "perfbench/run.py"]


def test_tail_percentile_keeps_ten_samples_above_it():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    assert run.tail_percentile([2.0] * 5) == (50, 2.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-22q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
