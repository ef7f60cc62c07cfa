"""Smoke test of the sweep benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs at a tiny size, traced and untraced, in this process.
One test runs the real command end to end on sweep-paper.
"""

import dataclasses
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# Big enough a surface that the solver activates a cascaded path.
TINY = dict(m_t=8, m_r=8, n_x=8, n_y=16, l1=2, l2=2, l3=1)


def tiny(name: str) -> bench.Workload:
    workload = bench.WORKLOADS[name]
    return dataclasses.replace(
        workload, config=dataclasses.replace(workload.config, **TINY),
        fixed_set=2)


def expected_names(trace: bool) -> list[str]:
    if trace:
        return [name for name, *_ in bench.PER_LAYER]
    return [name for name, _ in bench.END_TO_END if name != "setup_s"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_every_metric_emitted(name, trace):
    result = bench.run_workload(tiny(name), seed=3, seconds=0, trace=trace)
    assert result["attempted"] == 2 and result["failed"] == 0
    assert list(result["metrics"]) == expected_names(trace)
    assert result["absent"] == []
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_refine_only_where_asked():
    result = bench.run_workload(tiny("refine-paper"), 3, 0, trace=True)
    metrics = result["metrics"]
    assert metrics["finite.refine_ms.p50"]["value"] > 0
    assert metrics["finite.logdet_rate_calls"]["value"] > 1
    result = bench.run_workload(tiny("sweep-paper"), 3, 0, trace=True)
    assert result["metrics"]["finite.refine_ms.p50"]["value"] == 0
    assert result["metrics"]["finite.logdet_rate_calls"]["value"] == 1


def test_metric_of_missing_function_reported_absent(monkeypatch):
    # random-phase sweeps never refine, so the run works without it
    monkeypatch.delattr(bench.harness, "refine_common_phases")
    result = bench.run_workload(tiny("sweep-paper"), 3, 0, trace=True)
    assert result["failed"] == 0
    assert list(result["metrics"]) == expected_names(True)
    assert result["absent"] == ["finite.refine_ms.p50", "finite.refine_ms.p90"]


def test_wrappers_removed_after_run():
    originals = {(module, name): getattr(importlib.import_module(module), name)
                 for module, name in spans.TARGETS}
    bench.run_workload(tiny("sweep-paper"), 3, 0, trace=True)
    for (module, name), fn in originals.items():
        assert getattr(importlib.import_module(module), name) is fn


def test_failed_check_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "KKT_BOUND", 0.0)
    result = bench.run_workload(tiny("sweep-paper"), 3, 0, trace=True)
    assert result["failed"] == result["attempted"] == 2
    assert "kkt residual" in result["failures"][0]
    monkeypatch.setattr(run, "measure", lambda args: (result, []))
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(["--workload", "sweep-paper", "--seed", "3",
                     "--seconds", "0", "--trace", "1"])
    assert code == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["correct"] is False and last["failed"] == 2


def test_row_checks():
    config = bench.WORKLOADS["sweep-paper"].config
    row = bench.harness.ResultRow(
        seed=0, sweep_value=30.0, solver="grid", rate_asymptotic=float("nan"),
        rate_finite=1.0, activated_cascaded=6, activated_direct=5,
        s_min_star=6, wall_ms=1.0)
    failures = bench.check_row(config, row)
    assert len(failures) == 3
    row = dataclasses.replace(row, error="ValueError: boom")
    assert bench.check_row(config, row) == ["error: ValueError: boom"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in bench.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [entry[:3] for entry in bench.PER_LAYER]


def test_command_end_to_end():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-paper",
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    last = json.loads(out.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {name for name, _ in bench.END_TO_END}
    for name, unit in bench.END_TO_END:
        assert f"{name} " in out.stdout and last["metrics"][name]["unit"] == unit


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
