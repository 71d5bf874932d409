"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

They cover: the two smallest jobs of every workload run and match their
references; every metric named in BENCHMARK.json is printed with its
unit; a corrupted reference is counted as a failure; and the benchmark
exits nonzero, printing no result, where the program is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _h:
    SPEC = json.load(_h)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def smallest_runner(name, reference=None):
    """A Runner over the workload's two fastest recorded jobs."""
    ref = worker.load_reference(name) if reference is None else reference
    runner = worker.Runner(worker.build(name), 1, ref, worker.perf_counter())
    runner.wl.jobs = sorted(
        runner.wl.jobs, key=lambda j: ref[j.name]["recorded_s"])[:2]
    runner.wl.hardest = runner.wl.jobs[0].name
    return runner


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smallest_jobs_run_and_match(name):
    runner = smallest_runner(name)
    worker.measure(runner, 0)
    assert runner.attempted == 2
    assert runner.failed == 0, runner.problems


def _printed(result, trace, setups):
    args = SimpleNamespace(workload="w", seed=1, trace=trace)
    return run.render(args, result, setups)


def _result(runner, metrics, info):
    return {"attempted": runner.attempted, "failed": runner.failed,
            "problems": runner.problems, "info": info,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def test_every_metric_prints_with_its_unit():
    runner = smallest_runner("cusped-criterion")
    metrics, info = worker.end_to_end(runner, 0)
    lines = _printed(_result(runner, metrics, info), 0, [0.1, 0.2, 0.3])
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    for spec in SPEC["end_to_end"]:
        assert last["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert any(ln.split()[:1] == [spec["name"]]
                   and ln.split()[-1] == spec["unit"] for ln in lines)
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}

    runner = smallest_runner("cli-reports")
    metrics, info = worker.traced(runner, 0)
    lines = _printed(_result(runner, metrics, info), 1, [])
    last = json.loads(lines[-1])
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert last["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert any(ln.split()[:1] == [spec["name"]]
                   and ln.split()[-1] == spec["unit"] for ln in lines)


def test_corrupted_reference_is_a_failure():
    ref = worker.load_reference("bounded-lp")
    runner = smallest_runner("bounded-lp", ref)
    job = runner.wl.jobs[0]
    ref[job.name]["digest"] = "0" * 16
    worker.measure(runner, 0)
    assert runner.failed == 1
    assert "digest" in runner.problems[0]


def test_exits_nonzero_without_the_program():
    work = os.path.join(HERE, "work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(
                            "work", "out", "__pycache__"))
        proc = subprocess.run(SPEC["command"] + [
            "--workload", workloads.WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
