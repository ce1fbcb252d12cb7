"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They check that tracing restores every wrapped function, that the self
times of a traced round fit inside its wall time, that the benchmark
prints only metrics BENCHMARK.json declares, and that it refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_wrappers_restore_every_original():
    before = tracing.originals()
    with tracing.installed(tracing.Tracer()):
        inside = tracing.originals()
    after = tracing.originals()
    assert before and all(inside[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_wrappers_restored_after_an_exception():
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert all(tracing.originals()[key] is original for key, original in before.items())


@pytest.mark.parametrize("cls", [workloads.DeskTrain, workloads.DeskEval])
def test_self_times_sum_to_no_more_than_wall_time(cls):
    checks = workloads.Checks()
    workload = cls(3, checks, workloads.load_reference())
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.phase = "loop"
        start = time.perf_counter()
        workload.setup()
        workload.bind()
        _, outputs = workload.run_round(5)
        wall = time.perf_counter() - start
    workload.check_round(5, outputs)
    assert checks.failed == 0, checks.messages
    names = {s.name for s in tracer.spans}
    assert {"layers.forward", "layers.attn_core", "trainer.sample", "ldpc.construct"} <= names
    assert all(s.self_time >= 0.0 for s in tracer.spans)
    assert sum(s.self_time for s in tracer.spans) <= wall


def test_benchmark_json_meets_the_format():
    data = spec()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert data["paths"] == ["perfbench"]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in data[kind]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    assert all(set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
               for m in data["per_layer"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["desk-train", "desk-eval"])
def test_every_printed_metric_is_declared(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert printed == set(declared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("desk-train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
