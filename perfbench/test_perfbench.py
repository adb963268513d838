"""Self-tests of the benchmark (tiny configurations, a few seconds each).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from child import tail_latency
from spans import layer_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


_IDENTITY = """
import sys
from spans import SpanRecorder, instrument
from workloads import make_workload

recorder = SpanRecorder()
workload = make_workload(sys.argv[1], 5, True, recorder, sys.argv[2])
workload.setup()
specs = workload.block(0)
plain = [workload.run(spec) for spec in specs]
instrument(recorder)
recorder.enabled = True
traced = [workload.run(spec) for spec in specs]
recorder.enabled = False
workload.close()
assert recorder.spans, "tracing recorded nothing"
for a, b in zip(plain, traced):
    assert (a.digest, a.values) == (b.digest, b.values), (a.kind, a.digest, b.digest)
print("identical", len(plain), len(recorder.spans))
"""


@pytest.mark.parametrize("workload", ["encode", "decode"])
def test_tracing_leaves_outputs_and_stats_bit_identical(workload, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    done = subprocess.run(
        [sys.executable, "-c", _IDENTITY, workload, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("identical")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "encode", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_latency_needs_ten_samples_beyond_it():
    assert tail_latency([1.0] * 10) is None
    value, percentile, n = tail_latency([float(i) for i in range(1, 41)])
    assert (value, percentile, n) == (30.0, 75.0, 40)


def test_layer_self_time_subtracts_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["core.engine", 1.0, 5.0, 0, 0],
        ["core.engine", 2.0, 3.0, 1, 0],  # nested call of the same layer
        ["core.fit", 6.0, 8.0, 0, 0],
        ["core.fit", 20.0, 21.0, -1, 1],  # another request
    ]
    self_s, calls = layer_times(spans, requests={0})
    assert self_s == {"outer": 4.0, "core.engine": 4.0, "core.fit": 2.0}
    assert calls == {"outer": 1, "core.engine": 1, "core.fit": 1}
