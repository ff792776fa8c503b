"""Smoke tests for the benchmark harness: tiny inputs, every workload, both modes.

    python3 -m pytest hwbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "hwbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DEMO_SEED0_DIGEST = "b8e826af717d6a1ae1399e2266eeef0326d2ac3e34f9489a402f9db503618346"

sys.path.insert(0, str(ROOT / "hwbench"))
from tracing import Tracer  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN, seed: int = 0):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] is not None and got["value"] >= 0
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_demo_seed0_digest_is_unchanged():
    proc = _run("demo", 0)
    outputs = next(l for l in proc.stdout.splitlines() if l.startswith("outputs: "))
    assert json.loads(outputs[len("outputs: "):]) == [DEMO_SEED0_DIGEST]


def test_solver_metrics_are_zero_without_the_solver():
    proc = _run("psc-subsystem", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    solver = {k: v["value"] for k, v in metrics.items() if k.startswith("satattack.")}
    assert solver and all(v == 0 for v in solver.values())
    assert metrics["powersim.windowed_calls"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("attack-grid", 0, cwd=tmp_path, script=tmp_path / "hwbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_children_and_counters():
    tracer = Tracer()
    tracer.enabled = True
    op = tracer.begin_op("op0")
    outer = tracer.open("a.f", "a")
    inner = tracer.open("b.g", "b")
    tracer.close(inner)
    tracer.count("b.hot", 0.25)
    tracer.close(outer)
    record = tracer.end_op(op)
    f, g = tracer.spans[outer], tracer.spans[inner]
    assert f.child_s == pytest.approx(g.duration + 0.25)
    assert f.self_s == pytest.approx(f.duration - g.duration - 0.25)
    assert record == {"b.hot.calls": 1, "b.hot.s": 0.25}
    assert [s.op for s in tracer.spans] == ["op0"] * 3
