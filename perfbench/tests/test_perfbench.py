"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run  # noqa: E402

layers, workloads = run.import_program()


def _run(workload, seed=1, trace=False):
    # seconds=0 still measures one round (two untraced/traced pairs)
    return run.run_workload(workload, seed, 0.0, trace)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_untraced_run_prints_every_end_to_end_metric(name, seed):
    result, lines = _run(workloads.tiny(workloads.WORKLOADS[name]), seed)
    assert result["correct"] and result["failed"] == 0, lines
    assert list(result["metrics"]) == list(run.END_TO_END)
    report = "\n".join(lines)
    for metric in (*run.END_TO_END, "error_rate", "blockstep samples"):
        assert metric in report
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run_prints_every_layer_metric(name):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    result, lines = _run(workload, trace=True)
    assert result["correct"], lines
    metrics = result["metrics"]
    assert list(metrics) == list(layers.metric_units())
    report = "\n".join(lines)
    for metric in metrics:
        assert metric in report
    for metric, m in metrics.items():
        assert not m.get("missing"), metric
    for layer in workload.layers:
        calls = [m["value"] for n, m in metrics.items()
                 if n.startswith(layer + ".") and n.endswith(".calls")]
        assert calls and max(calls) > 0, layer


def test_traced_round_restores_every_original(tmp_path):
    before = layers.patch_sites()
    recorder = layers.SpanRecorder()
    bench = workloads.Bench(workloads.tiny(workloads.WORKLOADS["service_copy_ckpt"]),
                            1, tmp_path)
    bench.prepare(warm_up=False)
    with layers.traced(recorder):
        during = layers.patch_sites()
        bench.round()
    after = layers.patch_sites()
    assert all(d[2] is not b[2] for b, d in zip(before, during))
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert recorder.stats("service.execute").calls > 0


def test_originals_restored_when_the_round_raises():
    before = layers.patch_sites()
    with pytest.raises(RuntimeError):
        with layers.traced(layers.SpanRecorder()):
            raise RuntimeError("round failed")
    assert all(a[2] is b[2] for a, b in zip(before, layers.patch_sites()))


def test_zero_call_wrapper_reports_missing_not_zero():
    out = layers.layer_metrics(layers.SpanRecorder(), ("hardware",), wall_s=1.0)
    for name in ("hardware.busy_s", "hardware.busy_s.calls",
                 "hardware.set_j_s", "hardware.cycles", "hardware.retry_ratio"):
        assert out[name] is None, name
    # a layer the workload does not load reports what it measured
    assert out["forces.busy_s"] == 0.0 and out["forces.busy_s.calls"] == 0


def test_expected_layer_without_calls_is_reported_missing():
    direct = workloads.tiny(workloads.WORKLOADS["plummer_direct_small"])
    result, lines = _run(replace(direct, layers=("hardware", "core")), trace=True)
    busy = result["metrics"]["hardware.busy_s"]
    assert busy["value"] is None and busy["missing"] is True
    assert any("hardware.busy_s" in ln and "MISSING" in ln for ln in lines)


def test_self_time_excludes_wrapped_children():
    recorder = layers.SpanRecorder()
    inner = recorder.wrap("inner", lambda: time.sleep(0.02))
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    out, inn = recorder.stats("outer"), recorder.stats("inner")
    assert inn.total_s >= 0.02
    assert out.self_s == pytest.approx(out.total_s - inn.total_s)
    assert recorder.root_s == out.total_s


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    tolerance = f"{workloads.ENERGY_TOLERANCE:g}"
    assert all(tolerance in w["why"] for w in spec["workloads"])


def test_tree_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plummer_direct_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
