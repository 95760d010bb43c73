"""Tests of the benchmark itself, at toy size.

Run with: PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    cmd = [
        sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "37", "--seconds", "0.2",
        "--trace", str(trace), "--toy",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_at_toy_size(workload):
    out = run_bench(workload, trace=0)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = run_bench("image_eval", trace=1)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = run_bench("tall_auto", trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_model_bytes_identical_with_tracing_on_and_off(tmp_path):
    import sparca
    import sparca.evalkit  # noqa: F401

    workload = workloads.TOY_WORKLOADS["image_eval"]
    inputs = workloads.make_inputs(workload, 4)
    args = (workload, inputs, tmp_path / "model.json", 4, workloads.N_THREADS)
    originals = [getattr(m, a) for m, a, _ in spans.ENTRY_POINTS]

    plain = workloads.run_job(sparca, *args)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = workloads.run_job(sparca, *args)

    assert traced.model_bytes == plain.model_bytes
    assert [getattr(m, a) for m, a, _ in spans.ENTRY_POINTS] == originals
    assert {s.layer for s in tracer.spans} >= {"horn", "evalkit.logreg", "pipeline.fit"}
    w0, w1 = traced.window
    times, uncovered = spans.layer_times(tracer.spans, w0, w1)
    assert sum(times.values()) + uncovered == pytest.approx(w1 - w0, rel=1e-9)


def test_layer_times_give_each_instant_to_the_innermost_span():
    tid = 1
    recorded = [
        spans.Span("pipeline.fit", tid, 0.0, 10.0),
        spans.Span("cluster.ward", tid, 1.0, 2.0),
        spans.Span("horn", tid, 3.0, 7.0),
        spans.Span("omp", tid, 4.0, 5.0),
        spans.Span("pipeline.save", tid, 10.5, 12.0),
    ]
    times, uncovered = spans.layer_times(recorded, -1.0, 11.0)
    assert times == pytest.approx(
        {"pipeline.fit": 5.0, "cluster.ward": 1.0, "horn": 3.0, "omp": 1.0,
         "pipeline.save": 0.5}
    )
    assert uncovered == pytest.approx(1.5)


def test_layer_times_refuse_spans_of_several_threads():
    recorded = [spans.Span("horn", 1, 0.0, 1.0), spans.Span("horn", 2, 0.0, 1.0)]
    with pytest.raises(ValueError):
        spans.layer_times(recorded, 0.0, 1.0)
