"""Self-tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They use two-frame smoke runs, so they take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, workloads  # noqa: E402
from perfbench.checks import load_reference  # noqa: E402
from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402

SEED = 7


def _smoke(workload: str, trace: bool, **kwargs) -> dict:
    return workloads.measure(
        workload, SEED, 1.0, trace, max_frames=2, setups=1, **kwargs
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--max-frames", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    expected = dict(PER_LAYER if trace else END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(
        isinstance(v["value"], (int, float)) for v in result["metrics"].values()
    )


def test_benchmark_json_lists_what_the_harness_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.SPECS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)


def test_perturbed_reference_trips_failed_ratio():
    reference = load_reference("frames_geometry")
    first_alias, first_index = next(workloads.rounds(SEED))[0]
    wrong = reference[first_alias][first_index]
    reference[first_alias][first_index] = dataclasses.replace(
        wrong, gpu_cycles=wrong.gpu_cycles + 1.0
    )
    doc = _smoke("frames_geometry", True, reference=reference)
    assert doc["failed"] == 1
    assert doc["metrics"]["failed_ratio"] == 0.5
    assert "output differs from the committed reference" in doc["errors"]


@pytest.mark.parametrize("workload", ["frames_geometry", "serve_tenants"])
def test_traced_run_restores_every_patched_attribute(workload):
    before = layers.patched_attributes()
    doc = _smoke(workload, True)
    after = layers.patched_attributes()
    assert all(after[key] is value for key, value in before.items())
    assert doc["failed"] == 0  # the wrappers change no output
    names = {span[0] for span in doc["spans"]["spans"]}
    assert {"frame", "gpu.caches.access", "gpu.raster.rasterize"} <= names
    if workload == "serve_tenants":
        assert {"serve.step", "observability.monitor_observe"} <= names
    else:
        assert "rbcd.compute_tile" in names


def test_layer_self_times_account_for_the_frame():
    metrics = _smoke("frames_raster", True)["metrics"]
    assert 0.0 <= metrics["gpu.pipeline.residual_ratio"] <= 0.10
