"""Smoke tests of the benchmark at tiny sizes."""
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from relviews.encoder import EncoderConfig  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench.workloads import END_TO_END, PER_LAYER, TIMINGS, WORKLOADS, run  # noqa: E402


def tiny(name):
    w = WORKLOADS[name]
    return replace(
        w,
        synth=replace(w.synth, instances_per_class=5, views_per_instance=4,
                      feature_dim=8, concept_count_per_class=2),
        train=replace(w.train, epochs=1, batch_size=2, cost_head_hidden=4,
                      encoder=EncoderConfig(heads_per_layer=2, hidden_dim=8)),
        rounds=2, setups=2, probe_per_class=2, top_k=(2, 3))


def _targets(probes):
    return {(p.module, p.attr): tracing.resolve(p.module, p.attr)[2] for p in probes}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run(tiny(name), seed=3, seconds=0.01, trace=False)
    assert result["correct"], result["checks"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(END_TO_END)
    for metric, unit in END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        value = result["metrics"][metric]["value"]
        assert math.isfinite(value) and value > 0, metric
    assert {k: m["unit"] for k, m in result["timings"].items()} == TIMINGS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_originals(name):
    before = _targets(tracing.PROBES)
    result = run(tiny(name), seed=3, seconds=0.01, trace=True)
    assert _targets(tracing.PROBES) == before
    assert all(_targets(tracing.PROBES)[k] is v for k, v in before.items())
    assert result["correct"], result["checks"]
    assert result["absent_probes"] == [] and result["not_measured"] == []
    assert set(result["metrics"]) == set(PER_LAYER)
    for metric, unit in PER_LAYER.items():
        assert result["metrics"][metric]["unit"] == unit
        assert math.isfinite(result["metrics"][metric]["value"]), metric
    acct = result["step_accounting"]
    assert acct["steps"] > 0
    assert acct["step_ms"] == pytest.approx(sum(acct["parts_ms"].values()) + acct["self_ms"])
    assert len(acct["tape_nodes_distinct"]) == 1


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_missing_probe_target_is_reported_absent():
    gone = tracing.Probe("relviews.training", "no_such_function", "gone")
    tracer = tracing.Tracer(probes=tracing.PROBES[:2] + (gone,))
    before = _targets(tracing.PROBES[:2])
    with tracer.installed():
        assert _targets(tracing.PROBES[:2]) != before
    assert tracer.absent == ["relviews.training.no_such_function"]
    assert _targets(tracing.PROBES[:2]) == before


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
