"""Tests of the benchmark itself: its metrics and units, its failure
counting, and that only the traced run installs wrappers."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from collections import defaultdict

import pytest

import run

run.load_package()

import bodies  # noqa: E402  (needs load_package first)
import harness  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((run.SRC.parent / "BENCHMARK.json").read_text())


def _bindings():
    return {(module.__name__, attribute): getattr(module, attribute) for module, attribute, _ in tracing.ALL_BOUNDARIES}


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every pass at its minimum, so that a whole run takes a few seconds."""
    for name in ("SETUP_REPEATS", "SWEEPS_PER_CALIBRATE", "IMPORT_REPEATS", "CLI_REPEATS"):
        monkeypatch.setattr(harness, name, 1)
    monkeypatch.setattr(harness, "OUT", tmp_path)
    monkeypatch.setattr(bodies, "PAIRS", ((8, 8),))
    monkeypatch.setattr(bodies, "SIMULATE_CONFIGS", bodies.SIMULATE_CONFIGS[2:3])
    return tmp_path


def test_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in harness.PER_LAYER
    ]


def test_untraced_run_emits_every_metric_and_installs_no_wrappers(tiny, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an untraced run installed a wrapper")

    monkeypatch.setattr(tracing, "installed", refuse)
    monkeypatch.setattr(tracing.Tracer, "wrap", refuse)
    before = _bindings()
    assert harness.main("model-sweep", 3, 0, 0) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: (m["unit"], m["value"] > 0) for name, m in result["metrics"].items()} == {
        name: (unit, True) for name, unit, _ in harness.END_TO_END
    }
    assert _bindings() == before
    detail = json.loads((tiny / "model-sweep-seed3-trace0.json").read_text())
    assert detail["environment"]["seed"] == 3
    assert {"nproc", "python", "numpy", "scipy", "commit"} <= detail["environment"].keys()
    assert detail["modelled"]["sweep"]["total_below_memory_layer_runs"]


def test_traced_run_emits_every_per_layer_metric_and_restores_bindings(tiny, capsys):
    before = _bindings()
    assert harness.main("functional-exact", 3, 0, 1) == 0
    result = _result(capsys)
    assert result["correct"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {name: unit for name, unit, *_ in harness.PER_LAYER}
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
    assert all(value > 0 for value in counts.values()), counts
    assert 0 < result["metrics"]["cvu.lane_utilization"]["value"] <= 1
    assert _bindings() == before
    assert (tiny / "functional-exact-seed3-trace1-spans.json.gz").is_file()


def test_corrupted_oracle_result_counts_in_error_rate(tiny, monkeypatch, capsys):
    monkeypatch.setattr(bodies, "oracle", lambda w, x: w.astype("int64") @ x.astype("int64") + 1)
    result = harness.Run(seed=1)
    body = bodies.FunctionalExact(1)
    for word in bodies.STYLES:  # one round of the single pair is one unit
        assert next(harness.functional_lane(result, body, word, defaultdict(lambda: [0, 0.0])))
    assert (result.checks.attempted, result.checks.failed) == (3, 3)
    harness.report(result, {}, (), {})
    assert any(line.split()[:2] == ["error_rate", "1"] for line in capsys.readouterr().out.splitlines())


def test_self_time_excludes_nested_spans_and_absent_boundaries_do_not_fail():
    module = types.SimpleNamespace()
    module.inner = lambda: sum(range(1000))
    module.outer = lambda: module.inner() + module.inner()
    tracer = tracing.Tracer()
    boundaries = ((module, "outer", "m.outer"), (module, "inner", "m.inner"), (module, "gone", "m.gone"))
    with tracing.installed(tracer, boundaries) as absent:
        module.outer()
    assert absent == ["m.gone"]
    totals = tracer.totals()
    assert totals["m.outer"]["calls"] == 1 and totals["m.inner"]["calls"] == 2
    nested = totals["m.inner"]["busy_s"]
    assert totals["m.outer"]["self_s"] == pytest.approx(totals["m.outer"]["busy_s"] - nested)
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert not hasattr(module.outer, "__wrapped__")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.SRC.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.SRC.parent / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
