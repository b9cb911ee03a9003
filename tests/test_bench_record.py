"""``BENCH_<n>.json``: the schema of every committed file, and the recorder that writes it."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}


def load_recorder():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_schema(bench):
    assert bench["schema"] == 1
    environment = bench["environment"]
    assert {"python", "numpy", "scipy", "nproc", "seconds"} <= environment.keys()
    assert environment["commits"].keys() == {"parent", "change"}
    assert bench["workloads"] and bench["workloads"].keys() <= WORKLOADS
    for entry in bench["workloads"].values():
        seeds = entry["seeds"]
        assert seeds and seeds == sorted(set(seeds))
        assert entry["metrics"].keys() == METRICS.keys()
        for name, metric in entry["metrics"].items():
            assert (metric["unit"], metric["better"]) == (METRICS[name]["unit"], METRICS[name]["better"])
            for side in ("parent", "change"):
                assert metric[side].keys() == {"median", "iqr"}
                assert 0 < metric[side]["median"] < math.inf and 0 <= metric[side]["iqr"] < math.inf
            assert metric["ratio"] == pytest.approx(metric["change"]["median"] / metric["parent"]["median"])
            assert 0 <= metric["pair_wins"] <= len(seeds)
        assert entry["operations"].keys() == {"parent", "change"}
        for operations in entry["operations"].values():
            assert 0 <= operations["failed"] <= operations["attempted"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_committed_file_matches_the_schema(path):
    check_schema(json.loads(path.read_text()))


def write_run(path, workload, seed, value, failed=0, trace=0, commit="abc"):
    environment = {"commit": commit, "nproc": 2, "numpy": "2", "python": "3", "scipy": "1", "seconds": 30.0,
                   "seed": seed, "trace": trace, "workload": workload}
    metrics = {name: {"unit": metric["unit"], "value": value} for name, metric in METRICS.items()}
    path.write_text(json.dumps({"environment": environment, "attempted": 100, "failed": failed, "metrics": metrics}))
    return str(path)


def test_recorder_pairs_runs_by_workload_and_seed(tmp_path):
    parent, change = [], []
    for seed, before, after in ((9, 3.0, 4.0), (7, 1.0, 2.0), (8, 2.0, 1.5)):
        parent.append(write_run(tmp_path / f"p{seed}.json", "model-sweep", seed, before))
        change.append(write_run(tmp_path / f"c{seed}.json", "model-sweep", seed, after, failed=1, commit="def"))
    out = tmp_path / "BENCH_0.json"
    assert load_recorder().main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    check_schema(bench)
    assert bench["environment"]["commits"] == {"parent": "abc", "change": "def"}
    entry = bench["workloads"]["model-sweep"]
    assert entry["seeds"] == [7, 8, 9]
    # parent 1, 2, 3 and change 2, 1.5, 4: inclusive quartiles 1.5..2.5 and 1.75..3
    rate, seconds = entry["metrics"]["sweep_layer_runs_per_s"], entry["metrics"]["setup_s"]
    assert rate["parent"] == {"median": 2.0, "iqr": 1.0}
    assert rate["change"] == {"median": 2.0, "iqr": 1.25}
    assert rate["ratio"] == 1.0
    assert (rate["pair_wins"], seconds["pair_wins"]) == (2, 1)  # higher is better for a rate, lower for a time
    assert entry["operations"] == {"parent": {"attempted": 300, "failed": 0}, "change": {"attempted": 300, "failed": 3}}


@pytest.mark.parametrize(
    "change_runs, message",
    [
        ([(1, 0, "abc")], "not the same"),
        ([(1, 0, "abc"), (2, 0, "abc"), (2, 0, "abc")], "repeats workload cli-cold seed 2"),
        ([(1, 0, "abc"), (2, 1, "abc")], "traced run"),
        ([(1, 0, "abc"), (2, 0, "def")], "several commits"),
    ],
    ids=["unpaired", "repeated", "traced", "two-commits"],
)
def test_recorder_refuses_runs_it_cannot_pair(tmp_path, capsys, change_runs, message):
    parent = [write_run(tmp_path / f"p{seed}.json", "cli-cold", seed, 1.0) for seed in (1, 2)]
    change = [
        write_run(tmp_path / f"c{i}.json", "cli-cold", seed, 1.0, trace=trace, commit=commit)
        for i, (seed, trace, commit) in enumerate(change_runs)
    ]
    out = tmp_path / "BENCH_0.json"
    assert load_recorder().main(["--parent", *parent, "--change", *change, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
