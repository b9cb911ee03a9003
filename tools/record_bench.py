"""Write ``BENCH_<n>.json``: a change's benchmark runs against its parent's.

Usage, from the root of a source checkout:

    python tools/record_bench.py --out BENCH_<n>.json \\
        --parent PARENT/bench/out/*-trace0.json --change CHANGE/bench/out/*-trace0.json

Each named file is one ``bench/run.py`` result, as written under ``bench/out/``.
Runs are paired by workload and seed, so both sides must hold the same
(workload, seed) runs, each once; run them alternating which side goes first.
Run each side from a git checkout of its commit, so that its runs record it.
The output holds the environment, then per workload and end-to-end metric of
``BENCHMARK.json``: the parent and change median and interquartile range, the
change/parent ratio of the medians and the pairs the change won.  It also holds
each side's attempted and failed operations per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
SIDES = ("parent", "change")
# fields of a run's environment that name the run, not the host it ran on
PER_RUN = ("commit", "seed", "workload")


def spread(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles; 0 for one value)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def _runs(paths: list[Path]) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in paths:
        run = json.loads(path.read_text())
        env = run["environment"]
        if env["trace"]:
            raise ValueError(f"{path} is a traced run; its metrics are not timed like the others")
        key = env["workload"], env["seed"]
        if key in runs:
            raise ValueError(f"{path} repeats workload {key[0]} seed {key[1]}")
        runs[key] = run
    return runs


def record(parent: list[Path], change: list[Path], benchmark: dict) -> dict:
    """The ``BENCH_<n>.json`` content of the paired runs, for the metrics ``benchmark`` declares."""
    sides = {"parent": _runs(parent), "change": _runs(change)}
    if sides["parent"].keys() != sides["change"].keys():
        raise ValueError("the parent and change runs are not the same (workload, seed) pairs")
    every = [run for runs in sides.values() for run in runs.values()]
    host = {k: v for k, v in every[0]["environment"].items() if k not in PER_RUN}
    for run in every:
        if {k: v for k, v in run["environment"].items() if k not in PER_RUN} != host:
            raise ValueError(f"runs differ in environment: {run['environment']} against {host}")
    commits = {}
    for side, runs in sides.items():
        recorded = {run["environment"]["commit"] for run in runs.values()}
        if len(recorded) > 1:
            raise ValueError(f"the {side} runs come from several commits: {sorted(recorded)}")
        commits[side] = recorded.pop()

    metrics = benchmark["end_to_end"]
    workloads = {}
    for name in [w["name"] for w in benchmark["workloads"]]:
        seeds = sorted(seed for workload, seed in sides["parent"] if workload == name)
        if not seeds:
            continue
        pairs = [(sides["parent"][name, seed], sides["change"][name, seed]) for seed in seeds]
        entry = {"seeds": seeds, "metrics": {}}
        for metric in metrics:
            values = [[run["metrics"][metric["name"]]["value"] for run in pair] for pair in pairs]
            higher = metric["better"] == "higher"
            before, after = spread([p for p, _ in values]), spread([c for _, c in values])
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": before,
                "change": after,
                "ratio": after["median"] / before["median"],
                "pair_wins": sum((c > p) if higher else (c < p) for p, c in values),
            }
        entry["operations"] = {
            side: {
                "attempted": sum(pair[i]["attempted"] for pair in pairs),
                "failed": sum(pair[i]["failed"] for pair in pairs),
            }
            for i, side in enumerate(SIDES)
        }
        workloads[name] = entry
    return {"schema": SCHEMA, "environment": {**host, "commits": commits}, "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True, help="the parent's bench/out/*.json runs")
    parser.add_argument("--change", type=Path, nargs="+", required=True, help="the change's bench/out/*.json runs")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result = record(args.parent, args.change, benchmark)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
