"""A/B two cvusim source trees on the benchmark's in-process lanes, in alternating rounds.

Usage, from the root of a source checkout:

    git archive HEAD~1 | (mkdir -p ../base && tar -x -C ../base)
    python tools/ab.py ../base . --rounds 10

Each tree (a directory holding ``src/cvusim``) gets one worker process, which imports
cvusim from that tree and the lanes from this checkout's ``bench/bodies.py`` and
``bench/harness.py``, so both trees run the same work.  The workers never run at once: each round runs every
lane once on each tree, one tree after the other, and the tree that goes first
alternates from lane to lane and from round to round.  The lanes:

* ``exact-<style>``: the benchmark's own lane (``functional_lane`` in ``bench/harness.py``)
  for one style, over every seeded tile of the functional-exact workload ``PASSES`` times;
  the value is the geometric mean over bitwidth pairs of MACs per second spent inside
  ``arch.functional_gemm``, as the benchmark reports ``exact_<style>_macs_per_s``, and each
  pair's own MACs per second are kept beside it, so that a cost that grows with the tiles'
  depth k can be read pair by pair;
* ``sweep``: one model-sweep iteration; the value is its layer runs per second;
* ``calibrate``: ``CALIBRATES`` calls of the model-sweep body's ``calibrate``, which times
  ``cost.calibrate(cost.DEFAULT_ANCHORS)`` as the benchmark's ``calibrate_s`` does; the value is
  calls per second.

Both trees run one untimed warm-up round first.  The report gives per lane the median
value of each tree, the ratio of B's median to A's, the rounds that B won (higher
is better for every lane) and A's spread, its interquartile range over its median, so that a
ratio can be read against the noise; then one JSON line of the same, in which each lane also
has ``a_quartiles`` and ``b_quartiles``, each tree's (q1, q3) by inclusive quartiles (one
round's value as both), and ``pairs`` maps every bitwidth pair ``"<bw_x>x<bw_w>"`` of an exact
lane to the median of each tree and their ratio (it is empty for the other lanes).  The benchmark's lane checks
every functional output against the int64 ``W @ X`` oracle, so equal exact outputs need
no further check; the sweep's outputs and the fitted parameters are digested and compared
across the trees.  The exit code is 1 if any functional output is wrong or the trees' sweep
outputs or fitted parameters differ, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
STYLES = ("vector", "scalar", "conventional")
LANES = (*(f"exact-{style}" for style in STYLES), "sweep", "calibrate")
SEED = 1  # of the functional-exact tiles, as bench/run.py --seed gives it
PASSES = 20  # over the tiles per exact round
CALIBRATES = 200  # calibrate calls per calibrate round


def _package_dir(tree: Path) -> Path:
    package = tree.resolve() / "src" / "cvusim"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no cvusim package under {tree}/src")
    return package


# --- worker: one tree, one lane at a time, on request ------------------------

class Worker:
    """The lane bodies of one tree, built once."""

    def __init__(self):
        import bodies
        import harness

        self.bodies, self.harness = bodies, harness
        self.functional = bodies.FunctionalExact(SEED)
        self.tiles = sum(len(tiles) for tiles in self.functional.rounds)
        self.sweep = bodies.ModelSweep()

    def exact(self, style: str) -> tuple[float, str | None, int, dict]:
        """Rate, failed tiles and each pair's rate; the lane itself checks each output against the oracle."""
        run, totals = self.harness.Run(SEED), defaultdict(lambda: [0, 0.0])
        lane = self.harness.functional_lane(run, self.functional, style, totals)
        for _ in range(PASSES * self.tiles):
            next(lane)
        pairs = {f"{bw_x}x{bw_w}": macs / seconds for (bw_x, bw_w), (macs, seconds) in totals.items()}
        rates = [math.log(rate) for rate in pairs.values()]
        return (math.exp(statistics.fmean(rates)) if rates else 0.0), None, run.checks.failed, pairs

    def sweep_rate(self) -> tuple[float, str | None, int, dict]:
        seconds, layer_runs, outputs = self.sweep.iteration()
        return layer_runs / seconds, self.bodies.digest(outputs), 0, {}

    def calibrate_rate(self) -> tuple[float, str | None, int, dict]:
        """Calls per second, and a digest of every distinct parameter set the calls returned."""
        seconds, fitted = 0.0, set()
        for _ in range(CALIBRATES):
            elapsed, params = self.sweep.calibrate()
            seconds += elapsed
            fitted.add(repr(params))
        return CALIBRATES / seconds, self.bodies.digest(sorted(fitted)), 0, {}

    def run(self, lane: str) -> tuple[float, str | None, int, dict]:
        if lane == "sweep":
            return self.sweep_rate()
        if lane == "calibrate":
            return self.calibrate_rate()
        return self.exact(lane.removeprefix("exact-"))


def worker_main(tree: Path) -> int:
    package = _package_dir(tree)
    sys.path[:0] = [str(package.parent), str(BENCH)]
    import cvusim

    if Path(cvusim.__file__).resolve().parent != package:
        raise ImportError(f"cvusim was imported from {cvusim.__file__}, not from {package}")
    worker = Worker()
    print("ready", flush=True)
    for line in sys.stdin:
        print(json.dumps(worker.run(line.strip())), flush=True)
    return 0


# --- controller ---------------------------------------------------------------

def _start(tree: Path) -> subprocess.Popen:
    argv = [sys.executable, __file__, "--worker", str(tree)]
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline().strip() != "ready":
        proc.kill()
        raise RuntimeError(f"the worker for {tree} did not start")
    return proc


def _ask(proc: subprocess.Popen, lane: str) -> tuple[float, str | None, int, dict]:
    proc.stdin.write(lane + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"a worker exited during lane {lane}")
    return tuple(json.loads(line))


def _quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) of ``values`` by inclusive quartiles, as ``tools/record_bench.py`` takes them; one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(tree_a: Path, tree_b: Path, rounds: int) -> dict:
    """Per lane: the medians and quartiles, B/A, B's wins, each tree's failed outputs, whether the
    outputs hold, and the medians and B/A of each bitwidth pair."""
    for tree in (tree_a, tree_b):
        _package_dir(tree)
    procs = []
    try:
        for tree in (tree_a, tree_b):
            procs.append(_start(tree))
        values = {lane: ([], []) for lane in LANES}
        digests = {lane: (set(), set()) for lane in LANES}
        failed = {lane: [0, 0] for lane in LANES}
        pairs = {lane: defaultdict(lambda: ([], [])) for lane in LANES}
        for r in range(1 + rounds):  # round 0 warms both trees up and is not kept
            for j, lane in enumerate(LANES):
                for side in ((0, 1) if (r + j) % 2 == 0 else (1, 0)):
                    value, digest, bad, rates = _ask(procs[side], lane)
                    failed[lane][side] += bad
                    digests[lane][side].add(digest)
                    if r:
                        values[lane][side].append(value)
                        for pair, rate in rates.items():
                            pairs[lane][pair][side].append(rate)
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait(timeout=60)
    result = {"rounds": rounds, "passes": PASSES, "lanes": {}}
    for lane, (a, b) in values.items():
        result["lanes"][lane] = {
            "a": statistics.median(a), "b": statistics.median(b),
            "ratio": statistics.median(b) / statistics.median(a),
            "a_quartiles": _quartiles(a), "b_quartiles": _quartiles(b),
            "b_won": sum(vb > va for va, vb in zip(a, b)),
            "failed": dict(zip("ab", failed[lane])),
            # exact lanes digest nothing (None on both sides); the sweep's and calibrate's digests must agree
            "outputs_ok": not any(failed[lane]) and digests[lane][0] == digests[lane][1]
            and len(digests[lane][0]) == 1,
            "pairs": {
                pair: {"a": statistics.median(pa), "b": statistics.median(pb),
                       "ratio": statistics.median(pb) / statistics.median(pa)}
                for pair, (pa, pb) in pairs[lane].items()
            },
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="A/B two cvusim source trees in alternating rounds")
    parser.add_argument("tree_a", type=Path, nargs="?", help="the base tree, e.g. a git archive of the parent")
    parser.add_argument("tree_b", type=Path, nargs="?", help="the changed tree")
    parser.add_argument("--rounds", type=int, default=10, help="timed rounds, after one warm-up round")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker_main(args.worker)
    if args.tree_a is None or args.tree_b is None or args.rounds < 1:
        parser.error("give two trees and at least one round")
    result = compare(args.tree_a, args.tree_b, args.rounds)
    print(f"A = {args.tree_a}, B = {args.tree_b}: {args.rounds} rounds, {PASSES} passes per exact round")
    print(f"{'lane':20s} {'median A':>12s} {'median B':>12s} {'B/A':>7s} {'B won':>7s} {'IQR/A':>7s}  outputs")
    for lane, entry in result["lanes"].items():
        held = ("= oracle" if lane.startswith("exact-") else "same") if entry["outputs_ok"] else "WRONG"
        q1, q3 = entry["a_quartiles"]
        print(f"{lane:20s} {entry['a']:12.4g} {entry['b']:12.4g} {entry['ratio']:7.3f} "
              f"{entry['b_won']:>3d}/{args.rounds:<3d} {(q3 - q1) / entry['a']:7.3f}  {held}")
    print(json.dumps(result))
    ok = all(entry["outputs_ok"] for entry in result["lanes"].values())
    if not ok:
        print("error: a functional output differs from the int64 oracle, or the trees' sweep outputs differ"
              " or their fitted parameters differ", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
