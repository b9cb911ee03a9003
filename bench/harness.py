"""Measurement, checks and output of the cvusim benchmark (see ``run.py``)."""

from __future__ import annotations

import contextlib
import gzip
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy
import scipy

import bodies
import tracing
from cvusim import cli

OUT = bodies.BENCH / "out"
WORKLOADS = ("cli-cold", "model-sweep", "functional-exact")

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cold_dse_s", "s", "lower"),
    ("cold_simulate_s", "s", "lower"),
    ("cold_compare_s", "s", "lower"),
    ("sweep_layer_runs_per_s", "1/s", "higher"),
    ("calibrate_s", "s", "lower"),
    ("exact_vector_macs_per_s", "MAC/s", "higher"),
    ("exact_scalar_macs_per_s", "MAC/s", "higher"),
    ("exact_conventional_macs_per_s", "MAC/s", "higher"),
)

_IMPORT = "setup_s and every cold_*_s on cli-cold; no change on model-sweep"
_CVU = "the exact_* metrics on functional-exact; no change on model-sweep"
_SWEEP = "sweep_layer_runs_per_s on model-sweep; no change on cli-cold"
# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("import.cvusim_s", "s", "lower", _IMPORT),
    ("import.scipy_optimize_s", "s", "lower", _IMPORT),
    ("import.numpy_s", "s", "lower", _IMPORT),
    *(
        (f"cli.{command}.{stage}_s", "s", "lower", f"cold_{command}_s on cli-cold")
        for command, stages in (
            ("dse", ("main", "simulation", "emit")),
            ("simulate", ("main", "parse", "sizing", "simulation", "emit")),
            ("compare", ("main", "parse", "sizing", "simulation", "emit")),
        )
        for stage in stages
    ),
    ("workloads.parse_network.calls", "count", "lower", "cold_compare_s on cli-cold; setup_s on model-sweep"),
    ("workloads.parse_network.busy_s", "s", "lower", "cold_compare_s on cli-cold; setup_s on model-sweep"),
    ("cost.per_mac_normalized.calls", "count", "lower", "sweep_layer_runs_per_s on model-sweep"),
    ("cost.per_mac_normalized.busy_s", "s", "lower", "sweep_layer_runs_per_s on model-sweep"),
    ("cost.dse_sweep.busy_s", "s", "lower", "cold_dse_s on cli-cold"),
    ("cost.calibrate.busy_s", "s", "lower", "calibrate_s on model-sweep"),
    ("arch.build_array.busy_s", "s", "lower", "setup_s on model-sweep and functional-exact"),
    ("arch.simulate_layer.calls", "count", "lower", _SWEEP),
    ("arch.simulate_layer.self_s", "s", "lower", _SWEEP),
    ("arch.simulate_network.busy_s", "s", "lower", _SWEEP),
    ("arch.compare.busy_s", "s", "lower", _SWEEP),
    ("arch.functional_dot.calls", "count", "lower", "the exact_* metrics on functional-exact"),
    ("arch.functional_dot.self_s", "s", "lower", "the exact_* metrics on functional-exact"),
    *(
        (f"{boundary}.{stat}", "count" if stat == "calls" else "s", "lower", _CVU)
        for boundary in ("arch.plan_composition", "arch.execute_cycle", "cvu.slice_vector", "cvu.nbve_dot")
        for stat in ("calls", "busy_s", "self_s")
    ),
    ("cvu.lane_utilization", "ratio", "higher", _CVU),
    *(
        (f"trace.overhead.{workload}", "ratio", "lower", "none: traced / untraced time - 1, same work")
        for workload in WORKLOADS
    ),
)
PER_LAYER_NAMES = {name for name, *_ in PER_LAYER}

SETUP_REPEATS = 3
# Every run reports every end-to-end metric, so every run interleaves all the
# lanes below, each with a fixed share of the window.  A cold process takes
# about a second, so cli-cold gets the largest share.
SHARES = {
    "setup": 0.08,
    "cli-cold": 0.40,
    "model-sweep": 0.19,
    **{f"functional-{word}": 0.1 for word in bodies.STYLES},
    "reference": 0.03,
}
SWEEPS_PER_CALIBRATE = 2
# The host's speed drifts between runs (whole runs 1.4-1.8x faster than the
# next were seen on a 2-vCPU VM), and every timing here moves with it.  Each
# run therefore also times a bare interpreter start, which runs no cvusim
# code, and reports host times scaled to a host on which that start takes
# REFERENCE_NOMINAL_S.  The unscaled values are printed and kept as well.
REFERENCE = [sys.executable, "-S", "-c", "pass"]
REFERENCE_NOMINAL_S = 0.012
# The traced run.
IMPORT_REPEATS = 3
CLI_REPEATS = 5
SWEEP_REPEATS = 3
TRACE_SIMULATE = ["simulate", "--network", "vgg", "--style", "vector", "--memory", "hbm2"]

# A set-up probe prints the system-wide monotonic clock when it is ready.
_PROBE_CLI = "import time, cvusim\nprint(time.clock_gettime(time.CLOCK_MONOTONIC))"
_PROBE_IN_PROCESS = (
    "import sys, time, bodies\n"
    "bodies.setup(sys.argv[1], int(sys.argv[2]))\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)

NOTES = (
    "modelled figures are recorded, not gated; the model is unvalidated: there is no held-out "
    "reference and the calibration anchors are the tuning data, so no accuracy error is given",
    "the modelled weight scratchpads start empty on every layer",
)


class Run:
    """Samples, reported values, checks and modelled outputs of one run."""

    def __init__(self, seed: int):
        self.seed = seed
        self.checks = bodies.Checks()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, float] = {}
        self.modelled: dict = {}
        self.host: dict = {}


# --- untraced run -----------------------------------------------------------

# Each lane yields after every operation: True when it has just completed a
# unit (a cycle, block or round) that the run may stop after.

def setup_lane(run: Run, workload: str):
    """Fresh processes, each timed to the point where the first operation
    would be timed; at least ``SETUP_REPEATS`` of them."""
    if workload == "cli-cold":
        argv, env = [sys.executable, "-c", _PROBE_CLI], bodies.child_env()
    else:
        argv = [sys.executable, "-c", _PROBE_IN_PROCESS, workload, str(run.seed)]
        env = bodies.child_env(bodies.BENCH)
    for count in itertools.count(1):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(argv, env=env, cwd=bodies.ROOT, capture_output=True, text=True,
                                  timeout=bodies.CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            run.checks.record(False, f"setup of {workload}: timed out")
        else:
            if run.checks.record(proc.returncode == 0, f"setup of {workload}: exit {proc.returncode}: {proc.stderr[-300:]}"):
                run.samples["setup_s"].append(float(proc.stdout.split()[-1]) - start)
        yield count >= SETUP_REPEATS


def reference_lane(run: Run):
    """Bare interpreter starts: no cvusim code, so their time is the host's."""
    while True:
        start = time.perf_counter()
        subprocess.run(REFERENCE, capture_output=True, timeout=bodies.CHILD_TIMEOUT_S, check=True)
        run.samples["reference_s"].append(time.perf_counter() - start)
        yield True


def cli_lane(run: Run):
    """Cycles of cold processes: `dse`, `simulate` on the next bundled net,
    `compare`; six cycles cover every net."""
    dse, simulate, compare = bodies.cli_argvs()
    for cycle in itertools.count(run.seed):
        for command, argv in (("dse", dse), ("simulate", simulate[cycle % len(simulate)]), ("compare", compare)):
            run.samples[f"cold_{command}_s"].append(bodies.run_cli(argv, run.checks, run.modelled))
            yield command == "compare"


def sweep_lane(run: Run, body: bodies.ModelSweep):
    """Blocks of sweep iterations, each block followed by one ``calibrate``."""
    while True:
        for _ in range(SWEEPS_PER_CALIBRATE):
            try:
                elapsed, layer_runs, outputs = body.iteration()
            except Exception as exc:  # a failing operation is counted, not fatal
                run.checks.record(False, f"sweep: {type(exc).__name__}: {exc}")
            else:
                if run.checks.record(run.checks.same_as_first("sweep", bodies.digest(outputs)),
                                     "sweep: outputs differ from the first iteration"):
                    run.samples["sweep_layer_runs_per_s"].append(layer_runs / elapsed)
                if "sweep" not in run.modelled:
                    run.modelled["sweep"] = bodies.sweep_modelled(outputs)
            yield False
        try:
            elapsed, params = body.calibrate()
        except Exception as exc:
            run.checks.record(False, f"calibrate: {type(exc).__name__}: {exc}")
        else:
            if run.checks.record(run.checks.same_as_first("calibrate", repr(params)),
                                 "calibrate: parameters differ from the first call"):
                run.samples["calibrate_s"].append(elapsed)
        yield True


def functional_lane(run: Run, body: bodies.FunctionalExact, word: str, totals: dict):
    """Tiles through one style, round after round; the first unit is a whole
    round, every later tile is a unit.  ``totals[pair]`` gathers the verified
    MACs and the seconds inside ``functional_gemm``."""
    style = bodies.STYLES[word]
    for round_index in itertools.count():
        tiles = body.rounds[round_index % len(body.rounds)]
        for i, tile in enumerate(tiles):
            elapsed, ok = body.run(tile, style, run.checks)
            if ok:
                run.samples[f"exact_{word}_macs_per_s"].append(tile.macs / elapsed)
                totals[tile.pair][0] += tile.macs
                totals[tile.pair][1] += elapsed
            yield round_index > 0 or i == len(tiles) - 1


def interleave(lanes: dict, shares: dict, seconds: float) -> None:
    """Run the lanes' operations one at a time, always the lane furthest
    below its share of the time used, so that every lane samples the whole
    window.  After ``seconds`` each lane runs on to the end of its unit."""
    used = dict.fromkeys(lanes, 0.0)
    active = list(lanes)
    start = time.perf_counter()
    while active:
        name = min(active, key=lambda lane: used[lane] / shares[lane])
        before = time.perf_counter()
        unit_done = next(lanes[name])
        now = time.perf_counter()
        used[name] += now - before
        if unit_done and now - start >= seconds:
            active.remove(name)


def measure(workload: str, seed: int, seconds: float) -> Run:
    """The untraced run: every end-to-end metric; ``setup_s`` and
    ``peak_rss_mb`` are those of ``workload``."""
    run = Run(seed)
    functional = bodies.FunctionalExact(seed)
    totals = {word: defaultdict(lambda: [0, 0.0]) for word in bodies.STYLES}
    lanes = {
        "setup": setup_lane(run, workload),
        "cli-cold": cli_lane(run),
        "model-sweep": sweep_lane(run, bodies.ModelSweep()),
        **{f"functional-{word}": functional_lane(run, functional, word, totals[word]) for word in bodies.STYLES},
        "reference": reference_lane(run),
    }
    interleave(lanes, SHARES, seconds)

    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    run.samples["peak_rss_mb"].append(resource.getrusage(who).ru_maxrss / 1024)  # KiB on Linux
    for word, pairs in totals.items():
        # Geometric mean over the bitwidth pairs, so that the mix of pairs
        # in a run does not move it.
        rates = [math.log(macs / elapsed) for macs, elapsed in pairs.values()]
        run.values[f"exact_{word}_macs_per_s"] = math.exp(statistics.fmean(rates)) if rates else None
    for name in ("setup_s", "peak_rss_mb", "cold_dse_s", "cold_simulate_s", "cold_compare_s",
                 "sweep_layer_runs_per_s", "calibrate_s"):
        samples = run.samples[name]
        run.values[name] = statistics.median(samples) if samples else None  # every operation failed
    speed = REFERENCE_NOMINAL_S / statistics.median(run.samples["reference_s"])
    run.host = {"speed": speed, "unscaled": dict(run.values)}
    for name, unit, better in END_TO_END:
        if unit != "MB" and run.values[name] is not None:
            run.values[name] *= speed if better == "lower" else 1 / speed
    return run


# --- traced run -------------------------------------------------------------

def _call_main(argv: list[str]) -> tuple[float, int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, stdout.getvalue()


def _paired(run: Run, tracer: tracing.Tracer, absent: set, label: str, boundaries, work, repeats: int):
    """Run ``work`` untraced and then traced, ``repeats`` times in turn.

    ``work()`` returns its seconds and its outputs, None for a failure; the
    outputs must equal those of the first call.  Returns the untraced and
    traced seconds and the span totals of every traced call.
    """
    plain, traced, totals = [], [], []
    for _ in range(repeats):
        seconds, outputs = work()
        plain.append(seconds)
        run.checks.record(outputs is not None and run.checks.same_as_first(label, outputs),
                          f"{label}: failed or outputs differ from the first call")
        mark = len(tracer.spans)
        with tracing.installed(tracer, boundaries) as missing:
            seconds, outputs = work()
        absent.update(missing)
        traced.append(seconds)
        totals.append(tracer.totals(mark))
        run.checks.record(outputs is not None and run.checks.same_as_first(label, outputs),
                          f"traced {label}: failed or outputs differ from the first call")
    return plain, traced, totals


def _median_totals(run: Run, totals: list[dict]) -> None:
    """Per-layer values: the median over the traced calls of each span stat."""
    for span in {span for entry in totals for span in entry}:
        for stat in ("calls", "busy_s", "self_s"):
            name = f"{span}.{stat}"
            if name in PER_LAYER_NAMES:
                run.values[name] = statistics.median(entry.get(span, {}).get(stat, 0) for entry in totals)


def trace(seed: int) -> tuple[Run, tracing.Tracer, list[str]]:
    """The traced run: a fixed amount of every layer's work, untraced and
    traced in turn.  Gives the per-layer metrics and the tracing overhead."""
    run = Run(seed)
    for name, seconds in tracing.import_times(IMPORT_REPEATS, run.checks).items():
        run.values[f"import.{name.replace('.', '_')}_s"] = seconds
    tracer = tracing.Tracer()
    absent: set[str] = set()

    # cli: the stages of one in-process main() per cold command.
    dse, _, compare = bodies.cli_argvs()
    plain_s = traced_s = 0.0
    for command, argv in (("dse", dse), ("simulate", TRACE_SIMULATE), ("compare", compare)):
        def work():
            elapsed, code, out = _call_main(argv)
            return elapsed, out if code == 0 else None

        work()  # warm-up
        plain, traced, totals = _paired(run, tracer, absent, f"main {command}", tracing.CLI_BOUNDARIES, work, CLI_REPEATS)
        plain_s += statistics.median(plain)
        traced_s += statistics.median(traced)
        stages = {
            "main": traced,
            "parse": [t.get("cli.load_network", {}).get("busy_s", 0.0) for t in totals],
            "sizing": [t.get("cli.build_array", {}).get("busy_s", 0.0) for t in totals],
            "simulation": [
                sum(t.get(span, {}).get("busy_s", 0.0) for span in ("cli.simulate_network", "cli.compare", "cli.dse_sweep"))
                for t in totals
            ],
            "emit": [t.get("cli._emit", {}).get("busy_s", 0.0) for t in totals],
        }
        for stage, samples in stages.items():
            if f"cli.{command}.{stage}_s" in PER_LAYER_NAMES:
                run.values[f"cli.{command}.{stage}_s"] = statistics.median(samples)
    run.values["trace.overhead.cli-cold"] = traced_s / plain_s - 1

    # model-sweep: set-up, one iteration and one calibrate.
    def sweep_work():
        start = time.perf_counter()
        body = bodies.ModelSweep()
        outputs = body.iteration()[2]
        params = body.calibrate()[1]
        return time.perf_counter() - start, bodies.digest((outputs, params))

    sweep_work()  # warm-up: first calls pay one-off costs
    plain, traced, totals = _paired(run, tracer, absent, "sweep pass", tracing.SWEEP_BOUNDARIES, sweep_work, SWEEP_REPEATS)
    run.values["trace.overhead.model-sweep"] = statistics.median(traced) / statistics.median(plain) - 1
    _median_totals(run, totals)

    # functional-exact: one round of tiles through every style.
    functional = bodies.FunctionalExact(seed)

    def functional_work():
        results = [functional.run(tile, style, run.checks) for tile in functional.rounds[0] for style in bodies.STYLES.values()]
        return sum(elapsed for elapsed, _ in results), len(results) if all(ok for _, ok in results) else None

    plain, traced, totals = _paired(run, tracer, absent, "functional round", tracing.FUNCTIONAL_BOUNDARIES, functional_work, 1)
    run.values["trace.overhead.functional-exact"] = traced[0] / plain[0] - 1
    _median_totals(run, totals)
    if tracer.utilization:
        run.values["cvu.lane_utilization"] = statistics.fmean(tracer.utilization)
    for name in PER_LAYER_NAMES - run.values.keys():  # an absent boundary
        run.values[name] = 0
    return run, tracer, sorted(absent)


# --- output -----------------------------------------------------------------

def tail(samples: list[float], better: str) -> tuple[str, float] | None:
    """The worst-side percentile that has at least ten samples beyond it."""
    ordered = sorted(samples, reverse=better == "higher")
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(ordered) * (100 - p) / 100 >= 10:
            return f"p{p:g}", ordered[math.ceil(len(ordered) * p / 100) - 1]
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from its ``.git``; "unknown" outside git."""
    git = bodies.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace_on: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace_on,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def report(run: Run, env: dict, table, extra: dict) -> dict:
    """Print the human-readable result; return the metrics for the JSON line."""
    print(f"# cvusim benchmark {json.dumps(env, sort_keys=True)}")
    for note in NOTES:
        print(f"# {note}")
    metrics = {}
    for name, unit, better, *moves in table:
        value = run.values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        samples = run.samples.get(name, [])
        line = f"{name:<34} {'n/a' if value is None else format(value, '.8g'):>16} {unit:<6}"
        if samples:
            line += f" n={len(samples)}"
        worst = tail(samples, better)
        if worst:
            line += f" {worst[0]}={worst[1]:.6g}"
        if moves:
            line += f"  moves: {moves[0]}"
        print(line)
    checks = run.checks
    print(f"{'error_rate':<34} {checks.failed / max(1, checks.attempted):>16.8g} {'ratio':<6} "
          f"{checks.failed} failed of {checks.attempted}")
    for error in checks.errors:
        print(f"# FAILED: {error}")
    for key, value in extra.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    return metrics


def main(workload: str, seed: int, seconds: float, trace_on: int) -> int:
    env = environment(workload, seed, seconds, trace_on)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace_on}"
    if trace_on:
        run, tracer, absent = trace(seed)
        extra = {"absent_boundaries": absent, "spans": len(tracer.spans)}
        metrics = report(run, env, PER_LAYER, extra)
        extra["moves"] = {name: moves for name, _, _, moves in PER_LAYER}  # for the result file
        with gzip.open(OUT / f"{stem}-spans.json.gz", "wt") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}, f)
    else:
        run = measure(workload, seed, seconds)
        extra = {"host": run.host, "modelled": run.modelled}
        metrics = report(run, env, END_TO_END, extra)
    checks = run.checks
    result = {"correct": checks.failed == 0, "attempted": checks.attempted, "failed": checks.failed,
              "metrics": metrics}
    detail = dict(result, environment=env, notes=NOTES, errors=checks.errors, samples=dict(run.samples), **extra)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1
