"""The three workload bodies of the cvusim benchmark, with their oracles.

Every body reaches the package only through its CLI (cold child processes)
or its public API.  API functions are looked up on their module at call time
(``arch.simulate_network``, never a name bound at import), so the wrappers a
traced run installs see every call; an untraced run installs none.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from cvusim import arch, cost, workloads
from cvusim.bitslice import QuantizedVector

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120

# cli-cold runs `dse`, `simulate` on every bundled net and `compare`.  The
# (net, style, memory) assignment covers all three styles and both memories,
# each style once on each memory.
SIMULATE_CONFIGS = (
    ("alexnet", "conventional", "ddr4"),
    ("convnet", "scalar", "hbm2"),
    ("gru", "vector", "ddr4"),
    ("lstm", "conventional", "hbm2"),
    ("resnet", "scalar", "ddr4"),
    ("vgg", "vector", "hbm2"),
)
NETS = tuple(net for net, _, _ in SIMULATE_CONFIGS)
COMPARE_CONFIGS = ("conventional:ddr4", "scalar:ddr4", "vector:ddr4", "vector:hbm2")
# The CLI's `dse` defaults.
DSE_SLICES = (1, 2, 4)
DSE_LANES = (1, 2, 4, 8, 16)

# functional-exact: the (bw_x, bw_w) pairs of the bundled layers, plus 6x3,
# which is not slice-aligned and so runs through plan padding.
PAIRS = ((8, 8), (8, 4), (4, 4), (4, 2), (8, 2), (6, 3))
TILE_M, TILE_N = 2, 1
ROUNDS = 3  # distinct seeded rounds of tiles, cycled through

STYLES = {"conventional": arch.Style.CONVENTIONAL, "scalar": arch.Style.SCALAR, "vector": arch.Style.VECTOR}
_MEMORY = {"ddr4": arch.DDR4, "hbm2": arch.HBM2}
# What a console-script `cvusim` runs, without needing the package installed.
_ENTRY = "import sys\nfrom cvusim.cli import main\nsys.exit(main())"


def digest(data) -> str:
    if not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()


def child_env(*paths: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (SRC, *paths))
    return env


class Checks:
    """Attempted and failed operations of one run, with the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first: dict = {}

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def same_as_first(self, key, value) -> bool:
        """True when ``value`` equals the first value recorded under ``key``."""
        return self._first.setdefault(key, value) == value


# --- cli-cold ---------------------------------------------------------------

def cli_argvs() -> tuple[list[str], list[list[str]], list[str]]:
    """The `dse`, the six `simulate` and the `compare` command lines."""
    compare = ["compare"]
    for net in NETS:
        compare += ["--network", net]
    for config in COMPARE_CONFIGS:
        compare += ["--config", config]
    simulate = [
        ["simulate", "--network", net, "--style", style, "--memory", memory]
        for net, style, memory in SIMULATE_CONFIGS
    ]
    return ["dse"], simulate, compare


def run_cli(argv: list[str], checks: Checks, modelled: dict) -> float:
    """Run one cold `cvusim` process; return its wall time in seconds."""
    label = " ".join(argv)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _ENTRY, *argv],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        checks.record(False, f"cvusim {label}: timed out")
        return time.perf_counter() - start
    seconds = time.perf_counter() - start
    ok = proc.returncode == 0 and checks.same_as_first(("cli", label), proc.stdout)
    if checks.record(ok, f"cvusim {label}: exit {proc.returncode} or report differs from the first run: "
                         f"{proc.stderr[-300:]!r}"):
        modelled.setdefault("cli_report_sha256", {})[label] = digest(proc.stdout)
        if argv[0] == "compare":
            modelled["cli_compare_geomean"] = _report_geomeans(proc.stdout.decode())
    return seconds


def _report_geomeans(report: str) -> dict:
    rows = [line.split(",") for line in report.splitlines() if line.startswith("geomean,")]
    return {row[1]: {"speedup": float(row[4]), "energy_reduction": float(row[5])} for row in rows}


# --- model-sweep ------------------------------------------------------------

class ModelSweep:
    """Warm sweep of every bundled net x style x memory x bitwidth mode."""

    def __init__(self):
        self.params = cost.default_params()
        bundled = workloads.bundled_networks()
        self.nets = [workloads.load_network(bundled[name]) for name in NETS]
        self.modes = {"file": self.nets, "homogeneous": [workloads.to_homogeneous(n) for n in self.nets]}
        self.arrays = {style: arch.build_array(style, self.params) for style in arch.Style}
        self.compare_configs = []
        for config in COMPARE_CONFIGS:
            style, memory = config.split(":")
            self.compare_configs.append((self.arrays[STYLES[style]], _MEMORY[memory]))

    def iteration(self) -> tuple[float, int, tuple]:
        """One sweep, the 4-config compare and the default DSE grid.

        Returns the host seconds, the layer runs simulated (those inside
        ``compare`` included) and the outputs.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # conventional-style clamp notes
            start = time.perf_counter()
            reports = {
                mode: [
                    arch.simulate_network(net, self.arrays[style], memory, self.params)
                    for net in nets
                    for style in arch.Style
                    for memory in (arch.DDR4, arch.HBM2)
                ]
                for mode, nets in self.modes.items()
            }
            comparisons = [arch.compare(net, self.compare_configs, self.params) for net in self.nets]
            points = cost.dse_sweep(DSE_SLICES, DSE_LANES, self.params)
            seconds = time.perf_counter() - start
        layer_runs = sum(len(r.layers) for rs in reports.values() for r in rs)
        layer_runs += len(self.compare_configs) * sum(len(net.layers) for net in self.nets)
        return seconds, layer_runs, (reports, comparisons, points)

    def calibrate(self) -> tuple[float, object]:
        start = time.perf_counter()
        params = cost.calibrate(cost.DEFAULT_ANCHORS)
        return time.perf_counter() - start, params


def sweep_modelled(outputs: tuple) -> dict:
    """The modelled (simulated, not host) figures of one sweep iteration."""
    reports, comparisons, _ = outputs
    out = {"geomean": {}, "memory_bound_layer_runs": {}, "total_below_memory_layer_runs": {}, "layer_runs": {}}
    for i, config in enumerate(COMPARE_CONFIGS):
        entries = [entry[i] for entry in comparisons]
        out["geomean"][config] = {
            "speedup": math.exp(statistics.fmean(math.log(e.speedup) for e in entries)),
            "energy_reduction": math.exp(statistics.fmean(math.log(e.energy_reduction) for e in entries)),
        }
    for mode, rs in reports.items():
        layers = [layer for r in rs for layer in r.layers]
        out["layer_runs"][mode] = len(layers)
        out["memory_bound_layer_runs"][mode] = sum(layer.bound == "memory" for layer in layers)
        out["total_below_memory_layer_runs"][mode] = sum(
            layer.total_cycles < layer.memory_cycles for layer in layers
        )
    return out


# --- functional-exact -------------------------------------------------------

def tile_depths() -> dict[tuple[int, int], int]:
    """Reduction depth k of each pair's tile: the lower-median k of the
    bundled layers at that pair (of all bundled layers for 6x3)."""
    bundled = workloads.bundled_networks()
    by_pair: dict[tuple[int, int], list[int]] = {}
    every: list[int] = []
    for name in NETS:
        for layer in workloads.load_network(bundled[name]).layers:
            k = arch.lower_layer(layer).k
            by_pair.setdefault((layer.bw_x, layer.bw_w), []).append(k)
            every.append(k)
    return {pair: statistics.median_low(by_pair.get(pair, every)) for pair in PAIRS}


def oracle(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The integer reference: int64 ``W @ X``."""
    return w.astype(np.int64) @ x.astype(np.int64)


class Tile:
    def __init__(self, pair: tuple[int, int], k: int, rng: np.random.Generator):
        bw_x, bw_w = pair
        self.pair, self.k = pair, k
        self.macs = TILE_M * k * TILE_N
        # Activations unsigned, weights signed, as after a ReLU.
        self.w = rng.integers(-(1 << (bw_w - 1)), 1 << (bw_w - 1), size=(TILE_M, k))
        self.x = rng.integers(0, 1 << bw_x, size=(k, TILE_N))
        self.weights = [QuantizedVector(tuple(row.tolist()), bw_w, True) for row in self.w]
        self.inputs = [QuantizedVector(tuple(col.tolist()), bw_x, False) for col in self.x.T]


class FunctionalExact:
    """Seeded GEMM tiles through ``functional_gemm``, checked exactly."""

    def __init__(self, seed: int):
        params = cost.default_params()
        self.arrays = {style: arch.build_array(style, params) for style in arch.Style}
        depths = tile_depths()
        # Rounds of tiles, a tile for every pair, shared by every style.
        self.rounds = [
            [Tile(pair, depths[pair], np.random.default_rng([seed, r, i])) for i, pair in enumerate(PAIRS)]
            for r in range(ROUNDS)
        ]

    def run(self, tile: Tile, style: arch.Style, checks: Checks) -> tuple[float, bool]:
        """Seconds spent inside ``functional_gemm``, and whether the output
        equals the oracle's."""
        label = f"functional {style.value} {tile.pair[0]}x{tile.pair[1]} k={tile.k}"
        start = time.perf_counter()
        try:
            out = arch.functional_gemm(tile.weights, tile.inputs, self.arrays[style])
        except Exception as exc:  # a failing operation is counted, not fatal
            checks.record(False, f"{label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, False
        seconds = time.perf_counter() - start
        expected = oracle(tile.w, tile.x)
        ok = np.array_equal(np.array(out, dtype=np.int64).reshape(expected.shape), expected)
        return seconds, checks.record(ok, f"{label}: output differs from int64 W @ X")


def setup(workload: str, seed: int):
    """Everything a workload does before its first timed operation."""
    if workload == "model-sweep":
        return ModelSweep()
    if workload == "functional-exact":
        return FunctionalExact(seed)
    raise ValueError(f"no in-process setup for {workload!r}")
