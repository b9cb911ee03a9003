"""Command-line entry point: dse, simulate, and compare experiments.

Every command writes a CSV report whose header embeds the run manifest
(resolved parameters, input digests, tool version, seed).  Identical
manifests produce byte-identical output; nothing in a report depends on
time, locale, or environment.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.

A command loads only the modules it runs: ``dse`` loads ``cost``, ``plan`` and ``errors``;
``simulate`` and ``compare`` load ``arch`` and ``workloads`` too, on their first call, which binds
``_FROM_ARCH`` and ``_FROM_WORKLOADS`` here as module attributes.  The commands look those up when
called, so a caller may rebind ``cli.build_array`` and the rest to a wrapper; a binding already here
is kept.  No command loads ``bitslice``, ``cvu``, ``fit``, numpy or OpenSSL: digests use CPython's
builtin SHA-256.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

try:  # CPython's builtin SHA-256, in _sha2 from 3.12 on, gives the same digests and loads no OpenSSL
    sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256

from . import __version__
from .cost import default_params, dse_sweep, load_params
from .errors import ConfigError, NetworkFormatError, RangeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_STYLES = {"conventional": "CONVENTIONAL", "scalar": "SCALAR", "vector": "VECTOR"}  # flag: Style member
_MEMORIES = ("ddr4", "hbm2")  # arch.DDR4, arch.HBM2
_FROM_ARCH = ("build_array", "compare", "simulate_network")
_FROM_WORKLOADS = ("bundled_networks", "load_network", "to_homogeneous")
# `simulate` columns: LayerReport attributes; the TOTAL row reads the SimReport's or "-"
_LAYER_COLUMNS = (
    "name", "kind", "m", "k", "n", "repeats", "bw_x", "bw_w", "macs",
    "compute_cycles", "memory_cycles", "total_cycles", "bound", "utilization",
    "energy_compute_pj", "energy_sram_pj", "energy_offchip_pj", "offchip_bytes",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def _load_model():
    """Import arch and workloads and bind ``_FROM_ARCH`` and ``_FROM_WORKLOADS``
    here, keeping any binding already here; returns arch."""
    from . import arch, workloads

    for module, names in ((arch, _FROM_ARCH), (workloads, _FROM_WORKLOADS)):
        for name in names:
            globals().setdefault(name, getattr(module, name))
    return arch


def __getattr__(name: str):  # cli.build_array and the rest resolve before the first command, too
    if name in _FROM_ARCH + _FROM_WORKLOADS:
        _load_model()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sizing(args, arch) -> tuple:
    """The budget and SRAM flags, or arch's defaults, which the parser cannot read."""
    budget = arch.DEFAULT_BUDGET_MW if args.budget is None else args.budget
    return budget, arch.DEFAULT_TOTAL_SRAM_BYTES if args.sram_bytes is None else args.sram_bytes


def _digest_file(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()[:16]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _emit(command: str, parameters: dict, input_digests: dict, header: list[str], rows: list[list], out: str | None) -> None:
    """Write the report: the run manifest, its digest, then the CSV."""
    manifest = json.dumps(
        {"command": command, "parameters": parameters, "input_digests": input_digests, "version": __version__, "seed": 0},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = sha256(manifest.encode()).hexdigest()[:16]
    lines = [f"# cvusim {command} report", f"# manifest: {manifest}", f"# manifest-digest: {digest}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"manifest-digest: {digest}", file=sys.stderr)


def _load_cost_params(args) -> tuple:
    if args.params:
        path = Path(args.params)
        if not path.is_file():
            raise FileNotFoundError(f"cost params file not found: {path}")
        return load_params(path), {"params": _digest_file(path)}
    return default_params(), {"params": "default"}


def _resolve_network(name_or_path: str, bundled: dict) -> tuple:
    if name_or_path in bundled:
        path = bundled[name_or_path]
    else:
        path = Path(name_or_path)
        if not path.is_file():
            raise FileNotFoundError(
                f"network {name_or_path!r} is neither a file nor a bundled benchmark "
                f"(bundled: {', '.join(sorted(bundled))})"
            )
    return load_network(path), path


def _memory_from_args(args, arch):
    given = [f for f, v in (("--bandwidth", args.bandwidth), ("--pj-per-bit", args.pj_per_bit)) if v is not None]
    if args.memory in _MEMORIES:
        if given:  # a named memory fixes both figures
            raise _UsageError(f"{given[0]} applies only to --memory custom, not --memory {args.memory}")
        return getattr(arch, args.memory.upper())
    if len(given) < 2:
        raise _UsageError("--memory custom requires --bandwidth and --pj-per-bit")
    if not 1 <= args.bandwidth * 1e9 < math.inf:  # MemorySpec's bound, in the flag's unit
        raise ConfigError(f"--bandwidth must be finite and at least 1e-9 GB/s, got {args.bandwidth!r} GB/s")
    return arch.MemorySpec("custom", args.bandwidth * 1e9, args.pj_per_bit)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:  # an empty sweep would write a header-only report
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


def cmd_dse(args) -> int:
    params, digests = _load_cost_params(args)
    points = dse_sweep(args.slices, args.lanes, params)
    header = [
        "slice_width", "L", "power_norm", "area_norm",
        "mult_power", "add_power", "shift_power", "register_power",
        "mult_area", "add_area", "shift_area", "register_area",
    ]
    rows = [[p.slice_width, p.lanes, p.breakdown.total_energy, p.breakdown.total_area, *p.breakdown] for p in points]
    parameters = {"slices": sorted(set(args.slices)), "lanes": sorted(set(args.lanes))}
    _emit("dse", parameters, digests, header, rows, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    arch = _load_model()
    params, digests = _load_cost_params(args)
    net, path = _resolve_network(args.network, bundled_networks())
    digests["network"] = _digest_file(path)
    if args.bitwidths == "homogeneous":
        net = to_homogeneous(net)
    mem = _memory_from_args(args, arch)
    budget, sram_bytes = _sizing(args, arch)
    acc = build_array(arch.Style[_STYLES[args.style]], params, budget_mw=budget, total_sram_bytes=sram_bytes)
    report = simulate_network(net, acc, mem, params)

    parameters = {
        "network": net.name,
        "bitwidths": args.bitwidths,
        "style": args.style,
        "memory": mem.name,
        "bandwidth_gbps": mem.bandwidth_bytes_per_s / 1e9,
        "pj_per_bit": mem.access_energy_pj_per_bit,
        "budget_mw": budget,
        "sram_bytes": sram_bytes,
        "array": f"{acc.rows}x{acc.cols}",
    }
    rows = [[getattr(layer, c) for c in _LAYER_COLUMNS] for layer in report.layers]
    rows.append(["TOTAL", *(getattr(report, c, "-") for c in _LAYER_COLUMNS[1:])])
    _emit("simulate", parameters, digests, ["layer", *_LAYER_COLUMNS[1:]], rows, args.out)

    compute_bound = sum(layer.bound == "compute" for layer in report.layers)
    at_8_bit = sum((s.bw_x, s.bw_w) != (r.bw_x, r.bw_w) for s, r in zip(net.layers, report.layers))
    summary = [
        f"network {net.name}: {args.style} + {mem.name}, array {acc.rows}x{acc.cols} "
        f"({acc.mac_capacity} MAC/cycle)",
        f"  total cycles {report.total_cycles} "
        f"(compute {report.compute_cycles}, memory {report.memory_cycles}), "
        f"runtime {report.total_cycles / acc.frequency_hz:.6g} s",
        f"  energy {report.energy_total_pj:.6g} pJ "
        f"(compute {report.energy_compute_pj:.6g}, sram {report.energy_sram_pj:.6g}, "
        f"off-chip {report.energy_offchip_pj:.6g})",
        f"  layers: {compute_bound} compute-bound, {len(report.layers) - compute_bound} memory-bound",
    ]
    if at_8_bit:
        summary.append(f"  {at_8_bit} of {len(report.layers)} layers run at 8 bit instead of their file bitwidths")
    print("\n".join(summary), file=sys.stderr)
    return EXIT_OK


def _parse_config_group(text: str, arch) -> tuple:
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in _STYLES or parts[1] not in _MEMORIES:
        raise _UsageError(
            f"--config must look like 'vector:ddr4' (styles: {', '.join(_STYLES)}; memories: ddr4, hbm2), got {text!r}"
        )
    return arch.Style[_STYLES[parts[0]]], getattr(arch, parts[1].upper())


def cmd_compare(args) -> int:
    if len(args.config) < 2:
        raise _UsageError("compare needs at least 2 --config groups")
    arch = _load_model()
    params, digests = _load_cost_params(args)
    groups = [_parse_config_group(c, arch) for c in args.config]

    nets, bundled = [], bundled_networks()
    for name in args.network:
        net, path = _resolve_network(name, bundled)
        digest = _digest_file(path)
        if digests.setdefault(f"network:{net.name}", digest) != digest:  # the manifest keys digests by name
            raise ConfigError(f"two different network files are both named {net.name!r}")
        if any(seen.name == net.name for seen in nets):  # a repeat would weigh the network twice in the geomean
            raise _UsageError(f"--network names network {net.name!r} more than once")
        if args.bitwidths == "homogeneous":
            net = to_homogeneous(net)
        nets.append(net)

    budget, sram_bytes = _sizing(args, arch)
    configs = [(build_array(style, params, budget_mw=budget, total_sram_bytes=sram_bytes), mem) for style, mem in groups]

    parameters = {
        "networks": [n.name for n in nets],
        "bitwidths": args.bitwidths,
        "configs": list(args.config),
        "budget_mw": budget,
        "sram_bytes": sram_bytes,
    }
    header = ["network", "config", "runtime_s", "energy_pj", "speedup", "energy_reduction"]
    rows = []
    ratio_log = [[0.0, 0.0] for _ in args.config]  # by position: a repeated --config keeps its own row
    for net in nets:
        entries = compare(net, configs, params)
        for raw_label, entry, logs in zip(args.config, entries, ratio_log):
            rows.append([net.name, raw_label, entry.runtime_s, entry.energy_pj, entry.speedup, entry.energy_reduction])
            logs[0] += math.log(entry.speedup)
            logs[1] += math.log(entry.energy_reduction)
    for raw_label, (speedup_log, energy_log) in zip(args.config, ratio_log):  # geometric mean across networks
        s = math.exp(speedup_log / len(nets))
        e = math.exp(energy_log / len(nets))
        rows.append(["geomean", raw_label, "-", "-", s, e])
    _emit("compare", parameters, digests, header, rows, args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="cvusim", description=__doc__.rsplit("\n\n", 1)[0])  # the last paragraph is for callers
    parser.add_argument("--version", action="version", version=f"cvusim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    common.add_argument("--params", default=None, help="cost params JSON (default: shipped calibration)")
    common.add_argument("--out", default=None, help="write CSV here instead of stdout")
    shared = argparse.ArgumentParser(add_help=False, parents=[common])  # and the ones simulate and compare share
    shared.add_argument("--bitwidths", choices=["file", "homogeneous"], default="file")
    shared.add_argument("--budget", type=float, default=None, help="core power budget, mW")
    shared.add_argument("--sram-bytes", type=int, default=None, help="total weight SRAM")

    dse = sub.add_parser("dse", help="design-space sweep over slice widths and lane counts", parents=[common])
    dse.add_argument("--slices", type=_int_list, default=[1, 2, 4])
    dse.add_argument("--lanes", type=_int_list, default=[1, 2, 4, 8, 16])
    dse.set_defaults(func=cmd_dse)

    sim = sub.add_parser("simulate", help="simulate one network on one platform", parents=[shared])
    sim.add_argument("--network", required=True, help="network file or bundled benchmark name")
    sim.add_argument("--style", choices=sorted(_STYLES), required=True, help="conventional computes at 8 bit")
    sim.add_argument("--memory", choices=[*_MEMORIES, "custom"], default="ddr4")
    sim.add_argument("--bandwidth", type=float, default=None, help="custom memory bandwidth, GB/s")
    sim.add_argument("--pj-per-bit", type=float, default=None, help="custom memory access energy")
    sim.set_defaults(func=cmd_simulate)

    cmp_ = sub.add_parser("compare", help="compare platforms over networks, normalized to the first", parents=[shared])
    cmp_.add_argument("--network", action="append", required=True, help="repeatable; file or bundled name")
    cmp_.add_argument("--config", action="append", required=True, help="repeatable; style:memory, e.g. vector:hbm2")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError, NetworkFormatError, ConfigError, RangeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
