"""Golden outputs: every modelled layer figure and the CLI reports, compared exactly.

``golden/model.csv`` holds one row per layer for every bundled network,
style, memory and bitwidth mode, with every ``LayerReport`` field and floats
written by ``repr``.  The ``.txt`` files hold the exact stdout of ``dse``,
of ``compare`` over all six networks and four configs in each bitwidth mode,
and of ``simulate`` for every network, style, memory and mode.
``sensitivity.txt`` holds the file-mode ``compare`` geomeans at several SRAM
budgets, so a change in how the model moves weights shows in every diff.
``design-points.txt`` holds the paper's four design points: vector against
conventional on the same memory, on DDR4 and on HBM2, with the file's and with
homogeneous 8-bit widths.  Per net it splits each speedup into three factors,
speedup = compute_ratio * conventional_total_per_compute / vector_total_per_compute,
where compute_ratio is conventional compute cycles over vector compute cycles.
``calibration.txt`` holds the relative error of every ``DEFAULT_ANCHORS``
metric after ``calibrate`` fits all four anchors, and of each anchor's
metrics when the other three are fitted (leave one out).  The fit adds
Python floats in a fixed order, so it gives the same bits on every host and
supported Python; the file prints 4 significant digits to stay readable.

A change that moves the model on purpose regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and explains the diff.  The
module needs no pytest, so any supported Python can regenerate them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import warnings
from pathlib import Path

from cvusim import cli
from cvusim.arch import DDR4, HBM2, Style, build_array, simulate_network
from cvusim.cost import DEFAULT_ANCHORS, calibrate, default_params, per_mac_normalized
from cvusim.workloads import bundled_networks, load_network, to_homogeneous

GOLDEN = Path(__file__).resolve().parent / "golden"
NETS = tuple(sorted(bundled_networks()))
MODES = ("file", "homogeneous")
STYLES = {"conventional": Style.CONVENTIONAL, "scalar": Style.SCALAR, "vector": Style.VECTOR}
MEMORIES = {"ddr4": DDR4, "hbm2": HBM2}
COMPARE_CONFIGS = ("conventional:ddr4", "scalar:ddr4", "vector:ddr4", "vector:hbm2")
SENSITIVITY_SRAM_MIB = (4, 6, 8, 10)
LAYER_FIELDS = (
    "name", "kind", "m", "k", "n", "repeats", "bw_x", "bw_w", "macs",
    "compute_cycles", "memory_cycles", "total_cycles", "utilization", "bound",
    "energy_compute_pj", "energy_sram_pj", "energy_offchip_pj", "energy_total_pj", "offchip_bytes",
)


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def model_table() -> str:
    params = default_params()
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("network", "bitwidths", "style", "memory", *LAYER_FIELDS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the sweep
        arrays = {style: build_array(STYLES[style], params) for style in STYLES}
        for net_name in NETS:
            for mode in MODES:
                net = load_network(bundled_networks()[net_name])
                if mode == "homogeneous":
                    net = to_homogeneous(net)
                for style in STYLES:
                    for memory in MEMORIES.values():
                        report = simulate_network(net, arrays[style], memory, params)
                        for layer in report.layers:
                            cells = (_cell(getattr(layer, f)) for f in LAYER_FIELDS)
                            writer.writerow((net_name, mode, style, memory.name, *cells))
    return out.getvalue()


def cli_stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the run
        code = cli.main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def compare_report(mode: str, *options: str, configs: tuple[str, ...] = COMPARE_CONFIGS) -> str:
    argv = ["compare", "--bitwidths", mode, *options]
    for net in NETS:
        argv += ["--network", net]
    for config in configs:
        argv += ["--config", config]
    return cli_stdout(argv)


def _compare_rows(report: str) -> list[list[str]]:
    """The CSV rows of a ``compare`` report: network, config, runtime, energy, speedup, energy reduction."""
    return [line.split(",") for line in report.splitlines()[4:]]


def simulate_reports() -> str:
    return "".join(
        cli_stdout(["simulate", "--network", net, "--style", style, "--memory", memory, "--bitwidths", mode])
        for net in NETS
        for mode in MODES
        for style in STYLES
        for memory in MEMORIES
    )


def sensitivity_table() -> str:
    lines = ["sram_bytes,config,speedup,energy_reduction"]
    for mib in SENSITIVITY_SRAM_MIB:
        report = compare_report("file", "--sram-bytes", str(mib << 20))
        for network, config, _, _, speedup, energy in _compare_rows(report):
            if network == "geomean":
                lines.append(f"{mib << 20},{config},{speedup},{energy}")
    return "\n".join(lines) + "\n"


def design_points_table() -> str:
    lines = [
        "bitwidths,memory,network,speedup,energy_reduction,"
        "compute_ratio,conventional_total_per_compute,vector_total_per_compute"
    ]
    params = default_params()
    conventional, vector = build_array(Style.CONVENTIONAL, params), build_array(Style.VECTOR, params)
    for mode in MODES:
        for memory in MEMORIES:
            report = compare_report(mode, configs=(f"conventional:{memory}", f"vector:{memory}"))
            for network, config, _, _, speedup, energy in _compare_rows(report):
                if config != f"vector:{memory}":
                    continue
                factors = ("-", "-", "-")
                if network != "geomean":
                    net = load_network(bundled_networks()[network])
                    net = to_homogeneous(net) if mode == "homogeneous" else net
                    base = simulate_network(net, conventional, MEMORIES[memory], params)
                    ours = simulate_network(net, vector, MEMORIES[memory], params)
                    factors = (
                        f"{base.compute_cycles / ours.compute_cycles:.10g}",
                        f"{base.total_cycles / base.compute_cycles:.10g}",
                        f"{ours.total_cycles / ours.compute_cycles:.10g}",
                    )
                lines.append(",".join((mode, memory, network, speedup, energy, *factors)))
    return "\n".join(lines) + "\n"


def calibration_table() -> str:
    lines = ["fit,anchor,metric,relative_error"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any warning fails the fits
        _, residuals = calibrate(DEFAULT_ANCHORS)
        for label, error in residuals.items():
            anchor, metric = label.rsplit("_", 1)
            lines.append(f"all,{anchor},{metric},{error:.4g}")
        for i, held_out in enumerate(DEFAULT_ANCHORS):
            params, _ = calibrate(DEFAULT_ANCHORS[:i] + DEFAULT_ANCHORS[i + 1:])
            power, area = per_mac_normalized(held_out.cfg, params)
            anchor = "sw{0}x{0}_L{1}".format(held_out.cfg.slice_width, held_out.cfg.lanes)
            lines.append(f"held-out,{anchor},power,{abs(power / held_out.power_norm - 1.0):.4g}")
            lines.append(f"held-out,{anchor},area,{abs(area / held_out.area_norm - 1.0):.4g}")
    return "\n".join(lines) + "\n"


FILES = {
    "model.csv": model_table,
    "dse.txt": lambda: cli_stdout(["dse"]),
    "compare-file.txt": lambda: compare_report("file"),
    "compare-homogeneous.txt": lambda: compare_report("homogeneous"),
    "simulate.txt": simulate_reports,
    "sensitivity.txt": sensitivity_table,
    "calibration.txt": calibration_table,
    "design-points.txt": design_points_table,
}


def _check(name: str) -> None:
    produced = FILES[name]().splitlines()
    expected = (GOLDEN / name).read_text().splitlines()
    for i, (got, want) in enumerate(zip(produced, expected)):
        assert got == want, f"{name} line {i + 1}:\n  golden:   {want}\n  produced: {got}"
    assert len(produced) == len(expected), f"{name}: {len(produced)} lines, golden has {len(expected)}"


def test_model_table():
    _check("model.csv")


def test_dse_report():
    _check("dse.txt")


def test_compare_reports():
    _check("compare-file.txt")
    _check("compare-homogeneous.txt")


def test_simulate_reports():
    _check("simulate.txt")


def test_sensitivity_table():
    _check("sensitivity.txt")


def test_calibration_table():
    _check("calibration.txt")


def test_design_points_table():
    _check("design-points.txt")


def _model_rows() -> list[dict[str, str]]:
    with (GOLDEN / "model.csv").open(newline="") as f:
        return list(csv.DictReader(f))


def test_model_rows_hold_the_invariants():
    # total >= memory is left out: the input stream and the next load are taken as a
    # per-phase max on one channel, so the 12 fc6 rows on DDR4 break it
    rows = _model_rows()
    assert len(rows) == 672
    for row in rows:
        compute, memory, total = (int(row[f]) for f in ("compute_cycles", "memory_cycles", "total_cycles"))
        assert 0 < float(row["utilization"]) <= 1, row
        assert total >= compute, row
        assert int(row["macs"]) == int(row["m"]) * int(row["k"]) * int(row["n"]) * int(row["repeats"]), row
        assert row["bound"] == ("memory" if memory > compute else "compute"), row


def test_narrower_bitwidths_never_cost_more():
    # every layer at its file bitwidths against the same layer at 8x8, same
    # network, style and memory: never more cycles, energy or off-chip bytes
    rows = _model_rows()
    by_mode = {mode: [row for row in rows if row["bitwidths"] == mode] for mode in MODES}
    pairs = list(zip(by_mode["file"], by_mode["homogeneous"]))
    assert len(pairs) == 336 and len(rows) == 2 * len(pairs)
    key = ("network", "style", "memory", "name", "m", "k", "n", "repeats")
    for narrow, wide in pairs:
        assert [narrow[f] for f in key] == [wide[f] for f in key]
        for field, number in (("total_cycles", int), ("energy_total_pj", float), ("offchip_bytes", int)):
            assert number(narrow[field]) <= number(wide[field]), (field, narrow)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in FILES.items():
        (GOLDEN / name).write_text(produce())
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
