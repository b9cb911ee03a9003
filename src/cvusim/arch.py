"""Cycle-approximate, energy-annotated simulation of a 2D array of CVUs.

The array is weight stationary: every unit pins a tile of weights in its
private scratchpad, input vectors are broadcast along rows, and partial sums
flow down columns into 64-bit accumulators.  A layer is lowered to a GEMM
and executed in "generations": the output channels whose weight rows fit in
the combined scratchpads at once.  Within a generation, input streaming
overlaps compute; across generations, the next weight tile loads while the
current one computes (double buffering).  The first load and the last
generation's compute have nothing to overlap with and are exposed.

Cycle accounting:

* ``compute_cycles`` = sum over generations of ceil(MACs / peak MACs/cycle)
* ``memory_cycles``  = off-chip bytes moved * frequency / bandwidth
* ``total_cycles``   = per-phase max of compute and memory under the
  double-buffering rule above

Inputs are assumed to traverse the array combinationally (no pipeline fill
cycles), which keeps compute_cycles exactly equal to the analytical count.

Three styles share the model: ``conventional`` units are fixed 8-bit MACs
(heterogeneous bitwidths are clamped to 8 with a warning), a
``scalar-composable`` unit is a one-lane CVU, and ``vector-composable``
units are full CVUs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .bitslice import QuantizedVector, SliceConfig
from .cost import CostParams, iso_power_array_size, per_mac_normalized
from .cvu import CompositionPlan, CvuConfig, execute_cycle, macs_per_cycle, plan_composition
from .errors import AccumulatorOverflowError, ConfigError, ShapeError
from .workloads import LayerKind, LayerSpec, NetworkSpec

# Completed outputs are written back requantized to 8 bits.
OUTPUT_BITS = 8
DEFAULT_TOTAL_SRAM_BYTES = 6 * 1024 * 1024
_INT64_LO, _INT64_HI = -(1 << 63), (1 << 63) - 1


class Style(str, Enum):
    CONVENTIONAL = "conventional"
    SCALAR = "scalar-composable"
    VECTOR = "vector-composable"


@dataclass(frozen=True)
class MemorySpec:
    """Off-chip memory: sustained bandwidth and energy per bit moved."""

    name: str
    bandwidth_bytes_per_s: float
    access_energy_pj_per_bit: float

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0 or self.access_energy_pj_per_bit < 0:
            raise ConfigError(f"invalid memory spec {self}")


DDR4 = MemorySpec("ddr4", 16e9, 15.0)
HBM2 = MemorySpec("hbm2", 256e9, 1.2)


@dataclass(frozen=True)
class AcceleratorConfig:
    rows: int
    cols: int
    cvu: CvuConfig
    weight_scratchpad_bytes: int
    style: Style
    input_buffer_bytes: int = 65536
    output_buffer_bytes: int = 65536
    frequency_hz: float = 500e6
    core_power_budget_mw: float = 250.0
    sram_energy_pj_per_byte: float = 0.8

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array geometry must be positive, got {self.rows}x{self.cols}")
        if self.weight_scratchpad_bytes < 1:
            raise ConfigError("weight scratchpad must be at least one byte")
        if self.input_buffer_bytes < 1 or self.output_buffer_bytes < 1:
            raise ConfigError("staging buffers must be positive")
        if self.frequency_hz <= 0 or self.core_power_budget_mw <= 0:
            raise ConfigError("frequency and power budget must be positive")
        if self.style is Style.SCALAR and self.cvu.lanes != 1:
            raise ConfigError(f"scalar-composable style requires 1 lane, got {self.cvu.lanes}")

    @property
    def unit_count(self) -> int:
        return self.rows * self.cols

    @property
    def mac_capacity(self) -> int:
        """8-bit MAC throughput of the whole array, per cycle."""
        if self.style is Style.CONVENTIONAL:
            return self.unit_count
        return self.unit_count * self.cvu.lanes

    @property
    def total_scratchpad_bytes(self) -> int:
        return self.unit_count * self.weight_scratchpad_bytes


@dataclass(frozen=True)
class GemmDims:
    """Lowered layer: output rows m, reduction depth k, output columns n."""

    m: int
    k: int
    n: int
    weight_reuse: int
    input_reuse: int


def lower_layer(layer: LayerSpec) -> GemmDims:
    """Lower a layer to GEMM dimensions plus data-reuse factors.

    Convolutions use im2col: m = output channels, k = C*R*S, n = output
    pixels.  Reuse counts how many MACs consume each weight / input element.
    """
    if layer.kind is LayerKind.CONV:
        m = layer.out_channels
        k = layer.in_channels * layer.kernel_h * layer.kernel_w
        n = layer.out_height * layer.out_width
    else:
        m, k, n = layer.m, layer.k, layer.n
    macs = m * k * n
    return GemmDims(
        m=m,
        k=k,
        n=n,
        weight_reuse=n,
        input_reuse=max(1, macs // max(1, layer.input_elements)),
    )


@dataclass(frozen=True)
class LayerReport:
    name: str
    kind: str
    m: int
    k: int
    n: int
    repeats: int
    bw_x: int
    bw_w: int
    macs: int
    compute_cycles: int
    memory_cycles: int
    total_cycles: int
    utilization: float
    bound: str
    energy_compute_pj: float
    energy_sram_pj: float
    energy_offchip_pj: float
    offchip_bytes: int

    @property
    def energy_total_pj(self) -> float:
        return self.energy_compute_pj + self.energy_sram_pj + self.energy_offchip_pj


@dataclass(frozen=True)
class SimReport:
    network: str
    style: str
    memory: str
    layers: tuple[LayerReport, ...]
    notes: tuple[str, ...] = ()

    @property
    def compute_cycles(self) -> int:
        return sum(l.compute_cycles for l in self.layers)

    @property
    def memory_cycles(self) -> int:
        return sum(l.memory_cycles for l in self.layers)

    @property
    def total_cycles(self) -> int:
        return sum(l.total_cycles for l in self.layers)

    @property
    def macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def energy_compute_pj(self) -> float:
        return sum(l.energy_compute_pj for l in self.layers)

    @property
    def energy_sram_pj(self) -> float:
        return sum(l.energy_sram_pj for l in self.layers)

    @property
    def energy_offchip_pj(self) -> float:
        return sum(l.energy_offchip_pj for l in self.layers)

    @property
    def energy_total_pj(self) -> float:
        return self.energy_compute_pj + self.energy_sram_pj + self.energy_offchip_pj

    def runtime_s(self, frequency_hz: float) -> float:
        return self.total_cycles / frequency_hz


def build_array(
    style: Style,
    params: CostParams,
    *,
    lanes: int = 16,
    slice_cfg: SliceConfig = SliceConfig(),
    budget_mw: float = 250.0,
    total_sram_bytes: int = DEFAULT_TOTAL_SRAM_BYTES,
    frequency_hz: float = 500e6,
) -> AcceleratorConfig:
    """Iso-power array sizing: fill the core budget with units of one style.

    All styles share the same total weight-SRAM budget, split evenly across
    their units, so performance differences come from the compute style.
    """
    if style is Style.CONVENTIONAL:
        cvu = CvuConfig(lanes=1, slice=slice_cfg)
        unit_mw = params.conventional_mac_mw
    elif style is Style.SCALAR:
        cvu = CvuConfig(lanes=1, slice=slice_cfg)
        unit_mw = per_mac_normalized(cvu, params)[0] * params.conventional_mac_mw
    else:
        cvu = CvuConfig(lanes=lanes, slice=slice_cfg)
        power_norm = per_mac_normalized(cvu, params)[0]
        unit_mw = lanes * power_norm * params.conventional_mac_mw
    units = iso_power_array_size(budget_mw, unit_mw)
    if units < 1:
        raise ConfigError(
            f"power budget {budget_mw} mW fits no {style.value} unit ({unit_mw:.3f} mW each)"
        )
    rows = math.isqrt(units)
    cols = units // rows
    return AcceleratorConfig(
        rows=rows,
        cols=cols,
        cvu=cvu,
        weight_scratchpad_bytes=total_sram_bytes // (rows * cols),
        style=style,
        frequency_hz=frequency_hz,
        core_power_budget_mw=budget_mw,
    )


def _effective_bitwidths(layer: LayerSpec, style: Style) -> tuple[int, int, str | None]:
    if style is Style.CONVENTIONAL and (layer.bw_x, layer.bw_w) != (8, 8):
        note = (
            f"layer {layer.name or layer.kind.value}: conventional style ignores "
            f"({layer.bw_x},{layer.bw_w})-bit quantization; computing at 8 bit"
        )
        return 8, 8, note
    return layer.bw_x, layer.bw_w, None


def _unit_peak(acc: AcceleratorConfig, bw_x: int, bw_w: int) -> tuple[int, CompositionPlan | None]:
    if acc.style is Style.CONVENTIONAL:
        return 1, None
    plan = plan_composition(bw_x, bw_w, acc.cvu)
    return macs_per_cycle(plan, acc.cvu), plan


def _mem_cycles(nbytes: int, acc: AcceleratorConfig, mem: MemorySpec) -> int:
    if nbytes == 0:
        return 0
    return max(1, math.ceil(nbytes * acc.frequency_hz / mem.bandwidth_bytes_per_s))


def _ceil_bits_to_bytes(elements: int, bits: int) -> int:
    return -(-elements * bits // 8)


@dataclass(frozen=True)
class _Phase:
    macs: int
    compute_cycles: int
    weight_bytes: int
    stream_bytes: int


def _layer_phases(
    layer: LayerSpec,
    acc: AcceleratorConfig,
    peak: int,
    bw_x: int,
    bw_w: int,
    weights_resident: bool,
) -> list[_Phase]:
    dims = lower_layer(layer)
    spad_bits = acc.weight_scratchpad_bytes * 8

    # Every unit must hold at least one weight vector of the plan's width.
    per_cycle_elems = peak // acc.unit_count if acc.style is not Style.CONVENTIONAL else 1
    if per_cycle_elems * bw_w > spad_bits:
        raise ConfigError(
            f"layer {layer.name or layer.kind.value}: one {per_cycle_elems}-element weight vector "
            f"at {bw_w} bit does not fit the {acc.weight_scratchpad_bytes}-byte scratchpad"
        )

    spad_total_elems = acc.total_scratchpad_bytes * 8 // bw_w
    m_res = spad_total_elems // dims.k
    if m_res < 1:
        raise ConfigError(
            f"layer {layer.name or layer.kind.value}: one weight row (k={dims.k}, {bw_w} bit) "
            f"exceeds the combined scratchpad capacity of {acc.total_scratchpad_bytes} bytes"
        )

    input_bytes = _ceil_bits_to_bytes(dims.k * dims.n, bw_x)
    phases = []
    m_done = 0
    while m_done < dims.m:
        m_chunk = min(m_res, dims.m - m_done)
        macs = m_chunk * dims.k * dims.n
        phases.append(
            _Phase(
                macs=macs,
                compute_cycles=math.ceil(macs / peak),
                weight_bytes=0 if weights_resident else _ceil_bits_to_bytes(m_chunk * dims.k, bw_w),
                stream_bytes=input_bytes + _ceil_bits_to_bytes(m_chunk * dims.n, OUTPUT_BITS),
            )
        )
        m_done += m_chunk
    return phases


def _conventional_mac_energy_pj(acc: AcceleratorConfig, params: CostParams) -> float:
    # mW -> pJ per cycle: P[mW] * 1e9 / f[Hz]
    return params.conventional_mac_mw * 1e9 / acc.frequency_hz


def _simulate_pass(
    layer: LayerSpec,
    acc: AcceleratorConfig,
    mem: MemorySpec,
    params: CostParams,
    peak: int,
    bw_x: int,
    bw_w: int,
    weights_resident: bool,
) -> dict:
    """One invocation of a layer (one timestep for recurrent layers)."""
    phases = _layer_phases(layer, acc, peak, bw_x, bw_w, weights_resident)

    # Double buffering: tile i+1 loads while tile i computes and streams.
    # The first load and the last compute are exposed.
    total = _mem_cycles(phases[0].weight_bytes, acc, mem)
    for i, phase in enumerate(phases):
        next_load = _mem_cycles(phases[i + 1].weight_bytes, acc, mem) if i + 1 < len(phases) else 0
        stream = _mem_cycles(phase.stream_bytes, acc, mem)
        total += max(phase.compute_cycles, stream, next_load)

    macs = sum(p.macs for p in phases)
    weight_fill_bytes = sum(p.weight_bytes for p in phases)
    stream_bytes = sum(p.stream_bytes for p in phases)
    offchip_bytes = weight_fill_bytes + stream_bytes

    if acc.style is Style.CONVENTIONAL:
        energy_per_mac = _conventional_mac_energy_pj(acc, params)
    else:
        unit_macs = peak // acc.unit_count
        cvu_cycle_pj = (
            acc.cvu.lanes
            * per_mac_normalized(acc.cvu, params)[0]
            * _conventional_mac_energy_pj(acc, params)
        )
        energy_per_mac = cvu_cycle_pj / unit_macs
    operand_bytes = _ceil_bits_to_bytes(macs, bw_x) + _ceil_bits_to_bytes(macs, bw_w)
    sram_bytes = weight_fill_bytes + stream_bytes + operand_bytes

    return {
        "macs": macs,
        "compute_cycles": sum(p.compute_cycles for p in phases),
        "memory_cycles": _mem_cycles(offchip_bytes, acc, mem),
        "total_cycles": total,
        "offchip_bytes": offchip_bytes,
        "energy_compute_pj": macs * energy_per_mac,
        "energy_sram_pj": sram_bytes * acc.sram_energy_pj_per_byte,
        "energy_offchip_pj": offchip_bytes * 8 * mem.access_energy_pj_per_bit,
    }


def _check_staging(layer: LayerSpec, acc: AcceleratorConfig, peak: int, bw_x: int) -> None:
    # Double-buffered staging of one cycle's input broadcast and one column
    # of 64-bit output partials.
    input_need = 2 * _ceil_bits_to_bytes(max(1, peak // acc.cols), bw_x)
    output_need = 2 * acc.cols * 8
    if input_need > acc.input_buffer_bytes:
        raise ConfigError(
            f"layer {layer.name or layer.kind.value}: input staging needs {input_need} bytes, "
            f"buffer holds {acc.input_buffer_bytes}"
        )
    if output_need > acc.output_buffer_bytes:
        raise ConfigError(
            f"output staging needs {output_need} bytes, buffer holds {acc.output_buffer_bytes}"
        )


def simulate_layer(layer: LayerSpec, acc: AcceleratorConfig, mem: MemorySpec, params: CostParams) -> LayerReport:
    """Simulate one layer, aggregating recurrent timesteps.

    When a gemv layer's full weight set fits in the combined scratchpads,
    repeats after the first reuse the pinned weights and pay only for input
    and output streaming.
    """
    bw_x, bw_w, note = _effective_bitwidths(layer, acc.style)
    if note:
        warnings.warn(note, UserWarning, stacklevel=2)
    peak_unit, _ = _unit_peak(acc, bw_x, bw_w)
    peak = peak_unit * acc.unit_count
    _check_staging(layer, acc, peak, bw_x)
    dims = lower_layer(layer)

    first = _simulate_pass(layer, acc, mem, params, peak, bw_x, bw_w, weights_resident=False)
    passes = [first]
    if layer.repeat > 1:
        weight_bytes = _ceil_bits_to_bytes(dims.m * dims.k, bw_w)
        resident = weight_bytes <= acc.total_scratchpad_bytes
        steady = _simulate_pass(layer, acc, mem, params, peak, bw_x, bw_w, weights_resident=resident)
        passes.extend([steady] * (layer.repeat - 1))

    agg = {key: sum(p[key] for p in passes) for key in first}
    return LayerReport(
        name=layer.name or layer.kind.value,
        kind=layer.kind.value,
        m=dims.m,
        k=dims.k,
        n=dims.n,
        repeats=layer.repeat,
        bw_x=bw_x,
        bw_w=bw_w,
        macs=agg["macs"],
        compute_cycles=agg["compute_cycles"],
        memory_cycles=agg["memory_cycles"],
        total_cycles=agg["total_cycles"],
        utilization=agg["macs"] / (peak * agg["compute_cycles"]),
        bound="memory" if agg["memory_cycles"] > agg["compute_cycles"] else "compute",
        energy_compute_pj=agg["energy_compute_pj"],
        energy_sram_pj=agg["energy_sram_pj"],
        energy_offchip_pj=agg["energy_offchip_pj"],
        offchip_bytes=agg["offchip_bytes"],
    )


def simulate_network(net: NetworkSpec, acc: AcceleratorConfig, mem: MemorySpec, params: CostParams) -> SimReport:
    """Simulate every layer in order; deterministic for identical inputs."""
    reports = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i, layer in enumerate(net.layers):
            try:
                reports.append(simulate_layer(layer, acc, mem, params))
            except ConfigError as exc:
                raise ConfigError(f"layers[{i}]: {exc}") from exc
        notes = tuple(str(w.message) for w in caught)
    for note in notes:
        warnings.warn(note, UserWarning, stacklevel=2)
    return SimReport(network=net.name, style=acc.style.value, memory=mem.name, layers=tuple(reports), notes=notes)


@dataclass(frozen=True)
class ComparisonEntry:
    label: str
    runtime_s: float
    energy_pj: float
    speedup: float
    energy_reduction: float


def compare(
    net: NetworkSpec,
    configs: list[tuple[AcceleratorConfig, MemorySpec]],
    params: CostParams,
) -> list[ComparisonEntry]:
    """Run one network on several platforms; ratios vs. the first entry."""
    if len(configs) < 2:
        raise ConfigError(f"compare needs at least 2 configurations, got {len(configs)}")
    results = []
    for acc, mem in configs:
        report = simulate_network(net, acc, mem, params)
        results.append(
            (f"{acc.style.value}+{mem.name}", report.runtime_s(acc.frequency_hz), report.energy_total_pj)
        )
    base_runtime, base_energy = results[0][1], results[0][2]
    return [
        ComparisonEntry(
            label=label,
            runtime_s=runtime,
            energy_pj=energy,
            speedup=base_runtime / runtime,
            energy_reduction=base_energy / energy,
        )
        for label, runtime, energy in results
    ]


def _check_accumulator(value: int) -> int:
    if not _INT64_LO <= value <= _INT64_HI:
        raise AccumulatorOverflowError(f"value {value} exceeds the 64-bit accumulator range")
    return value


def functional_dot(x: QuantizedVector, w: QuantizedVector, acc: AcceleratorConfig) -> int:
    """Compute one dot product exactly as the configured style would.

    Conventional units use the plain widening MAC path.  Composable styles
    dispatch the whole dot product to the CVU at once: the stream is reshaped
    to [clusters, cycles, lanes], so cluster c reduces the contiguous chunk
    ``[c*lanes*cycles, (c+1)*lanes*cycles)`` over ``cycles`` cycles, the same
    cycle count as a cycle-major schedule.  Accumulation is checked against
    the 64-bit column register range.
    """
    if len(x) != len(w):
        raise ShapeError(f"vector length mismatch: {len(x)} vs {len(w)}")
    if acc.style is Style.CONVENTIONAL:
        total = 0
        for xi, wi in zip(x.values, w.values):
            total = _check_accumulator(total + xi * wi)
        return total
    plan = plan_composition(x.bitwidth, w.bitwidth, acc.cvu)
    cycles = max(1, -(-len(x) // plan.effective_length))
    chunk = plan.lanes * cycles
    starts = range(0, plan.clusters * chunk, chunk)
    xt = [QuantizedVector(x.values[lo : lo + chunk], x.bitwidth, x.signed) for lo in starts]
    wt = [QuantizedVector(w.values[lo : lo + chunk], w.bitwidth, w.signed) for lo in starts]
    total = 0
    for scalar in execute_cycle(xt, wt, plan, cycles).scalars:
        total = _check_accumulator(total + scalar)
    return total


def functional_gemm(
    weights: list[QuantizedVector],
    inputs: list[QuantizedVector],
    acc: AcceleratorConfig,
) -> list[list[int]]:
    """m x n output matrix computed through the style's functional path."""
    return [[functional_dot(col, row, acc) for col in inputs] for row in weights]
