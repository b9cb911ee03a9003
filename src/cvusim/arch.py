"""Cycle-approximate, energy-annotated simulation of a 2D array of CVUs.

The array is weight stationary: every unit pins a tile of weights in its
private scratchpad, input vectors are broadcast along rows, and partial sums
flow down columns into 64-bit accumulators.  A layer is lowered to a GEMM
and executed in "generations": the output channels whose weight rows fit in
the combined scratchpads at once.  Within a generation, input streaming
overlaps compute; across generations, the next weight tile loads while the
current one computes (double buffering).  The first load and the last
generation's compute have nothing to overlap with and are exposed.

Cycle accounting, in closed form: a pass runs ``m // m_res`` identical full
generations of ``m_res`` output rows, then one generation of any rows left;
each figure is one generation's figure times its count, summed over the groups.

* ``compute_cycles`` = sum over generations of ceil(MACs / peak MACs/cycle)
* ``memory_cycles``  = off-chip bytes moved * frequency / bandwidth
* ``total_cycles``   = the first load, plus per generation the max of its
  compute, its stream and the next generation's load (double buffering)

:func:`simulate_network` prices the array once per call and plans each
distinct bitwidth pair once; the price depends on nothing in a layer.

Inputs are assumed to traverse the array combinationally (no pipeline fill
cycles), which keeps compute_cycles exactly equal to the analytical count.

Three styles share the model: ``conventional`` units are fixed 8-bit MACs
(heterogeneous bitwidths are clamped to 8 with a warning), a
``scalar-composable`` unit is a one-lane CVU, and ``vector-composable``
units are full CVUs.

One pass of a layer, a whole layer (:class:`LayerReport`) and a whole
network (:class:`SimReport`) share :class:`Totals`: the summed MACs, cycle
counts, off-chip bytes and energy categories, which :meth:`Totals.of` adds
up over the parts, together with the derived energy total and bound.
"""

from __future__ import annotations

import math
import operator
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass, fields
from enum import Enum
from functools import reduce

from .bitslice import QuantizedVector
from .cost import CostParams, iso_power_array_size, per_mac_normalized
from .cvu import CvuConfig, execute_cycle, plan_composition
from .errors import AccumulatorOverflowError, ConfigError, RangeError, ShapeError
from .workloads import LayerKind, LayerSpec, NetworkSpec

# Completed outputs are written back requantized to 8 bits.
OUTPUT_BITS = 8
DEFAULT_BUDGET_MW = 250.0
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
        if not 0 < self.bandwidth_bytes_per_s < math.inf or not 0 <= self.access_energy_pj_per_bit < math.inf:
            raise ConfigError(f"invalid memory spec {self}: needs finite bandwidth > 0 and energy >= 0")


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
    sram_energy_pj_per_byte: float = 0.8

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array geometry must be positive, got {self.rows}x{self.cols}")
        if self.weight_scratchpad_bytes < 1:
            raise ConfigError("weight scratchpad must be at least one byte")
        if self.input_buffer_bytes < 1 or self.output_buffer_bytes < 1:
            raise ConfigError("staging buffers must be positive")
        if not (math.isfinite(self.frequency_hz) and self.frequency_hz > 0):
            raise ConfigError(f"frequency must be positive and finite, got {self.frequency_hz}")
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


def lower_layer(layer: LayerSpec) -> GemmDims:
    """Lower a layer to GEMM dimensions.

    Convolutions use im2col: m = output channels, k = C*R*S, n = output
    pixels.
    """
    if layer.kind is LayerKind.CONV:
        return GemmDims(
            m=layer.out_channels,
            k=layer.in_channels * layer.kernel_h * layer.kernel_w,
            n=layer.out_height * layer.out_width,
        )
    return GemmDims(m=layer.m, k=layer.k, n=layer.n)


@dataclass(frozen=True)
class Totals:
    """Figures that add up over the parts of a run: passes, layers, networks."""

    macs: int
    compute_cycles: int
    memory_cycles: int
    total_cycles: int
    offchip_bytes: int
    energy_compute_pj: float
    energy_sram_pj: float
    energy_offchip_pj: float

    @classmethod
    def of(cls, parts) -> Totals:
        """Field-by-field sums over ``parts``, added left to right on every Python version."""
        return cls(*(reduce(operator.add, column) for column in zip(*map(_totals_of, parts))))

    @property
    def energy_total_pj(self) -> float:
        return self.energy_compute_pj + self.energy_sram_pj + self.energy_offchip_pj

    @property
    def bound(self) -> str:
        return "memory" if self.memory_cycles > self.compute_cycles else "compute"


_totals_of = operator.attrgetter(*(f.name for f in fields(Totals)))


@dataclass(frozen=True)
class LayerReport(Totals):
    name: str
    kind: str
    m: int
    k: int
    n: int
    repeats: int
    bw_x: int
    bw_w: int
    utilization: float


@dataclass(frozen=True)
class SimReport(Totals):
    network: str
    style: str
    memory: str
    layers: tuple[LayerReport, ...]

    def runtime_s(self, frequency_hz: float) -> float:
        return self.total_cycles / frequency_hz


def build_array(
    style: Style,
    params: CostParams,
    *,
    lanes: int | None = None,
    budget_mw: float = DEFAULT_BUDGET_MW,
    total_sram_bytes: int = DEFAULT_TOTAL_SRAM_BYTES,
    frequency_hz: float = 500e6,
) -> AcceleratorConfig:
    """Iso-power array sizing: fill the core budget with units of one style.

    All styles share the same total weight-SRAM budget, split evenly across
    their units, so performance differences come from the compute style.
    ``lanes`` defaults to 16 for the vector style and 1 for the others, which
    have one lane by definition.
    """
    if lanes is None:
        lanes = 16 if style is Style.VECTOR else 1
    elif style is not Style.VECTOR and lanes != 1:
        raise ConfigError(f"{style.value} style has 1 lane per unit, got lanes={lanes}")
    cvu = CvuConfig(lanes=lanes)
    if style is Style.CONVENTIONAL:
        unit_mw = params.conventional_mac_mw
    else:
        unit_mw = cvu.lanes * per_mac_normalized(cvu, params)[0] * params.conventional_mac_mw
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
    )


def _effective_bitwidths(layer: LayerSpec, style: Style) -> tuple[int, int, str | None]:
    if style is Style.CONVENTIONAL and (layer.bw_x, layer.bw_w) != (8, 8):
        note = (
            f"layer {layer.name or layer.kind.value}: conventional style ignores "
            f"({layer.bw_x},{layer.bw_w})-bit quantization; computing at 8 bit"
        )
        return 8, 8, note
    return layer.bw_x, layer.bw_w, None


def _mem_cycles(nbytes: int, acc: AcceleratorConfig, mem: MemorySpec) -> int:
    return max(1, math.ceil(nbytes * acc.frequency_hz / mem.bandwidth_bytes_per_s)) if nbytes else 0


def _ceil_bits_to_bytes(elements: int, bits: int) -> int:
    return -(-elements * bits // 8)


# ``count`` identical weight generations of one pass; the other figures are per generation.
_Generations = namedtuple("_Generations", "count macs compute_cycles weight_bytes stream_bytes")


def _layer_generations(
    layer: LayerSpec, dims: GemmDims, acc: AcceleratorConfig, unit_macs: int, bw_x: int, bw_w: int
) -> list[_Generations]:
    """The full generations of ``m_res`` output rows, then the remainder, if any."""
    # Every unit must hold at least one weight vector of the plan's width.
    if unit_macs * bw_w > acc.weight_scratchpad_bytes * 8:
        raise ConfigError(
            f"layer {layer.name or layer.kind.value}: one {unit_macs}-element weight vector "
            f"at {bw_w} bit does not fit the {acc.weight_scratchpad_bytes}-byte scratchpad"
        )

    m_res = acc.total_scratchpad_bytes * 8 // bw_w // dims.k
    if m_res < 1:
        raise ConfigError(
            f"layer {layer.name or layer.kind.value}: one weight row (k={dims.k}, {bw_w} bit) "
            f"exceeds the combined scratchpad capacity of {acc.total_scratchpad_bytes} bytes"
        )

    peak = unit_macs * acc.unit_count
    input_bytes = _ceil_bits_to_bytes(dims.k * dims.n, bw_x)

    def generations(count: int, rows: int) -> _Generations:
        macs = rows * dims.k * dims.n
        weight_bytes = _ceil_bits_to_bytes(rows * dims.k, bw_w)
        stream_bytes = input_bytes + _ceil_bits_to_bytes(rows * dims.n, OUTPUT_BITS)
        return _Generations(count, macs, math.ceil(macs / peak), weight_bytes, stream_bytes)

    full, rest = divmod(dims.m, m_res)
    return [generations(count, rows) for count, rows in ((full, m_res), (1, rest)) if count * rows]


def _simulate_pass(
    groups: list[_Generations], acc: AcceleratorConfig, mem: MemorySpec, mac_pj: float, bw_x: int, bw_w: int
) -> Totals:
    """One invocation of a layer (one timestep for recurrent layers)."""
    # Double buffering: generation i+1 loads while generation i computes and streams;
    # the first load and the last compute are exposed.  Inside a group the next load is
    # the group's own; after its last generation it is the next group's, or none.
    loads = [_mem_cycles(g.weight_bytes, acc, mem) for g in groups]
    total = loads[0]
    for g, load, next_load in zip(groups, loads, loads[1:] + [0]):
        busy = max(g.compute_cycles, _mem_cycles(g.stream_bytes, acc, mem))
        total += (g.count - 1) * max(busy, load) + max(busy, next_load)

    macs = sum(g.count * g.macs for g in groups)
    weight_fill_bytes = sum(g.count * g.weight_bytes for g in groups)
    stream_bytes = sum(g.count * g.stream_bytes for g in groups)
    offchip_bytes = weight_fill_bytes + stream_bytes
    operand_bytes = _ceil_bits_to_bytes(macs, bw_x) + _ceil_bits_to_bytes(macs, bw_w)
    sram_bytes = weight_fill_bytes + stream_bytes + operand_bytes

    return Totals(
        macs=macs,
        compute_cycles=sum(g.count * g.compute_cycles for g in groups),
        memory_cycles=_mem_cycles(offchip_bytes, acc, mem),
        total_cycles=total,
        offchip_bytes=offchip_bytes,
        energy_compute_pj=macs * mac_pj,
        energy_sram_pj=sram_bytes * acc.sram_energy_pj_per_byte,
        energy_offchip_pj=offchip_bytes * 8 * mem.access_energy_pj_per_bit,
    )


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
        raise ConfigError(f"output staging needs {output_need} bytes, buffer holds {acc.output_buffer_bytes}")


def _price(acc: AcceleratorConfig, params: CostParams, bw_x: int, bw_w: int, memo: dict) -> tuple[int, float]:
    """One unit's MACs per cycle and pJ per MAC at a bitwidth pair, kept in ``memo``."""
    key = (bw_x, bw_w)
    if key not in memo:
        # mW -> pJ per cycle: P[mW] * 1e9 / f[Hz]
        conventional_pj = params.conventional_mac_mw * 1e9 / acc.frequency_hz
        if acc.style is Style.CONVENTIONAL:
            memo[key] = 1, conventional_pj
        else:
            unit_macs = plan_composition(bw_x, bw_w, acc.cvu).effective_length
            if "array" not in memo:
                memo["array"] = acc.cvu.lanes * per_mac_normalized(acc.cvu, params)[0] * conventional_pj
            memo[key] = unit_macs, memo["array"] / unit_macs
    return memo[key]


def simulate_layer(
    layer: LayerSpec, acc: AcceleratorConfig, mem: MemorySpec, params: CostParams, *, _prices: dict | None = None
) -> LayerReport:
    """Simulate one layer, aggregating recurrent timesteps.

    When a gemv layer's full weight set fits in the combined scratchpads,
    repeats after the first reuse the pinned weights and pay only for input
    and output streaming.  ``_prices`` is the price memo that
    :func:`simulate_network` shares across the layers of one call.
    """
    bw_x, bw_w, note = _effective_bitwidths(layer, acc.style)
    if note:  # warn at the caller's line: the first frame outside this module, also under simulate_network
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__") == __name__ and frame.f_back is not None:
            frame, level = frame.f_back, level + 1
        warnings.warn(note, UserWarning, stacklevel=level)
    unit_macs, mac_pj = _price(acc, params, bw_x, bw_w, {} if _prices is None else _prices)
    peak = unit_macs * acc.unit_count
    _check_staging(layer, acc, peak, bw_x)
    dims = lower_layer(layer)
    groups = _layer_generations(layer, dims, acc, unit_macs, bw_x, bw_w)

    first = steady = _simulate_pass(groups, acc, mem, mac_pj, bw_x, bw_w)
    if layer.repeat > 1 and _ceil_bits_to_bytes(dims.m * dims.k, bw_w) <= acc.total_scratchpad_bytes:
        resident = [g._replace(weight_bytes=0) for g in groups]
        steady = _simulate_pass(resident, acc, mem, mac_pj, bw_x, bw_w)

    totals = Totals.of([first] + [steady] * (layer.repeat - 1))
    return LayerReport(
        **vars(totals),
        name=layer.name or layer.kind.value,
        kind=layer.kind.value,
        m=dims.m,
        k=dims.k,
        n=dims.n,
        repeats=layer.repeat,
        bw_x=bw_x,
        bw_w=bw_w,
        utilization=totals.macs / (peak * totals.compute_cycles),
    )


def simulate_network(net: NetworkSpec, acc: AcceleratorConfig, mem: MemorySpec, params: CostParams) -> SimReport:
    """Simulate every layer in order; deterministic for identical inputs."""
    reports, prices = [], {}
    for i, layer in enumerate(net.layers):
        try:
            reports.append(simulate_layer(layer, acc, mem, params, _prices=prices))
        except ConfigError as exc:
            raise ConfigError(f"layers[{i}]: {exc}") from exc
    return SimReport(
        **vars(Totals.of(reports)),
        network=net.name,
        style=acc.style.value,
        memory=mem.name,
        layers=tuple(reports),
    )


@dataclass(frozen=True)
class ComparisonEntry:
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
        results.append((report.runtime_s(acc.frequency_hz), report.energy_total_pj))
    base_runtime, base_energy = results[0]
    return [
        ComparisonEntry(runtime, energy, base_runtime / runtime, base_energy / energy) for runtime, energy in results
    ]


def _check_accumulator(value: int) -> int:
    if not _INT64_LO <= value <= _INT64_HI:
        raise AccumulatorOverflowError(f"value {value} exceeds the 64-bit accumulator range")
    return value


def functional_dot(x: QuantizedVector, w: QuantizedVector, acc: AcceleratorConfig) -> int:
    """Compute one dot product exactly as the configured style would.

    Conventional units take the plain widening MAC path as one sum.  Each
    product is at most ``2**(bw_x + bw_w)`` in magnitude, so a partial sum of k
    products is at most ``k * 2**(bw_x + bw_w)``.  Below 2**63 no partial sum
    can leave the 64-bit column register and checking the output checks every
    MAC; a longer dot product raises :class:`RangeError` up front.  Composable
    styles compute it as a 1 x 1 :func:`functional_gemm`.
    """
    if len(x) != len(w):
        raise ShapeError(f"vector length mismatch: {len(x)} vs {len(w)}")
    if acc.style is Style.CONVENTIONAL:
        if len(x) << (x.bitwidth + w.bitwidth) >= 1 << 63:
            raise RangeError(f"{len(x)} MACs at {x.bitwidth}x{w.bitwidth} bits could overflow the 64-bit accumulator")
        return _check_accumulator(sum(map(operator.mul, x.values, w.values)))
    return functional_gemm([w], [x], acc)[0][0]


def functional_gemm(
    weights: list[QuantizedVector], inputs: list[QuantizedVector], acc: AcceleratorConfig
) -> list[list[int]]:
    """m x n output matrix computed through the style's functional path.

    Conventional units run :func:`functional_dot` per output.  Composable styles plan the
    CVU at the widest operand widths and dispatch every output's whole dot product at once
    over ``cycles`` cycles, the same count as a cycle-major schedule: the whole m x n tile
    is one :func:`execute_cycle` call.  Each output's cluster scalars are summed
    and checked against the 64-bit column register range.
    """
    if acc.style is Style.CONVENTIONAL:
        return [[functional_dot(col, row, acc) for col in inputs] for row in weights]
    if not weights or not inputs:
        return [[] for _ in weights]
    plan = plan_composition(max(v.bitwidth for v in inputs), max(v.bitwidth for v in weights), acc.cvu)
    cycles = max(1, -(-len(inputs[0]) // plan.effective_length))
    scalars = execute_cycle(inputs, weights, plan, cycles).scalars
    c, n = plan.clusters, len(inputs)
    sums = [_check_accumulator(sum(scalars[i : i + c])) for i in range(0, len(scalars), c)]
    return [sums[j : j + n] for j in range(0, len(sums), n)]
