"""Cycle-approximate, energy-annotated simulation of a 2D array of CVUs.

The array is weight stationary: every unit pins a tile of weights in its private scratchpad, input
vectors are broadcast along rows, and partial sums flow down columns into 64-bit accumulators.  A layer
is lowered to a GEMM and executed in "generations": the output channels whose weight rows fit in the
combined scratchpads at once.  Within a generation, input streaming overlaps compute; across
generations, the next weight tile loads while the current one computes (double buffering).  The first
load and the last generation's compute have nothing to overlap with and are exposed.

Data movement, in closed form: a pass runs ``m // m_res`` identical full generations of ``m_res`` output
rows, then one generation of any rows left.  It names each byte it moves by purpose (off chip: weight
fill, input stream, output write; on chip: operand reads), and its cycles and energy come from those
bytes and its MACs.  ``compute_cycles`` sums ceil(MACs / peak MACs per cycle) over the generations,
``memory_cycles`` is the off-chip bytes at the memory's bandwidth, and ``total_cycles`` is the first
load plus, per generation, the max of its compute, its stream and the next generation's load.  The
assumptions, each with its test in ``tests/test_arch.py``:

* weights stay resident across repeats only when all of them fit the
  combined scratchpads (``TestRepeats``);
* the next generation loads into the same full scratchpad that the current
  one computes from (unchecked);
* the input stream and the next load are taken as a per-phase max, though
  they share one off-chip channel (violated: ``total_cycles < memory_cycles``
  on the 12 ``fc6`` rows on DDR4 in ``tests/golden/model.csv``);
* each MAC makes one SRAM read of each operand, and every off-chip byte is
  one SRAM access too (``TestSimulateLayer.test_traffic_by_purpose``);
* every array runs at one fixed clock, its ``frequency_hz``, which converts off-chip bytes to cycles, unit
  power to pJ per MAC and cycles to a comparison's runtime (``TestClosedForm``); it writes outputs back at its
  ``output_bits``, and every SRAM byte costs its ``sram_pj_per_byte`` (``TestSimulateLayer.test_traffic_by_purpose``);
  and each staging buffer holds ``STAGING_BUFFER_BYTES`` (``TestSimulateLayer.test_staging_errors_name_the_layer``).

No source is recorded for any of the model's fixed constants: the ``AcceleratorConfig`` defaults of
``frequency_hz`` (500 MHz), ``sram_pj_per_byte`` (0.8) and ``output_bits`` (8), ``STAGING_BUFFER_BYTES`` (64 KiB
each for input and output), ``DEFAULT_BUDGET_MW`` (250 mW), ``DEFAULT_TOTAL_SRAM_BYTES`` (6 MiB), and the
bandwidth and pJ per bit of ``DDR4`` (16 GB/s, 15) and ``HBM2`` (256 GB/s, 1.2).  ``tests/golden/constants.txt``
shows how the paper's design points move with the energy, bandwidth and budget constants.

A layer run reads one record per (array, params, bitwidth pair), built once per process by ``_pair`` and kept in
a bounded LRU: a unit's MACs per cycle, the pJ per MAC, the array's peak MACs per cycle, the combined scratchpad
bytes, and the pair's staging or weight-vector fit failure, if any.  The record reads only its key, which holds
the array's clock, and ``STAGING_BUFFER_BYTES``, which nothing varies.  No layer, pass or network result is
cached: a layer run reads its layer once, prices at most two generation groups in each of one or two passes
and adds up its repeats; a network adds its layers as it runs them.

Inputs are assumed to traverse the array combinationally (no pipeline fill cycles), which keeps
compute_cycles exactly equal to the analytical count.  The model prices a unit through :mod:`cvusim.plan`
alone.  The bit-exact engine, ``cvu.execute_cycle``, binds here on the first exact run or read of
``arch.execute_cycle``; a binding already here is kept.

Three styles share the model: ``conventional`` units are one-lane 8-bit MACs that compute every layer at
8 bit (a report's ``bw_x``/``bw_w`` show the widths that ran), a ``scalar-composable`` unit is a
one-lane CVU, and ``vector-composable`` units are full CVUs.

A pass (a plain tuple), a layer (:class:`LayerReport`) and a network (:class:`SimReport`) share
their first eight fields, the ``_TOTALS``: MACs, cycle counts, off-chip bytes and energy categories,
which the reports' named tuples derive the energy total and the bound from.  Each adds up its parts
left to right, never by sum(), whose float rounding changed in 3.12.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .cost import CostParams, iso_power_array_size, per_mac_normalized
from .errors import Checked, ConfigError, RangeError, ShapeError
from .plan import CvuConfig, plan_composition
from .workloads import LayerKind, LayerSpec, NetworkSpec

DEFAULT_BUDGET_MW = 250.0
DEFAULT_TOTAL_SRAM_BYTES = 6 * 1024 * 1024
STAGING_BUFFER_BYTES = 65536  # each of the input and output staging buffers


class Style(str, Enum):
    CONVENTIONAL = "conventional"
    SCALAR = "scalar-composable"
    VECTOR = "vector-composable"


_CONVENTIONAL = Style.CONVENTIONAL  # for the hot paths: each Style.CONVENTIONAL read takes ~100 ns on 3.11


class MemorySpec(Checked, namedtuple("MemorySpec", "name bandwidth_bytes_per_s access_energy_pj_per_bit")):
    """Off-chip memory: sustained bandwidth and energy per bit moved."""

    __slots__ = ()

    def _check(self):  # at >= 1 byte/s, every transfer's cycle count stays finite
        if not 1 <= self.bandwidth_bytes_per_s < math.inf or not 0 <= self.access_energy_pj_per_bit < math.inf:
            raise ConfigError(f"invalid memory spec {self}: needs finite bandwidth >= 1 byte/s and energy >= 0")


DDR4 = MemorySpec("ddr4", 16e9, 15.0)
HBM2 = MemorySpec("hbm2", 256e9, 1.2)


class AcceleratorConfig(Checked, namedtuple(
    "AcceleratorConfig", "rows cols cvu weight_scratchpad_bytes style frequency_hz sram_pj_per_byte output_bits",
    defaults=(500e6, 0.8, 8))):
    __slots__ = ()

    def _check(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array geometry must be positive, got {self.rows}x{self.cols}")
        if self.weight_scratchpad_bytes < 1:
            raise ConfigError("weight scratchpad must be at least one byte")
        if self.style is not Style.VECTOR and self.cvu.lanes != 1:
            raise ConfigError(f"{self.style.value} style requires 1 lane, got {self.cvu.lanes}")
        clock, sram_pj, bits = self[5:]
        if not (0 < clock < math.inf and 0 <= sram_pj < math.inf and type(bits) is int and bits >= 1):
            raise ConfigError(f"invalid {self}: needs finite clock > 0, finite SRAM pJ >= 0, integer output bits >= 1")

    @property
    def unit_count(self) -> int:
        return self.rows * self.cols

    @property
    def mac_capacity(self) -> int:
        """8-bit MAC throughput of the whole array, per cycle."""
        return self.unit_count * self.cvu.lanes

    @property
    def total_scratchpad_bytes(self) -> int:
        return self.unit_count * self.weight_scratchpad_bytes


GemmDims = namedtuple("GemmDims", "m k n")  # a lowered layer: output rows, reduction depth, output columns


def _gemm(layer: LayerSpec) -> tuple:
    """``(kind value, name, bw_x, bw_w, repeat, m, k, n)`` of ``layer``, with ``(m, k, n)`` by the lowering rule."""
    # One unpack: a named-tuple field read costs several times a local read, and ``Enum.value`` a property call.
    kind, bw_x, bw_w, name, c_in, c_out, height, width, kernel_h, kernel_w, stride, _, m, k, n, repeat = layer
    if kind is LayerKind.CONV:
        m, k, n = c_out, c_in * kernel_h * kernel_w, math.ceil(height / stride) * math.ceil(width / stride)
    return kind._value_, name, bw_x, bw_w, repeat, m, k, n


def lower_layer(layer: LayerSpec) -> GemmDims:
    """Lower a layer to GEMM dimensions.

    Convolutions use im2col: m = output channels, k = C*R*S, n = output
    pixels, ``out_height * out_width``.
    """
    return GemmDims(*_gemm(layer)[5:])


# The figures that add up over the parts of a run (passes, layers, networks), in field order.
_TOTALS = (
    "macs compute_cycles memory_cycles total_cycles offchip_bytes energy_compute_pj energy_sram_pj energy_offchip_pj"
)


class _Totals:
    """The figures a report derives from its first eight fields, the ``_TOTALS``."""

    __slots__ = ()

    @property
    def energy_total_pj(self) -> float:
        return self.energy_compute_pj + self.energy_sram_pj + self.energy_offchip_pj

    @property
    def bound(self) -> str:
        return "memory" if self.memory_cycles > self.compute_cycles else "compute"


class LayerReport(_Totals, namedtuple("LayerReport", f"{_TOTALS} name kind m k n repeats bw_x bw_w utilization")):
    __slots__ = ()


class SimReport(_Totals, namedtuple("SimReport", f"{_TOTALS} network style memory layers")):
    __slots__ = ()


def build_array(
    style: Style,
    params: CostParams,
    *,
    budget_mw: float = DEFAULT_BUDGET_MW,
    total_sram_bytes: int = DEFAULT_TOTAL_SRAM_BYTES,
) -> AcceleratorConfig:
    """Iso-power array sizing: fill the core budget with units of one style.

    All styles share the same total weight-SRAM budget, split evenly across
    their units, so performance differences come from the compute style.
    Vector units have 16 lanes; the other styles have one lane by definition.
    """
    cvu = CvuConfig(lanes=16 if style is Style.VECTOR else 1)
    if style is Style.CONVENTIONAL:
        unit_mw = params.conventional_mac_mw
    else:
        unit_mw = cvu.lanes * per_mac_normalized(cvu, params)[0] * params.conventional_mac_mw
    units = iso_power_array_size(budget_mw, unit_mw)
    if units < 1:
        raise ConfigError(f"power budget {budget_mw:g} mW fits no {style.value} unit ({unit_mw:.6g} mW each)")
    rows = math.isqrt(units)
    cols = units // rows
    scratchpad = total_sram_bytes // (rows * cols)
    if scratchpad < 1:
        raise ConfigError(
            f"power budget {budget_mw:g} mW sizes {rows * cols:.6g} {style.value} units, more than the "
            f"{total_sram_bytes} bytes of weight SRAM (--sram-bytes) can give one byte each"
        )
    return AcceleratorConfig(rows=rows, cols=cols, cvu=cvu, weight_scratchpad_bytes=scratchpad, style=style)


_Pair = namedtuple("_Pair", "unit_macs mac_pj peak spad_bytes error")


@lru_cache(maxsize=256)  # a pure function of hashable, frozen records and of STAGING_BUFFER_BYTES
def _pair(acc: AcceleratorConfig, params: CostParams, bw_x: int, bw_w: int) -> _Pair:
    """The facts of ``(bw_x, bw_w)`` on ``acc`` that no layer changes, built once per process."""
    # mW -> pJ per cycle: P[mW] * 1e9 / f[Hz]
    conventional_pj = params.conventional_mac_mw * 1e9 / acc.frequency_hz
    if acc.style is Style.CONVENTIONAL:
        unit_macs, mac_pj = 1, conventional_pj
    else:
        unit_macs = plan_composition(bw_x, bw_w, acc.cvu).effective_length
        mac_pj = acc.cvu.lanes * per_mac_normalized(acc.cvu, params)[0] * conventional_pj / unit_macs
    peak = unit_macs * acc.unit_count
    # Double-buffered staging of one cycle's input broadcast and one column of 64-bit output
    # partials; then every unit must hold one weight vector of the plan's width.  ``error`` is
    # the first of these to fail, without the layer name, or None.
    needs = (("input", 2 * -(-max(1, peak // acc.cols) * bw_x // 8)), ("output", 2 * acc.cols * 8))
    errors = [
        f"{side} staging needs {need} bytes, buffer holds {STAGING_BUFFER_BYTES}"
        for side, need in needs
        if need > STAGING_BUFFER_BYTES
    ]
    if unit_macs * bw_w > acc.weight_scratchpad_bytes * 8:
        errors.append(
            f"one {unit_macs}-element weight vector at {bw_w} bit "
            f"does not fit the {acc.weight_scratchpad_bytes}-byte scratchpad"
        )
    return _Pair(unit_macs, mac_pj, peak, acc.total_scratchpad_bytes, errors[0] if errors else None)


def _simulate_pass(
    m: int, k: int, n: int, m_res: int, peak: int, acc: AcceleratorConfig, mem: MemorySpec, mac_pj: float,
    bw_x: int, bw_w: int, weights_resident: bool,
) -> tuple:
    """One invocation of a layer (one timestep for recurrent layers), priced from its traffic.

    The pass runs ``m // m_res`` identical full generations of ``m_res`` output rows, then
    one generation of the rows left, if any: at most two groups, each priced once, in its own
    block.  Resident weights need no fill.  Bytes round up from bits, and a transfer of b bytes takes
    ceil(b * frequency / bandwidth) cycles, at the array's clock and the memory's bandwidth.  Returns the
    pass's sums as a plain tuple in ``_TOTALS`` order.
    """
    _, _, _, _, _, frequency, sram_pj, output_bits = acc  # one unpack each: a field read costs several
    _, bandwidth, pj_per_bit = mem
    input_bytes = -(-k * n * bw_x // 8)
    compute = total = weight_fill = output_write = next_load = 0
    # Double buffering: generation i+1 loads while generation i computes and streams; the
    # first load and the last compute are exposed.  The groups are priced last to first, so
    # the load after a group's last generation is the one of the group priced before it.
    full, rest = divmod(m, m_res)
    if rest:  # the last generation, whose compute no load overlaps
        compute = math.ceil(rest * k * n / peak)
        weight_fill = 0 if weights_resident else -(-rest * k * bw_w // 8)
        output_write = -(-rest * n * output_bits // 8)
        next_load = math.ceil(weight_fill * frequency / bandwidth)
        total = max(compute, math.ceil((input_bytes + output_write) * frequency / bandwidth))
    if full:
        cycles = math.ceil(m_res * k * n / peak)
        weight = 0 if weights_resident else -(-m_res * k * bw_w // 8)
        output = -(-m_res * n * output_bits // 8)
        load = math.ceil(weight * frequency / bandwidth)
        busy = max(cycles, math.ceil((input_bytes + output) * frequency / bandwidth))
        total += (full - 1) * max(busy, load) + max(busy, next_load)
        compute += full * cycles
        weight_fill += full * weight
        output_write += full * output
        next_load = load

    # Off chip: the weight fill, the input stream and the output write-back, each also written
    # to or read from SRAM once.  On chip: one SRAM read of each operand per MAC.
    macs = m * k * n
    offchip = weight_fill + (full + (rest > 0)) * input_bytes + output_write
    return (
        macs,
        compute,
        math.ceil(offchip * frequency / bandwidth),
        total + next_load,  # after both groups, the first generation's load: exposed
        offchip,
        macs * mac_pj,
        (offchip + -(-macs * bw_x // 8) + -(-macs * bw_w // 8)) * sram_pj,
        offchip * 8 * pj_per_bit,
    )


def simulate_layer(layer: LayerSpec, acc: AcceleratorConfig, mem: MemorySpec, params: CostParams) -> LayerReport:
    """Simulate one layer, aggregating recurrent timesteps.

    When a gemv layer's full weight set fits in the combined scratchpads,
    repeats after the first reuse the pinned weights and pay only for input
    and output streaming.
    """
    kind, name, bw_x, bw_w, repeat, m, k, n = _gemm(layer)
    if acc.style is _CONVENTIONAL:
        bw_x = bw_w = 8
    _, mac_pj, peak, spad_bytes, error = _pair(acc, params, bw_x, bw_w)
    name = name or kind
    if error:
        raise ConfigError(f"layer {name}: {error}")
    m_res = spad_bytes * 8 // bw_w // k
    if m_res < 1:
        raise ConfigError(
            f"layer {name}: one weight row (k={k}, {bw_w} bit) "
            f"exceeds the combined scratchpad capacity of {spad_bytes} bytes"
        )

    first = steady = _simulate_pass(m, k, n, m_res, peak, acc, mem, mac_pj, bw_x, bw_w, False)
    if repeat > 1 and -(-m * k * bw_w // 8) <= spad_bytes:
        steady = _simulate_pass(m, k, n, m_res, peak, acc, mem, mac_pj, bw_x, bw_w, True)

    # Integers as first + (repeat - 1) * steady, exactly; each energy float by left-to-right
    # additions over [first, steady, ...], not by a product.
    macs, compute, memory, total, offchip, e_compute, e_sram, e_offchip = first
    extra = repeat - 1
    if extra:
        macs, compute, memory, total, offchip = (a + extra * b for a, b in zip(first, steady[:5]))
        for _ in range(extra):
            e_compute, e_sram, e_offchip = e_compute + steady[5], e_sram + steady[6], e_offchip + steady[7]
    # tuple.__new__ skips the named tuple's keyword __new__ and _make's length check of the 17 fields below
    return tuple.__new__(LayerReport, (
        macs, compute, memory, total, offchip, e_compute, e_sram, e_offchip,
        name, kind, m, k, n, repeat, bw_x, bw_w, macs / (peak * compute),
    ))


def simulate_network(net: NetworkSpec, acc: AcceleratorConfig, mem: MemorySpec, params: CostParams) -> SimReport:
    """Simulate every layer in order, adding up its ``_TOTALS`` as it goes; deterministic for identical inputs."""
    run = simulate_layer  # the module attribute, once per call: a traced run wraps it
    reports = []
    for i, layer in enumerate(net.layers):
        try:
            report = run(layer, acc, mem, params)
        except ConfigError as exc:
            raise ConfigError(f"layers[{i}]: {exc}") from exc
        if i:
            macs, compute, memory, total, offchip, e_compute, e_sram, e_offchip = (
                macs + report[0], compute + report[1], memory + report[2], total + report[3],
                offchip + report[4], e_compute + report[5], e_sram + report[6], e_offchip + report[7],
            )
        else:  # a NetworkSpec has at least one layer
            macs, compute, memory, total, offchip, e_compute, e_sram, e_offchip = report[:8]
        reports.append(report)
    totals = macs, compute, memory, total, offchip, e_compute, e_sram, e_offchip
    report = SimReport(*totals, net.name, acc.style.value, mem.name, tuple(reports))
    if not math.isfinite(report.energy_total_pj):
        raise ConfigError(f"energy total overflows at {mem.access_energy_pj_per_bit:g} pJ per bit off chip")
    return report


ComparisonEntry = namedtuple("ComparisonEntry", "runtime_s energy_pj speedup energy_reduction")


def compare(
    net: NetworkSpec,
    configs: list[tuple[AcceleratorConfig, MemorySpec]],
    params: CostParams,
) -> list[ComparisonEntry]:
    """Run one network on several platforms; ratios vs. the first entry."""
    if len(configs) < 2:
        raise ConfigError(f"compare needs at least 2 configurations, got {len(configs)}")
    reports = [(simulate_network(net, acc, mem, params), acc.frequency_hz) for acc, mem in configs]
    results = [(report.total_cycles / frequency, report.energy_total_pj) for report, frequency in reports]
    base_runtime, base_energy = results[0]
    return [
        ComparisonEntry(runtime, energy, base_runtime / runtime, base_energy / energy) for runtime, energy in results
    ]


def functional_dot(x: QuantizedVector, w: QuantizedVector) -> int:
    """One output of a conventional unit: the plain widening MAC of two operands, exactly.

    It is one float64 dot product of the two operands' arrays, by ``ndarray.dot``, which calls BLAS ``ddot``
    without the matmul gufunc's dispatch.  Each product is below ``2**(bw_x + bw_w)`` in magnitude, so every
    partial sum of k products, in any order, is an integer below ``k * 2**(bw_x + bw_w)``.  Below 2**53 float64
    holds every such sum exactly (k < 2**37 at 8x8 bits), so the result is the exact integer; a longer dot
    product raises :class:`RangeError` up front.  A conventional :func:`functional_gemm` makes this call per
    output, the one a traced run counts: m * n calls for an m x n tile.
    """
    xs, ws = x.array, w.array
    if (k := len(xs)) != len(ws):
        raise ShapeError(f"vector length mismatch: {k} vs {len(ws)}")
    if k << (x.bitwidth + w.bitwidth) >= 1 << 53:
        raise RangeError(f"{k} MACs at {x.bitwidth}x{w.bitwidth} bits could pass float64's exact integer range")
    return int(xs.dot(ws))


def functional_gemm(
    weights: list[QuantizedVector], inputs: list[QuantizedVector], acc: AcceleratorConfig
) -> list[list[int]]:
    """m x n output matrix computed through the style's functional path.

    Conventional units run :func:`functional_dot` per output: a 2 x k x 1 tile of the benchmark took 1.8 us,
    against 7.7 us to stack the operand arrays, take one float64 matmul and ``tolist`` it, at 8x8 bits, k = 512,
    and 3.2 against 11.6 us at 4x2, k = 4096 (timeit minima, Python 3.11, numpy 2.4, 2-core x86).  The outputs
    and the bitwidth maxima are plain loops, since 3.11 builds a frame for each comprehension (PEP 709 inlines
    them from 3.12).  Composable styles plan the CVU at the widest operand widths and dispatch every output's
    whole dot product at once over the fewest cycles that hold it, the same count as a cycle-major schedule: the
    whole m x n tile is one :func:`execute_cycle` call.  Each output sums its cluster scalars in int64, and only
    the m x n sums become Python ints.  The sum is an exact dot product of k products of magnitude at most 2**16
    (operands lie in [-128, 255]), which passes the 64-bit column register range only at k >= 2**47.
    """
    if acc.style is _CONVENTIONAL:
        dot, out = functional_dot, []  # the module attribute, once per call: a traced run wraps it
        for row in weights:
            out.append(outputs := [])
            for col in inputs:
                outputs.append(dot(col, row))
        return out
    bw_x = bw_w = 1  # an empty side plans at 1 bit and runs through execute_cycle's empty shapes
    for v in inputs:
        bw_x = v.bitwidth if v.bitwidth > bw_x else bw_x
    for v in weights:
        bw_w = v.bitwidth if v.bitwidth > bw_w else bw_w
    plan = plan_composition(bw_x, bw_w, acc.cvu)
    if "execute_cycle" not in globals():  # the first exact run binds the engine here; later runs look it up
        __getattr__("execute_cycle")
    return execute_cycle(inputs, weights, plan).scalars.sum(axis=2).tolist()


def __getattr__(name: str):  # arch.execute_cycle resolves before the first exact run, too; a binding here is kept
    if name == "execute_cycle":
        from .cvu import execute_cycle
        return globals().setdefault(name, execute_cycle)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
