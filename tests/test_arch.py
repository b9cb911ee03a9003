"""Array simulation: lowering, cycle model, energy accounting, comparisons."""

import math
import operator
import random
from collections import Counter
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvusim.arch as arch
from cvusim.arch import (
    DDR4,
    HBM2,
    AcceleratorConfig,
    MemorySpec,
    Style,
    build_array,
    compare,
    functional_dot,
    functional_gemm,
    lower_layer,
    simulate_layer,
    simulate_network,
)
from cvusim.bitslice import QuantizedVector, value_bounds
from cvusim.cost import CostParams, default_params, per_mac_normalized
from cvusim.errors import ConfigError, RangeError, ShapeError
from cvusim.plan import CvuConfig, plan_composition
from cvusim.workloads import LayerKind, LayerSpec, NetworkSpec, bundled_networks, load_network, to_homogeneous

from oracles import dot_exact

PARAMS = default_params()
INFINITE = MemorySpec("infinite", 1e18, 0.0)
# the fields that add up over passes, layers and networks: the first eight of every report
TOTALS = ("macs", "compute_cycles", "memory_cycles", "total_cycles", "offchip_bytes",
          "energy_compute_pj", "energy_sram_pj", "energy_offchip_pj")


def small_array(**kwargs):
    defaults = dict(
        rows=2, cols=2, cvu=CvuConfig(lanes=16), weight_scratchpad_bytes=1 << 20, style=Style.VECTOR
    )
    defaults.update(kwargs)
    return AcceleratorConfig(**defaults)


def fc(m, k, bw_x=8, bw_w=8, **kw):
    return LayerSpec(kind=LayerKind.FC, m=m, k=k, bw_x=bw_x, bw_w=bw_w, **kw)


def every_layer_of(*names):
    """(net, layer index) of every layer of the named bundled nets."""
    return [(name, i) for name in names for i in range(len(load_network(bundled_networks()[name]).layers))]


def layer_operands(name, index):
    """One bundled layer and its seeded operands: signed m x k weights and unsigned k x n inputs, as after a ReLU."""
    layer = load_network(bundled_networks()[name]).layers[index]
    dims = lower_layer(layer)
    rng = np.random.default_rng([*name.encode(), index])
    w = rng.integers(-(1 << (layer.bw_w - 1)), 1 << (layer.bw_w - 1), size=(dims.m, dims.k), dtype=np.int16)
    x = rng.integers(0, 1 << layer.bw_x, size=(dims.k, dims.n), dtype=np.int16)
    return layer, w, x


def float_oracle(w, x):
    """W @ X in float64, through BLAS, with no slicing and no shift-add: exact, since every
    partial sum is an integer of magnitude below k * 2**15 (|w| <= 2**7, x < 2**8) < 2**53.

    W is cast a block of rows at a time, so that no float64 copy of a whole fc layer's weights is held."""
    k = w.shape[1]
    assert k << 15 < 1 << 53
    xf, rows = x.astype(np.float64), max(1, (1 << 22) // k)  # 32 MiB of float64 weights per block
    return np.concatenate([w[i : i + rows].astype(np.float64) @ xf for i in range(0, len(w), rows)]).astype(np.int64)


def style_dot(x, w, acc):
    """One output of ``acc``'s style: a 1 x 1 :func:`functional_gemm`."""
    return functional_gemm([w], [x], acc)[0][0]


SAMPLED_OUTPUTS = 32  # (row, column) outputs of each layer checked against dot_exact as well


def check_layer_whole(name, index):
    """Run one bundled layer whole through all three styles, against :func:`float_oracle`.

    That oracle is independent of the composable styles, which slice their operands into planes and
    shift-add the plane products, but not of the conventional style: both take float64 dot products
    through BLAS.  So at a seeded sample of ``SAMPLED_OUTPUTS`` (row, column) pairs the oracle's outputs,
    and with them every style's, must also equal :func:`dot_exact`'s, which adds Python integers and
    shares no arithmetic with either.  ``slow/test_whole_layers.py`` runs this on the nets too big for Tier-1."""
    layer, w, x = layer_operands(name, index)
    expected = float_oracle(w, x).tolist()
    weights = [QuantizedVector(row.tolist(), layer.bw_w, signed=True) for row in w]
    inputs = [QuantizedVector(col.tolist(), layer.bw_x) for col in x.T]
    for style in (Style.VECTOR, Style.SCALAR, Style.CONVENTIONAL):
        assert functional_gemm(weights, inputs, build_array(style, PARAMS)) == expected, (name, index, style)
    rng = random.Random(f"{name}/{index}")
    for _ in range(SAMPLED_OUTPUTS):
        r, c = rng.randrange(len(weights)), rng.randrange(len(inputs))
        assert expected[r][c] == dot_exact(inputs[c], weights[r]), (name, index, r, c)


class TestLowerLayer:
    def test_conv_im2col(self):
        layer = LayerSpec(
            kind=LayerKind.CONV, bw_x=8, bw_w=8, in_channels=3, out_channels=64,
            height=32, width=32, kernel_h=3, kernel_w=3,
        )
        dims = lower_layer(layer)
        assert (dims.m, dims.k, dims.n) == (64, 27, 1024)
        strided = layer._replace(height=31, width=20, kernel_w=5, stride=2, pool=3)
        assert lower_layer(strided) == (64, 45, 16 * 10) == (64, 45, strided.out_height * strided.out_width)

    def test_fc(self):
        dims = lower_layer(fc(1024, 1024))
        assert (dims.m, dims.k, dims.n) == (1024, 1024, 1)

    def test_gemv_weight_reuse_is_one(self):
        dims = lower_layer(LayerSpec(kind=LayerKind.GEMV, m=512, k=512, bw_x=8, bw_w=8))
        assert dims.n == 1


@pytest.mark.parametrize(
    "bandwidth,pj_per_bit",
    [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (5e-324, 1.0), (0.999, 1.0), (1e9, math.nan), (1e9, math.inf), (1e9, -1.0)],
)
def test_memory_spec_rejects_invalid(bandwidth, pj_per_bit):
    with pytest.raises(ConfigError):
        MemorySpec("m", bandwidth, pj_per_bit)


def test_slowest_memory_keeps_cycles_finite():
    # at the 1 byte/s floor, a layer of 2**31 - 1 rows still takes a finite, integral cycle count
    report = simulate_layer(fc(2**31 - 1, 1), small_array(), MemorySpec("slowest", 1.0, 1.0), PARAMS)
    assert isinstance(report.total_cycles, int) and isinstance(report.memory_cycles, int)
    assert report.memory_cycles == pytest.approx(report.offchip_bytes * arch.FREQUENCY_HZ)
    assert math.isfinite(report.energy_total_pj)


class TestSimulateLayer:
    def test_fc64_analytical_cycles(self):
        report = simulate_layer(fc(64, 64), small_array(), INFINITE, PARAMS)
        assert report.compute_cycles == 64  # ceil(4096 / (2*2*16))

    def test_lower_weight_bits_quadruple_throughput(self):
        report = simulate_layer(fc(64, 64, bw_w=2), small_array(), INFINITE, PARAMS)
        assert report.compute_cycles == 16

    def test_gemv_is_memory_bound_on_ddr4(self):
        acc = build_array(Style.VECTOR, PARAMS)
        report = simulate_layer(LayerSpec(kind=LayerKind.GEMV, m=4096, k=4096, bw_x=8, bw_w=8), acc, DDR4, PARAMS)
        assert report.bound == "memory"
        assert report.memory_cycles > report.compute_cycles

    def test_bound_classification_iff(self):
        acc = build_array(Style.VECTOR, PARAMS)
        net = to_homogeneous(load_network(bundled_networks()["alexnet"]))
        for layer in simulate_network(net, acc, DDR4, PARAMS).layers:
            assert (layer.bound == "memory") == (layer.memory_cycles > layer.compute_cycles)

    def test_traffic_by_purpose(self):
        # one generation: the off-chip weights, inputs and 8-bit outputs are each one SRAM
        # access, and every MAC reads each operand from SRAM once
        layer = LayerSpec(kind=LayerKind.GEMV, m=64, k=64, n=3, bw_x=4, bw_w=2)
        report = simulate_layer(layer, small_array(), DDR4, PARAMS)
        weights, inputs, outputs = 64 * 64 * 2 // 8, 64 * 3 * 4 // 8, 64 * 3
        macs = 64 * 64 * 3
        assert report.offchip_bytes == weights + inputs + outputs
        assert report.energy_sram_pj == (weights + inputs + outputs + macs * 4 // 8 + macs * 2 // 8) * 0.8
        assert report.energy_offchip_pj == report.offchip_bytes * 8 * DDR4.access_energy_pj_per_bit

    def test_scratchpad_too_small_for_weight_vector(self):
        acc = small_array(weight_scratchpad_bytes=8)  # one 16-element 8-bit vector needs 16
        with pytest.raises(ConfigError, match="scratchpad"):
            simulate_layer(fc(64, 64), acc, INFINITE, PARAMS)

    def test_weight_row_exceeding_total_capacity(self):
        acc = small_array(weight_scratchpad_bytes=64)
        with pytest.raises(ConfigError, match="combined scratchpad"):
            simulate_layer(fc(64, 4096), acc, INFINITE, PARAMS)

    def test_staging_errors_name_the_layer(self):
        layer = fc(64, 64, name="fc_a")
        # 2049 x 1 units of 16 lanes: 32784 8-bit elements per column per cycle, double-buffered
        with pytest.raises(ConfigError, match=r"^layer fc_a: input staging needs 65568 bytes, buffer holds 65536$"):
            simulate_layer(layer, small_array(rows=2049, cols=1), INFINITE, PARAMS)
        # 4097 columns of 64-bit partials, double-buffered
        with pytest.raises(ConfigError, match=r"^layer fc_a: output staging needs 65552 bytes, buffer holds 65536$"):
            simulate_layer(layer, small_array(rows=1, cols=4097), INFINITE, PARAMS)

    def test_utilization_bounds(self):
        report = simulate_layer(fc(64, 60), small_array(), INFINITE, PARAMS)
        assert 0 < report.utilization <= 1

    def test_conventional_computes_at_8_bit(self):
        acc = build_array(Style.CONVENTIONAL, PARAMS)
        report = simulate_layer(fc(64, 64, bw_x=4, bw_w=2), acc, INFINITE, PARAMS)
        assert (report.bw_x, report.bw_w) == (8, 8)
        baseline = simulate_layer(fc(64, 64), acc, INFINITE, PARAMS)
        assert report.compute_cycles == baseline.compute_cycles


def recurrent_cells():
    """Every gemv layer of the bundled recurrent networks, with its network name."""
    nets = {name: load_network(bundled_networks()[name]) for name in ("lstm", "gru")}
    return [(name, l) for name, net in nets.items() for l in net.layers if l.kind is LayerKind.GEMV]


def weight_set_bytes(layer):
    dims = lower_layer(layer)
    return -(-dims.m * dims.k * layer.bw_w // 8)


class TestRepeats:
    def test_resident_weights_amortize(self):
        # weights fit: each repeat after the first is the first pass less
        # exactly the weight fetch
        acc = build_array(Style.VECTOR, PARAMS)
        for name, layer in recurrent_cells():
            weight_bytes = weight_set_bytes(layer)
            assert weight_bytes <= acc.total_scratchpad_bytes
            one = simulate_layer(layer._replace(repeat=1), acc, DDR4, PARAMS)
            for r in sorted({2, layer.repeat}):
                rep = simulate_layer(layer._replace(repeat=r), acc, DDR4, PARAMS)
                assert rep.offchip_bytes == one.offchip_bytes + (r - 1) * (one.offchip_bytes - weight_bytes)
                assert rep.compute_cycles == r * one.compute_cycles
                if name == "lstm":
                    # stacked cells, hidden = input = 1024: weights per cell 4*h*(h+i)
                    h = i = 1024
                    saved = r * one.offchip_bytes - rep.offchip_bytes
                    assert saved == (r - 1) * 4 * h * (h + i) * layer.bw_w // 8

    def test_non_resident_weights_refetch(self):
        acc = build_array(Style.VECTOR, PARAMS, total_sram_bytes=1 << 16)
        for _, layer in recurrent_cells():
            assert weight_set_bytes(layer) > acc.total_scratchpad_bytes
            one = simulate_layer(layer._replace(repeat=1), acc, DDR4, PARAMS)
            for r in sorted({2, layer.repeat}):
                rep = simulate_layer(layer._replace(repeat=r), acc, DDR4, PARAMS)
                assert rep.offchip_bytes == r * one.offchip_bytes
                assert rep.compute_cycles == r * one.compute_cycles

    def test_layer_is_planned_lowered_and_priced_once(self, monkeypatch):
        arch._pair.cache_clear()
        acc = build_array(Style.VECTOR, PARAMS)
        cell = next(layer for _, layer in recurrent_cells())
        assert cell.repeat == 25
        calls = Counter()

        def counted(name):
            real = getattr(arch, name)
            return lambda *args: calls.update([name]) or real(*args)

        for name in ("plan_composition", "per_mac_normalized", "_gemm"):
            monkeypatch.setattr(arch, name, counted(name))
        first = simulate_layer(cell, acc, DDR4, PARAMS)
        assert calls == {"plan_composition": 1, "per_mac_normalized": 1, "_gemm": 1}
        # the pair's record lives on for the process; the layer is still lowered and walked again
        calls.clear()
        assert simulate_layer(cell, acc, DDR4, PARAMS) == first
        assert calls == {"_gemm": 1}


def reference_pass(m, k, n, m_res, peak, mem, mac_pj, bw_x, bw_w, resident):
    """The per-generation loop that ``_simulate_pass`` summed before its closed form: one pass of an
    m x k x n GEMM in generations of at most ``m_res`` rows, each priced on its own."""

    def mem_cycles(nbytes):
        return max(1, math.ceil(nbytes * arch.FREQUENCY_HZ / mem.bandwidth_bytes_per_s)) if nbytes else 0

    def to_bytes(elements, bits):
        return -(-elements * bits // 8)

    phases = []  # (macs, compute cycles, weight bytes, stream bytes) of each generation
    for m_done in range(0, m, m_res):
        rows = min(m_res, m - m_done)
        macs = rows * k * n
        stream = to_bytes(k * n, bw_x) + to_bytes(rows * n, arch.OUTPUT_BITS)
        phases.append((macs, math.ceil(macs / peak), 0 if resident else to_bytes(rows * k, bw_w), stream))
    total = mem_cycles(phases[0][2])
    for i, (_, compute, _, stream) in enumerate(phases):
        next_load = mem_cycles(phases[i + 1][2]) if i + 1 < len(phases) else 0
        total += max(compute, mem_cycles(stream), next_load)
    macs, compute, weight_bytes, stream_bytes = (sum(column) for column in zip(*phases))
    offchip = weight_bytes + stream_bytes
    sram = weight_bytes + stream_bytes + to_bytes(macs, bw_x) + to_bytes(macs, bw_w)
    return (
        macs, compute, mem_cycles(offchip), total, offchip,
        macs * mac_pj, sram * arch.SRAM_PJ_PER_BYTE, offchip * 8 * mem.access_energy_pj_per_bit,
    )


def reference_lowering(layer):
    """``(m, k, n)`` of ``layer`` from its own fields: im2col over the strided output for a conv."""
    if layer.kind is LayerKind.CONV:
        return layer.out_channels, layer.in_channels * layer.kernel_h * layer.kernel_w, layer.out_height * layer.out_width
    return layer.m, layer.k, layer.n


def reference_layer_totals(layer, acc, mem, params):
    """The per-generation loop that ``simulate_layer`` summed before its closed form.

    Returns None where ``simulate_layer`` must raise ``ConfigError``.
    """
    bw_x, bw_w = (8, 8) if acc.style is Style.CONVENTIONAL else (layer.bw_x, layer.bw_w)
    conventional_pj = params.conventional_mac_mw * 1e9 / arch.FREQUENCY_HZ
    if acc.style is Style.CONVENTIONAL:
        unit_macs, mac_pj = 1, conventional_pj
    else:
        unit_macs = plan_composition(bw_x, bw_w, acc.cvu).effective_length
        mac_pj = acc.cvu.lanes * per_mac_normalized(acc.cvu, params)[0] * conventional_pj / unit_macs
    m, k, n = reference_lowering(layer)
    m_res = acc.total_scratchpad_bytes * 8 // bw_w // k
    if unit_macs * bw_w > acc.weight_scratchpad_bytes * 8 or m_res < 1:
        return None
    args = m, k, n, m_res, unit_macs * acc.unit_count, mem, mac_pj, bw_x, bw_w
    first = steady = reference_pass(*args, False)
    if layer.repeat > 1 and -(-m * k * bw_w // 8) <= acc.total_scratchpad_bytes:
        steady = reference_pass(*args, True)
    parts = [first] + [steady] * (layer.repeat - 1)
    return tuple(reduce(operator.add, column) for column in zip(*parts))


# Each kind of layer the schema allows: gemv with repeats, fc, and conv with non-square inputs and
# kernels and a stride that need not divide them, so that the output size rounds up.
_SMALL, _DEPTH = st.integers(1, 64), st.integers(1, 3000)
LAYER_SHAPES = (
    st.builds(dict, kind=st.just(LayerKind.GEMV), m=_DEPTH, k=_DEPTH, n=_SMALL, repeat=st.integers(1, 6))
    | st.builds(dict, kind=st.just(LayerKind.FC), m=_DEPTH, k=_DEPTH, n=_SMALL)
    | st.builds(
        dict, kind=st.just(LayerKind.CONV), in_channels=_SMALL, out_channels=_DEPTH, height=_SMALL, width=_SMALL,
        kernel_h=st.integers(1, 7), kernel_w=st.integers(1, 7), stride=st.integers(1, 4),
    )
)


class TestClosedForm:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        style=st.sampled_from(list(Style)),
        shape=LAYER_SHAPES,
        name=st.sampled_from(["", "named"]),
        bw_x=st.integers(1, 8),
        bw_w=st.integers(1, 8),
        total_sram_bytes=st.integers(1 << 10, 1 << 22),
        mem=st.sampled_from([DDR4, HBM2])
        | st.builds(MemorySpec, st.just("drawn"), st.floats(1e8, 1e12), st.floats(0.0, 20.0)),
    )
    def test_matches_per_generation_loop(self, style, shape, name, bw_x, bw_w, total_sram_bytes, mem):
        # every TOTALS field, floats included, exactly as the per-generation loop sums it, and the
        # fields a layer run reads from its layer once
        acc = build_array(style, PARAMS, total_sram_bytes=total_sram_bytes)
        layer = LayerSpec(name=name, bw_x=bw_x, bw_w=bw_w, **shape)
        expected = reference_layer_totals(layer, acc, mem, PARAMS)
        if expected is None:
            with pytest.raises(ConfigError):
                simulate_layer(layer, acc, mem, PARAMS)
            return
        report = simulate_layer(layer, acc, mem, PARAMS)
        for field, want in zip(TOTALS, expected, strict=True):
            assert getattr(report, field) == want, field
        ran = (8, 8) if style is Style.CONVENTIONAL else (bw_x, bw_w)
        kind = layer.kind.value
        assert report[8:16] == (name or kind, kind, *reference_lowering(layer), layer.repeat, *ran)

    @pytest.mark.parametrize("resident", [True, False], ids=["resident", "streamed"])
    @pytest.mark.parametrize("mem", [DDR4, HBM2], ids=["ddr4", "hbm2"])
    @pytest.mark.parametrize("m, m_res", [(5, 8), (24, 8), (29, 8)], ids=["rest-only", "full-only", "both"])
    def test_pass_prices_each_group_shape(self, m, m_res, mem, resident):
        # the rest group alone, three full generations alone, and both; ceil rounds every cycle count,
        # and on DDR4 a streamed weight load outlasts the compute it overlaps
        args = m, 300, 3, m_res, 512, mem.bandwidth_bytes_per_s, mem.access_energy_pj_per_bit, 0.37, 3, 5
        expected = reference_pass(m, 300, 3, m_res, 512, mem, 0.37, 3, 5, resident)
        assert arch._simulate_pass(*args, resident) == expected

    @pytest.mark.parametrize("resident", [True, False], ids=["resident", "streamed"])
    @pytest.mark.parametrize("repeat", [25, 2**16])
    @pytest.mark.parametrize("style", list(Style))
    def test_repeat_sum_at_its_extremes(self, style, repeat, resident):
        # 25 timesteps as in the bundled GRU and LSTM, and the schema's maximum of 2**16:
        # every TOTALS field, floats included, exactly as the reference adds the passes
        acc = build_array(style, PARAMS, total_sram_bytes=(6 << 20) if resident else (1 << 16))
        layer = LayerSpec(kind=LayerKind.GEMV, m=1000, k=1000, bw_x=4, bw_w=4, repeat=repeat)
        expected = reference_layer_totals(layer, acc, DDR4, PARAMS)
        report = simulate_layer(layer, acc, DDR4, PARAMS)
        one = simulate_layer(layer._replace(repeat=1), acc, DDR4, PARAMS)
        assert (report.offchip_bytes < repeat * one.offchip_bytes) is resident
        for name, want in zip(TOTALS, expected, strict=True):
            assert getattr(report, name) == want, name


class TestSimulateNetwork:
    @pytest.mark.parametrize("style", list(Style))
    def test_array_priced_once_and_each_pair_planned_once(self, style, monkeypatch):
        # once per process: a cold cache plans and prices each pair once, a warm one neither
        arch._pair.cache_clear()
        acc = build_array(style, PARAMS)
        # a chain of five fc layers at two distinct bitwidth pairs
        widths, pairs = (64, 128, 96, 64, 32, 16), ((8, 8), (4, 2), (8, 8), (4, 2), (8, 8))
        layers = tuple(fc(m, k, *pair) for k, m, pair in zip(widths, widths[1:], pairs))
        net = NetworkSpec(name="mixed", layers=layers)
        calls = Counter()
        for name in ("plan_composition", "per_mac_normalized", "_gemm"):
            real = getattr(arch, name)
            monkeypatch.setattr(arch, name, lambda *args, name=name, real=real: calls.update([name]) or real(*args))
        report = simulate_network(net, acc, DDR4, PARAMS)
        expected = {} if style is Style.CONVENTIONAL else {"per_mac_normalized": 2, "plan_composition": 2}
        assert calls == {**expected, "_gemm": 5}
        calls.clear()
        assert simulate_network(net, acc, DDR4, PARAMS) == report
        assert calls == {"_gemm": 5}
        monkeypatch.undo()
        arch._pair.cache_clear()
        assert report.layers == tuple(simulate_layer(layer, acc, DDR4, PARAMS) for layer in net.layers)

    def test_reports_are_tuples_that_lead_with_the_totals(self):
        acc = build_array(Style.VECTOR, PARAMS)
        net = load_network(bundled_networks()["convnet"])
        report = simulate_network(net, acc, DDR4, PARAMS)
        layer, entry = report.layers[0], compare(net, [(acc, DDR4), (acc, HBM2)], PARAMS)[1]
        for record, size in ((layer, 17), (report, 12), (entry, 4)):
            assert isinstance(record, tuple) and len(record) == size
        assert arch.LayerReport._fields[:8] == arch.SimReport._fields[:8] == TOTALS
        assert report[:8] == tuple(getattr(report, name) for name in TOTALS)
        assert entry == (entry.runtime_s, entry.energy_pj, entry.speedup, entry.energy_reduction)
        assert report._replace(network="other").network == "other"
        for record in (layer, report):
            with pytest.raises(AttributeError):
                record.macs = 0
            with pytest.raises(AttributeError):  # slotted all the way down: no instance dict
                record.extra = 0

    def test_single_layer_matches_simulate_layer(self):
        layer = fc(256, 256)
        net = NetworkSpec(name="one", layers=(layer,))
        acc = small_array()
        by_layer = simulate_layer(layer, acc, DDR4, PARAMS)
        by_net = simulate_network(net, acc, DDR4, PARAMS)
        assert by_net.total_cycles == by_layer.total_cycles
        assert by_net.energy_total_pj == pytest.approx(by_layer.energy_total_pj)

    def test_doubling_work_doubles_compute_cycles(self):
        acc = small_array()
        base = NetworkSpec(name="a", layers=(fc(64, 64, n=4),))
        double = NetworkSpec(name="b", layers=(fc(64, 64, n=8),))
        r1 = simulate_network(base, acc, INFINITE, PARAMS)
        r2 = simulate_network(double, acc, INFINITE, PARAMS)
        assert r2.compute_cycles == 2 * r1.compute_cycles

    def test_config_error_carries_layer_index(self):
        acc = small_array(weight_scratchpad_bytes=64)
        net = NetworkSpec(name="x", layers=(fc(16, 16), fc(64, 16)))
        # layer 1's 4096-byte weight row cannot fit the 64-byte scratchpad
        bad = NetworkSpec(name="x", layers=(fc(4096, 16), fc(16, 4096)))
        simulate_network(net, acc, INFINITE, PARAMS)
        with pytest.raises(ConfigError, match=r"layers\[1\]"):
            simulate_network(bad, acc, INFINITE, PARAMS)

    def test_energy_accounting_closes(self):
        acc = build_array(Style.VECTOR, PARAMS)
        report = simulate_network(to_homogeneous(load_network(bundled_networks()["convnet"])), acc, DDR4, PARAMS)
        assert report.energy_total_pj == pytest.approx(
            report.energy_compute_pj + report.energy_sram_pj + report.energy_offchip_pj
        )
        for layer in report.layers:
            assert layer.energy_compute_pj >= 0
            assert layer.energy_sram_pj >= 0
            assert layer.energy_offchip_pj >= 0

    def test_offchip_energy_linear_in_bytes_and_pj(self):
        acc = build_array(Style.VECTOR, PARAMS)
        net = to_homogeneous(load_network(bundled_networks()["convnet"]))
        base = simulate_network(net, acc, DDR4, PARAMS)
        pricier = simulate_network(net, acc, MemorySpec("ddr4x3", DDR4.bandwidth_bytes_per_s, 45.0), PARAMS)
        assert pricier.energy_offchip_pj == pytest.approx(3 * base.energy_offchip_pj)
        bits = sum(l.offchip_bytes for l in base.layers) * 8
        assert base.energy_offchip_pj == pytest.approx(bits * 15.0)


class TestPairRecord:
    """A pair's staging and fit verdict is built once per process and names no layer; each layer names itself."""

    def test_each_error_names_its_own_layer(self):
        arch._pair.cache_clear()
        # 2049 x 1 units of 16 lanes: the (8, 8) pair fails input staging whichever layer runs
        acc = small_array(rows=2049, cols=1)
        for name in ("a", "b", "a"):  # a cold cache, then a warm one twice
            message = rf"^layer {name}: input staging needs 65568 bytes, buffer holds 65536$"
            with pytest.raises(ConfigError, match=message):
                simulate_layer(fc(64, 64, name=name), acc, INFINITE, PARAMS)
        info = arch._pair.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_network_error_names_the_first_failing_layer(self):
        # a 32-byte scratchpad holds one 16-element 8-bit weight vector, not one 256-element 2-bit one
        acc = small_array(weight_scratchpad_bytes=32)
        pairs = ((8, 8), (8, 8), (2, 2), (8, 8))
        net = NetworkSpec(name="x", layers=tuple(fc(16, 16, *pair, name=f"c{i}") for i, pair in enumerate(pairs)))
        message = r"^layers\[2\]: layer c2: one 256-element weight vector at 2 bit does not fit the 32-byte scratchpad$"
        with pytest.raises(ConfigError, match=message):
            simulate_network(net, acc, INFINITE, PARAMS)

    @pytest.mark.parametrize(
        "geometry, message",
        [
            ((2049, 1), "input staging needs 65568 bytes, buffer holds 65536"),
            ((1, 4097), "output staging needs 65552 bytes, buffer holds 65536"),
        ],
    )
    def test_staging_reported_before_fit(self, geometry, message):
        # an 8-byte scratchpad cannot hold the 16-element 8-bit weight vector either
        acc = small_array(rows=geometry[0], cols=geometry[1], weight_scratchpad_bytes=8)
        with pytest.raises(ConfigError, match=rf"^layer fc_a: {message}$"):
            simulate_layer(fc(64, 64, name="fc_a"), acc, INFINITE, PARAMS)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        style=st.sampled_from(list(Style)),
        # log-uniform: 10 mW to 1 MW makes up to some 4e9 units, enough to fail staging, and SRAM is drawn
        # per mW, so that a unit gets from less than a byte to more than any weight vector needs
        budget_mw=st.integers(10, 90).map(lambda e: 10 ** (e / 10)),
        sram_bytes_per_mw=st.integers(-20, 160).map(lambda e: 2 ** (e / 10)),
        pairs=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=1, max_size=2),
        # (m, k, n, repeat, whether the layer takes the second pair)
        shapes=st.lists(
            st.tuples(
                st.integers(1, 4096), st.integers(1, 1 << 16), st.integers(1, 4), st.integers(1, 3), st.booleans()
            ),
            min_size=1,
            max_size=4,
        ),
        mem=st.sampled_from([DDR4, HBM2]),
    )
    def test_network_is_its_layers(self, style, budget_mw, sram_bytes_per_mw, pairs, shapes, mem):
        # the network's layers are the stand-alone layer runs, or it fails with the first one's error;
        # its totals are the layers' fields added left to right
        total_sram_bytes = max(1, int(budget_mw * sram_bytes_per_mw))
        try:
            acc = build_array(style, PARAMS, budget_mw=budget_mw, total_sram_bytes=total_sram_bytes)
        except ConfigError:
            return
        layers = tuple(
            LayerSpec(kind=LayerKind.GEMV, m=m, k=k, n=n, repeat=repeat, bw_x=bw_x, bw_w=bw_w, name=f"g{i}")
            for i, (m, k, n, repeat, second) in enumerate(shapes)
            for bw_x, bw_w in [pairs[second % len(pairs)]]
        )
        net = NetworkSpec(name="chain", layers=layers)
        expected = []
        for i, layer in enumerate(layers):
            try:
                expected.append(simulate_layer(layer, acc, mem, PARAMS))
            except ConfigError as exc:
                with pytest.raises(ConfigError) as err:
                    simulate_network(net, acc, mem, PARAMS)
                assert str(err.value) == f"layers[{i}]: {exc}"
                return
        report = simulate_network(net, acc, mem, PARAMS)
        assert report.layers == tuple(expected)
        for name in TOTALS:
            folded = reduce(operator.add, (getattr(layer, name) for layer in report.layers))
            assert getattr(report, name) == folded, name


class TestPairCache:
    """The pair records live for the process, keyed by all they read: none is stale or another key's."""

    def test_arrays_differing_only_in_scratchpad_bytes_get_their_own_records(self):
        # the SRAM sensitivity sweep sizes its arrays this way: same units, another scratchpad
        small, large = (build_array(Style.VECTOR, PARAMS, total_sram_bytes=mib << 20) for mib in (4, 10))
        assert small != large == small._replace(weight_scratchpad_bytes=large.weight_scratchpad_bytes)
        net = load_network(bundled_networks()["gru"])

        def cold(acc):
            arch._pair.cache_clear()
            return simulate_network(net, acc, DDR4, PARAMS)

        expected = [cold(small), cold(large)]
        assert expected[0] != expected[1]
        arch._pair.cache_clear()
        for _ in range(2):  # the second round reads both arrays' records warm
            assert [simulate_network(net, acc, DDR4, PARAMS) for acc in (small, large)] == expected
        assert arch._pair.cache_info().currsize == 2 * len({(layer.bw_x, layer.bw_w) for layer in net.layers})
        assert [arch._pair(acc, PARAMS, 8, 8).spad_bytes for acc in (small, large)] == [
            small.total_scratchpad_bytes, large.total_scratchpad_bytes
        ]

    @pytest.mark.parametrize("field", CostParams._fields)
    def test_params_differing_in_one_coefficient_get_their_own_records(self, field):
        other = PARAMS._replace(**{field: 2 * getattr(PARAMS, field)})
        acc = build_array(Style.VECTOR, PARAMS)
        arch._pair.cache_clear()
        records = [arch._pair(acc, params, 4, 2) for params in (PARAMS, other, PARAMS, other)]
        assert arch._pair.cache_info().currsize == 2
        assert records[:2] == records[2:] == [arch._pair.__wrapped__(acc, params, 4, 2) for params in (PARAMS, other)]
        if "area" not in field:  # an energy coefficient or the conventional MAC's power moves the pJ per MAC
            assert records[0].mac_pj != records[1].mac_pj

    def test_warm_report_follows_a_patched_sram_constant(self):
        acc = build_array(Style.VECTOR, PARAMS)
        net = load_network(bundled_networks()["convnet"])
        base = simulate_network(net, acc, HBM2, PARAMS)  # the pair records are warm from here on
        with mock.patch.object(arch, "SRAM_PJ_PER_BYTE", 2 * arch.SRAM_PJ_PER_BYTE):
            doubled = simulate_network(net, acc, HBM2, PARAMS)
        # doubling a factor doubles every product and sum exactly, and moves nothing else
        assert doubled.energy_sram_pj == 2 * base.energy_sram_pj
        assert doubled._replace(energy_sram_pj=base.energy_sram_pj, layers=base.layers) == base
        assert simulate_network(net, acc, HBM2, PARAMS) == base

    @pytest.mark.parametrize("constant", ["FREQUENCY_HZ", "OUTPUT_BITS"])
    def test_warm_report_follows_a_patched_clock_or_output_width(self, constant):
        # a layer run reads both at call time: a value bound at import would price the patched
        # layers at the shipped clock or output width
        acc = build_array(Style.VECTOR, PARAMS)
        layers = [layer for name in ("convnet", "gru") for layer in load_network(bundled_networks()[name]).layers]
        base = [simulate_layer(layer, acc, DDR4, PARAMS) for layer in layers]  # the pair records are warm
        with mock.patch.object(arch, constant, 2 * getattr(arch, constant)):
            arch._pair.cache_clear()
            try:
                patched = [simulate_layer(layer, acc, DDR4, PARAMS) for layer in layers]
                expected = [reference_layer_totals(layer, acc, DDR4, PARAMS) for layer in layers]
            finally:
                arch._pair.cache_clear()
        assert [report[:8] for report in patched] == expected
        assert [report[:8] for report in base] != expected
        assert [simulate_layer(layer, acc, DDR4, PARAMS) for layer in layers] == base


def every_net_in_both_modes():
    """Every bundled net at its file bitwidths and homogeneous, by (name, mode)."""
    nets = {}
    for name, path in bundled_networks().items():
        net = load_network(path)
        nets[name, "file"], nets[name, "homogeneous"] = net, to_homogeneous(net)
    return nets


class TestMonotonicity:
    def test_bandwidth_never_hurts(self):
        # every net x mode x style x memory, its bandwidth scaled from x0.25 to x8: no step raises total cycles
        scales = (0.25, 0.5, 1, 2, 4, 8)
        for key, net in every_net_in_both_modes().items():
            for style in Style:
                acc = build_array(style, PARAMS)
                for mem in (DDR4, HBM2):
                    mems = [mem._replace(bandwidth_bytes_per_s=mem.bandwidth_bytes_per_s * scale) for scale in scales]
                    cycles = [simulate_network(net, acc, scaled, PARAMS).total_cycles for scaled in mems]
                    assert all(a >= b for a, b in zip(cycles, cycles[1:])), (key, style, mem.name, cycles)

    def test_sram_never_adds_offchip_bytes_or_energy(self):
        # every net x mode x style x memory at 3 to 20 MiB of total SRAM in 0.5 MiB steps.  Total cycles
        # are left out: a larger SRAM can grow a generation tile, and with it the first, exposed load
        sizes = [(6 + i) << 19 for i in range(35)]
        for key, net in every_net_in_both_modes().items():
            for style in Style:
                arrays = [build_array(style, PARAMS, total_sram_bytes=size) for size in sizes]
                for mem in (DDR4, HBM2):
                    reports = [simulate_network(net, acc, mem, PARAMS) for acc in arrays]
                    for smaller, larger in zip(reports, reports[1:]):
                        assert larger.offchip_bytes <= smaller.offchip_bytes, (key, style, mem.name)
                        assert larger.energy_total_pj <= smaller.energy_total_pj, (key, style, mem.name)

    def test_bandwidth_helps_only_memory_bound(self):
        acc = small_array()
        compute_bound = fc(64, 64)  # tiny traffic, plenty of compute per byte
        r1 = simulate_layer(compute_bound, acc, MemorySpec("a", 1e15, 0.0), PARAMS)
        r2 = simulate_layer(compute_bound, acc, MemorySpec("b", 2e15, 0.0), PARAMS)
        assert r1.bound == "compute"
        assert r2.total_cycles == r1.total_cycles
        memory_bound = LayerSpec(kind=LayerKind.GEMV, m=4096, k=4096, bw_x=8, bw_w=8)
        big = build_array(Style.VECTOR, PARAMS)
        m1 = simulate_layer(memory_bound, big, DDR4, PARAMS)
        m2 = simulate_layer(memory_bound, big, HBM2, PARAMS)
        assert m1.bound == "memory"
        assert m2.total_cycles < m1.total_cycles

    @pytest.mark.parametrize("style", [Style.SCALAR, Style.VECTOR])
    def test_reducing_bitwidth_never_increases_cycles(self, style):
        acc = build_array(style, PARAMS)
        cycles = []
        for bw in (8, 6, 4, 2, 1):
            layer = fc(512, 512, bw_x=8, bw_w=bw)
            cycles.append(simulate_layer(layer, acc, DDR4, PARAMS).total_cycles)
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))

    def test_conventional_unaffected_by_bitwidth(self):
        acc = build_array(Style.CONVENTIONAL, PARAMS)
        narrow = simulate_layer(fc(512, 512, bw_w=2), acc, DDR4, PARAMS)
        wide = simulate_layer(fc(512, 512), acc, DDR4, PARAMS)
        assert narrow.total_cycles == wide.total_cycles


class TestIsoPowerSizing:
    def test_capacity_ratios(self):
        conv = build_array(Style.CONVENTIONAL, PARAMS)
        scal = build_array(Style.SCALAR, PARAMS)
        vect = build_array(Style.VECTOR, PARAMS)
        assert vect.mac_capacity / conv.mac_capacity == pytest.approx(2.0, rel=0.2)
        assert vect.mac_capacity / scal.mac_capacity == pytest.approx(2.3, rel=0.2)

    def test_equal_sram_budgets(self):
        conv = build_array(Style.CONVENTIONAL, PARAMS)
        vect = build_array(Style.VECTOR, PARAMS)
        assert abs(conv.total_scratchpad_bytes - vect.total_scratchpad_bytes) < max(
            conv.weight_scratchpad_bytes, vect.weight_scratchpad_bytes
        )

    def test_lanes_default_per_style(self):
        assert build_array(Style.VECTOR, PARAMS).cvu.lanes == 16
        for style in (Style.SCALAR, Style.CONVENTIONAL):
            assert build_array(style, PARAMS).cvu.lanes == 1

    def test_scalar_style_requires_one_lane(self):
        with pytest.raises(ConfigError, match="1 lane"):
            AcceleratorConfig(
                rows=2, cols=2, cvu=CvuConfig(lanes=16),
                weight_scratchpad_bytes=1024, style=Style.SCALAR,
            )

    def test_conventional_style_has_one_lane(self):
        # an 8-bit MAC per unit: the array's capacity is its unit count, read from its lanes
        with pytest.raises(ConfigError, match="^conventional style requires 1 lane, got 16$"):
            small_array(style=Style.CONVENTIONAL)
        acc = small_array(cvu=CvuConfig(lanes=1), style=Style.CONVENTIONAL)
        assert acc.mac_capacity == acc.unit_count == 4


class TestCompare:
    def test_self_comparison_is_unity(self):
        acc = build_array(Style.VECTOR, PARAMS)
        net = to_homogeneous(load_network(bundled_networks()["convnet"]))
        entries = compare(net, [(acc, DDR4), (acc, DDR4)], PARAMS)
        assert entries[1].speedup == pytest.approx(1.0)
        assert entries[1].energy_reduction == pytest.approx(1.0)

    def test_needs_two_configs(self):
        acc = build_array(Style.VECTOR, PARAMS)
        with pytest.raises(ConfigError, match="at least 2"):
            compare(to_homogeneous(load_network(bundled_networks()["convnet"])), [(acc, DDR4)], PARAMS)

    def test_hbm2_speedup_at_least_ddr4_on_gemv_net(self):
        conv = build_array(Style.CONVENTIONAL, PARAMS)
        vect = build_array(Style.VECTOR, PARAMS)
        net = to_homogeneous(load_network(bundled_networks()["gru"]))
        entries = compare(net, [(conv, DDR4), (vect, DDR4), (vect, HBM2)], PARAMS)
        assert entries[2].speedup > entries[1].speedup

    def test_vector_beats_scalar_on_heterogeneous(self):
        scal = build_array(Style.SCALAR, PARAMS)
        vect = build_array(Style.VECTOR, PARAMS)
        net = load_network(bundled_networks()["resnet"])
        entries = compare(net, [(scal, DDR4), (vect, DDR4)], PARAMS)
        assert entries[1].speedup > 1.0


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("style", [Style.CONVENTIONAL, Style.SCALAR, Style.VECTOR])
    def test_all_styles_match_exact_dot(self, style):
        rng = random.Random(2024)
        acc = build_array(style, PARAMS)
        for _ in range(60):
            n = rng.randrange(0, 100)
            bw_x, bw_w = rng.randint(1, 8), rng.randint(1, 8)
            sx, sw = rng.random() < 0.5, rng.random() < 0.5
            lo_x, hi_x = value_bounds(bw_x, sx)
            lo_w, hi_w = value_bounds(bw_w, sw)
            x = QuantizedVector(tuple(rng.randint(lo_x, hi_x) for _ in range(n)), bw_x, sx)
            w = QuantizedVector(tuple(rng.randint(lo_w, hi_w) for _ in range(n)), bw_w, sw)
            expected = dot_exact(x, w)
            assert style_dot(x, w, acc) == expected

    def test_gemm_matches_across_styles(self):
        rng = random.Random(7)
        m = k = n = 9
        weights = [
            QuantizedVector(tuple(rng.randint(-8, 7) for _ in range(k)), 4, signed=True)
            for _ in range(m)
        ]
        inputs = [
            QuantizedVector(tuple(rng.randint(0, 15) for _ in range(k)), 4) for _ in range(n)
        ]
        results = [
            functional_gemm(weights, inputs, build_array(style, PARAMS))
            for style in (Style.CONVENTIONAL, Style.SCALAR, Style.VECTOR)
        ]
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("name", ["alexnet", "convnet", "gru", "lstm", "resnet", "vgg"])
    def test_every_bundled_layer_at_full_depth(self, name):
        # one signed weight row and one unsigned input column per layer, as the
        # schema defaults, at its full depth k (25,088 for VGG fc6), every style
        arrays = [build_array(style, PARAMS) for style in Style]
        for i, layer in enumerate(load_network(bundled_networks()[name]).layers):
            rng = random.Random(f"{name}/{i}")
            k = lower_layer(layer).k
            lo_w, hi_w = value_bounds(layer.bw_w, True)
            w = QuantizedVector(tuple(rng.randint(lo_w, hi_w) for _ in range(k)), layer.bw_w, signed=True)
            x = QuantizedVector(tuple(rng.randrange(1 << layer.bw_x) for _ in range(k)), layer.bw_x)
            expected = dot_exact(x, w)
            for acc in arrays:
                assert style_dot(x, w, acc) == expected, (name, i, acc.style)

    @pytest.mark.parametrize("name,index", every_layer_of("convnet", "lstm", "gru"))
    def test_every_layer_whole(self, name, index):
        check_layer_whole(name, index)

    def test_float_oracle_equals_the_int64_product(self):
        # the whole-layer reference against int64 W @ X, on convnet's 64 x 576 x 1024 conv2, and on
        # operands of that shape at their extremes, whose every sum is 576 * -128 * 255
        _, w, x = layer_operands("convnet", 1)
        for w, x in ((w, x), (np.full_like(w, -128), np.full_like(x, 255))):
            assert np.array_equal(float_oracle(w, x), w.astype(np.int64) @ x.astype(np.int64))

    @pytest.mark.parametrize("style", list(Style))
    def test_gemm_length_mismatch(self, style):
        weights = [QuantizedVector((1, 2, 3), 4), QuantizedVector((1, 2), 4)]
        # conventional units check each dot product, composable ones every operand of the tile
        message = "vector length mismatch: 3 vs 2" if style is Style.CONVENTIONAL else r"operands differ in length: \[2, 3\]"
        with pytest.raises(ShapeError, match=f"^{message}$"):
            functional_gemm(weights, [QuantizedVector((1, 2, 3), 4)], build_array(style, PARAMS))

    def test_dot_length_mismatch(self):
        with pytest.raises(ShapeError, match=r"^vector length mismatch: 2 vs 1$"):
            functional_dot(QuantizedVector((1, 2), 4), QuantizedVector((1,), 4))

    @pytest.mark.parametrize("style", list(Style))
    def test_gemm_empty_sides(self, style):
        acc = build_array(style, PARAMS)
        col = QuantizedVector((1, 2), 4)
        assert functional_gemm([], [col], acc) == []
        assert functional_gemm([col, col], [], acc) == [[], []]

    @pytest.mark.parametrize("style", list(Style))
    def test_extreme_operands_stay_within_the_output_bound(self, style):
        # every output is an exact dot product of at most k * 2**16 in magnitude, far
        # inside int64: the largest-magnitude product, 255 * -128, at every element
        k = 4096
        x = QuantizedVector((255,) * k, 8)
        w = QuantizedVector((-128,) * k, 8, signed=True)
        expected = dot_exact(x, w)
        assert expected == -255 * 128 * k and abs(expected) <= k << 16
        assert functional_gemm([w, w], [x, x], build_array(style, PARAMS)) == [[expected] * 2] * 2

    @pytest.mark.parametrize("style", list(Style))
    def test_outputs_are_python_ints(self, style):
        # not np.int64: an output must add, compare and print as the oracle's Python int does
        rng = random.Random(17)
        ws = [QuantizedVector([rng.randint(-128, 127) for _ in range(33)], 8, signed=True) for _ in range(2)]
        xs = [QuantizedVector([rng.randrange(256) for _ in range(33)], 8) for _ in range(3)]
        acc = build_array(style, PARAMS)
        out = functional_gemm(ws, xs, acc)
        assert out == [[dot_exact(x, w) for x in xs] for w in ws]
        assert all(type(value) is int for row in out for value in row)
        assert type(style_dot(xs[0], ws[0], acc)) is int

    def test_conventional_dot_bound_checked_up_front(self):
        # a stand-in vector whose array is long enough that k * 2**(bw_x + bw_w) reaches 2**53,
        # past which float64 could round a partial sum: at 8x8 bits, k = 2**37 - 1 is the longest allowed
        class LongArray:
            def __init__(self, length):
                self.length = length

            def __len__(self):
                return self.length

            def dot(self, other):
                return 0

        class Long:
            bitwidth = 8

            def __init__(self, length):
                self.array = LongArray(length)

            def __len__(self):
                return len(self.array)

        assert functional_dot(Long((1 << 37) - 1), Long((1 << 37) - 1)) == 0
        message = r"^137438953472 MACs at 8x8 bits could pass float64's exact integer range$"
        with pytest.raises(RangeError, match=message):
            functional_dot(Long(1 << 37), Long(1 << 37))

    @pytest.mark.parametrize("w_value,signed", [(255, False), (-113, True)])
    def test_plane_products_past_2_to_24(self, w_value, signed):
        # 4-bit slices at their largest magnitudes (15, and -8 for a signed top slice) over
        # 2**17 - 1 lanes of one cluster: the low planes' dot product is 225 * k, an odd
        # integer between 2**24 and 2**25, which no float32 kernel can hold
        k, cvu = (1 << 17) - 1, CvuConfig(lanes=16, slice_width=4)
        x = QuantizedVector((255,) * k, 8)
        w = QuantizedVector((w_value,) * k, 8, signed)
        arrays = [
            small_array(cvu=cvu),
            small_array(cvu=cvu._replace(lanes=1), style=Style.SCALAR),
            small_array(cvu=CvuConfig(lanes=1), style=Style.CONVENTIONAL),
        ]
        assert plan_composition(8, 8, cvu).clusters == 1  # one cluster: all k elements on its lanes
        for acc in arrays:
            assert style_dot(x, w, acc) == dot_exact(x, w), acc.style

    def test_within_64bit_bounds_no_overflow(self):
        n = 1 << 16
        acc = build_array(Style.VECTOR, PARAMS)
        x = QuantizedVector((127,) * n, 8, signed=True)
        w = QuantizedVector((-128,) * n, 8, signed=True)
        assert style_dot(x, w, acc) == 127 * -128 * n
