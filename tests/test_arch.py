"""Array simulation: lowering, cycle model, energy accounting, comparisons."""

import random
from dataclasses import replace

import pytest

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
from cvusim.bitslice import QuantizedVector, dot_exact, value_bounds
from cvusim.cost import default_params
from cvusim.cvu import CvuConfig
from cvusim.errors import AccumulatorOverflowError, ConfigError
from cvusim.workloads import LayerKind, LayerSpec, NetworkSpec, load_bundled, to_homogeneous

PARAMS = default_params()
INFINITE = MemorySpec("infinite", 1e18, 0.0)


def small_array(**kwargs):
    defaults = dict(
        rows=2, cols=2, cvu=CvuConfig(lanes=16), weight_scratchpad_bytes=1 << 20, style=Style.VECTOR
    )
    defaults.update(kwargs)
    return AcceleratorConfig(**defaults)


def fc(m, k, bw_x=8, bw_w=8, **kw):
    return LayerSpec(kind=LayerKind.FC, m=m, k=k, bw_x=bw_x, bw_w=bw_w, **kw)


class TestLowerLayer:
    def test_conv_im2col(self):
        layer = LayerSpec(
            kind=LayerKind.CONV, bw_x=8, bw_w=8, in_channels=3, out_channels=64,
            height=32, width=32, kernel_h=3, kernel_w=3,
        )
        dims = lower_layer(layer)
        assert (dims.m, dims.k, dims.n) == (64, 27, 1024)

    def test_fc(self):
        dims = lower_layer(fc(1024, 1024))
        assert (dims.m, dims.k, dims.n) == (1024, 1024, 1)

    def test_gemv_weight_reuse_is_one(self):
        dims = lower_layer(LayerSpec(kind=LayerKind.GEMV, m=512, k=512, bw_x=8, bw_w=8))
        assert dims.weight_reuse == 1


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
        net = to_homogeneous(load_bundled("alexnet"))
        for layer in simulate_network(net, acc, DDR4, PARAMS).layers:
            assert (layer.bound == "memory") == (layer.memory_cycles > layer.compute_cycles)

    def test_scratchpad_too_small_for_weight_vector(self):
        acc = small_array(weight_scratchpad_bytes=8)  # one 16-element 8-bit vector needs 16
        with pytest.raises(ConfigError, match="scratchpad"):
            simulate_layer(fc(64, 64), acc, INFINITE, PARAMS)

    def test_weight_row_exceeding_total_capacity(self):
        acc = small_array(weight_scratchpad_bytes=64)
        with pytest.raises(ConfigError, match="combined scratchpad"):
            simulate_layer(fc(64, 4096), acc, INFINITE, PARAMS)

    def test_utilization_bounds(self):
        report = simulate_layer(fc(64, 60), small_array(), INFINITE, PARAMS)
        assert 0 < report.utilization <= 1

    def test_conventional_clamps_heterogeneous_with_warning(self):
        acc = build_array(Style.CONVENTIONAL, PARAMS)
        layer = fc(64, 64, bw_x=4, bw_w=2)
        with pytest.warns(UserWarning, match="8 bit"):
            report = simulate_layer(layer, acc, INFINITE, PARAMS)
        assert (report.bw_x, report.bw_w) == (8, 8)
        baseline = simulate_layer(fc(64, 64), acc, INFINITE, PARAMS)
        assert report.compute_cycles == baseline.compute_cycles


class TestRepeats:
    def test_resident_weights_amortize(self):
        # weights fit: repeats after the first skip the weight fetch
        acc = build_array(Style.VECTOR, PARAMS)
        single = LayerSpec(kind=LayerKind.GEMV, m=512, k=512, bw_x=8, bw_w=8)
        repeated = replace(single, repeat=10)
        r1 = simulate_layer(single, acc, DDR4, PARAMS)
        r10 = simulate_layer(repeated, acc, DDR4, PARAMS)
        assert r10.offchip_bytes < 10 * r1.offchip_bytes
        assert r10.compute_cycles == 10 * r1.compute_cycles

    def test_non_resident_weights_refetch(self):
        acc = build_array(Style.VECTOR, PARAMS, total_sram_bytes=1 << 16)
        layer = LayerSpec(kind=LayerKind.GEMV, m=512, k=512, bw_x=8, bw_w=8, repeat=5)
        single = simulate_layer(replace(layer, repeat=1), acc, DDR4, PARAMS)
        five = simulate_layer(layer, acc, DDR4, PARAMS)
        assert five.offchip_bytes == 5 * single.offchip_bytes


class TestSimulateNetwork:
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
        report = simulate_network(to_homogeneous(load_bundled("convnet")), acc, DDR4, PARAMS)
        assert report.energy_total_pj == pytest.approx(
            report.energy_compute_pj + report.energy_sram_pj + report.energy_offchip_pj
        )
        for layer in report.layers:
            assert layer.energy_compute_pj >= 0
            assert layer.energy_sram_pj >= 0
            assert layer.energy_offchip_pj >= 0

    def test_offchip_energy_linear_in_bytes_and_pj(self):
        acc = build_array(Style.VECTOR, PARAMS)
        net = to_homogeneous(load_bundled("convnet"))
        base = simulate_network(net, acc, DDR4, PARAMS)
        pricier = simulate_network(net, acc, MemorySpec("ddr4x3", DDR4.bandwidth_bytes_per_s, 45.0), PARAMS)
        assert pricier.energy_offchip_pj == pytest.approx(3 * base.energy_offchip_pj)
        bits = sum(l.offchip_bytes for l in base.layers) * 8
        assert base.energy_offchip_pj == pytest.approx(bits * 15.0)


class TestMonotonicity:
    def test_bandwidth_never_hurts(self):
        acc = build_array(Style.VECTOR, PARAMS)
        for name in ("alexnet", "lstm"):
            net = to_homogeneous(load_bundled(name))
            slow = simulate_network(net, acc, DDR4, PARAMS)
            fast = simulate_network(net, acc, HBM2, PARAMS)
            assert fast.total_cycles <= slow.total_cycles

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
        with pytest.warns(UserWarning):
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

    def test_scalar_style_requires_one_lane(self):
        with pytest.raises(ConfigError, match="1 lane"):
            AcceleratorConfig(
                rows=2, cols=2, cvu=CvuConfig(lanes=16),
                weight_scratchpad_bytes=1024, style=Style.SCALAR,
            )


class TestCompare:
    def test_self_comparison_is_unity(self):
        acc = build_array(Style.VECTOR, PARAMS)
        net = to_homogeneous(load_bundled("convnet"))
        entries = compare(net, [(acc, DDR4), (acc, DDR4)], PARAMS)
        assert entries[1].speedup == pytest.approx(1.0)
        assert entries[1].energy_reduction == pytest.approx(1.0)

    def test_needs_two_configs(self):
        acc = build_array(Style.VECTOR, PARAMS)
        with pytest.raises(ConfigError, match="at least 2"):
            compare(to_homogeneous(load_bundled("convnet")), [(acc, DDR4)], PARAMS)

    def test_hbm2_speedup_at_least_ddr4_on_gemv_net(self):
        conv = build_array(Style.CONVENTIONAL, PARAMS)
        vect = build_array(Style.VECTOR, PARAMS)
        net = to_homogeneous(load_bundled("gru"))
        entries = compare(net, [(conv, DDR4), (vect, DDR4), (vect, HBM2)], PARAMS)
        assert entries[2].speedup > entries[1].speedup

    def test_vector_beats_scalar_on_heterogeneous(self):
        scal = build_array(Style.SCALAR, PARAMS)
        vect = build_array(Style.VECTOR, PARAMS)
        net = load_bundled("resnet")
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
            expected = sum(a * b for a, b in zip(x.values, w.values))
            assert functional_dot(x, w, acc) == expected

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
        for i, layer in enumerate(load_bundled(name).layers):
            rng = random.Random(f"{name}/{i}")
            k = lower_layer(layer).k
            lo_w, hi_w = value_bounds(layer.bw_w, True)
            w = QuantizedVector(tuple(rng.randint(lo_w, hi_w) for _ in range(k)), layer.bw_w, signed=True)
            x = QuantizedVector(tuple(rng.randrange(1 << layer.bw_x) for _ in range(k)), layer.bw_x)
            expected = dot_exact(x, w)
            for acc in arrays:
                assert functional_dot(x, w, acc) == expected, (name, i, acc.style)

    def test_within_64bit_bounds_no_overflow(self):
        n = 1 << 16
        acc = build_array(Style.VECTOR, PARAMS)
        x = QuantizedVector((127,) * n, 8, signed=True)
        w = QuantizedVector((-128,) * n, 8, signed=True)
        assert functional_dot(x, w, acc) == 127 * -128 * n
