"""Composition planning, cycle execution, and throughput laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvusim.bitslice import QuantizedVector, SliceConfig, dot_exact, value_bounds
from cvusim.cvu import CvuConfig, execute_cycle, macs_per_cycle, plan_composition
from cvusim.errors import RangeError, ShapeError

DEFAULT = CvuConfig(lanes=16)


def rand_vector(rng, n, bw, signed):
    lo, hi = value_bounds(bw, signed)
    return QuantizedVector(tuple(rng.randint(lo, hi) for _ in range(n)), bw, signed)


class TestPlanComposition:
    def test_homogeneous_8bit(self):
        plan = plan_composition(8, 8, DEFAULT)
        assert (plan.clusters, plan.nbves_per_cluster) == (1, 16)
        assert plan.effective_length == 16

    def test_8x2_clusters(self):
        plan = plan_composition(8, 2, DEFAULT)
        assert (plan.clusters, plan.nbves_per_cluster) == (4, 4)
        assert plan.effective_length == 4 * 16

    def test_2x2_independent(self):
        plan = plan_composition(2, 2, DEFAULT)
        assert (plan.clusters, plan.nbves_per_cluster) == (16, 1)

    def test_4x4(self):
        plan = plan_composition(4, 4, DEFAULT)
        assert (plan.clusters, plan.nbves_per_cluster) == (4, 4)
        assert plan.effective_length == 4 * 16

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            plan_composition(0, 8, DEFAULT)
        with pytest.raises(RangeError):
            plan_composition(8, 9, DEFAULT)

    @pytest.mark.parametrize("bw_x", range(1, 9))
    @pytest.mark.parametrize("bw_w", range(1, 9))
    def test_full_utilization_everywhere(self, bw_x, bw_w):
        plan = plan_composition(bw_x, bw_w, DEFAULT)
        assert plan.clusters * plan.nbves_per_cluster == DEFAULT.nbve_count
        assert plan.effective_length == plan.clusters * DEFAULT.lanes

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (1, 2), (2, 4), (4, 4)])
    def test_full_utilization_other_slicings(self, alpha, beta):
        cfg = CvuConfig(lanes=4, slice=SliceConfig(alpha, beta))
        for bw_x in range(1, 9):
            for bw_w in range(1, 9):
                plan = plan_composition(bw_x, bw_w, cfg)
                assert plan.clusters * plan.nbves_per_cluster == cfg.nbve_count

    def test_shifts_follow_plane_grid(self):
        plan = plan_composition(8, 4, DEFAULT)
        expected = [2 * j + 2 * k for j in range(4) for k in range(2)]
        assert list(plan.shifts) == expected


class TestMacsPerCycle:
    def test_homogeneous(self):
        assert macs_per_cycle(plan_composition(8, 8, DEFAULT), DEFAULT) == 16

    def test_8x2(self):
        assert macs_per_cycle(plan_composition(8, 2, DEFAULT), DEFAULT) == 64

    def test_2x2(self):
        assert macs_per_cycle(plan_composition(2, 2, DEFAULT), DEFAULT) == 256

    @pytest.mark.parametrize("bw_x", range(1, 9))
    @pytest.mark.parametrize("bw_w", range(1, 9))
    def test_throughput_law(self, bw_x, bw_w):
        plan = plan_composition(bw_x, bw_w, DEFAULT)
        assert macs_per_cycle(plan, DEFAULT) == 16 * (8 // plan.bw_x) * (8 // plan.bw_w)

    def test_halving_padded_width_doubles(self):
        for bw in (8, 4):
            full = macs_per_cycle(plan_composition(bw, 8, DEFAULT), DEFAULT)
            half = macs_per_cycle(plan_composition(bw // 2, 8, DEFAULT), DEFAULT)
            assert half == 2 * full

    def test_monotone_in_bitwidth(self):
        for fixed in range(1, 9):
            seq = [macs_per_cycle(plan_composition(bw, fixed, DEFAULT), DEFAULT) for bw in range(1, 9)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))
            seq = [macs_per_cycle(plan_composition(fixed, bw, DEFAULT), DEFAULT) for bw in range(1, 9)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_scalar_composable_degenerate(self):
        # one-lane configuration: the per-scalar composable design point
        cfg = CvuConfig(lanes=1)
        assert macs_per_cycle(plan_composition(8, 8, cfg), cfg) == 1


class TestExecuteCycle:
    def test_homogeneous_example(self):
        cfg = CvuConfig(lanes=2)
        plan = plan_composition(8, 8, cfg)
        x = QuantizedVector((13, 5), 8)
        w = QuantizedVector((9, 6), 8)
        out = execute_cycle([x], [w], plan)
        assert out.scalars == (147,)
        assert out.utilization == 1.0

    def test_sixteen_identities(self):
        plan = plan_composition(2, 2, DEFAULT)
        one = QuantizedVector((1,), 2)
        out = execute_cycle([one] * 16, [one] * 16, plan)
        assert out.scalars == (1,) * 16

    def test_8x2_clusters_match_oracle(self):
        rng = random.Random(99)
        plan = plan_composition(8, 2, DEFAULT)
        xs = [rand_vector(rng, 16, 8, True) for _ in range(4)]
        ws = [rand_vector(rng, 16, 2, False) for _ in range(4)]
        out = execute_cycle(xs, ws, plan)
        assert out.scalars == tuple(dot_exact(x, w) for x, w in zip(xs, ws))

    def test_short_tiles_zero_padded(self):
        plan = plan_composition(8, 8, DEFAULT)
        x = QuantizedVector((3, 4), 8)
        w = QuantizedVector((5, 6), 8)
        out = execute_cycle([x], [w], plan)
        assert out.scalars == (39,)
        assert out.utilization == pytest.approx(2 / 16)

    def test_tile_count_mismatch(self):
        plan = plan_composition(8, 2, DEFAULT)
        x = QuantizedVector((1,), 8)
        with pytest.raises(ShapeError):
            execute_cycle([x], [x], plan)

    def test_tile_too_long(self):
        cfg = CvuConfig(lanes=2)
        plan = plan_composition(8, 8, cfg)
        x = QuantizedVector((1, 2, 3), 8)
        with pytest.raises(ShapeError):
            execute_cycle([x], [x], plan)

    def test_multi_cycle_dispatch(self):
        # 3 elements over 2 cycles of 2 lanes: 3 of 4 lane slots hold an element
        plan = plan_composition(8, 8, CvuConfig(lanes=2))
        x = QuantizedVector((13, 5, 7), 8)
        w = QuantizedVector((9, 6, 2), 8)
        out = execute_cycle([x], [w], plan, cycles=2)
        assert out.scalars == (13 * 9 + 5 * 6 + 7 * 2,)
        assert out.utilization == 3 / 4

    def test_multi_cycle_tile_too_long(self):
        plan = plan_composition(8, 8, CvuConfig(lanes=2))
        x = QuantizedVector((1, 2, 3, 4, 5), 8)
        with pytest.raises(ShapeError):
            execute_cycle([x], [x], plan, cycles=2)

    def test_zero_cycles(self):
        plan = plan_composition(8, 8, CvuConfig(lanes=2))
        x = QuantizedVector((1,), 8)
        with pytest.raises(ShapeError):
            execute_cycle([x], [x], plan, cycles=0)

    @settings(max_examples=150, deadline=None)
    @given(
        bw_x=st.integers(1, 8),
        bw_w=st.integers(1, 8),
        lanes=st.sampled_from([1, 2, 4, 16]),
        cycles=st.sampled_from([1, 2, 3]),
        signed_x=st.booleans(),
        signed_w=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_functional_equivalence(self, bw_x, bw_w, lanes, cycles, signed_x, signed_w, seed):
        rng = random.Random(seed)
        cfg = CvuConfig(lanes=lanes)
        plan = plan_composition(bw_x, bw_w, cfg)
        xs, ws = [], []
        for _ in range(plan.clusters):
            n = rng.randint(0, lanes * cycles)
            xs.append(rand_vector(rng, n, bw_x, signed_x))
            ws.append(rand_vector(rng, n, bw_w, signed_w))
        out = execute_cycle(xs, ws, plan, cycles=cycles)
        assert out.scalars == tuple(dot_exact(x, w) for x, w in zip(xs, ws))
        assert out.utilization == sum(map(len, xs)) / (cycles * plan.effective_length)
