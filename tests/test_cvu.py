"""Composition planning, cycle execution, and throughput laws."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvusim.cvu as cvu
from cvusim.arch import Style, build_array, functional_gemm
from cvusim.bitslice import QuantizedVector, value_bounds
from cvusim.cost import default_params
from cvusim.cvu import execute_cycle
from cvusim.errors import RangeError, ShapeError
from cvusim.plan import CompositionPlan, CvuConfig, plan_composition

from oracles import dot_exact

DEFAULT = CvuConfig(lanes=16)


def rand_vector(rng, n, bw, signed):
    lo, hi = value_bounds(bw, signed)
    return QuantizedVector(tuple(rng.randint(lo, hi) for _ in range(n)), bw, signed)


class TestPlanComposition:
    def test_homogeneous_8bit(self):
        plan = plan_composition(8, 8, DEFAULT)
        assert (plan.clusters, len(plan.shifts)) == (1, 16)
        assert plan.effective_length == 16

    def test_8x2_clusters(self):
        plan = plan_composition(8, 2, DEFAULT)
        assert (plan.clusters, len(plan.shifts)) == (4, 4)
        assert plan.effective_length == 4 * 16

    def test_2x2_independent(self):
        plan = plan_composition(2, 2, DEFAULT)
        assert (plan.clusters, len(plan.shifts)) == (16, 1)

    def test_4x4(self):
        plan = plan_composition(4, 4, DEFAULT)
        assert (plan.clusters, len(plan.shifts)) == (4, 4)
        assert plan.effective_length == 4 * 16

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            plan_composition(0, 8, DEFAULT)
        with pytest.raises(RangeError):
            plan_composition(8, 9, DEFAULT)
        with pytest.raises(RangeError):  # wider than MAX_BITWIDTH
            plan_composition(9, 8, DEFAULT)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CvuConfig(slice_width=2.0),
            lambda: CvuConfig(lanes=4, slice_width=4.0),
            lambda: CvuConfig(lanes=16.0),
            lambda: QuantizedVector((1,), 2.5),
            lambda: QuantizedVector((1,), 4.0),
            lambda: plan_composition(7.5, 8, DEFAULT),
            lambda: plan_composition(8, 8.0, DEFAULT),
        ],
        ids=["slice-floats", "slice-float-with-lanes", "lanes-float", "bitwidth-fraction", "bitwidth-float",
             "plan-bw-x-fraction", "plan-bw-w-float"],
    )
    def test_non_integer_arguments_rejected_at_construction(self, build):
        # a float that equals a valid integer passes a range or membership test,
        # then fails later with a TypeError; it must be named where it is given
        with pytest.raises(RangeError, match="got [0-9.]+$"):
            build()

    @pytest.mark.parametrize("width", [0, 3, 8])
    def test_slice_width_outside_the_valid_set_rejected(self, width):
        with pytest.raises(RangeError, match=rf"slice_width must be one of \(1, 2, 4\), got {width}$"):
            CvuConfig(slice_width=width)

    def test_repeat_calls_share_one_plan_and_errors_are_not_cached(self):
        cfg = CvuConfig(lanes=4, slice_width=4)
        plan = plan_composition(6, 3, cfg)
        assert plan_composition(6, 3, cfg) is plan
        assert plan_composition(6, 3, CvuConfig(lanes=4, slice_width=4)) is plan  # an equal config
        for bw_x, bw_w in ((0, 8), (8, 9), (9, 8), (-1, 4)):
            for _ in range(2):
                with pytest.raises(RangeError):
                    plan_composition(bw_x, bw_w, cfg)

    @pytest.mark.parametrize("bw_x", range(1, 9))
    @pytest.mark.parametrize("bw_w", range(1, 9))
    def test_full_utilization_everywhere(self, bw_x, bw_w):
        plan = plan_composition(bw_x, bw_w, DEFAULT)
        assert plan.clusters * len(plan.shifts) == DEFAULT.nbve_count
        assert plan.effective_length == plan.clusters * DEFAULT.lanes

    @pytest.mark.parametrize("slice_width", [1, 2, 4])
    def test_full_utilization_other_slicings(self, slice_width):
        cfg = CvuConfig(lanes=4, slice_width=slice_width)
        for bw_x in range(1, 9):
            for bw_w in range(1, 9):
                plan = plan_composition(bw_x, bw_w, cfg)
                assert plan.clusters * len(plan.shifts) == cfg.nbve_count

    def test_shifts_follow_plane_grid(self):
        plan = plan_composition(8, 4, DEFAULT)
        expected = [2 * j + 2 * k for j in range(4) for k in range(2)]
        assert list(plan.shifts) == expected
        # 4-bit slices: 6-bit x pads to 2 planes
        plan = plan_composition(6, 8, CvuConfig(slice_width=4))
        assert (plan.bw_x, plan.bw_w) == (8, 8)
        assert list(plan.shifts) == [4 * j + 4 * k for j in range(2) for k in range(2)]


class TestMacsPerCycle:
    # a unit's MACs per cycle is its plan's effective length
    def test_homogeneous(self):
        assert plan_composition(8, 8, DEFAULT).effective_length == 16

    def test_8x2(self):
        assert plan_composition(8, 2, DEFAULT).effective_length == 64

    def test_2x2(self):
        assert plan_composition(2, 2, DEFAULT).effective_length == 256

    @pytest.mark.parametrize("bw_x", range(1, 9))
    @pytest.mark.parametrize("bw_w", range(1, 9))
    def test_throughput_law(self, bw_x, bw_w):
        plan = plan_composition(bw_x, bw_w, DEFAULT)
        assert plan.effective_length == 16 * (8 // plan.bw_x) * (8 // plan.bw_w)

    def test_halving_padded_width_doubles(self):
        for bw in (8, 4):
            full = plan_composition(bw, 8, DEFAULT).effective_length
            half = plan_composition(bw // 2, 8, DEFAULT).effective_length
            assert half == 2 * full

    def test_monotone_in_bitwidth(self):
        for fixed in range(1, 9):
            seq = [plan_composition(bw, fixed, DEFAULT).effective_length for bw in range(1, 9)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))
            seq = [plan_composition(fixed, bw, DEFAULT).effective_length for bw in range(1, 9)]
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_scalar_composable_degenerate(self):
        # one-lane configuration: the per-scalar composable design point
        assert plan_composition(8, 8, CvuConfig(lanes=1)).effective_length == 1


def flat(out):
    """A call's scalars in ravel order, w, then x, then cluster, as Python ints."""
    return tuple(out.scalars.ravel().tolist())


def cluster_dots(xs, ws, plan, cycles):
    """Oracle scalars in execute_cycle's order: cluster c of pair (w, x) reduces
    elements [c * cycles * lanes, (c + 1) * cycles * lanes)."""
    chunk = cycles * plan.lanes

    def part(v, lo):
        return QuantizedVector(v.array[lo : lo + chunk].tolist(), v.bitwidth, v.signed)

    return tuple(
        dot_exact(part(x, lo), part(w, lo)) for w in ws for x in xs for lo in range(0, plan.clusters * chunk, chunk)
    )


class TestExecuteCycle:
    def test_homogeneous_example(self):
        cases = [
            (QuantizedVector((13, 5), 8), QuantizedVector((9, 6), 8), 147),
            (QuantizedVector((13, 5), 4), QuantizedVector((9, 6), 4), 147),
            (QuantizedVector((-100, 77), 8, signed=True), QuantizedVector((3, -128), 8, signed=True), -10156),
            (QuantizedVector((1,), 8), QuantizedVector((1,), 8), 1),
        ]
        for x, w, expected in cases:
            # planned at the operands' own widths; the stream fits the first cluster, the others get zeros
            assert dot_exact(x, w) == expected
            plan = plan_composition(x.bitwidth, w.bitwidth, CvuConfig(lanes=2))
            out = execute_cycle([x], [w], plan)
            assert flat(out) == (expected,) + (0,) * (plan.clusters - 1)
            assert out.utilization == len(x) / plan.effective_length

    def test_plane_count(self, monkeypatch):
        # one engine dot product per (x plane, w plane) pair of every cluster
        # of every (w, x) pair, all from one batched engine op per call
        shapes = []
        real = cvu.nbve_dot

        def spy(x_planes, w_planes):
            products = real(x_planes, w_planes)
            shapes.append(products.shape)
            return products

        monkeypatch.setattr(cvu, "nbve_dot", spy)
        plan = plan_composition(5, 3, DEFAULT)
        assert (plan.clusters, len(plan.shifts)) == (2, 8)
        x = QuantizedVector((5, 2), 5)
        w = QuantizedVector((1, 3), 3)
        assert flat(execute_cycle([x], [w], plan)) == (11, 0)
        assert len(shapes) == 1 and math.prod(shapes[0]) == plan.clusters * len(plan.shifts)
        shapes.clear()
        execute_cycle([x] * 2, [w] * 3, plan)
        assert len(shapes) == 1 and math.prod(shapes[0]) == 3 * 2 * plan.clusters * len(plan.shifts)

    def test_sixteen_identities(self):
        # sixteen one-lane clusters, one element each
        plan = plan_composition(2, 2, CvuConfig(lanes=1))
        ones = QuantizedVector((1,) * 16, 2)
        assert flat(execute_cycle([ones], [ones], plan)) == (1,) * 16

    def test_8x2_clusters_match_oracle(self):
        rng = random.Random(99)
        plan = plan_composition(8, 2, DEFAULT)
        assert plan.clusters == 4
        x, w = rand_vector(rng, 50, 8, True), rand_vector(rng, 50, 2, False)  # the last cluster is short
        assert flat(execute_cycle([x], [w], plan)) == cluster_dots([x], [w], plan, 1)

    def test_short_tiles_zero_padded(self):
        plan = plan_composition(8, 8, DEFAULT)
        x = QuantizedVector((3, 4), 8)
        w = QuantizedVector((5, 6), 8)
        out = execute_cycle([x], [w], plan)
        assert flat(out) == (39,)
        assert out.utilization == pytest.approx(2 / 16)

    def test_multi_cycle_dispatch(self):
        # 3 elements take 2 cycles of 2 lanes: 3 of 4 lane slots hold an element
        plan = plan_composition(8, 8, CvuConfig(lanes=2))
        x = QuantizedVector((13, 5, 7), 8)
        w = QuantizedVector((9, 6, 2), 8)
        out = execute_cycle([x], [w], plan)
        assert flat(out) == (13 * 9 + 5 * 6 + 7 * 2,)
        assert out.utilization == 3 / 4

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        bw_x=st.integers(1, 8),
        bw_w=st.integers(1, 8),
        slice_width=st.sampled_from([1, 2, 4]),
        lanes=st.sampled_from([1, 2, 4, 16]),
        signed_x=st.booleans(),
        signed_w=st.booleans(),
        m=st.integers(0, 3),
        n=st.integers(1, 3),  # an x operand fixes k
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_functional_equivalence(self, bw_x, bw_w, slice_width, lanes, signed_x, signed_w, m, n, data, seed):
        rng = random.Random(seed)
        plan = plan_composition(bw_x, bw_w, CvuConfig(lanes=lanes, slice_width=slice_width))
        k = data.draw(st.integers(0, 3 * plan.effective_length))  # up to 3 cycles
        cycles = max(1, -(-k // plan.effective_length))
        xs = [rand_vector(rng, k, bw_x, signed_x) for _ in range(n)]
        ws = [rand_vector(rng, k, bw_w, signed_w) for _ in range(m)]
        out = execute_cycle(xs, ws, plan)
        with mock.patch.object(cvu, "_BLOCK_ELEMENTS", 1):  # one operand per block on each side
            blocked = execute_cycle(xs, ws, plan)
        assert out.scalars.sum(axis=2).ravel().tolist() == [dot_exact(x, w) for w in ws for x in xs]
        assert flat(out) == flat(blocked) == cluster_dots(xs, ws, plan, cycles)
        assert out.utilization == blocked.utilization == k / (cycles * plan.effective_length)


class TestExecuteBatch:
    # n x and m w operands of one length in one call, and the checks on such a set
    def test_matches_oracle_cluster_by_cluster(self):
        rng = random.Random(3)
        plan = plan_composition(4, 4, CvuConfig(lanes=2))
        assert plan.clusters == 4
        cycles, k = 3, 21  # 8 elements per cycle; 24 lane slots per cluster row: the last cluster is short
        xs = [rand_vector(rng, k, 4, False) for _ in range(3)]
        ws = [rand_vector(rng, k, 4, True) for _ in range(2)]
        out = execute_cycle(xs, ws, plan)
        assert flat(out) == cluster_dots(xs, ws, plan, cycles)
        assert out.utilization == k / (cycles * plan.effective_length)

    def test_scalars_are_one_read_only_int64_array(self):
        # [w, x, cluster], in the order the scalars always had; functional_gemm sums them into Python ints
        rng = random.Random(7)
        plan = plan_composition(8, 2, CvuConfig(lanes=1))
        xs = [rand_vector(rng, 9, 8, False) for _ in range(3)]
        ws = [rand_vector(rng, 9, 2, True) for _ in range(2)]
        scalars = execute_cycle(xs, ws, plan).scalars
        assert isinstance(scalars, np.ndarray) and scalars.dtype == np.int64 and scalars.shape == (2, 3, plan.clusters)
        assert not scalars.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            scalars[0, 0, 0] = 1
        assert tuple(scalars.ravel().tolist()) == cluster_dots(xs, ws, plan, 3)  # 9 elements at 4 per cycle
        out = functional_gemm(ws, xs, build_array(Style.SCALAR, default_params()))
        assert out == [[dot_exact(x, w) for x in xs] for w in ws]
        assert all(type(value) is int for row in out for value in row)

    def test_blocks_of_w_operands(self, monkeypatch):
        # one w operand per block gives the same scalars as one block for all
        rng = random.Random(5)
        plan = plan_composition(8, 4, CvuConfig(lanes=4))
        xs = [rand_vector(rng, 30, 8, False) for _ in range(3)]
        ws = [rand_vector(rng, 30, 4, True) for _ in range(5)]
        whole = execute_cycle(xs, ws, plan)
        monkeypatch.setattr(cvu, "_BLOCK_ELEMENTS", 1)
        blocked = execute_cycle(xs, ws, plan)
        assert (flat(blocked), blocked.utilization) == (flat(whole), whole.utilization)
        assert flat(whole) == cluster_dots(xs, ws, plan, 4)  # 30 elements at 8 per cycle

    @pytest.mark.parametrize("slice_width", [1, 2, 4])
    @pytest.mark.parametrize("bw_x,bw_w", [(6, 3), (5, 3), (4, 2), (8, 2)])
    def test_single_operand_blocks_on_both_sides(self, monkeypatch, bw_x, bw_w, slice_width):
        # one operand per block on each side gives the same scalars as the default blocks, at
        # padded widths, with several clusters, several cycles and a short last cluster
        rng = random.Random(bw_x * 100 + bw_w * 10 + slice_width)
        plan = plan_composition(bw_x, bw_w, CvuConfig(lanes=4, slice_width=slice_width))
        k = 2 * plan.effective_length + 3
        xs = [rand_vector(rng, k, bw_x, signed=i % 2 == 1) for i in range(3)]
        ws = [rand_vector(rng, k, bw_w, signed=True) for _ in range(4)]
        whole = execute_cycle(xs, ws, plan)
        monkeypatch.setattr(cvu, "_BLOCK_ELEMENTS", 1)
        blocked = execute_cycle(xs, ws, plan)
        assert (flat(blocked), blocked.utilization) == (flat(whole), whole.utilization)
        assert plan.clusters > 1 and flat(whole) == cluster_dots(xs, ws, plan, 3)

    def test_each_side_of_each_block_sliced_in_one_call(self, monkeypatch):
        # one slice_vector call per side per block holds all that block's operands; an x block is
        # staged beside its first w block and sliced once, and its planes serve every w block
        plan = plan_composition(8, 4, DEFAULT)
        width = plan.clusters * 3  # three elements in one cycle: each cluster's three lanes, zero-padded
        calls = []  # (side, the first element of each operand sliced)
        real = cvu.slice_vector

        def spy(values, slice_width, *, bitwidth):
            calls.append(("x" if bitwidth == plan.bw_x else "w", values.reshape(-1, width)[:, 0].tolist()))
            return real(values, slice_width, bitwidth=bitwidth)

        monkeypatch.setattr(cvu, "slice_vector", spy)
        xs = [QuantizedVector((i, 1, 2), 8) for i in range(5)]
        ws = [QuantizedVector((i, 2, 3), 4) for i in range(4)]
        out = execute_cycle(xs, ws, plan)
        assert calls == [("x", [0, 1, 2, 3, 4]), ("w", [0, 1, 2, 3])]  # one block per side
        calls.clear()
        assert flat(execute_cycle(xs[:1], ws, plan)) == cluster_dots(xs[:1], ws, plan, 1)  # a GEMV
        assert calls == [("x", [0]), ("w", [0, 1, 2, 3])]
        calls.clear()
        monkeypatch.setattr(cvu, "_BLOCK_ELEMENTS", 1)
        blocked = execute_cycle(xs, ws, plan)
        assert (flat(blocked), blocked.utilization) == (flat(out), out.utilization)
        # each x operand sliced once, then the four w blocks it meets
        assert calls == [call for i in range(5) for call in (("x", [i]), *(("w", [j]) for j in range(4)))]

    def test_empty_operands(self):
        plan = plan_composition(8, 8, DEFAULT)
        assert flat(execute_cycle([QuantizedVector((), 8)], [QuantizedVector((), 8)], plan)) == (0,)
        assert execute_cycle([], [QuantizedVector((1,), 8)], plan).scalars.shape == (1, 0, 1)
        assert execute_cycle([], [QuantizedVector((), 8)], plan).scalars.shape == (1, 0, 1)  # no x operand and k = 0
        assert execute_cycle([QuantizedVector((1,), 8)], [], plan).scalars.shape == (0, 1, 1)

    def test_length_mismatch(self):
        plan = plan_composition(8, 8, DEFAULT)
        with pytest.raises(ShapeError, match=r"^operands differ in length: \[1, 2\]$"):
            execute_cycle([QuantizedVector((1, 2), 8)], [QuantizedVector((1,), 8)], plan)

    def test_a_length_fault_is_named_before_a_width_fault(self):
        # the x operand is both too wide for the plan and longer than the w operand
        plan = plan_composition(4, 4, DEFAULT)
        with pytest.raises(ShapeError, match=r"^operands differ in length: \[1, 2\]$"):
            execute_cycle([QuantizedVector((1, 2), 8)], [QuantizedVector((1,), 4)], plan)

    def test_too_long_for_the_cycles(self):
        # a stream longer than one cycle's lane slots runs over as many cycles as it needs
        plan = plan_composition(8, 8, CvuConfig(lanes=2))
        x = QuantizedVector((1, 2, 3), 8)
        assert flat(execute_cycle([x], [x], plan)) == (14,)

    def test_bitwidth_over_plan(self):
        plan = plan_composition(4, 4, DEFAULT)
        with pytest.raises(RangeError, match=r"^x operand bitwidths exceed the plan's padded width 4$"):
            execute_cycle([QuantizedVector((1,), 8)], [QuantizedVector((1,), 4)], plan)
        with pytest.raises(RangeError, match=r"^w operand bitwidths exceed the plan's padded width 4$"):
            execute_cycle([QuantizedVector((1,), 4)], [QuantizedVector((1,), 8)], plan)

    def test_refuses_plans_whose_shifts_are_not_the_plane_grid(self):
        # the shift-add weights are read off plan.shifts, which must be s * j + s * k
        plan = plan_composition(4, 4, CvuConfig(lanes=2))
        x = QuantizedVector((3, 1), 4)
        assert flat(execute_cycle([x], [x], plan))[0] == 10
        bad = plan._replace(shifts=(*plan.shifts[:-1], plan.shifts[-1] + 1))
        with pytest.raises(RangeError, match="not a 2 x 2 grid"):
            execute_cycle([x], [x], bad)

    @pytest.mark.parametrize("lanes", [1, 16])
    @pytest.mark.parametrize("bw_x,bw_w", [(8, 8), (8, 4), (4, 2), (6, 3)])
    def test_extreme_operands_at_every_plan(self, lanes, bw_x, bw_w):
        # the largest unsigned x against the most negative signed w, at every slice width, at a
        # stream that fills 3 cycles of every cluster's lane slots and at one element less,
        # which leaves a slot padded wherever a cycle has more than one lane slot
        cycles = 3
        for slice_width in (1, 2, 4):
            plan = plan_composition(bw_x, bw_w, CvuConfig(lanes=lanes, slice_width=slice_width))
            full = plan.clusters * cycles * lanes
            for k in (full, full - 1):
                x = QuantizedVector(((1 << bw_x) - 1,) * k, bw_x)
                w = QuantizedVector((-(1 << (bw_w - 1)),) * k, bw_w, signed=True)
                out = execute_cycle([x, x], [w], plan)
                assert out.scalars.sum(axis=2).tolist() == [[dot_exact(x, w)] * 2], (slice_width, k)

    @pytest.mark.parametrize("k", [1 << 16, (1 << 16) + 1, 80_001])
    def test_float32_planes_only_while_every_plane_dot_product_fits_its_significand(self, monkeypatch, k):
        # at 4-bit slices a lane product is below 2**8, so one cluster of k lanes stays exact in float32
        # up to k = 2**16; 80,001 lanes of 255 x 255 reach an odd 15 * 15 * 80,001 > 2**24 in one plane product
        dtypes = []
        real = cvu.nbve_dot
        monkeypatch.setattr(cvu, "nbve_dot", lambda x, w: dtypes.append((x.dtype.name, w.dtype.name)) or real(x, w))
        plan = plan_composition(8, 8, CvuConfig(lanes=16, slice_width=4))
        x = QuantizedVector((255,) * k, 8)
        for w in (x, QuantizedVector((-128,) * k, 8, signed=True)):
            assert flat(execute_cycle([x], [w], plan)) == (dot_exact(x, w),)
        assert dtypes == [("float32", "float32") if k <= 1 << 16 else ("float64", "float64")] * 2

    def test_refuses_tiles_whose_sums_could_pass_int64(self):
        # a hand-built plan of 1-bit slices pads 8-bit operands to 31 bits each:
        # one lane fits 2^62, two lanes could reach 2^63
        shifts = tuple(j + k for j in range(31) for k in range(31))
        plan = CompositionPlan(bw_x=31, bw_w=31, clusters=1, shifts=shifts, effective_length=2, slice_width=1)
        assert plan.lanes == 2
        one = QuantizedVector((-128,), 8, signed=True)
        assert flat(execute_cycle([one], [one], plan)) == (1 << 14,)
        two = QuantizedVector((-128, -128), 8, signed=True)
        with pytest.raises(RangeError, match="overflow int64"):
            execute_cycle([two], [two], plan)
