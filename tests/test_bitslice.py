"""Slicing, plane dot products, and shift-add recomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvusim.bitslice as bs
from cvusim.bitslice import (
    QuantizedVector,
    SliceConfig,
    compose_dot,
    dot_exact,
    nbve_dot,
    slice_plane_products,
    slice_value,
    slice_vector,
)
from cvusim.cvu import CvuConfig, plan_composition
from cvusim.errors import RangeError, ShapeError


def reconstruct(slices, slice_width):
    """Independent reconstruction oracle: sum of 2^(sw*j) * slice_j."""
    return sum(s << (slice_width * j) for j, s in enumerate(slices))


def dot_loop(xs, ws):
    """Scalar accumulation loop, independent of the ``sum(map(mul, ...))`` path."""
    total = 0
    for a, b in zip(xs, ws):
        total += a * b
    return total


class TestSliceValue:
    def test_unsigned_example(self):
        assert slice_value(13, 4, 2, signed=False) == [1, 3]

    def test_zero(self):
        assert slice_value(0, 8, 2, signed=False) == [0, 0, 0, 0]

    def test_signed_msb_slice(self):
        # two's complement 1101 at 4 bits; MSB slice 11 reads as -1
        slices = slice_value(-3, 4, 2, signed=True)
        assert slices == [1, -1]
        assert reconstruct(slices, 2) == -3

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            slice_value(16, 4, 2, signed=False)
        with pytest.raises(RangeError):
            slice_value(8, 4, 2, signed=True)
        with pytest.raises(RangeError):
            slice_value(-1, 4, 2, signed=False)

    def test_padded_width(self):
        # 3-bit signed value sliced at 2 bits pads to 4 bits
        assert len(slice_value(-4, 3, 2, signed=True)) == 2
        assert reconstruct(slice_value(-4, 3, 2, signed=True), 2) == -4

    @given(
        bw=st.integers(1, 8),
        sw=st.sampled_from([1, 2, 4]),
        signed=st.booleans(),
        data=st.data(),
    )
    def test_reconstruction_property(self, bw, sw, signed, data):
        lo, hi = bs.value_bounds(bw, signed)
        v = data.draw(st.integers(lo, hi))
        slices = slice_value(v, bw, sw, signed)
        assert reconstruct(slices, sw) == v
        for s in slices[:-1]:
            assert 0 <= s < (1 << sw)


class TestSliceVector:
    def test_planes_example(self):
        vec = QuantizedVector((13, 5), 4, signed=False)
        sliced = slice_vector(vec, 2)
        assert sliced.planes[0] == (1, 1)
        assert sliced.planes[1] == (3, 1)

    def test_zero_planes(self):
        sliced = slice_vector(QuantizedVector((0, 0, 0), 6, signed=False), 2)
        assert all(plane == (0, 0, 0) for plane in sliced.planes)

    def test_signed_planes(self):
        sliced = slice_vector(QuantizedVector((-8, 7), 4, signed=True), 2)
        assert sliced.planes[0] == (0, 3)
        assert sliced.planes[1] == (-2, 1)
        assert sliced.reconstruct() == (-8, 7)

    def test_range_error_carries_index(self):
        with pytest.raises(RangeError, match="index 1"):
            QuantizedVector((3, 99), 4, signed=False)

    @pytest.mark.parametrize(
        "values", [(1.7, 2.9), (1, 2.0), np.array([0.5, 3.99]), (np.int64(1), np.float32(2))]
    )
    def test_non_integers_rejected(self, values):
        bad = next(i for i, v in enumerate(values) if not isinstance(v, (int, np.integer)))
        for arg in (values, iter(values)):  # a one-shot iterable is read only once
            with pytest.raises(RangeError, match=f"index {bad} is not an integer"):
                QuantizedVector(arg, 2)

    def test_integer_types_stored_as_int(self):
        for values in ((1, True, 0), np.array([1, 3, 0], dtype=np.int8), (np.uint8(3), np.int64(1), False)):
            vec = QuantizedVector(values, 2)
            assert vec.values == (int(values[0]), int(values[1]), int(values[2]))
            assert all(type(v) is int for v in vec.values)

    def test_exhaustive_against_slice_value(self):
        # every declared width, slice width and signedness, over the whole value
        # range, at its own padded width and at the width plan_composition pads to
        cases = set()
        for bw in range(1, 9):
            for sw in (1, 2, 4):
                plan = plan_composition(bw, bw, CvuConfig(slice=SliceConfig(sw, sw)))
                for signed in (False, True):
                    cases |= {(bw, sw, signed, bs.padded_bitwidth(bw, sw)), (bw, sw, signed, plan.bw_x)}
        # with max_bw=12, a 5-bit operand pads to 12 bits: three 4-bit planes
        twelve = plan_composition(5, 5, CvuConfig(slice=SliceConfig(4, 4, max_bw=12))).bw_x
        assert twelve == 12
        cases |= {(5, 4, False, twelve), (5, 4, True, twelve)}
        for bw, sw, signed, padded in sorted(cases):
            lo, hi = bs.value_bounds(bw, signed)
            values = tuple(range(lo, hi + 1))
            planes = slice_vector(QuantizedVector(values, bw, signed), sw, bitwidth=padded).planes
            expected = [slice_value(v, padded, sw, signed) for v in values]
            assert planes == tuple(zip(*expected)), (bw, sw, signed, padded)
            tables = bs._plane_tables(bw, padded, sw, signed)
            assert len(tables) == padded // sw
            assert all(len(table) == 1 << bw <= 256 for table in tables)

    @given(
        bw=st.integers(1, 8),
        sw=st.sampled_from([1, 2, 4]),
        signed=st.booleans(),
        data=st.data(),
    )
    def test_reconstruction_all_elements(self, bw, sw, signed, data):
        lo, hi = bs.value_bounds(bw, signed)
        values = data.draw(st.lists(st.integers(lo, hi), max_size=32))
        sliced = slice_vector(QuantizedVector(tuple(values), bw, signed), sw)
        assert sliced.reconstruct() == tuple(values)
        assert sliced.num_slices == -(-bw // sw)


class TestNbveDot:
    def test_basic(self):
        assert nbve_dot([1, 1], [1, 2]) == 3
        assert type(nbve_dot([1, 1], [1, 2])) is int

    def test_empty(self):
        assert nbve_dot([], []) == 0
        assert type(nbve_dot([], [])) is int

    def test_against_loop_oracle(self):
        assert nbve_dot([3, 2, 1], [2, 0, -1]) == dot_loop([3, 2, 1], [2, 0, -1]) == 5

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            nbve_dot([1, 2], [1])

    def test_past_int64_range(self):
        result = nbve_dot([1 << 62] * 4, [3] * 4)
        assert result == 3 << 64 == dot_loop([1 << 62] * 4, [3] * 4)
        assert type(result) is int


class TestDotExact:
    def test_direct(self):
        x = QuantizedVector((13, 5), 4)
        w = QuantizedVector((9, 6), 4)
        assert dot_exact(x, w) == 147
        assert type(dot_exact(x, w)) is int

    def test_zeros(self):
        x = QuantizedVector((0,) * 10, 8)
        w = QuantizedVector(tuple(range(10)), 8)
        assert dot_exact(x, w) == 0

    def test_matches_scalar_loop(self):
        import random

        rng = random.Random(1234)
        xs = [rng.randint(-128, 127) for _ in range(64)]
        ws = [rng.randint(-128, 127) for _ in range(64)]
        x = QuantizedVector(tuple(xs), 8, signed=True)
        w = QuantizedVector(tuple(ws), 8, signed=True)
        assert dot_exact(x, w) == dot_loop(xs, ws)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            dot_exact(QuantizedVector((1,), 8), QuantizedVector((1, 2), 8))

    def test_past_int64_range(self):
        # 8-bit vectors reach 2^63 only at 2^49 elements, so stand-ins carry
        # wide values through the same arithmetic
        class Wide(tuple):
            @property
            def values(self):
                return self

        result = dot_exact(Wide([1 << 62] * 4), Wide([3] * 4))
        assert result == 3 << 64
        assert type(result) is int


class TestComposeDot:
    def test_4bit_example(self):
        x = QuantizedVector((13, 5), 4)
        w = QuantizedVector((9, 6), 4)
        assert compose_dot(x, w, SliceConfig(2, 2)) == 147

    def test_identity(self):
        x = QuantizedVector((1,), 8)
        assert compose_dot(x, x, SliceConfig(2, 2)) == 1

    def test_signed_8bit(self):
        x = QuantizedVector((-100, 77), 8, signed=True)
        w = QuantizedVector((3, -128), 8, signed=True)
        assert dot_exact(x, w) == -10156
        assert compose_dot(x, w, SliceConfig(2, 2)) == -10156

    def test_bitwidth_over_max(self):
        x = QuantizedVector((1,), 8)
        with pytest.raises(RangeError):
            compose_dot(x, x, SliceConfig(2, 2, max_bw=4))

    def test_plane_count(self, monkeypatch):
        # exactly ceil(bw_x/alpha) * ceil(bw_w/beta) engine dot products
        calls = []
        real = bs.nbve_dot
        monkeypatch.setattr(bs, "nbve_dot", lambda a, b: calls.append(1) or real(a, b))
        x = QuantizedVector((5, 2), 5)
        w = QuantizedVector((1, 3), 3)
        compose_dot(x, w, SliceConfig(2, 2))
        assert len(calls) == -(-5 // 2) * -(-3 // 2)

    def test_shift_amounts(self):
        cfg = SliceConfig(2, 4)
        x = QuantizedVector((7,), 6)
        w = QuantizedVector((3,), 8)
        for p in slice_plane_products(x, w, cfg):
            assert p.shift == cfg.alpha * p.j + cfg.beta * p.k

    @settings(max_examples=300, deadline=None)
    @given(
        bw_x=st.integers(1, 8),
        bw_w=st.integers(1, 8),
        alpha=st.sampled_from([1, 2, 4]),
        beta=st.sampled_from([1, 2, 4]),
        signed_x=st.booleans(),
        signed_w=st.booleans(),
        data=st.data(),
    )
    def test_matches_oracle(self, bw_x, bw_w, alpha, beta, signed_x, signed_w, data):
        lo_x, hi_x = bs.value_bounds(bw_x, signed_x)
        lo_w, hi_w = bs.value_bounds(bw_w, signed_w)
        n = data.draw(st.integers(0, 64))
        xs = data.draw(st.lists(st.integers(lo_x, hi_x), min_size=n, max_size=n))
        ws = data.draw(st.lists(st.integers(lo_w, hi_w), min_size=n, max_size=n))
        x = QuantizedVector(tuple(xs), bw_x, signed_x)
        w = QuantizedVector(tuple(ws), bw_w, signed_w)
        assert compose_dot(x, w, SliceConfig(alpha, beta)) == dot_exact(x, w)


def test_accumulator_sufficiency():
    # worst case at the documented bounds: length 2^16, 8-bit signed extremes
    n = 1 << 16
    x = QuantizedVector((-128,) * n, 8, signed=True)
    w = QuantizedVector((-128,) * n, 8, signed=True)
    expected = 128 * 128 * n
    assert expected < 2**63
    assert dot_exact(x, w) == expected
    assert compose_dot(x, w, SliceConfig(2, 2)) == expected
