"""Slicing, plane dot products, and the full-precision oracle.

The shift-add recomposition itself is :func:`cvusim.cvu.execute_cycle`;
``TestComposeDot`` drives it for one vector pair, ``test_cvu.py`` covers its
clusters and operand sets, and ``test_arch.py`` reaches it through ``functional_dot``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvusim.bitslice as bs
from cvusim.arch import Style, build_array, functional_dot
from cvusim.bitslice import QuantizedVector, nbve_dot, slice_vector
from cvusim.cost import default_params
from cvusim.cvu import execute_cycle
from cvusim.errors import RangeError, ShapeError
from cvusim.plan import CvuConfig, plan_composition

from oracles import dot_exact


def reconstruct(slices, slice_width):
    """Independent reconstruction oracle: sum of 2^(sw*j) * slice_j."""
    return sum(s << (slice_width * j) for j, s in enumerate(slices))


def slice_value(value, bitwidth, slice_width, signed):
    """Independent per-value slicing oracle: LSB-first slices of one in-range integer.

    The value is sign/zero-extended to the next multiple of ``slice_width`` and
    cut with shifts and masks; a signed value's top slice reads as signed."""
    padded = -(-bitwidth // slice_width) * slice_width
    unsigned = value % (1 << padded)  # two's-complement encoding at padded width
    mask = (1 << slice_width) - 1
    slices = [(unsigned >> (slice_width * j)) & mask for j in range(padded // slice_width)]
    if signed and slices[-1] >= 1 << (slice_width - 1):
        slices[-1] -= 1 << slice_width
    return slices


def slices_of(value, bitwidth, slice_width, signed):
    """``slice_vector``'s slices of one value, LSB-first."""
    return slice_vector(QuantizedVector((value,), bitwidth, signed), slice_width)[:, 0].tolist()


def compose_dot(x, w, slice_width):
    """Composed dot product of one vector pair: the sum of its cluster scalars in one CVU issue."""
    plan = plan_composition(x.bitwidth, w.bitwidth, CvuConfig(lanes=1, slice_width=slice_width))
    return int(execute_cycle([x], [w], plan).scalars.sum())


def dot_loop(xs, ws):
    """Scalar accumulation loop, independent of the ``sum(map(mul, ...))`` path."""
    total = 0
    for a, b in zip(xs, ws):
        total += a * b
    return total


class TestSliceValue:
    # one value through slice_vector, against the per-value oracle above
    def test_unsigned_example(self):
        assert slices_of(13, 4, 2, signed=False) == slice_value(13, 4, 2, signed=False) == [1, 3]

    def test_zero(self):
        assert slices_of(0, 8, 2, signed=False) == [0, 0, 0, 0]

    def test_signed_msb_slice(self):
        # two's complement 1101 at 4 bits; MSB slice 11 reads as -1
        slices = slices_of(-3, 4, 2, signed=True)
        assert slices == slice_value(-3, 4, 2, signed=True) == [1, -1]
        assert reconstruct(slices, 2) == -3

    def test_out_of_range(self):
        for value, signed in ((16, False), (8, True), (-1, False)):
            with pytest.raises(RangeError, match="index 0"):
                QuantizedVector((value,), 4, signed)
        with pytest.raises(RangeError, match="narrower"):
            slice_vector(QuantizedVector((3,), 4), 2, bitwidth=2)
        with pytest.raises(RangeError, match="slice_width"):
            slice_vector(QuantizedVector((3,), 4), 3)

    def test_padded_width(self):
        # 3-bit signed value sliced at 2 bits pads to 4 bits
        assert len(slices_of(-4, 3, 2, signed=True)) == 2
        assert reconstruct(slices_of(-4, 3, 2, signed=True), 2) == -4

    @settings(deadline=None, derandomize=True)
    @given(
        bw=st.integers(1, 8),
        sw=st.sampled_from([1, 2, 4]),
        signed=st.booleans(),
        data=st.data(),
    )
    def test_reconstruction_property(self, bw, sw, signed, data):
        lo, hi = bs.value_bounds(bw, signed)
        v = data.draw(st.integers(lo, hi))
        slices = slices_of(v, bw, sw, signed)
        assert slices == slice_value(v, bw, sw, signed)
        assert reconstruct(slices, sw) == v
        for s in slices[:-1]:
            assert 0 <= s < (1 << sw)


class TestSliceVector:
    def test_planes_example(self):
        vec = QuantizedVector((13, 5), 4, signed=False)
        planes = slice_vector(vec, 2)
        assert planes.dtype == np.int64
        assert planes.tolist() == [[1, 1], [3, 1]]

    def test_zero_planes(self):
        planes = slice_vector(QuantizedVector((0, 0, 0), 6, signed=False), 2)
        assert planes.tolist() == [[0, 0, 0]] * 3

    def test_signed_planes(self):
        planes = slice_vector(QuantizedVector((-8, 7), 4, signed=True), 2)
        assert planes.tolist() == [[0, 3], [-2, 1]]
        assert [reconstruct(column, 2) for column in zip(*planes.tolist())] == [-8, 7]

    def test_range_error_carries_index(self):
        with pytest.raises(RangeError, match="index 1"):
            QuantizedVector((3, 99), 4, signed=False)

    @pytest.mark.parametrize(
        "values",
        [(1.7, 2.9), (1, 2.0), np.array([0.5, 3.99]), (np.int64(1), np.float32(2)), np.zeros((2, 2), int)],
    )
    def test_non_integers_rejected(self, values):
        bad = next(i for i, v in enumerate(values) if not isinstance(v, (int, np.integer)))
        for arg in (values, iter(values)):  # a one-shot iterable is read only once
            with pytest.raises(RangeError, match=f"index {bad} is not an integer"):
                QuantizedVector(arg, 2)

    def test_integer_types_stored_as_int(self):
        for values in ((1, True, 0), np.array([1, 3, 0], dtype=np.int8), (np.uint8(3), np.int64(1), False)):
            vec = QuantizedVector(values, 2)
            assert vec.array.dtype == np.float64
            assert vec.array.tolist() == [int(values[0]), int(values[1]), int(values[2])]

    @pytest.mark.parametrize("value", [1 << 63, -(1 << 63) - 1, 1 << 70])
    def test_values_outside_int64_raise_range_error(self, value):
        for signed in (False, True):
            with pytest.raises(RangeError, match=f"value {value} at index 1 outside"):
                QuantizedVector((0, value, 1), 8, signed)

    def test_empty_vector(self):
        vec = QuantizedVector((), 8, signed=True)
        assert len(vec) == 0 and vec.array.dtype == np.float64 and vec.array.shape == (0,)
        assert slice_vector(vec, 2).shape == (4, 0)
        assert dot_exact(vec, vec) == 0
        for style in Style:
            assert functional_dot(vec, vec, build_array(style, default_params())) == 0, style

    def test_array_is_read_only_and_outside_equality_hash_and_repr(self):
        vec = QuantizedVector((3, -2, 1), 4, signed=True)
        assert vec.array.dtype == np.float64 and vec.array.tolist() == [3, -2, 1]
        assert not vec.array.flags.writeable
        with pytest.raises(ValueError):
            vec.array[0] = 0
        for name, value in (("array", np.zeros(3, np.int64)), ("bitwidth", 8), ("signed", False), ("values", (1,))):
            with pytest.raises(AttributeError):
                setattr(vec, name, value)
        with pytest.raises(AttributeError):
            del vec.array
        assert (vec.bitwidth, vec.signed, vec.array.tolist()) == (4, True, [3, -2, 1])
        assert not hasattr(vec, "__dict__")
        assert QuantizedVector((3, -2, 1), 4, True).signed  # positional, as the benchmark builds it
        with pytest.raises(TypeError):
            QuantizedVector((1,), 4, array=np.ones(1, np.int64))
        # the array is the only copy of the values, and value equality would compare
        # whole arrays: a vector equals and hashes only itself
        twin = QuantizedVector((3, -2, 1), 4, signed=True)
        assert vec == vec and vec != twin and len({vec, twin}) == 2
        assert hash(vec) == object.__hash__(vec)
        assert repr(vec) == "QuantizedVector(bitwidth=4, signed=True)" and not hasattr(vec, "values")

    def test_retains_one_int64_per_element(self):
        import tracemalloc

        values = tuple(i % 256 for i in range(100_000))
        QuantizedVector(values[:8], 8)  # numpy's import and first-call set-up are not the vector's
        tracemalloc.start()
        try:
            vec = QuantizedVector(values, 8)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(vec) == len(values)
        assert retained / len(values) <= 9, f"{retained / len(values):.1f} B per element"

    @settings(deadline=None, derandomize=True)
    @given(bw=st.integers(1, 8), signed=st.booleans(), data=st.data())
    def test_array_holds_the_values(self, bw, signed, data):
        values = data.draw(st.lists(st.integers(*bs.value_bounds(bw, signed)), max_size=32))
        vec = QuantizedVector(values, bw, signed)
        assert vec.array.dtype == np.float64
        assert vec.array.tolist() == values

    def test_every_value_round_trips_through_the_array(self):
        # the whole range of every bitwidth and signedness, [-128, 255] in all, comes back exact,
        # and so does the int16 cast that stages the composable styles' blocks
        for bw in range(1, 9):
            for signed in (False, True):
                lo, hi = bs.value_bounds(bw, signed)
                values = list(range(lo, hi + 1))
                array = QuantizedVector(values, bw, signed).array
                assert array.dtype == np.float64 and array.tolist() == values, (bw, signed)
                assert array.astype(np.int16).tolist() == values, (bw, signed)

    def test_exhaustive_against_slice_value(self):
        # every declared width, slice width and signedness, over the whole value
        # range, at its own padded width and at the width plan_composition pads to
        cases = set()
        for bw in range(1, 9):
            for sw in (1, 2, 4):
                plan = plan_composition(bw, bw, CvuConfig(slice_width=sw))
                for signed in (False, True):
                    cases |= {(bw, sw, signed, bs.padded_bitwidth(bw, sw)), (bw, sw, signed, plan.bw_x)}
        # a 5-bit operand widened to 12 bits, wider than any plan pads to: three 4-bit planes
        cases |= {(5, 4, False, 12), (5, 4, True, 12)}
        for bw, sw, signed, padded in sorted(cases):
            lo, hi = bs.value_bounds(bw, signed)
            values = tuple(range(lo, hi + 1))
            planes = slice_vector(QuantizedVector(values, bw, signed), sw, bitwidth=padded)
            expected = [slice_value(v, padded, sw, signed) for v in values]
            assert planes.tolist() == [list(plane) for plane in zip(*expected)], (bw, sw, signed, padded)

    def test_exhaustive_shift_and_mask(self):
        # every value in [-128, 255], sliced at every width from its own up to 8 and at 31,
        # against Python-int shifts and masks; the top plane is the arithmetic shift alone
        for bw in range(1, 9):
            for signed in (False, True):
                lo, hi = bs.value_bounds(bw, signed)
                values = range(lo, hi + 1)
                vec = QuantizedVector(values, bw, signed)
                for sw in (1, 2, 4):
                    for width in (*range(bw, 9), 31):
                        planes = bs.padded_bitwidth(width, sw) // sw
                        expected = [
                            [v >> sw * j if j == planes - 1 else (v >> sw * j) & ((1 << sw) - 1) for v in values]
                            for j in range(planes)
                        ]
                        sliced = slice_vector(vec, sw, bitwidth=width)
                        assert sliced.dtype == np.int64 and sliced.tolist() == expected, (bw, signed, sw, width)
                        # the same values staged in int16 as one operand of a block: the same planes, in int16
                        staged = slice_vector(vec.array.astype(np.int16).reshape(1, 1, -1), sw, bitwidth=width)
                        assert staged.dtype == np.int16 and staged[0].tolist() == expected, (bw, signed, sw, width)

    @settings(deadline=None, derandomize=True)
    @given(
        bw=st.integers(1, 8),
        sw=st.sampled_from([1, 2, 4]),
        signed=st.booleans(),
        data=st.data(),
    )
    def test_reconstruction_all_elements(self, bw, sw, signed, data):
        lo, hi = bs.value_bounds(bw, signed)
        values = data.draw(st.lists(st.integers(lo, hi), max_size=32))
        planes = slice_vector(QuantizedVector(tuple(values), bw, signed), sw)
        assert [reconstruct(column, sw) for column in zip(*planes.tolist())] == values
        assert planes.shape == (-(-bw // sw), len(values))


class TestNbveDot:
    # the batched engine op: [..., i, j] is the dot product of x plane i and w plane j
    def test_basic(self):
        out = nbve_dot(np.array([[1, 1]], np.int64), np.array([[1, 2]], np.int64))
        assert out.dtype == np.int64
        assert out.tolist() == [[3]]

    def test_empty(self):
        assert nbve_dot(np.zeros((1, 0), np.int64), np.zeros((1, 0), np.int64)).tolist() == [[0]]

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.integers(-8, 16, size=(3, 2, 7))  # clusters x x planes x lanes
        w = rng.integers(-8, 16, size=(3, 4, 7))
        out = nbve_dot(x, w)
        assert out.shape == (3, 2, 4)
        for c in range(3):
            for i in range(2):
                for j in range(4):
                    assert out[c, i, j] == dot_loop(x[c, i].tolist(), w[c, j].tolist())

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            nbve_dot(np.zeros((1, 2), np.int64), np.zeros((1, 1), np.int64))

    def test_exact_at_largest_slice_magnitudes(self):
        # every 4-bit plane value extreme (15 unsigned, -8 signed MSB) over a
        # 2^16-lane plane, against Python integers
        n = 1 << 16
        extremes = np.array([[15] * n, [-8] * n], np.int64)
        out = nbve_dot(extremes, extremes)
        assert out.tolist() == [[dot_loop(a, b) for b in ([15] * n, [-8] * n)] for a in ([15] * n, [-8] * n)]
        assert out.tolist() == [[225 * n, -120 * n], [-120 * n, 64 * n]]


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
            def array(self):
                return np.array(self, dtype=object)  # tolist() gives the Python ints back

        result = dot_exact(Wide([1 << 62] * 4), Wide([3] * 4))
        assert result == 3 << 64
        assert type(result) is int


class TestComposeDot:
    def test_4bit_example(self):
        x = QuantizedVector((13, 5), 4)
        w = QuantizedVector((9, 6), 4)
        assert compose_dot(x, w, 2) == 147

    def test_identity(self):
        x = QuantizedVector((1,), 8)
        assert compose_dot(x, x, 2) == 1

    def test_signed_8bit(self):
        x = QuantizedVector((-100, 77), 8, signed=True)
        w = QuantizedVector((3, -128), 8, signed=True)
        assert dot_exact(x, w) == -10156
        assert compose_dot(x, w, 2) == -10156

    def test_bitwidth_over_max(self):
        with pytest.raises(RangeError):  # no vector can be built wider than MAX_BITWIDTH either
            plan_composition(9, 8, CvuConfig(lanes=1))

    def test_shift_amounts(self):
        # plane pair (j, k) is shifted by s*j + s*k, and the shifted
        # plane products add back up to the full product
        s = 2
        x = QuantizedVector((7,), 6)
        w = QuantizedVector((3,), 8)
        plan = plan_composition(x.bitwidth, w.bitwidth, CvuConfig(lanes=1, slice_width=s))
        x_planes = slice_vector(x, s, bitwidth=plan.bw_x)
        w_planes = slice_vector(w, s, bitwidth=plan.bw_w)
        products = nbve_dot(x_planes, w_planes).tolist()  # [x plane][w plane]
        assert len(plan.shifts) == len(x_planes) * len(w_planes)
        total = 0
        for i, shift in enumerate(plan.shifts):
            j, k = divmod(i, len(w_planes))
            assert shift == s * j + s * k
            total += products[j][k] << shift
        assert total == 21 == compose_dot(x, w, s)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        bw_x=st.integers(1, 8),
        bw_w=st.integers(1, 8),
        slice_width=st.sampled_from([1, 2, 4]),
        signed_x=st.booleans(),
        signed_w=st.booleans(),
        data=st.data(),
    )
    def test_matches_oracle(self, bw_x, bw_w, slice_width, signed_x, signed_w, data):
        lo_x, hi_x = bs.value_bounds(bw_x, signed_x)
        lo_w, hi_w = bs.value_bounds(bw_w, signed_w)
        n = data.draw(st.integers(0, 64))
        xs = data.draw(st.lists(st.integers(lo_x, hi_x), min_size=n, max_size=n))
        ws = data.draw(st.lists(st.integers(lo_w, hi_w), min_size=n, max_size=n))
        x = QuantizedVector(tuple(xs), bw_x, signed_x)
        w = QuantizedVector(tuple(ws), bw_w, signed_w)
        assert compose_dot(x, w, slice_width) == dot_exact(x, w)


def test_accumulator_sufficiency():
    # worst case at the documented bounds: length 2^16, 8-bit signed extremes,
    # through the vector style's composed path
    n = 1 << 16
    x = QuantizedVector((-128,) * n, 8, signed=True)
    w = QuantizedVector((-128,) * n, 8, signed=True)
    expected = 128 * 128 * n
    assert expected < 2**63
    assert dot_exact(x, w) == expected
    assert functional_dot(x, w, build_array(Style.VECTOR, default_params())) == expected
