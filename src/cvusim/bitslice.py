"""Exact bit-slice arithmetic for integer dot products.

A dot product of two integer vectors can be evaluated by cutting every
operand into narrow slices, taking one small dot product per pair of slice
planes, and recombining the plane results with shift-adds:

    sum_i x_i*w_i  ==  sum_{j,k} 2**(s*(j+k)) * sum_i xs[j][i]*ws[k][i]

where ``xs[j]`` is the j-th slice plane of x and ``ws[k]`` the k-th plane of
w, both cut at one slice width of ``s`` bits.  :func:`slice_vector` turns
an operand into its plane array, of shape (planes, length), and
:func:`nbve_dot` takes the engines' plane dot products; the shift-add over
those products is :func:`cvusim.cvu.execute_cycle`.  Every composed result
must reproduce, bit for bit, the full-precision dot product in Python integers.

No plane dot product can lose a bit.  A slice is s <= 4 bits wide, so every plane value is below
2**s in magnitude, every lane product below 2**(2s) <= 2**8, and every partial sum of a plane dot
product over L lanes below L * 2**(2s).  A plane of 2**40 int64 elements would take 8 TiB, so every
addressable plane is shorter and every such sum stays below 2**48: exact in int64 and, in any
summation order, in float64, and in float32 while L * 2**(2s) <= 2**24, the bound on which
:mod:`cvusim.cvu` casts planes to float32.  The shift-add's bound is in :mod:`cvusim.cvu`; only a
hand-built composition plan wider than ``MAX_BITWIDTH`` reaches its int64 guard.

Signedness convention: two's complement, with only the most-significant slice
of a signed operand carrying a negative weight.  All other slices are
unsigned.  Bitwidths that are not multiples of the slice width are sign- or
zero-extended up to the next multiple before slicing.

A :class:`QuantizedVector` holds its operand once, as a read-only float64 ``array`` of 8 bytes per
element: its values are packed as int64, range-checked by one min/max and cast once.  float64 makes the
conventional style's dot product one BLAS ``ddot`` (numpy's int64 dot is a plain C loop), and is exact:
every value lies in [-128, 255], so every partial sum of k products is an integer below k * 2**16, exact
in any summation order below 2**53 (k < 2**37), a bound :func:`cvusim.arch.functional_dot` checks up
front.  Every path computes from that array.  :func:`slice_vector` is the one shift-and-mask that
slices: one AND of the values shifted right by a cached column ``0, s, 2s, ...`` with a cached mask
column, ``2**s - 1`` except for ``-1`` (all ones) on the top plane, which keeps the arithmetic shift's
sign at any padded width.  It runs in int16, which holds every value of at most ``MAX_BITWIDTH`` bits
([-128, 255]) and every plane of it.  Given one vector it returns int64 planes; :mod:`cvusim.cvu` gives
it the int16 values of a block's operands instead, cast from float64 once per side of the block.  The
tests' oracle (``tests/oracles.py``) adds Python integers read from ``array.tolist()`` instead, so it
shares no arithmetic with the paths it checks.  numpy is imported only when a vector is built, and
planning (:mod:`cvusim.plan`) loads neither it nor this module.
"""

from __future__ import annotations

import functools
import operator
import struct
from collections.abc import Iterable

from .errors import RangeError, ShapeError
from .plan import MAX_BITWIDTH, VALID_SLICE_WIDTHS, padded_bitwidth

TYPE_CHECKING = False  # true only to a type checker; importing typing would add to every cold start
if TYPE_CHECKING:
    import numpy as np

def value_bounds(bitwidth: int, signed: bool) -> tuple[int, int]:
    """Inclusive (lo, hi) range representable at the given width."""
    if signed:
        return -(1 << (bitwidth - 1)), (1 << (bitwidth - 1)) - 1
    return 0, (1 << bitwidth) - 1


def _is_integer(value) -> bool:
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


class QuantizedVector:
    """Integer vector with a declared bitwidth and signedness, held once.

    ``values`` is read once, into ``array``: a read-only float64 array that every path reads, packed as
    int64 first, so a non-integer or an out-of-range value is refused before the one cast.  The vector keeps
    no other copy of its elements, refuses any assignment to its attributes and, like any object, equals and
    hashes only itself.
    """

    __slots__ = ("bitwidth", "signed", "array")

    def __init__(self, values: Iterable[int], bitwidth: int, signed: bool = False):
        if not isinstance(bitwidth, int) or not 1 <= bitwidth <= MAX_BITWIDTH:
            raise RangeError(f"bitwidth must be an integer in 1..{MAX_BITWIDTH}, got {bitwidth!r}")
        raw = tuple(values)  # read a one-shot iterable once; a tuple is not copied
        import numpy as np

        lo, hi = value_bounds(bitwidth, signed)
        try:  # packing calls __index__, and is about twice as fast as np.fromiter; the buffer is immutable bytes
            array = np.frombuffer(struct.pack(f"{len(raw)}q", *raw), np.int64)
        except (struct.error, TypeError):  # a non-integer, or a value outside int64 and so every declared range
            array = None
        if array is None or (len(array) and not lo <= array.min() <= array.max() <= hi):
            bad = next((i for i, v in enumerate(raw) if not _is_integer(v)), None)
            if bad is not None:  # a non-integer is named before any value out of range
                raise RangeError(f"value {raw[bad]!r} at index {bad} is not an integer")
            i, v = next((i, v) for i, v in enumerate(map(operator.index, raw)) if not lo <= v <= hi)
            kind = "signed" if signed else "unsigned"
            raise RangeError(f"value {v} at index {i} outside {kind} {bitwidth}-bit range [{lo}, {hi}]")
        array = array.astype(np.float64)
        array.flags.writeable = False
        for name, value in (("bitwidth", bitwidth), ("signed", signed), ("array", array)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):  # also __delattr__'s refusal
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"QuantizedVector(bitwidth={self.bitwidth!r}, signed={self.signed!r})"

    def __len__(self) -> int:
        return len(self.array)


@functools.lru_cache(maxsize=None)
def _shift_mask(bitwidth: int, slice_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int16 columns of the plane shifts ``0, s, 2s, ...`` below ``bitwidth`` padded, and of their masks."""
    import numpy as np

    shifts = np.arange(0, padded_bitwidth(bitwidth, slice_width), slice_width, dtype=np.int16)[:, None]
    masks = np.full_like(shifts, (1 << slice_width) - 1)
    masks[-1] = -1  # all ones: the top plane keeps the arithmetic shift's sign
    shifts.flags.writeable = masks.flags.writeable = False  # shared by every caller
    return shifts, masks


def slice_vector(vec: QuantizedVector | np.ndarray, slice_width: int, *, bitwidth: int | None = None) -> np.ndarray:
    """Slice every element of a vector: an int64 array of shape (planes, length).

    Entry [j, i] is slice j (LSB-first) of element i; the last plane of a
    signed vector holds signed slice values, every other plane is unsigned.
    ``bitwidth`` optionally widens the declared bitwidth before slicing
    (used when a composition plan pads operands); it must not be narrower
    than the vector's own width.  ``vec`` may instead be int16 values of shape (length,) or
    (..., 1, length), as :mod:`cvusim.cvu` stages operands, sliced unchecked at ``bitwidth``:
    their planes, of shape (..., planes, length), come back in int16.
    """
    if slice_width not in VALID_SLICE_WIDTHS:
        raise RangeError(f"slice_width must be one of {VALID_SLICE_WIDTHS}, got {slice_width}")
    if not isinstance(vec, QuantizedVector):
        shifts, masks = _shift_mask(bitwidth, slice_width)
        planes = vec >> shifts
        planes &= masks
        return planes
    bw = vec.bitwidth if bitwidth is None else bitwidth
    if bw < vec.bitwidth:
        raise RangeError(f"cannot slice {vec.bitwidth}-bit vector at narrower width {bw}")
    return slice_vector(vec.array.astype("int16"), slice_width, bitwidth=bw).astype("int64")


def nbve_dot(x_planes: np.ndarray, w_planes: np.ndarray) -> np.ndarray:
    """Every engine's plane dot product at once: one matmul over the lane axis.

    ``x_planes`` has shape (..., a, lanes) and ``w_planes`` (..., b, lanes);
    entry [..., i, j] of the result is the dot product of x plane i with w
    plane j, the scalar one engine reduces from its slice multipliers.
    """
    if x_planes.shape[-1] != w_planes.shape[-1]:
        raise ShapeError(f"lane count mismatch: {x_planes.shape[-1]} vs {w_planes.shape[-1]}")
    return x_planes @ w_planes.swapaxes(-1, -2)

