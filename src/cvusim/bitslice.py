"""Exact bit-slice arithmetic for integer dot products.

A dot product of two integer vectors can be evaluated by cutting every
operand into narrow slices, taking one small dot product per pair of slice
planes, and recombining the plane results with shift-adds:

    sum_i x_i*w_i  ==  sum_{j,k} 2**(alpha*j + beta*k) * sum_i xs[j][i]*ws[k][i]

where ``xs[j]`` is the j-th slice plane of x (``alpha`` bits per slice) and
``ws[k]`` the k-th plane of w (``beta`` bits).  :func:`slice_vector` turns
an operand into its int64 plane array, of shape (planes, length), and
:func:`nbve_dot` takes the engines' plane dot products; the shift-add over
those products is :func:`cvusim.cvu.execute_cycle`.  :func:`dot_exact` is
the independent full-precision path, in Python integers, that every composed
result must reproduce bit for bit.

Planes are int64 and no plane dot product can wrap.  A slice is at most 4
bits wide, so every plane value is at most 2**4 in magnitude and every lane
product at most 2**8.  A plane of 2**40 int64 elements would take 8 TiB, so
every addressable plane is shorter, and every partial sum of a plane dot
product stays below 2**48.  The shift-add's bound is given in
:mod:`cvusim.cvu`; only a hand-built composition plan wider than
``MAX_BITWIDTH`` reaches its int64 guard.

Signedness convention: two's complement, with only the most-significant slice
of a signed operand carrying a negative weight.  All other slices are
unsigned.  Bitwidths that are not multiples of the slice width are sign- or
zero-extended up to the next multiple before slicing.

A :class:`QuantizedVector` is validated once, when it is built: its values
are packed into a read-only int64 ``array``, and one min/max over that array
checks the declared range.  The functional path computes from that array
only: :func:`slice_vector` maps it through cached per-plane lookup tables of
``2**bitwidth`` <= 256 entries, whatever the padded width (a negative value
indexes from the end, which is its two's-complement encoding), and the
conventional style's dot product is one int64 dot of two arrays.
:func:`dot_exact` adds the Python integers of ``values`` instead, so the
oracle shares no arithmetic with the paths it checks.  numpy is imported
only when a vector is built, so planning and the analytic model never load
it.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import RangeError, ShapeError

if TYPE_CHECKING:
    import numpy as np

MAX_BITWIDTH = 8
VALID_SLICE_WIDTHS = (1, 2, 4)


def value_bounds(bitwidth: int, signed: bool) -> tuple[int, int]:
    """Inclusive (lo, hi) range representable at the given width."""
    if signed:
        return -(1 << (bitwidth - 1)), (1 << (bitwidth - 1)) - 1
    return 0, (1 << bitwidth) - 1


def padded_bitwidth(bitwidth: int, slice_width: int) -> int:
    """Bitwidth rounded up to the next multiple of the slice width."""
    return -(-bitwidth // slice_width) * slice_width


@dataclass(frozen=True)
class SliceConfig:
    """Slice widths for the two dot-product operands.

    ``alpha`` applies to the x (activation) operand, ``beta`` to the w
    (weight) operand.  Every valid slice width divides ``MAX_BITWIDTH``.
    """

    alpha: int = 2
    beta: int = 2

    def __post_init__(self):
        for name, width in (("alpha", self.alpha), ("beta", self.beta)):
            if width not in VALID_SLICE_WIDTHS:
                raise RangeError(f"{name} must be one of {VALID_SLICE_WIDTHS}, got {width}")


@dataclass(frozen=True)
class QuantizedVector:
    """Integer vector with a declared bitwidth and signedness.

    ``array`` holds ``values`` as a read-only int64 array, built once here and
    read by every functional path; it takes no part in ``==``, ``hash`` or ``repr``.
    """

    values: tuple[int, ...]
    bitwidth: int
    signed: bool = False
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.bitwidth <= MAX_BITWIDTH:
            raise RangeError(f"bitwidth must be in 1..{MAX_BITWIDTH}, got {self.bitwidth}")
        raw = tuple(self.values)  # read a one-shot iterable once; a tuple is not copied
        try:
            values = tuple(map(operator.index, raw))
        except TypeError:
            i, v = next((i, v) for i, v in enumerate(raw) if not hasattr(type(v), "__index__"))
            raise RangeError(f"value {v!r} at index {i} is not an integer") from None
        import numpy as np

        lo, hi = value_bounds(self.bitwidth, self.signed)
        try:  # packing is about twice as fast as np.fromiter; the buffer is immutable bytes
            array = np.frombuffer(struct.pack(f"{len(values)}q", *values), np.int64)
        except struct.error:  # a value outside int64 is outside every declared range
            array = None
        if array is None or (len(array) and not lo <= array.min() <= array.max() <= hi):
            i, v = next((i, v) for i, v in enumerate(values) if not lo <= v <= hi)
            kind = "signed" if self.signed else "unsigned"
            raise RangeError(f"value {v} at index {i} outside {kind} {self.bitwidth}-bit range [{lo}, {hi}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "array", array)

    def __len__(self) -> int:
        return len(self.values)


@functools.lru_cache(maxsize=None)
def _plane_tables(bitwidth: int, padded: int, slice_width: int, signed: bool) -> np.ndarray:
    """Read-only int64 lookup table: ``tables[j, v]`` is slice j of value v at ``padded`` bits.

    Entry u holds the value encoded as u at ``bitwidth`` bits; ``>>`` is
    arithmetic, so it sign-extends to any padded width."""
    import numpy as np

    lo, hi = value_bounds(bitwidth, signed)
    encoded = [*range(hi + 1), *range(lo, 0)]
    mask = (1 << slice_width) - 1
    tables = [[(v >> shift) & mask for v in encoded] for shift in range(0, padded, slice_width)]
    if signed:
        half, full = 1 << (slice_width - 1), 1 << slice_width
        tables[-1] = [s - full if s >= half else s for s in tables[-1]]
    array = np.array(tables, np.int64)
    array.flags.writeable = False  # one cached array is shared by every caller
    return array


def slice_vector(vec: QuantizedVector, slice_width: int, *, bitwidth: int | None = None) -> np.ndarray:
    """Slice every element of a vector: an int64 array of shape (planes, length).

    Entry [j, i] is slice j (LSB-first) of element i; the last plane of a
    signed vector holds signed slice values, every other plane is unsigned.
    ``bitwidth`` optionally widens the declared bitwidth before slicing
    (used when a composition plan pads operands); it must not be narrower
    than the vector's own width.
    """
    if slice_width not in VALID_SLICE_WIDTHS:
        raise RangeError(f"slice_width must be one of {VALID_SLICE_WIDTHS}, got {slice_width}")
    bw = vec.bitwidth if bitwidth is None else bitwidth
    if bw < vec.bitwidth:
        raise RangeError(f"cannot slice {vec.bitwidth}-bit vector at narrower width {bw}")

    tables = _plane_tables(vec.bitwidth, padded_bitwidth(bw, slice_width), slice_width, vec.signed)
    return tables.take(vec.array, axis=1)


def nbve_dot(x_planes: np.ndarray, w_planes: np.ndarray) -> np.ndarray:
    """Every engine's plane dot product at once: one int64 matmul over the lane axis.

    ``x_planes`` has shape (..., a, lanes) and ``w_planes`` (..., b, lanes);
    entry [..., i, j] of the result is the dot product of x plane i with w
    plane j, the scalar one engine reduces from its slice multipliers.
    """
    if x_planes.shape[-1] != w_planes.shape[-1]:
        raise ShapeError(f"lane count mismatch: {x_planes.shape[-1]} vs {w_planes.shape[-1]}")
    return x_planes @ w_planes.swapaxes(-1, -2)


def dot_exact(x: QuantizedVector, w: QuantizedVector) -> int:
    """Plain widening integer dot product; the oracle for composed paths."""
    if len(x) != len(w):
        raise ShapeError(f"vector length mismatch: {len(x)} vs {len(w)}")
    return sum(map(operator.mul, x.values, w.values))
