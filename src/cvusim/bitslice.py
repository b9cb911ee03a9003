"""Exact bit-slice arithmetic for integer dot products.

A dot product of two integer vectors can be evaluated by cutting every
operand into narrow slices, taking one small dot product per pair of slice
planes, and recombining the plane results with shift-adds:

    sum_i x_i*w_i  ==  sum_{j,k} 2**(alpha*j + beta*k) * sum_i xs[j][i]*ws[k][i]

where ``xs[j]`` is the j-th slice plane of x (``alpha`` bits per slice) and
``ws[k]`` the k-th plane of w (``beta`` bits).  All arithmetic here is exact
Python-integer arithmetic, which cannot overflow at any width, so there is
no int64 fast path and no fallback; :func:`dot_exact` is the independent
full-precision path that every composed result must reproduce bit for bit.

Signedness convention: two's complement, with only the most-significant slice
of a signed operand carrying a negative weight.  All other slices are
unsigned.  Bitwidths that are not multiples of the slice width are sign- or
zero-extended up to the next multiple before slicing.

:func:`slice_vector` maps values through cached per-plane lookup tables of
``2**bitwidth`` <= 256 entries, whatever the padded width; a negative value
indexes from the end, which is its two's-complement encoding.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import RangeError, ShapeError

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
    (weight) operand.  Both must divide ``max_bw``.
    """

    alpha: int = 2
    beta: int = 2
    max_bw: int = MAX_BITWIDTH

    def __post_init__(self):
        for name, width in (("alpha", self.alpha), ("beta", self.beta)):
            if width not in VALID_SLICE_WIDTHS:
                raise RangeError(f"{name} must be one of {VALID_SLICE_WIDTHS}, got {width}")
            if self.max_bw % width != 0:
                raise RangeError(f"{name}={width} does not divide max_bw={self.max_bw}")
        if self.max_bw < 1:
            raise RangeError(f"max_bw must be positive, got {self.max_bw}")


@dataclass(frozen=True)
class QuantizedVector:
    """Integer vector with a declared bitwidth and signedness."""

    values: tuple[int, ...]
    bitwidth: int
    signed: bool = False

    def __post_init__(self):
        if not 1 <= self.bitwidth <= MAX_BITWIDTH:
            raise RangeError(f"bitwidth must be in 1..{MAX_BITWIDTH}, got {self.bitwidth}")
        raw = tuple(self.values)  # read a one-shot iterable once; a tuple is not copied
        try:
            values = tuple(map(operator.index, raw))
        except TypeError:
            i, v = next((i, v) for i, v in enumerate(raw) if not hasattr(type(v), "__index__"))
            raise RangeError(f"value {v!r} at index {i} is not an integer") from None
        lo, hi = value_bounds(self.bitwidth, self.signed)
        if values and not lo <= min(values) <= max(values) <= hi:
            i, v = next((i, v) for i, v in enumerate(values) if not lo <= v <= hi)
            kind = "signed" if self.signed else "unsigned"
            raise RangeError(f"value {v} at index {i} outside {kind} {self.bitwidth}-bit range [{lo}, {hi}]")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BitSlicedVector:
    """Per-plane decomposition of a :class:`QuantizedVector`.

    ``planes[j][i]`` is slice j (LSB-first) of element i.  When
    ``signed_msb`` is set, the last plane holds signed slice values; every
    other plane is unsigned.
    """

    planes: tuple[tuple[int, ...], ...]
    slice_width: int
    signed_msb: bool

    @property
    def num_slices(self) -> int:
        return len(self.planes)

    @property
    def length(self) -> int:
        return len(self.planes[0]) if self.planes else 0

    def reconstruct(self) -> tuple[int, ...]:
        """Recombine the planes back into the original values."""
        out = [0] * self.length
        for j, plane in enumerate(self.planes):
            weight = 1 << (self.slice_width * j)
            for i, s in enumerate(plane):
                out[i] += weight * s
        return tuple(out)


@dataclass(frozen=True)
class SlicePlaneProduct:
    """One plane-pair dot product and the shift that positions it."""

    j: int
    k: int
    value: int
    shift: int


def slice_value(value: int, bitwidth: int, slice_width: int, signed: bool) -> list[int]:
    """Slice one integer into LSB-first slice values.

    The value is first sign/zero-extended to the next multiple of
    ``slice_width``.  Reconstruction ``sum(2**(slice_width*j) * s_j)``
    returns the original value exactly.
    """
    if slice_width not in VALID_SLICE_WIDTHS:
        raise RangeError(f"slice_width must be one of {VALID_SLICE_WIDTHS}, got {slice_width}")
    lo, hi = value_bounds(bitwidth, signed)
    if not lo <= value <= hi:
        kind = "signed" if signed else "unsigned"
        raise RangeError(f"value {value} outside {kind} {bitwidth}-bit range [{lo}, {hi}]")

    padded = padded_bitwidth(bitwidth, slice_width)
    num_slices = padded // slice_width
    unsigned = value % (1 << padded)  # two's-complement encoding at padded width
    mask = (1 << slice_width) - 1
    slices = [(unsigned >> (slice_width * j)) & mask for j in range(num_slices)]
    if signed and slices[-1] >= 1 << (slice_width - 1):
        slices[-1] -= 1 << slice_width
    return slices


@functools.lru_cache(maxsize=None)
def _plane_tables(bitwidth: int, padded: int, slice_width: int, signed: bool) -> tuple[list[int], ...]:
    """Per-plane lookup lists: ``tables[j][v]`` is slice j of value v at ``padded`` bits.

    Entry u holds the value encoded as u at ``bitwidth`` bits; ``>>`` is
    arithmetic, so it sign-extends to any padded width."""
    lo, hi = value_bounds(bitwidth, signed)
    encoded = [*range(hi + 1), *range(lo, 0)]
    mask = (1 << slice_width) - 1
    tables = [[(v >> shift) & mask for v in encoded] for shift in range(0, padded, slice_width)]
    if signed:
        half, full = 1 << (slice_width - 1), 1 << slice_width
        tables[-1] = [s - full if s >= half else s for s in tables[-1]]
    return tuple(tables)  # lists: list.__getitem__ maps faster than tuple.__getitem__


def slice_vector(vec: QuantizedVector, slice_width: int, *, bitwidth: int | None = None) -> BitSlicedVector:
    """Slice every element of a vector into planes.

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
    planes = tuple(tuple(map(table.__getitem__, vec.values)) for table in tables)
    return BitSlicedVector(planes=planes, slice_width=slice_width, signed_msb=vec.signed)


def nbve_dot(x_slice: Sequence[int], w_slice: Sequence[int]) -> int:
    """Exact dot product of two slice subvectors (one engine, one cycle)."""
    if len(x_slice) != len(w_slice):
        raise ShapeError(f"slice length mismatch: {len(x_slice)} vs {len(w_slice)}")
    return sum(map(operator.mul, x_slice, w_slice))


def dot_exact(x: QuantizedVector, w: QuantizedVector) -> int:
    """Plain widening integer dot product; the oracle for composed paths."""
    if len(x) != len(w):
        raise ShapeError(f"vector length mismatch: {len(x)} vs {len(w)}")
    return sum(map(operator.mul, x.values, w.values))


def slice_plane_products(
    x: QuantizedVector,
    w: QuantizedVector,
    cfg: SliceConfig,
    *,
    bw_x: int | None = None,
    bw_w: int | None = None,
) -> list[SlicePlaneProduct]:
    """All plane-pair dot products with their shifts, j-major order.

    Exactly ``ceil(bw_x/alpha) * ceil(bw_w/beta)`` engine dot products are
    evaluated.  ``bw_x``/``bw_w`` override the operand widths (plan padding).
    """
    if len(x) != len(w):
        raise ShapeError(f"vector length mismatch: {len(x)} vs {len(w)}")
    for vec, bw in ((x, bw_x), (w, bw_w)):
        if (bw or vec.bitwidth) > cfg.max_bw:
            raise RangeError(f"bitwidth {bw or vec.bitwidth} exceeds max_bw {cfg.max_bw}")
    xs = slice_vector(x, cfg.alpha, bitwidth=bw_x)
    ws = slice_vector(w, cfg.beta, bitwidth=bw_w)
    products = []
    for j, xp in enumerate(xs.planes):
        for k, wp in enumerate(ws.planes):
            products.append(
                SlicePlaneProduct(j=j, k=k, value=nbve_dot(xp, wp), shift=cfg.alpha * j + cfg.beta * k)
            )
    return products


def compose_dot(x: QuantizedVector, w: QuantizedVector, cfg: SliceConfig) -> int:
    """Dot product via slice planes and shift-add recombination.

    Equals :func:`dot_exact` for every valid input, with zero tolerance.
    """
    total = 0
    for p in slice_plane_products(x, w, cfg):
        total += p.value << p.shift
    return total
