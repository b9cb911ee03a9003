"""One Composable Vector Unit: planning, functional execution, throughput.

A CVU is a grid of narrow-bitwidth vector engines (NBVEs).  Each engine
holds ``lanes`` slice multipliers feeding a private adder tree and emits one
slice-plane dot-product scalar per cycle.  For a given operand bitwidth pair
the engines are clustered at runtime: every cluster covers the full plane
grid of one dot product, and independent clusters run disjoint dot products
in parallel, so all engines stay busy at every bitwidth.

:func:`execute_cycle` runs every (w, x) pair of a set of operands of one
length: each pair's element stream is spread over the clusters, ``cycles *
lanes`` elements each, and every cluster emits its share of the dot product.
Planning imports nothing beyond the standard library; execution imports numpy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .bitslice import MAX_BITWIDTH, QuantizedVector, SliceConfig, nbve_dot, padded_bitwidth, slice_vector
from .errors import RangeError, ShapeError

MAX_LANES = 2**16  # the cost model builds each engine's adder tree as a Python list of one leaf per lane


@dataclass(frozen=True)
class CvuConfig:
    """Geometry of one CVU: lanes per engine plus the slice widths."""

    lanes: int = 16
    slice: SliceConfig = SliceConfig()

    def __post_init__(self):
        if not 1 <= self.lanes <= MAX_LANES:
            raise RangeError(f"lanes must be in 1..{MAX_LANES}, got {self.lanes}")

    @property
    def nbve_count(self) -> int:
        return (MAX_BITWIDTH // self.slice.alpha) * (MAX_BITWIDTH // self.slice.beta)


@dataclass(frozen=True)
class CompositionPlan:
    """Runtime clustering of the engines for one bitwidth pair.

    ``bw_x``/``bw_w`` are the plan-effective (padded) bitwidths.  ``shifts``
    lists the shift amount of each engine within a cluster, j-major over the
    (x-plane, w-plane) grid.  ``effective_length`` is the number of dot
    product elements the whole CVU completes per cycle: its MACs per cycle.
    """

    bw_x: int
    bw_w: int
    clusters: int
    shifts: tuple[int, ...]
    effective_length: int
    slice: SliceConfig

    @property
    def lanes(self) -> int:
        return self.effective_length // self.clusters


@dataclass(frozen=True)
class CvuOutput:
    """Cluster scalars of every (w, x) pair of one call, plus the lane utilization."""

    scalars: tuple[int, ...]
    utilization: float


def _plan_width(bitwidth: int, slice_width: int) -> int:
    """Pad a bitwidth so its plane count divides the maximum plane count.

    Padding to a multiple of the slice width keeps the plane grid regular;
    rounding the plane count up to a divisor of ``MAX_BITWIDTH/slice_width``
    keeps every engine busy (integral cluster count).
    """
    planes = padded_bitwidth(bitwidth, slice_width) // slice_width
    max_planes = MAX_BITWIDTH // slice_width
    while max_planes % planes != 0:
        planes += 1
    return planes * slice_width


def plan_composition(bw_x: int, bw_w: int, cfg: CvuConfig) -> CompositionPlan:
    """Cluster the engines of a CVU for one (bw_x, bw_w) pair."""
    for name, bw in (("bw_x", bw_x), ("bw_w", bw_w)):
        if not 1 <= bw <= MAX_BITWIDTH:
            raise RangeError(f"{name} must be in 1..{MAX_BITWIDTH}, got {bw}")
    eff_x = _plan_width(bw_x, cfg.slice.alpha)
    eff_w = _plan_width(bw_w, cfg.slice.beta)
    planes_x = eff_x // cfg.slice.alpha
    planes_w = eff_w // cfg.slice.beta
    clusters = cfg.nbve_count // (planes_x * planes_w)
    shifts = tuple(
        cfg.slice.alpha * j + cfg.slice.beta * k for j in range(planes_x) for k in range(planes_w)
    )
    return CompositionPlan(
        bw_x=eff_x,
        bw_w=eff_w,
        clusters=clusters,
        shifts=shifts,
        effective_length=clusters * cfg.lanes,
        slice=cfg.slice,
    )


# The w operands run in blocks of rows with rows * (clusters * lanes + n) near
# this many elements, which bounds one block's w planes and engine products.
_BLOCK_ELEMENTS = 1 << 16


def _planes(operands, slice_width: int, bitwidth: int, clusters: int, lanes: int):
    """Int64 planes [cluster, operand * plane, lane] of operands zero-padded to ``clusters * lanes`` elements.

    Each operand is sliced once, at the plan's padded ``bitwidth``."""
    import numpy as np

    planes = bitwidth // slice_width
    out = np.zeros((len(operands), planes, clusters * lanes), np.int64)
    for i, vec in enumerate(operands):
        out[i, :, : len(vec)] = slice_vector(vec, slice_width, bitwidth=bitwidth)
    # [operand, plane, cluster, lane] -> [cluster, operand * plane, lane], as views
    return out.reshape(len(operands), planes, clusters, lanes).transpose(2, 0, 1, 3).reshape(
        clusters, len(operands) * planes, lanes
    )


def execute_cycle(
    x_ops: Sequence[QuantizedVector], w_ops: Sequence[QuantizedVector], plan: CompositionPlan, cycles: int = 1
) -> CvuOutput:
    """Functionally execute every (w, x) pair of n x and m w operands over ``cycles`` cycles.

    The operands share one length k <= ``clusters * cycles * lanes``.  Each pair's stream
    is reshaped to [clusters, cycles, lanes], zero-padded, so cluster c reduces elements
    ``[c * cycles * lanes, (c + 1) * cycles * lanes)``.  ``scalars`` holds m * n * clusters
    values, in the order w, then x, then cluster; a pair's dot product is the sum of its
    cluster scalars.  Utilization is the share of one pair's ``cycles * effective_length``
    lane slots that held an element.

    Every scalar comes from the engines' plane dot products (:func:`nbve_dot`) and the
    plan's shift-add tree, never from the full-precision oracle.  Each operand is sliced
    once.  The w operands run in blocks, so a call holds the x planes and one block's w
    planes and engine products, never an array of m * n * k elements.

    The kernel is int64, and no partial sum can wrap.  Summed by magnitude, the planes of
    an element padded to e bits weigh at most 2**e, so every engine product and every
    partial sum of one cluster's shift-add over L lanes is at most ``L * 2**(bw_x + bw_w)``:
    below 2**56 at 8-bit widths, as no addressable plane reaches 2**40 elements (see
    :mod:`cvusim.bitslice`).  :func:`plan_composition` pads to at most ``MAX_BITWIDTH``
    bits, so only a hand-built plan wider than that could pass 2**63, and such a call
    raises :class:`RangeError`.
    """
    if cycles < 1:
        raise ShapeError(f"cycles must be >= 1, got {cycles}")
    lengths = {len(v) for v in (*x_ops, *w_ops)}
    if len(lengths) > 1:
        raise ShapeError(f"operands differ in length: {sorted(lengths)}")
    k = max(lengths, default=0)
    if k > plan.clusters * cycles * plan.lanes:
        raise ShapeError(f"operand length {k} exceeds {plan.clusters} clusters x {cycles} x {plan.lanes} lanes")
    for side, ops, width in (("x", x_ops, plan.bw_x), ("w", w_ops, plan.bw_w)):
        if any(v.bitwidth > width for v in ops):
            raise RangeError(f"{side} operand bitwidths exceed the plan's padded width {width}")
    lanes = max(1, min(k, cycles * plan.lanes))  # an empty stream still gets one lane of zeros
    if lanes << (plan.bw_x + plan.bw_w) >= 1 << 63:
        raise RangeError(f"{lanes}-lane clusters at {plan.bw_x}x{plan.bw_w} padded bits could overflow int64")

    import numpy as np

    x = _planes(x_ops, plan.slice.alpha, plan.bw_x, plan.clusters, lanes)
    px, pw = plan.bw_x // plan.slice.alpha, plan.bw_w // plan.slice.beta
    shifts = np.array([1 << s for s in plan.shifts], np.int64).reshape(px, 1, pw)
    rows = max(1, _BLOCK_ELEMENTS // (plan.clusters * lanes + len(x_ops)))
    scalars = []
    for lo in range(0, len(w_ops), rows):
        block = w_ops[lo : lo + rows]
        w = _planes(block, plan.slice.beta, plan.bw_w, plan.clusters, lanes)
        products = nbve_dot(x, w).reshape(plan.clusters, len(x_ops), px, len(block), pw)
        scalars += (products * shifts).sum(axis=(2, 4)).transpose(2, 1, 0).ravel().tolist()  # [w, x, cluster]
    return CvuOutput(scalars=tuple(scalars), utilization=k / (cycles * plan.effective_length))
