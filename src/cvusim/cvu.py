"""One Composable Vector Unit: planning, functional execution, throughput.

A CVU is a square grid of narrow-bitwidth vector engines (NBVEs), one per
pair of ``slice_width``-bit planes of two ``MAX_BITWIDTH``-bit operands.  Each
engine holds ``lanes`` multipliers, ``slice_width`` bits wide on both operands,
feeding a private adder tree, and emits one slice-plane dot-product scalar per
cycle.  For a given operand bitwidth pair the engines are clustered at runtime:
every cluster covers the full plane grid of one dot product, and independent
clusters run disjoint dot products in parallel, so all engines stay busy at
every bitwidth.

:func:`execute_cycle` runs every (w, x) pair of a set of operands of one
length over the fewest cycles that hold it: each pair's element stream is
spread over the clusters, ``cycles * lanes`` elements each, and every cluster
emits its share of the dot product.
Each side's operands are sliced into one int16 staging array, cast once to float64 for the
engines' matmuls; the shift-add is two int64 contractions against weights cached per plan.
Planning imports nothing beyond the standard library; execution imports numpy.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

from .bitslice import MAX_BITWIDTH, VALID_SLICE_WIDTHS, QuantizedVector, nbve_dot, padded_bitwidth, slice_vector
from .errors import RangeError, ShapeError

MAX_LANES = 2**16  # the cost model builds each engine's adder tree as a Python list of one leaf per lane


@dataclass(frozen=True)
class CvuConfig:
    """Geometry of one CVU: lanes per engine, and the slice width of both operands.

    Every valid slice width divides ``MAX_BITWIDTH``.
    """

    lanes: int = 16
    slice_width: int = 2

    def __post_init__(self):
        if not isinstance(self.lanes, int) or not 1 <= self.lanes <= MAX_LANES:
            raise RangeError(f"lanes must be an integer in 1..{MAX_LANES}, got {self.lanes!r}")
        if not isinstance(self.slice_width, int) or self.slice_width not in VALID_SLICE_WIDTHS:
            raise RangeError(f"slice_width must be one of {VALID_SLICE_WIDTHS}, got {self.slice_width!r}")

    @property
    def nbve_count(self) -> int:
        return (MAX_BITWIDTH // self.slice_width) ** 2


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
    slice_width: int

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


@functools.lru_cache(maxsize=256, typed=True)  # a pure function of hashable, frozen arguments
def plan_composition(bw_x: int, bw_w: int, cfg: CvuConfig) -> CompositionPlan:
    """Cluster the engines of a CVU for one (bw_x, bw_w) pair; repeat calls share one plan."""
    for name, bw in (("bw_x", bw_x), ("bw_w", bw_w)):
        if not isinstance(bw, int) or not 1 <= bw <= MAX_BITWIDTH:
            raise RangeError(f"{name} must be an integer in 1..{MAX_BITWIDTH}, got {bw!r}")
    s = cfg.slice_width
    planes_x, planes_w = _plan_width(bw_x, s) // s, _plan_width(bw_w, s) // s
    clusters = cfg.nbve_count // (planes_x * planes_w)
    shifts = tuple(s * j + s * k for j in range(planes_x) for k in range(planes_w))
    return CompositionPlan(
        bw_x=planes_x * s,
        bw_w=planes_w * s,
        clusters=clusters,
        shifts=shifts,
        effective_length=clusters * cfg.lanes,
        slice_width=s,
    )


# The w operands run in blocks of rows with rows * (clusters * lanes + n) near
# this many elements, which bounds one block's w planes and engine products.
_BLOCK_ELEMENTS = 1 << 16


def _planes(operands, slice_width: int, bitwidth: int, clusters: int, lanes: int):
    """Float64 planes [cluster, operand * plane, lane] of operands zero-padded to ``clusters * lanes`` elements.

    Each operand is sliced once, at the plan's padded ``bitwidth``, into its slot of an int16 staging
    array [operand, plane, cluster * lane]; one C-ordered transposing cast gives the float64 planes."""
    import numpy as np

    planes = bitwidth // slice_width
    stage = np.zeros((len(operands), planes, clusters * lanes), np.int16)
    for i, vec in enumerate(operands):
        slice_vector(vec, slice_width, bitwidth=bitwidth, out=stage[i, :, : len(vec)])
    stage = stage.reshape(len(operands), planes, clusters, lanes).transpose(2, 0, 1, 3)
    return stage.astype(np.float64, order="C").reshape(clusters, len(operands) * planes, lanes)


@functools.lru_cache(maxsize=256)
def _shift_weights(plan: CompositionPlan):
    """Read-only int64 shift-add weights ``2**(s * j)`` and ``2**(s * k)``, read off ``plan.shifts``."""
    import numpy as np

    pw = plan.bw_w // plan.slice_width
    x, w = (np.array([1 << s for s in shifts], np.int64) for shifts in (plan.shifts[::pw], plan.shifts[:pw]))
    if np.outer(x, w).ravel().tolist() != [1 << s for s in plan.shifts]:  # the plan stays the shifts' source
        raise RangeError(f"plan shifts {plan.shifts} are not a {len(x)} x {pw} grid of s * j + s * k")
    x.flags.writeable = w.flags.writeable = False  # shared by every call with this plan
    return x, w


def execute_cycle(
    x_ops: Sequence[QuantizedVector], w_ops: Sequence[QuantizedVector], plan: CompositionPlan
) -> CvuOutput:
    """Functionally execute every (w, x) pair of n x and m w operands over the fewest cycles that hold them.

    The operands share one length k, which takes ``cycles = max(1, ceil(k / effective_length))``
    cycles.  Each pair's stream is reshaped to [clusters, cycles, lanes], zero-padded, so
    cluster c reduces elements ``[c * cycles * lanes, (c + 1) * cycles * lanes)``.  ``scalars``
    holds m * n * clusters values, in the order w, then x, then cluster; a pair's dot product
    is the sum of its cluster scalars.  Utilization is the share of one pair's
    ``cycles * effective_length`` lane slots that held an element.

    Every scalar comes from the engines' plane dot products (:func:`nbve_dot`) and the
    plan's shift-add tree, never from the full-precision oracle.  Each operand is sliced
    once.  The w operands run in blocks, so a call holds the x planes and one block's w
    planes and engine products, never an array of m * n * k elements.

    The float64 plane dot products are exact (see :mod:`cvusim.bitslice`).  The int64
    shift-add cannot wrap: the planes of an element padded to e bits weigh at most 2**e, so
    every partial sum of one cluster's shift-add over L lanes is at most ``L * 2**(bw_x + bw_w)``,
    below 2**56 at 8-bit widths.  Only a hand-built plan wider than ``MAX_BITWIDTH`` bits could
    pass 2**63, and such a call raises :class:`RangeError`.
    """
    lengths = {len(v) for v in (*x_ops, *w_ops)}
    if len(lengths) > 1:
        raise ShapeError(f"operands differ in length: {sorted(lengths)}")
    k = max(lengths, default=0)
    cycles = max(1, -(-k // plan.effective_length))
    for side, ops, width in (("x", x_ops, plan.bw_x), ("w", w_ops, plan.bw_w)):
        if any(v.bitwidth > width for v in ops):
            raise RangeError(f"{side} operand bitwidths exceed the plan's padded width {width}")
    lanes = max(1, min(k, cycles * plan.lanes))  # an empty stream still gets one lane of zeros
    if lanes << (plan.bw_x + plan.bw_w) >= 1 << 63:
        raise RangeError(f"{lanes}-lane clusters at {plan.bw_x}x{plan.bw_w} padded bits could overflow int64")

    import numpy as np

    x_weights, w_weights = _shift_weights(plan)
    x = _planes(x_ops, plan.slice_width, plan.bw_x, plan.clusters, lanes)
    rows = max(1, _BLOCK_ELEMENTS // (plan.clusters * lanes + len(x_ops)))
    scalars = []
    for lo in range(0, len(w_ops), rows):
        block = w_ops[lo : lo + rows]
        w = _planes(block, plan.slice_width, plan.bw_w, plan.clusters, lanes)
        # [cluster, x, x plane, w * w plane]: contract the x planes, then the w planes
        products = nbve_dot(x, w).astype(np.int64).reshape(plan.clusters, len(x_ops), len(x_weights), w.shape[1])
        per_w_plane = (x_weights @ products).reshape(plan.clusters, len(x_ops), len(block), len(w_weights))
        scalars += (per_w_plane @ w_weights).transpose(2, 1, 0).ravel().tolist()  # [w, x, cluster]
    return CvuOutput(scalars=tuple(scalars), utilization=k / (cycles * plan.effective_length))
