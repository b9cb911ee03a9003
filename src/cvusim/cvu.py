"""One Composable Vector Unit: planning, functional execution, throughput.

A CVU is a grid of narrow-bitwidth vector engines (NBVEs).  Each engine
holds ``lanes`` slice multipliers feeding a private adder tree and emits one
slice-plane dot-product scalar per cycle.  For a given operand bitwidth pair
the engines are clustered at runtime: every cluster covers the full plane
grid of one dot product, and independent clusters run disjoint dot products
in parallel, so all engines stay busy at every bitwidth.

One :func:`execute_cycle` call may span several cycles.  The slice-plane
identity holds however elements are split across cycles, so each engine takes
one dot product over its cluster's whole tile; short tiles are not padded.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .bitslice import QuantizedVector, SliceConfig, nbve_dot, padded_bitwidth, slice_vector
from .errors import RangeError, ShapeError


@dataclass(frozen=True)
class CvuConfig:
    """Geometry of one CVU: lanes per engine plus the slice widths."""

    lanes: int = 16
    slice: SliceConfig = SliceConfig()

    def __post_init__(self):
        if self.lanes < 1:
            raise RangeError(f"lanes must be >= 1, got {self.lanes}")

    @property
    def nbve_count(self) -> int:
        return (self.slice.max_bw // self.slice.alpha) * (self.slice.max_bw // self.slice.beta)


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
    nbves_per_cluster: int
    shifts: tuple[int, ...]
    effective_length: int
    slice: SliceConfig

    @property
    def lanes(self) -> int:
        return self.effective_length // self.clusters


@dataclass(frozen=True)
class CvuOutput:
    """Per-cluster scalars for one dispatch plus the lane utilization."""

    scalars: tuple[int, ...]
    utilization: float


def _plan_width(bitwidth: int, slice_width: int, max_bw: int) -> int:
    """Pad a bitwidth so its plane count divides the maximum plane count.

    Padding to a multiple of the slice width keeps the plane grid regular;
    rounding the plane count up to a divisor of ``max_bw/slice_width`` keeps
    every engine busy (integral cluster count).
    """
    planes = padded_bitwidth(bitwidth, slice_width) // slice_width
    max_planes = max_bw // slice_width
    while max_planes % planes != 0:
        planes += 1
    return planes * slice_width


def plan_composition(bw_x: int, bw_w: int, cfg: CvuConfig) -> CompositionPlan:
    """Cluster the engines of a CVU for one (bw_x, bw_w) pair."""
    for name, bw in (("bw_x", bw_x), ("bw_w", bw_w)):
        if not 1 <= bw <= cfg.slice.max_bw:
            raise RangeError(f"{name} must be in 1..{cfg.slice.max_bw}, got {bw}")
    eff_x = _plan_width(bw_x, cfg.slice.alpha, cfg.slice.max_bw)
    eff_w = _plan_width(bw_w, cfg.slice.beta, cfg.slice.max_bw)
    planes_x = eff_x // cfg.slice.alpha
    planes_w = eff_w // cfg.slice.beta
    per_cluster = planes_x * planes_w
    clusters = cfg.nbve_count // per_cluster
    shifts = tuple(
        cfg.slice.alpha * j + cfg.slice.beta * k for j in range(planes_x) for k in range(planes_w)
    )
    return CompositionPlan(
        bw_x=eff_x,
        bw_w=eff_w,
        clusters=clusters,
        nbves_per_cluster=per_cluster,
        shifts=shifts,
        effective_length=clusters * cfg.lanes,
        slice=cfg.slice,
    )


def execute_cycle(
    x_tiles: Sequence[QuantizedVector],
    w_tiles: Sequence[QuantizedVector],
    plan: CompositionPlan,
    cycles: int = 1,
) -> CvuOutput:
    """Functionally execute one CVU dispatch of ``cycles`` cycles.

    Each cluster receives one (x, w) tile pair of length <= ``cycles * lanes``
    and reduces it to one scalar.  Every scalar is computed through the
    engines' slice-plane dot products and the plan's shift-add tree, never
    through the full-precision oracle.  Utilization is the share of the
    ``cycles * effective_length`` lane slots that held an element.
    """
    if cycles < 1:
        raise ShapeError(f"cycles must be >= 1, got {cycles}")
    if len(x_tiles) != plan.clusters or len(w_tiles) != plan.clusters:
        raise ShapeError(
            f"expected {plan.clusters} tile pairs, got {len(x_tiles)} x / {len(w_tiles)} w"
        )
    capacity = cycles * plan.lanes
    useful = 0
    scalars = []
    for c, (xt, wt) in enumerate(zip(x_tiles, w_tiles)):
        if len(xt) != len(wt):
            raise ShapeError(f"cluster {c}: tile length mismatch {len(xt)} vs {len(wt)}")
        if len(xt) > capacity:
            raise ShapeError(f"cluster {c}: tile length {len(xt)} exceeds {cycles} x {plan.lanes} lanes")
        if xt.bitwidth > plan.bw_x or wt.bitwidth > plan.bw_w:
            raise RangeError(f"cluster {c}: tile bitwidths exceed the plan's padded widths")
        useful += len(xt)
        x_planes = slice_vector(xt, plan.slice.alpha, bitwidth=plan.bw_x).planes
        w_planes = slice_vector(wt, plan.slice.beta, bitwidth=plan.bw_w).planes
        pairs = ((xp, wp) for xp in x_planes for wp in w_planes)
        scalars.append(sum(nbve_dot(xp, wp) << shift for shift, (xp, wp) in zip(plan.shifts, pairs)))
    return CvuOutput(scalars=tuple(scalars), utilization=useful / (cycles * plan.effective_length))
