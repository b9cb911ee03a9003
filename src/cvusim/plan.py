"""Composition planning of one Composable Vector Unit, in plain Python.

A CVU is a square grid of narrow-bitwidth vector engines (NBVEs), one per pair of ``slice_width``-bit planes of two
``MAX_BITWIDTH``-bit operands, each with ``lanes`` multipliers and a private adder tree.  :func:`plan_composition`
clusters the engines for an operand bitwidth pair, each cluster covering one dot product's plane grid, so every
engine stays busy.  The analytic model prices these plans; :mod:`cvusim.cvu` executes them.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import Checked, RangeError

MAX_BITWIDTH = 8
VALID_SLICE_WIDTHS = (1, 2, 4)
MAX_LANES = 2**16  # the cost model builds each engine's adder tree as a Python list of one leaf per lane


def padded_bitwidth(bitwidth: int, slice_width: int) -> int:
    """Bitwidth rounded up to the next multiple of the slice width."""
    return -(-bitwidth // slice_width) * slice_width


class CvuConfig(Checked, namedtuple("CvuConfig", "lanes slice_width", defaults=(16, 2))):
    """Geometry of one CVU: lanes per engine, and the slice width of both operands.

    Every valid slice width divides ``MAX_BITWIDTH``.
    """

    __slots__ = ()

    def _check(self):
        if not isinstance(self.lanes, int) or not 1 <= self.lanes <= MAX_LANES:
            raise RangeError(f"lanes must be an integer in 1..{MAX_LANES}, got {self.lanes!r}")
        if not isinstance(self.slice_width, int) or self.slice_width not in VALID_SLICE_WIDTHS:
            raise RangeError(f"slice_width must be one of {VALID_SLICE_WIDTHS}, got {self.slice_width!r}")

    @property
    def nbve_count(self) -> int:
        return (MAX_BITWIDTH // self.slice_width) ** 2


class CompositionPlan(namedtuple("CompositionPlan", "bw_x bw_w clusters shifts effective_length slice_width")):
    """Runtime clustering of the engines for one bitwidth pair.

    ``bw_x``/``bw_w`` are the plan-effective (padded) bitwidths.  ``shifts``
    lists the shift amount of each engine within a cluster, j-major over the
    (x-plane, w-plane) grid.  ``effective_length`` is the number of dot
    product elements the whole CVU completes per cycle: its MACs per cycle.
    """

    __slots__ = ()

    @property
    def lanes(self) -> int:
        return self.effective_length // self.clusters


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
