"""One Composable Vector Unit: planning, functional execution, throughput.

A CVU is a square grid of narrow-bitwidth vector engines (NBVEs), one per pair of ``slice_width``-bit
planes of two ``MAX_BITWIDTH``-bit operands.  Each engine holds ``lanes`` multipliers, ``slice_width``
bits wide on both operands, feeding a private adder tree, and emits one slice-plane dot-product scalar
per cycle.  For a given operand bitwidth pair the engines are clustered at runtime: every cluster
covers the full plane grid of one dot product, and independent clusters run disjoint dot products in
parallel, so all engines stay busy at every bitwidth.

:func:`execute_cycle` runs every (w, x) pair of a set of operands of one length over the fewest
cycles that hold it: each pair's element stream is spread over the clusters, ``cycles * lanes``
elements each, and every cluster emits its share of the dot product.  An x block is staged in int16
beside its first w block, each side is sliced by one :func:`slice_vector` call and cast once to float
for the engines' matmuls, and the shift-add is one int64 contraction against weights cached per plan.
The cluster scalars come back as one read-only int64 array.  Execution imports numpy; planning does not.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Sequence

from .bitslice import MAX_BITWIDTH, VALID_SLICE_WIDTHS, QuantizedVector, nbve_dot, padded_bitwidth, slice_vector
from .errors import Checked, RangeError, ShapeError

MAX_LANES = 2**16  # the cost model builds each engine's adder tree as a Python list of one leaf per lane


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


# Cluster scalars of every (w, x) pair of one call, plus the lane utilization.
CvuOutput = namedtuple("CvuOutput", "scalars utilization")


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


_BLOCK_ELEMENTS = 1 << 16  # staged elements per x block, and per w block plus its (w, x) pairs


def _planes(stage, slice_width: int, bitwidth: int, dtype, clusters: int, lanes: int):
    """Float planes [cluster, row, lane] of int16 operands staged [operand, 1, clusters * lanes], zero-padded.

    One :func:`slice_vector` call cuts the side: operand-major rows from the staged shape, plane-major
    rows from its flattening.  One cast, to float32 where exact (see :mod:`cvusim.bitslice`) and float64
    otherwise, gives BLAS a view."""
    return slice_vector(stage, slice_width, bitwidth=bitwidth).astype(dtype).reshape(-1, clusters, lanes).transpose(1, 0, 2)


@functools.lru_cache(maxsize=256)
def _shift_weights(plan: CompositionPlan):
    """Int64 shift-add weights ``2**s`` of ``plan.shifts``, which must be the plane grid; read-only, as every call shares them."""
    import numpy as np

    s, pw = plan.slice_width, plan.bw_w // plan.slice_width
    if plan.shifts != tuple(s * j + s * k for j in range(plan.bw_x // s) for k in range(pw)):
        raise RangeError(f"plan shifts {plan.shifts} are not a {plan.bw_x // s} x {pw} grid of s * j + s * k")
    return np.frombuffer(np.array([1 << shift for shift in plan.shifts], np.int64).tobytes(), np.int64)


def execute_cycle(
    x_ops: Sequence[QuantizedVector], w_ops: Sequence[QuantizedVector], plan: CompositionPlan
) -> CvuOutput:
    """Functionally execute every (w, x) pair of n x and m w operands over the fewest cycles that hold them.

    The operands share one length k, which takes ``cycles = max(1, ceil(k / effective_length))`` cycles.
    Each pair's stream is reshaped to [clusters, cycles, lanes], zero-padded, so cluster c reduces
    elements ``[c * cycles * lanes, (c + 1) * cycles * lanes)``.  ``scalars`` is one read-only int64
    array of shape (m, n, clusters), indexed [w, x, cluster]; a pair's dot product is the sum of its
    cluster scalars.  Utilization is the share of a pair's ``cycles * effective_length`` lane slots in use.

    Every scalar comes from the engines' plane dot products (:func:`nbve_dot`) and the plan's shift-add
    tree, never from the full-precision oracle.  Both sides run in blocks of about ``_BLOCK_ELEMENTS``
    elements (or one longer operand).  An x block is staged once, beside its first w block, and sliced
    once; its planes serve every w block, and each side of a block is sliced in one call.  Whatever n
    and m are, a call holds one x block's planes, one w block's planes and their engine products, and
    the m * n * clusters scalars, which each block pair writes into one [cluster, x, w] array.

    The float plane dot products are exact (see :mod:`cvusim.bitslice`).  The int64 shift-add cannot
    wrap: the planes of an element padded to e bits weigh at most 2**e, so every partial sum of one
    cluster's shift-add over L lanes is at most ``L * 2**(bw_x + bw_w)``, below 2**56 at 8-bit widths.
    Only a hand-built plan wider than ``MAX_BITWIDTH`` bits could pass 2**63, and raises :class:`RangeError`.
    """
    lengths = {len(v.array) for v in (*x_ops, *w_ops)}
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

    weights, c, s, n, m = _shift_weights(plan), plan.clusters, plan.slice_width, len(x_ops), len(w_ops)
    width, dtype = c * lanes, np.float32 if lanes << 2 * s <= 1 << 24 else np.float64  # float32 where exact
    scalars = np.empty((c, n, m), np.int64)
    cols = max(1, _BLOCK_ELEMENTS // width)
    rows = max(1, _BLOCK_ELEMENTS // (width + min(cols, n)))
    for x_lo in range(0, n, cols):
        x_block = x_ops[x_lo : x_lo + cols]
        nx = len(x_block)
        for w_lo in range(0, m, rows):
            w_block = w_ops[w_lo : w_lo + rows]
            staged = w_block if w_lo else [*x_block, *w_block]  # the x block once, beside its first w block
            stage = np.zeros((len(staged), 1, width), np.int16)
            stage[:, 0, :k] = [v.array for v in staged]
            if not w_lo:  # its planes serve every w block
                x = _planes(stage[:nx], s, plan.bw_x, dtype, c, lanes)
            w = _planes(stage[-len(w_block) :].reshape(-1), s, plan.bw_w, dtype, c, lanes)
            # operand-major x rows, plane-major w rows: one contraction of [cluster, x, x plane * w plane, w]
            products = nbve_dot(x, w).astype(np.int64).reshape(c, nx, len(weights), -1)
            np.matmul(weights, products, out=scalars[:, x_lo : x_lo + nx, w_lo : w_lo + rows])
    scalars = scalars.transpose(2, 1, 0)
    scalars.flags.writeable = False
    return CvuOutput(scalars=scalars, utilization=k / (cycles * plan.effective_length))
