"""Bit-level execution of one Composable Vector Unit's composition plan (see :mod:`cvusim.plan`).

:func:`execute_cycle` runs every (w, x) pair of a set of operands of one length over the fewest
cycles that hold it: each pair's element stream is spread over the clusters, ``cycles * lanes``
elements each, and every cluster emits its share of the dot product.  An x block is staged in int16,
cast from the operands' float64 arrays, beside its first w block; each side is sliced by one
:func:`slice_vector` call and cast once to float for the engines' matmuls, and the shift-add is one
int64 contraction against weights cached per plan.
The cluster scalars come back as one read-only int64 array.  Importing this module imports numpy.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Sequence

import numpy as np

from .bitslice import QuantizedVector, nbve_dot, slice_vector
from .errors import RangeError, ShapeError
from .plan import CompositionPlan

# Cluster scalars of every (w, x) pair of one call, plus the lane utilization.
CvuOutput = namedtuple("CvuOutput", "scalars utilization")
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
    One checking pass visits each operand once per check, in plain loops: every length against the first
    operand's, x operands first, then every x and every w bitwidth against its side's padded width.  So a
    length fault raises :class:`ShapeError` before any width fault raises :class:`RangeError`.

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
    bw_x, bw_w, c, _, effective_length, s = plan
    ops, arrays = (*x_ops, *w_ops), []  # every operand's array, x first, as the blocks stage them
    k = len(ops[0].array) if ops else 0
    for v in ops:
        arrays.append(array := v.array)
        if len(array) != k:
            raise ShapeError(f"operands differ in length: {sorted({len(v.array) for v in ops})}")
    for side, side_ops, width in (("x", x_ops, bw_x), ("w", w_ops, bw_w)):
        for v in side_ops:
            if v.bitwidth > width:
                raise RangeError(f"{side} operand bitwidths exceed the plan's padded width {width}")
    cycles = max(1, -(-k // effective_length))
    lanes = max(1, min(k, cycles * plan.lanes))  # an empty stream still gets one lane of zeros
    if lanes << (bw_x + bw_w) >= 1 << 63:
        raise RangeError(f"{lanes}-lane clusters at {bw_x}x{bw_w} padded bits could overflow int64")

    weights, n, m = _shift_weights(plan), len(x_ops), len(w_ops)
    width, dtype = c * lanes, np.float32 if lanes << 2 * s <= 1 << 24 else np.float64  # float32 where exact
    scalars = np.empty((c, n, m), np.int64)
    cols = max(1, _BLOCK_ELEMENTS // width)
    rows = max(1, _BLOCK_ELEMENTS // (width + min(cols, n)))
    for x_lo in range(0, n, cols):
        nx = min(cols, n - x_lo)
        for w_lo in range(0, m, rows):
            nw = min(rows, m - w_lo)
            staged = arrays[n + w_lo : n + w_lo + nw]
            if not w_lo:  # the x block once, beside its first w block
                staged = arrays[x_lo : x_lo + nx] + staged
            stage = np.zeros((len(staged), 1, width), np.int16)
            stage[:, 0, :k] = staged
            if not w_lo:  # its planes serve every w block
                x = _planes(stage[:nx], s, bw_x, dtype, c, lanes)
            w = _planes(stage[-nw:].reshape(-1), s, bw_w, dtype, c, lanes)
            # operand-major x rows, plane-major w rows: one contraction of [cluster, x, x plane * w plane, w]
            products = nbve_dot(x, w).astype(np.int64).reshape(c, nx, len(weights), -1)
            np.matmul(weights, products, out=scalars[:, x_lo : x_lo + nx, w_lo : w_lo + rows])
    scalars = scalars.transpose(2, 1, 0)
    scalars.setflags(write=False)
    return tuple.__new__(CvuOutput, (scalars, k / (cycles * effective_length)))  # skips the keyword __new__
