"""Oracles that share no arithmetic with the paths they check."""

import operator

from cvusim.errors import ShapeError


def dot_exact(x, w) -> int:
    """Plain widening integer dot product of two vectors' ``array``: the oracle for every exact path.

    It adds the Python integers of ``array.tolist()``, so no int64 or float kernel stands between it and the answer.
    """
    if len(x) != len(w):
        raise ShapeError(f"vector length mismatch: {len(x)} vs {len(w)}")
    return sum(map(operator.mul, x.array.tolist(), w.array.tolist()))
