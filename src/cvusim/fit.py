"""Calibration of :mod:`cvusim.cost`'s free constants to observed design points: as each metric is linear
in the constants, a closed-form least squares on Python floats (see :func:`_fit_metric`), which needs
neither numpy nor scipy and gives the same bits on every host."""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import partial, reduce

from .cost import _CATEGORIES, _CONVENTIONAL_UNITS, MAX_CALIBRATION_ERROR, CostParams, _structure, _weighted, per_mac_normalized
from .errors import CalibrationError, Checked, ConfigError, RangeError
from .plan import CvuConfig


class CalibrationAnchor(Checked, namedtuple("CalibrationAnchor", "cfg power_norm area_norm", defaults=(None, None))):
    """Observed normalized design point; either metric may be absent."""

    __slots__ = ()

    def _check(self):
        for name in ("power_norm", "area_norm"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise RangeError(f"{name} must be strictly positive and finite, got {value}")


# Design points the shipped defaults reproduce, chosen inside the envelope of
# the observed ratios (2.0x/1.7x power/area improvement at 2-bit/16 lanes,
# 1.4x area overhead at 2-bit/1 lane, >=2.4x lane-sweep power gap, no 1-bit
# benefit, ~3x and ~2.5x lane-sweep improvements) so that every quoted figure
# is met with margin.  ``calibrate(DEFAULT_ANCHORS)`` recovers the shipped
# constants, and every fit also adds these rows at ``_TIE_BREAK_WEIGHT``.
DEFAULT_ANCHORS = (
    CalibrationAnchor(CvuConfig(16, 2), power_norm=0.559, area_norm=0.540),
    CalibrationAnchor(CvuConfig(1, 2), power_norm=1.503, area_norm=1.515),
    CalibrationAnchor(CvuConfig(16, 1), power_norm=1.146, area_norm=1.117),
    CalibrationAnchor(CvuConfig(1, 1), power_norm=2.859, area_norm=2.907),
)

# Small enough that a fit's own anchors decide every constant they determine; two power
# targets, for one, leave one of the three free constants to the default anchors.
_TIE_BREAK_WEIGHT = 1e-9


def _fit_metric(anchors: list[CalibrationAnchor], metric: str) -> list[float]:
    """The category coefficients c that fit the anchors' ``metric`` ("power_norm" or "area_norm") in least squares.

    An observed t at unit counts u is the linear equation ``(u / (t * lanes) - conv) . c = 0``, whose left side
    is the anchor's relative error once ``conv . c = 1``.  The sum of their squares, plus the ``DEFAULT_ANCHORS``
    rows at ``_TIE_BREAK_WEIGHT``, is minimized under that constraint by solving its 5 x 5 KKT system with
    Gaussian elimination and partial pivoting.  Every sum adds Python floats left to right (not ``sum``, which
    Python 3.12 made compensated), so the fit is the same bits on every host and Python version.  Returns c
    with ``conv . c = 1``, not yet scaled, or NaNs where the system is singular after an overflow.
    """
    rows = [
        (weight, [n / (t * x.cfg.lanes) - m for n, m in zip(_structure(x.cfg), _CONVENTIONAL_UNITS)])
        for weight, group in ((1.0, anchors), (_TIE_BREAK_WEIGHT, DEFAULT_ANCHORS))
        for x in group
        if (t := getattr(x, metric)) is not None
    ]
    size = len(_CATEGORIES) + 1
    system = [  # the augmented matrix [[M, conv | 0], [conv, 0 | 1]], M the weighted normal matrix
        [*(reduce(operator.add, (w * a[i] * a[j] for w, a in rows), 0.0) for j in range(size - 1)), conv, 0.0]
        for i, conv in enumerate(map(float, _CONVENTIONAL_UNITS))
    ]
    system.append([*map(float, _CONVENTIONAL_UNITS), 0.0, 1.0])
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(system[r][col]))
        system[col], system[pivot] = system[pivot], system[col]
        if not abs(system[col][col]) > 0.0:
            return [math.nan] * len(_CATEGORIES)
        for r in range(col + 1, size):
            factor = system[r][col] / system[col][col]
            system[r] = [x - factor * y for x, y in zip(system[r], system[col])]
    solution = [0.0] * size
    for r in reversed(range(size)):
        tail = reduce(operator.add, (system[r][j] * solution[j] for j in range(r + 1, size)), 0.0)
        solution[r] = (system[r][size] - tail) / system[r][r]
    return solution[:-1]


def calibrate(anchors) -> tuple[CostParams, dict[str, float]]:
    """Fit the free constants to observed (power, area) anchor points.

    Per metric, minimizes the sum of the squared relative errors over the anchors (see
    :func:`_fit_metric`), then scales the coefficients so that the multiplier's, the scale
    reference, is 1; only normalized predictions are identifiable.

    Returns the parameters and the residuals: each observed metric's relative error, keyed
    ``sw{s}x{s}_L{lanes}_{power|area}`` for slice width s.  A coefficient that is not positive and finite,
    or a worst residual above ``MAX_CALIBRATION_ERROR``, raises :class:`CalibrationError` with the residuals.
    """
    anchors = list(anchors)
    if len(anchors) < 3:
        raise ConfigError(f"calibration needs at least 3 anchors, got {len(anchors)}")
    metrics = ("power_norm", "area_norm")
    if any(all(getattr(anchor, metric) is None for anchor in anchors) for metric in metrics):
        raise ConfigError("anchors must cover both power and area")

    e, a = (_fit_metric(anchors, metric) for metric in metrics)
    positive = all(0 < c < math.inf for c in (*e, *a))
    if positive:
        params = CostParams(
            **{energy: e[i] / e[0] for i, (_, energy, _) in enumerate(_CATEGORIES)},
            **{area: a[i] / a[0] for i, (_, _, area) in enumerate(_CATEGORIES)},
        )
        norms = partial(per_mac_normalized, params=params)
    else:  # CostParams refuses the coefficients, so price the anchors with them directly, at conv . c = 1
        def norms(cfg):
            return [_weighted(_structure(cfg), c) / cfg.lanes for c in (e, a)]

    residuals = {}
    for anchor in anchors:
        power, area = norms(anchor.cfg)
        label = "sw{0}x{0}_L{1}".format(anchor.cfg.slice_width, anchor.cfg.lanes)
        if anchor.power_norm is not None:
            residuals[f"{label}_power"] = abs(power / anchor.power_norm - 1.0)
        if anchor.area_norm is not None:
            residuals[f"{label}_area"] = abs(area / anchor.area_norm - 1.0)
    if not positive:
        raise CalibrationError("calibration finds no strictly positive, finite coefficients", residuals)
    worst = max(residuals.values())
    if worst > MAX_CALIBRATION_ERROR:
        raise CalibrationError(f"calibration residual {worst:.1%} exceeds {MAX_CALIBRATION_ERROR:.0%}", residuals)
    return params, residuals
