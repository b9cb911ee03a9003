"""Parameterized power/area model for composable vector units.

Every hardware category is costed from first-order gate counts: a multiplier
of slice width s takes s bits of each operand and scales with s*s, adders and
shifters and registers scale with their operand widths, and adder widths come
from exact value-range analysis of the tree they sit in.  Each adder also
carries a fixed overhead (carry chain, cell granularity) expressed in bit
equivalents; this is what makes a 64-engine 1-bit design pay for its global tree.
A CVU's inventory is one tuple of unit counts in ``_CATEGORIES`` order
(multiplier, adder, shifter, register), the order of :class:`CostBreakdown`'s
energy and area fields and of the fit's coefficients.

Free per-bit constants absorb technology detail and are pinned by
:func:`calibrate` against observed normalized design points.  The shipped
defaults live in ``data/default_cost_params.json``.  Each metric is linear in
the constants, so the fit is a closed-form least squares on Python floats (see
:func:`_fit_metric`): it needs neither numpy nor scipy, and gives the same bits
on every host.

The normalization baseline is a conventional 8-bit MAC costed with the same
component model: one 8x8 multiplier, an accumulate adder, and an accumulator
register, both sized to the 64-bit accumulation path used by the array.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple
from functools import lru_cache, partial, reduce
from pathlib import Path

from .bitslice import MAX_BITWIDTH
from .cvu import CvuConfig, plan_composition
from .errors import CalibrationError, Checked, ConfigError, RangeError

ACCUMULATOR_BITS = 64
# Fixed per-adder overhead in bit equivalents (carry logic, cell granularity).
ADDER_OVERHEAD_BITS = 8
PARAMS_SCHEMA_VERSION = 1
MAX_CALIBRATION_ERROR = 0.25  # the worst relative anchor residual a calibration may leave

# The four hardware categories, in the order of every unit inventory and CostBreakdown:
# params-file key, and the CostParams energy and area constants.
_CATEGORIES = (
    ("mult", "mult_energy_coeff", "mult_area_coeff"),
    ("adder", "adder_energy_per_bit", "adder_area_per_bit"),
    ("shifter", "shifter_energy_per_bit", "shifter_area_per_bit"),
    ("register", "register_energy_per_bit", "register_area_per_bit"),
)
_energy_constants = operator.attrgetter(*(energy for _, energy, _ in _CATEGORIES))
_area_constants = operator.attrgetter(*(area for _, _, area in _CATEGORIES))


class CostParams(Checked, namedtuple(
    "CostParams",
    "mult_energy_coeff adder_energy_per_bit shifter_energy_per_bit register_energy_per_bit"
    " mult_area_coeff adder_area_per_bit shifter_area_per_bit register_area_per_bit conventional_mac_mw",
    defaults=(0.25,),
)):
    """Per-component energy/area constants plus the absolute power scale.

    ``mult_*_coeff`` multiplies s*s per multiplier of slice width s; the remaining
    constants are per bit.  ``conventional_mac_mw`` anchors the model to an
    absolute scale (mW per conventional 8-bit MAC at the array frequency)
    and is only used for iso-power sizing and energy accounting.
    """

    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            if not 0 < value < math.inf:
                raise RangeError(f"{name} must be strictly positive and finite, got {value}")

    def to_json(self) -> str:
        doc = {
            "version": PARAMS_SCHEMA_VERSION,
            "energy": {key: getattr(self, energy) for key, energy, _ in _CATEGORIES},
            "area": {key: getattr(self, area) for key, _, area in _CATEGORIES},
            "conventional_mac_mw": self.conventional_mac_mw,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CostParams":
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict):
                raise ConfigError(f"cost params must be a JSON object, got {type(doc).__name__}")
            if doc.get("version") != PARAMS_SCHEMA_VERSION:
                raise ConfigError(f"unsupported cost params version {doc.get('version')!r}")
            return cls(
                **{energy: doc["energy"][key] for key, energy, _ in _CATEGORIES},
                **{area: doc["area"][key] for key, _, area in _CATEGORIES},
                conventional_mac_mw=doc.get("conventional_mac_mw", 0.25),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed cost params file: {exc}") from exc


class CostBreakdown(namedtuple(
    "CostBreakdown",
    "multiply_energy add_energy shift_energy register_energy multiply_area add_area shift_area register_area",
)):
    """Energy (per cycle) and area per hardware category."""

    __slots__ = ()

    @property
    def total_energy(self) -> float:
        return self.multiply_energy + self.add_energy + self.shift_energy + self.register_energy

    @property
    def total_area(self) -> float:
        return self.multiply_area + self.add_area + self.shift_area + self.register_area


# One design-space point and its per-MAC cost breakdown; the breakdown's totals are its power and area.
DsePoint = namedtuple("DsePoint", "slice_width lanes breakdown")


def _adder_units(width_bits: int) -> int:
    return width_bits + ADDER_OVERHEAD_BITS


def _tree_reduce(maxima: list[int]) -> tuple[int, int, int]:
    """Pairwise-reduce value maxima; return (bit units, adder count, out max)."""
    units = 0
    count = 0
    level = list(maxima)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            out = level[i] + level[i + 1]
            units += _adder_units(out.bit_length())
            count += 1
            nxt.append(out)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return units, count, level[0] if level else 0


# The conventional 8-bit MAC baseline, as unit counts in category order: one
# 8x8 multiplier and a 64-bit accumulate adder and register.
_CONVENTIONAL_UNITS = (64, _adder_units(ACCUMULATOR_BITS), 0, ACCUMULATOR_BITS)


@lru_cache(maxsize=256)  # a pure function of a hashable, frozen config
def _structure(cfg: CvuConfig) -> tuple[int, int, int, int]:
    """Bit-unit inventory of one CVU (constants not yet applied), cached per config.

    Returns the multiplier, adder, shifter and register unit counts, in ``_CATEGORIES``
    order.  Each engine's output is shifted as the full-width composition plan shifts it,
    and the global tree adds the shifted outputs."""
    s = cfg.slice_width
    product_max = ((1 << s) - 1) ** 2
    nbve_units, _, nbve_out_max = _tree_reduce([product_max] * cfg.lanes)
    shifts = plan_composition(MAX_BITWIDTH, MAX_BITWIDTH, cfg).shifts
    global_units, _, _ = _tree_reduce([nbve_out_max << shift for shift in shifts])

    return (
        cfg.nbve_count * cfg.lanes * s * s,
        cfg.nbve_count * nbve_units + global_units + _adder_units(ACCUMULATOR_BITS),
        cfg.nbve_count * (nbve_out_max.bit_length() + max(shifts)),
        ACCUMULATOR_BITS,
    )


def _weighted(counts: tuple[int, ...], coeffs) -> float:
    """Unit counts times one coefficient per category, added left to right in category order."""
    (mult, add, shift, register), (c_mult, c_add, c_shift, c_register) = counts, coeffs
    return mult * c_mult + add * c_add + shift * c_shift + register * c_register


def conventional_mac_cost(params: CostParams) -> tuple[float, float]:
    """(energy, area) of the conventional 8-bit MAC normalization baseline."""
    energy = _weighted(_CONVENTIONAL_UNITS, _energy_constants(params))
    return energy, _weighted(_CONVENTIONAL_UNITS, _area_constants(params))


def per_mac_breakdown(cfg: CvuConfig, params: CostParams) -> CostBreakdown:
    """CVU cost per 8-bit MAC, normalized to the conventional MAC.

    At full width the engines form one cluster, so a CVU cycle is ``lanes`` MACs.
    """
    units, lanes = _structure(cfg), cfg.lanes
    conventional_energy, conventional_area = conventional_mac_cost(params)
    return CostBreakdown(
        *(n * c / lanes / conventional_energy for n, c in zip(units, _energy_constants(params))),
        *(n * c / lanes / conventional_area for n, c in zip(units, _area_constants(params))),
    )


def per_mac_normalized(cfg: CvuConfig, params: CostParams) -> tuple[float, float]:
    """(power, area) per 8-bit MAC relative to a conventional 8-bit MAC."""
    b = per_mac_breakdown(cfg, params)
    return b.total_energy, b.total_area


def dse_sweep(slice_widths, lanes_values, params: CostParams) -> list[DsePoint]:
    """One DsePoint per (slice width, lanes) pair, deterministic order."""
    points = []
    for sw in sorted(set(int(s) for s in slice_widths)):
        for lanes in sorted(set(int(l) for l in lanes_values)):
            cfg = CvuConfig(lanes=lanes, slice_width=sw)
            points.append(DsePoint(slice_width=sw, lanes=lanes, breakdown=per_mac_breakdown(cfg, params)))
    return points


def iso_power_array_size(power_budget_mw: float, per_unit_power_mw: float) -> int:
    """How many MAC-equivalents fit under a power budget."""
    if not 0 < per_unit_power_mw < math.inf:
        raise ConfigError(f"per-unit power must be positive and finite, got {per_unit_power_mw}")
    units = power_budget_mw / per_unit_power_mw
    if not 0 <= units < math.inf:
        raise ConfigError(f"power budget must be non-negative and a finite number of units, got {power_budget_mw} mW")
    return int(units)


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


def load_params(path: str | Path) -> CostParams:
    return CostParams.from_json(Path(path).read_text())


def default_params() -> CostParams:
    """The shipped calibrated parameter set."""
    return load_params(Path(__file__).with_name("data") / "default_cost_params.json")
