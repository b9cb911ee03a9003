"""Parameterized power/area model for composable vector units.

Every hardware category is costed from first-order gate counts: multipliers
scale with the product of the operand slice widths, adders and shifters and
registers scale with their operand widths, and adder widths come from exact
value-range analysis of the tree they sit in.  Each adder also carries a
fixed overhead (carry chain, cell granularity) expressed in bit equivalents;
this is what makes a 64-engine 1-bit design pay for its global tree.

Free per-bit constants absorb technology detail and are pinned by
:func:`calibrate` against observed normalized design points.  The shipped
defaults live in ``data/default_cost_params.json``.  Only :func:`calibrate`
needs numpy and scipy; it imports them on its first call, so evaluating the
model never loads either.

The normalization baseline is a conventional 8-bit MAC costed with the same
component model: one 8x8 multiplier, an accumulate adder, and an accumulator
register, both sized to the 64-bit accumulation path used by the array.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import reduce
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .bitslice import MAX_BITWIDTH, SliceConfig
from .cvu import CvuConfig, plan_composition
from .errors import CalibrationError, ConfigError, RangeError

if TYPE_CHECKING:
    import numpy as np

ACCUMULATOR_BITS = 64
# Fixed per-adder overhead in bit equivalents (carry logic, cell granularity).
ADDER_OVERHEAD_BITS = 8
PARAMS_SCHEMA_VERSION = 1
MAX_CALIBRATION_ERROR = 0.25  # the worst relative anchor residual a calibration may leave

# The four hardware categories: params-file key, CostBreakdown field prefix,
# inventory key, and the CostParams energy and area constants.
_CATEGORIES = (
    ("mult", "multiply", "mult_units", "mult_energy_coeff", "mult_area_coeff"),
    ("adder", "add", "add_units", "adder_energy_per_bit", "adder_area_per_bit"),
    ("shifter", "shift", "shift_units", "shifter_energy_per_bit", "shifter_area_per_bit"),
    ("register", "register", "register_units", "register_energy_per_bit", "register_area_per_bit"),
)
_unit_counts = operator.itemgetter(*(unit_key for _, _, unit_key, _, _ in _CATEGORIES))
_energy_constants = operator.attrgetter(*(energy for _, _, _, energy, _ in _CATEGORIES))
_area_constants = operator.attrgetter(*(area for _, _, _, _, area in _CATEGORIES))


@dataclass(frozen=True)
class CostParams:
    """Per-component energy/area constants plus the absolute power scale.

    ``mult_*_coeff`` multiplies alpha*beta per multiplier; the remaining
    constants are per bit.  ``conventional_mac_mw`` anchors the model to an
    absolute scale (mW per conventional 8-bit MAC at the array frequency)
    and is only used for iso-power sizing and energy accounting.
    """

    mult_energy_coeff: float
    adder_energy_per_bit: float
    shifter_energy_per_bit: float
    register_energy_per_bit: float
    mult_area_coeff: float
    adder_area_per_bit: float
    shifter_area_per_bit: float
    register_area_per_bit: float
    conventional_mac_mw: float = 0.25

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not 0 < value < math.inf:
                raise RangeError(f"{name} must be strictly positive and finite, got {value}")

    def to_json(self) -> str:
        doc = {
            "version": PARAMS_SCHEMA_VERSION,
            "energy": {key: getattr(self, energy) for key, _, _, energy, _ in _CATEGORIES},
            "area": {key: getattr(self, area) for key, _, _, _, area in _CATEGORIES},
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
                **{energy: doc["energy"][key] for key, _, _, energy, _ in _CATEGORIES},
                **{area: doc["area"][key] for key, _, _, _, area in _CATEGORIES},
                conventional_mac_mw=doc.get("conventional_mac_mw", 0.25),
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed cost params file: {exc}") from exc


@dataclass(frozen=True)
class CostBreakdown:
    """Energy (per cycle) and area per hardware category."""

    multiply_energy: float
    add_energy: float
    shift_energy: float
    register_energy: float
    multiply_area: float
    add_area: float
    shift_area: float
    register_area: float

    @property
    def total_energy(self) -> float:
        return self.multiply_energy + self.add_energy + self.shift_energy + self.register_energy

    @property
    def total_area(self) -> float:
        return self.multiply_area + self.add_area + self.shift_area + self.register_area


@dataclass(frozen=True)
class DsePoint:
    """One design-space point and its per-MAC cost breakdown; the breakdown's totals are its power and area."""

    slice_width: int
    lanes: int
    breakdown: CostBreakdown


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


# The conventional 8-bit MAC baseline: one 8x8 multiplier and a 64-bit
# accumulate adder and register.
_CONVENTIONAL_MAC = {
    "mult_units": 64,
    "add_units": _adder_units(ACCUMULATOR_BITS),
    "shift_units": 0,
    "register_units": ACCUMULATOR_BITS,
}


def _structure(cfg: CvuConfig) -> dict[str, int]:
    """Bit-unit inventory of one CVU (constants not yet applied).

    Each engine's output is shifted as the full-width composition plan shifts it, and the
    global tree adds the shifted outputs."""
    alpha, beta = cfg.slice.alpha, cfg.slice.beta
    product_max = ((1 << alpha) - 1) * ((1 << beta) - 1)
    nbve_units, _, nbve_out_max = _tree_reduce([product_max] * cfg.lanes)
    shifts = plan_composition(MAX_BITWIDTH, MAX_BITWIDTH, cfg).shifts
    global_units, _, _ = _tree_reduce([nbve_out_max << shift for shift in shifts])

    return {
        "mult_units": cfg.nbve_count * cfg.lanes * alpha * beta,
        "add_units": cfg.nbve_count * nbve_units + global_units + _adder_units(ACCUMULATOR_BITS),
        "shift_units": cfg.nbve_count * (nbve_out_max.bit_length() + max(shifts)),
        "register_units": ACCUMULATOR_BITS,
    }


def _cost(units: dict[str, int], params: CostParams, macs: int, per: tuple[float, float]) -> CostBreakdown:
    """Apply the constants to a bit-unit inventory, then divide by ``macs`` and ``per`` (energy, area)."""
    per_energy, per_area = per
    fields = {}
    rows = zip(_CATEGORIES, _unit_counts(units), _energy_constants(params), _area_constants(params))
    for (_, prefix, _, _, _), n, energy, area in rows:
        fields[prefix + "_energy"] = n * energy / macs / per_energy
        fields[prefix + "_area"] = n * area / macs / per_area
    return CostBreakdown(**fields)


def _weighted(units: dict[str, int], coeffs) -> float:
    """Unit counts times one coefficient per category, added left to right in category order."""
    return reduce(operator.add, map(operator.mul, _unit_counts(units), coeffs))


def conventional_mac_cost(params: CostParams) -> tuple[float, float]:
    """(energy, area) of the conventional 8-bit MAC normalization baseline."""
    energy = _weighted(_CONVENTIONAL_MAC, _energy_constants(params))
    return energy, _weighted(_CONVENTIONAL_MAC, _area_constants(params))


def per_mac_breakdown(cfg: CvuConfig, params: CostParams) -> CostBreakdown:
    """CVU cost per 8-bit MAC, normalized to the conventional MAC.

    At full width the engines form one cluster, so a CVU cycle is ``lanes`` MACs.
    """
    return _cost(_structure(cfg), params, cfg.lanes, conventional_mac_cost(params))


def per_mac_normalized(cfg: CvuConfig, params: CostParams) -> tuple[float, float]:
    """(power, area) per 8-bit MAC relative to a conventional 8-bit MAC."""
    b = per_mac_breakdown(cfg, params)
    return b.total_energy, b.total_area


def dse_sweep(slice_widths, lanes_values, params: CostParams) -> list[DsePoint]:
    """One DsePoint per (slice width, lanes) pair, deterministic order."""
    points = []
    for sw in sorted(set(int(s) for s in slice_widths)):
        for lanes in sorted(set(int(l) for l in lanes_values)):
            cfg = CvuConfig(lanes=lanes, slice=SliceConfig(sw, sw))
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


@dataclass(frozen=True)
class CalibrationAnchor:
    """Observed normalized design point; either metric may be absent."""

    cfg: CvuConfig
    power_norm: float | None = None
    area_norm: float | None = None


# Design points the shipped defaults reproduce.  Chosen inside the feasible
# envelope of the observed ratios (2.0x/1.7x power/area improvement at
# 2-bit/16 lanes, 1.4x area overhead at 2-bit/1 lane, >=2.4x lane-sweep
# power gap, no 1-bit benefit, ~3x and ~2.5x lane-sweep improvements) so
# that every quoted figure is met with margin; rerunning
# ``calibrate(DEFAULT_ANCHORS)`` recovers the shipped constants.
DEFAULT_ANCHORS = (
    CalibrationAnchor(CvuConfig(16, SliceConfig(2, 2)), power_norm=0.559, area_norm=0.540),
    CalibrationAnchor(CvuConfig(1, SliceConfig(2, 2)), power_norm=1.503, area_norm=1.515),
    CalibrationAnchor(CvuConfig(16, SliceConfig(1, 1)), power_norm=1.146, area_norm=1.117),
    CalibrationAnchor(CvuConfig(1, SliceConfig(1, 1)), power_norm=2.859, area_norm=2.907),
)

_SWEEP_LANES = (1, 2, 4, 8, 16)


def _norms_for(table: dict[tuple[int, int, int], dict], coeffs: np.ndarray) -> dict[tuple[int, int, int], float]:
    """Per-MAC metric of every inventory in ``table``, normalized to the conventional MAC."""
    conv = _weighted(_CONVENTIONAL_MAC, coeffs)
    return {key: _weighted(s, coeffs) / conv / s["macs"] for key, s in table.items()}


def _key(cfg: CvuConfig) -> tuple[int, int, int]:
    return cfg.slice.alpha, cfg.slice.beta, cfg.lanes


def _inventories(cfgs) -> dict[tuple[int, int, int], dict]:
    """Per-CVU inventory and its MACs per cycle, keyed by (alpha, beta, lanes)."""
    return {_key(cfg): dict(_structure(cfg), macs=cfg.lanes) for cfg in cfgs}


def _qualitative_penalty(table: dict, norm: dict, coeffs: np.ndarray) -> float:
    """Soft constraints keeping the model's qualitative shape during fits.

    Violations of: per-MAC cost strictly decreasing in lanes, saturation of
    the lane improvement, 2-bit dominating 1-bit, 1-bit never beating the
    conventional unit, and the adder category ranking first at the
    (2-bit, 16-lane) point.
    """
    penalty = 0.0
    for sw in (1, 2):
        series = [norm[(sw, sw, l)] for l in _SWEEP_LANES]
        for a, b in zip(series, series[1:]):
            penalty += max(0.0, (b - a) / a + 1e-4)  # must decrease with lanes
        first = series[0] / series[1]
        last = series[-2] / series[-1]
        penalty += max(0.0, last - first)  # diminishing returns
    for lanes in _SWEEP_LANES:
        penalty += max(0.0, (norm[(2, 2, lanes)] - norm[(1, 1, lanes)]) / norm[(1, 1, lanes)] + 1e-4)
        penalty += max(0.0, 1.0 - norm[(1, 1, lanes)])  # 1-bit never beats conventional
    s216 = table[(2, 2, 16)]
    mult, adder, shifter, register = coeffs
    add_cost = s216["add_units"] * adder
    for other in (s216["mult_units"] * mult, s216["shift_units"] * shifter, s216["register_units"] * register):
        penalty += max(0.0, (other - add_cost) / add_cost)
    return penalty


def _fit_metric(targets: list[tuple[CvuConfig, float]]) -> np.ndarray:
    import numpy as np
    from scipy.optimize import minimize

    # the symmetric sweep that the qualitative penalty reads, then the anchors
    sweep = (CvuConfig(lanes=lanes, slice=SliceConfig(sw, sw)) for sw in (1, 2, 4) for lanes in _SWEEP_LANES)
    table = _inventories((*sweep, *(cfg for cfg, _ in targets)))
    keyed = [(_key(cfg), observed) for cfg, observed in targets]

    def objective(x: np.ndarray) -> float:
        coeffs = np.concatenate(([1.0], np.exp(x)))
        norm = _norms_for(table, coeffs)
        err = max(abs(norm[key] / obs - 1.0) for key, obs in keyed)
        return err + 10.0 * _qualitative_penalty(table, norm, coeffs)

    best = None
    for start in ((0.28, 0.16, 2.76), (0.1, 0.05, 1.0), (1.0, 0.5, 5.0)):
        res = minimize(
            objective,
            np.log(start),
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 4000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return np.concatenate(([1.0], np.exp(best.x)))


def calibrate(anchors) -> tuple[CostParams, dict[str, float]]:
    """Fit the free constants to observed (power, area) anchor points.

    Minimizes the maximum relative error over the anchors, subject to the
    model's qualitative invariants.  The multiplier coefficient is the scale
    reference and fixed at 1; only normalized predictions are identifiable.

    Returns the parameters and the residuals: each observed metric's relative error, keyed
    ``sw{alpha}x{beta}_L{lanes}_{power|area}``.  A worst residual above
    ``MAX_CALIBRATION_ERROR`` raises :class:`CalibrationError` with the same residuals.
    """
    anchors = list(anchors)
    if len(anchors) < 3:
        raise ConfigError(f"calibration needs at least 3 anchors, got {len(anchors)}")
    power_targets = [(a.cfg, a.power_norm) for a in anchors if a.power_norm is not None]
    area_targets = [(a.cfg, a.area_norm) for a in anchors if a.area_norm is not None]
    if not power_targets or not area_targets:
        raise ConfigError("anchors must cover both power and area")

    e = _fit_metric(power_targets)
    a = _fit_metric(area_targets)
    params = CostParams(
        **{energy: e[i] for i, (_, _, _, energy, _) in enumerate(_CATEGORIES)},
        **{area: a[i] for i, (_, _, _, _, area) in enumerate(_CATEGORIES)},
    )

    residuals = {}
    for anchor in anchors:
        power, area = per_mac_normalized(anchor.cfg, params)
        label = "sw{}x{}_L{}".format(*_key(anchor.cfg))
        if anchor.power_norm is not None:
            residuals[f"{label}_power"] = abs(power / anchor.power_norm - 1.0)
        if anchor.area_norm is not None:
            residuals[f"{label}_area"] = abs(area / anchor.area_norm - 1.0)
    worst = max(residuals.values())
    if worst > MAX_CALIBRATION_ERROR:
        raise CalibrationError(f"calibration residual {worst:.1%} exceeds {MAX_CALIBRATION_ERROR:.0%}", residuals)
    return params, residuals


def load_params(path: str | Path) -> CostParams:
    return CostParams.from_json(Path(path).read_text())


def default_params() -> CostParams:
    """The shipped calibrated parameter set."""
    text = resources.files("cvusim").joinpath("data/default_cost_params.json").read_text()
    return CostParams.from_json(text)
