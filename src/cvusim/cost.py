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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

from .cvu import CvuConfig, macs_per_cycle, plan_composition
from .errors import CalibrationError, ConfigError, RangeError

if TYPE_CHECKING:
    import numpy as np

ACCUMULATOR_BITS = 64
# Fixed per-adder overhead in bit equivalents (carry logic, cell granularity).
ADDER_OVERHEAD_BITS = 8
PARAMS_SCHEMA_VERSION = 1

_COST_FIELDS = ("mult", "adder", "shifter", "register")


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
            if not value > 0:
                raise RangeError(f"{name} must be strictly positive, got {value}")

    def mult_energy(self, alpha: int, beta: int) -> float:
        return self.mult_energy_coeff * alpha * beta

    def mult_area(self, alpha: int, beta: int) -> float:
        return self.mult_area_coeff * alpha * beta

    def to_json(self) -> str:
        doc = {
            "version": PARAMS_SCHEMA_VERSION,
            "energy": {
                "mult": self.mult_energy_coeff,
                "adder": self.adder_energy_per_bit,
                "shifter": self.shifter_energy_per_bit,
                "register": self.register_energy_per_bit,
            },
            "area": {
                "mult": self.mult_area_coeff,
                "adder": self.adder_area_per_bit,
                "shifter": self.shifter_area_per_bit,
                "register": self.register_area_per_bit,
            },
            "conventional_mac_mw": self.conventional_mac_mw,
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CostParams":
        try:
            doc = json.loads(text)
            if doc.get("version") != PARAMS_SCHEMA_VERSION:
                raise ConfigError(f"unsupported cost params version {doc.get('version')!r}")
            return cls(
                mult_energy_coeff=doc["energy"]["mult"],
                adder_energy_per_bit=doc["energy"]["adder"],
                shifter_energy_per_bit=doc["energy"]["shifter"],
                register_energy_per_bit=doc["energy"]["register"],
                mult_area_coeff=doc["area"]["mult"],
                adder_area_per_bit=doc["area"]["adder"],
                shifter_area_per_bit=doc["area"]["shifter"],
                register_area_per_bit=doc["area"]["register"],
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

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(*(getattr(self, f.name) * factor for f in _breakdown_fields()))


def _breakdown_fields():
    from dataclasses import fields

    return fields(CostBreakdown)


@dataclass(frozen=True)
class DsePoint:
    """One design-space point: normalized per-MAC cost and its breakdown."""

    slice_width: int
    lanes: int
    power_per_mac_norm: float
    area_per_mac_norm: float
    breakdown: CostBreakdown


@dataclass(frozen=True)
class AdderInventory:
    """Adder counts by tree level (introspection and tests)."""

    per_nbve: int
    global_tree: int
    accumulate: int

    @property
    def total(self) -> int:
        return self.per_nbve + self.global_tree + self.accumulate


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


def adder_inventory(cfg: CvuConfig) -> AdderInventory:
    per_nbve = cfg.nbve_count * (cfg.lanes - 1)
    return AdderInventory(per_nbve=per_nbve, global_tree=cfg.nbve_count - 1, accumulate=1)


def _structure(cfg: CvuConfig) -> dict[str, float]:
    """Bit-unit inventory of one CVU (constants not yet applied)."""
    alpha, beta, max_bw = cfg.slice.alpha, cfg.slice.beta, cfg.slice.max_bw
    planes_x = max_bw // alpha
    planes_w = max_bw // beta
    product_max = ((1 << alpha) - 1) * ((1 << beta) - 1)

    nbve_units, _, nbve_out_max = _tree_reduce([product_max] * cfg.lanes)
    nbve_out_bits = nbve_out_max.bit_length()
    max_shift = alpha * (planes_x - 1) + beta * (planes_w - 1)

    shifted = [
        nbve_out_max << (alpha * j + beta * k) for j in range(planes_x) for k in range(planes_w)
    ]
    global_units, _, global_out_max = _tree_reduce(shifted)

    return {
        "mult_units": cfg.nbve_count * cfg.lanes * alpha * beta,
        "add_units": cfg.nbve_count * nbve_units + global_units + _adder_units(ACCUMULATOR_BITS),
        "shift_units": cfg.nbve_count * (nbve_out_bits + max_shift),
        "register_units": ACCUMULATOR_BITS,
        "output_bits": global_out_max.bit_length(),
    }


def cvu_cost(cfg: CvuConfig, params: CostParams) -> CostBreakdown:
    """Absolute model cost of one CVU (energy per cycle, area)."""
    s = _structure(cfg)
    return CostBreakdown(
        multiply_energy=s["mult_units"] * params.mult_energy_coeff,
        add_energy=s["add_units"] * params.adder_energy_per_bit,
        shift_energy=s["shift_units"] * params.shifter_energy_per_bit,
        register_energy=s["register_units"] * params.register_energy_per_bit,
        multiply_area=s["mult_units"] * params.mult_area_coeff,
        add_area=s["add_units"] * params.adder_area_per_bit,
        shift_area=s["shift_units"] * params.shifter_area_per_bit,
        register_area=s["register_units"] * params.register_area_per_bit,
    )


def conventional_mac_cost(params: CostParams) -> tuple[float, float]:
    """(energy, area) of the conventional 8-bit MAC normalization baseline."""
    mult_units = 64
    add_units = _adder_units(ACCUMULATOR_BITS)
    reg_units = ACCUMULATOR_BITS
    energy = (
        mult_units * params.mult_energy_coeff
        + add_units * params.adder_energy_per_bit
        + reg_units * params.register_energy_per_bit
    )
    area = (
        mult_units * params.mult_area_coeff
        + add_units * params.adder_area_per_bit
        + reg_units * params.register_area_per_bit
    )
    return energy, area


def per_mac_breakdown(cfg: CvuConfig, params: CostParams) -> CostBreakdown:
    """CVU cost per 8-bit MAC, normalized to the conventional MAC."""
    macs = macs_per_cycle(plan_composition(cfg.slice.max_bw, cfg.slice.max_bw, cfg), cfg)
    conv_energy, conv_area = conventional_mac_cost(params)
    raw = cvu_cost(cfg, params)
    return CostBreakdown(
        multiply_energy=raw.multiply_energy / macs / conv_energy,
        add_energy=raw.add_energy / macs / conv_energy,
        shift_energy=raw.shift_energy / macs / conv_energy,
        register_energy=raw.register_energy / macs / conv_energy,
        multiply_area=raw.multiply_area / macs / conv_area,
        add_area=raw.add_area / macs / conv_area,
        shift_area=raw.shift_area / macs / conv_area,
        register_area=raw.register_area / macs / conv_area,
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
            cfg = CvuConfig(lanes=lanes, slice=_symmetric_slice(sw))
            breakdown = per_mac_breakdown(cfg, params)
            points.append(
                DsePoint(
                    slice_width=sw,
                    lanes=lanes,
                    power_per_mac_norm=breakdown.total_energy,
                    area_per_mac_norm=breakdown.total_area,
                    breakdown=breakdown,
                )
            )
    return points


def _symmetric_slice(width: int):
    from .bitslice import SliceConfig

    return SliceConfig(alpha=width, beta=width)


def iso_power_array_size(power_budget_mw: float, per_unit_power_mw: float) -> int:
    """How many MAC-equivalents fit under a power budget."""
    if per_unit_power_mw <= 0:
        raise ConfigError(f"per-unit power must be positive, got {per_unit_power_mw}")
    if power_budget_mw < 0:
        raise ConfigError(f"power budget must be non-negative, got {power_budget_mw}")
    return int(power_budget_mw / per_unit_power_mw)


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
    CalibrationAnchor(CvuConfig(16, _symmetric_slice(2)), power_norm=0.559, area_norm=0.540),
    CalibrationAnchor(CvuConfig(1, _symmetric_slice(2)), power_norm=1.503, area_norm=1.515),
    CalibrationAnchor(CvuConfig(16, _symmetric_slice(1)), power_norm=1.146, area_norm=1.117),
    CalibrationAnchor(CvuConfig(1, _symmetric_slice(1)), power_norm=2.859, area_norm=2.907),
)

_SWEEP_LANES = (1, 2, 4, 8, 16)


def _norms_for(structure: dict[str, float], conv: dict[str, float], coeffs: np.ndarray) -> float:
    mult, adder, shifter, register = coeffs
    num = (
        structure["mult_units"] * mult
        + structure["add_units"] * adder
        + structure["shift_units"] * shifter
        + structure["register_units"] * register
    )
    den = conv["mult_units"] * mult + conv["add_units"] * adder + conv["register_units"] * register
    return num / den / structure["macs"]


def _per_mac_structures() -> tuple[dict, dict[tuple[int, int], dict]]:
    conv = {"mult_units": 64, "add_units": _adder_units(ACCUMULATOR_BITS), "register_units": ACCUMULATOR_BITS}
    table = {}
    for sw in (1, 2, 4):
        for lanes in _SWEEP_LANES:
            cfg = CvuConfig(lanes=lanes, slice=_symmetric_slice(sw))
            s = _structure(cfg)
            s["macs"] = lanes
            table[(sw, lanes)] = s
    return conv, table


def _qualitative_penalty(conv: dict, table: dict, coeffs: np.ndarray) -> float:
    """Soft constraints keeping the model's qualitative shape during fits.

    Violations of: per-MAC cost strictly decreasing in lanes, saturation of
    the lane improvement, 2-bit dominating 1-bit, 1-bit never beating the
    conventional unit, and the adder category ranking first at the
    (2-bit, 16-lane) point.
    """
    penalty = 0.0
    norm = {key: _norms_for(s, conv, coeffs) for key, s in table.items()}
    for sw in (1, 2):
        series = [norm[(sw, l)] for l in _SWEEP_LANES]
        for a, b in zip(series, series[1:]):
            penalty += max(0.0, (b - a) / a + 1e-4)  # must decrease with lanes
        first = series[0] / series[1]
        last = series[-2] / series[-1]
        penalty += max(0.0, last - first)  # diminishing returns
    for lanes in _SWEEP_LANES:
        penalty += max(0.0, (norm[(2, lanes)] - norm[(1, lanes)]) / norm[(1, lanes)] + 1e-4)
        penalty += max(0.0, 1.0 - norm[(1, lanes)])  # 1-bit never beats conventional
    s216 = table[(2, 16)]
    mult, adder, shifter, register = coeffs
    add_cost = s216["add_units"] * adder
    for other in (s216["mult_units"] * mult, s216["shift_units"] * shifter, s216["register_units"] * register):
        penalty += max(0.0, (other - add_cost) / add_cost)
    return penalty


def _fit_metric(targets: list[tuple[CvuConfig, float]], conv: dict, table: dict) -> np.ndarray:
    import numpy as np
    from scipy.optimize import minimize

    keyed = []
    for cfg, observed in targets:
        key = (cfg.slice.alpha, cfg.lanes)
        if key not in table or cfg.slice.alpha != cfg.slice.beta:
            table[key] = dict(_structure(cfg), macs=cfg.lanes)
        keyed.append((key, observed))

    def objective(x: np.ndarray) -> float:
        coeffs = np.concatenate(([1.0], np.exp(x)))
        err = max(abs(_norms_for(table[key], conv, coeffs) / obs - 1.0) for key, obs in keyed)
        return err + 10.0 * _qualitative_penalty(conv, table, coeffs)

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


def calibrate(anchors, max_rel_error: float = 0.25) -> CostParams:
    """Fit the free constants to observed (power, area) anchor points.

    Minimizes the maximum relative error over the anchors, subject to the
    model's qualitative invariants.  The multiplier coefficient is the scale
    reference and fixed at 1; only normalized predictions are identifiable.
    """
    anchors = list(anchors)
    if len(anchors) < 3:
        raise ConfigError(f"calibration needs at least 3 anchors, got {len(anchors)}")
    power_targets = [(a.cfg, a.power_norm) for a in anchors if a.power_norm is not None]
    area_targets = [(a.cfg, a.area_norm) for a in anchors if a.area_norm is not None]
    if not power_targets or not area_targets:
        raise ConfigError("anchors must cover both power and area")

    conv, table = _per_mac_structures()
    e = _fit_metric(power_targets, conv, table)
    a = _fit_metric(area_targets, conv, table)
    params = CostParams(
        mult_energy_coeff=e[0],
        adder_energy_per_bit=e[1],
        shifter_energy_per_bit=e[2],
        register_energy_per_bit=e[3],
        mult_area_coeff=a[0],
        adder_area_per_bit=a[1],
        shifter_area_per_bit=a[2],
        register_area_per_bit=a[3],
    )

    residuals = {}
    for anchor in anchors:
        power, area = per_mac_normalized(anchor.cfg, params)
        label = f"sw{anchor.cfg.slice.alpha}_L{anchor.cfg.lanes}"
        if anchor.power_norm is not None:
            residuals[f"{label}_power"] = abs(power / anchor.power_norm - 1.0)
        if anchor.area_norm is not None:
            residuals[f"{label}_area"] = abs(area / anchor.area_norm - 1.0)
    worst = max(residuals.values())
    if worst > max_rel_error:
        raise CalibrationError(
            f"calibration residual {worst:.1%} exceeds {max_rel_error:.0%}", residuals
        )
    return params


def load_params(path: str | Path) -> CostParams:
    return CostParams.from_json(Path(path).read_text())


def default_params() -> CostParams:
    """The shipped calibrated parameter set."""
    text = resources.files("cvusim").joinpath("data/default_cost_params.json").read_text()
    return CostParams.from_json(text)
