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

Free per-bit constants absorb technology detail and are pinned against observed normalized
design points by :mod:`cvusim.fit`: the first read of a ``_FROM_FIT`` name here imports it and
binds those names here.  The shipped defaults live in ``data/default_cost_params.json``.

The normalization baseline is a conventional 8-bit MAC costed with the same
component model: one 8x8 multiplier, an accumulate adder, and an accumulator
register, both sized to the 64-bit accumulation path used by the array.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

from .errors import Checked, ConfigError, RangeError
from .plan import MAX_BITWIDTH, CvuConfig, plan_composition

ACCUMULATOR_BITS = 64
# Fixed per-adder overhead in bit equivalents (carry logic, cell granularity).
ADDER_OVERHEAD_BITS = 8
PARAMS_SCHEMA_VERSION = 1
MAX_CALIBRATION_ERROR = 0.25  # the worst relative anchor residual a calibration may leave
_FROM_FIT = ("CalibrationAnchor", "DEFAULT_ANCHORS", "calibrate")

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

    @classmethod
    def from_json(cls, text: str) -> "CostParams":
        try:  # ValueError: JSONDecodeError or an integer past the int digit limit; RecursionError: deep nesting
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"malformed cost params file: {exc}") from exc
        try:
            if not isinstance(doc, dict):
                raise ConfigError(f"cost params must be a JSON object, got {type(doc).__name__}")
            if doc.get("version") != PARAMS_SCHEMA_VERSION:
                raise ConfigError(f"unsupported cost params version {doc.get('version')!r}")
            return cls(
                **{energy: doc["energy"][key] for key, energy, _ in _CATEGORIES},
                **{area: doc["area"][key] for key, _, area in _CATEGORIES},
                conventional_mac_mw=doc.get("conventional_mac_mw", 0.25),
            )
        except (KeyError, TypeError) as exc:
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


def _tree_reduce(maxima: list[int]) -> tuple[int, int]:
    """Pairwise-reduce value maxima; return (bit units, out max)."""
    units = 0
    level = list(maxima)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            out = level[i] + level[i + 1]
            units += _adder_units(out.bit_length())
            nxt.append(out)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return units, level[0] if level else 0


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
    nbve_units, nbve_out_max = _tree_reduce([product_max] * cfg.lanes)
    shifts = plan_composition(MAX_BITWIDTH, MAX_BITWIDTH, cfg).shifts
    global_units, _ = _tree_reduce([nbve_out_max << shift for shift in shifts])

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


def per_mac_breakdown(cfg: CvuConfig, params: CostParams) -> CostBreakdown:
    """CVU cost per 8-bit MAC, normalized to the conventional MAC.

    At full width the engines form one cluster, so a CVU cycle is ``lanes`` MACs.  Calibration, the DSE
    sweep and array sizing all price through this call, so it is plain arithmetic over locals, as
    :mod:`cvusim.fit` is and for its reason; each category is ``n * c / lanes / conventional`` in that order.
    """
    (mult, add, shift, register), lanes = _structure(cfg), cfg.lanes
    e_mult, e_add, e_shift, e_register = _energy_constants(params)
    a_mult, a_add, a_shift, a_register = _area_constants(params)
    m_mult, m_add, m_shift, m_register = _CONVENTIONAL_UNITS
    energy = m_mult * e_mult + m_add * e_add + m_shift * e_shift + m_register * e_register
    area = m_mult * a_mult + m_add * a_add + m_shift * a_shift + m_register * a_register
    return CostBreakdown(
        mult * e_mult / lanes / energy, add * e_add / lanes / energy,
        shift * e_shift / lanes / energy, register * e_register / lanes / energy,
        mult * a_mult / lanes / area, add * a_add / lanes / area,
        shift * a_shift / lanes / area, register * a_register / lanes / area,
    )


def per_mac_normalized(cfg: CvuConfig, params: CostParams) -> tuple[float, float]:
    """(power, area) per 8-bit MAC relative to a conventional 8-bit MAC."""
    b = per_mac_breakdown(cfg, params)
    return b.total_energy, b.total_area


def dse_sweep(slice_widths, lanes_values, params: CostParams) -> list[DsePoint]:
    """One DsePoint per (slice width, lanes) pair, deterministic order."""
    points, lanes_values = [], sorted(set(int(l) for l in lanes_values))  # once: either may be a one-shot iterator
    for sw in sorted(set(int(s) for s in slice_widths)):
        for lanes in lanes_values:
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


def load_params(path: str | Path) -> CostParams:
    return CostParams.from_json(Path(path).read_text())


def default_params() -> CostParams:
    """The shipped calibrated parameter set."""
    return load_params(Path(__file__).with_name("data") / "default_cost_params.json")


def __getattr__(name: str):  # the first read of a fit name imports the fit and binds its names here, once
    if name in _FROM_FIT:
        from . import fit
        for fit_name in _FROM_FIT:
            globals().setdefault(fit_name, getattr(fit, fit_name))
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
