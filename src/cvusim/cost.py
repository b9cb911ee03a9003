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
defaults live in ``data/default_cost_params.json``.  Only :func:`calibrate`
needs numpy, which it imports on its first call, and nothing needs scipy.  The
fit prices only the inventories its objective reads, from integer unit rows built
once, and walks its Nelder-Mead simplex on Python floats in a fixed order; its
only host-dependent steps are numpy's ``exp`` and ``log`` (see :func:`_fit_metric`).

The normalization baseline is a conventional 8-bit MAC costed with the same
component model: one 8x8 multiplier, an accumulate adder, and an accumulator
register, both sized to the 64-bit accumulation path used by the array.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple
from functools import lru_cache, reduce
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


# Design points the shipped defaults reproduce.  Chosen inside the feasible
# envelope of the observed ratios (2.0x/1.7x power/area improvement at
# 2-bit/16 lanes, 1.4x area overhead at 2-bit/1 lane, >=2.4x lane-sweep
# power gap, no 1-bit benefit, ~3x and ~2.5x lane-sweep improvements) so
# that every quoted figure is met with margin; rerunning
# ``calibrate(DEFAULT_ANCHORS)`` recovers the shipped constants.
DEFAULT_ANCHORS = (
    CalibrationAnchor(CvuConfig(16, 2), power_norm=0.559, area_norm=0.540),
    CalibrationAnchor(CvuConfig(1, 2), power_norm=1.503, area_norm=1.515),
    CalibrationAnchor(CvuConfig(16, 1), power_norm=1.146, area_norm=1.117),
    CalibrationAnchor(CvuConfig(1, 1), power_norm=2.859, area_norm=2.907),
)

_SWEEP_LANES = (1, 2, 4, 8, 16)
_FIT_STARTS = ((0.28, 0.16, 2.76), (0.1, 0.05, 1.0), (1.0, 0.5, 5.0))  # adder, shifter, register
# the keys the qualitative penalty reads: each lane sweep, and 2-bit beside 1-bit per lane count
_LANE_SERIES = tuple(tuple((sw, lanes) for lanes in _SWEEP_LANES) for sw in (1, 2))
_SLICE_PAIRS = tuple(((2, lanes), (1, lanes)) for lanes in _SWEEP_LANES)


def _key(cfg: CvuConfig) -> tuple[int, int]:
    return cfg.slice_width, cfg.lanes


def _norms_for(rows, coeffs: list[float]) -> dict[tuple[int, int], float]:
    """Per-MAC metric of every (key, unit counts, MACs per cycle) row, normalized to the conventional MAC."""
    conv = _weighted(_CONVENTIONAL_UNITS, coeffs)
    return {key: _weighted(counts, coeffs) / conv / macs for key, counts, macs in rows}


def _qualitative_penalty(norm: dict, coeffs: list[float], adder_first: tuple[int, ...]) -> float:
    """Soft constraints keeping the model's qualitative shape during fits.

    Violations of: per-MAC cost strictly decreasing in lanes, saturation of
    the lane improvement, 2-bit dominating 1-bit, 1-bit never beating the
    conventional unit, and the adder category ranking first among the unit
    counts ``adder_first`` of the (2-bit, 16-lane) point.
    """
    terms = []
    for keys in _LANE_SERIES:
        series = [norm[key] for key in keys]
        terms += [(b - a) / a + 1e-4 for a, b in zip(series, series[1:])]  # must decrease with lanes
        terms.append(series[-2] / series[-1] - series[0] / series[1])  # diminishing returns
    for two_bit, one_bit in _SLICE_PAIRS:
        two, one = norm[two_bit], norm[one_bit]
        terms += [(two - one) / one + 1e-4, 1.0 - one]  # 2-bit beats 1-bit, which never beats conventional
    mult, add, shift, register = map(operator.mul, adder_first, coeffs)
    terms += [(other - add) / add for other in (mult, shift, register)]
    penalty = 0.0
    for term in terms:
        if term > 0.0:  # the same sum as adding max(0.0, term) for every term, in order
            penalty += term
    return penalty


def _fit_objective(targets: list[tuple[CvuConfig, float]]):
    """Worst relative error over ``targets`` plus 10x the penalty, of the log adder/shifter/register coefficients."""
    import numpy as np

    sweep = (CvuConfig(lanes, sw) for sw in (1, 2) for lanes in _SWEEP_LANES)
    cfgs = {_key(cfg): cfg for cfg in (*sweep, *(cfg for cfg, _ in targets))}
    rows = tuple((key, _structure(cfg), cfg.lanes) for key, cfg in cfgs.items())
    keyed = [(_key(cfg), observed) for cfg, observed in targets]
    adder_first = _structure(cfgs[(2, 16)])

    def objective(x: np.ndarray) -> float:
        coeffs = [1.0, *np.exp(x).tolist()]
        norm = _norms_for(rows, coeffs)
        err = max(abs(norm[key] / obs - 1.0) for key, obs in keyed)
        return err + 10.0 * _qualitative_penalty(norm, coeffs, adder_first)

    return objective


def _by_value(vertex: tuple[float, list[float]]) -> tuple[bool, float]:
    return vertex[0] != vertex[0], vertex[0]  # NaN last


def _nelder_mead(objective, x0: list[float], maxiter=4000):
    """SciPy's ``minimize(objective, x0, method="Nelder-Mead")`` with ``xatol=1e-8``, ``fatol=1e-10`` and ``maxiter``,
    step for step, on Python floats in SciPy's order; return (x, f, iterations).  Each step sorts the vertices
    by value, NaN last, stably: NumPy's SIMD ``argsort`` may reorder ties, making SciPy's path depend on the CPU."""
    n, iterations = len(x0), 1
    simplex = [list(x0)] + [[(1.05 * v if v != 0 else 0.00025) if i == k else v for i, v in enumerate(x0)]
                            for k in range(n)]
    simplex = sorted(((objective(x), x) for x in simplex), key=_by_value)
    while iterations < maxiter:
        (f_best, best), *rest = simplex
        if all(abs(f_best - f) <= 1e-10 and all(abs(a - b) <= 1e-8 for a, b in zip(x, best)) for f, x in rest):
            break
        centroid = [reduce(operator.add, column) / n for column in zip(*(x for _, x in simplex[:-1]))]
        f_worst, worst = simplex[-1]
        xr = [2 * c - w for c, w in zip(centroid, worst)]
        fxr = objective(xr)
        if fxr < f_best:  # expand
            xe = [3 * c - 2 * w for c, w in zip(centroid, worst)]
            fxe = objective(xe)
            simplex[-1] = (fxe, xe) if fxe < fxr else (fxr, xr)
        elif fxr < simplex[-2][0]:
            simplex[-1] = (fxr, xr)
        else:  # contract outside, towards the reflection, or inside, towards the worst vertex
            outside = fxr < f_worst
            x = [1.5 * c - 0.5 * w if outside else 0.5 * c + 0.5 * w for c, w in zip(centroid, worst)]
            fx = objective(x)
            if fx <= fxr if outside else fx < f_worst:
                simplex[-1] = (fx, x)
            else:  # shrink every other vertex halfway to the best
                shrunk = ([b + 0.5 * (v - b) for b, v in zip(best, x)] for _, x in rest)
                simplex[1:] = [(objective(x), x) for x in shrunk]
        iterations += 1
        simplex.sort(key=_by_value)
    f_best, f_last = simplex[0][0], simplex[-1][0]
    return simplex[0][1], f_last if f_last != f_last else f_best, iterations  # np.min's value: a NaN wins


def _fit_metric(targets: list[tuple[CvuConfig, float]]) -> list[float]:
    """The four category coefficients, as Python floats, that minimize :func:`_fit_objective`.

    The objective's integer unit rows are built once, only for what it reads: the 1- and 2-bit lane
    sweeps and the anchors.  Each evaluation turns its coefficients into Python floats with one
    ``np.exp``; every later term, and every :func:`_nelder_mead` step, is on Python floats in a fixed
    order.  So ``np.exp``, with ``np.log`` of the starts, is the only host-dependent step: ``math.exp``
    or another libm can differ in the last bit, which moves the simplex path.
    """
    import numpy as np

    objective = _fit_objective(targets)
    fits = [_nelder_mead(objective, np.log(start).tolist()) for start in _FIT_STARTS]
    return [1.0, *np.exp(min(fits, key=lambda fit: fit[1])[0]).tolist()]  # the first best fit


def calibrate(anchors) -> tuple[CostParams, dict[str, float]]:
    """Fit the free constants to observed (power, area) anchor points.

    Minimizes the maximum relative error over the anchors, subject to the
    model's qualitative invariants.  The multiplier coefficient is the scale
    reference and fixed at 1; only normalized predictions are identifiable.

    Returns the parameters and the residuals: each observed metric's relative error, keyed
    ``sw{s}x{s}_L{lanes}_{power|area}`` for slice width s.  A worst residual above
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
        **{energy: e[i] for i, (_, energy, _) in enumerate(_CATEGORIES)},
        **{area: a[i] for i, (_, _, area) in enumerate(_CATEGORIES)},
    )

    residuals = {}
    for anchor in anchors:
        power, area = per_mac_normalized(anchor.cfg, params)
        label = "sw{0}x{0}_L{1}".format(*_key(anchor.cfg))
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
    return load_params(Path(__file__).with_name("data") / "default_cost_params.json")
