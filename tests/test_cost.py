"""Power/area model: breakdowns, sweep shape, calibration, iso-power sizing."""

import json
import math
import operator
import struct
import warnings
from functools import reduce
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvusim.cost as cost
import cvusim.fit as fit
from cvusim.cost import (
    ACCUMULATOR_BITS,
    DEFAULT_ANCHORS,
    CalibrationAnchor,
    CostParams,
    _adder_units,
    _structure,
    _tree_reduce,
    calibrate,
    default_params,
    dse_sweep,
    iso_power_array_size,
    per_mac_breakdown,
    per_mac_normalized,
)
from cvusim.errors import CalibrationError, ConfigError, RangeError
from cvusim.plan import CvuConfig

PARAMS = default_params()
LANES = (1, 2, 4, 8, 16)


def cfg(sw, lanes):
    return CvuConfig(lanes=lanes, slice_width=sw)


def lstsq_fit(anchors, metric):
    """The category coefficients that ``calibrate`` fits to ``metric`` ("power_norm" or "area_norm"), solved
    independently in numpy: ``conv . c = 1`` eliminates the multiplier coefficient, ``np.linalg.lstsq`` fits
    the other three to the anchors' rows and, at the fit's tie-break weight, the default anchors' rows."""
    conv = np.array(cost._CONVENTIONAL_UNITS, dtype=float)
    rows, weights = [], []
    for weight, group in ((1.0, anchors), (fit._TIE_BREAK_WEIGHT, DEFAULT_ANCHORS)):
        for anchor in group:
            if getattr(anchor, metric) is not None:
                rows.append(np.array(_structure(anchor.cfg)) / (getattr(anchor, metric) * anchor.cfg.lanes) - conv)
                weights.append(math.sqrt(weight))
    a = np.array(rows) * np.array(weights)[:, None]
    # with c[0] = (1 - conv[1:] . c[1:]) / conv[0],
    # a . c = a[:, 0] / conv[0] + (a[:, 1:] - a[:, :1] conv[1:] / conv[0]) . c[1:]
    rest = np.linalg.lstsq(a[:, 1:] - np.outer(a[:, 0], conv[1:] / conv[0]), -a[:, 0] / conv[0], rcond=None)[0]
    c = np.concatenate((((1.0 - conv[1:] @ rest) / conv[0],), rest))
    return (c / c[0]).tolist()


def reference_fit_metric(anchors, metric):
    """``fit._fit_metric`` in its comprehension form: the same float operations in the same order."""
    rows = [
        (weight, [n / (t * x.cfg.lanes) - m for n, m in zip(fit._structure(x.cfg), cost._CONVENTIONAL_UNITS)])
        for weight, group in ((1.0, anchors), (fit._TIE_BREAK_WEIGHT, DEFAULT_ANCHORS))
        for x in group
        if (t := getattr(x, metric)) is not None
    ]
    size = len(cost._CATEGORIES) + 1
    system = [
        [*(reduce(operator.add, (w * a[i] * a[j] for w, a in rows), 0.0) for j in range(size - 1)), conv, 0.0]
        for i, conv in enumerate(map(float, cost._CONVENTIONAL_UNITS))
    ]
    system.append([*map(float, cost._CONVENTIONAL_UNITS), 0.0, 1.0])
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(system[r][col]))
        system[col], system[pivot] = system[pivot], system[col]
        if not abs(system[col][col]) > 0.0:
            return [math.nan] * len(cost._CATEGORIES)
        for r in range(col + 1, size):
            factor = system[r][col] / system[col][col]
            system[r] = [x - factor * y for x, y in zip(system[r], system[col])]
    solution = [0.0] * size
    for r in reversed(range(size)):
        tail = reduce(operator.add, (system[r][j] * solution[j] for j in range(r + 1, size)), 0.0)
        solution[r] = (system[r][size] - tail) / system[r][r]
    return solution[:-1]


def conventional_mac_cost(params):
    """(energy, area) of the conventional 8-bit MAC normalization baseline."""
    energy = cost._weighted(cost._CONVENTIONAL_UNITS, cost._energy_constants(params))
    return energy, cost._weighted(cost._CONVENTIONAL_UNITS, cost._area_constants(params))


def reference_per_mac_breakdown(cfg, params):
    """``cost.per_mac_breakdown`` in its comprehension form: the same float operations in the same order."""
    units, lanes = _structure(cfg), cfg.lanes
    conventional_energy, conventional_area = conventional_mac_cost(params)
    return cost.CostBreakdown(
        *(n * c / lanes / conventional_energy for n, c in zip(units, cost._energy_constants(params))),
        *(n * c / lanes / conventional_area for n, c in zip(units, cost._area_constants(params))),
    )


def bits(values) -> bytes:
    """The float64 bits of each value: unlike ``==``, they tell 0.0 from -0.0, and a NaN equals its own bits."""
    values = list(values)
    return struct.pack(f"<{len(values)}d", *values)


DSE_GRID = [cfg(sw, lanes) for sw in (1, 2, 4) for lanes in LANES]  # the default ``cvusim dse`` grid
# any configuration the fit takes: a slice width of {1, 2, 4} and 1-64 lanes
configs = st.builds(CvuConfig, lanes=st.integers(1, 64), slice_width=st.sampled_from((1, 2, 4)))
# a target near the model's normalized range, or anywhere in float64's, or absent
targets = st.one_of(st.none(), st.floats(0.05, 20.0), st.floats(1e-300, 1e300))
anchor_sets = st.lists(st.builds(CalibrationAnchor, configs, targets, targets), min_size=3, max_size=8)


class TestKernelsEqualTheirComprehensionForms:
    """The fit and the breakdown are plain loops over locals; their comprehension forms above give the same bits."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(anchors=anchor_sets)
    def test_fit_metric(self, anchors):
        for metric in ("power_norm", "area_norm"):
            assert bits(fit._fit_metric(anchors, metric)) == bits(reference_fit_metric(anchors, metric)), metric

    @pytest.mark.parametrize("left_out", [None, *range(len(DEFAULT_ANCHORS))])
    def test_fit_metric_on_the_default_anchors(self, left_out):
        anchors = [a for i, a in enumerate(DEFAULT_ANCHORS) if i != left_out]
        for metric in ("power_norm", "area_norm"):
            fitted = fit._fit_metric(anchors, metric)
            assert fitted == reference_fit_metric(anchors, metric)
            assert bits(fitted) == bits(reference_fit_metric(anchors, metric))

    def test_fit_metric_on_an_overflowing_system(self):
        # the singular system after an overflow returns NaNs on both forms
        anchors = TestCalibrate.OVERFLOWING
        for metric in ("power_norm", "area_norm"):
            fitted = fit._fit_metric(anchors, metric)
            assert all(math.isnan(c) for c in fitted)
            assert bits(fitted) == bits(reference_fit_metric(anchors, metric))

    def test_fit_metric_keeps_the_first_of_equal_pivots(self, monkeypatch):
        # unit counts built so that the first column of the KKT system holds 64.0 twice: the normal
        # matrix's first entry (one anchor row with a multiplier term of 72 - 64 = 8, every other row
        # 64 - 64 = 0, all exact) and the border's conv[0]; taking the border row instead changes the last bits
        units = {
            cfg(2, 4): (72 * 4, 75 * 4, 3 * 4, 61 * 4),
            cfg(2, 8): (64 * 8, 69 * 8, 5 * 8, 66 * 8),
            cfg(4, 4): (64 * 4, 78 * 4, 2 * 4, 58 * 4),
            cfg(1, 2): (64 * 2, 71 * 2, 7 * 2, 67 * 2),
        }
        for anchor, scale in zip(DEFAULT_ANCHORS, (74, 77, 70, 79)):
            tl = anchor.power_norm * anchor.cfg.lanes
            units[anchor.cfg] = (64 * tl, scale * tl, scale / 16 * tl, (scale - 12) * tl)
        monkeypatch.setattr(fit, "_structure", units.__getitem__)
        anchors = [CalibrationAnchor(c, power_norm=1.0) for c in list(units)[:4]]
        fitted = fit._fit_metric(anchors, "power_norm")
        assert all(math.isfinite(c) for c in fitted)
        assert bits(fitted) == bits(reference_fit_metric(anchors, "power_norm"))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(config=configs, params=st.builds(CostParams, *[st.floats(1e-6, 1e6)] * 8))
    def test_per_mac_breakdown(self, config, params):
        breakdown = per_mac_breakdown(config, params)
        assert breakdown == reference_per_mac_breakdown(config, params)
        assert bits(breakdown) == bits(reference_per_mac_breakdown(config, params))

    @pytest.mark.parametrize("point", DSE_GRID, ids=lambda c: f"sw{c.slice_width}_L{c.lanes}")
    def test_every_point_of_the_default_dse_grid(self, point):
        swept = {(p.slice_width, p.lanes): p.breakdown for p in dse_sweep((1, 2, 4), LANES, PARAMS)}
        breakdown = swept[point.slice_width, point.lanes]
        assert breakdown == per_mac_breakdown(point, PARAMS) == reference_per_mac_breakdown(point, PARAMS)
        assert bits(breakdown) == bits(reference_per_mac_breakdown(point, PARAMS))


class TestCvuCost:
    # per-MAC normalization divides every category by the same positive
    # constants, so orderings and signs of the CVU's cost carry over
    def test_add_dominates_at_optimum(self):
        b = per_mac_breakdown(cfg(2, 16), PARAMS)
        assert b.add_energy >= max(b.multiply_energy, b.shift_energy, b.register_energy)
        assert b.add_area >= max(b.multiply_area, b.shift_area, b.register_area)

    def test_single_lane_has_no_engine_tree(self):
        # 2-bit slices: 16 engines, each 3*3 at most per lane
        engine_units, engine_max = _tree_reduce([3 * 3] * 1)
        assert (engine_units, engine_max) == (0, 9)
        shifted = [engine_max << (2 * j + 2 * k) for j in range(4) for k in range(4)]
        # the global tree over the 16 engine outputs, built pairwise here: 8 + 4 + 2 + 1 = 15 adders,
        # each as wide as the sum it outputs
        adders, level = [], shifted
        while len(level) > 1:
            level = [level[i] + level[i + 1] for i in range(0, len(level), 2)]
            adders += level
        assert len(adders) == 15
        global_units, global_max = _tree_reduce(shifted)
        assert (global_units, global_max) == (sum(_adder_units(out.bit_length()) for out in adders), sum(shifted))
        # the adder inventory is the global tree plus the accumulate adder only
        assert _structure(cfg(2, 1))[1] == global_units + _adder_units(ACCUMULATOR_BITS)

    def test_doubling_lanes_less_than_doubles_add(self):
        # add16 < 2 * add8 per CVU cycle, divided by the 16 MACs of that cycle
        add8 = per_mac_breakdown(cfg(2, 8), PARAMS).add_energy
        add16 = per_mac_breakdown(cfg(2, 16), PARAMS).add_energy
        assert add16 < add8

    def test_totals_close(self):
        b = per_mac_breakdown(cfg(2, 16), PARAMS)
        assert b.total_energy == pytest.approx(
            b.multiply_energy + b.add_energy + b.shift_energy + b.register_energy
        )
        assert b.total_area == pytest.approx(b.multiply_area + b.add_area + b.shift_area + b.register_area)
        for field in ("multiply", "add", "shift", "register"):
            assert getattr(b, f"{field}_energy") > 0
            assert getattr(b, f"{field}_area") > 0

    def test_params_must_be_positive(self):
        with pytest.raises(RangeError):
            CostParams(1, 0.0, 1, 1, 1, 1, 1, 1)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(RangeError):
                CostParams(1, 1, 1, 1, 1, 1, 1, bad)


class TestPerMacNormalized:
    def test_optimal_point_beats_conventional_2x(self):
        power, area = per_mac_normalized(cfg(2, 16), PARAMS)
        assert power == pytest.approx(0.5, rel=0.15)
        assert area == pytest.approx(1 / 1.7, rel=0.15)

    def test_scalar_composable_overhead(self):
        _, area = per_mac_normalized(cfg(2, 1), PARAMS)
        assert area == pytest.approx(1.4, rel=0.15)

    def test_1bit_never_beats_conventional(self):
        for lanes in LANES:
            power, area = per_mac_normalized(cfg(1, lanes), PARAMS)
            assert power >= 1.0
            assert area >= 1.0

    def test_breakdown_sums_to_norms(self):
        b = per_mac_breakdown(cfg(2, 16), PARAMS)
        power, area = per_mac_normalized(cfg(2, 16), PARAMS)
        assert b.total_energy == pytest.approx(power)
        assert b.total_area == pytest.approx(area)


class TestDseSweep:
    def test_point_count_and_order(self):
        points = dse_sweep({1, 2}, {1, 2, 4, 8, 16}, PARAMS)
        assert len(points) == 10
        assert [(p.slice_width, p.lanes) for p in points] == [
            (sw, lanes) for sw in (1, 2) for lanes in LANES
        ]

    def test_lane_sweep_improvements(self):
        points = {(p.slice_width, p.lanes): p for p in dse_sweep({1, 2}, LANES, PARAMS)}
        ratio_1bit = points[(1, 1)].breakdown.total_energy / points[(1, 16)].breakdown.total_energy
        ratio_2bit = points[(2, 1)].breakdown.total_energy / points[(2, 16)].breakdown.total_energy
        assert ratio_1bit == pytest.approx(3.0, rel=0.2)
        assert ratio_2bit == pytest.approx(2.5, rel=0.2)

    def test_monotone_decreasing_with_saturation(self):
        points = {(p.slice_width, p.lanes): p for p in dse_sweep({1, 2}, LANES, PARAMS)}
        for sw in (1, 2):
            for metric in ("total_energy", "total_area"):
                seq = [getattr(points[(sw, lanes)].breakdown, metric) for lanes in LANES]
                assert all(a > b for a, b in zip(seq, seq[1:]))
                assert seq[3] / seq[4] < seq[0] / seq[1]  # improvement saturates

    def test_2bit_dominates_1bit_everywhere(self):
        points = {(p.slice_width, p.lanes): p for p in dse_sweep({1, 2}, LANES, PARAMS)}
        for lanes in LANES:
            assert points[(2, lanes)].breakdown.total_energy < points[(1, lanes)].breakdown.total_energy
            assert points[(2, lanes)].breakdown.total_area < points[(1, lanes)].breakdown.total_area

    def test_4bit_included(self):
        points = dse_sweep({1, 2, 4}, {16}, PARAMS)
        assert {p.slice_width for p in points} == {1, 2, 4}


class TestCalibrate:
    THREE_ANCHORS = [
        CalibrationAnchor(cfg(2, 16), power_norm=0.50, area_norm=1 / 1.7),
        CalibrationAnchor(cfg(2, 1), power_norm=None, area_norm=1.40),
        CalibrationAnchor(cfg(1, 16), power_norm=1.0, area_norm=1.0),
    ]

    def test_three_observed_points_fit_within_15pct(self):
        params, residuals = calibrate(self.THREE_ANCHORS)
        assert sorted(residuals) == [
            "sw1x1_L16_area", "sw1x1_L16_power", "sw2x2_L16_area", "sw2x2_L16_power", "sw2x2_L1_area"
        ]
        assert max(residuals.values()) <= 0.15
        for anchor in self.THREE_ANCHORS:
            power, area = per_mac_normalized(anchor.cfg, params)
            label = "sw{0}x{0}_L{1}".format(anchor.cfg.slice_width, anchor.cfg.lanes)
            if anchor.power_norm is not None:
                assert abs(power / anchor.power_norm - 1) == residuals[f"{label}_power"]
            if anchor.area_norm is not None:
                assert abs(area / anchor.area_norm - 1) == residuals[f"{label}_area"]

    def test_too_few_anchors(self):
        with pytest.raises(ConfigError):
            calibrate(self.THREE_ANCHORS[:1])

    def test_round_trip_recovery(self):
        # anchors generated from known params must be reproduced closely
        known = PARAMS
        probes = [cfg(2, 16), cfg(2, 1), cfg(1, 16), cfg(1, 1)]
        anchors = [CalibrationAnchor(c, *per_mac_normalized(c, known)) for c in probes]
        fitted, _ = calibrate(anchors)
        for c in probes:
            want = per_mac_normalized(c, known)
            got = per_mac_normalized(c, fitted)
            assert got[0] == pytest.approx(want[0], rel=0.01)
            assert got[1] == pytest.approx(want[1], rel=0.01)

    def test_anchors_off_the_sweep_keep_their_own_entries(self):
        # exact anchors at the four default configurations plus one at 4-bit slices, off the lane sweeps
        probes = [a.cfg for a in DEFAULT_ANCHORS] + [cfg(4, 16)]
        anchors = [CalibrationAnchor(c, *per_mac_normalized(c, PARAMS)) for c in probes]
        _, residuals = calibrate(anchors)
        assert len(residuals) == 10
        assert max(residuals.values()) < 1e-6

    def test_infeasible_targets_raise_with_residuals(self):
        bad = [
            CalibrationAnchor(cfg(2, 16), power_norm=0.01, area_norm=0.01),
            CalibrationAnchor(cfg(2, 1), power_norm=50.0, area_norm=50.0),
            CalibrationAnchor(cfg(1, 16), power_norm=0.01, area_norm=0.01),
        ]
        with pytest.raises(CalibrationError) as err:
            calibrate(bad)
        assert err.value.residuals
        assert all(type(v) is float for v in err.value.residuals.values())

    # the 1e-150 target's row, about 1e152, swamps the others, and elimination meets a zero pivot
    OVERFLOWING = [
        CalibrationAnchor(cfg(2, 16), power_norm=1.0, area_norm=1.0),
        CalibrationAnchor(cfg(4, 8), power_norm=1.0, area_norm=1.0),
        CalibrationAnchor(cfg(4, 4), power_norm=1e-150, area_norm=1e-150),
    ]

    def test_targets_that_overflow_the_fit_raise_with_residuals(self):
        with pytest.raises(CalibrationError) as err:
            calibrate(self.OVERFLOWING)
        assert len(err.value.residuals) == 6
        assert all(type(v) is float for v in err.value.residuals.values())

    @pytest.mark.parametrize("metric", ["power_norm", "area_norm"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_anchor_values_must_be_positive_and_finite(self, metric, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeError, match=metric):
                CalibrationAnchor(cfg(2, 16), **{metric: value})

    def test_results_are_plain_floats(self):
        params, residuals = calibrate(DEFAULT_ANCHORS)
        assert all(type(v) is float for v in (*params._asdict().values(), *residuals.values()))

    def test_default_anchors_recover_the_shipped_parameters(self):
        params, _ = calibrate(DEFAULT_ANCHORS)
        for name, shipped in PARAMS._asdict().items():
            assert getattr(params, name) == pytest.approx(shipped, rel=1e-6), name

    @pytest.mark.parametrize("left_out", [None, *range(len(DEFAULT_ANCHORS))])
    def test_equal_to_a_numpy_least_squares(self, left_out):
        anchors = [a for i, a in enumerate(DEFAULT_ANCHORS) if i != left_out]
        params, _ = calibrate(anchors)
        assert list(cost._energy_constants(params)) == pytest.approx(lstsq_fit(anchors, "power_norm"), rel=1e-9)
        assert list(cost._area_constants(params)) == pytest.approx(lstsq_fit(anchors, "area_norm"), rel=1e-9)

    def test_two_power_targets_leave_the_rest_to_the_default_anchors(self):
        # two power targets fix two of the three free energy coefficients; the default anchors settle the third
        params, residuals = calibrate(self.THREE_ANCHORS)
        assert all(0 < value < math.inf for value in params)
        assert residuals["sw2x2_L16_power"] <= 1e-9
        assert residuals["sw1x1_L16_power"] <= 1e-9
        assert calibrate(self.THREE_ANCHORS) == (params, residuals)


class TestInventoryCache:
    def test_structure_runs_once_per_config_and_is_read_only(self):
        _structure.cache_clear()
        first = per_mac_breakdown(cfg(2, 16), PARAMS)
        again = per_mac_breakdown(cfg(2, 16), PARAMS)  # an equal config, not the same object
        assert first == again
        info = _structure.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        units = _structure(cfg(2, 16))
        assert type(units) is tuple and len(units) == len(cost._CATEGORIES)
        with pytest.raises(TypeError):
            units[1] = 0
        assert _structure(cfg(2, 16)) is units

    def test_calibration_matches_the_uncached_inventory(self, monkeypatch):
        cached = calibrate(DEFAULT_ANCHORS)
        monkeypatch.setattr(cost, "_structure", cost._structure.__wrapped__)
        assert calibrate(DEFAULT_ANCHORS) == cached


class TestIsoPower:
    def test_half_power_doubles_capacity(self):
        conventional = iso_power_array_size(250.0, PARAMS.conventional_mac_mw)
        halved = iso_power_array_size(250.0, 0.5 * PARAMS.conventional_mac_mw)
        assert halved == 2 * conventional == 2000

    def test_calibrated_ratios(self):
        p_conv = PARAMS.conventional_mac_mw
        p_vec = per_mac_normalized(cfg(2, 16), PARAMS)[0] * p_conv
        p_scal = per_mac_normalized(cfg(2, 1), PARAMS)[0] * p_conv
        vec = iso_power_array_size(250.0, p_vec)
        assert vec / iso_power_array_size(250.0, p_conv) == pytest.approx(2.0, rel=0.2)
        assert vec / iso_power_array_size(250.0, p_scal) == pytest.approx(2.3, rel=0.2)

    def test_zero_budget(self):
        assert iso_power_array_size(0.0, 1.0) == 0

    def test_uncountable_unit_count(self):
        with pytest.raises(ConfigError, match="finite number of units"):  # 1e308 / 0.5 is inf
            iso_power_array_size(1e308, 0.5)

    def test_invalid_unit_power(self):
        for unit in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                iso_power_array_size(250.0, unit)

    def test_invalid_budget(self):
        for budget in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError):
                iso_power_array_size(budget, 1.0)


def test_conventional_mac_cost_positive():
    # every category of a breakdown is its units times its constant, per MAC, over the conventional MAC's cost
    energy, area = conventional_mac_cost(PARAMS)
    assert energy > 0 and area > 0
    b = per_mac_breakdown(cfg(2, 16), PARAMS)
    units = _structure(cfg(2, 16))
    assert [e * 16 * energy for e in b[:4]] == pytest.approx([n * c for n, c in zip(units, cost._energy_constants(PARAMS))])
    assert [a * 16 * area for a in b[4:]] == pytest.approx([n * c for n, c in zip(units, cost._area_constants(PARAMS))])


def shipped_params_document() -> dict:
    return json.loads(resources.files("cvusim").joinpath("data/default_cost_params.json").read_text())


def test_default_params_read_every_constant_of_the_shipped_file():
    doc = shipped_params_document()
    assert doc["version"] == cost.PARAMS_SCHEMA_VERSION
    for key, energy, area in cost._CATEGORIES:
        assert (getattr(PARAMS, energy), getattr(PARAMS, area)) == (doc["energy"][key], doc["area"][key])
    assert PARAMS.conventional_mac_mw == doc["conventional_mac_mw"]


@pytest.mark.parametrize("text", ["[]", "3", '"params"', "null"])
def test_params_document_must_be_an_object(text):
    with pytest.raises(ConfigError, match="JSON object"):
        CostParams.from_json(text)


@pytest.mark.parametrize("edit", ["version", "energy", "area"])
def test_params_document_needs_its_version_and_every_constant(edit):
    doc = shipped_params_document()
    if edit == "version":
        doc["version"] = cost.PARAMS_SCHEMA_VERSION + 1
    else:
        del doc[edit]["adder"]
    with pytest.raises(ConfigError, match="version" if edit == "version" else "malformed"):
        CostParams.from_json(json.dumps(doc))
