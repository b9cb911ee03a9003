"""Power/area model: breakdowns, sweep shape, calibration, iso-power sizing."""

import functools
import math
import operator
import warnings
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvusim.cost as cost
from cvusim.cost import (
    ACCUMULATOR_BITS,
    DEFAULT_ANCHORS,
    CalibrationAnchor,
    CostParams,
    _adder_units,
    _structure,
    _tree_reduce,
    calibrate,
    conventional_mac_cost,
    default_params,
    dse_sweep,
    iso_power_array_size,
    per_mac_breakdown,
    per_mac_normalized,
)
from cvusim.cvu import CvuConfig
from cvusim.errors import CalibrationError, ConfigError, RangeError

PARAMS = default_params()
LANES = (1, 2, 4, 8, 16)


def cfg(sw, lanes):
    return CvuConfig(lanes=lanes, slice_width=sw)


def reference_objective(targets):
    """The fit objective as first written, kept as the reference for the fast one: np.float64
    coefficients over the inventory dicts, with the unread 4-bit sweep priced too."""
    unit_keys = ("mult_units", "add_units", "shift_units", "register_units")
    conventional = dict(zip(unit_keys, (64, _adder_units(ACCUMULATOR_BITS), 0, ACCUMULATOR_BITS)))

    def key(c):
        return c.slice_width, c.lanes

    def weighted(units, coeffs):
        return functools.reduce(operator.add, map(operator.mul, (units[k] for k in unit_keys), coeffs))

    sweep = (cfg(sw, lanes) for sw in (1, 2, 4) for lanes in LANES)
    table = {key(c): dict(zip(unit_keys, _structure(c)), macs=c.lanes) for c in (*sweep, *(c for c, _ in targets))}
    keyed = [(key(c), observed) for c, observed in targets]

    def objective(x):
        coeffs = np.concatenate(([1.0], np.exp(x)))
        conv = weighted(conventional, coeffs)
        norm = {k: weighted(s, coeffs) / conv / s["macs"] for k, s in table.items()}
        err = max(abs(norm[k] / obs - 1.0) for k, obs in keyed)
        penalty = 0.0
        for sw in (1, 2):
            series = [norm[(sw, lanes)] for lanes in LANES]
            for a, b in zip(series, series[1:]):
                penalty += max(0.0, (b - a) / a + 1e-4)
            penalty += max(0.0, series[-2] / series[-1] - series[0] / series[1])
        for lanes in LANES:
            penalty += max(0.0, (norm[(2, lanes)] - norm[(1, lanes)]) / norm[(1, lanes)] + 1e-4)
            penalty += max(0.0, 1.0 - norm[(1, lanes)])
        s216 = table[(2, 16)]
        mult, adder, shifter, register = coeffs
        add_cost = s216["add_units"] * adder
        for other in (s216["mult_units"] * mult, s216["shift_units"] * shifter, s216["register_units"] * register):
            penalty += max(0.0, (other - add_cost) / add_cost)
        return err + 10.0 * penalty

    return objective


def fit_targets(anchors):
    """The power targets and the area targets of ``anchors``, as ``calibrate`` passes them to the fit."""
    return (
        [(a.cfg, a.power_norm) for a in anchors if a.power_norm is not None],
        [(a.cfg, a.area_norm) for a in anchors if a.area_norm is not None],
    )


class TestCvuCost:
    # per-MAC normalization divides every category by the same positive
    # constants, so orderings and signs of the CVU's cost carry over
    def test_add_dominates_at_optimum(self):
        b = per_mac_breakdown(cfg(2, 16), PARAMS)
        assert b.add_energy >= max(b.multiply_energy, b.shift_energy, b.register_energy)
        assert b.add_area >= max(b.multiply_area, b.shift_area, b.register_area)

    def test_single_lane_has_no_engine_tree(self):
        # 2-bit slices: 16 engines, each 3*3 at most per lane
        engine_units, engine_adders, engine_max = _tree_reduce([3 * 3] * 1)
        assert (engine_units, engine_adders, engine_max) == (0, 0, 9)
        shifted = [engine_max << (2 * j + 2 * k) for j in range(4) for k in range(4)]
        global_units, global_adders, _ = _tree_reduce(shifted)
        assert global_adders == 15
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

    def test_shipped_parameters_have_zero_qualitative_penalty(self):
        sweep = [cfg(sw, lanes) for sw in (1, 2) for lanes in LANES]
        rows = [(cost._key(c), _structure(c), c.lanes) for c in sweep]
        adder_first = _structure(cfg(2, 16))
        for constants in (cost._energy_constants(PARAMS), cost._area_constants(PARAMS)):
            coeffs = list(constants)
            assert cost._qualitative_penalty(cost._norms_for(rows, coeffs), coeffs, adder_first) == 0.0


# the fit targets the objective is checked on: the default anchors, the three observed points,
# and anchors off the penalty's sweep (4-bit slices)
OFF_SWEEP = [cfg(4, 16), cfg(4, 8), cfg(2, 16)]
TARGET_SETS = (
    *fit_targets(DEFAULT_ANCHORS),
    *fit_targets(TestCalibrate.THREE_ANCHORS),
    *fit_targets([CalibrationAnchor(c, *per_mac_normalized(c, PARAMS)) for c in OFF_SWEEP]),
)


class TestFitObjective:
    # the fast objective must equal the reference bit for bit, so Nelder-Mead takes the same path

    def test_equal_at_the_starts(self):
        for targets in TARGET_SETS:
            fast, reference = cost._fit_objective(targets), reference_objective(targets)
            for start in cost._FIT_STARTS:
                x = np.log(start)
                assert type(fast(x)) is float
                assert fast(x) == reference(x), (targets, start)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        targets=st.sampled_from(TARGET_SETS),
        x=st.tuples(*[st.floats(-8.0, 4.0)] * 3).map(np.array),
    )
    def test_equal_at_random_points(self, targets, x):
        assert cost._fit_objective(targets)(x) == reference_objective(targets)(x)

    def test_equal_along_the_default_fit(self, monkeypatch):
        # every point Nelder-Mead visits while fitting DEFAULT_ANCHORS
        fast_objective, visited = cost._fit_objective, []

        def checked(targets):
            fast, reference = fast_objective(targets), reference_objective(targets)

            def objective(x):
                visited.append(x)
                value = fast(x)
                assert value == reference(x), x
                return value

            return objective

        expected = calibrate(DEFAULT_ANCHORS)
        monkeypatch.setattr(cost, "_fit_objective", checked)
        assert calibrate(DEFAULT_ANCHORS) == expected
        assert len(visited) > 1000


# the fits calibrate runs: the target sets above and those of the four leave-one-out anchor sets
LEAVE_ONE_OUT = tuple(DEFAULT_ANCHORS[:i] + DEFAULT_ANCHORS[i + 1:] for i in range(len(DEFAULT_ANCHORS)))
PARITY_SETS = (*TARGET_SETS, *(targets for anchors in LEAVE_ONE_OUT for targets in fit_targets(anchors)))


def scipy_nelder_mead(objective, x0, maxiter=4000):
    """SciPy's Nelder-Mead with the fit's options, as (x, f, iterations) in Python floats."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    res = minimize(objective, x0, method="Nelder-Mead", options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": maxiter})
    return res.x.tolist(), float(res.fun), res.nit


STABLE_ARGSORT = functools.partial(np.argsort, kind="stable")


def bits(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0, and a NaN equals a NaN


class TestNelderMead:
    # the in-package simplex walk must take SciPy's path exactly, so every fit ends on the same bits

    @pytest.mark.parametrize("targets", PARITY_SETS)
    def test_equal_to_scipy_on_every_fit(self, targets):
        objective = cost._fit_objective(targets)
        for start in cost._FIT_STARTS:
            x0 = np.log(start).tolist()
            x, fun, nit = cost._nelder_mead(objective, x0)
            ref_x, ref_fun, ref_nit = scipy_nelder_mead(objective, x0)
            assert (bits(x), bits([fun]), nit) == (bits(ref_x), bits([ref_fun]), ref_nit), start

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        x0=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        center=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        weights=st.lists(st.floats(0.5, 4.0), min_size=3, max_size=3),
        k=st.integers(0, 2),
        bad=st.sampled_from([math.nan, math.inf]),
    )
    # x0[1] is lost in (x - center), so vertices that differ only there tie, and the SIMD argsort
    # of NumPy on AVX2 and AVX-512 hosts puts them in another order than a stable sort does
    @example(
        x0=[0.5033329799474151, 2.303667073953543e-41, -0.1602456117906046],
        center=[2.2507793590611893, 1.0, 2.1615953146006], weights=[2.84375, 1.0, 2.765625], k=1, bad=math.nan,
    )
    def test_equal_to_scipy_where_the_objective_is_not_finite(self, x0, center, weights, k, bad):
        # A quadratic that gives ``bad`` past x0[k], on the side the first simplex moves it to, so that
        # one first vertex is bad and NaN must sort last, as inf does.  SciPy sorts the simplex with
        # np.argsort, whose order of tied values is the CPU's, so the reference sorts stably.
        side = 1.0 if x0[k] >= 0 else -1.0

        def objective(x):
            x = [float(v) for v in x]
            if side * (x[k] - x0[k]) > 0:
                return bad
            return sum(w * (v - c) * (v - c) for w, v, c in zip(weights, x, center))

        x, fun, nit = cost._nelder_mead(objective, x0)
        with mock.patch.object(np, "argsort", STABLE_ARGSORT):
            ref_x, ref_fun, ref_nit = scipy_nelder_mead(objective, np.array(x0))
        assert (bits(x), bits([fun]), nit) == (bits(ref_x), bits([ref_fun]), ref_nit)

    def test_a_nan_vertex_at_the_iteration_limit_makes_the_value_nan(self):
        # SciPy's value is np.min over the simplex, which a NaN wins; every point but x0 gives NaN
        x0 = [0.5, -1.0, 2.0]

        def objective(x):
            return 1.0 if [float(v) for v in x] == x0 else math.nan

        x, fun, nit = cost._nelder_mead(objective, x0, maxiter=2)
        assert (x, math.isnan(fun), nit) == (x0, True, 2)
        ref_x, ref_fun, ref_nit = scipy_nelder_mead(objective, x0, maxiter=2)
        assert (bits(x), bits([fun]), nit) == (bits(ref_x), bits([ref_fun]), ref_nit)

    def test_nan_sorts_last(self):
        # NaN compares false both ways, so only the key keeps it after inf and every finite value
        vertices = [(math.nan, [0.0]), (math.inf, [1.0]), (2.0, [2.0]), (-math.inf, [3.0])]
        assert [x for _, x in sorted(vertices, key=cost._by_value)] == [[3.0], [2.0], [1.0], [0.0]]


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
    energy, area = conventional_mac_cost(PARAMS)
    assert energy > 0 and area > 0


def test_default_params_round_trip_json():
    text = PARAMS.to_json()
    assert CostParams.from_json(text) == PARAMS
    assert text == resources.files("cvusim").joinpath("data/default_cost_params.json").read_text()


@pytest.mark.parametrize("text", ["[]", "3", '"params"', "null"])
def test_params_document_must_be_an_object(text):
    with pytest.raises(ConfigError, match="JSON object"):
        CostParams.from_json(text)
