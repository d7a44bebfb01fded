"""Extrema search, time averages, period estimation, case studies."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import blochprop.analysis as analysis
from blochprop.analysis import (
    CASE_STUDIES,
    PROBE_ERR,
    CaseSpec,
    PeriodEstimate,
    PeriodEstimationError,
    _nelder_mead,
    case_series,
    estimate_period_numeric,
    find_extrema,
    find_extremum,
    run_case_study,
    time_averaged_error,
)
from blochprop.bloch import EulerAngles
from blochprop.propagation import DegenerateRotationError, delta_closed_form, period

SQRT5 = math.sqrt(5.0)
X_BASE = (1.0, 0.0, 0.0)
UNIT_RATES = (1.0, 1.0, 1.0)


class TestNelderMead:
    def test_quadratic_bowl(self):
        target = [2.0, 1.0, 4.0, 3.0]
        f = lambda x: sum((x[j] - target[j]) ** 2 for j in range(4))
        x, fx, nfev = _nelder_mead(f, [0.5, 0.5, 0.5, 0.5], [0.0] * 4, [6.0] * 4)
        assert fx < 1e-8
        assert max(abs(x[j] - target[j]) for j in range(4)) < 1e-3
        assert nfev <= 2000

    def test_respects_bounds(self):
        # unconstrained minimum sits outside the box; solution must stay inside
        f = lambda x: (x[0] + 1.0) ** 2 + x[1] ** 2
        x, fx, _ = _nelder_mead(f, [0.5, 0.5], [0.0] * 2, [1.0] * 2)
        assert 0.0 <= x[0] <= 1.0 and 0.0 <= x[1] <= 1.0
        assert fx == pytest.approx(1.0, abs=1e-6)

    def test_evaluation_cap(self):
        calls = []
        f = lambda x: calls.append(1) or (x[0] - 0.3) ** 2
        _nelder_mead(f, [5.0], [0.0], [10.0], maxfev=50)
        assert len(calls) <= 51


class TestFindExtremum:
    def test_deterministic_given_seed(self):
        a = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=20, seed=42)
        b = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=20, seed=42)
        assert a == b

    def test_monotone_improvement_with_more_starts(self):
        few = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=10, seed=7)
        more = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=30, seed=7)
        assert more.value >= few.value

    def test_reported_value_is_attained(self):
        for mode, target in (("max", "el"), ("max", "az"), ("min", "el")):
            r = find_extremum(target, mode, X_BASE, UNIT_RATES, num_starts=15, seed=3)
            idx = 0 if target == "az" else 1
            again = delta_closed_form(r.at[:3], r.at[3], UNIT_RATES, base=X_BASE)[idx]
            assert abs(again - r.value) < 1e-10

    def test_location_within_box(self):
        r = find_extremum("az", "max", X_BASE, UNIT_RATES, num_starts=25, seed=1)
        assert all(0.0 <= c < 2 * math.pi for c in r.at)

    def test_result_metadata(self):
        r = find_extremum("az", "min", X_BASE, UNIT_RATES, num_starts=5, seed=9)
        assert r.kind == "min_az"
        assert r.base_vector == X_BASE
        assert r.num_starts == 5 and r.seed == 9
        assert 0.0 <= r.value <= math.pi

    def test_unit_rates_elevation_max(self):
        # moderate start count already reaches the plateau at arccos(-1/sqrt 5)
        r = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=120, seed=0)
        assert r.value == pytest.approx(math.acos(-1 / SQRT5), abs=1e-4)

    def test_unit_rates_azimuth_max_is_half_turn(self):
        r = find_extremum("az", "max", X_BASE, UNIT_RATES, num_starts=60, seed=0)
        assert r.value == pytest.approx(math.pi, abs=1e-6)

    def test_minima_vanish(self):
        for target in ("az", "el"):
            r = find_extremum(target, "min", X_BASE, UNIT_RATES, num_starts=30, seed=0)
            assert r.value <= 1e-6

    def test_pole_base_elevation_max_is_half_turn(self):
        r = find_extremum("el", "max", (0.0, 0.0, 1.0), UNIT_RATES, num_starts=120, seed=0)
        assert r.value == pytest.approx(math.pi, abs=1e-3)

    def test_scipy_polish_cannot_improve(self):
        r = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=120, seed=0)
        f = lambda x: -delta_closed_form((x[0], x[1], x[2]), x[3], UNIT_RATES, base=X_BASE)[1]
        polished = minimize(f, list(r.at), method="Nelder-Mead", options={"fatol": 1e-14, "xatol": 1e-12})
        assert -polished.fun <= r.value + 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(KeyError):
            find_extremum("elevation", "max", X_BASE, UNIT_RATES, num_starts=2)
        with pytest.raises(ValueError, match="mode"):
            find_extremum("el", "argmax", X_BASE, UNIT_RATES, num_starts=2)
        with pytest.raises(ValueError, match="num_starts"):
            find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=0)


class TestFindExtrema:
    def test_four_extrema_in_report_order(self):
        box = ((0.0, 3.0),) * 4
        results = find_extrema(X_BASE, UNIT_RATES, num_starts=3, seed=4, bounds=box)
        expected = [
            find_extremum(target, mode, X_BASE, UNIT_RATES, num_starts=3, seed=4, bounds=box)
            for mode, target in (("max", "az"), ("max", "el"), ("min", "az"), ("min", "el"))
        ]
        assert list(results) == expected


class TestBaseVectorValidation:
    @pytest.mark.parametrize("base", [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (1.0, 0.0)])
    def test_non_unit_base_rejected(self, base):
        with pytest.raises(ValueError, match="unit"):
            find_extremum("el", "max", base, UNIT_RATES, num_starts=1)
        with pytest.raises(ValueError, match="unit"):
            estimate_period_numeric("el", PROBE_ERR, UNIT_RATES, base=base)
        with pytest.raises(ValueError, match="unit"):
            time_averaged_error("el", PROBE_ERR, UNIT_RATES, base=base)


class TestTimeAveragedError:
    def test_zero_error_averages_zero(self):
        assert time_averaged_error("el", (0, 0, 0), UNIT_RATES) == pytest.approx(0.0, abs=1e-12)
        assert time_averaged_error("az", (0, 0, 0), UNIT_RATES) == pytest.approx(0.0, abs=1e-12)

    def test_against_midpoint_oracle(self):
        t_period = period(UNIT_RATES)
        n = 10**5
        ts = (np.arange(n) + 0.5) * (t_period / n)
        for target, idx in (("az", 0), ("el", 1)):
            oracle = float(
                np.mean([delta_closed_form(PROBE_ERR, t, UNIT_RATES)[idx] for t in ts])
            )
            val = time_averaged_error(target, PROBE_ERR, UNIT_RATES)
            assert val == pytest.approx(oracle, abs=1e-6)

    def test_average_below_peak(self):
        rng = np.random.default_rng(13)
        t_period = period(UNIT_RATES)
        grid = np.linspace(0.0, t_period, 2000)
        for _ in range(10):
            err = tuple(rng.uniform(0, 2 * math.pi, 3))
            for target, idx in (("az", 0), ("el", 1)):
                avg = time_averaged_error(target, err, UNIT_RATES)
                peak = max(delta_closed_form(err, t, UNIT_RATES)[idx] for t in grid)
                assert avg <= peak + 1e-9

    def test_tighter_tolerance_is_stable(self):
        loose = time_averaged_error("el", PROBE_ERR, UNIT_RATES, tol=1e-8)
        tight = time_averaged_error("el", PROBE_ERR, UNIT_RATES, tol=1e-9)
        assert abs(loose - tight) < 1e-7

    def test_degenerate_rates_rejected(self):
        with pytest.raises(DegenerateRotationError):
            time_averaged_error("el", PROBE_ERR, (0.5, 0.0, -0.5))


class TestEstimatePeriodNumeric:
    def test_unit_rates(self):
        est = estimate_period_numeric("el", PROBE_ERR, UNIT_RATES)
        assert float(est) == pytest.approx(2 * math.pi / SQRT5, abs=1e-9)
        assert not est.degenerate

    def test_transcendental_rates(self):
        angles = EulerAngles(math.e, math.pi, 3.0)
        est = estimate_period_numeric("el", PROBE_ERR, angles)
        expected = 2 * math.pi / math.sqrt(math.pi**2 + (math.e + 3) ** 2)
        assert float(est) == pytest.approx(expected, abs=1e-9)

    def test_constant_signal_flagged_degenerate(self):
        est = estimate_period_numeric("el", (0.0, 0.0, 0.0), UNIT_RATES)
        assert est.degenerate
        assert float(est) == pytest.approx(period(UNIT_RATES), abs=1e-15)

    def test_estimate_behaves_like_float(self):
        est = PeriodEstimate(2.5, degenerate=True)
        assert est + 0.5 == 3.0
        assert est.degenerate

    def test_no_match_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "PERIOD_MATCH_TOL", -1.0)
        with pytest.raises(PeriodEstimationError, match="no period"):
            estimate_period_numeric("el", PROBE_ERR, UNIT_RATES)

    def test_degenerate_rates_rejected(self):
        with pytest.raises(DegenerateRotationError):
            estimate_period_numeric("el", PROBE_ERR, (0, 0, 0))


class TestCaseStudies:
    def test_seven_specs_with_unique_labels(self):
        assert len(CASE_STUDIES) == 7
        assert len({s.label for s in CASE_STUDIES}) == 7
        for spec in CASE_STUDIES:
            assert any(a != 0.0 for a in spec.angles)

    def test_stated_periods(self):
        e, pi = math.e, math.pi
        stated = [
            math.sqrt(2.0 / 13.0) * pi,
            math.sqrt(2.0) * pi / 3.0,
            math.sqrt(2.0 / 5.0) * pi,
            pi / math.sqrt(2.0),
            2 * pi / math.sqrt(pi**2 + (e + 3) ** 2),
            2 * pi / math.sqrt(1 + (1 + pi) ** 2),
            2 * pi / math.sqrt(pi**2 + 4),
        ]
        for spec, expected in zip(CASE_STUDIES, stated):
            assert period(spec.angles) == pytest.approx(expected, abs=1e-12), spec.label

    def test_report_structure(self):
        spec = CASE_STUDIES[0]
        report = run_case_study(spec, num_starts=40, seed=0)
        assert report.spec is spec
        assert report.analytic_period == pytest.approx(period(spec.angles), abs=1e-15)
        assert abs(report.analytic_period - float(report.numeric_period)) < 1e-6 * report.analytic_period
        assert not report.numeric_period.degenerate
        for value in (report.max_az, report.max_el, report.min_az, report.min_el):
            assert 0.0 <= value <= math.pi
        assert report.max_az == pytest.approx(math.pi, abs=1e-3)
        assert len(report.series) == 512
        assert report.series.t[0] == 0.0
        assert report.series.t[-1] == pytest.approx(report.analytic_period, abs=1e-15)

    def test_case_series_samples_the_probe_error(self):
        spec = CASE_STUDIES[1]
        series = case_series(spec)
        assert len(series) == 512
        for k in (0, 100, 511):
            expected = delta_closed_form(PROBE_ERR, series.t[k], spec.angles, base=spec.base_vector)
            assert (series.delta_az[k], series.delta_el[k]) == expected

    def test_custom_spec_err_box_is_respected(self):
        box = ((0.0, 0.5),) * 4
        spec = CaseSpec(label="narrow box", angles=EulerAngles(1, 1, 1), err_search=box)
        report = run_case_study(spec, num_starts=10, seed=0)
        # the quarter-turn azimuth maximum is unreachable inside the narrow box
        assert report.max_az < math.pi / 2
