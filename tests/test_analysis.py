"""Extrema search, time averages, period estimation, case studies."""

import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize

import blochprop.analysis as analysis
import blochprop.propagation as propagation
import blochprop.rotations as rotations
import blochprop.scalar as scalar
from blochprop.analysis import (
    CASE_STUDIES,
    MAX_EVALS,
    PROBE_ERR,
    CaseSpec,
    PeriodEstimate,
    PeriodEstimationError,
    TimeAverage,
    _nelder_mead_batch,
    case_series,
    closed_form_extrema,
    estimate_period_numeric,
    find_extrema,
    find_extremum,
    run_case_study,
    time_averaged_error,
)
from blochprop.bloch import EulerAngles
from blochprop.propagation import (
    DegenerateRotationError,
    _az_rows,
    _el_rows,
    _family,
    _pair_kernel,
    _pseudo_rows,
    delta_batch,
    delta_closed_form,
    period,
)
from blochprop.quadpack import integrate
from blochprop.scalar import _break_points, _delta_scalar, _point_reader, _pseudo_az, _pseudo_el, _start_pair

SQRT5 = math.sqrt(5.0)
X_BASE = (1.0, 0.0, 0.0)
UNIT_RATES = (1.0, 1.0, 1.0)
TWO_PI = 2 * math.pi


def unit_speed_delta(err, angles, base, idx):
    """delta_closed_form's channel idx at time s of the unit-speed family about the axis of ``angles``."""
    at = _point_reader(_family(angles)._replace(omega=1.0), tuple(map(float, base)), _delta_scalar)
    return lambda s: at((*err, s))[idx]


def break_points(idx, err, angles, base):
    """The break points time_averaged_error splits channel idx's period at."""
    family = _family(angles)
    return _break_points(idx, *_start_pair(err, tuple(map(float, base))), family.na, family.nt)


def quad_over_the_pieces(err, angles, base, idx):
    """quad's average of channel idx over each piece between the break points, at a tolerance far below average's."""
    f = unit_speed_delta(err, angles, base, idx)
    points = break_points(idx, err, angles, base)
    return math.fsum(quad(f, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0] for a, b in zip(points, points[1:])) / TWO_PI


def assert_within_its_error_estimate(avg, reference):
    """avg met average's tolerance, and lies within its error estimate (plus the reference's own 1e-13) of reference."""
    assert isinstance(avg, TimeAverage)
    assert avg.neval > 0 and avg.neval % 21 == 0
    assert avg.abserr <= max(1e-8, 1e-10 * abs(avg) * TWO_PI) / TWO_PI
    assert abs(avg - reference) <= avg.abserr + 1e-13


def unit_speed_signal(target, err, angles, base):
    """delta_batch's ``target`` column of the unit-speed family about the axis of ``angles``, at phases s."""
    kernel = _pair_kernel(_family(angles)._replace(omega=1.0), tuple(map(float, base)))
    read = (_az_rows, _el_rows)[{"az": 0, "el": 1}[target]]
    return lambda s: read(kernel(err, s))


def one_start(f, x0, lo, hi, maxfev=MAX_EVALS):
    """_nelder_mead_batch on the one start x0 of a scalar f(p): (x_best, f_best, nfev)."""
    batch = lambda pts, _rows: np.array([f(p) for p in pts.tolist()])
    x, fx, nfev = _nelder_mead_batch(batch, lambda _row: f, [x0], lo, hi, maxfev)
    return x[0].tolist(), float(fx[0]), int(nfev[0])


class TestNelderMead:
    def test_quadratic_bowl(self):
        target = [2.0, 1.0, 4.0, 3.0]
        f = lambda x: sum((x[j] - target[j]) ** 2 for j in range(4))
        x, fx, nfev = one_start(f, [0.5, 0.5, 0.5, 0.5], [0.0] * 4, [6.0] * 4)
        assert fx < 1e-8
        assert max(abs(x[j] - target[j]) for j in range(4)) < 1e-3
        assert nfev <= 2000

    def test_respects_bounds(self):
        # unconstrained minimum sits outside the box; solution must stay inside
        f = lambda x: (x[0] + 1.0) ** 2 + x[1] ** 2
        x, fx, _ = one_start(f, [0.5, 0.5], [0.0] * 2, [1.0] * 2)
        assert 0.0 <= x[0] <= 1.0 and 0.0 <= x[1] <= 1.0
        assert fx == pytest.approx(1.0, abs=1e-6)

    def test_evaluation_cap(self):
        calls = []
        f = lambda x: calls.append(1) or (x[0] - 0.3) ** 2
        one_start(f, [5.0], [0.0], [10.0], maxfev=50)
        assert len(calls) <= 51


class TestLockstepNelderMead:
    # rows mix the four extrema kinds; a low cap makes some rows stop early
    KINDS = [(-1.0, 0), (-1.0, 1), (1.0, 0), (1.0, 1)]

    @pytest.mark.parametrize("maxfev", [120, MAX_EVALS])
    def test_row_results_do_not_depend_on_the_batch(self, maxfev):
        rng = np.random.default_rng(17)
        x0 = rng.uniform(0.0, 2 * math.pi, (8, 4))
        kinds = [self.KINDS[i % 4] for i in range(8)]
        lo, hi = [0.0] * 4, [analysis.BOX_HI] * 4
        rates = (0.7, -1.3, 2.1)
        xb, fb, nb = _nelder_mead_batch(*search_objective(kinds, rates), x0, lo, hi, maxfev=maxfev)
        assert len(set(nb.tolist())) > 1
        for i in range(8):
            xa, fa, na = _nelder_mead_batch(*search_objective(kinds[i : i + 1], rates), x0[i : i + 1], lo, hi, maxfev=maxfev)
            assert xa[0].tolist() == xb[i].tolist()
            assert fa[0] == fb[i] and na[0] == nb[i]

    @staticmethod
    def tilted_bowls(centre, calls):
        """f and point of |dx| + 3 dy^2 + dx dy / 2 around each row's centre, equal bit for bit; counts into calls."""

        def f(x, rows):
            calls["numpy"] += 1
            d = x - centre[rows]
            return np.abs(d[:, 0]) + 3.0 * d[:, 1] * d[:, 1] + 0.5 * d[:, 0] * d[:, 1]

        def point(row):
            cx, cy = centre[row].tolist()

            def at(p):
                calls["float"] += 1
                return abs(p[0] - cx) + 3.0 * (p[1] - cy) * (p[1] - cy) + 0.5 * (p[0] - cx) * (p[1] - cy)

            return at

        return f, point

    @pytest.mark.parametrize("maxfev", [60, MAX_EVALS])
    def test_two_coordinate_rows_do_not_depend_on_the_batch(self, maxfev):
        # a batch that is not four-dimensional never hands off, but its calls of at most HANDOFF_ROWS points
        # run on the point readers; a row alone runs on them throughout
        rng = np.random.default_rng(5)
        size = 2 * analysis.HANDOFF_ROWS
        x0, centre = rng.uniform(0.0, 3.0, (size, 2)), rng.uniform(0.5, 2.5, (size, 2))
        lo, hi = [0.0, 0.0], [3.0, 3.0]
        calls = {"numpy": 0, "float": 0}
        xb, fb, nb = _nelder_mead_batch(*self.tilted_bowls(centre, calls), x0, lo, hi, maxfev=maxfev)
        assert calls["numpy"] > 0 and calls["float"] > 0
        assert len(set(nb.tolist())) > 1
        for i in range(size):
            alone = {"numpy": 0, "float": 0}
            xa, fa, na = _nelder_mead_batch(*self.tilted_bowls(centre[i : i + 1], alone), x0[i : i + 1], lo, hi, maxfev)
            assert alone["numpy"] == 0
            assert xa[0].tolist() == xb[i].tolist()
            assert fa[0] == fb[i] and na[0] == nb[i]


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

    @pytest.mark.parametrize("seed", [-1, 1.0, "0", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
            find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=2, seed=seed)
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got "):
            find_extrema(X_BASE, UNIT_RATES, num_starts=2, seed=seed)


class TestEvaluationCounts:
    def test_counts_add_up_per_start(self):
        counts = [find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=k, seed=2).nfev for k in range(1, 5)]
        per_start = np.diff([0] + counts)
        # n + 1 initial vertices; the last iteration may pass the cap by n + 1
        assert all(5 <= c <= MAX_EVALS + 5 for c in per_start), per_start

    def test_capped_starts(self, monkeypatch):
        r = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=6, seed=0)
        assert 0 <= r.capped_starts <= 6
        monkeypatch.setattr(analysis, "MAX_EVALS", 30)
        capped = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=6, seed=0)
        assert capped.capped_starts == 6
        assert 6 * 30 <= capped.nfev <= 6 * 35


class TestFindExtrema:
    def test_four_extrema_in_report_order(self):
        box = ((0.0, 3.0),) * 4
        results = find_extrema(X_BASE, UNIT_RATES, num_starts=3, seed=4, bounds=box)
        expected = [
            find_extremum(target, mode, X_BASE, UNIT_RATES, num_starts=3, seed=4, bounds=box)
            for mode, target in (("max", "az"), ("max", "el"), ("min", "az"), ("min", "el"))
        ]
        assert list(results) == expected


rate_triples = st.tuples(*[st.floats(-3.0, 3.0)] * 3)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(rate_triples)
def test_search_meets_base_x_closed_forms(angles):
    # for base (1,0,0) the clean polar angle sweeps
    # [arccos(|theta|/omega), arccos(-|theta|/omega)] and the error can put
    # the perturbed vector on either pole or opposite in azimuth
    phi, theta, psi = angles
    omega = math.hypot(theta, phi + psi)
    assume(omega >= 1.0)
    max_az, max_el, min_az, min_el = (
        r.value for r in find_extrema(X_BASE, angles, num_starts=64, seed=0)
    )
    assert abs(max_az - math.pi) <= 1e-9
    assert abs(max_el - math.acos(-abs(theta) / omega)) <= 1e-9
    assert min_az <= 1e-9 and min_el <= 1e-9


class TestBaseVectorValidation:
    @pytest.mark.parametrize("base", [(0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (1.0, 0.0)])
    def test_non_unit_base_rejected(self, base):
        with pytest.raises(ValueError, match="unit"):
            find_extremum("el", "max", base, UNIT_RATES, num_starts=1)
        with pytest.raises(ValueError, match="unit"):
            estimate_period_numeric("el", PROBE_ERR, UNIT_RATES, base=base)
        with pytest.raises(ValueError, match="unit"):
            time_averaged_error("el", PROBE_ERR, UNIT_RATES, base=base)

    @pytest.mark.parametrize("base", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
    def test_non_finite_base_rejected(self, base):
        with pytest.raises(ValueError, match="unit"):
            find_extremum("el", "max", base, UNIT_RATES, num_starts=1)
        with pytest.raises(ValueError, match="unit"):
            find_extrema(base, UNIT_RATES, num_starts=1, seed=0)
        with pytest.raises(ValueError, match="unit"):
            estimate_period_numeric("el", PROBE_ERR, UNIT_RATES, base=base)
        with pytest.raises(ValueError, match="unit"):
            time_averaged_error("el", PROBE_ERR, UNIT_RATES, base=base)


class TestNonFiniteInput:
    @pytest.mark.parametrize("rates", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1e308, 0.0, 1e308)])
    def test_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="rotation rates"):
            find_extrema(X_BASE, rates, num_starts=2, seed=0)
        with pytest.raises(ValueError, match="rotation rates"):
            find_extremum("el", "max", X_BASE, rates, num_starts=2)
        with pytest.raises(ValueError, match="rotation rates"):
            period(rates)
        with pytest.raises(ValueError, match="rotation rates"):
            time_averaged_error("el", PROBE_ERR, rates)
        with pytest.raises(ValueError, match="rotation rates"):
            estimate_period_numeric("el", PROBE_ERR, rates)

    @pytest.mark.parametrize("err", [(math.nan, 0.2, 0.0), (0.0, math.inf, 0.0), (0.0, 0.2, -math.inf)])
    def test_error_triple_rejected(self, err):
        with pytest.raises(ValueError, match="err must be finite"):
            time_averaged_error("el", err, UNIT_RATES)
        with pytest.raises(ValueError, match="err must be finite"):
            estimate_period_numeric("el", err, UNIT_RATES)


class TestUnknownTarget:
    @pytest.mark.parametrize("target", ["xx", "elevation", "", None])
    def test_raises_value_error(self, target):
        for call in (
            lambda: find_extremum(target, "max", X_BASE, UNIT_RATES, num_starts=2),
            lambda: time_averaged_error(target, PROBE_ERR, UNIT_RATES),
            lambda: estimate_period_numeric(target, PROBE_ERR, UNIT_RATES),
        ):
            with pytest.raises(ValueError, match="target must be 'az' or 'el'"):
                call()


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

    @pytest.mark.parametrize(
        "err,angles,base",
        [
            (PROBE_ERR, UNIT_RATES, X_BASE),
            ((0.3, 1.1, 2.0), (2.0, 1.0, 3.0), X_BASE),
            ((5.1, 0.4, 3.3), (math.e, math.pi, 3.0), (0.0, 0.6, -0.8)),
            ((0.0, 0.0, 0.0), UNIT_RATES, (0.0, 0.0, 1.0)),
        ],
    )
    def test_agrees_with_quad_over_delta_closed_form(self, err, angles, base):
        # quad over the phase of the unit-speed family, piece by piece, divided by 2 pi
        for target, idx in (("az", 0), ("el", 1)):
            avg = time_averaged_error(target, err, angles, base)
            assert_within_its_error_estimate(avg, quad_over_the_pieces(err, angles, base, idx))


def _random_average_configs():
    rng = np.random.default_rng(22)
    configs = []
    for _ in range(4):
        base = rng.normal(size=3)
        configs.append(
            (
                tuple(rng.uniform(0.0, 2 * math.pi, 3).tolist()),
                tuple(rng.uniform(-3.0, 3.0, 3).tolist()),
                tuple((base / np.linalg.norm(base)).tolist()),
            )
        )
    return configs


@pytest.mark.parametrize(
    "err,angles,base",
    [
        # the CLI's defaults, the periods benchmark's rates, and a perturbed vector that starts at a pole
        (PROBE_ERR, UNIT_RATES, X_BASE),
        ((0.3, 0.2, 0.1), (0.7, -1.3, 2.1), (0.48, 0.6, 0.64)),
        ((0.0, math.pi / 2, 0.0), UNIT_RATES, X_BASE),
    ]
    + _random_average_configs(),
)
def test_one_channel_average_equals_the_quadrature_over_the_pair(err, angles, base):
    # the integrand reads one discrepancy only, and the quadrature still sees the same samples: the
    # same average, error estimate and evaluation count as over the pair of the unit-speed family,
    # which quad over the pieces confirms
    for target, idx in (("az", 0), ("el", 1)):
        pair = partial(map, unit_speed_delta(err, angles, base, idx))
        val, abserr, neval, _ = integrate(pair, break_points(idx, err, angles, base), 1e-8, 1e-10, 200)
        avg = time_averaged_error(target, err, angles, base)
        assert (float(avg), avg.abserr, avg.neval) == (val / TWO_PI, abserr / TWO_PI, neval)
        assert_within_its_error_estimate(avg, quad_over_the_pieces(err, angles, base, idx))


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

    @pytest.mark.parametrize("size", [1e-6, 1e-7, 1e-8])
    @pytest.mark.parametrize("rates", [UNIT_RATES, (0.7, -1.3, 2.1)])
    @pytest.mark.parametrize("base", [X_BASE, (0.48, 0.6, 0.64)])
    def test_small_error_flagged_degenerate(self, size, rates, base):
        # the signal varies by less than PERIOD_MATCH_TOL, so every shift would match; the answer was T/16
        est = estimate_period_numeric("el", (0.0, size, 0.0), rates, base)
        assert (float(est), est.degenerate, est.residual) == (period(rates), True, 0.0)

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

    @pytest.mark.parametrize("target", ["az", "el"])
    def test_period_above_half_the_float_range(self, target):
        # T = 1.57e308: a grid over t, shifted by a candidate, overflowed to inf and no divisor matched; the
        # phase stays in [0, 4 pi], so the slow rates read as unit rates about the same axis
        slow, unit = (0.0, 4e-308, 0.0), (0.0, 1.0, 0.0)
        assert period(slow) > sys.float_info.max / 2
        est = estimate_period_numeric(target, PROBE_ERR, slow)
        want = estimate_period_numeric(target, PROBE_ERR, unit)
        assert (float(est), est.degenerate, est.residual) == (period(slow) / 2, False, want.residual)
        assert float(want) == period(unit) / 2
        # about the z axis neither discrepancy of the base (1, 0, 0) moves
        est = estimate_period_numeric(target, PROBE_ERR, (0.0, 0.0, 4e-308))
        assert (float(est), est.degenerate) == (period((0.0, 0.0, 4e-308)), True)

    def test_residual_of_the_matched_candidate(self):
        est = estimate_period_numeric("el", PROBE_ERR, UNIT_RATES)
        assert 0.0 <= est.residual < analysis.PERIOD_MATCH_TOL
        assert est.residual == full_scan_period("el", PROBE_ERR, UNIT_RATES, X_BASE)[2]
        assert estimate_period_numeric("el", (0.0, 0.0, 0.0), UNIT_RATES).residual == 0.0

    def test_half_period_is_tried_first_and_strictly(self, monkeypatch):
        # a signal of period T whose T/2 grid gap is below half its range: at a tolerance just above
        # that gap T/2 is returned with the gap as its residual, at a tolerance equal to it T is; both
        # shifts come from one kernel call
        err, angles = (0.3, 0.2, 0.1), UNIT_RATES
        t_period = period(angles)
        signal = unit_speed_signal("az", err, angles, X_BASE)
        phases = np.linspace(0.0, TWO_PI, analysis.PERIOD_GRID)
        sig = signal(phases)
        gap, whole = (float(np.abs(signal(phases + shift) - sig).max()) for shift in (math.pi, TWO_PI))
        assert whole < gap < float(sig.max() - sig.min()) / 2
        calls = []
        monkeypatch.setattr(analysis, "_az_rows", lambda w: calls.append(w) or _az_rows(w))
        for tol, want in ((math.nextafter(gap, math.inf), (t_period / 2, gap)), (gap, (t_period, whole))):
            monkeypatch.setattr(analysis, "PERIOD_MATCH_TOL", tol)
            calls.clear()
            est = estimate_period_numeric("az", err, angles)
            assert (float(est), est.residual) == want and not est.degenerate
            assert len(calls) == 1

    def test_near_flat_signal_is_not_read_as_a_short_divisor(self):
        # the azimuth gap barely moves about an axis near z: its range is just above PERIOD_MATCH_TOL
        # and a shift by T/16 moves it by less, so a screen of T/16 ... T read it as T/16; its
        # period is T, and a dense sampling sees T/2 fail
        err, angles = (math.pi, math.pi / 4, math.pi / 2), (0.0, 0.003, 3.0)
        signal = unit_speed_signal("az", err, angles, X_BASE)
        phases = np.linspace(0.0, TWO_PI, analysis.PERIOD_GRID)
        sig = signal(phases)
        assert analysis.PERIOD_MATCH_TOL < float(sig.max() - sig.min())
        assert float(np.abs(signal(phases + TWO_PI / 16) - sig).max()) < analysis.PERIOD_MATCH_TOL
        dense = np.linspace(0.0, TWO_PI, 100_001)
        assert float(np.abs(signal(dense + math.pi) - signal(dense)).max()) > analysis.PERIOD_MATCH_TOL
        est = estimate_period_numeric("az", err, angles)
        assert (float(est), est.degenerate) == (period(angles), False)

    def test_near_flat_signal_does_not_match_half_its_period(self):
        # the azimuth gap barely moves: its range on the grid is just above PERIOD_MATCH_TOL, and its
        # T/2 gap, below that tolerance, is most of the range; the period is T, whose gap is rounding
        err, angles = (math.pi, math.pi / 4, math.pi / 2), (1.0, 0.002, 2.0)
        signal = unit_speed_signal("az", err, angles, X_BASE)
        phases = np.linspace(0.0, TWO_PI, analysis.PERIOD_GRID)
        sig = signal(phases)
        spread = float(sig.max() - sig.min())
        gap = float(np.abs(signal(phases + math.pi) - sig).max())
        assert spread / 2 < gap < analysis.PERIOD_MATCH_TOL < spread
        est = estimate_period_numeric("az", err, angles)
        assert (float(est), est.degenerate) == (period(angles), False)
        assert est.residual < 1e-15


def full_scan_period(target, err, angles, base, tol=None):
    """(value, degenerate, residual) by checking every candidate on the full grid, or None.

    The grid and the shifts are phases of the unit-speed family; the shift 2 pi / k, or k 2 pi, of
    the phase is the candidate T / k, or k T, of the rates.
    """
    tol = analysis.PERIOD_MATCH_TOL if tol is None else tol
    t_period = period(angles)
    signal = unit_speed_signal(target, err, angles, base)
    phases = np.linspace(0.0, TWO_PI, analysis.PERIOD_GRID)
    sig = signal(phases)
    spread = float(sig.max() - sig.min())
    if spread < tol:
        return t_period, True, 0.0
    # a gap must also be below half the range, or a barely moving signal would match any shift
    tol = min(tol, spread / 2)
    cands = [(TWO_PI / k, t_period / k) for k in range(16, 1, -1)] + [(k * TWO_PI, k * t_period) for k in range(1, 11)]
    for shift, cand in cands:
        gap = float(np.abs(signal(phases + shift) - sig).max())
        if gap < tol:
            return cand, False, gap
    return None


@st.composite
def period_inputs(draw):
    rates = draw(rate_triples)
    assume(math.hypot(rates[1], rates[0] + rates[2]) >= 1.0)
    base = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    assume(math.hypot(*base) > 1e-3)
    base = tuple(c / math.hypot(*base) for c in base)
    # the floats' boundary values include zero errors, whose signal is constant
    err = draw(st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3))
    return draw(st.sampled_from(["az", "el"])), err, rates, base


def twin_err(rates, shift):
    """Euler angles of sp_general(shift, rates), so the perturbed vector runs shift ahead of the clean one."""
    r = propagation.sp_general(shift, rates)
    return (math.atan2(r[2, 1], r[2, 0]), math.acos(r[2, 2]), math.atan2(r[1, 2], -r[0, 2]))


def structured_period_examples(test):
    """Both channels of: twins T/k apart, k = 2, 3, 4, 6; the rates (0, 1, 0), about the y axis, under
    which every z-curve has c = 0 and a generic base gives T/2; and the axis bases."""
    rates, base, err = (0.7, -1.3, 2.1), (0.48, 0.6, 0.64), (0.3, 0.2, 0.1)
    cases = [(twin_err(rates, period(rates) / k), rates, base) for k in (2, 3, 4, 6)]
    cases.append((err, (0.0, 1.0, 0.0), base))
    cases += [(err, rates, axis) for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
    for case in cases:
        for target in ("az", "el"):
            test = example((target, *case))(test)
    return test


@settings(max_examples=80, deadline=None, derandomize=True)
@given(period_inputs())
# small errors, whose signal varies by less than PERIOD_MATCH_TOL
@example(("az", (0.0, 1e-7, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0)))
@example(("el", (0.0, 1e-7, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0)))
@structured_period_examples
def test_period_screen_matches_full_scan(inputs):
    target, err, rates, base = inputs
    want = full_scan_period(target, err, rates, base)
    if want is None:
        with pytest.raises(PeriodEstimationError):
            estimate_period_numeric(target, err, rates, base)
        return
    est = estimate_period_numeric(target, err, rates, base)
    assert (float(est), est.degenerate, est.residual) == want


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
        # every sample of every case, on its own base and at both poles, bit for bit
        poles = [CaseSpec(case.label, case.angles, base) for case in CASE_STUDIES for base in ((0, 0, 1), (0, 0, -1))]
        for spec in CASE_STUDIES + tuple(poles):
            series = case_series(spec)
            assert len(series) == 512
            expected = [delta_closed_form(PROBE_ERR, t, spec.angles, base=spec.base_vector) for t in series.t.tolist()]
            assert series.delta_az.tobytes() == np.array([az for az, _ in expected]).tobytes()
            assert series.delta_el.tobytes() == np.array([el for _, el in expected]).tobytes()

    def test_custom_spec_err_box_is_respected(self):
        box = ((0.0, 0.5),) * 4
        spec = CaseSpec(label="narrow box", angles=EulerAngles(1, 1, 1), err_search=box)
        report = run_case_study(spec, num_starts=10, seed=0)
        # the quarter-turn azimuth maximum is unreachable inside the narrow box
        assert report.max_az < math.pi / 2


# -- the plain-float finish of the lockstep search --------------------------------


def search_objective(kinds, rates, base=X_BASE):
    """The batch and one-point objectives of a search over rows of the given (sign, column) kinds.

    Built from what _search hands off: the lockstep reads _pair_kernel's vectors with _pseudo_rows,
    the one-point finish reads _point_reader's with _pseudo_az or _pseudo_el.
    """
    signs = np.array([k[0] for k in kinds])
    cols = np.array([k[1] for k in kinds])
    family = _family(rates)
    kernel = _pair_kernel(family, base)
    readers = [_point_reader(family, base, read) for read in (_pseudo_az, _pseudo_el)]

    def f(x, rows):
        w = kernel(x[:, :3], x[:, 3])
        # _pseudo_rows reads the azimuth on its first n_az points: on all of them, then on none
        return signs[rows] * np.where(cols[rows] == 0, _pseudo_rows(w, len(rows)), _pseudo_rows(w, 0))

    def point(row):
        read = readers[int(cols[row])]
        return (lambda p: -read(p)) if signs[row] < 0.0 else read

    return f, point


@pytest.mark.parametrize("size", [1, analysis.HANDOFF_ROWS, analysis.HANDOFF_ROWS + 1, 4 * 64])
def test_alone_equals_batched_with_the_handoff(size):
    # a batch larger than HANDOFF_ROWS runs in lockstep first and finishes in plain floats; each
    # row alone runs in plain floats throughout; every row must end at the same point and count
    assert analysis.HANDOFF_ROWS >= 1
    rng = np.random.default_rng(size)
    x0 = rng.uniform(0.0, 2 * math.pi, (size, 4))
    kinds = [TestLockstepNelderMead.KINDS[i % 4] for i in range(size)]
    lo, hi = [0.0] * 4, [analysis.BOX_HI] * 4
    rates = (0.7, -1.3, 2.1)
    xb, fb, nb = _nelder_mead_batch(*search_objective(kinds, rates), x0, lo, hi)
    for i in range(size):
        xa, fa, na = _nelder_mead_batch(*search_objective(kinds[i : i + 1], rates), x0[i : i + 1], lo, hi)
        assert xa[0].tolist() == xb[i].tolist()
        assert fa[0] == fb[i] and na[0] == nb[i]


SEARCH_CASES = [
    ((1.0, 0.0, 0.0), (0.7, -1.3, 2.1), 16, 3),
    ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0), 9, 0),
    ((0.6, 0.0, 0.8), (2.0, 1.0, 3.0), 1, 11),
    # the benchmark's start count: small second-point and shrink calls run on the point readers mid-lockstep
    ((0.48, 0.6, 0.64), (0.7, -1.3, 2.1), 64, 0),
]


@pytest.mark.parametrize("base, rates, starts, seed", SEARCH_CASES)
def test_find_extrema_equals_a_run_without_the_handoff(monkeypatch, base, rates, starts, seed):
    with_handoff = find_extrema(base, rates, num_starts=starts, seed=seed)
    monkeypatch.setattr(analysis, "HANDOFF_ROWS", 0)
    lockstep = find_extrema(base, rates, num_starts=starts, seed=seed)
    assert with_handoff == lockstep
    for a, b in zip(with_handoff, lockstep):
        assert (a.value, a.at, a.nfev, a.capped_starts) == (b.value, b.at, b.nfev, b.capped_starts)


def test_capped_counts_equal_a_run_without_the_handoff(monkeypatch):
    monkeypatch.setattr(analysis, "MAX_EVALS", 40)
    with_handoff = find_extrema(X_BASE, UNIT_RATES, num_starts=5, seed=1)
    monkeypatch.setattr(analysis, "HANDOFF_ROWS", 0)
    lockstep = find_extrema(X_BASE, UNIT_RATES, num_starts=5, seed=1)
    assert with_handoff == lockstep
    assert sum(r.capped_starts for r in lockstep) > 0


def test_run_case_study_equals_a_run_without_the_handoff(monkeypatch):
    spec = CASE_STUDIES[4]
    with_handoff = run_case_study(spec, num_starts=12, seed=2)
    monkeypatch.setattr(analysis, "HANDOFF_ROWS", 0)
    lockstep = run_case_study(spec, num_starts=12, seed=2)
    for name in ("analytic_period", "numeric_period", "max_az", "max_el", "min_az", "min_el"):
        assert getattr(with_handoff, name) == getattr(lockstep, name), name
    for column in ("t", "delta_az", "delta_el"):
        assert getattr(with_handoff.series, column).tolist() == getattr(lockstep.series, column).tolist()


class TestSearchBox:
    @pytest.mark.parametrize(
        "bounds",
        [
            ((0.0, math.nan),) * 4,
            ((math.nan, 1.0),) * 4,
            ((0.0, 1.0),) * 3 + ((0.0, math.inf),),
            ((-math.inf, 1.0),) + ((0.0, 1.0),) * 3,
        ],
    )
    def test_non_finite_edge_rejected(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            find_extrema(X_BASE, UNIT_RATES, num_starts=2, seed=0, bounds=bounds)
        with pytest.raises(ValueError, match="bounds"):
            find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=2, bounds=bounds)

    def test_reversed_edges_rejected(self):
        bounds = ((0.0, 1.0), (2.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError, match="lo <= hi"):
            find_extrema(X_BASE, UNIT_RATES, num_starts=2, seed=0, bounds=bounds)
        spec = CaseSpec(label="reversed box", angles=UNIT_RATES, err_search=bounds)
        with pytest.raises(ValueError, match="lo <= hi"):
            run_case_study(spec, num_starts=2, seed=0)

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_other_counts_rejected(self, count):
        with pytest.raises(ValueError, match="four"):
            find_extrema(X_BASE, UNIT_RATES, num_starts=2, seed=0, bounds=((0.0, 1.0),) * count)

    def test_one_point_box_is_accepted(self):
        # lo == hi pins a coordinate; here all four, so every start sits on the one point
        point = (0.1, 0.2, 0.3, 0.4)
        r = find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts=3, seed=0, bounds=tuple((c, c) for c in point))
        assert r.at == point
        assert r.value == delta_batch(point[:3], [point[3]], UNIT_RATES)[0, 1]


def test_wrong_length_rates_are_named():
    with pytest.raises(ValueError, match="rotation rates must be a triple"):
        find_extrema(X_BASE, (1.0, 2.0), num_starts=2, seed=0)
    with pytest.raises(ValueError, match="rotation rates must be a triple"):
        time_averaged_error("el", PROBE_ERR, (1.0, 2.0))


@pytest.mark.parametrize("err", [(0.0, 0.2), (0.0, 0.2, 0.0, 0.1)])
def test_wrong_length_error_triples_are_named(err):
    # both entries check the triple's length before any value of it is read
    for call in (time_averaged_error, estimate_period_numeric):
        with pytest.raises(ValueError, match=rf"^Euler angles must be a triple .* got {len(err)} values"):
            call("el", err, UNIT_RATES)


@pytest.mark.parametrize("base", [(1.0, 0.0), (0.0, 0.0, 2.0)])
def test_case_series_names_a_base_that_is_not_a_unit_3_vector(base):
    with pytest.raises(ValueError, match="^base_vector must be a unit 3-vector"):
        case_series(CaseSpec(label="bad base", angles=UNIT_RATES, base_vector=base))


@pytest.mark.parametrize(
    "bounds",
    [(0.0, 1.0, 2.0, 3.0), ((0.0, 1.0, 2.0),) * 4, (("a", 1.0),) + ((0.0, 1.0),) * 3, None, ()],
)
def test_malformed_boxes_are_named(bounds):
    with pytest.raises(ValueError, match="^bounds must be four finite"):
        find_extrema(X_BASE, UNIT_RATES, num_starts=2, seed=0, bounds=bounds)
    with pytest.raises(ValueError, match="full search box"):
        closed_form_extrema(X_BASE, UNIT_RATES, bounds)


def test_closed_forms_reject_an_infinite_box():
    # the search rejects it, so there is nothing for the closed forms to stand for
    with pytest.raises(ValueError, match="full search box"):
        closed_form_extrema(X_BASE, UNIT_RATES, ((-math.inf, math.inf),) * 4)


# each takes its inputs as plain floats and needs no array on the way
PLAIN_FLOAT_CALLS = {
    "time_averaged_error": lambda: [
        (a, a.abserr, a.neval)
        for a in (
            time_averaged_error("az", PROBE_ERR, UNIT_RATES),
            time_averaged_error("el", (0.3, 0.2, 0.1), (0.7, -1.3, 2.1), base=(0.48, 0.6, 0.64)),
        )
    ],
    "closed_form_extrema": lambda: closed_form_extrema((0.48, 0.6, 0.64), (0.7, -1.3, 2.1)),
    "delta_closed_form": lambda: delta_closed_form((0.3, 0.2, 0.1), 1.7, (0.7, -1.3, 2.1), (0.48, 0.6, 0.64)),
    "period": lambda: period((0.7, -1.3, 2.1)),
}


@pytest.mark.parametrize("name", sorted(PLAIN_FLOAT_CALLS))
def test_plain_float_entries_make_no_numpy_call(name, monkeypatch):
    call = PLAIN_FLOAT_CALLS[name]
    expected = call()

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called numpy")

    for attr in ("asarray", "array", "isfinite"):
        monkeypatch.setattr(np, attr, refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    assert call() == expected


# each parses its rate triple once, where it enters, and hands the parsed family on
ONE_PARSE_CALLS = {
    "find_extrema": lambda: find_extrema((0.48, 0.6, 0.64), (0.7, -1.3, 2.1), num_starts=2, seed=0),
    "delta_closed_form": PLAIN_FLOAT_CALLS["delta_closed_form"],
    "delta_batch": lambda: delta_batch((0.3, 0.2, 0.1), [0.0, 1.7], (0.7, -1.3, 2.1), (0.48, 0.6, 0.64)),
    "time_averaged_error": lambda: time_averaged_error("el", (0.3, 0.2, 0.1), (0.7, -1.3, 2.1)),
    "estimate_period_numeric": lambda: estimate_period_numeric("el", (0.3, 0.2, 0.1), (0.7, -1.3, 2.1)),
    "period": PLAIN_FLOAT_CALLS["period"],
}


@pytest.mark.parametrize("name", sorted(ONE_PARSE_CALLS))
def test_rate_triple_is_parsed_once(name, monkeypatch):
    parsed = []

    def spy(x, what):
        if what == "rotation rates":
            parsed.append(x)
        return triple(x, what)

    triple = scalar._triple
    for module in (rotations, propagation, analysis, scalar):
        monkeypatch.setattr(module, "_triple", spy, raising=False)
    ONE_PARSE_CALLS[name]()
    assert parsed == [(0.7, -1.3, 2.1)]


def test_start_counts_accept_numpy_integers():
    assert find_extrema(X_BASE, UNIT_RATES, np.int64(2), 0) == find_extrema(X_BASE, UNIT_RATES, 2, 0)
    assert find_extremum("el", "max", X_BASE, UNIT_RATES, np.int64(2), np.int64(0)) == find_extremum(
        "el", "max", X_BASE, UNIT_RATES, 2, 0
    )
    spec = CASE_STUDIES[0]
    got, want = run_case_study(spec, num_starts=np.int64(2)), run_case_study(spec, num_starts=2)
    assert (got.max_az, got.max_el, got.min_az, got.min_el) == (want.max_az, want.max_el, want.min_az, want.min_el)


@pytest.mark.parametrize("num_starts", [2.5, 2.0, "2", None])
def test_start_counts_that_are_not_integers_are_named(num_starts):
    with pytest.raises(ValueError, match=r"^num_starts must be an integer, got "):
        find_extrema(X_BASE, UNIT_RATES, num_starts, 0)
    with pytest.raises(ValueError, match=r"^num_starts must be an integer, got "):
        find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts, 0)


@pytest.mark.parametrize("num_starts", [2**50, 2**63 - 2, 10**20])
def test_start_counts_that_do_not_fit_in_memory_are_named(num_starts, monkeypatch):
    # 2**50 starts' simplices fail at allocation, so no memory is written; 2**63 - 2 and 10**20 lie past
    # numpy's index range.  Each is refused before a start is drawn
    monkeypatch.setattr(analysis, "_start_draws", lambda *args: pytest.fail("a start was drawn"))
    message = rf"^num_starts = {num_starts} is too many: the simplices of {num_starts} starts do not fit in memory$"
    with pytest.raises(ValueError, match=message):
        find_extrema(X_BASE, UNIT_RATES, num_starts, 0)
    with pytest.raises(ValueError, match=message):
        find_extremum("el", "max", X_BASE, UNIT_RATES, num_starts, 0)
    with pytest.raises(ValueError, match=message):
        run_case_study(CASE_STUDIES[0], num_starts=num_starts)
