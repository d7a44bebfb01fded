"""The search against the closed-form extrema, its plateau count, and rates whose phase overflows."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blochprop.analysis as analysis
from blochprop.analysis import (
    SEARCH_BOX,
    STARTS_AT_BEST_TOL,
    closed_form_extrema,
    find_extrema,
    find_extremum,
)
from blochprop.cli import main
from blochprop.propagation import delta_batch, delta_closed_form, period

X_BASE = (1.0, 0.0, 0.0)
UNIT_RATES = (1.0, 1.0, 1.0)


class TestClosedFormExtrema:
    def test_base_x_reduces_to_the_elevation_formula(self):
        for rates in [UNIT_RATES, (0.7, -1.3, 2.1), (1.0, 1.0, 2.0), (0.0, 3.0, 0.0)]:
            phi, theta, psi = rates
            omega = math.hypot(theta, phi + psi)
            max_az, max_el, min_az, min_el = closed_form_extrema(X_BASE, rates)
            assert max_el == pytest.approx(math.acos(-abs(theta) / omega), abs=1e-15)
            assert (max_az, min_az, min_el) == (math.pi, 0.0, 0.0)

    def test_base_on_the_axis_stays_put(self):
        # the clean vector is the rotation axis, so its z stays n_z
        rates = (0.5, 1.2, 1.1)
        omega = math.hypot(1.2, 1.6)
        n = (0.0, 1.2 / omega, 1.6 / omega)
        assert closed_form_extrema(n, rates)[1] == pytest.approx(math.acos(-1.6 / omega), abs=1e-12)

    def test_axis_near_z_keeps_the_small_tilt(self):
        # omega and n_z round to 1.0, so sqrt(1 - n_z^2) lost the 1e-8 tilt: pi/2, below the search's value
        rates = (0.5, 1e-8, 0.5)
        omega = math.hypot(1e-8, 1.0)
        max_el = closed_form_extrema(X_BASE, rates)[1]
        assert abs(max_el - math.acos(-1e-8 / omega)) <= 1e-15
        assert max_el >= find_extrema(X_BASE, rates, 64, 0)[1].value

    @pytest.mark.parametrize(
        "bounds", [((0.0, 3.0),) * 4, ((0.0, 2 * math.pi),) * 3 + ((0.5, 2 * math.pi),), ((0.0, 1.0),) * 5]
    )
    def test_restricted_box_rejected(self, bounds):
        with pytest.raises(ValueError, match="full search box"):
            closed_form_extrema(X_BASE, UNIT_RATES, bounds)

    @pytest.mark.parametrize("rates", [(0.3, 0.4, 0.2), (0.0, 0.0, 0.0), (0.5, 0.0, -0.5)])
    def test_slow_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="omega >= 1"):
            closed_form_extrema(X_BASE, rates)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            closed_form_extrema((1.0, 1.0, 0.0), UNIT_RATES)

    def test_full_box_is_accepted_explicitly(self):
        assert closed_form_extrema(X_BASE, UNIT_RATES, SEARCH_BOX) == closed_form_extrema(X_BASE, UNIT_RATES)


@pytest.mark.parametrize("bounds", [((0.0, 1.0),) * 3 + ((7.0, 8.0),), ((7.0, 8.0),) * 4])
def test_a_box_past_two_pi_is_searched_as_given(bounds):
    for r in find_extrema(X_BASE, UNIT_RATES, num_starts=4, seed=0, bounds=bounds):
        assert all(lo <= x <= hi for x, (lo, hi) in zip(r.at, bounds)), (r.kind, r.at)


@st.composite
def bases_and_rates(draw):
    base = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    assume(math.hypot(*base) > 1e-3)
    rates = draw(st.tuples(*[st.floats(-3.0, 3.0)] * 3))
    assume(math.hypot(rates[1], rates[0] + rates[2]) >= 1.0)
    return tuple(c / math.hypot(*base) for c in base), rates


@settings(max_examples=12, deadline=None, derandomize=True)
@given(bases_and_rates())
def test_search_meets_the_closed_forms_on_any_base(inputs):
    base, rates = inputs
    found = find_extrema(base, rates, num_starts=64, seed=0)
    for r, want in zip(found, closed_form_extrema(base, rates)):
        assert abs(r.value - want) <= 1e-9, (r.kind, r.value, want)


class TestSearchValues:
    def test_value_is_delta_closed_form_at_the_reported_point(self):
        for r in find_extrema((0.48, 0.6, 0.64), (0.7, -1.3, 2.1), num_starts=8, seed=5):
            col = 0 if r.kind.endswith("az") else 1
            assert r.value == delta_closed_form(r.at[:3], r.at[3], (0.7, -1.3, 2.1), (0.48, 0.6, 0.64))[col]

    def test_results_only_improve_as_starts_are_added(self):
        previous = None
        for starts in (1, 2, 5, 9, 16):
            found = find_extrema(X_BASE, (0.7, -1.3, 2.1), num_starts=starts, seed=3)
            if previous is not None:
                for a, b in zip(previous, found):
                    assert (b.value >= a.value) if b.kind.startswith("max") else (b.value <= a.value)
            previous = found


class TestStartsAtBest:
    def test_bounds(self):
        for r in find_extrema(X_BASE, (0.7, -1.3, 2.1), num_starts=16, seed=1):
            assert 1 <= r.starts_at_best <= 16

    def test_every_start_on_one_point(self):
        point = (0.1, 0.2, 0.3, 0.4)
        for r in find_extrema(X_BASE, UNIT_RATES, num_starts=4, seed=0, bounds=tuple((c, c) for c in point)):
            assert r.starts_at_best == 4

    def test_counted_by_hand(self, monkeypatch):
        # at a cap of n + 1 evaluations every start stops on its first simplex: the report is the
        # best vertex of the best start, and the count is the starts whose best vertex reads within
        # the tolerance of it
        monkeypatch.setattr(analysis, "MAX_EVALS", 5)
        starts, seed, rates = 6, 4, (0.7, -1.3, 2.1)
        found = find_extremum("el", "max", X_BASE, rates, num_starts=starts, seed=seed)
        best_vertex = []
        for i in range(starts):
            x0 = np.random.default_rng([seed, i]).random(4) * analysis.BOX_HI
            sim = [x0] + [x0 + np.where(np.arange(4) == k, 0.25 if x0[k] + 0.25 <= analysis.BOX_HI else -0.25, 0.0) for k in range(4)]
            best_vertex.append(max(delta_closed_form(v[:3], v[3], rates)[1] for v in np.clip(sim, 0.0, analysis.BOX_HI)))
        best = max(best_vertex)
        assert found.value == best
        assert found.starts_at_best == sum(abs(v - best) <= STARTS_AT_BEST_TOL for v in best_vertex)
        assert found.nfev == 5 * starts and found.capped_starts == starts

    def test_unit_rates_azimuth_plateau(self):
        r = find_extremum("az", "max", X_BASE, UNIT_RATES, num_starts=20, seed=0)
        assert r.value == pytest.approx(math.pi, abs=1e-12)
        assert r.starts_at_best >= 15


class TestStartDraws:
    # numpy is the oracle only here: the search computes default_rng([seed, i]).random(4) in plain Python
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 7, 2**100 - 3])
    def test_numpy_stream_bit_for_bit(self, seed):
        starts = [0, 1, 999, 2**32]
        want = [np.random.default_rng([seed, i]).random(4).tolist() for i in starts]
        assert analysis._start_draws(seed, starts) == want

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 2**128 - 1), st.integers(0, 2**40 - 1))
    def test_numpy_stream_at_any_seed_and_index(self, seed, i):
        assert analysis._start_draws(seed, [i]) == [np.random.default_rng([seed, i]).random(4).tolist()]


OVERFLOW_RATES = (1e308, 1e308, 1.0)


class TestPhaseOverflow:
    def test_library_calls_raise_one_value_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"rotation rates \(1e\+308, 1e\+308, 1\.0\): omega \* t overflows"):
                delta_closed_form((0.1, 0.2, 0.3), 2.0, OVERFLOW_RATES)
            with pytest.raises(ValueError, match=r"rotation rates \(1e\+308, 1e\+308, 1\.0\): omega \* t overflows"):
                delta_batch((0.1, 0.2, 0.3), [0.0, 2.0], OVERFLOW_RATES)
            with pytest.raises(ValueError, match=r"rotation rates \(1e\+308, 1e\+308, 1\.0\): omega \* t overflows"):
                find_extrema(X_BASE, OVERFLOW_RATES, num_starts=2, seed=0)
            with pytest.raises(ValueError, match="omega \\* t overflows"):
                find_extremum("el", "max", X_BASE, OVERFLOW_RATES, num_starts=2)

    def test_finite_phases_still_evaluate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = period(OVERFLOW_RATES)
            assert 0.0 < t < 1e-307
            assert np.isfinite(delta_batch((0.1, 0.2, 0.3), [0.0, t], OVERFLOW_RATES)).all()
            assert all(map(math.isfinite, delta_closed_form((0.1, 0.2, 0.3), t, OVERFLOW_RATES)))
            r = find_extremum("el", "max", X_BASE, OVERFLOW_RATES, num_starts=2, bounds=((0.0, 1.0),) * 3 + ((0.0, t),))
            assert 0.0 <= r.value <= math.pi

    def test_cli(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["extrema", "--angles", "1e308,1e308,1", "--starts", "2"]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: rotation rates (1e+308, 1e+308, 1.0)"), err
            assert main(["period", "--angles", "1e308,1e308,1"]) == 0
        assert "analytic period" in capsys.readouterr().out
