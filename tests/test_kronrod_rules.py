"""time_averaged_error's per-rule integrand against the pointwise reference, with no scipy.

The quadrature evaluates one 21-point Kronrod rule per call of _samples, over the pieces of the phase
[0, 2 pi] between the channel's break points.  Each call must give every abscissa the value
_point_reader gives that point of the unit-speed family with the channel's reader, bit for bit, so
that the average, its error estimate, its evaluation count and its warnings equal those of
quadpack.integrate over the pointwise function and the same pieces, divided by 2 pi.
"""

import math
import random
import sys
import warnings
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blochprop.quadpack import LIMIT_MESSAGE, integrate
from blochprop.scalar import (
    POLE_EPS,
    QUAD_EPSREL,
    QUAD_LIMIT,
    _break_points,
    _delta_az,
    _delta_el,
    _family,
    _point_reader,
    _samples,
    _start_pair,
    period,
    time_averaged_error,
)

# each channel's _samples index and pointwise reader
RULES = {"az": (0, _delta_az), "el": (1, _delta_el)}
TWO_PI = 2 * math.pi

signed_huge = st.floats(1e300, 1e307).flatmap(lambda x: st.sampled_from([x, -x]))
rate_triples = st.one_of(
    st.tuples(*[st.floats(-5.0, 5.0)] * 3),
    # |rate| >= 1e300 with phi + psi finite: the phase omega * t stays finite for t = phase / omega
    st.tuples(signed_huge, signed_huge, st.floats(-5.0, 5.0)),
    st.tuples(st.floats(-5.0, 5.0), signed_huge, signed_huge),
)
bases = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.48, 0.6, 0.64)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda b: math.hypot(*b) > 1e-3),
)
errs = st.one_of(
    st.sampled_from([(0.0, 0.0, 0.0), (0.0, math.pi / 2, 0.0), (0.0, math.pi, 0.0), (0.3, math.pi, 1.1)]),
    st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3),
)


def rule_and_reference(target, err, rates, base):
    """The target's rule of phases, bound as time_averaged_error binds it, and the pointwise reference of the phase.

    The reference reads the unit-speed family, omega = 1 about the axis of ``rates``, at time s.
    """
    idx, read = RULES[target]
    family = _family(rates)
    bound = partial(_samples, idx, *_start_pair(err, base), family.na, family.nt)
    at = _point_reader(family._replace(omega=1.0), base, read)
    return bound, lambda s: at((*err, s))


def reference_integral(target, err, rates, base):
    """integrate's (result, abserr, neval, exhausted) over the pointwise reference and the target's break points."""
    idx = RULES[target][0]
    family = _family(rates)
    points = _break_points(idx, *_start_pair(err, base), family.na, family.nt)
    reference = rule_and_reference(target, err, rates, base)[1]
    return integrate(partial(map, reference), points, 1e-8, QUAD_EPSREL, QUAD_LIMIT)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rate_triples, bases, errs, st.lists(st.floats(-50.0, 50.0), max_size=20))
# the perturbed start of (1, 0, 0) under (0, pi/2, 0) sits on the pole at t = 0
@example(rates=(1.0, 1.0, 1.0), base=(1.0, 0.0, 0.0), err=(0.0, math.pi / 2, 0.0), phases=[0.5, -3.0])
@example(rates=(0.0, 0.0, 1.0), base=(0.0, 0.0, -1.0), err=(0.3, 0.2, 0.1), phases=[1.0])
@example(rates=(1e300, -1e308, 2.1), base=(0.48, 0.6, 0.64), err=(0.3, 0.2, 0.1), phases=[6.0, -0.25])
def test_each_rule_equals_the_pointwise_reference_bit_for_bit(rates, base, err, phases):
    base = tuple(c / math.hypot(*base) for c in base)
    assume(_family(rates).omega > 0.0)
    phases = (0.0, *phases)
    for target in RULES:
        rule, reference = rule_and_reference(target, err, rates, base)
        assert [v.hex() for v in rule(phases)] == [reference(s).hex() for s in phases]


def test_the_pole_example_starts_on_the_pole():
    # the example above reaches the azimuth's pole branch: both coordinates within POLE_EPS
    _, _, _, vx, vy, _ = _start_pair((0.0, math.pi / 2, 0.0), (1.0, 0.0, 0.0))
    assert abs(vx) < POLE_EPS and abs(vy) < POLE_EPS


def _sweep_configs(n, seed):
    rng = random.Random(seed)
    configs = []
    for _ in range(n):
        base = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.hypot(*base)
        configs.append(
            (
                tuple(rng.uniform(0.0, 2 * math.pi) for _ in range(3)),
                tuple(rng.uniform(-3.0, 3.0) for _ in range(3)),
                tuple(c / norm for c in base),
            )
        )
    return configs


# rates at both ends of the float range, whose averages over t in [0, T] warned under QUADPACK's QAGS:
# the azimuth's zero average at 1e-10, where tol / T was below rounding, and a rate of 1e308; over
# the phase neither warns
EDGE_RATE_CASES = [
    ((0.0, 0.2, 0.0), (0.0, 0.0, 1e-10), (1.0, 0.0, 0.0)),
    ((0.3, 0.2, 0.1), (0.7, -1e308, 2.1), (1.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("err, rates, base", _sweep_configs(100, seed=27) + EDGE_RATE_CASES)
def test_average_equals_integrate_over_the_pointwise_reference(err, rates, base):
    for target in RULES:
        val, abserr, neval, exhausted = reference_integral(target, err, rates, base)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            avg = time_averaged_error(target, err, rates, base)
        assert (float(avg).hex(), avg.abserr.hex(), avg.neval) == (
            (val / TWO_PI).hex(),
            (abserr / TWO_PI).hex(),
            neval,
        )
        assert [str(w.message) for w in caught] == ([LIMIT_MESSAGE.format(limit=QUAD_LIMIT)] if exhausted else [])


def test_the_edge_rate_cases_do_not_warn():
    exhausted = [
        reference_integral(target, err, rates, base)[3] for err, rates, base in EDGE_RATE_CASES for target in RULES
    ]
    assert exhausted == [False, False, False, False]


@pytest.mark.parametrize("target", RULES)
@pytest.mark.parametrize(
    "err, base", [((0.0, 0.2, 0.0), (1.0, 0.0, 0.0)), ((0.3, 0.2, 0.1), (0.48, 0.6, 0.64))]
)
def test_a_period_above_half_the_float_range_averages_as_its_axis_at_unit_speed(target, err, base):
    # T = 1.57e308: over t, a bisection midpoint near its top end overflowed; the phase never leaves [0, 2 pi]
    rates = (0.0, 0.0, 4e-308)
    assert period(rates) > sys.float_info.max / 2
    avg, unit = (time_averaged_error(target, err, r, base) for r in (rates, (0.0, 0.0, 1.0)))
    assert (float(avg).hex(), avg.abserr.hex(), avg.neval) == (float(unit).hex(), unit.abserr.hex(), unit.neval)


# the average reads the phase of the unit-speed family about the rates' axis, so only the axis matters
POWERS = [1, -1, 20, -20, 500, -500, 1000, -1000]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rate_triples, bases, errs, st.sampled_from(sorted(RULES)))
@example(rates=(0.7, -1.3, 2.1), base=(0.48, 0.6, 0.64), err=(0.3, 0.2, 0.1), target="el")
@example(rates=(0.0, 0.0, 1.0), base=(1.0, 0.0, 0.0), err=(0.0, 0.2, 0.0), target="az")
def test_rates_times_a_power_of_two_average_alike(rates, base, err, target):
    base = tuple(c / math.hypot(*base) for c in base)
    # a period that 2 pi / omega does not overflow
    assume(_family(rates).omega > 1e-300)
    avg = time_averaged_error(target, err, rates, base)
    want = (float(avg).hex(), avg.abserr.hex(), avg.neval)
    scaled = 0
    for k in POWERS:
        r = tuple(c * 2.0**k for c in rates)
        # only where every rate scales exactly and the period stays finite
        if any(d / 2.0**k != c for c, d in zip(rates, r)):
            continue
        try:
            period(r)
        except ValueError:
            continue
        got = time_averaged_error(target, err, r, base)
        assert (float(got).hex(), got.abserr.hex(), got.neval) == want, k
        scaled += 1
    # k = 1 always scales the strategies' rates exactly
    assert scaled


@pytest.mark.parametrize("s", [10.0**e for e in range(-6, 10)])
def test_equal_rates_average_alike_at_every_speed(s):
    # over t in [0, T] the average's tolerance was tol * omega / (2 pi): at s = 1e9 the elevation read 0.13562605
    err, base = (0.3, 0.2, 0.1), (0.48, 0.6, 0.64)
    at_one = time_averaged_error("el", err, (1.0, 1.0, 1.0), base)
    assert abs(time_averaged_error("el", err, (s, s, s), base) - at_one) <= 1e-12
