"""time_averaged_error's per-rule integrand against the pointwise reference, with no scipy.

The quadrature evaluates one 21-point Kronrod rule per call of _samples.  Each call must give every
abscissa the value _point_reader gives that point with the channel's reader, bit for bit, so that
the average, its error estimate, its evaluation count and its warnings equal those of
quadpack.dqagse over the pointwise function.
"""

import math
import random
import sys
import warnings
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blochprop.quadpack import dqagse, message
from blochprop.scalar import (
    POLE_EPS,
    QUAD_EPSREL,
    QUAD_LIMIT,
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
    """The target's rule, bound as time_averaged_error binds it, and the pointwise reference of t."""
    idx, read = RULES[target]
    family = _family(rates)
    bound = partial(_samples, idx, *_start_pair(err, base), family.omega, family.na, family.nt)
    at = _point_reader(family, base, read)
    return bound, lambda t: at((*err, t))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rate_triples, bases, errs, st.lists(st.floats(-50.0, 50.0), max_size=20))
# the perturbed start of (1, 0, 0) under (0, pi/2, 0) sits on the pole at t = 0
@example(rates=(1.0, 1.0, 1.0), base=(1.0, 0.0, 0.0), err=(0.0, math.pi / 2, 0.0), phases=[0.5, -3.0])
@example(rates=(0.0, 0.0, 1.0), base=(0.0, 0.0, -1.0), err=(0.3, 0.2, 0.1), phases=[1.0])
@example(rates=(1e300, -1e308, 2.1), base=(0.48, 0.6, 0.64), err=(0.3, 0.2, 0.1), phases=[6.0, -0.25])
def test_each_rule_equals_the_pointwise_reference_bit_for_bit(rates, base, err, phases):
    base = tuple(c / math.hypot(*base) for c in base)
    omega = _family(rates).omega
    assume(omega > 0.0)
    ts = (0.0, *(p / omega for p in phases))
    for target in RULES:
        rule, reference = rule_and_reference(target, err, rates, base)
        assert [v.hex() for v in rule(ts)] == [reference(t).hex() for t in ts]


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


# two averages that warn: the azimuth's zero average at a slow rate ("probably divergent"), and a
# rate of 1e308 ("Extremely bad integrand behavior")
WARNING_CASES = [
    ((0.0, 0.2, 0.0), (0.0, 0.0, 1e-10), (1.0, 0.0, 0.0)),
    ((0.3, 0.2, 0.1), (0.7, -1e308, 2.1), (1.0, 0.0, 0.0)),
]


@pytest.mark.parametrize("err, rates, base", _sweep_configs(100, seed=27) + WARNING_CASES)
def test_average_equals_dqagse_over_the_pointwise_reference(err, rates, base):
    t_period = period(rates)
    for target in RULES:
        reference = rule_and_reference(target, err, rates, base)[1]
        val, abserr, neval, ier = dqagse(reference, 0.0, t_period, 1e-8, QUAD_EPSREL, QUAD_LIMIT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            avg = time_averaged_error(target, err, rates, base)
        assert (float(avg).hex(), avg.abserr.hex(), avg.neval) == (
            (val / t_period).hex(),
            (abserr / t_period).hex(),
            neval,
        )
        assert [str(w.message) for w in caught] == ([message(ier, QUAD_LIMIT)] if ier else [])


def test_the_warning_cases_warn():
    codes = []
    for err, rates, base in WARNING_CASES:
        reference = rule_and_reference("az", err, rates, base)[1]
        codes.append(dqagse(reference, 0.0, period(rates), 1e-8, QUAD_EPSREL, QUAD_LIMIT)[3])
    assert codes == [5, 3]


def test_a_period_whose_bisection_overflows_is_named():
    # T = 1.57e308: bisecting near its top end, 0.5 * (a + b) overflows to inf, and cos(inf) raises
    rates = (0.0, 0.0, 4e-308)
    reference = rule_and_reference("az", (0.0, 0.2, 0.0), rates, (1.0, 0.0, 0.0))[1]
    with pytest.raises(ValueError, match="math domain error"):
        dqagse(reference, 0.0, period(rates), 1e-8, QUAD_EPSREL, QUAD_LIMIT)
    # the contract table holds the whole message
    with pytest.raises(ValueError, match="too long to integrate"):
        time_averaged_error("az", (0.0, 0.2, 0.0), rates)


@pytest.mark.parametrize(
    "target, err, base",
    [("el", (0.0, 0.2, 0.0), (1.0, 0.0, 0.0)), ("az", (0.3, 0.2, 0.1), (0.48, 0.6, 0.64))],
)
def test_a_period_above_half_the_float_range_still_integrates_when_no_midpoint_overflows(target, err, base):
    # the same T, where the first rule already meets the tolerance: no bisection, no refusal
    rates = (0.0, 0.0, 4e-308)
    assert period(rates) > sys.float_info.max / 2
    reference = rule_and_reference(target, err, rates, base)[1]
    val, abserr, neval, ier = dqagse(reference, 0.0, period(rates), 1e-8, QUAD_EPSREL, QUAD_LIMIT)
    avg = time_averaged_error(target, err, rates, base)
    assert (float(avg), avg.abserr, avg.neval, ier) == (val / period(rates), abserr / period(rates), 21, 0)
