"""The plain-float QAGS port against its oracle, scipy.integrate.quad: value, error estimate,
evaluation count and error code, bit for bit."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from blochprop import quadpack
from blochprop.analysis import QUAD_EPSREL, QUAD_LIMIT, TimeAverage, period, time_averaged_error
from blochprop.quadpack import IntegrationWarning, dqagse, message
from blochprop.scalar import _delta_az, _delta_el, _family, _point_reader


def discrepancy(err, rates, base, read):
    """One discrepancy of delta_closed_form as a function of t, at a fixed err: average's integrand."""
    at = _point_reader(_family(rates), base, read)
    return lambda t: at((*err, t))


def quad_oracle(f, a, b, epsabs, epsrel, limit):
    """quad's (value, abserr, neval, message or None) with full_output=1."""
    value, abserr, info, *msg = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    return value, abserr, info["neval"], msg[0] if msg else None


def assert_equals_quad(f, a, b, epsabs, epsrel, limit) -> tuple:
    """dqagse equals quad on f over [a, b] in every output; returns dqagse's (result, abserr, neval, ier)."""
    result, abserr, neval, ier = dqagse(f, a, b, epsabs, epsrel, limit)
    value, q_abserr, q_neval, q_msg = quad_oracle(f, a, b, epsabs, epsrel, limit)
    assert (result, abserr, neval) == (value, q_abserr, q_neval)
    assert math.copysign(1.0, result) == math.copysign(1.0, value)
    assert q_msg == (message(ier, limit) if ier else None)
    return result, abserr, neval, ier


def _step(x):
    return 1.0 if x > 0.3 else 0.0


# singular, oscillatory, kinked, discontinuous, zero and reversed integrands, and the azimuth
# discrepancy over t at slow rates, whose period reaches 6e10 and 6e100
HARD = {
    "1/sqrt(x)": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
    "log(x)": (math.log, 0.0, 1.0),
    "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0),
    "1/x": (lambda x: 1.0 / x, 0.0, 1.0),
    "1/|x-0.3|": (lambda x: 1.0 / abs(x - 0.3), 0.0, 1.0),
    "sin(1/x)": (lambda x: math.sin(1.0 / x), 0.0, 1.0),
    "sin(100x)": (lambda x: math.sin(100.0 * x), 0.0, math.pi),
    "sin(1000x)": (lambda x: math.sin(1000.0 * x), 0.0, 10.0),
    "|x-0.3|": (lambda x: abs(x - 0.3), 0.0, 1.0),
    "step": (_step, 0.0, 1.0),
    "zero": (lambda x: 0.0, 0.0, 1.0),
    "reversed": (lambda x: math.exp(x) * math.cos(3.0 * x), 2.0, -1.0),
    "rate 1e-10": (discrepancy((0.0, 0.2, 0.0), (0.0, 0.0, 1e-10), (1.0, 0.0, 0.0), _delta_az), 0.0, period((0.0, 0.0, 1e-10))),
    "rate 1e-100": (discrepancy((0.0, 0.2, 0.0), (0.0, 0.0, 1e-100), (1.0, 0.0, 0.0), _delta_az), 0.0, period((0.0, 0.0, 1e-100))),
}  # fmt: skip

# (epsabs, epsrel, limit): quad's defaults, average's, purely relative, one interval, and
# tolerances below what rounding allows
SETTINGS = [
    (1.49e-8, 1.49e-8, 50),
    (1e-8, QUAD_EPSREL, QUAD_LIMIT),
    (0.0, 1e-10, 200),
    (1e-8, 1e-10, 1),
    (1e-300, 1e-15, 500),
]


def test_hard_integrands_equal_quad(monkeypatch):
    codes = set()
    extrapolations = 0
    dqelg = quadpack.dqelg

    def counted(*args):
        nonlocal extrapolations
        extrapolations += 1
        return dqelg(*args)

    monkeypatch.setattr(quadpack, "dqelg", counted)
    for f, a, b in HARD.values():
        for epsabs, epsrel, limit in SETTINGS:
            codes.add(assert_equals_quad(f, a, b, epsabs, epsrel, limit)[3])
    # every error code, and the extrapolation path, is exercised
    assert codes == {0, 1, 2, 3, 4, 5}
    assert extrapolations > 0


@pytest.mark.parametrize("limit", [1, 2, 3, 7])
def test_small_limits_equal_quad(limit):
    for f, a, b in HARD.values():
        assert_equals_quad(f, a, b, 1e-8, 1e-10, limit)


def test_nan_absolute_tolerance_equals_quad():
    # QUADPACK's max ignores a NaN argument, as quad's C code does
    for f, a, b in HARD.values():
        assert_equals_quad(f, a, b, math.nan, 1e-10, 200)


def _discrepancy_configs(n, seed):
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(n):
        base = rng.normal(size=3)
        configs.append(
            (
                tuple(rng.uniform(0.0, 2.0 * math.pi, 3).tolist()),
                tuple(rng.uniform(-3.0, 3.0, 3).tolist()),
                tuple((base / np.linalg.norm(base)).tolist()),
            )
        )
    return configs


def test_discrepancy_sweep_equals_quad():
    # 400 average integrands: 200 random errors, rates and bases, each channel, average's settings
    nevals = []
    for err, rates, base in _discrepancy_configs(200, seed=15):
        t_period = period(rates)
        for read in (_delta_az, _delta_el):
            f = discrepancy(err, rates, base, read)
            _, _, neval, ier = assert_equals_quad(f, 0.0, t_period, 1e-8, QUAD_EPSREL, QUAD_LIMIT)
            assert ier == 0
            nevals.append(neval)
    assert len(nevals) == 400
    # the sweep subdivides: most integrands take dozens of bisections
    assert sorted(nevals)[200] > 500


@pytest.mark.parametrize(
    "epsabs,epsrel,limit",
    [(0.0, 1e-15, 50), (-1.0, 0.0, 50), (0.0, 5e-29, 50), (1e-8, 1e-10, 0), (1e-8, 1e-10, -3)],
)
def test_invalid_input_raises_value_error_as_quad_does(epsabs, epsrel, limit):
    f = HARD["log(x)"][0]
    with pytest.raises(ValueError) as ours:
        dqagse(f, 0.0, 1.0, epsabs, epsrel, limit)
    with pytest.raises(ValueError) as theirs:
        quad(f, 0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    assert str(ours.value) == str(theirs.value)


def test_negative_absolute_tolerance_is_valid_with_a_relative_one():
    # epsrel 1e-10 lies above 50 * machine epsilon, so tol <= 0 asks for a relative error alone
    assert assert_equals_quad(math.log, 0.0, 1.0, -1.0, 1e-10, 200)[3] == 0
    assert time_averaged_error("el", (0.0, 0.2, 0.0), (1.0, 1.0, 1.0), tol=0.0) > 0.0


def test_a_zero_tolerance_exhausts_the_subdivisions():
    # with tol = 0 only the relative tolerance is left: the azimuth's zero average (rounding noise
    # near 1e-17) uses all 200 intervals and ends on the divergence test, as quad does
    rates = (0.0, 0.0, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        avg = time_averaged_error("az", (0.0, 0.2, 0.0), rates, tol=0.0)
    value, abserr, neval, msg = quad_oracle(
        discrepancy((0.0, 0.2, 0.0), rates, (1.0, 0.0, 0.0), _delta_az), 0.0, 2 * math.pi, 0.0, 1e-10, 200
    )
    assert isinstance(avg, TimeAverage)
    assert (float(avg), avg.abserr, avg.neval) == (value / (2 * math.pi), abserr / (2 * math.pi), neval)
    assert avg.neval == neval == 8379 == 42 * QUAD_LIMIT - 21
    assert abs(avg) < 1e-15
    assert [(w.category, str(w.message)) for w in caught] == [(IntegrationWarning, msg)]
    assert msg == "The integral is probably divergent, or slowly convergent."


def test_integration_warning_is_a_user_warning():
    assert issubclass(IntegrationWarning, UserWarning)
    with pytest.warns(IntegrationWarning, match="probably divergent"):
        time_averaged_error("az", (0.0, 0.2, 0.0), (0.0, 0.0, 1.0), tol=0.0)


def test_ordinary_average_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        time_averaged_error("az", (0.3, 0.2, 0.1), (0.7, -1.3, 2.1), (0.48, 0.6, 0.64))
        time_averaged_error("el", (0.3, 0.2, 0.1), (0.7, -1.3, 2.1), (0.48, 0.6, 0.64))
