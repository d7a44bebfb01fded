"""The plain-float quadrature: dqk21 against its oracle, scipy.integrate.quad with one interval, bit for
bit, and integrate's adaptive loop over the pieces between break points."""

import math
import warnings
from functools import partial

import pytest
from scipy.integrate import quad

from blochprop.analysis import QUAD_LIMIT, TimeAverage, time_averaged_error
from blochprop.quadpack import LIMIT_MESSAGE, IntegrationWarning, dqk21, integrate


def _step(x):
    return 1.0 if x > 0.3 else 0.0


# singular, oscillatory, kinked, discontinuous, zero and reversed integrands
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
    "tiny": (lambda x: 1e-300 * math.cos(x), 0.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(HARD))
def test_dqk21_equals_quad_on_one_interval(name):
    # quad with limit=1 stops after its first rule, dqk21, and reports that rule's integral and error
    f, a, b = HARD[name]
    result, abserr, resabs, resasc = dqk21(partial(map, f), a, b)
    value, q_abserr, info, *msg = quad(f, a, b, limit=1, full_output=1)
    assert (result.hex(), abserr.hex()) == (value.hex(), q_abserr.hex())
    assert info["neval"] == 21
    assert resabs >= abs(result) and resasc >= 0.0
    # where the rule alone misses quad's tolerance, quad's message is integrate's at the limit
    assert msg in ([], [LIMIT_MESSAGE.format(limit=1)])


def test_one_piece_at_limit_one_is_dqk21():
    for f, a, b in HARD.values():
        result, abserr, _, _ = dqk21(partial(map, f), a, b)
        got = integrate(partial(map, f), [a, b], 1e-8, 1e-10, 1)
        assert got == (result, abserr, 21, abserr > max(1e-8, 1e-10 * abs(result)))


# integrands that are smooth between the points given, and their exact integrals
SPLIT = {
    "|x-0.3|": (lambda x: abs(x - 0.3), [0.0, 0.3, 1.0], 0.29),
    "step": (_step, [0.0, 0.3, 1.0], 0.7),
    "exp(x)cos(3x)": (
        lambda x: math.exp(x) * math.cos(3.0 * x),
        [-1.0, 2.0],
        (math.exp(2.0) * (math.cos(6.0) + 3.0 * math.sin(6.0)) - math.exp(-1.0) * (math.cos(3.0) - 3.0 * math.sin(3.0)))
        / 10.0,
    ),
    "sqrt|x-0.3|": (
        lambda x: math.sqrt(abs(x - 0.3)),
        [0.0, 0.3, 1.0],
        (2.0 / 3.0) * (0.3**1.5 + 0.7**1.5),
    ),
    "sin(100x)": (lambda x: math.sin(100.0 * x), [0.0, math.pi], 0.0),
}


@pytest.mark.parametrize("name", sorted(SPLIT))
def test_split_integrands_converge_within_their_error_estimate(name):
    f, points, exact = SPLIT[name]
    result, abserr, neval, exhausted = integrate(partial(map, f), points, 1e-10, 1e-12, 200)
    assert not exhausted
    assert abserr <= max(1e-10, 1e-12 * abs(result))
    assert abs(result - exact) <= max(abserr, 1e-15)
    # each piece costs one rule, each bisection two
    assert neval % 21 == 0 and (neval // 21 - (len(points) - 1)) % 2 == 0


def test_a_kink_at_a_break_point_costs_one_rule_a_piece():
    # |x - 0.3| is linear on each side of its kink: the 21-point rule is exact there
    f = lambda x: abs(x - 0.3)  # noqa: E731
    split = integrate(partial(map, f), [0.0, 0.3, 1.0], 1e-10, 1e-12, 200)
    whole = integrate(partial(map, f), [0.0, 1.0], 1e-10, 1e-12, 200)
    assert split[2] == 42 and whole[2] > 10 * split[2]


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 50])
def test_the_limit_caps_the_pieces_and_is_reported(limit):
    # 1/sqrt(x) at a tolerance below rounding never converges: every call ends at the limit
    f = HARD["1/sqrt(x)"][0]
    result, abserr, neval, exhausted = integrate(partial(map, f), [0.0, 1.0], 0.0, 1e-15, limit)
    assert exhausted
    assert neval == 21 * (2 * limit - 1)
    assert abserr > 1e-15 * abs(result)


def test_the_initial_pieces_count_against_the_limit():
    f = HARD["1/sqrt(x)"][0]
    points = [0.0, 0.25, 0.5, 0.75, 1.0]
    assert integrate(partial(map, f), points, 0.0, 1e-15, 3)[2:] == (4 * 21, True)
    assert integrate(partial(map, f), points, 0.0, 1e-15, 6)[2:] == ((4 + 2 * 2) * 21, True)


def test_the_largest_error_is_bisected_first():
    # the singularity at 0 holds the largest error: every bisection lands on the piece at 0, so after
    # k bisections the pieces are [0, 2^-k], then [2^-j, 2^-(j-1)] for j = k ... 1
    seen = []

    def rule(xs):
        seen.append((min(xs), max(xs)))
        return [1.0 / math.sqrt(x) for x in xs]

    integrate(rule, [0.0, 1.0], 0.0, 1e-15, 5)
    lows = [lo for lo, _ in seen]
    assert lows[1::2] == sorted(lows[1::2], reverse=True)
    assert max(hi for _, hi in seen[-2:]) < 2.0**-3


def test_negative_absolute_tolerance_is_valid_with_a_relative_one():
    # epsrel 1e-10 is left: tol <= 0 asks for a relative error alone
    assert integrate(partial(map, math.log), [0.0, 1.0], -1.0, 1e-10, 200)[3] is False
    assert time_averaged_error("el", (0.0, 0.2, 0.0), (1.0, 1.0, 1.0), tol=0.0) > 0.0


def test_a_zero_tolerance_exhausts_the_subdivisions():
    # with tol = 0 only the relative tolerance is left: the azimuth's zero average (rounding noise
    # near 1e-17) uses all 200 pieces; about the z axis every z-curve is constant, so there is no
    # break point and the period is one piece, bisected 199 times
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        avg = time_averaged_error("az", (0.0, 0.2, 0.0), (0.0, 0.0, 1.0), tol=0.0)
    assert isinstance(avg, TimeAverage)
    assert avg.neval == 8379 == 21 * (2 * QUAD_LIMIT - 1)
    assert abs(avg) < 1e-15
    assert [(w.category, str(w.message)) for w in caught] == [(IntegrationWarning, LIMIT_MESSAGE.format(limit=200))]


def test_integration_warning_is_a_user_warning():
    assert issubclass(IntegrationWarning, UserWarning)
    with pytest.warns(IntegrationWarning, match=r"maximum number of subdivisions \(200\)"):
        time_averaged_error("az", (0.0, 0.2, 0.0), (0.0, 0.0, 1.0), tol=0.0)


def test_ordinary_average_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        time_averaged_error("az", (0.3, 0.2, 0.1), (0.7, -1.3, 2.1), (0.48, 0.6, 0.64))
        time_averaged_error("el", (0.3, 0.2, 0.1), (0.7, -1.3, 2.1), (0.48, 0.6, 0.64))
