"""time_averaged_error against independent references: each average lies within its error estimate.

Under QUADPACK's QAGS over the whole period, five averages of the periods benchmark's inputs were off
by more than ten times the error they reported, the worst by 4.0e-7 while reporting 1.6e-10: its
rules stepped over narrow dips.  The period is now split at the integrand's kinks (scalar._break_points)
and each piece integrated by plain adaptive Gauss-Kronrod.
"""

import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from blochprop.propagation import _az_rows, _el_rows, _family, _pair_kernel
from blochprop.scalar import _break_points, _delta_az, _delta_el, _point_reader, _start_pair, time_averaged_error

TWO_PI = 2 * math.pi
CHANNELS = {"az": (0, _delta_az, _az_rows), "el": (1, _delta_el, _el_rows)}

# the five integrals QAGS under-reported, drawn from random.Random("periods:<seed>") in the periods
# workload's order (rates, then base, then err): (seed, op, target), rates, err, base, and the
# reference average, scipy quad over 400 equal pieces and the break points at epsabs 1e-15 and
# epsrel 1e-13.  A numpy midpoint sum over 2e6 phases agreed with each reference to 4.8e-12 or
# better, and over 8e6 phases to 9.1e-14 on the worst of them, (1, 8, "az").  QAGS's errors were
# 4.0e-7, 2.3e-7, 1.4e-8, 6.7e-9 and 6.4e-9.
FOUND = {
    (3, 24, "el"): (
        (2.2140724000938583, 2.861528241342201, -2.06537545825066),
        (3.747293588218837, 0.5526877618486067, 4.822372370230462),
        (-0.5796912111480141, 0.2798066095477448, -0.7652884168541585),
        0.87421361754809,
    ),
    (3, 16, "el"): (
        (0.5944548132621836, 2.3993441205186494, -2.329933112736209),
        (2.2688991126563973, 6.0632569025655725, 5.753202037669909),
        (-0.7775443008326963, 0.3189313575166578, 0.5419480135909489),
        0.7292924411337851,
    ),
    (7, 24, "az"): (
        (2.892641304772507, -0.290951052462904, 0.14945378073598725),
        (4.0583081327979995, 5.3159557191531475, 0.04538781497607265),
        (0.5369085195544322, -0.7021691480792327, 0.46764059823282284),
        3.0355969905119986,
    ),
    (1, 12, "el"): (
        (-1.7110562369448923, -1.3339920005773953, -0.6118037687556934),
        (3.911334993218896, 4.967062875562718, 3.740298823464716),
        (-0.4539695777030345, -0.16071985233137084, -0.8764021631572523),
        0.580462814717556,
    ),
    (1, 8, "az"): (
        (-1.221162280874154, 2.7841658481642853, 2.625101080651323),
        (5.46872133398407, 2.7787000578969843, 3.322309672960898),
        (-0.8587256041106928, -0.24719012399658852, -0.44887345593527456),
        1.7290071833356326,
    ),
}


def midpoint_average(target, err, rates, base, n=2**21, chunk=2**18):
    """The mean of the target's discrepancy at n midpoints of the phase, on the numpy path (_pair_kernel)."""
    kernel = _pair_kernel(_family(rates)._replace(omega=1.0), base)
    read = CHANNELS[target][2]
    sums = []
    for start in range(0, n, chunk):
        s = (np.arange(start, start + chunk) + 0.5) * (TWO_PI / n)
        sums.append(float(np.sum(read(kernel(err, s)))))
    return math.fsum(sums) / n


@pytest.mark.parametrize("key", sorted(FOUND))
def test_the_found_integrals_are_within_1e_11_of_their_reference(key):
    rates, err, base, reference = FOUND[key]
    avg = time_averaged_error(key[2], err, rates, base)
    assert abs(avg - reference) <= 1e-11
    assert abs(avg - reference) <= 10 * avg.abserr


@pytest.mark.parametrize("key", sorted(FOUND))
def test_an_independent_midpoint_sum_confirms_each_reference(key):
    # 2^21 midpoints on the numpy path, with no break point: a midpoint sum's error at a kink falls as
    # the square of the spacing, and at 2^21 phases it read at most 5.6e-12 on these five, on (1, 8, "az")
    rates, err, base, reference = FOUND[key]
    mid = midpoint_average(key[2], err, rates, base)
    assert abs(mid - reference) <= 1e-11
    assert abs(mid - time_averaged_error(key[2], err, rates, base)) <= 1e-11


def quad_reference(target, err, rates, base, equal=16):
    """quad's average over the break points and ``equal`` equal pieces of the phase, at epsabs 1e-15, epsrel 1e-13."""
    idx, read, _ = CHANNELS[target]
    family = _family(rates)
    at = _point_reader(family._replace(omega=1.0), base, read)
    points = _break_points(idx, *_start_pair(err, base), family.na, family.nt)
    points = sorted({*points[:-1], *(TWO_PI * k / equal for k in range(equal))}) + [TWO_PI]
    return (
        math.fsum(
            quad(lambda s: at((*err, s)), a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
            for a, b in zip(points, points[1:])
        )
        / TWO_PI
    )


def _sweep(n, seed):
    # the periods benchmark's distribution: rates in [-3, 3]^3, errors in [0, 2 pi)^3, Gaussian bases
    rng = random.Random(seed)
    configs = []
    for _ in range(n):
        base = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.hypot(*base)
        configs.append(
            (
                tuple(rng.uniform(-3.0, 3.0) for _ in range(3)),
                tuple(rng.uniform(0.0, TWO_PI) for _ in range(3)),
                tuple(c / norm for c in base),
            )
        )
    return configs


@pytest.mark.parametrize("rates, err, base", _sweep(40, seed=31))
def test_random_averages_are_within_their_error_estimate(rates, err, base):
    for target in CHANNELS:
        avg = time_averaged_error(target, err, rates, base)
        assert abs(avg - quad_reference(target, err, rates, base)) <= max(10 * avg.abserr, 1e-12)
