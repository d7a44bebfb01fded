"""Adaptive 21-point Gauss-Kronrod quadrature on plain Python floats, over pieces that the caller splits.

dqk21 is QUADPACK's 21-point Gauss-Kronrod rule (R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK*, Springer, 1983), with every floating-point
operation in QUADPACK's order: on one interval it returns what scipy.integrate.quad returns with
limit=1, bit for bit.  integrate applies it to every piece between the caller's break points and
then bisects the piece with the largest error estimate until the estimates sum to within the
tolerance.  It has no extrapolation: the caller puts a break point at every kink of the integrand,
so each piece is smooth and plain bisection converges.

The quadrature runs on a rule: a function that takes the tuple of a 21-point rule's abscissae and
returns an iterable of the 21 integrand values, in that order, as floats, so that a caller can
evaluate the 21 points of each rule in one call; partial(map, f) is the rule of a function f of
one point.
"""

from __future__ import annotations

from heapq import heapify, heappush, heapreplace
from math import fsum
from sys import float_info

EPMACH = float_info.epsilon
UFLOW = float_info.min

# dqk21's abscissae XGKj and weights WGKj of the 21-point Kronrod rule, j = 1 ... 11 from the
# interval's end to its centre; the even abscissae and the weights WGj carry the 10-point Gauss rule
XGK1 = 0.995657163025808080735527280689003
XGK2 = 0.973906528517171720077964012084452
XGK3 = 0.930157491355708226001207180059508
XGK4 = 0.865063366688984510732096688423493
XGK5 = 0.780817726586416897063717578345042
XGK6 = 0.679409568299024406234327365114874
XGK7 = 0.562757134668604683339000099272694
XGK8 = 0.433395394129247190799265943165784
XGK9 = 0.294392862701460198131126603103866
XGK10 = 0.148874338981631210884826001129720

WGK1 = 0.011694638867371874278064396062192
WGK2 = 0.032558162307964727478818972459390
WGK3 = 0.054755896574351996031381300244580
WGK4 = 0.075039674810919952767043140916190
WGK5 = 0.093125454583697605535065465083366
WGK6 = 0.109387158802297641899210590325805
WGK7 = 0.123491976262065851077208980804598
WGK8 = 0.134709217311473325928054001771707
WGK9 = 0.142775938577060080797094273138717
WGK10 = 0.147739104901338491374841515972068
WGK11 = 0.149445554002916905664936468389821

WG1 = 0.066671344308688137593568809893332
WG2 = 0.149451349150580593145776339657697
WG3 = 0.219086362515982043995534934228163
WG4 = 0.269266719309996355091226921569469
WG5 = 0.295524224714752870173892994651338

# quad's message for its error code 1, the one way integrate can stop short of its tolerance
LIMIT_MESSAGE = (
    "The maximum number of subdivisions ({limit}) has been achieved.\n  "
    "If increasing the limit yields no improvement it is advised to "
    "analyze \n  the integrand in order to determine the difficulties.  "
    "If the position of a \n  local difficulty can be determined "
    "(singularity, discontinuity) one will \n  probably gain from "
    "splitting up the interval and calling the integrator \n  on the "
    "subranges.  Perhaps a special-purpose integrator should be used."
)


class IntegrationWarning(UserWarning):
    """The quadrature reached its subdivision limit; the message is quad's for that case (LIMIT_MESSAGE)."""


def _max(x: float, y: float) -> float:
    """QUADPACK's dmax1 as quad's C code computes it: the larger argument, ignoring a NaN."""
    return y if y > x or x != x else x


def dqk21(rule, a: float, b: float) -> tuple[float, float, float, float]:
    """(result, abserr, resabs, resasc) of the 21-point Gauss-Kronrod rule on [a, b].

    resabs approximates the integral of |f| and resasc that of |f - mean|.  ``rule`` takes the 21
    abscissae in dqk21's order, the centre, then the pairs centre -+ hlgth * XGKj for even j and
    then for odd j, and returns f at each.  The loops are written out, as the rule is the
    quadrature's inner loop.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    x1, x2, x3, x4, x5 = hlgth * XGK1, hlgth * XGK2, hlgth * XGK3, hlgth * XGK4, hlgth * XGK5
    x6, x7, x8, x9, x10 = hlgth * XGK6, hlgth * XGK7, hlgth * XGK8, hlgth * XGK9, hlgth * XGK10
    (
        fc, m2, p2, m4, p4, m6, p6, m8, p8, m10, p10, m1, p1, m3, p3, m5, p5, m7, p7, m9, p9,
    ) = rule((
        centr,
        centr - x2, centr + x2, centr - x4, centr + x4, centr - x6, centr + x6,
        centr - x8, centr + x8, centr - x10, centr + x10,
        centr - x1, centr + x1, centr - x3, centr + x3, centr - x5, centr + x5,
        centr - x7, centr + x7, centr - x9, centr + x9,
    ))  # fmt: skip
    s2, s4, s6, s8, s10 = m2 + p2, m4 + p4, m6 + p6, m8 + p8, m10 + p10
    s1, s3, s5, s7, s9 = m1 + p1, m3 + p3, m5 + p5, m7 + p7, m9 + p9
    resg = 0.0 + WG1 * s2 + WG2 * s4 + WG3 * s6 + WG4 * s8 + WG5 * s10
    resk = WGK11 * fc
    resabs = abs(resk)
    resk = (
        resk + WGK2 * s2 + WGK4 * s4 + WGK6 * s6 + WGK8 * s8 + WGK10 * s10
        + WGK1 * s1 + WGK3 * s3 + WGK5 * s5 + WGK7 * s7 + WGK9 * s9
    )
    resabs = (
        resabs
        + WGK2 * (abs(m2) + abs(p2)) + WGK4 * (abs(m4) + abs(p4)) + WGK6 * (abs(m6) + abs(p6))
        + WGK8 * (abs(m8) + abs(p8)) + WGK10 * (abs(m10) + abs(p10))
        + WGK1 * (abs(m1) + abs(p1)) + WGK3 * (abs(m3) + abs(p3)) + WGK5 * (abs(m5) + abs(p5))
        + WGK7 * (abs(m7) + abs(p7)) + WGK9 * (abs(m9) + abs(p9))
    )
    reskh = resk * 0.5
    resasc = (
        WGK11 * abs(fc - reskh)
        + WGK1 * (abs(m1 - reskh) + abs(p1 - reskh)) + WGK2 * (abs(m2 - reskh) + abs(p2 - reskh))
        + WGK3 * (abs(m3 - reskh) + abs(p3 - reskh)) + WGK4 * (abs(m4 - reskh) + abs(p4 - reskh))
        + WGK5 * (abs(m5 - reskh) + abs(p5 - reskh)) + WGK6 * (abs(m6 - reskh) + abs(p6 - reskh))
        + WGK7 * (abs(m7 - reskh) + abs(p7 - reskh)) + WGK8 * (abs(m8 - reskh) + abs(p8 - reskh))
        + WGK9 * (abs(m9 - reskh) + abs(p9 - reskh)) + WGK10 * (abs(m10 - reskh) + abs(p10 - reskh))
    )
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc * min(1, x ** 1.5); x ** 1.5 < 1 exactly when x < 1, and a large x would overflow
        x = 200.0 * abserr / resasc
        abserr = resasc * x**1.5 if x < 1.0 else resasc
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = _max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def integrate(rule, points, epsabs: float, epsrel: float, limit: int) -> tuple[float, float, int, bool]:
    """Integral of the rule's function over [points[0], points[-1]]: (result, abserr, neval, exhausted).

    ``points`` are the ends of the pieces, in ascending order.  dqk21 integrates each piece; then
    the piece with the largest error estimate is bisected until the estimates sum to at most
    max(epsabs, epsrel * |result|), or until there are ``limit`` pieces, when ``exhausted`` is
    True.  result and abserr are the sums over the pieces, and neval counts the function values.
    """
    # the pieces as a heap by descending error estimate: (-abserr, a, b, result)
    heap = []
    for a, b in zip(points, points[1:]):
        result, abserr, _, _ = dqk21(rule, a, b)
        heap.append((-abserr, a, b, result))
    heapify(heap)
    neval = 21 * len(heap)
    area = fsum(piece[3] for piece in heap)
    errsum = -fsum(piece[0] for piece in heap)
    exhausted = False
    while errsum > _max(epsabs, epsrel * abs(area)):
        if len(heap) >= limit:
            exhausted = True
            break
        nerr, a, b, result = heap[0]
        mid = 0.5 * (a + b)
        area1, error1, _, _ = dqk21(rule, a, mid)
        area2, error2, _, _ = dqk21(rule, mid, b)
        heapreplace(heap, (-error1, a, mid, area1))
        heappush(heap, (-error2, mid, b, area2))
        neval += 42
        area += area1 + area2 - result
        errsum += error1 + error2 + nerr
    return fsum(piece[3] for piece in heap), -fsum(piece[0] for piece in heap), neval, exhausted
