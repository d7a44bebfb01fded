"""QUADPACK's QAGS on plain Python floats: adaptive Gauss-Kronrod quadrature with extrapolation.

A port of dqagse and its helpers dqk21 (the 21-point Gauss-Kronrod rule), dqpsrt (the ordered
list of error estimates) and dqelg (Wynn's epsilon algorithm) from R. Piessens, E. de Doncker-
Kapenga, C. W. Ueberhuber and D. K. Kahaner, *QUADPACK* (Springer, 1983); P. Wynn, *MTAC* 10
(1956).  Every floating-point operation runs in QUADPACK's order, so dqagse returns what
scipy.integrate.quad returns with full_output=1 for a finite interval, bit for bit: the integral,
the error estimate, the evaluation count and the error code.  Index arithmetic keeps QUADPACK's
one-based lists, so the port reads line by line against the Fortran.

The integrand is called one point at a time, in QUADPACK's order, and must return a float.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from sys import float_info

EPMACH = float_info.epsilon
UFLOW = float_info.min
OFLOW = float_info.max

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

# quad's message for each error code dqagse returns
MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
    "If increasing the limit yields no improvement it is advised to "
    "analyze \n  the integrand in order to determine the difficulties.  "
    "If the position of a \n  local difficulty can be determined "
    "(singularity, discontinuity) one will \n  probably gain from "
    "splitting up the interval and calling the integrator \n  on the "
    "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
    "the requested tolerance from being achieved.  "
    "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
    "in the extrapolation table.  It is assumed that the requested "
    "tolerance\n  cannot be achieved, and that the returned result "
    "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


class IntegrationWarning(UserWarning):
    """The quadrature stopped with a nonzero error code; the message is quad's for that code."""


def message(ier: int, limit: int) -> str:
    """quad's message for error code ``ier`` of a run with subdivision limit ``limit``."""
    return MESSAGES[ier].format(limit=limit)


def _max(x: float, y: float) -> float:
    """QUADPACK's dmax1 as quad's C code computes it: the larger argument, ignoring a NaN."""
    return y if y > x or x != x else x


def dqk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """(result, abserr, resabs, resasc) of the 21-point Gauss-Kronrod rule on [a, b].

    resabs approximates the integral of |f| and resasc that of |f - mean|.  The 21 samples are
    taken in dqk21's order: the centre, then the pairs centre -+ hlgth * XGKj for even j and
    then for odd j.  The loops are written out, as the rule is the quadrature's inner loop.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    x1, x2, x3, x4, x5 = hlgth * XGK1, hlgth * XGK2, hlgth * XGK3, hlgth * XGK4, hlgth * XGK5
    x6, x7, x8, x9, x10 = hlgth * XGK6, hlgth * XGK7, hlgth * XGK8, hlgth * XGK9, hlgth * XGK10
    (
        fc, m2, p2, m4, p4, m6, p6, m8, p8, m10, p10, m1, p1, m3, p3, m5, p5, m7, p7, m9, p9,
    ) = map(f, (
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


def dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int) -> tuple[int, float, int]:
    """Keep iord[1:] ordered by descending elist after a bisection; (maxerr, errmax, nrmax).

    ``maxerr`` is the interval just bisected and ``last`` the interval appended; only the
    jupbn largest estimates stay ordered, as the remaining subdivisions can reach no more.
    """
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # a difficult integrand can raise the error estimate by subdivision: move it up first
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax top-down, then errmin bottom-up
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def dqelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """One step of Wynn's epsilon algorithm on epstab[1:n + 1]; (n, result, abserr, nres).

    epstab holds the table's last diagonal with the newest partial sum at n; the step appends
    a diagonal, keeps at most 50 elements and returns the best extrapolated limit.  res3la holds
    the last three results (one-based), from which abserr is estimated once nres reaches 4.
    """
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = _max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = _max(e1abs, abs(e0)) * EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: convergence is assumed
                result = res
                abserr = err2 + err3
                return n, result, _max(abserr, 5.0 * EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = _max(e1abs, abs(e3)) * EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                # two elements are very close: omit part of the table
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                # irregular behaviour in the table: omit part of it
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # shift the table
        if n == 50:
            n = 49
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
        if nres < 4:
            res3la[nres] = result
            abserr = OFLOW
        else:
            abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
            res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, _max(abserr, 5.0 * EPMACH * abs(result)), nres


def dqagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int) -> tuple[float, float, int, int]:
    """Integral of f over [a, b]: (result, abserr, neval, ier), as scipy.integrate.quad computes it.

    Bisects the interval with the largest error estimate until the estimate summed over all
    intervals is below max(epsabs, epsrel * |result|), at most ``limit`` intervals, and
    accelerates convergence with the epsilon algorithm once the largest error sits on the
    smallest intervals.  ier is quad's error code: 0 converged; 1 limit reached; 2 roundoff
    detected; 3 bad integrand behaviour at some point; 4 no convergence of the extrapolation;
    5 probably divergent.  As in quad, b < a integrates over [b, a] and negates the result.

    Invalid input, QUADPACK's ier 6, raises ValueError with quad's message: ``limit`` below 1,
    or ``epsabs <= 0`` with ``epsrel`` below max(50 * machine epsilon, 5e-29).
    """
    if b < a:
        result, abserr, neval, ier = dqagse(f, b, a, epsabs, epsrel, limit)
        return -result, abserr, neval, ier
    if epsabs <= 0.0 and epsrel < _max(50.0 * EPMACH, 5e-29):
        raise ValueError("If 'epsabs'<=0, 'epsrel' must be greater than both 5e-29 and 50*(machine epsilon).")
    if limit < 1:
        raise ValueError("Invalid 'limit' argument. There must be at least one subinterval")

    # first approximation to the integral; in dqagse's names defabs is dqk21's resabs, resabs its resasc
    ier = ierro = 0
    result, abserr, defabs, resabs = dqk21(f, a, b)
    dres = abs(result)
    errbnd = _max(epsabs, epsrel * dres)
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 21, ier

    # one-based lists of the intervals' ends, integrals and errors, and iord of their order
    alist = [0.0, a] + [0.0] * (limit - 1)
    blist = [0.0, b] + [0.0] * (limit - 1)
    rlist = [0.0, result] + [0.0] * (limit - 1)
    elist = [0.0, abserr] + [0.0] * (limit - 1)
    iord = [0, 1] + [0] * (limit - 1)
    rlist2 = [0.0, result] + [0.0] * 51
    res3la = [0.0] * 4
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1
    sum_all = False

    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = dqk21(f, a1, b1)
        area2, error2, _, defab2 = dqk21(f, a2, b2)

        # improve the previous approximations to the integral and the error and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = _max(epsabs, epsrel * abs(area))

        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        # bad integrand behaviour at a point of the range
        if _max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # append the new intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = dqpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            sum_all = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the interval to bisect next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before bisecting, decrease the error
            # over the larger intervals (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = _max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small *= 0.5
        erlarg = errsum

    if not sum_all:
        # choose between the extrapolated result and the sum over the intervals
        if abserr == OFLOW:
            sum_all = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_all = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_all = True
            elif area == 0.0:
                return result, abserr, 42 * last - 21, ier - 1 if ier > 2 else ier
        if not sum_all and not (ksgn == -1 and _max(abs(result), abs(area)) <= defabs * 0.01):
            # test on divergence; result / area is +-inf or nan when area is 0
            if area != 0.0:
                ratio = result / area
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
            elif result != 0.0 or errsum > 0.0:
                ier = 6
    if sum_all:
        result = reduce(add, rlist[1 : last + 1], 0.0)
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, 42 * last - 21, ier
