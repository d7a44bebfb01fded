"""The plain-float half of the package: input rules, the rotation family, the closed form at a point, its average.

Nothing here imports numpy, so the package import, ``blochprop --help`` and ``blochprop average``
run without it; the numpy modules import what they need from here.

Two evaluation paths.  The closed-form discrepancies have two implementations of one formula: the
plain-float path here, for one point at a time, and propagation's numpy path (_pair_kernel), for
many.  Both take the error rotation S(err) from one copy of the z-y-z entries, _euler_products
(_euler_floats on one triple, rotations._euler_entries on a stack), and form the perturbed start
base @ S(err) in rotations._row_times's order.  Both evaluate the rotation family at t with the
same operations in the same order, squaring by a product, because float ** calls libm pow, which
can round otherwise, and both form the clean and perturbed vectors at t in _row_times's order.  So
the two paths give the same six floats wherever math's cos and sin round as numpy's do, as on
every host tried, with or without numpy's AVX-512 loops.

Every public entry parses its rate triple once, with _family, the one place that divides by omega
for the unit axis, and both paths and their fronts take that parsed family.

The float path is _pair_floats: the family at t, both vectors, and a reader of the six floats.  It
has two fronts.  _point_reader forms the error rotation per point p = [eps_x, eps_y, eps_z, t]:
read with _delta_scalar it is delta_closed_form, with a pseudo-angle the search's plain-float
objective; at omega = 0 it reads the start pair as it is, since the identity family would turn a
-0.0 into +0.0.  _samples takes one trajectory's start pair (_start_pair) and returns one
discrepancy at each of many phases omega * t: _pair_floats and _delta_az or _delta_el written out in
one loop, bit for bit, at about 0.75 (azimuth) and 0.9 us (elevation) a sample, against about 2.2 us
a point through _point_reader.  time_averaged_error calls it once per 21-point Kronrod rule over the
pieces of the phase between _break_points, and analysis.case_series once per column.  _delta_az and
_delta_el use math.hypot and math.atan2, as propagation.delta_pair does, and _delta_scalar returns
both.  A numpy call on one point costs about ten times a float one.

The multistart extremum search reads no angle at all.  Nelder-Mead uses its objective only through
comparisons and one difference test, so the search minimizes the pseudo-angle p = 1 - c / (|s| +
|c|) of each discrepancy, with c and s the cosine and sine of the gap times two norms (_pseudo_az,
_pseudo_el): p rises strictly from 0 to 2 as the gap goes from 0 to pi, by 1/2 to 1 per radian.
It takes only + - * / sqrt and abs, which numpy and Python round alike on every host and with
every numpy loop.  The lockstep batch reads _pair_kernel's vectors with propagation._pseudo_rows;
its small objective calls, and the finish of its last live starts, run on _point_reader (about
2.2 us a point, where a numpy call of up to a few dozen points costs about 60 us), read with
_pseudo_az or _pseudo_el, so the two agree bit for bit.  The search then reports delta_closed_form at the point
it found.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from functools import cache, partial
from math import acos, atan2, cos, hypot, inf, isfinite, pi, sin, sqrt
from operator import index

# Radius below which a vector's xy-projection counts as "on the pole".
POLE_EPS = 1e-12

# Validation tolerance for preconditions (unit norm, Hermiticity).
VALIDATION_TOL = 1e-9

_TWO_PI = 2.0 * pi

# time_averaged_error's relative tolerance and subdivision limit
QUAD_EPSREL = 1e-10
QUAD_LIMIT = 200

# the probe error of the period estimate and the case series, and the CLI's default --err
PROBE_ERR = (0.0, 0.2, 0.0)

_TARGETS = {"az": 0, "el": 1}

# what float() raises on a value that is not one number: a string, a sequence, an int beyond the float range
_NOT_A_FLOAT = (TypeError, ValueError, OverflowError)


@cache
def _complex(t: type) -> bool:
    """Whether t is complex and not real, as numpy's complex scalar types are: float() would read their real part."""
    # numbers loads here, off the start-up path, where it would take about a millisecond
    from numbers import Complex, Real
    return issubclass(t, Complex) and not issubclass(t, Real)


def _real(v) -> float:
    """float(v), and a TypeError for a complex v."""
    if not isinstance(v, (float, int)) and _complex(type(v)):
        raise TypeError(f"{v!r} is complex")
    return float(v)


def _floats(x) -> tuple[float, ...] | None:
    """x as a tuple of floats, or None when it is not a sequence of real numbers: a str or bytes never is one."""
    try:
        return None if isinstance(x, (str, bytes)) else tuple(map(_real, x))
    except _NOT_A_FLOAT:
        return None


def _require_unit(v, name: str, tol: float = VALIDATION_TOL) -> tuple[float, float, float]:
    """v as three floats whose norm is within ``tol`` of 1: the one check of an input unit vector; else ValueError."""
    x = _floats(v)
    if x is not None and len(x) == 3 and abs(hypot(*x) - 1.0) <= tol:
        return x
    raise ValueError(f"{name} must be a unit 3-vector: three numbers with unit norm within {tol!r}, got {v!r}")


def _finite_vector(v, name: str) -> tuple[float, float, float]:
    """v as three finite floats of any norm, zero included; else a ValueError that names v."""
    x = _floats(v)
    if x is not None and len(x) == 3 and all(map(isfinite, x)):
        return x
    raise ValueError(f"{name} must be three finite numbers, got {v!r}")


def _triple(x, name: str) -> tuple[float, float, float]:
    """x as three floats; a ValueError that names x when it is a scalar or has another length."""
    floats = _floats(x)
    if floats is not None and len(floats) == 3:
        return floats
    got = repr(x) if floats is None else f"{len(floats)} values {floats!r}"
    raise ValueError(f"{name} must be a triple (phi, theta, psi), got {got}")


def _finite_float(x, name: str) -> float:
    """x as one finite float; a ValueError that names x when it is not one real number or not finite."""
    try:
        x = _real(x)
    except _NOT_A_FLOAT:
        raise ValueError(f"{name} must be one finite number, got {x!r}") from None
    if not isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _finite_triple(x, name: str, finite_name: str) -> tuple[float, float, float]:
    """_triple(x, name), and a ValueError that names ``finite_name`` unless all three are finite."""
    x = _triple(x, name)
    if not all(map(isfinite, x)):
        raise ValueError(f"{finite_name} must be finite, got {x!r}")
    return x


def _count(x, name: str, least: int) -> int:
    """x as a plain int, numpy integers included; a ValueError that names x unless it is an integer >= ``least``."""
    try:
        n = index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}")
    return n


class DegenerateRotationError(ValueError):
    """Raised when the rotation rates leave no finite period: omega = 0, or 2 pi / omega overflows."""


class PeriodEstimationError(RuntimeError):
    """Kept as a public name only: nothing raises it, as estimate_period_numeric answers T when T/2 does not match."""


class UnknownTargetError(ValueError, KeyError):
    """A target other than "az" or "el"; also a KeyError, as the lookup raised before."""

    __str__ = ValueError.__str__


def _target_index(target: str) -> int:
    """Column of ``target`` in a (delta_az, delta_el) pair."""
    try:
        return _TARGETS[target]
    except (KeyError, TypeError):
        raise UnknownTargetError(f"target must be 'az' or 'el', got {target!r}") from None


def _euler_floats(phi: float, theta: float, psi: float) -> tuple:
    """The z-y-z entries r[i][j] of one triple of floats, as nested tuples of floats, with no numpy call."""
    return _euler_products(cos(phi), cos(theta), cos(psi), sin(phi), sin(theta), sin(psi))


def _euler_products(cf, ct, cp, sf, st, sp) -> tuple:
    """The z-y-z entries from the cosines and sines of (phi, theta, psi)."""
    cpct = cp * ct
    nspct = -sp * ct
    return (
        (cpct * cf - sp * sf, cpct * sf + sp * cf, -cp * st),
        (nspct * cf - cp * sf, nspct * sf + cp * cf, sp * st),
        (st * cf, st * sf, ct),
    )


# a rotation-rate triple parsed once, the family exp(t G) it fixes: the float triple (for messages),
# theta, a = phi + psi, the speed omega = hypot(theta, a) and the unit axis (na, nt) = (a, theta) / omega,
# (0, 0) when omega = 0
_Family = namedtuple("_Family", "rates theta a omega na nt")


def _family(angles) -> _Family:
    """The family of a rotation-rate triple; rejects a malformed, NaN, infinite or overflowing triple."""
    phi, theta, psi = rates = _triple(angles, "rotation rates")
    a = phi + psi
    omega = hypot(theta, a)
    # hypot is NaN or infinite whenever an input is, or when phi + psi overflows
    if not isfinite(omega):
        raise ValueError(f"rotation rates and phi + psi must be finite, got {rates!r}")
    na, nt = (a / omega, theta / omega) if omega else (0.0, 0.0)
    return _Family(rates, theta, a, omega, na, nt)


def period(angles) -> float:
    """Recurrence time of the discrepancy curves: 2 pi / omega."""
    return _period(_family(angles))


def _period(family: _Family) -> float:
    """period of a parsed family; DegenerateRotationError when it has no finite period."""
    if family.omega == 0.0:
        raise DegenerateRotationError(
            f"rotation rates {family.rates!r}: theta = 0 and phi + psi = 0, the rotation family is constant, "
            "no finite period"
        )
    cycle = _TWO_PI / family.omega
    # a subnormal omega, or one just above the normal floor, overflows 2 pi / omega
    if cycle == inf:
        raise DegenerateRotationError(
            f"rotation rates {family.rates!r}: omega = {family.omega!r} is too small, 2*pi/omega overflows, "
            "no finite period"
        )
    return cycle


def _check_phase(family: _Family, t_max: float) -> None:
    """Reject a family whose phase omega * t overflows for some |t| <= t_max: cos and sin take no infinity."""
    if family.omega * t_max == inf:
        raise ValueError(f"rotation rates {family.rates!r}: omega * t overflows for |t| up to {t_max!r}")


def _delta_az(vx, vy, vz, wx, wy, wz) -> float:
    """Wrapped azimuth discrepancy of two nonzero float triples; pole azimuth is 0."""
    az1 = 0.0 if hypot(vx, vy) < POLE_EPS else atan2(vy, vx)
    az2 = 0.0 if hypot(wx, wy) < POLE_EPS else atan2(wy, wx)
    d = abs(az1 - az2) % _TWO_PI
    return min(d, _TWO_PI - d)


def _delta_el(vx, vy, vz, wx, wy, wz) -> float:
    """Wrapped elevation discrepancy of two nonzero float triples."""
    d = abs(atan2(hypot(vx, vy), vz) - atan2(hypot(wx, wy), wz)) % _TWO_PI
    return min(d, _TWO_PI - d)


def _delta_scalar(vx, vy, vz, wx, wy, wz) -> tuple[float, float]:
    """Wrapped (az, el) discrepancies of two nonzero float triples; pole azimuth is 0."""
    return _delta_az(vx, vy, vz, wx, wy, wz), _delta_el(vx, vy, vz, wx, wy, wz)


def _pseudo_az(vx, vy, vz, wx, wy, wz) -> float:
    """Pseudo-angle 1 - c / (|s| + |c|) of the azimuth gap of two nonzero float triples.

    c and s are the cosine and sine of the gap times the two xy radii; a vector within POLE_EPS of
    the z axis reads as direction (1, 0), as its azimuth reads 0 in _delta_az.  The value lies in
    [0, 2] and increases strictly with the wrapped gap, from 0 at 0 through 1 at pi/2 to 2 at pi.
    """
    if sqrt(vx * vx + vy * vy) < POLE_EPS:
        vx, vy = 1.0, 0.0
    if sqrt(wx * wx + wy * wy) < POLE_EPS:
        wx, wy = 1.0, 0.0
    c = vx * wx + vy * wy
    s = vx * wy - vy * wx
    return 1.0 - c / (abs(s) + abs(c))


def _pseudo_el(vx, vy, vz, wx, wy, wz) -> float:
    """Pseudo-angle 1 - c / (|s| + |c|) of the elevation gap of two nonzero float triples.

    Each elevation is the direction of (z, rho) with rho = sqrt(x*x + y*y), so c and s are the
    cosine and sine of the gap times the two norms; the gap lies in [0, pi] and needs no wrap.
    """
    rho1 = sqrt(vx * vx + vy * vy)
    rho2 = sqrt(wx * wx + wy * wy)
    c = vz * wz + rho1 * rho2
    s = vz * rho2 - rho1 * wz
    return 1.0 - c / (abs(s) + abs(c))


def delta_closed_form(
    err, t: float, angles, base=(1.0, 0.0, 0.0)
) -> tuple[float, float]:
    """Discrepancies (delta_az, delta_el) of the perturbed trajectory at time t.

    The clean vector is ``base`` (default (1,0,0)); the perturbed one is
    base @ S(err) with err = (eps_x, eps_y, eps_z).  Both ride the
    continuous family sp_general(t, angles).  The error rotation comes from
    the same formula as euler_matrix and delta_batch; the rest, the family
    at t and the discrepancies, is plain-float arithmetic, which costs about
    a tenth of a numpy call on one point.  A non-finite ``err`` or ``t``, or
    a ``base`` that is not a unit 3-vector, raises ValueError.
    """
    err = _finite_triple(err, "Euler angles", "err")
    t = _finite_float(t, "t")
    family = _family(angles)
    _check_phase(family, abs(t))
    return _point_reader(family, _require_unit(base, "base"), _delta_scalar)((*err, t))


def _start_pair(err, base) -> tuple:
    """The base and the perturbed start base @ S(err), as six floats, for float triples err and base."""
    bx, by, bz = base
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = _euler_floats(*err)
    return bx, by, bz, bx * r11 + by * r21 + bz * r31, bx * r12 + by * r22 + bz * r32, bx * r13 + by * r23 + bz * r33


def _point_reader(family: _Family, base, read):
    """read(clean, perturbed) of _pair_kernel's vectors at one point p = [eps_x, eps_y, eps_z, t].

    The point front of _pair_floats: the error rotation formed per point, in _start_pair's
    operations, and no numpy call.  ``base`` is a float triple.
    """
    bx, by, bz = base
    omega, na, nt = family.omega, family.na, family.nt

    def at(p) -> float:
        (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = _euler_floats(p[0], p[1], p[2])
        vx = bx * r11 + by * r21 + bz * r31
        vy = bx * r12 + by * r22 + bz * r32
        vz = bx * r13 + by * r23 + bz * r33
        if omega == 0.0:
            return read(bx, by, bz, vx, vy, vz)
        return _pair_floats(bx, by, bz, vx, vy, vz, omega, na, nt, read, p[3])

    return at


def _pair_floats(bx, by, bz, vx, vy, vz, omega, na, nt, read, t):
    """read(b @ sp_general(t), v @ sp_general(t)): the clean and perturbed vectors at t, in plain floats.

    ``b`` is the base and ``v`` the perturbed start base @ S(err); ``na`` and ``nt`` are
    (phi+psi)/omega and theta/omega, and omega must be positive.  _samples writes it out for a
    trajectory, and propagation._sp_entries does the same operations in the same order; every row
    product runs in _row_times's order, so the six floats ``read`` takes are _pair_kernel's bytes.
    """
    wt = omega * t
    c, s, h = cos(wt), sin(wt), sin(wt / 2.0)
    mc = 2.0 * (h * h)
    # the entries pij of sp_general(t) other than p11 = c; p23 = p32 = off
    p12, p13, p21, p31 = na * s, -nt * s, -na * s, nt * s
    p22, off, p33 = 1.0 - mc * na * na, mc * na * nt, 1.0 - mc * nt * nt
    return read(
        bx * c + by * p21 + bz * p31,
        bx * p12 + by * p22 + bz * off,
        bx * p13 + by * off + bz * p33,
        vx * c + vy * p21 + vz * p31,
        vx * p12 + vy * p22 + vz * off,
        vx * p13 + vy * off + vz * p33,
    )


def _samples(idx, bx, by, bz, vx, vy, vz, na, nt, phases) -> list[float]:
    """[_pair_floats(b, v, omega, na, nt, (_delta_az, _delta_el)[idx], t) for t in ts], bit for bit.

    The trajectory front (see the module docstring), read at the phases wt = omega * t: _pair_floats's
    operations in its order, with the reader inlined; the azimuth forms only the x and y it reads.
    """
    out = []
    for wt in phases:
        c, s, h = cos(wt), sin(wt), sin(wt / 2.0)
        mc = 2.0 * (h * h)
        p12, p21, p31 = na * s, -na * s, nt * s
        p22, off = 1.0 - mc * na * na, mc * na * nt
        x, y = bx * c + by * p21 + bz * p31, bx * p12 + by * p22 + bz * off
        u, v = vx * c + vy * p21 + vz * p31, vx * p12 + vy * p22 + vz * off
        if idx:
            p13, p33 = -nt * s, 1.0 - mc * nt * nt
            z, w = bx * p13 + by * off + bz * p33, vx * p13 + vy * off + vz * p33
            d = abs(atan2(hypot(x, y), z) - atan2(hypot(u, v), w))
        else:
            # hypot(x, y) is never below max(|x|, |y|), rounded or not, so it can fall below POLE_EPS
            # only when both coordinates lie within +-POLE_EPS: testing those first is _delta_az's test
            if abs(x) < POLE_EPS and abs(y) < POLE_EPS and hypot(x, y) < POLE_EPS:
                x, y = 1.0, 0.0
            if abs(u) < POLE_EPS and abs(v) < POLE_EPS and hypot(u, v) < POLE_EPS:
                u, v = 1.0, 0.0
            d = abs(atan2(y, x) - atan2(v, u))
        d %= _TWO_PI
        # min(d, e) as builtin min computes it, the first argument unless the second is smaller,
        # without the call, which costs about a fifth of a sample on CPython 3.11
        e = _TWO_PI - d
        out.append(e if e < d else d)
    return out


def _z_curve(ux: float, uy: float, uz: float, na: float, nt: float) -> tuple[float, float, float]:
    """(c, R, alpha) such that the row vector u has z = c + R cos(s - alpha) at phase s of the unit-speed family.

    The family about the axis (na, nt) moves z along a trigonometric polynomial of degree 1 in s.
    R >= 0, and alpha is atan2's angle, so alpha is 0 or +-pi when R = 0.
    """
    k = nt * (uy * na - uz * nt)
    return uz + k, hypot(k, ux * nt), atan2(-ux * nt, -k)


def _break_points(idx, bx, by, bz, vx, vy, vz, na, nt) -> list[float]:
    """0, the phases in (0, 2 pi) where channel idx of _samples has a kink or turns sharply, and 2 pi, ascending.

    Rotations preserve differences and cross products, so the difference of the two vectors' z is
    the z-curve of b - v, and the z of their cross product that of b x v.  The elevation gap has a
    kink where the polar angles cross, at the zeros of the z-curve of b - v; the azimuth gap where
    the azimuths are equal or a half turn apart, at the zeros of the z-curve of b x v.  Both turn
    sharply where b or v passes nearest a pole, at alpha and alpha + pi of its own z-curve.  A
    z-curve with R = 0 is constant and gives no point: its zeros fill the period or none of it.
    """
    if idx:
        ux, uy, uz = bx - vx, by - vy, bz - vz
    else:
        ux, uy, uz = by * vz - bz * vy, bz * vx - bx * vz, bx * vy - by * vx
    c, r, alpha = _z_curve(ux, uy, uz, na, nt)
    points = []
    # |c| <= R keeps -c / R within [-1, 1], as division rounds monotonically
    if r and abs(c) <= r:
        w = acos(-c / r)
        points += (alpha - w, alpha + w)
    for ux, uy, uz in ((bx, by, bz), (vx, vy, vz)):
        _, r, alpha = _z_curve(ux, uy, uz, na, nt)
        if r:
            points += (alpha, alpha + pi)
    # p % 2 pi lies in [0, 2 pi], and rounds up to 2 pi itself for a tiny negative p
    return [0.0, *sorted({p for p in (p % _TWO_PI for p in points) if 0.0 < p < _TWO_PI}), _TWO_PI]


class TimeAverage(float):
    """Time-averaged discrepancy with its quadrature's error estimate.

    ``abserr`` is the quadrature's absolute error estimate of the integral
    over the phase, divided by 2 pi: the sum of the 21-point Gauss-Kronrod
    estimates of its pieces, an estimate of the average's error and not a
    proven bound.  ``neval`` is the number of integrand evaluations the
    quadrature made.
    """

    abserr: float
    neval: int

    def __new__(cls, value: float, abserr: float, neval: int) -> "TimeAverage":
        self = super().__new__(cls, value)
        self.abserr = float(abserr)
        self.neval = int(neval)
        return self


def time_averaged_error(
    target: str, err, angles, base=(1.0, 0.0, 0.0), tol: float = 1e-8
) -> TimeAverage:
    """Mean discrepancy over one full period, (1/T) * integral of delta over [0, T].

    Over a period the phase s = omega * t runs once over [0, 2 pi], so the
    mean is that of delta at time s of the unit-speed family (omega = 1, the
    same axis) over s in [0, 2 pi]: it depends on the rates only through
    their axis, and omega only on whether a period exists (_period).  The
    integrand is smooth but at the phases _break_points finds in closed
    form, so quadpack.integrate runs the 21-point Gauss-Kronrod rule on each
    piece between them and bisects the piece of largest error estimate,
    with epsabs ``tol``, epsrel 1e-10 and at most 200 pieces: the average's
    own tolerance is tol / (2 pi) at every rate.  _samples evaluates it one
    rule per call, delta_closed_form's value bit for bit on the target's
    discrepancy alone (see the module docstring).  The result is a float
    that also carries the error estimate and evaluation count (see
    TimeAverage).  Stopping at 200 pieces short of the tolerance warns with
    quadpack's IntegrationWarning and quad's message for its subdivision
    limit.
    """
    # imported on the first call: without cached bytecode, compiling quadpack would add to the
    # start-up of every command that never integrates
    from .quadpack import LIMIT_MESSAGE, IntegrationWarning, integrate

    idx = _target_index(target)
    err = _finite_triple(err, "Euler angles", "err")
    base = _require_unit(base, "base")
    tol = _finite_float(tol, "tol")
    family = _family(angles)
    _period(family)
    pair = (*_start_pair(err, base), family.na, family.nt)
    val, abserr, neval, exhausted = integrate(
        partial(_samples, idx, *pair), _break_points(idx, *pair), tol, QUAD_EPSREL, QUAD_LIMIT
    )
    if exhausted:
        warnings.warn(LIMIT_MESSAGE.format(limit=QUAD_LIMIT), IntegrationWarning, stacklevel=2)
    return TimeAverage(val / _TWO_PI, abserr / _TWO_PI, neval)
