"""The z-curve of a vector under the unit-speed family, and the break points time_averaged_error splits at.

Under the family about the axis (na, nt), a row vector u has z-coordinate c + R cos(s - alpha) at
phase s (scalar._z_curve).  Rotations preserve differences and cross products, so the zeros of the
z-curve of b - v are where the two polar angles cross, and those of b x v where the two azimuths are
equal or a half turn apart.  The checks here read the vectors from _pair_floats, the sampler's own
arithmetic, not from the z-curve.
"""

import math
import sys

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blochprop.scalar import _break_points, _delta_az, _family, _pair_floats, _start_pair, _z_curve

TWO_PI = 2 * math.pi
EPS = sys.float_info.epsilon

rates = st.tuples(*[st.floats(-5.0, 5.0)] * 3).filter(lambda r: _family(r).omega > 1e-6)
vectors = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.48, 0.6, 0.64)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda b: math.hypot(*b) > 1e-3),
).map(lambda b: tuple(c / math.hypot(*b) for c in b))
errs = st.one_of(
    st.sampled_from([(0.0, 0.0, 0.0), (0.0, math.pi / 2, 0.0), (0.0, math.pi, 0.0), (0.3, math.pi, 1.1)]),
    st.tuples(*[st.floats(0.0, TWO_PI)] * 3),
)


def at(b, v, family, s):
    """The clean and perturbed vectors at phase s of the unit-speed family, as _pair_floats forms them."""
    return _pair_floats(*b, *v, 1.0, family.na, family.nt, lambda *w: (w[:3], w[3:]), s)


def pole_points(family, *vectors):
    """alpha and alpha + pi of each vector's z-curve with R > 0, reduced mod 2 pi."""
    points = []
    for u in vectors:
        _, r, alpha = _z_curve(*u, family.na, family.nt)
        if r:
            points += [alpha % TWO_PI, (alpha + math.pi) % TWO_PI]
    return points


def near(p, points, tol=1e-12):
    return any(min(abs(p - q), TWO_PI - abs(p - q)) <= tol for q in points)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rates, vectors, st.floats(0.0, TWO_PI))
def test_the_z_curve_is_the_samplers_z(r, u, s):
    family = _family(r)
    c, big_r, alpha = _z_curve(*u, family.na, family.nt)
    (_, _, z), _ = at(u, u, family, s)
    assert big_r >= 0.0
    assert abs(c + big_r * math.cos(s - alpha) - z) <= 8 * EPS


def polar(w):
    return math.atan2(math.hypot(w[0], w[1]), w[2])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rates, vectors, errs)
@example(r=(1.0, 1.0, 1.0), b=(1.0, 0.0, 0.0), err=(0.0, math.pi / 2, 0.0))
@example(r=(2.2140724000938583, 2.861528241342201, -2.06537545825066),
         b=(-0.5796912111480141, 0.2798066095477448, -0.7652884168541585),
         err=(3.747293588218837, 0.5526877618486067, 4.822372370230462))  # fmt: skip
def test_each_break_point_is_a_kink_or_a_pole_passage(r, b, err):
    family = _family(r)
    pair = _start_pair(err, b)
    v = pair[3:]
    poles = pole_points(family, b, v)
    for idx in (0, 1):
        points = _break_points(idx, *pair, family.na, family.nt)
        assert points[0] == 0.0 and points[-1] == TWO_PI and points == sorted(set(points))
        assert len(points) <= 8
        for p in points[1:-1]:
            if near(p, poles):
                continue
            wb, wv = at(b, v, family, p)
            rho_b, rho_v = math.hypot(*wb[:2]), math.hypot(*wv[:2])
            if idx:
                # the polar angles cross: their z agree, and so do the angles away from the poles
                assert abs(wb[2] - wv[2]) <= 4e-15
                if min(rho_b, rho_v) >= 1e-2:
                    assert abs(polar(wb) - polar(wv)) <= 1e-12
            else:
                # the azimuths are equal or a half turn apart
                assert abs(wb[0] * wv[1] - wb[1] * wv[0]) <= 4e-15
                if rho_b * rho_v >= 1e-2:
                    gap = _delta_az(*wb, *wv)
                    assert min(gap, math.pi - gap) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rates, vectors, errs)
def test_every_sign_change_and_pole_passage_has_a_break_point(r, b, err):
    # on a grid of 1024 phases: the sampler's z_b - z_v and (b x v)_z change sign only across a break
    # point of their channel, and each vector's z peaks within a grid step of one
    family = _family(r)
    pair = _start_pair(err, b)
    v = pair[3:]
    grid = [TWO_PI * i / 1024 for i in range(1025)]
    vecs = [at(b, v, family, s) for s in grid]
    curves = (
        [wb[0] * wv[1] - wb[1] * wv[0] for wb, wv in vecs],
        [wb[2] - wv[2] for wb, wv in vecs],
    )
    for idx, curve in enumerate(curves):
        points = _break_points(idx, *pair, family.na, family.nt)
        for i in range(1024):
            if curve[i] * curve[i + 1] < 0.0 and min(abs(curve[i]), abs(curve[i + 1])) > 1e-12:
                assert any(grid[i] <= p <= grid[i + 1] for p in points)
        for j, u in enumerate((b, v)):
            if _z_curve(*u, family.na, family.nt)[1] > 1e-6:
                z = [w[j][2] for w in vecs]
                for k in (z.index(max(z)), z.index(min(z))):
                    assert near(grid[k], points, tol=TWO_PI / 1024 * 1.01)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rates, vectors)
def test_equal_and_opposite_vectors_give_no_spurious_point(r, b):
    family = _family(r)
    neg = tuple(-c for c in b)
    poles = pole_points(family, b)
    # v = b: the gaps are 0 throughout, so only b's own pole passages split the period
    for idx in (0, 1):
        assert all(near(p, poles) for p in _break_points(idx, *b, *b, family.na, family.nt)[1:-1])
    # v = -b: b x v = 0, so the azimuth splits only at the pole passages; the polar angles cross at z_b = 0
    assert all(near(p, poles) for p in _break_points(0, *b, *neg, family.na, family.nt)[1:-1])
    for p in _break_points(1, *b, *neg, family.na, family.nt)[1:-1]:
        assert near(p, poles) or abs(at(b, b, family, p)[0][2]) <= 4e-15


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.1, 5.0).flatmap(lambda x: st.sampled_from([x, -x])), st.floats(-5.0, 5.0), vectors, errs)
def test_constant_z_curves_give_no_point(a, phi, b, err):
    # theta = 0: the family turns about the z axis and every z-curve has R = 0
    rates = (phi, 0.0, a - phi)
    assume(_family(rates).omega > 0.0)
    family = _family(rates)
    for idx in (0, 1):
        assert _break_points(idx, *_start_pair(err, b), family.na, family.nt) == [0.0, TWO_PI]
    # a vector on the axis (0, nt, na) of any family stays put: with no error there is no point either
    family = _family((0.7, -1.3, 2.1))
    u = (0.0, family.nt, family.na)
    assert _z_curve(*u, family.na, family.nt)[1] == 0.0
    for idx in (0, 1):
        assert _break_points(idx, *u, *u, family.na, family.nt) == [0.0, TWO_PI]
