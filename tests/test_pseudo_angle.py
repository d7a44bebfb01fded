"""The pseudo-angle readers the extremum search minimizes, in numpy and in plain floats."""

import bisect
import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochprop.bloch import POLE_EPS
from blochprop.propagation import _family, _pair_kernel, _pseudo_rows, delta_closed_form
from blochprop.scalar import _point_reader, _pseudo_az, _pseudo_el


def float_readers(w, n_az):
    """_pseudo_az on the first n_az columns of w[3, 2, m] and _pseudo_el on the rest, one at a time."""
    cols = w.transpose(1, 0, 2).reshape(6, -1).T.tolist()
    return [(_pseudo_az if i < n_az else _pseudo_el)(*col) for i, col in enumerate(cols)]


def special_pairs(rng, m):
    """w[3, 2, m] of random pairs with pole vectors, identical and antipodal pairs and signed zeros."""
    w = rng.normal(size=(3, 2, m))
    w /= np.linalg.norm(w, axis=0)
    k = np.arange(m)
    # on a pole, exactly or within POLE_EPS of it, with either sign of z
    pole = k % 7 == 0
    w[:2, 0, pole] = 0.0
    w[2, 0, pole] = np.where(k[pole] % 2 == 0, 1.0, -1.0)
    near = k % 11 == 0
    w[:2, 1, near] = 0.3 * POLE_EPS
    w[2, 1, near] = -1.0
    w[:, 1, k % 13 == 0] = w[:, 0, k % 13 == 0]
    w[:, 1, k % 17 == 0] = -w[:, 0, k % 17 == 0]
    w[:2, :, k % 19 == 0] = -0.0
    w[0, 1, k % 23 == 0] = -0.0
    return w


def test_readers_agree_bit_for_bit_on_random_and_special_points():
    rng = np.random.default_rng(24)
    w = special_pairs(rng, 20_000)
    for n_az in (0, 1, 7_000, 20_000):
        got = _pseudo_rows(w, n_az)
        assert got.tobytes() == np.array(float_readers(w, n_az)).tobytes()
        assert not np.isnan(got).any()


finite = st.floats(-2.0, 2.0)
special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5 * POLE_EPS, -0.5 * POLE_EPS, 2.0 * POLE_EPS])
coordinate = st.one_of(finite, special)
nonzero_vectors = st.tuples(coordinate, coordinate, coordinate).filter(lambda v: math.hypot(*v) > 1e-3)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(nonzero_vectors, nonzero_vectors), min_size=1, max_size=12), st.integers(0, 12))
@example(pairs=[((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0))], n_az=1)
@example(pairs=[((-0.0, -0.0, 1.0), (0.0, -0.0, 1.0)), ((0.6, 0.8, 0.0), (0.6, 0.8, 0.0))], n_az=2)
def test_readers_agree_bit_for_bit(pairs, n_az):
    w = np.array(pairs).transpose(2, 1, 0).copy()
    assert _pseudo_rows(w, n_az).tolist() == float_readers(w, n_az)


def test_search_geometry_agrees_bit_for_bit():
    # the lockstep reads _pair_kernel's vectors in numpy, the finish _point_reader's in floats
    # and both form the same six floats of the pair, at the poles and with zero rates too
    rng = np.random.default_rng(25)
    for base in [(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.48, 0.6, 0.64)]:
        for rates in [(0.7, -1.3, 2.1), (1.0, 1.0, 1.0), (0.5, 0.0, -0.5)]:
            x = rng.uniform(0.0, 2 * math.pi, (400, 4))
            x[::5, :3] = 0.0
            x[1::5, 1] = math.pi / 2
            family = _family(rates)
            w = _pair_kernel(family, base)(x[:, :3], x[:, 3])
            pair = _point_reader(family, base, lambda *v: list(v))
            assert [pair(p) for p in x.tolist()] == w.transpose(2, 1, 0).reshape(-1, 6).tolist()
            az, el = (_point_reader(family, base, read) for read in (_pseudo_az, _pseudo_el))
            want = [(az if i < 200 else el)(p) for i, p in enumerate(x.tolist())]
            assert _pseudo_rows(w, 200).tolist() == want


def test_pseudo_angle_orders_pairs_as_delta_closed_form():
    # p is strictly increasing in the discrepancy, so wherever two points' discrepancies differ by
    # more than rounding, their pseudo-angles are ordered the same way
    rng = np.random.default_rng(26)
    rates, base = (0.7, -1.3, 2.1), (0.48, 0.6, 0.64)
    x = rng.uniform(0.0, 2 * math.pi, (3_000, 4)).tolist()
    for col, read in ((0, _pseudo_az), (1, _pseudo_el)):
        at = _point_reader(_family(rates), base, read)
        p = [at(q) for q in x]
        d = [delta_closed_form(q[:3], q[3], rates, base)[col] for q in x]
        order = sorted(range(len(x)), key=d.__getitem__)
        ds, ps = [d[i] for i in order], [p[i] for i in order]
        # every point must read above every point whose discrepancy is more than 1e-12 below its own
        below = list(itertools.accumulate(ps, max))
        checked = 0
        for j in range(len(ds)):
            k = bisect.bisect_left(ds, ds[j] - 1e-12)
            if k:
                assert ps[j] > below[k - 1], (ds[j], ps[j])
                checked += 1
        assert checked > 2_900
        assert 0.0 <= min(p) and max(p) <= 2.0


def test_pseudo_angle_values_at_known_gaps():
    assert _pseudo_az(1.0, 0.0, 0.0, 1.0, 0.0, 0.0) == 0.0
    assert _pseudo_az(1.0, 0.0, 0.0, 0.0, 1.0, 0.0) == 1.0
    assert _pseudo_az(1.0, 0.0, 0.0, -1.0, 0.0, 0.0) == 2.0
    # a pole reads as azimuth 0, as in delta_closed_form
    assert _pseudo_az(0.0, 0.0, 1.0, -1.0, 0.0, 0.0) == 2.0
    assert _pseudo_el(0.0, 0.0, 1.0, 0.0, 0.0, -1.0) == 2.0
    assert _pseudo_el(1.0, 0.0, 0.0, 0.0, 0.0, 1.0) == 1.0
