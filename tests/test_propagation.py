"""Discrepancy series, the closed-form rotation family, and its generator."""

import cmath
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from blochprop.bloch import POLE_EPS, EulerAngles, angle_distance, cartesian_to_spherical
from blochprop.propagation import (
    DegenerateRotationError,
    ErrorAngles,
    _conjugate,
    _family,
    _trajectory_deltas,
    ErrorSeries,
    delta_batch,
    delta_closed_form,
    delta_pair,
    equivalent_continuous_angles,
    generator,
    generator_eigenvalues,
    limit_convergence_check,
    matrix_exp_generator,
    period,
    rotation_log,
    simulate,
    sp_general,
    sp_special,
)
from blochprop.analysis import estimate_period_numeric, find_extrema
from blochprop.bloch import qubit_to_matrix
from blochprop.rotations import euler_matrix, rotate_euler, rotate_su2, su2_from_axis, su2_from_euler
from blochprop.scalar import _delta_scalar, _pair_floats, _samples, _start_pair

SQRT5 = math.sqrt(5.0)
REF_ERR = (0.0, 0.2, 0.0)
REF_STEP = EulerAngles(math.pi / 100, math.pi / 100, math.pi / 100)

angle_triples = st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
times = st.floats(-20.0, 20.0)


def ref_pair():
    v = np.array([1.0, 0.0, 0.0])
    return v, v @ euler_matrix(EulerAngles(*REF_ERR))


class TestDeltaPair:
    def test_equal_vectors(self):
        v = np.array([0.3, -0.4, 0.5])
        assert delta_pair(v, v) == (0.0, 0.0)

    def test_quarter_turn_same_elevation(self):
        daz, del_ = delta_pair((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert daz == pytest.approx(math.pi / 2, abs=1e-15)
        assert del_ == 0.0

    def test_tilted_reference_vector(self):
        daz, del_ = delta_pair((1.0, 0.0, 0.0), (0.9800665778412416, 0.0, -0.19866933079506122))
        assert daz == 0.0
        assert del_ == pytest.approx(0.2, abs=1e-12)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero"):
            delta_pair((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def reference_delta_pair(w, w_err):
    """delta_pair composed from the bloch primitives."""
    r1, el1, az1 = cartesian_to_spherical(w)
    r2, el2, az2 = cartesian_to_spherical(w_err)
    if r1 < POLE_EPS or r2 < POLE_EPS:
        raise ValueError("zero vector")
    return angle_distance(az1, az2), angle_distance(el1, el2)


# components near 0 put vectors at or near the pole, where the azimuth is pinned to 0
components = st.one_of(st.floats(-2, 2), st.floats(-1e-11, 1e-11))
vectors = st.tuples(components, components, components)


@settings(max_examples=300)
@given(vectors, vectors)
def test_delta_pair_equals_bloch_composition(w, w_err):
    try:
        expected = reference_delta_pair(w, w_err)
    except ValueError:
        with pytest.raises(ValueError, match="zero"):
            delta_pair(w, w_err)
    else:
        assert delta_pair(w, w_err) == expected


class TestErrorSeries:
    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="increasing"):
            ErrorSeries(t=np.array([0.0, 2.0, 1.0]), delta_az=np.zeros(3), delta_el=np.zeros(3))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            ErrorSeries(t=np.arange(3.0), delta_az=np.zeros(2), delta_el=np.zeros(3))

    def test_rejects_out_of_range_delta(self):
        with pytest.raises(ValueError, match="0, pi"):
            ErrorSeries(t=np.arange(2.0), delta_az=np.array([0.0, 4.0]), delta_el=np.zeros(2))

    def test_len(self):
        s = ErrorSeries(t=np.arange(4.0), delta_az=np.zeros(4), delta_el=np.zeros(4))
        assert len(s) == 4

    def test_error_angles_fields(self):
        e = ErrorAngles(0.1, 0.2, 0.3)
        assert (e.eps_x, e.eps_y, e.eps_z) == (0.1, 0.2, 0.3)


class TestSimulate:
    def test_zero_error_stays_zero(self):
        v = np.array([1.0, 0.0, 0.0])
        s = simulate(v, v.copy(), EulerAngles(0.7, 1.3, -0.2), 40)
        assert np.all(s.delta_az == 0.0)
        assert np.all(s.delta_el == 0.0)

    def test_series_length_and_t0(self):
        v, v_err = ref_pair()
        s = simulate(v, v_err, REF_STEP, 200)
        assert len(s) == 201
        assert s.delta_az[0] == 0.0
        assert s.delta_el[0] == pytest.approx(0.2, abs=1e-12)

    def test_zero_steps(self):
        v, v_err = ref_pair()
        s = simulate(v, v_err, REF_STEP, 0)
        assert len(s) == 1

    def test_su2_pipeline_matches_euler(self):
        v, v_err = ref_pair()
        a = simulate(v, v_err, REF_STEP, 200, pipeline="euler")
        b = simulate(v, v_err, REF_STEP, 200, pipeline="su2")
        assert np.abs(a.delta_az - b.delta_az).max() < 1e-9
        assert np.abs(a.delta_el - b.delta_el).max() < 1e-9

    def test_closed_pipeline_matches_euler(self):
        v, v_err = ref_pair()
        a = simulate(v, v_err, REF_STEP, 200, pipeline="euler")
        c = simulate(v, v_err, REF_STEP, 200, pipeline="closed")
        assert np.abs(a.delta_az - c.delta_az).max() < 1e-9
        assert np.abs(a.delta_el - c.delta_el).max() < 1e-9

    def test_closed_pipeline_handles_unequal_step_angles(self):
        v, v_err = ref_pair()
        step = EulerAngles(0.1, 0.2, 0.3)
        a = simulate(v, v_err, step, 50, pipeline="euler")
        c = simulate(v, v_err, step, 50, pipeline="closed")
        assert np.abs(a.delta_az - c.delta_az).max() < 1e-9
        assert np.abs(a.delta_el - c.delta_el).max() < 1e-9

    def test_rejects_bad_inputs(self):
        v, v_err = ref_pair()
        with pytest.raises(ValueError, match="unit"):
            simulate(2 * v, v_err, REF_STEP, 5)
        with pytest.raises(ValueError, match="steps"):
            simulate(v, v_err, REF_STEP, -1)
        with pytest.raises(ValueError, match="pipeline"):
            simulate(v, v_err, REF_STEP, 5, pipeline="rk4")

    @pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
    def test_steps_must_be_an_integer(self, pipeline):
        # int(2.5) would run 2 steps: any value that is not an integer is rejected instead
        v, v_err = ref_pair()
        for steps in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
                simulate(v, v_err, REF_STEP, steps, pipeline=pipeline)
        assert len(simulate(v, v_err, REF_STEP, np.int64(3), pipeline=pipeline)) == 4

    @pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
    @pytest.mark.parametrize("steps", [2**50, 2**63 - 2, 10**20])
    def test_steps_that_do_not_fit_in_memory_are_named(self, pipeline, steps):
        # 2**50 samples fail at allocation, so no memory is written; np.arange reads 2**63 - 1 samples
        # as none, and 10**20 lies past numpy's index range
        v, v_err = ref_pair()
        with pytest.raises(ValueError, match=f"^steps = {steps} is too many: a run of {steps + 1} samples"):
            simulate(v, v_err, REF_STEP, steps, pipeline=pipeline)


def reference_simulate(v, v_err, step, steps, pipeline):
    """simulate one sample at a time: one rotation or exponential, then delta_pair."""
    w, we = np.asarray(v, dtype=float), np.asarray(v_err, dtype=float)
    rows = [delta_pair(w, we)]
    if pipeline == "closed":
        gen = rotation_log(euler_matrix(step), allow_half_turn=True)
        for i in range(1, steps + 1):
            r = matrix_exp_generator(gen, float(i))
            rows.append(delta_pair(w @ r, we @ r))
        return np.array(rows)
    s, u = euler_matrix(step), su2_from_euler(step)
    for _ in range(steps):
        if pipeline == "euler":
            w, we = rotate_euler(w, s), rotate_euler(we, s)
        else:
            w, we = rotate_su2(w, u), rotate_su2(we, u)
        rows.append(delta_pair(w, we))
    return np.array(rows)


sim_unit_vectors = (
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)
# the identity step (its log is 0) and a half-turn (its log has no preferred sign)
IDENTITY_STEP = (0.3, 0.0, -0.3)
HALF_TURN_STEP = (math.pi / 2, 0.0, math.pi / 2)


@pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
# 1, 2, 3 and 7, 8, 9 and 1023, 1024, 1025 straddle the powers of two where
# the doubling adds a level
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 7, 8, 9, 1023, 1024, 1025])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    v=sim_unit_vectors,
    err=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    step=st.one_of(
        st.sampled_from([IDENTITY_STEP, HALF_TURN_STEP]), st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
    ),
)
@example(v=np.array([1.0, 0.0, 0.0]), err=REF_ERR, step=IDENTITY_STEP)
@example(v=np.array([0.6, 0.0, 0.8]), err=(0.1, 0.2, 0.3), step=HALF_TURN_STEP)
# the qubit matrix and the exponential at t = 0 turn y = -0.0 into +0.0, which
# moves the azimuth from -pi to pi
@example(v=np.array([-0.6, -0.0, 0.8]), err=(0.3, 0.2, 0.1), step=(0.1, 0.2, 0.3))
def test_simulate_matches_step_by_step_reference(pipeline, steps, v, err, step):
    v_err = v @ euler_matrix(err)
    series = simulate(v, v_err, step, steps, pipeline=pipeline)
    ref = reference_simulate(v, v_err, step, steps, pipeline)
    assert np.array_equal(series.t, np.arange(steps + 1.0))
    assert (series.delta_az[0], series.delta_el[0]) == delta_pair(v, v_err)
    assert np.abs(series.delta_az - ref[:, 0]).max() <= 1e-11
    assert np.abs(series.delta_el - ref[:, 1]).max() <= 1e-11


@pytest.mark.parametrize(
    "u, message",
    [
        (1.1 * np.eye(2, dtype=complex), "unit norm"),
        (np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex), "Hermitian traceless"),
    ],
)
def test_su2_pipeline_checks_like_rotate_su2(monkeypatch, u, message):
    # a matrix that is not in SU(2) is refused by rotate_su2, which names u; the su2 pipeline, whose
    # step comes from su2_from_euler, reads the rotated vectors back and fails with ``message``
    v, v_err = ref_pair()
    with pytest.raises(ValueError, match=r"^u must be a unitary matrix"):
        rotate_su2(rotate_su2(v, u), u)
    monkeypatch.setattr("blochprop.propagation.su2_from_euler", lambda step: u)
    with pytest.raises(ValueError, match=message):
        simulate(v, v_err, REF_STEP, 3, pipeline="su2")


def assert_rows_equal_delta_pair(daz, del_, rows):
    """daz[i], del_[i] are delta_pair(rows[i][:3], rows[i][3:]) bit for bit, signed zeros included."""
    want = np.array([delta_pair(r[:3], r[3:]) for r in rows]).reshape(-1, 2)
    assert daz.tobytes() == want[:, 0].tobytes()
    assert del_.tobytes() == want[:, 1].tobytes()


SOUTH_WEST = (-0.6, 0.0, 0.8)
READOUT_ROWS = [
    # pole rows: rho below POLE_EPS reads as azimuth 0, against a vector off the pole and on it
    ((POLE_EPS / 2, POLE_EPS / 4, 1.0), (0.6, 0.8, 0.0)),
    ((0.0, 0.0, -1.0), (-POLE_EPS / 3, 0.0, 1.0)),
    # x < 0 on the y = 0 line: y = +0.0 reads as azimuth pi, y = -0.0 as -pi
    (SOUTH_WEST, (-0.6, -0.0, 0.8)),
    ((-0.6, -0.0, 0.8), SOUTH_WEST),
    ((-0.6, -0.0, 0.8), (-0.6, -0.0, -0.8)),
    (SOUTH_WEST, (0.6, -0.0, 0.8)),
    # identical vectors
    ((0.3, -0.4, 0.5), (0.3, -0.4, 0.5)),
    (SOUTH_WEST, SOUTH_WEST),
    # wrapped differences of exactly pi: azimuth 0 against pi, elevation 0 against pi
    ((1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
    ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)),
    ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0)),
    # an ordinary pair, and azimuths either side of the -x axis, whose gap of almost 2 pi wraps
    ((0.48, 0.6, 0.64), (0.6, -0.48, -0.64)),
    ((-0.6, 1e-9, 0.8), (-0.6, -1e-9, 0.8)),
]


@pytest.mark.parametrize("first", range(len(READOUT_ROWS)))
def test_trajectory_deltas_equal_delta_pair_on_hand_built_rows(first):
    # each row in turn comes first, where it is read from the pair
    rows = READOUT_ROWS[first:] + READOUT_ROWS[:first]
    traj = np.array(rows)
    daz, del_ = _trajectory_deltas(traj[0], traj)
    assert_rows_equal_delta_pair(daz, del_, [a + b for a, b in rows])


@pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    v=st.one_of(sim_unit_vectors, st.sampled_from([np.array([0.0, 0.0, -1.0]), np.array([-0.6, -0.0, 0.8])])),
    err=st.tuples(*[st.sampled_from([0.0, math.pi / 2, math.pi]) | st.floats(-math.pi, math.pi)] * 3),
    step=st.one_of(
        st.sampled_from([IDENTITY_STEP, HALF_TURN_STEP]), st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
    ),
    steps=st.integers(0, 300),
)
# su2 and closed turn y = -0.0 into +0.0 on their row 0, which is read from the input pair
@example(v=np.array([-0.6, -0.0, 0.8]), err=(0.3, 0.2, 0.1), step=(0.1, 0.2, 0.3), steps=3)
def test_simulate_reads_every_row_as_delta_pair(pipeline, v, err, step, steps):
    # simulate's readout equals delta_pair on each row of the trajectory it built, bit for bit
    v_err = v @ euler_matrix(err)
    with mock.patch("blochprop.propagation._trajectory_deltas", wraps=_trajectory_deltas) as readout:
        series = simulate(v, v_err, step, steps, pipeline=pipeline)
    traj = readout.call_args.args[1]
    rows = np.array(traj, dtype=float).reshape(-1, 6)
    rows[0] = np.concatenate([v, v_err])
    assert_rows_equal_delta_pair(series.delta_az, series.delta_el, rows.tolist())


def kron_conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u @ m @ u^H for a stack m[..., 2, 2], with the Kronecker factor from np.kron."""
    return (m.reshape(-1, 4) @ np.kron(u, u.conj()).T).reshape(m.shape)


def test_conjugate_equals_the_kron_reference_bit_for_bit():
    # the broadcast factor is np.kron's own multiply, u times conj(u) in that order, so every byte agrees
    rng = np.random.default_rng(41)
    for size in range(1, 8):
        for _ in range(20):
            u = su2_from_euler(tuple(rng.uniform(-4.0, 4.0, 3).tolist()))
            vecs = rng.normal(size=(size, 3))
            m = np.stack([qubit_to_matrix(w) for w in vecs / np.linalg.norm(vecs, axis=1, keepdims=True)])
            assert _conjugate(u, m).tobytes() == kron_conjugate(u, m).tobytes()


def test_su2_series_bytes_equal_the_kron_conjugate_reference():
    v = np.array([0.48, 0.6, 0.64])
    args = (v, v @ euler_matrix((0.3, 2.9, -1.1)), (0.05, -0.06, 0.04), 1000)
    got = simulate(*args, pipeline="su2")
    with mock.patch("blochprop.propagation._conjugate", kron_conjugate):
        want = simulate(*args, pipeline="su2")
    for column in ("t", "delta_az", "delta_el"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()


def test_su2_accepts_a_step_whose_phase_sum_overflows():
    # phi + psi and phi - psi overflow for (1e308, 1e308, 1e308), their halves do not; the euler and
    # closed pipelines read cos and sin of the angles themselves and always accepted the step
    v, v_err = ref_pair()
    step = (1e308, 1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        euler = simulate(v, v_err, step, 20, pipeline="euler")
        su2 = simulate(v, v_err, step, 20, pipeline="su2")
        closed = simulate(v, v_err, step, 20, pipeline="closed")
    for other in (su2, closed):
        assert np.abs(other.delta_az - euler.delta_az).max() < 1e-9
        assert np.abs(other.delta_el - euler.delta_el).max() < 1e-9


def angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between the vectors a[..., 3] and b[..., 3]: arccos(a.b) for unit vectors, well conditioned near 0 and pi."""
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1), (a * b).sum(axis=-1))


@pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
def test_simulate_conserves_the_angle_between_the_vectors(pipeline):
    # a rotation preserves the angle between the clean and the perturbed vector, so it stays at its
    # start along every trajectory, and the elevation gap, which is at most that angle, never exceeds it
    rng = np.random.default_rng(27)
    for _ in range(40):
        v, v_err = rng.normal(size=(2, 3))
        v, v_err = v / np.linalg.norm(v), v_err / np.linalg.norm(v_err)
        step = tuple(rng.uniform(-math.pi, math.pi, 3).tolist())
        with mock.patch("blochprop.propagation._trajectory_deltas", wraps=_trajectory_deltas) as readout:
            series = simulate(v, v_err, step, 300, pipeline=pipeline)
        traj = np.asarray(readout.call_args.args[1], dtype=float)
        start = float(angle_between(v, v_err))
        assert np.abs(angle_between(traj[:, 0], traj[:, 1]) - start).max() <= 1e-11
        assert series.delta_el.max() <= start + 1e-11


class TestSpGeneral:
    def test_t0_is_identity(self):
        assert np.allclose(sp_general(0.0, (1, 1, 1)), np.eye(3))

    def test_unit_rates_match_explicit_form(self):
        for t in np.linspace(-3.0, 7.0, 41):
            assert np.abs(sp_general(t, (1, 1, 1)) - sp_special(t)).max() < 1e-14

    def test_full_period_closes(self):
        for angles in [(1, 1, 1), (0.3, 2.0, -0.7), (2, 1, 3)]:
            w = math.hypot(angles[1], angles[0] + angles[2])
            assert np.abs(sp_general(2 * math.pi / w, angles) - np.eye(3)).max() < 1e-12

    def test_degenerate_rates_give_identity(self):
        assert np.allclose(sp_general(3.7, (0.5, 0.0, -0.5)), np.eye(3))

    def test_near_degenerate_matches_identity_branch(self):
        # omega = 1e-8 sits just off the exact-zero code path
        angles = (4e-9, 6e-9, 4e-9)
        w = math.hypot(6e-9, 8e-9)
        assert w == pytest.approx(1e-8)
        assert np.abs(sp_general(1.0, angles) - np.eye(3)).max() < 1e-8

    @settings(max_examples=300, deadline=None)
    @given(angle_triples, times)
    def test_orthogonal_det_one(self, angles, t):
        m = sp_general(t, angles)
        assert np.abs(m.T @ m - np.eye(3)).max() < 1e-12
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(angle_triples, st.floats(-8, 8), st.floats(-8, 8))
    def test_semigroup(self, angles, t1, t2):
        lhs = sp_general(t1 + t2, angles)
        rhs = sp_general(t1, angles) @ sp_general(t2, angles)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_complex_hyperbolic_form_oracle(self):
        # same family written with cosh/sinh of the imaginary argument
        rng = np.random.default_rng(17)
        for _ in range(100):
            phi, theta, psi = rng.uniform(-4, 4, 3)
            t = rng.uniform(-6, 6)
            a = phi + psi
            w2 = theta * theta + a * a
            if w2 < 1e-12:
                continue
            cap = cmath.sqrt(complex(-w2))
            c = cmath.cosh(t * cap)
            s_w = cmath.sinh(t * cap) / cap
            mc_w2 = (cmath.cosh(t * cap) - 1.0) / (cap * cap)
            oracle = np.array(
                [
                    [c, a * s_w, -theta * s_w],
                    [-a * s_w, 1.0 - mc_w2 * a * a, mc_w2 * a * theta],
                    [theta * s_w, mc_w2 * a * theta, 1.0 - mc_w2 * theta * theta],
                ]
            )
            assert np.abs(oracle.imag).max() < 1e-9
            assert np.abs(oracle.real - sp_general(t, (phi, theta, psi))).max() < 1e-12


class TestSpSpecial:
    def test_t0_identity(self):
        assert np.allclose(sp_special(0.0), np.eye(3))

    def test_top_left_entry(self):
        assert sp_special(1.0)[0, 0] == pytest.approx(math.cos(SQRT5), abs=1e-15)

    def test_period_closes(self):
        assert np.abs(sp_special(2 * math.pi / SQRT5) - np.eye(3)).max() < 1e-12


class TestLimitConvergence:
    def test_t0_exact(self):
        assert limit_convergence_check(0.0, (1, 1, 1), 1) == 0.0

    def test_monotone_decrease(self):
        errs = [limit_convergence_check(1.0, (1, 1, 1), s) for s in (10, 100, 10**4)]
        assert errs[0] > errs[1] > errs[2]

    def test_frozen_measured_constants(self):
        # values recorded from this implementation; guard against regressions
        assert limit_convergence_check(1.0, (1, 1, 1), 10) == pytest.approx(2.7561493434781602e-3, rel=1e-6)
        assert limit_convergence_check(1.0, (1, 1, 1), 100) == pytest.approx(2.753246094654137e-5, rel=1e-6)

    def test_large_s_below_threshold(self):
        assert limit_convergence_check(1.0, (1, 1, 1), 10**6) < 1e-5

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError, match="s must"):
            limit_convergence_check(1.0, (1, 1, 1), 0)


class TestGenerator:
    def test_unit_rates(self):
        g = generator((1, 1, 1))
        assert np.array_equal(g, np.array([[0.0, 2.0, -1.0], [-2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_zero_rates(self):
        assert np.array_equal(generator((0, 0, 0)), np.zeros((3, 3)))

    @settings(max_examples=200, deadline=None)
    @given(angle_triples)
    def test_antisymmetric(self, angles):
        g = generator(angles)
        assert np.abs(g + g.T).max() == 0.0
        assert np.trace(g) == 0.0

    def test_finite_difference_derivative(self):
        h = 1e-5
        for angles in [(1, 1, 1), (0.3, 2.0, -0.7), (2, 1, 3)]:
            fd = (sp_general(h, angles) - sp_general(-h, angles)) / (2 * h)
            assert np.abs(fd - generator(angles)).max() < 1e-6

    def test_exponential_recovers_family(self):
        g = generator((0.4, 1.7, -0.9))
        for t in (0.0, 0.3, 2.1):
            assert np.abs(matrix_exp_generator(g, t) - sp_general(t, (0.4, 1.7, -0.9))).max() < 1e-12


class TestGeneratorEigenvalues:
    def test_unit_rates(self):
        ev = generator_eigenvalues((1, 1, 1))
        assert ev == (0j, 1j * SQRT5, -1j * SQRT5)

    def test_zero_rates(self):
        assert generator_eigenvalues((0, 0, 0)) == (0j, 0j, 0j)

    def test_against_dense_solver(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            angles = tuple(rng.uniform(-5, 5, 3))
            mine = sorted(generator_eigenvalues(angles), key=lambda z: z.imag)
            dense = sorted(np.linalg.eigvals(generator(angles)), key=lambda z: z.imag)
            assert max(abs(a - b) for a, b in zip(mine, dense)) < 1e-10


class TestPeriod:
    def test_unit_rates(self):
        assert period((1, 1, 1)) == pytest.approx(2 * math.pi / SQRT5, abs=1e-15)

    def test_transcendental_rates(self):
        t = period(EulerAngles(math.e, math.pi, 3.0))
        assert t == pytest.approx(2 * math.pi / math.sqrt(math.pi**2 + (math.e + 3) ** 2), abs=1e-15)

    def test_mixed_rates(self):
        t = period(EulerAngles(1.0, 1.0, math.pi))
        assert t == pytest.approx(2 * math.pi / math.sqrt(1 + (1 + math.pi) ** 2), abs=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateRotationError):
            period((0.5, 0.0, -0.5))
        with pytest.raises(DegenerateRotationError):
            period((0, 0, 0))

    def test_rates_too_small_for_a_finite_period_rejected(self):
        # 2 pi / omega overflows for a subnormal omega; 1e-300 still has a finite period
        with pytest.raises(DegenerateRotationError, match=r"\(0\.0, 0\.0, 2\.2250738585e-313\)"):
            period((0, 0, 2.2250738585e-313))
        assert period((0, 0, 1e-300)) == 2 * math.pi / 1e-300


class TestMatrixExpGenerator:
    def test_t0_identity(self):
        assert np.allclose(matrix_exp_generator(generator((1, 1, 1)), 0.0), np.eye(3))

    def test_full_period_identity(self):
        g = generator((1, 1, 1))
        assert np.abs(matrix_exp_generator(g, 2 * math.pi / SQRT5) - np.eye(3)).max() < 1e-12

    def test_unit_rates_match_explicit_form(self):
        g = generator((1, 1, 1))
        assert np.abs(matrix_exp_generator(g, 0.7) - sp_special(0.7)).max() < 1e-12

    def test_against_dense_expm_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            a, b, c = rng.uniform(-3, 3, 3)
            j = np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]])
            t = rng.uniform(-4, 4)
            assert np.abs(matrix_exp_generator(j, t) - expm(t * j)).max() < 1e-12

    def test_zero_generator(self):
        assert np.allclose(matrix_exp_generator(np.zeros((3, 3)), 5.0), np.eye(3))

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            matrix_exp_generator(np.eye(3), 1.0)


class TestRotationLog:
    def test_round_trip_through_exp(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            a, b, c = rng.uniform(-1, 1, 3)
            j = np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]])
            # keep the rotation angle below pi so the principal log is unique
            w = math.sqrt(a * a + b * b + c * c)
            if w > 3.0:
                continue
            r = matrix_exp_generator(j, 1.0)
            assert np.abs(rotation_log(r) - j).max() < 1e-10

    def test_identity(self):
        assert np.abs(rotation_log(np.eye(3))).max() == 0.0

    def test_small_angle(self):
        j = generator((1e-7, 1e-7, 1e-7))
        r = matrix_exp_generator(j, 1.0)
        assert np.abs(rotation_log(r) - j).max() < 1e-12

    def test_half_turn_rejected(self):
        r = euler_matrix(EulerAngles(0.0, math.pi, 0.0))
        with pytest.raises(ValueError, match="ambiguous"):
            rotation_log(r)

    @pytest.mark.parametrize("gap", [1e-10, 1e-7, 1e-4, 5e-3])
    def test_near_half_turn_round_trip(self, gap):
        # dividing by sin(angle) would lose about 1e-16 / gap**2 here
        rng = np.random.default_rng(31)
        for _ in range(50):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            j = (math.pi - gap) * np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
            r = matrix_exp_generator(j, 1.0)
            assert np.abs(rotation_log(r) - j).max() < 1e-12

    @pytest.mark.parametrize("gap", [0.5, 0.1, 0.03, 0.011])
    def test_round_trip_outside_near_half_turn_branch(self, gap):
        # an angle from arccos, divided by a sin from other numbers, lost
        # about 1e-16 / gap**2 here
        rng = np.random.default_rng(37)
        for _ in range(300):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            j = (math.pi - gap) * np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
            r = matrix_exp_generator(j, 1.0)
            assert np.abs(rotation_log(r) - j).max() <= 1e-13

    def test_half_turn_allowed_reproduces_powers(self):
        r = euler_matrix(EulerAngles(math.pi / 2, 0.0, math.pi / 2))
        log = rotation_log(r, allow_half_turn=True)
        assert np.abs(log + log.T).max() == 0.0
        assert abs(np.linalg.norm([log[2, 1], log[0, 2], log[1, 0]]) - math.pi) < 1e-15
        for i in range(5):
            power = np.linalg.matrix_power(r, i)
            assert np.abs(matrix_exp_generator(log, float(i)) - power).max() < 1e-12


class TestEquivalentContinuousAngles:
    def test_reference_step_rates(self):
        eff = equivalent_continuous_angles(REF_STEP)
        assert eff.theta == pytest.approx(0.03142109450364043, abs=1e-15)
        assert eff.phi + eff.psi == pytest.approx(0.06282668459390069, abs=1e-15)
        assert eff.phi == eff.psi

    def test_interpolates_integer_powers_exactly(self):
        eff = equivalent_continuous_angles(REF_STEP)
        s = euler_matrix(REF_STEP)
        powered = np.eye(3)
        for i in range(1, 120):
            powered = powered @ s
            assert np.abs(sp_general(float(i), eff) - powered).max() < 1e-12

    def test_rejects_unequal_outer_angles(self):
        with pytest.raises(ValueError, match="x-generator"):
            equivalent_continuous_angles(EulerAngles(0.1, 0.2, 0.3))

    @pytest.mark.parametrize("step", [(math.nan, 0.0, 1.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)])
    def test_names_a_non_finite_step(self, step):
        # a NaN step was reported as "r must be a finite 3x3 matrix", an internal value
        with pytest.raises(ValueError, match="^step angles must be finite"):
            equivalent_continuous_angles(step)

    def test_names_a_wrong_length_step(self):
        with pytest.raises(ValueError, match=r"^step: Euler angles must be a triple .* got 2 values"):
            equivalent_continuous_angles((1.0, 0.0))


pole_bases = st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0), (0.6, 0.0, 0.8)])
err_triples = st.tuples(*[st.floats(0.0, 2 * math.pi)] * 3)


@settings(max_examples=200, deadline=None)
@given(
    angle_triples,
    pole_bases,
    st.lists(st.tuples(err_triples, st.floats(-4.0, 4.0)), min_size=1, max_size=12),
)
def test_delta_batch_matches_scalar(angles, base, points):
    # t spans four periods either way of 0; only numpy's hypot and arctan2
    # may round differently from the plain-float path
    omega = math.hypot(angles[1], angles[0] + angles[2])
    cycle = 2 * math.pi / omega if omega > 1e-6 else 1.0
    errs = np.array([p[0] for p in points])
    ts = np.array([p[1] * cycle for p in points])
    batch = delta_batch(errs, ts, angles, base)
    assert batch.shape == (len(points), 2)
    for k in range(len(points)):
        scalar = delta_closed_form(errs[k], ts[k], angles, base)
        assert np.abs(batch[k] - scalar).max() <= 1e-14


def test_delta_batch_broadcasts_one_error_over_times():
    ts = np.linspace(0.0, 3.0, 7)
    batch = delta_batch(REF_ERR, ts, (1, 1, 1))
    assert batch.shape == (7, 2)
    for k, t in enumerate(ts):
        assert np.abs(batch[k] - delta_closed_form(REF_ERR, t, (1, 1, 1))).max() <= 1e-15
    assert delta_batch(REF_ERR, 1.5, (1, 1, 1)).shape == (2,)


class TestDeltaClosedForm:
    def test_zero_error(self):
        for t in (0.0, 0.5, 3.0):
            assert delta_closed_form((0, 0, 0), t, (1, 1, 1)) == (0.0, 0.0)

    def test_matches_simulation_through_exact_bridge(self):
        v, v_err = ref_pair()
        sim = simulate(v, v_err, REF_STEP, 200)
        eff = equivalent_continuous_angles(REF_STEP)
        for i in (0, 1, 7, 50, 131, 200):
            daz, del_ = delta_closed_form(REF_ERR, float(i), eff)
            assert daz == pytest.approx(sim.delta_az[i], abs=1e-9)
            assert del_ == pytest.approx(sim.delta_el[i], abs=1e-9)

    def test_periodicity(self):
        t_period = 2 * math.pi / SQRT5
        rng = np.random.default_rng(31)
        for _ in range(20):
            err = tuple(rng.uniform(0, 2 * math.pi, 3))
            for t in rng.uniform(0, 10, 5):
                a0 = delta_closed_form(err, t, (1, 1, 1))
                a1 = delta_closed_form(err, t + t_period, (1, 1, 1))
                assert abs(a0[0] - a1[0]) < 1e-9
                assert abs(a0[1] - a1[1]) < 1e-9

    def test_initial_error_recurs_at_period_multiples(self):
        t_period = 2 * math.pi / SQRT5
        base0 = delta_closed_form(REF_ERR, 0.0, (1, 1, 1))
        assert base0 == (0.0, pytest.approx(0.2, abs=1e-12))
        for k in (1, 2, 5):
            at_k = delta_closed_form(REF_ERR, k * t_period, (1, 1, 1))
            assert abs(at_k[0] - base0[0]) < 1e-9
            assert abs(at_k[1] - base0[1]) < 1e-9

    def test_configurable_base_vector(self):
        daz, del_ = delta_closed_form(REF_ERR, 0.0, (1, 1, 1), base=(0.0, 0.0, 1.0))
        # a y-rotation of the pole changes elevation by the rotation angle
        assert del_ == pytest.approx(0.2, abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(angle_triples, times, angle_triples)
    def test_bounded(self, err, t, angles):
        daz, del_ = delta_closed_form(err, t, angles)
        assert 0.0 <= daz <= math.pi + 1e-12
        assert 0.0 <= del_ <= math.pi + 1e-12

    def test_sup_over_ten_periods_equals_one_period(self):
        t_period = 2 * math.pi / SQRT5
        ts1 = np.linspace(0.0, t_period, 10**4, endpoint=False)
        ts10 = np.linspace(0.0, 10 * t_period, 10**4, endpoint=False)
        one = max(delta_closed_form(REF_ERR, t, (1, 1, 1))[1] for t in ts1)
        ten = max(delta_closed_form(REF_ERR, t, (1, 1, 1))[1] for t in ts10)
        assert abs(one - ten) < 1e-6


unit_bases = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda b: math.hypot(*b) > 1e-3)
zero_rate_triples = st.sampled_from(
    [(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (0.0, -0.0, 0.0), (0.5, 0.0, -0.5), (-1.25, -0.0, 1.25)]
)
# _samples takes omega > 0: time_averaged_error and case_series rule out omega = 0 first
moving_rate_triples = angle_triples.filter(lambda r: math.hypot(r[1], r[0] + r[2]) > 0.0)


def trajectory(err, angles, base, ts):
    """(delta_az, delta_el) at each t: one _samples call per channel on the phases omega * t, as in case_series."""
    family = _family(angles)
    start = _start_pair(err, base)
    phases = [family.omega * t for t in ts]
    return list(zip(*(_samples(idx, *start, family.na, family.nt, phases) for idx in (0, 1))))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    err_triples,
    moving_rate_triples,
    unit_bases,
    st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8),
)
def test_closed_form_closure_equals_delta_closed_form(err, angles, base, fractions):
    # one _samples call per channel serves every t of a trajectory, over five periods, and gives
    # delta_closed_form's value bit for bit
    base = tuple(c / math.hypot(*base) for c in base)
    omega = math.hypot(angles[1], angles[0] + angles[2])
    cycle = 2 * math.pi / omega if omega > 1e-6 else 1.0
    ts = [f * cycle for f in fractions]
    assert trajectory(err, angles, base, ts) == [delta_closed_form(err, t, angles, base) for t in ts]


def signed_zero_or(floats):
    """floats, or a zero of either sign."""
    return st.one_of(st.sampled_from([0.0, -0.0]), floats)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.tuples(*[signed_zero_or(st.floats(-7.0, 7.0))] * 3),
    zero_rate_triples,
    st.tuples(*[signed_zero_or(st.floats(-1.0, 1.0))] * 3).filter(lambda b: math.hypot(*b) > 1e-3),
    st.floats(-1e300, 1e300),
)
@example(err=(-0.0, 0.0, -0.0), angles=(0.0, 0.0, 0.0), base=(-1.0, -0.0, 0.0), t=2.5)
@example(err=(0.0, -0.0, 0.0), angles=(-0.0, 0.0, -0.0), base=(-0.0, -0.0, -1.0), t=-1.0)
def test_delta_closed_form_at_omega_zero_reads_the_start_pair(err, angles, base, t):
    # the family is the identity at every t, and delta_closed_form reads the start pair as it is: a
    # product by the identity would turn a -0.0 into +0.0
    base = tuple(c / math.hypot(*base) for c in base)
    expected = _delta_scalar(*_start_pair(err, base))
    assert [v.hex() for v in delta_closed_form(err, t, angles, base)] == [v.hex() for v in expected]


# -- stacked forms and non-finite input ---------------------------------------

stack_times = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12).map(np.array)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ts=stack_times, angles=angle_triples)
@example(ts=np.array([0.0, 1.5, -2.0]), angles=(0.5, 0.0, -0.5))
def test_sp_general_stack_equals_one_t_calls(ts, angles):
    stack = sp_general(ts, angles)
    assert stack.shape == ts.shape + (3, 3)
    for k, t in enumerate(ts):
        assert np.array_equal(stack[k], sp_general(float(t), angles))
    grid = ts.reshape(1, -1)
    assert np.array_equal(sp_general(grid, angles)[0], stack)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ts=stack_times, angles=angle_triples)
def test_matrix_exp_generator_stack_equals_one_t_calls(ts, angles):
    for j in (generator(angles), rotation_log(euler_matrix(angles), allow_half_turn=True), np.zeros((3, 3))):
        stack = matrix_exp_generator(j, ts)
        assert stack.shape == ts.shape + (3, 3)
        for k, t in enumerate(ts):
            assert np.array_equal(stack[k], matrix_exp_generator(j, float(t)))


def test_one_t_forms_keep_their_shape():
    assert sp_general(0.7, (1, 1, 1)).shape == (3, 3)
    assert sp_general(0.7, (0.5, 0.0, -0.5)).shape == (3, 3)
    assert matrix_exp_generator(generator((1, 1, 1)), 0.7).shape == (3, 3)
    assert matrix_exp_generator(np.zeros((3, 3)), 0.7).shape == (3, 3)


def test_error_series_rejects_nan_discrepancies():
    for column in ("delta_az", "delta_el"):
        cols = {"delta_az": np.zeros(3), "delta_el": np.zeros(3)}
        cols[column] = np.array([0.1, math.nan, 0.2])
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            ErrorSeries(t=np.arange(3.0), **cols)


@pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
def test_simulate_rejects_nan_vectors(pipeline):
    v, v_err = ref_pair()
    with pytest.raises(ValueError, match="unit"):
        simulate((math.nan, 0.0, 0.0), v_err, REF_STEP, 3, pipeline=pipeline)
    with pytest.raises(ValueError, match="unit"):
        simulate(v, (0.0, math.nan, 0.0), REF_STEP, 3, pipeline=pipeline)


@pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
def test_simulate_rejects_a_nan_step(pipeline):
    v, v_err = ref_pair()
    with pytest.raises(ValueError):
        simulate(v, v_err, (math.nan, 0.0, 0.0), 3, pipeline=pipeline)


@pytest.mark.parametrize("step", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf)])
@pytest.mark.parametrize("pipeline", ["euler", "su2", "closed"])
def test_simulate_names_a_non_finite_step(pipeline, step):
    v, v_err = ref_pair()
    with pytest.raises(ValueError, match="step angles must be finite"):
        simulate(v, v_err, step, 3, pipeline=pipeline)


NON_FINITE_RATES = [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -math.inf), (1e308, 0.0, 1e308)]


@pytest.mark.parametrize("rates", NON_FINITE_RATES)
def test_rate_functions_reject_non_finite_rates(rates):
    for call in (
        lambda: period(rates),
        lambda: sp_general(0.5, rates),
        lambda: generator(rates),
        lambda: generator_eigenvalues(rates),
        lambda: delta_closed_form(REF_ERR, 0.5, rates),
        lambda: delta_batch(REF_ERR, np.linspace(0.0, 1.0, 4), rates),
    ):
        with pytest.raises(ValueError, match="rotation rates and phi \\+ psi must be finite"):
            call()


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_family_functions_reject_a_non_finite_t(t):
    # each gave NaN matrices, or a math domain error from the scaled Euler step
    for call in (
        lambda: sp_general(t, (1, 1, 1)),
        lambda: sp_general(np.array([0.0, t]), (1, 1, 1)),
        lambda: matrix_exp_generator(generator((1, 1, 1)), t),
        lambda: matrix_exp_generator(generator((1, 1, 1)), np.array([0.0, t])),
        lambda: limit_convergence_check(t, (1, 1, 1), 4),
    ):
        with pytest.raises(ValueError, match="^t must be finite"):
            call()


def test_sp_general_rejects_an_overflowing_phase():
    # omega * t = inf would reach cos and sin, which give NaN with an invalid-value warning
    for t in (1e300, np.array([0.0, -1e300])):
        with pytest.raises(ValueError, match=r"omega \* t overflows"):
            sp_general(t, (1e10, 1e10, 1.0))
    with pytest.raises(ValueError, match=r"omega \* t overflows"):
        limit_convergence_check(1e300, (1e10, 1e10, 1.0), 2)


def test_matrix_exp_generator_rejects_an_overflowing_phase():
    # w * t = inf reached sin, which gave NaN matrices with overflow and invalid-value warnings
    j = generator((1e10, 1e10, 1.0))
    for t in (1e300, np.array([0.0, -1e300])):
        with pytest.raises(ValueError, match=r"w \* t overflows"):
            matrix_exp_generator(j, t)
    assert np.isfinite(matrix_exp_generator(j, 1e290)).all()


NON_FINITE_GENERATORS = [
    np.full((3, 3), math.nan),
    np.array([[0.0, math.nan, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    np.array([[0.0, math.inf, 0.0], [-math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]]),
]


@pytest.mark.parametrize("j", NON_FINITE_GENERATORS)
def test_matrix_exp_generator_rejects_a_non_finite_generator(j):
    # NaN compares False, so it passed the antisymmetry test; inf - inf warned
    with pytest.raises(ValueError, match="antisymmetric 3x3 matrix"):
        matrix_exp_generator(j, 1.0)


@pytest.mark.parametrize(
    "r", [np.eye(2), np.eye(3)[0], np.eye(4), np.full((3, 3), math.nan), np.diag([1.0, math.inf, 1.0])]
)
def test_rotation_log_rejects_what_is_not_a_finite_3x3_matrix(r):
    # a 2x2 raised IndexError, a NaN matrix returned NaN and an infinite one warned
    with pytest.raises(ValueError, match="^r must be a finite 3x3 matrix"):
        rotation_log(r)


# -- the plain-float rotation family ------------------------------------------

# error components with many zeros and quarter turns, bases on the axes, at the poles and in between
err_components = st.one_of(
    st.just(0.0), st.sampled_from([math.pi / 2, math.pi, 1.5 * math.pi]), st.floats(0.0, 2 * math.pi)
)
axis_bases = st.sampled_from(
    [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(angle_triples.filter(lambda r: math.hypot(r[1], r[0] + r[2]) > 0.0), st.floats(-30.0, 30.0))
@example(angles=(1.0, 0.0, 0.0), t=2.516)
def test_pair_floats_family_equals_sp_general_bit_for_bit(angles, t):
    # both square sin(wt/2) by one multiplication; float ** and numpy ** on a 0-d t call libm pow,
    # which differs from the product at wt/2 = 1.258, for example.  A unit base with zero error,
    # read as the clean vector, is one row of the family
    theta, a = angles[1], angles[0] + angles[2]
    omega = math.hypot(theta, a)
    clean = lambda *w: list(w[:3])
    rows = [_pair_floats(*b, *b, omega, a / omega, theta / omega, clean, t) for b in np.eye(3).tolist()]
    assert rows == sp_general(t, angles).tolist()
    assert rows == sp_general(np.array([t]), angles)[0].tolist()


def test_wrong_length_triples_name_the_argument():
    v, v_err = ref_pair()
    with pytest.raises(ValueError, match=r"Euler angles must be a triple .* got 2 values"):
        simulate(v, v_err, (0.1, 0.2), 3)
    with pytest.raises(ValueError, match=r"rotation rates must be a triple .* got 2 values"):
        period((1, 2))
    with pytest.raises(ValueError, match=r"rotation rates must be a triple .* got 4 values"):
        sp_general(0.5, (1, 2, 3, 4))
    with pytest.raises(ValueError, match=r"Euler angles must be a triple"):
        delta_closed_form((0.1, 0.2), 0.5, (1, 1, 1))
    with pytest.raises(ValueError, match=r"Euler angles must be a triple .* got 4 values"):
        euler_matrix((0.1, 0.2, 0.3, 0.4))


def test_wrong_length_step_names_the_step():
    v, v_err = ref_pair()
    for pipeline in ("euler", "su2", "closed"):
        with pytest.raises(ValueError, match=r"^step: Euler angles must be a triple .* got 2 values"):
            simulate(v, v_err, (0.1, 0.2), 3, pipeline=pipeline)


# -- non-finite input at the public kernels -------------------------------------


@pytest.mark.parametrize(
    "err,t",
    [
        ((math.nan, 0.0, 0.0), 0.5),
        ((0.1, -math.inf, 0.3), 0.5),
        ((0.1, 0.2, 0.3), math.inf),
        ((0.1, 0.2, 0.3), math.nan),
    ],
)
def test_delta_closed_form_rejects_non_finite_input(err, t):
    name = "err" if not all(map(math.isfinite, err)) else "t"
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        delta_closed_form(err, t, (1.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "err,t",
    [
        ((math.nan, 0.0, 0.0), [0.5]),
        ([(0.1, 0.2, 0.3), (0.1, math.inf, 0.3)], [0.5, 1.0]),
        ((0.1, 0.2, 0.3), [math.inf]),
        ([(0.1, 0.2, 0.3)] * 2, [0.5, -math.nan]),
    ],
)
def test_delta_batch_rejects_non_finite_input(err, t):
    # raised before any numpy arithmetic, so no RuntimeWarning is printed either
    name = "err" if not np.isfinite(err).all() else "t"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            delta_batch(err, t, (1.0, 1.0, 1.0))


# -- one-channel samples ----------------------------------------------------------

# the error triples that send (1, 0, 0), (0, 0, 1) and (0, 0, -1) onto a pole or keep them there
pole_errors = st.sampled_from(
    [(0.0, math.pi / 2, 0.0), (0.0, 1.5 * math.pi, 0.0), (0.3, math.pi, 1.1), (1.2, 0.0, 0.7), (math.pi / 2, math.pi / 2, 0.0)]
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    moving_rate_triples,
    st.one_of(axis_bases, pole_bases, unit_bases),
    st.one_of(st.just((0.0, 0.0, 0.0)), pole_errors, st.tuples(*[err_components] * 3)),
    st.lists(st.floats(0.0, 8.0), min_size=1, max_size=8),
)
@example(angles=(1.0, 1.0, 1.0), base=(1.0, 0.0, 0.0), err=(0.0, math.pi / 2, 0.0), fractions=[0.0, 0.25, 3.5])
@example(angles=(0.7, -1.3, 2.1), base=(0.0, 0.0, 1.0), err=(0.3, math.pi, 1.1), fractions=[0.0, 1.0, 7.75])
@example(angles=(1.0, 1.0, 1.0), base=(0.0, 0.0, -1.0), err=(0.0, 0.0, 0.0), fractions=[0.0, 0.5, 2.0])
@example(angles=(0.0, 0.0, 2.2250738585e-313), base=(1.0, 0.0, 0.0), err=(0.0, 0.0, 0.0), fractions=[0.0, 3.0])
def test_one_channel_closures_equal_delta_closed_form(angles, base, err, fractions):
    # time_averaged_error integrates one channel of _samples, so each must give its channel of the
    # pair bit for bit, at the poles and over eight periods; a tiny omega samples t in [0, 8]
    # instead, as its period overflows
    base = tuple(c / math.hypot(*base) for c in base)
    omega = math.hypot(angles[1], angles[0] + angles[2])
    cycle = 2 * math.pi / omega if omega > 1e-6 else 1.0
    ts = [f * cycle for f in fractions]
    pairs = [delta_closed_form(err, t, angles, base) for t in ts]
    assert [[v.hex() for v in pair] for pair in trajectory(err, angles, base, ts)] == [
        [v.hex() for v in pair] for pair in pairs
    ]


def test_one_channel_closures_equal_delta_closed_form_on_random_points():
    rng = np.random.default_rng(21)
    for _ in range(40):
        rates = tuple(rng.uniform(-3.0, 3.0, 3).tolist())
        base = rng.normal(size=3)
        base = tuple((base / np.linalg.norm(base)).tolist())
        err = tuple(rng.uniform(0.0, 2 * math.pi, 3).tolist())
        ts = rng.uniform(0.0, 40.0, 200).tolist()
        assert trajectory(err, rates, base, ts) == [delta_closed_form(err, t, rates, base) for t in ts]


# -- shapes and bases at the closed forms ------------------------------------------


@pytest.mark.parametrize("shape", [(4,), (5, 4), (2,), (5, 2), (3, 1), ()])
def test_delta_batch_rejects_err_whose_last_axis_is_not_three(shape):
    # the kernel reads columns 0, 1 and 2 of err's last axis, so any other length is rejected first
    with pytest.raises(ValueError, match=r"^err must have shape \[\.\.\., 3\]"):
        delta_batch(np.full(shape, 0.1), [0.5], (1.0, 1.0, 1.0))


@pytest.mark.parametrize("base", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 2.0), (math.nan, 0.0, 0.0)])
def test_closed_forms_name_a_base_that_is_not_a_unit_3_vector(base):
    with pytest.raises(ValueError, match="^base must be a unit 3-vector"):
        delta_closed_form(REF_ERR, 0.5, (1.0, 1.0, 1.0), base)
    with pytest.raises(ValueError, match="^base must be a unit 3-vector"):
        delta_batch(REF_ERR, [0.5], (1.0, 1.0, 1.0), base)


# -- one rule per kind of input ------------------------------------------------------

VECTOR_ENTRIES = {
    "find_extrema": ("base_vector", lambda v: find_extrema(v, (1.0, 1.0, 1.0), num_starts=2, seed=0)),
    "delta_closed_form": ("base", lambda v: delta_closed_form(REF_ERR, 0.5, (1.0, 1.0, 1.0), v)),
    "delta_batch": ("base", lambda v: delta_batch(REF_ERR, [0.5], (1.0, 1.0, 1.0), v)),
    "simulate v": ("v", lambda v: simulate(v, (1.0, 0.0, 0.0), REF_STEP, 3)),
    "simulate v_err": ("v_err", lambda v: simulate((1.0, 0.0, 0.0), v, REF_STEP, 3, pipeline="su2")),
    "qubit_to_matrix": ("v", qubit_to_matrix),
    "su2_from_axis": ("axis", lambda v: su2_from_axis(v, 0.3)),
}


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
@pytest.mark.parametrize("v", [1.0, (1.0, 0.0), (1.0, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0), (0.0, 0.0, 2.0)])
def test_every_vector_entry_names_a_vector_that_is_not_a_unit_3_vector(entry, v):
    name, call = VECTOR_ENTRIES[entry]
    with pytest.raises(ValueError, match=rf"^{name} must be a unit 3-vector\b.*unit norm"):
        call(v)


def test_rotation_axes_are_held_to_a_tighter_norm_than_vectors():
    # rotate_su2 checks that u is unitary within 1e-9, and near a half turn u is off by about twice the axis's
    # norm error, so an axis may be off by 1e-12 where a vector may be off by 1e-9
    off = (1.0 + 1e-10, 0.0, 0.0)
    assert qubit_to_matrix(off)[0, 1] == 1.0 + 1e-10
    with pytest.raises(ValueError, match=r"^axis must be a unit 3-vector"):
        su2_from_axis(off, 0.3)
    assert su2_from_axis((0.0, 0.0, 1.0 + 1e-13), 0.3).shape == (2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: period(1.0),
        lambda: euler_matrix(1.0),
        lambda: generator(1.0),
        lambda: su2_from_euler((1, 2)),
        lambda: estimate_period_numeric("el", 1.0, (1.0, 1.0, 1.0)),
    ],
)
def test_scalar_and_short_triples_are_named(call):
    with pytest.raises(ValueError, match=r"^(Euler angles|rotation rates) must be a triple \(phi, theta, psi\)"):
        call()


def test_limit_convergence_check_takes_an_integer_power():
    # the step is scaled by 1/s and the matrix raised to the power s, so s must be a whole number
    for s in (2.5, "3", None):
        with pytest.raises(ValueError, match=r"^s must be an integer, got "):
            limit_convergence_check(1.0, (1.0, 1.0, 1.0), s)
    with pytest.raises(ValueError, match=r"^s must be >= 1"):
        limit_convergence_check(1.0, (1.0, 1.0, 1.0), 0)
    assert limit_convergence_check(1.0, (1.0, 1.0, 1.0), np.int64(3)) == limit_convergence_check(1.0, (1.0, 1.0, 1.0), 3)


def test_limit_convergence_check_rejects_overflowing_step_angles():
    # phi + psi = 0 keeps omega * t = 10 finite while phi * t overflows
    with pytest.raises(ValueError, match=r"^rotation rates \(1e\+308, 1\.0, -1e\+308\): .* overflow for t = 10\.0$"):
        limit_convergence_check(10.0, (1e308, 1.0, -1e308), 4)


def test_limit_convergence_check_takes_one_time():
    with pytest.raises(ValueError, match=r"^t must be one finite number, got \[1\.0, 2\.0\]$"):
        limit_convergence_check([1.0, 2.0], (1, 1, 1), 3)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_sp_special_rejects_a_non_finite_t(t):
    with pytest.raises(ValueError, match=r"^t must be finite, got "):
        sp_special(t)


def test_sp_special_rejects_an_overflowing_phase():
    with pytest.raises(ValueError, match=r"^the phase sqrt\(5\) \* t overflows for t = 1e\+308$"):
        sp_special(1e308)


def test_delta_closed_form_parses_t_in_plain_floats():
    assert delta_closed_form(REF_ERR, "1", (1, 1, 1)) == delta_closed_form(REF_ERR, 1.0, (1, 1, 1))
    with pytest.raises(ValueError, match=r"^t must be one finite number, got \[1\.0, 2\.0\]$"):
        delta_closed_form(REF_ERR, [1.0, 2.0], (1, 1, 1))


# an input numpy cannot convert to floats is named, not passed through as numpy's own message
UNCONVERTIBLE_ARRAYS = {
    "sp_general t": (lambda: sp_general("x", (1, 1, 1)), r"^t must be finite numbers, got 'x'$"),
    "matrix_exp_generator t": (
        lambda: matrix_exp_generator(generator((1, 1, 1)), "x"),
        r"^t must be finite numbers, got 'x'$",
    ),
    "matrix_exp_generator j": (
        lambda: matrix_exp_generator("x", 1.0),
        r"^generator must be a finite antisymmetric 3x3 matrix, got 'x'$",
    ),
    "rotation_log r": (lambda: rotation_log("x"), r"^r must be a finite 3x3 matrix, got 'x'$"),
    "delta_batch err": (lambda: delta_batch("x", 1.0, (1, 1, 1)), r"^err must be finite numbers, got 'x'$"),
    "delta_batch ragged t": (
        lambda: delta_batch((0.0, 0.2, 0.0), [0.0, [1.0, 2.0]], (1, 1, 1)),
        r"^t must be finite numbers, got \[0\.0, \[1\.0, 2\.0\]\]$",
    ),
}


@pytest.mark.parametrize("entry", sorted(UNCONVERTIBLE_ARRAYS))
def test_arrays_numpy_cannot_convert_are_named(entry):
    call, message = UNCONVERTIBLE_ARRAYS[entry]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("w", [((1,), 2, 3), np.ones((2, 3)), (1.0, 2.0), "ab", None, (math.nan, 1.0, 0.0)])
def test_delta_pair_names_a_vector_that_is_not_three_finite_numbers(w):
    with pytest.raises(ValueError, match=r"^w must be three finite numbers, got "):
        delta_pair(w, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^w_err must be three finite numbers, got "):
        delta_pair((1.0, 0.0, 0.0), w)
