"""The two rotation pipelines and their frozen correspondence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochprop.bloch import EulerAngles
from blochprop.rotations import (
    AXIS_NORM_TOL,
    SIGMA_0,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _euler_entries,
    euler_matrix,
    rotate_euler,
    rotate_su2,
    su2_from_axis,
    su2_from_euler,
)

angle_triples = st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10))


def unit_vectors():
    return (
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


class TestSu2FromEuler:
    def test_identity(self):
        assert np.allclose(su2_from_euler(EulerAngles(0, 0, 0)), SIGMA_0)

    def test_half_turn_y(self):
        u = su2_from_euler(EulerAngles(0, math.pi, 0))
        assert np.allclose(u, [[0, -1], [1, 0]], atol=1e-15)

    def test_half_turn_z(self):
        u = su2_from_euler(EulerAngles(math.pi, 0, 0))
        assert np.allclose(u, [[-1j, 0], [0, 1j]], atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(angle_triples)
    def test_unitary_det_one(self, angles):
        u = su2_from_euler(EulerAngles(*angles))
        assert np.allclose(u.conj().T @ u, SIGMA_0, atol=1e-12)
        assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-12)


class TestSu2FromAxis:
    def test_zero_angle(self):
        assert np.allclose(su2_from_axis((0, 0, 1), 0.0), SIGMA_0)

    def test_z_axis_half_turn_matches_euler(self):
        u = su2_from_axis((0.0, 0.0, 1.0), math.pi)
        assert np.allclose(u, np.diag([-1j, 1j]), atol=1e-15)
        assert np.allclose(u, su2_from_euler(EulerAngles(math.pi, 0, 0)), atol=1e-15)

    def test_diagonal_axis_eighth_turn(self):
        ax = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        u = su2_from_axis(ax, math.pi / 8)
        assert np.allclose(u.conj().T @ u, SIGMA_0, atol=1e-12)
        # trace recovers the rotation angle: tr U = 2 cos(angle/2)
        assert np.trace(u).real == pytest.approx(2 * math.cos(math.pi / 16), abs=1e-12)
        # sixteen applications close a full turn up to the SU(2) sign
        w = np.linalg.matrix_power(u, 16)
        assert np.allclose(w, -SIGMA_0, atol=1e-12)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError, match="unit"):
            su2_from_axis((1.0, 1.0, 0.0), 0.3)

    def test_an_axis_just_inside_its_tolerance_gives_a_u_that_rotate_su2_accepts(self):
        axis = tuple((np.array([0.48, 0.6, 0.64]) * (1.0 + 0.99e-12)).tolist())
        assert 0.9e-12 < math.hypot(*axis) - 1.0 <= AXIS_NORM_TOL
        for angle in (math.pi, 3.0):
            w = rotate_su2((1.0, 0.0, 0.0), su2_from_axis(axis, angle))
            assert abs(np.linalg.norm(w) - 1.0) < 1e-11

    @pytest.mark.parametrize("angle, accepted", [(math.pi, False), (3.0, False), (0.5, True)])
    def test_an_axis_off_by_1e_9_would_give_a_u_that_rotate_su2_refuses_near_a_half_turn(self, angle, accepted):
        # why AXIS_NORM_TOL is stricter than VALIDATION_TOL: u u^H is off the identity by
        # sin(angle/2)^2 (|axis|^2 - 1), and rotate_su2 checks that u is unitary within VALIDATION_TOL
        n = np.array([0.48, 0.6, 0.64]) * (1.0 + 1e-9)
        half = angle / 2.0
        u = math.cos(half) * SIGMA_0 - 1j * math.sin(half) * (n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
        if accepted:
            assert rotate_su2((1.0, 0.0, 0.0), u).shape == (3,)
        else:
            with pytest.raises(ValueError, match="^u must be a unitary matrix"):
                rotate_su2((1.0, 0.0, 0.0), u)

    def test_z_axis_action_matches_euler_action(self):
        v = np.array([1.0, 0.0, 0.0])
        for alpha in (0.3, 1.2, -2.0):
            w1 = rotate_su2(v, su2_from_axis((0, 0, 1), alpha))
            w2 = rotate_su2(v, su2_from_euler(EulerAngles(alpha, 0, 0)))
            assert np.allclose(w1, w2, atol=1e-12)


class TestEulerMatrix:
    def test_identity(self):
        assert np.allclose(euler_matrix(EulerAngles(0, 0, 0)), np.eye(3))

    def test_middle_factor_only(self):
        c, s = math.cos(0.2), math.sin(0.2)
        expected = np.array([[c, 0, -s], [0, 1, 0], [s, 0, c]])
        assert np.allclose(euler_matrix(EulerAngles(0, 0.2, 0)), expected, atol=1e-15)

    def test_factor_composition(self):
        a = EulerAngles(0.3, 0.7, -0.4)
        expected = (
            euler_matrix(EulerAngles(0, 0, a.psi))
            @ euler_matrix(EulerAngles(0, a.theta, 0))
            @ euler_matrix(EulerAngles(a.phi, 0, 0))
        )
        assert np.allclose(euler_matrix(a), expected, atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(angle_triples)
    def test_orthogonal_det_one(self, angles):
        s = euler_matrix(EulerAngles(*angles))
        assert np.allclose(s.T @ s, np.eye(3), atol=1e-12)
        assert np.linalg.det(s) == pytest.approx(1.0, abs=1e-12)


def _z_rows(a):
    return [[math.cos(a), math.sin(a), 0.0], [-math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]]


def _y_rows(a):
    return [[math.cos(a), 0.0, -math.sin(a)], [0.0, 1.0, 0.0], [math.sin(a), 0.0, math.cos(a)]]


def _float_matmul(a, b):
    out = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for k in range(3):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc
    return out


# edge angles and values past 2 pi, mixed with plain floats
euler_reference_angles = st.sampled_from([0.0, math.pi, -math.pi, 2.5 * math.pi, -7.0, 13.0]) | st.floats(-20.0, 20.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(euler_reference_angles, euler_reference_angles, euler_reference_angles))
def test_euler_matrix_equals_the_plain_float_product(angles):
    """euler_matrix is S3(psi) @ S2(theta) @ S1(phi) multiplied out in plain floats, bit for bit.

    The reference uses no BLAS, so this pins euler_matrix's bytes whatever
    matrix-product kernel numpy runs on.  Signed zeros compare equal.
    """
    phi, theta, psi = angles
    expected = _float_matmul(_float_matmul(_z_rows(psi), _y_rows(theta)), _z_rows(phi))
    assert euler_matrix(EulerAngles(*angles)).tolist() == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(euler_reference_angles, euler_reference_angles, euler_reference_angles), min_size=1, max_size=12))
def test_stacked_euler_entries_equal_one_triple_at_a_time(triples):
    """A stack runs on numpy arrays, one triple on Python floats; the bytes agree."""
    stack = np.array(triples).reshape(len(triples), 1, 3)
    entries = _euler_entries(stack)
    for k, angles in enumerate(triples):
        assert entries[:, :, k, 0].tobytes() == euler_matrix(angles).tobytes()


class TestRotateConventions:
    def test_row_action_single_y_rotation(self):
        w = rotate_euler(np.array([1.0, 0.0, 0.0]), euler_matrix(EulerAngles(0, 0.2, 0)))
        assert np.allclose(w, [0.9800665778412416, 0.0, -0.19866933079506122], atol=1e-12)

    def test_row_action_from_pole(self):
        w = rotate_euler(np.array([0.0, 0.0, 1.0]), euler_matrix(EulerAngles(0, 0.2, 0)))
        assert np.allclose(w, [0.19866933079506122, 0.0, 0.9800665778412416], atol=1e-12)

    def test_su2_conjugation_single_y_rotation(self):
        w = rotate_su2(np.array([1.0, 0.0, 0.0]), su2_from_euler(EulerAngles(0, 0.2, 0)))
        assert np.allclose(w, [0.9800665778412416, 0.0, -0.19866933079506122], atol=1e-12)

    def test_identity_action(self):
        v = np.array([0.0, 1.0, 0.0])
        assert np.allclose(rotate_su2(v, SIGMA_0), v)
        assert np.allclose(rotate_euler(v, np.eye(3)), v)

    @settings(max_examples=400, deadline=None)
    @given(unit_vectors(), angle_triples)
    def test_pipelines_agree_pointwise(self, v, angles):
        a = EulerAngles(*angles)
        w_su2 = rotate_su2(v, su2_from_euler(a))
        w_eul = rotate_euler(v, euler_matrix(a))
        assert np.allclose(w_su2, w_eul, atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(unit_vectors(), angle_triples)
    def test_norm_preservation(self, v, angles):
        a = EulerAngles(*angles)
        assert np.linalg.norm(rotate_euler(v, euler_matrix(a))) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(rotate_su2(v, su2_from_euler(a))) == pytest.approx(1.0, abs=1e-12)

    def test_iterated_trajectories_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            a = EulerAngles(*rng.uniform(-2, 2, 3))
            u, s = su2_from_euler(a), euler_matrix(a)
            w1, w2 = v.copy(), v.copy()
            for _ in range(25):
                w1 = rotate_su2(w1, u)
                w2 = rotate_euler(w2, s)
                assert np.allclose(w1, w2, atol=1e-9)

    def test_group_law(self):
        a = EulerAngles(0.4, 1.1, -0.2)
        v = np.array([0.0, 1.0, 0.0])
        s = euler_matrix(a)
        twice = rotate_euler(rotate_euler(v, s), s)
        assert np.allclose(twice, rotate_euler(v, s @ s), atol=1e-12)


@pytest.mark.parametrize("axis", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
def test_su2_from_axis_rejects_non_finite_axis(axis):
    with pytest.raises(ValueError, match="unit norm"):
        su2_from_axis(axis, 0.3)


@pytest.mark.parametrize("angles", [(math.inf, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, -math.inf)])
def test_euler_factories_reject_non_finite_angles(angles):
    for factory in (euler_matrix, su2_from_euler):
        with pytest.raises(ValueError, match=r"^Euler angles must be finite, got \("):
            factory(angles)


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_su2_from_axis_rejects_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match=r"^angle must be finite, got "):
        su2_from_axis((0.0, 0.0, 1.0), angle)


@pytest.mark.parametrize("v", [((1,), 2, 3), np.ones((2, 3)), (math.nan, 0.0, 0.0), (2.0, 0.0, 0.0)])
def test_rotate_euler_names_a_vector_that_is_not_a_unit_3_vector(v):
    with pytest.raises(ValueError, match=r"^v must be a unit 3-vector: "):
        rotate_euler(v, np.eye(3))


@pytest.mark.parametrize("s", [np.full((3, 3), math.nan), np.eye(2), "x"])
def test_rotate_euler_names_a_matrix_that_is_not_finite_3x3(s):
    with pytest.raises(ValueError, match=r"^s must be a finite 3x3 matrix, got "):
        rotate_euler((1.0, 0.0, 0.0), s)


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_matrix((10**400, 0.0, 0.0)),
        lambda: euler_matrix(("x", 0.0, 0.0)),
        lambda: su2_from_euler((0.0, 10**400, 0.0)),
    ],
)
def test_triples_that_float_rejects_are_named(call):
    # an int beyond the float range, or a string that is no number, fails float() inside the triple
    with pytest.raises(ValueError, match=r"^Euler angles must be a triple \(phi, theta, psi\), got "):
        call()


def test_overflowing_ints_are_named():
    with pytest.raises(ValueError, match=r"^angle must be one finite number, got "):
        su2_from_axis((0.0, 0.0, 1.0), 10**400)
    with pytest.raises(ValueError, match=r"^axis must be a unit 3-vector: "):
        su2_from_axis((10**400, 0.0, 0.0), 1.0)
