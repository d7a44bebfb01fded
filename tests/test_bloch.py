"""Coordinate conversions, qubit matrices, and wrapped angle distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochprop.bloch import (
    EulerAngles,
    Spherical,
    angle_distance,
    cartesian_to_spherical,
    matrix_to_cartesian,
    qubit_to_matrix,
    spherical_to_cartesian,
)

finite_angles = st.floats(-50.0, 50.0)


def unit_vectors():
    return (
        st.tuples(
            st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
        )
        .map(np.array)
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
        .map(lambda v: v / np.linalg.norm(v))
    )


class TestCartesianToSpherical:
    def test_x_axis(self):
        s = cartesian_to_spherical((1.0, 0.0, 0.0))
        assert s.r == pytest.approx(1.0, abs=1e-15)
        assert s.theta_el == pytest.approx(math.pi / 2, abs=1e-15)
        assert s.phi_az == 0.0

    def test_north_pole_azimuth_is_zero(self):
        s = cartesian_to_spherical((0.0, 0.0, 1.0))
        assert s == Spherical(1.0, 0.0, 0.0)

    def test_south_pole(self):
        s = cartesian_to_spherical((0.0, 0.0, -1.0))
        assert s.theta_el == pytest.approx(math.pi, abs=1e-15)
        assert s.phi_az == 0.0

    def test_tilted_reference_vector(self):
        # the vector produced by a single 0.2 y-rotation of (1,0,0)
        s = cartesian_to_spherical((0.9800665778412416, 0.0, -0.19866933079506122))
        assert s.r == pytest.approx(1.0, abs=1e-12)
        assert s.theta_el == pytest.approx(math.pi / 2 + 0.2, abs=1e-12)
        assert s.phi_az == 0.0

    def test_zero_vector_degenerate(self):
        assert cartesian_to_spherical((0.0, 0.0, 0.0)) == Spherical(0.0, 0.0, 0.0)

    def test_elevation_range_and_azimuth_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(size=3)
            s = cartesian_to_spherical(v)
            assert 0.0 <= s.theta_el <= math.pi
            assert -math.pi < s.phi_az <= math.pi


class TestSphericalToCartesian:
    def test_equator(self):
        v = spherical_to_cartesian(Spherical(1.0, math.pi / 2, 0.0))
        assert np.allclose(v, [1.0, 0.0, 0.0], atol=1e-15)

    def test_pole_collapses_azimuth(self):
        for az in (0.0, 1.0, -2.5):
            v = spherical_to_cartesian(Spherical(1.0, 0.0, az))
            assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-15)

    def test_tilted_reference_vector(self):
        v = spherical_to_cartesian(Spherical(1.0, math.pi / 2 + 0.2, 0.0))
        assert np.allclose(v, [0.9800665778412416, 0.0, -0.19866933079506122], atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(unit_vectors())
    def test_round_trip(self, v):
        w = spherical_to_cartesian(cartesian_to_spherical(v))
        assert np.allclose(w, v, atol=1e-12)


class TestQubitMatrix:
    def test_pauli_z(self):
        m = qubit_to_matrix((0.0, 0.0, 1.0))
        assert np.allclose(m, [[1, 0], [0, -1]], atol=1e-15)

    def test_pauli_x(self):
        m = qubit_to_matrix((1.0, 0.0, 0.0))
        assert np.allclose(m, [[0, 1], [1, 0]], atol=1e-15)

    def test_pauli_y(self):
        m = qubit_to_matrix((0.0, 1.0, 0.0))
        assert np.allclose(m, [[0, -1j], [1j, 0]], atol=1e-15)

    def test_eigenvalues_are_unit(self):
        m = qubit_to_matrix(np.array([0.6, 0.0, 0.8]))
        ev = sorted(np.linalg.eigvalsh(m))
        assert ev == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit norm"):
            qubit_to_matrix((1.0, 1.0, 0.0))

    def test_matrix_to_cartesian_pauli(self):
        assert np.allclose(matrix_to_cartesian(np.array([[1, 0], [0, -1]], dtype=complex)), [0, 0, 1])
        assert np.allclose(matrix_to_cartesian(np.array([[0, 1], [1, 0]], dtype=complex)), [1, 0, 0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_to_cartesian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_traceful(self):
        with pytest.raises(ValueError, match="Hermitian"):
            matrix_to_cartesian(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))

    @settings(max_examples=300, deadline=None)
    @given(unit_vectors())
    def test_round_trip(self, v):
        w = matrix_to_cartesian(qubit_to_matrix(v))
        assert np.allclose(w, v, atol=1e-12)


class TestAngleDistance:
    def test_full_wrap(self):
        assert angle_distance(0.0, 2 * math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_wraparound_shorter_arc(self):
        assert angle_distance(-3.0, 3.0) == pytest.approx(2 * math.pi - 6.0, abs=1e-12)

    def test_antipodal(self):
        assert angle_distance(0.0, math.pi) == pytest.approx(math.pi, abs=1e-15)

    @settings(max_examples=500, deadline=None)
    @given(finite_angles, finite_angles)
    def test_symmetric_and_bounded(self, a, b):
        d = angle_distance(a, b)
        assert d == angle_distance(b, a)
        assert 0.0 <= d <= math.pi + 1e-12

    @settings(max_examples=500, deadline=None)
    @given(finite_angles, finite_angles, st.integers(-3, 3))
    def test_shift_invariance(self, a, b, k):
        d0 = angle_distance(a, b)
        d1 = angle_distance(a + 2 * math.pi * k, b)
        assert d1 == pytest.approx(d0, abs=1e-9)

    @settings(max_examples=500, deadline=None)
    @given(finite_angles, finite_angles, finite_angles)
    def test_triangle_inequality(self, a, b, c):
        assert angle_distance(a, c) <= angle_distance(a, b) + angle_distance(b, c) + 1e-12


def test_euler_angles_fields():
    a = EulerAngles(0.1, 0.2, 0.3)
    assert (a.phi, a.theta, a.psi) == (0.1, 0.2, 0.3)


class TestStackedQubitMatrices:
    def stack(self, k=7, seed=0):
        rng = np.random.default_rng(seed)
        vs = rng.normal(size=(k, 3))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        return np.stack([qubit_to_matrix(v) for v in vs])

    def test_stack_equals_per_matrix_calls(self):
        ms = self.stack()
        qs = matrix_to_cartesian(ms)
        assert qs.shape == (7, 3)
        for m, q in zip(ms, qs):
            assert np.array_equal(q, matrix_to_cartesian(m))
        assert np.array_equal(matrix_to_cartesian(ms.reshape(7, 1, 2, 2)), qs.reshape(7, 1, 3))

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_one_bad_matrix_fails_the_stack(self, k):
        ms = self.stack()
        ms[k, 0, 1] += 0.1
        with pytest.raises(ValueError, match="Hermitian traceless"):
            matrix_to_cartesian(ms)

    def test_rejects_a_nan_matrix(self):
        ms = self.stack()
        ms[2, 0, 0] = math.nan
        with pytest.raises(ValueError, match="Hermitian traceless"):
            matrix_to_cartesian(ms)

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3, 2), (2,), (2, 3)])
    def test_rejects_non_2x2_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            matrix_to_cartesian(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("v", [(math.nan, 0.0, 0.0), (0.0, 0.0, math.inf), (math.nan, math.nan, math.nan)])
def test_qubit_to_matrix_rejects_non_finite(v):
    with pytest.raises(ValueError, match="unit norm"):
        qubit_to_matrix(v)


# the last holds an int beyond the float range
NOT_THREE_FINITE = [((1,), 2, 3), np.ones((2, 3)), (1.0, 2.0), (1.0, 2.0, 3.0, 4.0), "ab", None, 5.0, (10**400, 0, 0)]


@pytest.mark.parametrize("v", NOT_THREE_FINITE + [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)])
def test_cartesian_to_spherical_names_what_is_not_three_finite_numbers(v):
    with pytest.raises(ValueError, match=r"^v must be three finite numbers, got "):
        cartesian_to_spherical(v)


@pytest.mark.parametrize("s", NOT_THREE_FINITE + [(1.0, math.nan, 0.0), (math.inf, 0.0, 0.0)])
def test_spherical_to_cartesian_names_what_is_not_three_finite_numbers(s):
    with pytest.raises(ValueError, match=r"^s must be three finite numbers, got "):
        spherical_to_cartesian(s)


@pytest.mark.parametrize("bad", ["a", (1, 2), None, math.nan, math.inf, pytest.param(10**400, id="int_beyond_float")])
def test_angle_distance_names_what_is_not_one_finite_number(bad):
    with pytest.raises(ValueError, match=r"^a must be (one )?finite"):
        angle_distance(bad, 0.0)
    with pytest.raises(ValueError, match=r"^b must be (one )?finite"):
        angle_distance(0.0, bad)
