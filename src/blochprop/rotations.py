"""The two rotation pipelines: SU(2) conjugation and 3x3 Euler matrices.

Both pipelines realise the same z-y-z rotation and are interchangeable:

* ``rotate_su2(v, su2_from_euler(a))`` conjugates the qubit matrix of ``v``
  by the unitary U(phi, theta, psi).
* ``rotate_euler(v, euler_matrix(a))`` multiplies ``v`` as a row vector
  onto S(phi, theta, psi) = S3(psi) @ S2(theta) @ S1(phi).

The correspondence was pinned down numerically: conjugation by U equals the
row-vector action v @ S exactly (not the transposed action).  The anchor is
the single rotation (0, 0.2, 0) applied to (1, 0, 0), which both pipelines
send to (cos 0.2, 0, -sin 0.2) = (0.980067, 0, -0.198669).  Equivalently,
as an operator on column vectors both pipelines apply
Rz(phi) @ Ry(theta) @ Rz(psi).
"""

from __future__ import annotations

from math import cos, isfinite, sin

import numpy as np

from .bloch import _as_array, matrix_to_cartesian, qubit_to_matrix
from .scalar import VALIDATION_TOL, _euler_floats, _euler_products, _finite_float, _finite_triple, _require_unit

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# stricter than VALIDATION_TOL: rotate_su2 checks that u is unitary within VALIDATION_TOL, and u u^H is
# off the identity by sin(angle/2)^2 (|axis|^2 - 1), about twice the axis's norm error near a half turn:
# a U whose axis is off by 1e-9 is refused at angles 3.0 and pi, and accepted at 0.5
AXIS_NORM_TOL = 1e-12


def su2_from_euler(angles) -> np.ndarray:
    """SU(2) matrix U(phi, theta, psi) for a z-y-z rotation."""
    phi, theta, psi = _finite_triple(angles, "Euler angles", "Euler angles")
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    # the half-phases (phi +- psi) / 2; where phi +- psi overflows, each angle is halved first
    a, d = phi + psi, phi - psi
    a = 0.5 * a if isfinite(a) else 0.5 * phi + 0.5 * psi
    d = 0.5 * d if isfinite(d) else 0.5 * phi - 0.5 * psi
    return np.array(
        [
            [np.exp(-1j * a) * c, -np.exp(-1j * d) * s],
            [np.exp(1j * d) * s, np.exp(1j * a) * c],
        ]
    )


def su2_from_axis(axis, angle: float) -> np.ndarray:
    """SU(2) rotation about a unit axis: cos(a/2) I - i sin(a/2) (n . sigma)."""
    n = _require_unit(axis, "axis", AXIS_NORM_TOL)
    half = _finite_float(angle, "angle") / 2.0
    n_dot_sigma = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return cos(half) * SIGMA_0 - 1j * sin(half) * n_dot_sigma


def rotate_su2(v, u: np.ndarray) -> np.ndarray:
    """Rotate a unit vector by conjugating its qubit matrix by a unitary 2x2 matrix: U M U^dagger."""
    u = _rotation_matrix(u, "u", 2, complex)
    return matrix_to_cartesian(u @ qubit_to_matrix(v) @ u.conj().T)


def _euler_entries(angles: np.ndarray) -> np.ndarray:
    """r[i, j, ...]: entry (i, j) of S3(psi) @ S2(theta) @ S1(phi) for a stack angles[..., 3], as one array.

    Elementwise, so no BLAS kernel changes its bytes, and equal to _euler_floats of each triple: float
    arithmetic rounds as numpy's float64 does, and math's cos and sin have equalled numpy's bit for bit
    on every host tried, with or without numpy's AVX-512 loops.
    """
    # one contiguous row per angle: numpy is faster on contiguous operands
    a = np.ascontiguousarray(angles.transpose((angles.ndim - 1,) + tuple(range(angles.ndim - 1))))
    c, s = np.cos(a), np.sin(a)
    return np.array(_euler_products(c[0], c[1], c[2], s[0], s[1], s[2]))


def _row_times(b, r: np.ndarray) -> np.ndarray:
    """Row vector b times the matrices r[3, 3, ...]: b[0] r[0] + b[1] r[1] + b[2] r[2], in that order."""
    return b[0] * r[0] + b[1] * r[1] + b[2] * r[2]


def euler_matrix(angles) -> np.ndarray:
    """Three-factor z-y-z rotation matrix S3(psi) @ S2(theta) @ S1(phi).

    Acts on row vectors: w = v @ S.
    """
    return np.array(_euler_floats(*_finite_triple(angles, "Euler angles", "Euler angles")))


def rotate_euler(v, s: np.ndarray) -> np.ndarray:
    """Row-vector rotation w = v @ S of a unit vector by a 3x3 rotation matrix."""
    return np.array(_require_unit(v, "v")) @ _rotation_matrix(s, "s")


def _rotation_matrix(x, name: str, size: int = 3, dtype=float) -> np.ndarray:
    """x as a size x size rotation of ``dtype``, the one check of a rotation matrix; else a ValueError naming x."""
    what = f"a finite {size}x{size} matrix"
    m = _as_array(x, name, what, dtype)
    if m.shape != (size, size) or not np.isfinite(m).all():
        raise ValueError(f"{name} must be {what}, got shape {m.shape}")
    kind, sign = ("rotation", " and determinant +1") if dtype is float else ("unitary", "")
    # every real and imaginary part within 1 + VALIDATION_TOL of zero first, by comparisons alone, so that no
    # product overflows; then rows orthonormal within VALIDATION_TOL, and a real matrix a rotation, not a reflection
    if not (
        np.abs([m.real, m.imag]).max() <= 1.0 + VALIDATION_TOL
        and np.abs(m @ m.conj().T - np.eye(size)).max() <= VALIDATION_TOL
        and (not sign or np.linalg.det(m) > 0.0)
    ):
        raise ValueError(f"{name} must be a {kind} matrix: orthogonal rows of unit norm{sign}")
    return m
