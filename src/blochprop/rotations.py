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

from .bloch import matrix_to_cartesian, qubit_to_matrix

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

AXIS_NORM_TOL = 1e-12


def su2_from_euler(angles) -> np.ndarray:
    """SU(2) matrix U(phi, theta, psi) for a z-y-z rotation."""
    phi, theta, psi = (float(a) for a in angles)
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    return np.array(
        [
            [np.exp(-0.5j * (phi + psi)) * c, -np.exp(-0.5j * (phi - psi)) * s],
            [np.exp(0.5j * (phi - psi)) * s, np.exp(0.5j * (phi + psi)) * c],
        ]
    )


def su2_from_axis(axis, angle: float) -> np.ndarray:
    """SU(2) rotation about a unit axis: cos(a/2) I - i sin(a/2) (n . sigma)."""
    n = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(n))
    if not abs(norm - 1.0) <= AXIS_NORM_TOL:
        raise ValueError(f"rotation axis must be unit norm, got |n| = {norm!r}")
    half = float(angle) / 2.0
    n_dot_sigma = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return cos(half) * SIGMA_0 - 1j * sin(half) * n_dot_sigma


def rotate_su2(v, u: np.ndarray) -> np.ndarray:
    """Rotate a unit vector by conjugating its qubit matrix: U M U^dagger."""
    m = qubit_to_matrix(v)
    u = np.asarray(u, dtype=complex)
    return matrix_to_cartesian(u @ m @ u.conj().T)


def _euler_entries(angles: np.ndarray) -> np.ndarray:
    """r[i, j, ...]: entry (i, j) of S3(psi) @ S2(theta) @ S1(phi) for angles[..., 3], as one array."""
    return np.array(_euler_rows(angles))


def _euler_rows(angles: np.ndarray) -> tuple:
    """Entries r[i][j] of S3(psi) @ S2(theta) @ S1(phi) for angles[..., 3], as nested tuples.

    The one copy of the z-y-z entries: elementwise, so no BLAS kernel changes its bytes.  One triple
    runs on Python floats, far cheaper than numpy scalars, and its entries are floats; a stack's
    entries are arrays [...].  Float arithmetic rounds as numpy's float64 does, and math's cos and
    sin have equalled numpy's bit for bit on every host tried, with or without numpy's AVX-512 loops.
    """
    if angles.ndim == 1:
        return _euler_floats(*angles.tolist())
    # one contiguous row per angle: numpy is faster on contiguous operands
    a = np.ascontiguousarray(angles.transpose((angles.ndim - 1,) + tuple(range(angles.ndim - 1))))
    c, s = np.cos(a), np.sin(a)
    return _euler_products(c[0], c[1], c[2], s[0], s[1], s[2])


def _euler_floats(phi: float, theta: float, psi: float) -> tuple:
    """_euler_rows of one triple of floats, with no numpy call."""
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


def _triple(x, name: str) -> tuple[float, float, float]:
    """x as three floats; a ValueError that names x when it has another length."""
    x = tuple(float(a) for a in x)
    if len(x) != 3:
        raise ValueError(f"{name} must be a triple (phi, theta, psi), got {len(x)} values {x!r}")
    return x


def _finite_triple(x, name: str, finite_name: str) -> tuple[float, float, float]:
    """_triple(x, name), and a ValueError that names ``finite_name`` unless all three are finite."""
    x = _triple(x, name)
    if not all(map(isfinite, x)):
        raise ValueError(f"{finite_name} must be finite, got {x!r}")
    return x


def _row_times(b, r: np.ndarray) -> np.ndarray:
    """Row vector b times the matrices r[3, 3, ...]: b[0] r[0] + b[1] r[1] + b[2] r[2], in that order."""
    return b[0] * r[0] + b[1] * r[1] + b[2] * r[2]


def euler_matrix(angles) -> np.ndarray:
    """Three-factor z-y-z rotation matrix S3(psi) @ S2(theta) @ S1(phi).

    Acts on row vectors: w = v @ S.
    """
    return _euler_entries(np.array(_triple(angles, "Euler angles")))


def rotate_euler(v, s: np.ndarray) -> np.ndarray:
    """Row-vector rotation w = v @ S."""
    return np.asarray(v, dtype=float) @ np.asarray(s, dtype=float)
