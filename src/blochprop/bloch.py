"""Coordinates, qubit matrices, and angle arithmetic on the Bloch sphere.

Conventions used throughout the package:

* Spherical coordinates follow ISO 80000-2: ``r`` is the vector norm,
  ``theta_el`` is the elevation (polar) angle measured from the +z axis in
  [0, pi], and ``phi_az`` is the azimuth measured from the +x axis in the
  atan2 range (-pi, pi].
* Within ``POLE_EPS`` of a pole the azimuth is defined to be exactly 0, so
  downstream discrepancy values stay deterministic.
* Angles are compared on the circle: ``angle_distance`` returns the shorter
  arc between two directions and is therefore bounded by pi.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import atan2, cos, hypot, isfinite, pi, sin
from typing import NamedTuple

import numpy as np

from .scalar import _NOT_A_FLOAT, POLE_EPS, VALIDATION_TOL, _complex, _finite_float, _finite_vector, _require_unit


class Spherical(NamedTuple):
    """ISO 80000-2 spherical triple (r, theta_el, phi_az)."""

    r: float
    theta_el: float
    phi_az: float


class EulerAngles(NamedTuple):
    """z-y-z rotation triple (phi, theta, psi), radians.

    Canonical ranges (0 <= phi <= 2pi, 0 <= theta <= pi, 0 <= psi <= 4pi)
    are documented but not enforced: the extrema search deliberately sweeps
    all three over [0, 2pi).
    """

    phi: float
    theta: float
    psi: float


def cartesian_to_spherical(v) -> Spherical:
    """Convert a finite 3-vector whose norm is a float to ISO spherical coordinates.

    The zero vector maps to Spherical(0, 0, 0); this degenerate result is
    documented rather than an error.  A vector whose norm is beyond the float
    range, such as (1e308, 1e308, 1e308), raises a ValueError that names v.
    """
    x, y, z = _finite_vector(v, "v")
    rho = hypot(x, y)
    r = hypot(rho, z)
    if not isfinite(r):
        raise ValueError(f"v must have a norm within the float range, got {v!r}")
    if r == 0.0:
        return Spherical(0.0, 0.0, 0.0)
    theta_el = atan2(rho, z)
    phi_az = 0.0 if rho < POLE_EPS else atan2(y, x)
    return Spherical(r, theta_el, phi_az)


def spherical_to_cartesian(s) -> np.ndarray:
    """Inverse of cartesian_to_spherical; accepts any finite (r, theta_el, phi_az)."""
    r, theta_el, phi_az = _finite_vector(s, "s")
    st = sin(theta_el)
    return np.array([r * st * cos(phi_az), r * st * sin(phi_az), r * cos(theta_el)])


def qubit_to_matrix(v) -> np.ndarray:
    """Matrix form of a Bloch vector: M = [[z, x-iy], [x+iy, -z]].

    The input must be unit norm (a pure state); M is then Hermitian and
    traceless with eigenvalues +-1.
    """
    x, y, z = _require_unit(v, "v")
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]])


def _as_array(x, name: str, what: str, dtype=float) -> np.ndarray:
    """x as an array of ``dtype``, the one conversion of an array input; else a ValueError that names x."""
    try:
        # numpy would read a str or bytes of digits as a number, and None as NaN; and it would cast a
        # complex x to a real dtype, dropping the imaginary part with only a warning.  An int beyond
        # int64 makes an object array, whose complex elements only their types show
        if not isinstance(x, (str, bytes, type(None))):
            a = np.asarray(x)
            kind = a.dtype.kind
            if dtype is complex or not (kind == "c" or kind == "O" and any(map(_complex, map(type, a.flat)))):
                return a.astype(dtype, copy=False)
    except _NOT_A_FLOAT:
        pass
    raise ValueError(f"{name} must be {what}, got {x!r}")


@contextmanager
def _no_overflow(name: str):
    """Run a block in which a numpy overflow raises a ValueError that names ``name``, the input too large for it."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{name} has entries too large to compute with") from None


def _require_unit_norm(norm) -> None:
    """Raise unless every norm of a computed stack of qubit vectors is within VALIDATION_TOL of 1; NaN fails."""
    bad = ~(np.abs(norm - 1.0) <= VALIDATION_TOL)
    if bad.any():
        raise ValueError(f"qubit vector must be unit norm, got |v| = {float(norm[bad][0])!r}")


def matrix_to_cartesian(m) -> np.ndarray:
    """Recover the Bloch vectors [..., 3] from Hermitian traceless matrices m[..., 2, 2].

    q1 = Re(m12 + m21)/2, q2 = Re((m21 - m12)/2i), q3 = Re(m11).  Every
    matrix in a stack must pass the check, and NaN entries fail it.
    """
    m = _as_array(m, "m", "a stack of 2x2 matrices", complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {m.shape}")
    # finiteness first: inf - inf warns
    if not np.isfinite(m).all():
        raise ValueError("matrix is not Hermitian traceless")
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    with _no_overflow("matrix m"):
        ok = (
            (np.abs(m00 - np.conj(m00)) <= VALIDATION_TOL)
            & (np.abs(m11 - np.conj(m11)) <= VALIDATION_TOL)
            & (np.abs(m01 - np.conj(m10)) <= VALIDATION_TOL)
            & (np.abs(m00 + m11) <= VALIDATION_TOL)
        )
        if not ok.all():
            raise ValueError("matrix is not Hermitian traceless")
        q = np.empty(m.shape[:-2] + (3,))
        q[..., 0] = ((m01 + m10) / 2.0).real
        q[..., 1] = ((m10 - m01) / 2j).real
    q[..., 2] = m00.real
    return q


def angle_distance(a: float, b: float) -> float:
    """Shorter arc between two directions: min(|a-b| mod 2pi, 2pi - that).

    Symmetric, bounded by pi, invariant under adding 2*pi*k to either
    argument, and a metric on the circle.  Each of ``a`` and ``b`` must be one finite number;
    where a - b overflows, as for 1e308 and -1e308, each is first reduced mod 2*pi.
    """
    a, b = _finite_float(a, "a"), _finite_float(b, "b")
    diff = a - b
    if not isfinite(diff):
        diff = a % (2.0 * pi) - b % (2.0 * pi)
    d = abs(diff) % (2.0 * pi)
    return min(d, 2.0 * pi - d)
