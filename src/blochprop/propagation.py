"""Error propagation under repeated rotations.

A clean vector ``v`` and a perturbed copy ``v_err = v @ S(err)`` are rotated
synchronously; the observables are the wrapped azimuth and elevation
discrepancies (delta_az, delta_el) after each rotation.

Two equivalent descriptions are implemented:

* discrete: ``simulate`` iterates the one-step matrix S(step) and samples
  the discrepancies at integer step counts;
* continuous: ``sp_general(t, angles)`` is the one-parameter rotation
  family exp(t * G(angles)) obtained as the limit of n-fold application of
  S(angles / n), and ``delta_closed_form`` evaluates the discrepancies
  along it.

Orientation of the continuous family.  The generator is the derivative of
the one-step matrix at zero step size,

    G(phi, theta, psi) = [[0, phi+psi, -theta],
                          [-(phi+psi), 0, 0],
                          [theta, 0, 0]],

so that powers of ``euler_matrix`` converge to ``sp_general`` directly in
the row-vector convention: || S(angles*t/n)^n - S_P(t) ||_F -> 0.  All
derived objects (sp_special, generator, matrix_exp_generator) use this one
orientation consistently.

Discrete-to-continuous bridge.  A single step S(step) with equal first and
last step angles is exactly a member of the continuous family: its matrix
logarithm L = rotation_log(euler_matrix(step)) has zero x-generator
component, so S(step)^i = matrix_exp_generator(L, i) for every integer i,
and the discrete series equals the closed form sampled at t = i with the
equivalent continuous rates read off L (see equivalent_continuous_angles).
The naive linear bridge t = i * h (h the scalar step size) is only
approximate: for the 200-step pi/100 reference experiment it deviates by
about 5.6e-5 in the discrepancy values, while the exact bridge agrees to
machine precision (~3e-15).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, hypot, pi, sin, sqrt
from typing import NamedTuple

import numpy as np

from .bloch import EulerAngles, POLE_EPS
from .rotations import euler_matrix, rotate_su2, su2_from_euler

ANTISYMMETRY_TOL = 1e-12
# min(d, 2*pi - d) can exceed pi by a rounding ulp when d is near pi
DELTA_RANGE_SLACK = 1e-12


class DegenerateRotationError(ValueError):
    """Raised when theta = 0 and phi + psi = 0 leave no finite period."""


class ErrorAngles(NamedTuple):
    """Perturbation triple (eps_x, eps_y, eps_z); v_err = v @ S(eps)."""

    eps_x: float
    eps_y: float
    eps_z: float


@dataclass(frozen=True)
class ErrorSeries:
    """Sampled (t, delta_az, delta_el) trajectory of one experiment."""

    t: np.ndarray
    delta_az: np.ndarray
    delta_el: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        daz = np.asarray(self.delta_az, dtype=float)
        del_ = np.asarray(self.delta_el, dtype=float)
        if not (t.shape == daz.shape == del_.shape and t.ndim == 1):
            raise ValueError("series columns must be 1-d arrays of equal length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        hi = pi + DELTA_RANGE_SLACK
        if daz.size and (daz.min() < 0 or daz.max() > hi or del_.min() < 0 or del_.max() > hi):
            raise ValueError("discrepancies must lie in [0, pi]")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta_az", daz)
        object.__setattr__(self, "delta_el", del_)

    def __len__(self) -> int:
        return int(self.t.size)


def delta_pair(w, w_err) -> tuple[float, float]:
    """Wrapped (azimuth, elevation) discrepancies between two vectors."""
    vx, vy, vz = (float(c) for c in w)
    wx, wy, wz = (float(c) for c in w_err)
    if hypot(hypot(vx, vy), vz) < POLE_EPS or hypot(hypot(wx, wy), wz) < POLE_EPS:
        raise ValueError("discrepancies are undefined for zero vectors")
    return _delta_scalar(vx, vy, vz, wx, wy, wz)


def _require_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a unit 3-vector")
    return v


def simulate(v, v_err, step, steps: int, pipeline: str = "euler") -> ErrorSeries:
    """Rotate both vectors ``steps`` times by ``step`` and sample discrepancies.

    Sample i holds the discrepancies after i applications; sample 0 is the
    initial discrepancy, so the series has steps + 1 rows.  The ``euler``
    and ``su2`` pipelines iterate their one-step operator; ``closed``
    samples the continuous interpolation exp(i * log S(step)), which agrees
    with the discrete pipelines at every integer i (see module docstring).
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    v = _require_unit(v, "v")
    v_err = _require_unit(v_err, "v_err")

    n = int(steps)
    t = np.arange(n + 1, dtype=float)
    daz = np.empty(n + 1)
    del_ = np.empty(n + 1)

    if pipeline == "euler":
        s = euler_matrix(step)
        w, we = v.copy(), v_err.copy()
        daz[0], del_[0] = delta_pair(w, we)
        for i in range(1, n + 1):
            w = w @ s
            we = we @ s
            daz[i], del_[i] = delta_pair(w, we)
    elif pipeline == "su2":
        u = su2_from_euler(step)
        w, we = v.copy(), v_err.copy()
        daz[0], del_[0] = delta_pair(w, we)
        for i in range(1, n + 1):
            w = rotate_su2(w, u)
            we = rotate_su2(we, u)
            daz[i], del_[i] = delta_pair(w, we)
    elif pipeline == "closed":
        gen = rotation_log(euler_matrix(step))
        for i in range(n + 1):
            r = matrix_exp_generator(gen, float(i))
            daz[i], del_[i] = delta_pair(v @ r, v_err @ r)
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")

    return ErrorSeries(t=t, delta_az=daz, delta_el=del_)


def _rates(angles) -> tuple[float, float, float]:
    """(theta, phi+psi, omega) for a rotation-rate triple."""
    phi, theta, psi = (float(a) for a in angles)
    a = phi + psi
    return theta, a, hypot(theta, a)


def sp_general(t: float, angles) -> np.ndarray:
    """Continuous rotation family S_P(t) = exp(t * G(angles)).

    Evaluated in real trigonometric form with omega = sqrt(theta^2 +
    (phi+psi)^2): entries combine cos(omega t), sin(omega t), and
    2 sin^2(omega t / 2) for the 1 - cos terms, scaled by the unit ratios
    theta/omega and (phi+psi)/omega so no bare omega^2 can underflow for
    subnormal rates.  When omega = 0 the generator vanishes and the family
    is the identity for all t.
    """
    theta, a, omega = _rates(angles)
    if omega == 0.0:
        return np.eye(3)
    return np.array(_sp_rows(float(t), theta, a, omega))


_SQRT5 = sqrt(5.0)


def sp_special(t: float) -> np.ndarray:
    """Closed form of sp_general for unit rates (1, 1, 1); omega = sqrt 5."""
    wt = _SQRT5 * float(t)
    c, s = cos(wt), sin(wt)
    return np.array(
        [
            [c, 2.0 * s / _SQRT5, -s / _SQRT5],
            [-2.0 * s / _SQRT5, (1.0 + 4.0 * c) / 5.0, 2.0 * (1.0 - c) / 5.0],
            [s / _SQRT5, 2.0 * (1.0 - c) / 5.0, (4.0 + c) / 5.0],
        ]
    )


def limit_convergence_check(t: float, angles, s: int) -> float:
    """Frobenius distance between S(angles*t/s)^s and S_P(t).

    Decreases toward 0 as s grows; for equal first and last angles the
    one-step matrix is a palindromic product, giving second-order decay.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    scaled = EulerAngles(*(float(a) * float(t) / float(s) for a in angles))
    powered = np.linalg.matrix_power(euler_matrix(scaled), int(s))
    return float(np.linalg.norm(powered - sp_general(t, angles)))


def generator(angles) -> np.ndarray:
    """Antisymmetric generator G with exp(t G) = sp_general(t, angles)."""
    theta, a, _ = _rates(angles)
    return np.array(
        [[0.0, a, -theta], [-a, 0.0, 0.0], [theta, 0.0, 0.0]]
    )


def generator_eigenvalues(angles) -> tuple[complex, complex, complex]:
    """Eigenvalues of the generator: (0, i omega, -i omega)."""
    _, _, omega = _rates(angles)
    return (0j, 1j * omega, -1j * omega)


def period(angles) -> float:
    """Recurrence time of the discrepancy curves: 2 pi / omega."""
    _, _, omega = _rates(angles)
    if omega == 0.0:
        raise DegenerateRotationError(
            "theta = 0 and phi + psi = 0: the rotation family is constant, no finite period"
        )
    return 2.0 * pi / omega


def matrix_exp_generator(j, t: float) -> np.ndarray:
    """Rotation exponential exp(t j) of an antisymmetric 3x3 matrix.

    Rodrigues construction on the normalized matrix n = j / w with
    w = |(j32, j13, j21)| the rotation rate: exp(t j) = I + sin(w t) n
    + (1 - cos(w t)) n^2.  For the generator of rates (phi, theta, psi)
    the axis direction is -(0, theta, phi+psi) and w = omega.
    """
    j = np.asarray(j, dtype=float)
    if j.shape != (3, 3) or float(np.abs(j + j.T).max()) > ANTISYMMETRY_TOL:
        raise ValueError("generator must be an antisymmetric 3x3 matrix")
    w = float(np.hypot(np.hypot(j[2, 1], j[0, 2]), j[1, 0]))
    if w == 0.0:
        return np.eye(3)
    jn = j / w
    wt = w * float(t)
    return np.eye(3) + sin(wt) * jn + (2.0 * sin(wt / 2.0) ** 2) * (jn @ jn)


def rotation_log(r) -> np.ndarray:
    """Principal matrix logarithm of a 3x3 rotation (antisymmetric result).

    Inverse of matrix_exp_generator at t = 1 for rotation angles below pi.
    Rotations by exactly pi have an ambiguous axis sign and are rejected.
    """
    r = np.asarray(r, dtype=float)
    cos_angle = (float(np.trace(r)) - 1.0) / 2.0
    cos_angle = min(1.0, max(-1.0, cos_angle))
    angle = np.arccos(cos_angle)
    anti = (r - r.T) / 2.0
    sin_angle = sin(angle)
    if sin_angle < 1e-9:
        if cos_angle > 0.0:
            # angle ~ 0: anti already equals the log to O(angle^3)
            return anti
        raise ValueError("rotation angle is pi: logarithm axis is ambiguous")
    return anti * (angle / sin_angle)


def equivalent_continuous_angles(step, tol: float = 1e-9) -> EulerAngles:
    """Continuous rates whose family interpolates the discrete step exactly.

    For a step with equal first and last angles, log S(step) stays inside
    the generator family (zero x-component); the returned rates (a/2,
    theta, a/2) satisfy sp_general(i, rates) = euler_matrix(step)^i for
    every integer i.  Steps with unequal first and last angles leave the
    family and are rejected.
    """
    gen = rotation_log(euler_matrix(step))
    if abs(float(gen[2, 1])) > tol:
        raise ValueError(
            "step matrix logarithm has an x-generator component; "
            "no equivalent rates exist in the z-y-z family"
        )
    theta_eff = float(gen[2, 0])
    a_eff = float(gen[0, 1])
    return EulerAngles(a_eff / 2.0, theta_eff, a_eff / 2.0)


# -- scalar fast path -------------------------------------------------------
#
# The extrema search evaluates the closed-form discrepancies millions of
# times; plain-float arithmetic avoids numpy's small-array overhead there.


def _row_times_euler(vx: float, vy: float, vz: float, ex: float, ey: float, ez: float):
    """Row vector (vx,vy,vz) times the z-y-z matrix of angles (ex,ey,ez)."""
    cf, sf = cos(ex), sin(ex)
    ct, st = cos(ey), sin(ey)
    cp, sp = cos(ez), sin(ez)
    # rows of S3(ez) @ S2(ey) @ S1(ex)
    r11 = cp * ct * cf - sp * sf
    r12 = cp * ct * sf + sp * cf
    r13 = -cp * st
    r21 = -sp * ct * cf - cp * sf
    r22 = -sp * ct * sf + cp * cf
    r23 = sp * st
    r31 = st * cf
    r32 = st * sf
    r33 = ct
    return (
        vx * r11 + vy * r21 + vz * r31,
        vx * r12 + vy * r22 + vz * r32,
        vx * r13 + vy * r23 + vz * r33,
    )


def _sp_rows(t: float, theta: float, a: float, omega: float):
    """Rows of sp_general as plain floats; omega must be positive."""
    na, nt = a / omega, theta / omega
    wt = omega * t
    c = cos(wt)
    s = sin(wt)
    mc = 2.0 * sin(wt / 2.0) ** 2
    return (
        (c, na * s, -nt * s),
        (-na * s, 1.0 - mc * na * na, mc * na * nt),
        (nt * s, mc * na * nt, 1.0 - mc * nt * nt),
    )


def _delta_scalar(vx, vy, vz, wx, wy, wz) -> tuple[float, float]:
    """Wrapped (az, el) discrepancies of two nonzero float triples; pole azimuth is 0."""
    rho1 = hypot(vx, vy)
    az1 = 0.0 if rho1 < POLE_EPS else atan2(vy, vx)
    el1 = atan2(rho1, vz)
    rho2 = hypot(wx, wy)
    az2 = 0.0 if rho2 < POLE_EPS else atan2(wy, wx)
    el2 = atan2(rho2, wz)
    daz = abs(az1 - az2) % (2.0 * pi)
    del_ = abs(el1 - el2) % (2.0 * pi)
    return min(daz, 2.0 * pi - daz), min(del_, 2.0 * pi - del_)


def delta_closed_form(
    err, t: float, angles, base=(1.0, 0.0, 0.0)
) -> tuple[float, float]:
    """Discrepancies (delta_az, delta_el) of the perturbed trajectory at time t.

    The clean vector is ``base`` (default (1,0,0)); the perturbed one is
    base @ S(err) with err = (eps_x, eps_y, eps_z).  Both ride the
    continuous family sp_general(t, angles).  Written in plain-float
    arithmetic because the extrema search calls it millions of times.
    """
    bx, by, bz = (float(c) for c in base)
    ex, ey, ez = (float(c) for c in err)
    theta, a, omega = _rates(angles)
    vex, vey, vez = _row_times_euler(bx, by, bz, ex, ey, ez)
    if omega == 0.0:
        return _delta_scalar(bx, by, bz, vex, vey, vez)
    rows = _sp_rows(float(t), theta, a, omega)
    (p11, p12, p13), (p21, p22, p23), (p31, p32, p33) = rows
    wx = bx * p11 + by * p21 + bz * p31
    wy = bx * p12 + by * p22 + bz * p32
    wz = bx * p13 + by * p23 + bz * p33
    wex = vex * p11 + vey * p21 + vez * p31
    wey = vex * p12 + vey * p22 + vez * p32
    wez = vex * p13 + vey * p23 + vez * p33
    return _delta_scalar(wx, wy, wz, wex, wey, wez)
