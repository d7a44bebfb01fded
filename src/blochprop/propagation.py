"""Error propagation under repeated rotations.

A clean vector ``v`` and a perturbed copy ``v_err = v @ S(err)`` are rotated
synchronously; the observables are the wrapped azimuth and elevation
discrepancies (delta_az, delta_el) after each rotation.

Two equivalent descriptions are implemented:

* discrete: ``simulate`` applies the powers of the one-step matrix S(step)
  and samples the discrepancies at integer step counts;
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

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from math import atan2, cos, hypot, inf, isfinite, pi, sin, sqrt
from operator import index
from typing import NamedTuple

import numpy as np

from .bloch import EulerAngles, POLE_EPS, _require_unit, _require_unit_norm, matrix_to_cartesian, qubit_to_matrix
from .rotations import (
    _euler_entries,
    _euler_floats,
    _finite_triple,
    _row_times,
    _triple,
    euler_matrix,
    su2_from_euler,
)

ANTISYMMETRY_TOL = 1e-12
# min(d, 2*pi - d) can exceed pi by a rounding ulp when d is near pi
DELTA_RANGE_SLACK = 1e-12
# rotation_log reads the axis of rotations this close to a half-turn (in sin
# of the angle) from the symmetric part; within HALF_TURN_TOL the axis sign
# is lost in rounding
NEAR_HALF_TURN = 1e-2
HALF_TURN_TOL = 1e-12
_TWO_PI = 2.0 * pi


class DegenerateRotationError(ValueError):
    """Raised when the rotation rates leave no finite period: omega = 0, or 2 pi / omega overflows."""


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
        t, daz, del_ = (np.asarray(c, dtype=float) for c in (self.t, self.delta_az, self.delta_el))
        if not (t.shape == daz.shape == del_.shape and t.ndim == 1):
            raise ValueError("series columns must be 1-d arrays of equal length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        hi = pi + DELTA_RANGE_SLACK
        # written so that NaN, which compares False, fails the range check
        if daz.size and not (daz.min() >= 0 and daz.max() <= hi and del_.min() >= 0 and del_.max() <= hi):
            raise ValueError("discrepancies must lie in [0, pi]")
        for name, column in zip(("t", "delta_az", "delta_el"), (t, daz, del_)):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return int(self.t.size)


def delta_pair(w, w_err) -> tuple[float, float]:
    """Wrapped (azimuth, elevation) discrepancies between two vectors."""
    vx, vy, vz = (float(c) for c in w)
    wx, wy, wz = (float(c) for c in w_err)
    if hypot(hypot(vx, vy), vz) < POLE_EPS or hypot(hypot(wx, wy), wz) < POLE_EPS:
        raise ValueError("discrepancies are undefined for zero vectors")
    return _delta_scalar(vx, vy, vz, wx, wy, wz)


def _require_finite(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
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


def simulate(v, v_err, step, steps: int, pipeline: str = "euler") -> ErrorSeries:
    """Rotate both vectors ``steps`` times by ``step`` and sample discrepancies.

    Sample i holds the discrepancies after i applications; sample 0 is the
    initial discrepancy, so the series has steps + 1 rows.  Each pipeline
    builds the whole trajectory of both vectors as one [steps + 1, 2, 3]
    array: ``euler`` applies the powers of S(step), ``su2`` conjugates the
    qubit matrices by the powers of U(step), both by doubling (the states
    k..2k - 1 are the k-th power applied to the states 0..k - 1), so a run
    costs about log2(steps) numpy calls, and ``su2`` reads the vectors back
    with one matrix_to_cartesian call on the whole stack; ``closed`` evaluates
    the continuous interpolation exp(i * log S(step)) with one
    matrix_exp_generator call on every i at once, which agrees with the
    discrete pipelines at every integer i (see module docstring).  Sample 0
    is the input pair itself.  The discrepancies are then read a column at
    a time with the operations of ``delta_pair``, and equal it on every row.
    """
    n = _count(steps, "steps", 0)
    step = _finite_triple(step, "step: Euler angles", "step angles")
    pair = np.array([_require_unit(v, "v"), _require_unit(v_err, "v_err")])
    t = np.arange(n + 1, dtype=float)

    if pipeline == "euler":
        traj = _by_doubling(pair, euler_matrix(step), n, lambda s, w: w @ s)
    elif pipeline == "su2":
        m0 = np.stack([qubit_to_matrix(pair[0]), qubit_to_matrix(pair[1])])
        traj = matrix_to_cartesian(_by_doubling(m0, su2_from_euler(step), n, _conjugate))
        # a step outside SU(2) changes the norm, as rotate_su2 then reports
        _require_unit_norm(np.hypot(np.hypot(traj[..., 0], traj[..., 1]), traj[..., 2]))
    elif pipeline == "closed":
        gen = rotation_log(euler_matrix(step), allow_half_turn=True)
        # a zero generator leaves the pair as it is: pair @ I would turn -0.0 into +0.0
        traj = pair @ matrix_exp_generator(gen, t) if gen.any() else np.broadcast_to(pair, (n + 1, 2, 3))
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")

    daz, del_ = _trajectory_deltas(pair, traj)
    return ErrorSeries(t=t, delta_az=daz, delta_el=del_)


def _by_doubling(x0: np.ndarray, op: np.ndarray, n: int, act) -> np.ndarray:
    """[act(op^i, x0) for i = 0..n] as one array, in about log2(n) calls of act.

    ``act(p, x)`` applies the operator p to a stack x of states; the powers
    k..2k - 1 are op^k applied to the powers 0..k - 1, then op^k is squared.
    """
    x = np.empty((n + 1,) + x0.shape, dtype=np.result_type(x0, op))
    x[0] = x0
    k = 1
    while k <= n:
        m = min(k, n + 1 - k)
        x[k : k + m] = act(op, x[:m])
        op = op @ op
        k *= 2
    return x


def _conjugate(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u @ m @ u^H for a stack m[..., 2, 2]: kron(u, conj(u)) acting on each m flattened row-major."""
    return (m.reshape(-1, 4) @ np.kron(u, u.conj()).T).reshape(m.shape)


def _trajectory_deltas(pair: np.ndarray, traj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """delta_pair over the rows of traj[i, (clean, perturbed), 3]; row 0 is ``pair``.

    _delta_az's and _delta_el's operations on whole columns: math.hypot and math.atan2 mapped
    over the coordinate lists, then the pole rule and the wrap in numpy, which rounds abs, - and
    % as Python floats do, so every row equals delta_pair bit for bit.
    """
    rows = np.array(traj, dtype=float).reshape(-1, 6)
    rows[0] = pair.reshape(6)
    norm = np.hypot(np.hypot(rows[:, 0::3], rows[:, 1::3]), rows[:, 2::3])
    if (norm < POLE_EPS).any():
        raise ValueError("discrepancies are undefined for zero vectors")
    vx, vy, vz, wx, wy, wz = rows.T.tolist()
    rho, rho_err = list(map(hypot, vx, vy)), list(map(hypot, wx, wy))
    az = np.array([list(map(atan2, vy, vx)), list(map(atan2, wy, wx))])
    az[np.array([rho, rho_err]) < POLE_EPS] = 0.0
    el = np.array([list(map(atan2, rho, vz)), list(map(atan2, rho_err, wz))])
    return _wrapped_gap(az[0], az[1]), _wrapped_gap(el[0], el[1])


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


def sp_general(t, angles) -> np.ndarray:
    """Continuous rotation family S_P(t) = exp(t * G(angles)), [..., 3, 3] for t of any shape.

    Evaluated in real trigonometric form with omega = sqrt(theta^2 +
    (phi+psi)^2): entries combine cos(omega t), sin(omega t), and
    2 sin^2(omega t / 2) for the 1 - cos terms, scaled by the unit ratios
    theta/omega and (phi+psi)/omega so no bare omega^2 can underflow for
    subnormal rates.  When omega = 0 the generator vanishes and the family
    is the identity for all t.  Each matrix depends only on its own t, so
    sp_general(ts, angles)[k] equals sp_general(ts[k], angles).  A non-finite
    t, or a phase omega * t that overflows, raises ValueError.
    """
    t = _require_finite(t, "t")
    family = _family(angles)
    _check_phase(family, float(np.abs(t).max()) if t.size else 0.0)
    return _family_matrices(t, family)


def _family_matrices(t: np.ndarray, family: _Family) -> np.ndarray:
    """sp_general(t, angles) of a parsed family, for a float array t."""
    if family.omega == 0.0:
        return np.tile(np.eye(3), t.shape + (1, 1))
    return np.moveaxis(_sp_entries(t, _family_constants(family)), (0, 1), (-2, -1))


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
    s = _count(s, "s", 1)
    t = _require_finite(t, "t")
    family = _family(angles)
    _check_phase(family, abs(float(t)))
    scaled = EulerAngles(*(a * float(t) / s for a in family.rates))
    powered = np.linalg.matrix_power(euler_matrix(scaled), s)
    return float(np.linalg.norm(powered - _family_matrices(t, family)))


def generator(angles) -> np.ndarray:
    """Antisymmetric generator G with exp(t G) = sp_general(t, angles)."""
    f = _family(angles)
    return np.array(
        [[0.0, f.a, -f.theta], [-f.a, 0.0, 0.0], [f.theta, 0.0, 0.0]]
    )


def generator_eigenvalues(angles) -> tuple[complex, complex, complex]:
    """Eigenvalues of the generator: (0, i omega, -i omega)."""
    omega = _family(angles).omega
    return (0j, 1j * omega, -1j * omega)


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


def matrix_exp_generator(j, t) -> np.ndarray:
    """Rotation exponential exp(t j) of an antisymmetric 3x3 matrix, [..., 3, 3] for t of any shape.

    Rodrigues construction on the normalized matrix n = j / w with
    w = |(j32, j13, j21)| the rotation rate: exp(t j) = I + sin(w t) n
    + (1 - cos(w t)) n^2.  For the generator of rates (phi, theta, psi)
    the axis direction is -(0, theta, phi+psi) and w = omega.  Each matrix
    depends only on its own t, so matrix_exp_generator(j, ts)[k] equals
    matrix_exp_generator(j, ts[k]).  A ``j`` that is not a finite antisymmetric
    3x3 matrix, or a non-finite t, raises ValueError.
    """
    j = np.asarray(j, dtype=float)
    # finiteness first: a NaN entry compares False, so it would pass the > test, and inf - inf warns
    if j.shape != (3, 3) or not np.isfinite(j).all() or float(np.abs(j + j.T).max()) > ANTISYMMETRY_TOL:
        raise ValueError("generator must be a finite antisymmetric 3x3 matrix")
    t = _require_finite(t, "t")
    w = float(np.hypot(np.hypot(j[2, 1], j[0, 2]), j[1, 0]))
    if w == 0.0:
        return np.tile(np.eye(3), t.shape + (1, 1))
    jn = j / w
    wt = (w * t)[..., None, None]
    return np.eye(3) + np.sin(wt) * jn + (2.0 * np.sin(wt / 2.0) ** 2) * (jn @ jn)


def rotation_log(r, allow_half_turn: bool = False) -> np.ndarray:
    """Principal matrix logarithm of a 3x3 rotation (antisymmetric result).

    Inverse of matrix_exp_generator at t = 1.  The antisymmetric part is
    sin [u] for the unit axis u: its norm is sin, the angle is atan2(sin,
    cos), and the log is the antisymmetric part times angle / sin, with sin
    and the angle read from the same numbers.  Near a half-turn that
    division amplifies rounding in the antisymmetric part, so within
    NEAR_HALF_TURN of pi the axis is read from the symmetric part, which
    equals I + (1 - cos) (u u^T - I); the antisymmetric part gives only its
    sign and the angle.  A half-turn to within HALF_TURN_TOL has two
    logarithms, +pi [u] and -pi [u]; it is rejected as ambiguous unless
    ``allow_half_turn``, which returns one of them.  Both reproduce every
    integer power of r.  An ``r`` that is not a finite 3x3 array raises
    ValueError.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3) or not np.isfinite(r).all():
        raise ValueError(f"r must be a finite 3x3 matrix, got shape {r.shape}")
    cos_angle = (float(np.trace(r)) - 1.0) / 2.0
    cos_angle = min(1.0, max(-1.0, cos_angle))
    anti = (r - r.T) / 2.0
    sin_angle = hypot(hypot(anti[2, 1], anti[0, 2]), anti[1, 0])
    if cos_angle < 0.0 and sin_angle < NEAR_HALF_TURN:
        uu = ((r + r.T) / 2.0 - cos_angle * np.eye(3)) / (1.0 - cos_angle)
        k = int(np.argmax(np.diag(uu)))
        u = uu[:, k] / sqrt(uu[k, k])
        sin_u = float(u[0] * anti[2, 1] + u[1] * anti[0, 2] + u[2] * anti[1, 0])
        if abs(sin_u) <= HALF_TURN_TOL and not allow_half_turn:
            raise ValueError("rotation angle is pi: logarithm axis is ambiguous")
        if sin_u < 0.0:
            u, sin_u = -u, -sin_u
        ux, uy, uz = atan2(sin_u, cos_angle) * u
        return np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    if sin_angle < 1e-9:
        # angle ~ 0: anti already equals the log to O(angle^3)
        return anti
    return anti * (atan2(sin_angle, cos_angle) / sin_angle)


def equivalent_continuous_angles(step) -> EulerAngles:
    """Continuous rates whose family interpolates the discrete step exactly.

    For a step with equal first and last angles, log S(step) stays inside
    the generator family (zero x-component); the returned rates (a/2,
    theta, a/2) satisfy sp_general(i, rates) = euler_matrix(step)^i for
    every integer i.  Steps with unequal first and last angles leave the
    family and are rejected.
    """
    gen = rotation_log(euler_matrix(step))
    if abs(float(gen[2, 1])) > 1e-9:
        raise ValueError(
            "step matrix logarithm has an x-generator component; "
            "no equivalent rates exist in the z-y-z family"
        )
    theta_eff = float(gen[2, 0])
    a_eff = float(gen[0, 1])
    return EulerAngles(a_eff / 2.0, theta_eff, a_eff / 2.0)


# -- two evaluation paths ---------------------------------------------------
#
# The closed-form discrepancies have two implementations of one formula: a
# plain-float path for one point at a time and a numpy path for many.  Both
# take the error rotation S(err) from rotations' one copy of the z-y-z entries
# (_euler_floats on one triple, _euler_entries on a stack) and form the perturbed
# start base @ S(err) in rotations._row_times's order.  Both evaluate the
# rotation family at t with the same operations in the same order, squaring
# by a product, because float ** calls libm pow, which can round otherwise,
# and both form the clean and perturbed vectors at t in _row_times's order.
# So the two paths give the same six floats wherever math's cos and sin round
# as numpy's do, as on every host tried, with or without numpy's AVX-512 loops.
#
# Every public entry parses its rate triple once, with _family, the one place
# that divides by omega for the unit axis, and both paths and their fronts
# take that parsed family.
#
# The float path is _pair_floats, which evaluates the family at t, forms both
# vectors and hands the six floats to a reader.  It has two fronts.
# _closed_form_at fixes the error rotation and the family once per trajectory
# and returns a function of t alone: delta_closed_form is built from it, the
# samples of analysis.case_series call it one point at a time, and adaptive
# quadrature in analysis.time_averaged_error integrates it with a reader of
# one discrepancy (_delta_az or _delta_el, the pair's own operations), about
# 1.5 us a sample with the pair's value, error estimate and evaluation count.
# _point_reader takes a whole search point [eps_x, eps_y, eps_z, t] and forms
# the error rotation per point: the plain-float finish of the search.  Each
# front keeps its own omega = 0 branch, which reads the start pair as it is,
# because the identity family would turn a -0.0 into +0.0.  The angle
# readers _delta_az and _delta_el use math.hypot and math.atan2, as does
# delta_pair, and _delta_scalar returns both.  A numpy call on one point
# costs about ten times a float one.
#
# The numpy path is _pair_kernel, whose family is _sp_entries.  delta_batch
# serves many points at once and reads the angles of the kernel's vectors
# with numpy's hypot and arctan2 (_az_rows and _el_rows, stacked), which may
# round otherwise than math's, so delta_batch and delta_closed_form agree to
# about 1e-15 but not bit for bit.  The period grid of
# analysis.estimate_period_numeric reads one channel of the same kernel with
# _az_rows or _el_rows alone: delta_batch's column, bit for bit.
#
# The multistart extremum search reads no angle at all.  Nelder-Mead uses its
# objective only through comparisons and one difference test, so the search
# minimizes the pseudo-angle p = 1 - c / (|s| + |c|) of each discrepancy, with
# c and s the cosine and sine of the gap times two norms (_pseudo_az,
# _pseudo_el): p rises strictly from 0 to 2 as the gap goes from 0 to pi, by
# 1/2 to 1 per radian.  It takes only + - * / sqrt and abs, which numpy and
# Python round alike on every host and with every numpy loop.  The lockstep
# batch reads _pair_kernel's vectors with _pseudo_rows; the last live starts
# finish one at a time on _point_reader (about 2.5 us a point), read with
# _pseudo_az or _pseudo_el, so the two agree bit for bit.  The search then
# reports delta_closed_form at the point it found.
#
# simulate builds its trajectories with numpy but reads their discrepancies with
# _delta_az's and _delta_el's operations applied to whole columns
# (_trajectory_deltas): math.hypot and math.atan2 mapped over the coordinate
# lists, then the pole rule and the wrap in numpy, whose abs, - and % round
# as Python's do.  So every sample is delta_pair of its row bit for bit, and
# sample 0 that of the input pair (_el_rows would read the reference run's
# initial 0.19999999999999996 as 0.20000000000000018).


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
    if not isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    family = _family(angles)
    _check_phase(family, abs(float(t)))
    return _closed_form_at(err, family, _require_unit(base, "base"))(float(t))


def _check_phase(family: _Family, t_max: float) -> None:
    """Reject a family whose phase omega * t overflows for some |t| <= t_max: cos and sin take no infinity."""
    if family.omega * t_max == inf:
        raise ValueError(f"rotation rates {family.rates!r}: omega * t overflows for |t| up to {t_max!r}")


def _closed_form_at(err, family: _Family, base, read=_delta_scalar):
    """delta_closed_form(err, t, angles, base) as a function of a float t alone, for float triples err and base.

    The perturbed start vector is computed once; each call then runs _pair_floats alone, so a
    caller that samples one trajectory at many times pays for the error rotation once.  With
    ``read`` _delta_az or _delta_el the function returns that one discrepancy, equal to the pair's,
    and skips the other's angles.
    """
    bx, by, bz = base
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = _euler_floats(*err)
    vx = bx * r11 + by * r21 + bz * r31
    vy = bx * r12 + by * r22 + bz * r32
    vz = bx * r13 + by * r23 + bz * r33
    if family.omega == 0.0:
        constant = read(bx, by, bz, vx, vy, vz)
        return lambda t: constant
    return partial(_pair_floats, bx, by, bz, vx, vy, vz, family.omega, family.na, family.nt, read)


def _point_reader(family: _Family, base, read):
    """read(clean, perturbed) of _pair_kernel's vectors at one point p = [eps_x, eps_y, eps_z, t].

    The search's plain-float objective: _closed_form_at's operations with the error rotation
    formed per point, and no numpy call.  ``base`` is a float triple.
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
    (phi+psi)/omega and theta/omega, and omega must be positive.  The one plain-float copy of the
    family: _sp_entries does the same operations in the same order, and every row product runs in
    _row_times's order, so the six floats ``read`` takes are _pair_kernel's bytes.
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


def delta_batch(err, t, rates, base=(1.0, 0.0, 0.0)) -> np.ndarray:
    """delta_closed_form over many points: discrepancies [..., 2] (az, el).

    ``err`` has shape [..., 3] and ``t`` broadcasts against ``err[..., 0]``;
    a single error triple with a vector of times samples one trajectory.
    Every output element depends only on its own inputs, so a point's value
    does not depend on what else shares the call.  A non-finite ``err`` or ``t``, an
    ``err`` whose last axis is not 3, or a non-unit ``base`` raises ValueError.
    """
    err, t = _require_finite(err, "err"), _require_finite(t, "t")
    if err.shape[-1:] != (3,):
        raise ValueError(f"err must have shape [..., 3], got {err.shape}")
    family = _family(rates)
    _check_phase(family, float(np.abs(t).max()) if t.size else 0.0)
    w = _pair_kernel(family, _require_unit(base, "base"))(err, t)
    return np.stack((_az_rows(w), _el_rows(w)), axis=-1)


# 0-d arrays: a numpy call takes one as an operand in about half the time it takes a Python float
_ONE, _TWO = np.array(1.0), np.array(2.0)


def _pair_kernel(family: _Family, base):
    """The clean and perturbed vectors as a function (err[..., 3], t[...]) -> w[k, j, ...].

    w[k, j] is component k of the clean (j = 0) and perturbed (j = 1) vector at each point; err
    and t are not checked.  The family's and base's constants are computed once, as 0-d arrays.
    """
    b = tuple(np.array(float(c)) for c in base)
    consts = _family_constants(family) if family.omega else None

    def kernel(err, t) -> np.ndarray:
        err = np.asarray(err, dtype=float)
        t = np.asarray(t, dtype=float)
        # pad both to the broadcast rank so the leading component axes line up
        nd = max(err.ndim - 1, t.ndim)
        err = err.reshape((1,) * (nd + 1 - err.ndim) + err.shape)
        t = t.reshape((1,) * (nd - t.ndim) + t.shape)
        r = _euler_entries(err)
        w = np.empty((3, 2) + np.broadcast(r[0, 0], t).shape)
        # the perturbed start vector base @ S(err)
        v = _row_times(b, r)
        if consts is None:
            w[0, 0], w[1, 0], w[2, 0] = b
            w[:, 1] = v
            return w
        # each vector @ sp_general(t); the clean one is the base
        p = _sp_entries(t, consts)
        w[:, 0] = _row_times(b, p)
        w[:, 1] = _row_times(v, p)
        return w

    return kernel


def _family_constants(family: _Family) -> tuple:
    """(omega, na, nt, -na, -nt) of _pair_floats as 0-d arrays, for a family with omega > 0."""
    return tuple(map(np.array, (family.omega, family.na, family.nt, -family.na, -family.nt)))


def _sp_entries(t: np.ndarray, consts: tuple) -> np.ndarray:
    """p[i, j, ...]: entry (i, j) of sp_general at every t, as in _pair_floats, from _family_constants."""
    omega, na, nt, nna, nnt = consts
    p = np.empty((3, 3) + t.shape)
    wt = omega * t
    s = np.sin(wt)
    # a product, as in _pair_floats: on a 0-d t numpy computes ** 2 with libm pow
    h = np.sin(wt / _TWO)
    mc = _TWO * (h * h)
    mcna = mc * na
    p[0, 0] = np.cos(wt)
    p[0, 1] = na * s
    p[0, 2] = nnt * s
    p[1, 0] = nna * s
    p[1, 1] = _ONE - mcna * na
    p[1, 2] = p[2, 1] = mcna * nt
    p[2, 0] = nt * s
    p[2, 2] = _ONE - mc * nt * nt
    return p


def _az_rows(w: np.ndarray) -> np.ndarray:
    """_delta_az over w[k, j, ...] (component k, clean j = 0, perturbed j = 1)."""
    az = np.arctan2(w[1], w[0])
    az[np.hypot(w[0], w[1]) < POLE_EPS] = 0.0
    return _wrapped_gap(az[0], az[1])


def _el_rows(w: np.ndarray) -> np.ndarray:
    """_delta_el over w[k, j, ...] (component k, clean j = 0, perturbed j = 1)."""
    el = np.arctan2(np.hypot(w[0], w[1]), w[2])
    return _wrapped_gap(el[0], el[1])


def _pseudo_rows(w: np.ndarray, n_az: int) -> np.ndarray:
    """_pseudo_az on the first n_az points and _pseudo_el on the rest, over w[:, :, m], bit for bit.

    w[k, j, i] is component k of the clean (j = 0) and perturbed (j = 1) vector at point i.  Each
    channel measures the angle between two plane vectors (a, b): (x, y) for the azimuth and
    (z, rho) for the elevation, so one set of calls reads both.
    """
    x, y, z = w
    rho = np.sqrt(x * x + y * y)
    xyzr = np.concatenate((w, rho[None]))
    # u[c, j, i]: coordinate c of the plane vector of the clean (j = 0) and perturbed (j = 1) vector
    u = np.concatenate((xyzr[:2, :, :n_az], xyzr[2:, :, n_az:]), axis=2)
    # the pole rule of _pseudo_az
    pole = rho[:, :n_az] < POLE_EPS
    if pole.any():
        u[0, :, :n_az][pole], u[1, :, :n_az][pole] = 1.0, 0.0
    # rows a0, a1, b0, b1; then products (a0*a1, b0*b1) and (a0*b1, b0*a1)
    u = u.reshape(4, -1)
    cc = u[0::2] * u[1::2]
    ss = u[0::2] * u[3::-2]
    c = cc[0] + cc[1]
    s = ss[0] - ss[1]
    return _ONE - c / (np.abs(s) + np.abs(c))


def _wrapped_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(d, 2*pi - d) for d = abs(a - b) % (2*pi), elementwise, rounded as on Python floats."""
    d = np.abs(a - b)
    d %= _TWO_PI
    return np.minimum(d, _TWO_PI - d)
