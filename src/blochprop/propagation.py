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

from dataclasses import dataclass
from math import atan2, cos, hypot, inf, isfinite, pi, sin, sqrt
from sys import float_info
from typing import NamedTuple

import numpy as np

from .bloch import EulerAngles, _as_array, _no_overflow, _require_unit_norm, matrix_to_cartesian, qubit_to_matrix
from .rotations import _euler_entries, _rotation_matrix, _row_times, euler_matrix, su2_from_euler
from .scalar import (
    POLE_EPS, _TWO_PI, _Family, _check_phase, _count, _delta_scalar, _family, _finite_float, _finite_triple,
    _finite_vector, _require_unit
)
# re-exported, so that these stay importable from this module
from .scalar import DegenerateRotationError, delta_closed_form, period

ANTISYMMETRY_TOL = 1e-12
# min(d, 2*pi - d) can exceed pi by a rounding ulp when d is near pi
DELTA_RANGE_SLACK = 1e-12
# rotation_log reads the axis of rotations this close to a half-turn (in sin
# of the angle) from the symmetric part; within HALF_TURN_TOL the axis sign
# is lost in rounding
NEAR_HALF_TURN = 1e-2
HALF_TURN_TOL = 1e-12


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
        t = _require_finite(self.t, "t")
        daz, del_ = (_as_array(getattr(self, c), c, "numbers in [0, pi]") for c in ("delta_az", "delta_el"))
        if not (t.shape == daz.shape == del_.shape and t.ndim == 1):
            raise ValueError("series columns must be 1-d arrays of equal length")
        # compared, not differenced: the difference of two finite times can overflow
        if not (t[1:] > t[:-1]).all():
            raise ValueError("sample times t must be strictly increasing")
        hi = pi + DELTA_RANGE_SLACK
        # written so that NaN, which compares False, fails the range check
        if daz.size and not (daz.min() >= 0 and daz.max() <= hi and del_.min() >= 0 and del_.max() <= hi):
            raise ValueError("discrepancies must lie in [0, pi]")
        for name, column in zip(("t", "delta_az", "delta_el"), (t, daz, del_)):
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return int(self.t.size)


def delta_pair(w, w_err) -> tuple[float, float]:
    """Wrapped (azimuth, elevation) discrepancies between two finite 3-vectors of norm at least POLE_EPS."""
    vx, vy, vz = _finite_vector(w, "w")
    wx, wy, wz = _finite_vector(w_err, "w_err")
    for name, v, norm in (("w", w, hypot(hypot(vx, vy), vz)), ("w_err", w_err, hypot(hypot(wx, wy), wz))):
        if norm < POLE_EPS:
            raise ValueError(f"{name} must have a norm of at least {POLE_EPS!r}, as discrepancies are undefined for"
                             f" zero vectors; got {v!r}")
    return _delta_scalar(vx, vy, vz, wx, wy, wz)


def _require_finite(x, name: str) -> np.ndarray:
    """x as a float array of finite numbers; else a ValueError that names x."""
    x = _as_array(x, name, "finite numbers")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


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
    A ``steps`` whose arrays cannot be allocated raises ValueError.
    """
    n = _count(steps, "steps", 0)
    step = _finite_triple(step, "step: Euler angles", "step angles")
    pair = np.array([_require_unit(v, "v"), _require_unit(v_err, "v_err")])
    try:
        # numpy refuses an array past its index range with ValueError, and np.arange reads a length
        # near 2**63 as 0; every smaller run that does not fit fails with MemoryError
        if n >= np.iinfo(np.intp).max // 8:
            raise MemoryError
        t = np.arange(n + 1, dtype=float)
        if pipeline == "euler":
            traj = _by_doubling(pair, euler_matrix(step), n, lambda s, w: w @ s)
        elif pipeline == "su2":
            m0 = np.stack([qubit_to_matrix(pair[0]), qubit_to_matrix(pair[1])])
            traj = matrix_to_cartesian(_by_doubling(m0, su2_from_euler(step), n, _conjugate))
            # a step outside SU(2) changes the norm; rotate_su2 rejects such a u before it rotates
            _require_unit_norm(np.hypot(np.hypot(traj[..., 0], traj[..., 1]), traj[..., 2]))
        elif pipeline == "closed":
            gen = rotation_log(euler_matrix(step), allow_half_turn=True)
            # a zero generator leaves the pair as it is: pair @ I would turn -0.0 into +0.0
            traj = pair @ matrix_exp_generator(gen, t) if gen.any() else np.broadcast_to(pair, (n + 1, 2, 3))
        else:
            raise ValueError(f"unknown pipeline {pipeline!r}")
        daz, del_ = _trajectory_deltas(pair, traj)
    except MemoryError:
        raise ValueError(f"steps = {n} is too many: a run of {n + 1} samples does not fit in memory") from None
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
    """u @ m @ u^H for a stack m[..., 2, 2]: kron(u, conj(u)) acting on each m flattened row-major.

    The Kronecker factor is formed as np.kron forms it, one broadcast multiply of u by conj(u),
    without np.kron's wrapper cost.
    """
    factor = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(4, 4)
    return (m.reshape(-1, 4) @ factor.T).reshape(m.shape)


def _trajectory_deltas(pair: np.ndarray, traj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """delta_pair over the rows of traj[i, (clean, perturbed), 3]; row 0 is ``pair``.

    _delta_az's and _delta_el's operations on whole columns: math.hypot and math.atan2 mapped
    over the coordinate lists and read by np.fromiter into one block, then the pole rule and the
    wrap in numpy, which rounds abs, - and % as Python floats do, so every row equals delta_pair
    bit for bit.
    """
    rows = np.array(traj, dtype=float).reshape(-1, 6)
    rows[0] = pair.reshape(6)
    vx, vy, vz, wx, wy, wz = rows.T.tolist()
    rho, rho_err = list(map(hypot, vx, vy)), list(map(hypot, wx, wy))
    # rows: rho, then the azimuths, then the elevations, each clean then perturbed
    block = np.empty((6, len(rho)))
    columns = (rho, rho_err, map(atan2, vy, vx), map(atan2, wy, wx), map(atan2, rho, vz), map(atan2, rho_err, wz))
    for row, column in zip(block, columns):
        row[:] = np.fromiter(column, float, len(rho))
    block[2:4][block[:2] < POLE_EPS] = 0.0
    return _wrapped_gap(block[2], block[3]), _wrapped_gap(block[4], block[5])


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
    """Closed form of sp_general for unit rates (1, 1, 1); omega = sqrt 5.  The phase sqrt(5) * t must be finite."""
    wt = _SQRT5 * _finite_float(t, "t")
    if not isfinite(wt):
        raise ValueError(f"the phase sqrt(5) * t overflows for t = {t!r}")
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
    ``t`` is one finite float, ``s`` a count within the float range, and the step angles
    angles * t / s must be finite.
    """
    s = _count(s, "s", 1)
    if s > float_info.max:
        raise ValueError(f"s must be within the float range, got an integer of {s.bit_length()} bits")
    t = _finite_float(t, "t")
    family = _family(angles)
    _check_phase(family, abs(t))
    scaled = tuple(a * t / s for a in family.rates)
    if not all(map(isfinite, scaled)):
        raise ValueError(f"rotation rates {family.rates!r}: the step angles rates * t / s overflow for t = {t!r}")
    powered = np.linalg.matrix_power(euler_matrix(scaled), s)
    return float(np.linalg.norm(powered - _family_matrices(np.array(t), family)))


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


def matrix_exp_generator(j, t) -> np.ndarray:
    """Rotation exponential exp(t j) of an antisymmetric 3x3 matrix, [..., 3, 3] for t of any shape.

    Rodrigues construction on the normalized matrix n = j / w with
    w = |(j32, j13, j21)| the rotation rate: exp(t j) = I + sin(w t) n
    + (1 - cos(w t)) n^2.  For the generator of rates (phi, theta, psi)
    the axis direction is -(0, theta, phi+psi) and w = omega.  Each matrix
    depends only on its own t, so matrix_exp_generator(j, ts)[k] equals
    matrix_exp_generator(j, ts[k]).  A ``j`` that is not a finite antisymmetric
    3x3 matrix, a non-finite t, or a phase w * t that overflows raises ValueError.
    """
    j = _as_array(j, "generator", "a finite antisymmetric 3x3 matrix")
    # finiteness first: a NaN entry compares False, so it would pass the > test, and inf - inf warns
    with _no_overflow("generator"):
        if j.shape != (3, 3) or not np.isfinite(j).all() or float(np.abs(j + j.T).max()) > ANTISYMMETRY_TOL:
            raise ValueError("generator must be a finite antisymmetric 3x3 matrix")
        w = float(np.hypot(np.hypot(j[2, 1], j[0, 2]), j[1, 0]))
    t = _require_finite(t, "t")
    if w == 0.0:
        return np.tile(np.eye(3), t.shape + (1, 1))
    t_max = float(np.abs(t).max()) if t.size else 0.0
    # as _check_phase: cos and sin take no infinity
    if w * t_max == inf:
        raise ValueError(f"generator rate w = {w!r}: w * t overflows for |t| up to {t_max!r}")
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
    integer power of r.  An ``r`` that is not a rotation matrix, by the
    rule of rotations._rotation_matrix, raises ValueError.
    """
    r = _rotation_matrix(r, "r")
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
    family and are rejected.  A malformed or non-finite step raises
    ValueError, as in simulate.
    """
    step = _finite_triple(step, "step: Euler angles", "step angles")
    gen = rotation_log(euler_matrix(step))
    if abs(float(gen[2, 1])) > 1e-9:
        raise ValueError(
            "step matrix logarithm has an x-generator component; "
            "no equivalent rates exist in the z-y-z family"
        )
    theta_eff = float(gen[2, 0])
    a_eff = float(gen[0, 1])
    return EulerAngles(a_eff / 2.0, theta_eff, a_eff / 2.0)


# -- the numpy evaluation path ----------------------------------------------
#
# The plain-float path, and what the two paths share, is described in
# scalar's docstring.  The numpy path is _pair_kernel, whose family is
# _sp_entries.  delta_batch serves many points at once and reads the angles of
# the kernel's vectors with numpy's hypot and arctan2 (_az_rows and _el_rows,
# stacked), which may round otherwise than math's, so delta_batch and
# delta_closed_form agree to about 1e-15 but not bit for bit.  The period grid
# of analysis.estimate_period_numeric reads one channel of the unit-speed
# family's kernel at phases in [0, 4 pi] with _az_rows or _el_rows.  The search's
# lockstep batch reads the kernel's vectors with _pseudo_rows, bit for bit
# scalar._pseudo_az and scalar._pseudo_el.
#
# simulate builds its trajectories with numpy but reads their discrepancies with
# _delta_az's and _delta_el's operations applied to whole columns
# (_trajectory_deltas): math.hypot and math.atan2 mapped over the coordinate
# lists, then the pole rule and the wrap in numpy, whose abs, - and % round
# as Python's do.  So every sample is delta_pair of its row bit for bit, and
# sample 0 that of the input pair (_el_rows would read the reference run's
# initial 0.19999999999999996 as 0.20000000000000018).


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
