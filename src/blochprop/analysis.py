"""Extrema, time averages, numeric periods, and the built-in case studies.

The objective throughout is delta_closed_form(err, t, angles, base) viewed
as a function of the four search variables (eps_x, eps_y, eps_z, t) on the
box [0, 2*pi)^4 with the rotation rates held fixed.  It is cheap, bounded,
multimodal, and non-smooth where the wrapped angle differences kink, so
extrema are located by multi-start Nelder-Mead restricted to the box.  The
starts minimize a pseudo-angle of the discrepancy, a strictly increasing
function of it built from + - * / sqrt and abs only (see propagation's notes
on the evaluation paths), so the search takes the same steps on every host.
All starts, and in find_extrema all four extrema, advance together as one
batch of simplices evaluated in numpy, and the last HANDOFF_ROWS live starts
finish one at a time in plain floats; each start still follows its own path,
stop test and evaluation cap, exactly as it would alone.  Each extremum
reports delta_closed_form at the best point of its best start, with the
evaluations spent, the starts that hit the cap and the starts that reached
the reported value.  Every reported extremum is attained at its reported
point, which makes max values certified lower bounds of the true suprema
(and min values upper bounds of the infima); closed_form_extrema gives the
suprema and infima themselves where the whole box is searched and
omega >= 1.

Reported extremum locations are not unique: the objective has large
symmetry orbits, so different seeds reach different argmax points with the
same value.  Only the values are meaningful.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from math import acos, inf, nextafter, pi, sqrt
from numbers import Integral
from operator import add, index, sub

import numpy as np

from .bloch import EulerAngles, _require_unit
from .propagation import (
    ErrorSeries,
    _az_rows,
    _check_phase,
    _closed_form_at,
    _count,
    _delta_az,
    _delta_el,
    _el_rows,
    _family,
    _pair_kernel,
    _period,
    _point_reader,
    _pseudo_az,
    _pseudo_el,
    _pseudo_rows,
    period,
)
from .rotations import _finite_triple

TWO_PI = 2.0 * pi
# half-open search box per coordinate; the upper edge stays below 2*pi
BOX_HI = nextafter(TWO_PI, 0.0)
SEARCH_BOX = ((0.0, TWO_PI),) * 4

# evaluation cap of one Nelder-Mead start
MAX_EVALS = 2000
# a lockstep batch with this many live starts or fewer finishes each of them alone, in plain floats
HANDOFF_ROWS = 16
STARTS_AT_BEST_TOL = 1e-9

PERIOD_GRID = 1024
PERIOD_MATCH_TOL = 1e-6
# every PERIOD_SCREEN_STRIDE-th grid point screens all period candidates at once
PERIOD_SCREEN_STRIDE = 64
CONSTANT_SIGNAL_TOL = 1e-9

# time_averaged_error's relative tolerance and subdivision limit
QUAD_EPSREL = 1e-10
QUAD_LIMIT = 200

_TARGETS = {"az": 0, "el": 1}


class UnknownTargetError(ValueError, KeyError):
    """A target other than "az" or "el"; also a KeyError, as the lookup raised before."""

    __str__ = ValueError.__str__


def _target_index(target: str) -> int:
    """Column of ``target`` in a (delta_az, delta_el) pair."""
    try:
        return _TARGETS[target]
    except (KeyError, TypeError):
        raise UnknownTargetError(f"target must be 'az' or 'el', got {target!r}") from None


class PeriodEstimationError(RuntimeError):
    """No candidate period below ten analytic periods matched the signal."""


class PeriodEstimate(float):
    """Estimated period; ``degenerate`` marks a constant signal.

    A constant discrepancy signal (zero error, or an error that commutes
    with the rotation) is periodic with every period, so the analytic value
    is returned by convention and flagged instead of raising.  ``residual``
    is the matched candidate's max |delta(t + period) - delta(t)| over the
    grid, 0.0 when degenerate.
    """

    degenerate: bool
    residual: float

    def __new__(cls, value: float, degenerate: bool = False, residual: float = 0.0) -> "PeriodEstimate":
        self = super().__new__(cls, value)
        self.degenerate = bool(degenerate)
        self.residual = float(residual)
        return self


class TimeAverage(float):
    """Time-averaged discrepancy with its quadrature's error estimate.

    ``abserr`` is the quadrature's absolute error estimate of the integral
    divided by the period, so it bounds the error of the average itself;
    ``neval`` is the number of integrand evaluations the quadrature made.
    Both equal what scipy.integrate.quad reports for the same integral.
    """

    abserr: float
    neval: int

    def __new__(cls, value: float, abserr: float, neval: int) -> "TimeAverage":
        self = super().__new__(cls, value)
        self.abserr = float(abserr)
        self.neval = int(neval)
        return self


@dataclass(frozen=True)
class ExtremumResult:
    """One extremum of a discrepancy over (eps_x, eps_y, eps_z, t)."""

    kind: str
    # delta_closed_form's discrepancy at ``at``, the best point of the best start
    value: float
    at: tuple[float, float, float, float]
    base_vector: tuple[float, float, float]
    num_starts: int
    seed: int
    # objective evaluations over all starts, and starts ended by the cap
    nfev: int
    capped_starts: int
    # starts whose value lies within STARTS_AT_BEST_TOL of the reported one
    starts_at_best: int


@dataclass(frozen=True)
class CaseSpec:
    """One fixed-rotation-rate configuration to analyze end to end."""

    label: str
    angles: EulerAngles
    base_vector: tuple[float, float, float] = (1.0, 0.0, 0.0)
    err_search: tuple[tuple[float, float], ...] = SEARCH_BOX


@dataclass(frozen=True)
class CaseReport:
    """Per-case results: periods, four extremal values, plotting series."""

    spec: CaseSpec
    analytic_period: float
    numeric_period: PeriodEstimate
    max_az: float
    max_el: float
    min_az: float
    min_el: float
    series: ErrorSeries


def _nelder_mead_batch(f, point, x0, lo, hi, maxfev=MAX_EVALS):
    """Bounded Nelder-Mead from N starts advanced in lockstep.

    ``f(x, rows)`` returns the values [m] of the points x [m, n], where
    rows[k] is the start that x[k] belongs to; rows never decrease.  Each
    start keeps its own (n+1)-vertex simplex, evaluation count and stop
    test; the standard reflection/expansion/contraction/shrink coefficients
    (1, 2, 1/2, 1/2) are chosen per start with masks.  Candidates are clipped into the box,
    so a simplex can flatten against a face; the evaluation cap then ends
    that start, and its best vertex is still a valid attained value.  Only
    the points the method uses are evaluated, so every start follows the
    same path and count as it would alone.

    A lockstep iteration costs about the same numpy time whatever its size,
    so once HANDOFF_ROWS or fewer starts are live, each is finished by
    _nelder_mead_tail, the same method in plain floats.  ``point(row)``
    returns the objective of start ``row`` on one point (a list of n
    floats); it must equal f's value of that point bit for bit, or the
    handoff changes the start's path.  Returns (x_best [N, n], f_best [N],
    nfev [N]).
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    num, n = x0.shape
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 + 0.25 <= hi, x0 + 0.25, x0 - 0.25)
    sim[:, 1:] = np.clip(sim[:, 1:], lo, hi)
    vals = f(sim.reshape(-1, n), np.repeat(np.arange(num), n + 1)).reshape(num, n + 1)
    nfev = np.full(num, n + 1)
    x_best = np.empty((num, n))
    f_best = np.empty(num)
    nfev_out = np.empty(num, dtype=int)
    rows = np.arange(num)

    while True:
        ix = np.arange(rows.size)[:, None]
        order = vals.argsort(axis=1, kind="stable")
        sim, vals = sim[ix, order], vals[ix, order]
        # a start stops at the cap, or once its values span 1e-10 and its vertices lie within 1e-8;
        # the spread of the vertices is computed only for the starts that pass the value test
        done = nfev >= maxfev
        flat = np.flatnonzero(vals[:, n] - vals[:, 0] <= 1e-10)
        if flat.size:
            spread = np.abs(sim[flat, 1:] - sim[flat, :1]).reshape(flat.size, -1).max(axis=1)
            done[flat[spread <= 1e-8]] = True
        live = np.flatnonzero(~done)
        if live.size < rows.size:
            out = rows[done]
            x_best[out], f_best[out], nfev_out[out] = sim[done, 0], vals[done, 0], nfev[done]
            if not live.size:
                break
            rows, sim, vals, nfev = rows[live], sim[live], vals[live], nfev[live]
        if rows.size <= HANDOFF_ROWS:
            for k, row in enumerate(rows.tolist()):
                x_best[row], f_best[row], nfev_out[row] = _nelder_mead_tail(
                    point(row), sim[k].tolist(), vals[k].tolist(), int(nfev[k]), lo.tolist(), hi.tolist(), maxfev
                )
            break

        cen = sim[:, 0]
        for k in range(1, n):
            cen = cen + sim[:, k]
        cen = cen / n
        step = cen - sim[:, n]
        refl = np.minimum(np.maximum(cen + step, lo), hi)
        fr = f(refl, rows)
        nfev += 1
        # rows that reflect past the best vertex expand; rows whose
        # reflection is no better than the second-worst vertex contract
        expand = fr < vals[:, 0]
        second = np.flatnonzero(expand | ~(fr < vals[:, n - 1]))
        if second.size:
            cand = np.where(
                expand[:, None],
                cen + 2.0 * step,
                np.where((fr < vals[:, n])[:, None], cen + 0.5 * (refl - cen), cen - 0.5 * step),
            )
            cand = np.minimum(np.maximum(cand[second], lo), hi)
            fc = f(cand, rows[second])
            nfev[second] += 1
            fr2, exp2 = fr[second], expand[second]
            take = np.where(exp2, fc < fr2, fc < np.minimum(fr2, vals[second, n]))
            refl[second] = np.where(take[:, None], cand, refl[second])
            fr[second] = np.where(take, fc, fr2)
            shrink = second[~(exp2 | take)]
            if shrink.size:
                best = sim[shrink, :1]
                pts = best + 0.5 * (sim[shrink, 1:] - best)
                fs = f(pts.reshape(-1, n), np.repeat(rows[shrink], n)).reshape(-1, n)
                nfev[shrink] += n
                sim[shrink, 1:n], vals[shrink, 1:n] = pts[:, :-1], fs[:, :-1]
                refl[shrink], fr[shrink] = pts[:, -1], fs[:, -1]
        sim[:, n], vals[:, n] = refl, fr

    return x_best, f_best, nfev_out


def _nelder_mead_tail(f, sim, vals, nfev, lo, hi, maxfev):
    """One start of _nelder_mead_batch, continued in plain floats from its state.

    ``sim`` holds the n+1 vertices (lists of n floats), ``vals`` their values
    and ``nfev`` the evaluations so far; ``f(p)`` is the value of one point.
    Every step is the batch's arithmetic on floats, in the same order, and
    the points are evaluated in the same order, so the start takes the same
    path, stop test and count as in the batch.  Returns (x_best, f_best,
    nfev).
    """
    n = len(lo)
    # the batch's stable argsort: ties keep their order
    order = sorted(range(n + 1), key=vals.__getitem__)
    sim, vals = [sim[k] for k in order], [vals[k] for k in order]
    while True:
        best = sim[0]
        if nfev >= maxfev or (
            vals[n] - vals[0] <= 1e-10 and all(abs(c - b) <= 1e-8 for v in sim[1:] for c, b in zip(v, best))
        ):
            return best, vals[0], nfev

        cen = [reduce(add, c) / n for c in zip(*sim[:n])]
        step = list(map(sub, cen, sim[n]))
        # the batch's np.minimum(np.maximum(x, lo), hi)
        refl = [l if x < l else h if x > h else x for x, l, h in zip(map(add, cen, step), lo, hi)]
        fr = f(refl)
        nfev += 1
        expand = fr < vals[0]
        if expand or not fr < vals[n - 1]:
            if expand:
                cand = [c + 2.0 * d for c, d in zip(cen, step)]
            elif fr < vals[n]:
                cand = [c + 0.5 * (r - c) for c, r in zip(cen, refl)]
            else:
                cand = [c - 0.5 * d for c, d in zip(cen, step)]
            cand = [l if x < l else h if x > h else x for x, l, h in zip(cand, lo, hi)]
            fc = f(cand)
            nfev += 1
            if fc < fr if expand else fc < min(fr, vals[n]):
                refl, fr = cand, fc
            elif not expand:
                # shrink toward the best vertex, then sort all of it again
                pts = [[b + 0.5 * (x - b) for b, x in zip(best, v)] for v in sim[1:]]
                sim[1:], vals[1:] = pts, [f(p) for p in pts]
                nfev += n
                order = sorted(range(n + 1), key=vals.__getitem__)
                sim, vals = [sim[k] for k in order], [vals[k] for k in order]
                continue
        # the sorted first n vertices stay in order; a stable sort puts the new worst vertex
        # after every one whose value it equals
        k = bisect_right(vals, fr, 0, n)
        del sim[n], vals[n]
        sim.insert(k, refl)
        vals.insert(k, fr)


def _check_starts(num_starts: int, seed: int) -> tuple[int, int]:
    """(num_starts, seed) as plain ints; rejects a start count below 1 and a seed below 0, or either not an integer."""
    num_starts = _count(num_starts, "num_starts", 1)
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return num_starts, index(seed)


def _box(bounds) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """The lower and upper edges, as floats, of a box of four finite (lo, hi) pairs with lo <= hi; else None."""
    try:
        lo, hi = zip(*[(float(a), float(b)) for a, b in bounds])
    except (TypeError, ValueError):
        return None
    return (lo, hi) if len(lo) == 4 and all(-inf < a <= b < inf for a, b in zip(lo, hi)) else None


def _search(kinds, base_vector, angles, num_starts: int, seed: int, bounds) -> list[ExtremumResult]:
    """Multistart search for several (target, mode) kinds in one lockstep batch.

    Start i of every kind begins at the same point, drawn from the substream
    seeded by (seed, i).  The starts minimize the discrepancy's pseudo-angle
    (propagation._pseudo_az and _pseudo_el), signed for a maximum; each kind
    then reports delta_closed_form at the best vertex of its best start,
    ranked by that value, ties to the lowest start index.
    """
    for _, mode in kinds:
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    num_starts, seed = _check_starts(num_starts, seed)
    # the batch runs azimuth kinds first, so that each objective call reads each channel on a
    # contiguous slice of its (ascending) rows; the results keep the order of ``kinds``
    run = sorted(range(len(kinds)), key=lambda k: _target_index(kinds[k][0]))
    n_az = num_starts * sum(kinds[k][0] == "az" for k in run)
    signs = np.repeat([-1.0 if kinds[k][1] == "max" else 1.0 for k in run], num_starts)
    base = _require_unit(base_vector, "base_vector")
    family = _family(angles)
    box = _box(bounds)
    if box is None:
        raise ValueError(f"bounds must be four finite (lo, hi) pairs with lo <= hi, got {bounds!r}")
    lo, hi = np.array(box[0]), np.minimum(box[1], BOX_HI)
    _check_phase(family, max(abs(float(lo[3])), abs(float(hi[3]))))
    u = np.array([np.random.default_rng([seed, i]).random(4) for i in range(num_starts)])
    x0 = np.tile(lo + (hi - lo) * u, (len(kinds), 1))

    kernel = _pair_kernel(family, base)

    def objective(x, rows):
        return signs[rows] * _pseudo_rows(kernel(x[:, :3], x[:, 3]), int(rows.searchsorted(n_az)))

    readers = (_point_reader(family, base, _pseudo_az), _point_reader(family, base, _pseudo_el))

    def point(row):
        f = readers[row >= n_az]
        return (lambda p: -f(p)) if signs[row] < 0.0 else f

    x, _, nfev = _nelder_mead_batch(objective, point, x0, lo, hi, maxfev=MAX_EVALS)
    exact = (_point_reader(family, base, _delta_az), _point_reader(family, base, _delta_el))
    results = [None] * len(kinds)
    for j, k in enumerate(run):
        target, mode = kinds[k]
        part = slice(j * num_starts, (j + 1) * num_starts)
        at = x[part].tolist()
        values = list(map(exact[_target_index(target)], at))
        best = max(values) if mode == "max" else min(values)
        i = values.index(best)
        results[k] = ExtremumResult(
            kind=f"{mode}_{target}",
            value=best,
            at=tuple(at[i]),
            base_vector=base,
            num_starts=num_starts,
            seed=seed,
            nfev=int(nfev[part].sum()),
            capped_starts=int((nfev[part] >= MAX_EVALS).sum()),
            starts_at_best=sum(abs(v - best) <= STARTS_AT_BEST_TOL for v in values),
        )
    return results


def find_extremum(
    target: str,
    mode: str,
    base_vector,
    angles,
    num_starts: int = 1000,
    seed: int = 0,
    bounds: tuple[tuple[float, float], ...] = SEARCH_BOX,
) -> ExtremumResult:
    """Best discrepancy extremum over the (eps_x, eps_y, eps_z, t) box.

    Deterministic for a given seed: start i draws its initial point from
    the substream seeded by (seed, i), so prefixes agree across different
    num_starts and the best value can only improve as starts are added.
    """
    return _search([(target, mode)], base_vector, angles, num_starts, seed, bounds)[0]


def find_extrema(
    base_vector,
    angles,
    num_starts: int,
    seed: int,
    bounds: tuple[tuple[float, float], ...] = SEARCH_BOX,
) -> tuple[ExtremumResult, ...]:
    """The four extrema in report order: max_az, max_el, min_az, min_el.

    All four searches run as one lockstep batch; each result equals the
    corresponding find_extremum call.
    """
    kinds = [(target, mode) for mode in ("max", "min") for target in ("az", "el")]
    return tuple(_search(kinds, base_vector, angles, num_starts, seed, bounds))


def closed_form_extrema(base, rates, bounds=SEARCH_BOX) -> tuple[float, float, float, float]:
    """The suprema and infima find_extrema searches for, in its report order: max_az, max_el, min_az, min_el.

    Over the full error box base @ S(err) reaches every direction, so at each t the azimuth gap
    reaches pi, both gaps reach 0, and the elevation gap reaches max(el, pi - el) of the clean
    vector, that is arccos(-|z|).  The clean vector circles the axis n = (0, theta, phi+psi)/omega
    at the angle arccos(c), c = base . n, so its z ranges over c*n_z -+ sqrt(1-c^2)*sqrt(1-n_z^2),
    all of it once t spans a period 2*pi/omega.  Hence max_el = arccos(-(|c*n_z| +
    sqrt(1-c^2)*sqrt(1-n_z^2))).  This needs ``bounds`` to be a search box whose every coordinate
    covers [0, 2*pi], and omega >= 1, so that t in [0, 2*pi) spans a period; otherwise ValueError.
    """
    b = _require_unit(base, "base")
    family = _family(rates)
    box = _box(bounds)
    if box is None or not (max(box[0]) <= 0.0 and min(box[1]) >= TWO_PI):
        raise ValueError(f"the closed forms need the full search box [0, 2*pi]^4, got {bounds!r}")
    if not family.omega >= 1.0:
        raise ValueError(f"the closed forms need omega >= 1, so that t spans a period; got {family.omega!r}")
    n_z = family.na
    c = min(1.0, abs(b[1] * family.nt + b[2] * n_z))
    z_max = min(1.0, c * abs(n_z) + sqrt(1.0 - c * c) * sqrt(max(0.0, 1.0 - n_z * n_z)))
    return pi, acos(-z_max), 0.0, 0.0


def time_averaged_error(
    target: str, err, angles, base=(1.0, 0.0, 0.0), tol: float = 1e-8
) -> TimeAverage:
    """Mean discrepancy over one full period, (1/T) * integral of delta.

    Adaptive quadrature (quadpack.dqagse, QUADPACK's QAGS, which gives
    scipy.integrate.quad's result bit for bit) with epsabs ``tol``, epsrel
    1e-10 and at most 200 subintervals; the integrand has kinks where the
    wrapped difference folds, which the subdivision resolves without
    assistance.  ``tol`` bounds the error of the integral over the period,
    so the average's own absolute tolerance is tol / T, tighter for slow
    rates: rates (0, 0, 1e-10) give T of about 6e10, and the azimuth's zero
    average then exhausts the 200 subintervals on rounding noise.  The
    integrand is delta_closed_form(err, t, angles, base)[target] at fixed
    err, angles and base, evaluated through a per-t closure that computes
    only the target's discrepancy (see propagation's notes on the two
    evaluation paths); each sample gives the pair's value bit for bit, so
    the result does not depend on the shortcut.  The result is a float that
    also carries the error estimate and evaluation count (see TimeAverage).
    A nonzero error code of the quadrature warns with quadpack's
    IntegrationWarning and quad's message for that code.
    """
    # imported on the first call: without cached bytecode, compiling quadpack would add about 5%
    # to the start-up of every command that never integrates
    from .quadpack import IntegrationWarning, dqagse, message

    idx = _target_index(target)
    err = _finite_triple(err, "Euler angles", "err")
    base = _require_unit(base, "base")
    family = _family(angles)
    t_period = _period(family)
    val, abserr, neval, ier = dqagse(
        _closed_form_at(err, family, base, (_delta_az, _delta_el)[idx]),
        0.0,
        t_period,
        float(tol),
        QUAD_EPSREL,
        QUAD_LIMIT,
    )
    if ier:
        warnings.warn(message(ier, QUAD_LIMIT), IntegrationWarning, stacklevel=2)
    return TimeAverage(val / t_period, abserr / t_period, neval)


def estimate_period_numeric(target: str, err, angles, base=(1.0, 0.0, 0.0)) -> PeriodEstimate:
    """Smallest candidate period matching the sampled discrepancy signal.

    Candidates T/16 ... T/2, T, 2T ... 10T around the analytic period T are
    accepted when max_t |delta(t) - delta(t + candidate)| over a dense
    one-period grid of PERIOD_GRID points stays below PERIOD_MATCH_TOL.
    A constant signal is flagged degenerate and assigned the analytic
    period (every positive number is a period of a constant).

    The signal is delta_batch's ``target`` column: the kernel is built
    once and only the target's discrepancy is read (_az_rows or _el_rows).
    All candidates are first screened together, in one kernel call, on
    every PERIOD_SCREEN_STRIDE-th grid point; only those that pass are
    checked on the full grid, in candidate order.  The screen never drops
    the candidate the full check would accept: its points are a subset of
    the grid, and the kernel gives each point the same value whatever else
    shares the call, so a candidate's screen maximum never exceeds its grid
    maximum.
    """
    idx = _target_index(target)
    err = _finite_triple(err, "Euler angles", "err")
    base = _require_unit(base, "base")
    family = _family(angles)
    t_period = _period(family)
    kernel = _pair_kernel(family, base)
    read = (_az_rows, _el_rows)[idx]
    ts = np.linspace(0.0, t_period, PERIOD_GRID)
    sig = read(kernel(err, ts))
    if float(sig.max() - sig.min()) < CONSTANT_SIGNAL_TOL:
        return PeriodEstimate(t_period, degenerate=True)

    candidates = [t_period / k for k in range(16, 1, -1)]
    candidates.append(t_period)
    candidates.extend(k * t_period for k in range(2, 11))
    tol = PERIOD_MATCH_TOL
    cands = np.array(candidates)
    stride = slice(None, None, PERIOD_SCREEN_STRIDE)
    screen = read(kernel(err, ts[stride] + cands[:, None]))
    for cand in cands[np.abs(screen - sig[stride]).max(axis=1) < tol].tolist():
        residual = float(np.abs(read(kernel(err, ts + cand)) - sig).max())
        if residual < tol:
            return PeriodEstimate(cand, residual=residual)
    raise PeriodEstimationError(
        f"no period below 10 analytic periods fits the {target} signal for angles {tuple(angles)}"
    )


PROBE_ERR = (0.0, 0.2, 0.0)
CASE_SERIES_SAMPLES = 512


def case_series(spec: CaseSpec) -> ErrorSeries:
    """One-period closed-form series of the probe error (0, 0.2, 0)."""
    family = _family(spec.angles)
    ts = np.linspace(0.0, _period(family), CASE_SERIES_SAMPLES)
    at = _closed_form_at(PROBE_ERR, family, _require_unit(spec.base_vector, "base_vector"))
    daz, del_ = map(np.array, zip(*map(at, ts.tolist())))
    return ErrorSeries(t=ts, delta_az=daz, delta_el=del_)


def run_case_study(spec: CaseSpec, num_starts: int = 1000, seed: int = 0) -> CaseReport:
    """Periods, the four extremal values, and a one-period plotting series.

    The numeric period and the series use the fixed probe error (0, 0.2, 0)
    on the elevation channel; extrema search the case's error box.
    """
    analytic = period(spec.angles)
    numeric = estimate_period_numeric("el", PROBE_ERR, spec.angles, base=spec.base_vector)
    max_az, max_el, min_az, min_el = (
        r.value
        for r in find_extrema(spec.base_vector, spec.angles, num_starts, seed, bounds=spec.err_search)
    )
    return CaseReport(
        spec=spec,
        analytic_period=analytic,
        numeric_period=numeric,
        max_az=max_az,
        max_el=max_el,
        min_az=min_az,
        min_el=min_el,
        series=case_series(spec),
    )


# Rate triples are (phi, theta, psi).  Where a stated integer ratio admits
# several assignments with different periods 2*pi/hypot(theta, phi+psi),
# the assignment chosen here is the one reproducing the stated period; the
# label records the resolved order.
CASE_STUDIES: tuple[CaseSpec, ...] = (
    CaseSpec(label="integer ratio 2:1:3", angles=EulerAngles(2.0, 1.0, 3.0)),
    CaseSpec(label="integer ratio 1:3:2", angles=EulerAngles(1.0, 3.0, 2.0)),
    CaseSpec(label="integer ratio 1:1:2", angles=EulerAngles(1.0, 1.0, 2.0)),
    CaseSpec(label="integer ratio 1:2:1", angles=EulerAngles(1.0, 2.0, 1.0)),
    CaseSpec(label="transcendental e, pi, 3", angles=EulerAngles(np.e, pi, 3.0)),
    CaseSpec(label="mixed 1, 1, pi", angles=EulerAngles(1.0, 1.0, pi)),
    CaseSpec(label="mixed 1, pi, 1", angles=EulerAngles(1.0, pi, 1.0)),
)

