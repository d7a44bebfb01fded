"""Extrema, numeric periods, and the built-in case studies; time averages are in scalar.

The objective throughout is delta_closed_form(err, t, angles, base) viewed
as a function of the four search variables (eps_x, eps_y, eps_z, t) on the
box [0, 2*pi)^4 with the rotation rates held fixed.  It is cheap, bounded,
multimodal, and non-smooth where the wrapped angle differences kink, so
extrema are located by multi-start Nelder-Mead restricted to the box.  The
starts minimize a pseudo-angle of the discrepancy, a strictly increasing
function of it built from + - * / sqrt and abs only (see scalar's notes on
the evaluation paths), so the search takes the same steps on every host.
All starts, and in find_extrema all four extrema, advance together as one
batch of simplices evaluated in numpy.  Plain floats take over twice: an
objective call of at most HANDOFF_ROWS points runs on the point readers,
and the last HANDOFF_ROWS live starts finish one at a time in a float copy
of the method; each start still follows its own path, stop test and
evaluation cap, exactly as it would alone.  Each extremum reports
delta_closed_form at the best point of its best start, with the
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

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from math import acos, inf, nextafter, pi
from numbers import Integral
from operator import index

import numpy as np

from .bloch import EulerAngles
from .propagation import ErrorSeries, _az_rows, _el_rows, _pair_kernel, _pseudo_rows
from .scalar import (
    PROBE_ERR, PeriodEstimationError, _TWO_PI, _check_phase, _count, _delta_az, _delta_el, _family, _finite_triple,
    _floats, _period, _point_reader, _pseudo_az, _pseudo_el, _require_unit, _samples, _start_pair, _target_index,
    _z_curve, period
)
# re-exported, so that these stay importable from this module
from .scalar import QUAD_EPSREL, QUAD_LIMIT, TimeAverage, time_averaged_error

# the default search box is half-open, [0, 2*pi) per coordinate: its upper edge stays below 2*pi
BOX_HI = nextafter(2.0 * pi, 0.0)
SEARCH_BOX = ((0.0, BOX_HI),) * 4

# evaluation cap of one Nelder-Mead start
MAX_EVALS = 2000
# objective calls of at most this many points run in plain floats, and so do four-coordinate starts
# once at most this many are live
HANDOFF_ROWS = 32
STARTS_AT_BEST_TOL = 1e-9

PERIOD_GRID = 1024
PERIOD_MATCH_TOL = 1e-6


class PeriodEstimate(float):
    """Estimated period; ``degenerate`` marks a signal too flat to tell its shifts apart.

    A signal whose range on the grid is below PERIOD_MATCH_TOL (zero error, an
    error that commutes with the rotation, or one too small to show) would
    match every shift, so the analytic value is returned by convention and
    flagged.  ``residual`` is the matched period's largest gap
    |delta(s + shift) - delta(s)| on the phase grid, the shift being pi for
    T/2 and 2 pi for T; 0.0 when degenerate.
    """

    degenerate: bool
    residual: float

    def __new__(cls, value: float, degenerate: bool = False, residual: float = 0.0) -> "PeriodEstimate":
        self = super().__new__(cls, value)
        self.degenerate = bool(degenerate)
        self.residual = float(residual)
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

    A small numpy call costs about the same whatever its size, so plain
    floats take over twice at HANDOFF_ROWS.  ``point(row)``, the objective
    of start ``row`` on one point (n floats), evaluates every call of at
    most HANDOFF_ROWS points; and once at most HANDOFF_ROWS four-coordinate
    starts are live, _nelder_mead_tail finishes each, the same method in
    plain floats.  ``point(row)`` must equal f's value of a point bit for
    bit, or either choice changes a start's path.  Returns (x_best [N, n],
    f_best [N], nfev [N]).
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    num, n = x0.shape
    reader = cache(point)

    def values(x, rows):
        if rows.size > HANDOFF_ROWS:
            return f(x, rows)
        return np.array([reader(r)(p) for r, p in zip(rows.tolist(), x.tolist())])

    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    diag = np.arange(n)
    sim[:, diag + 1, diag] = np.where(x0 + 0.25 <= hi, x0 + 0.25, x0 - 0.25)
    sim[:, 1:] = np.clip(sim[:, 1:], lo, hi)
    vals = values(sim.reshape(-1, n), np.repeat(np.arange(num), n + 1)).reshape(num, n + 1)
    nfev = np.full(num, n + 1)
    x_best = np.empty((num, n))
    f_best = np.empty(num)
    nfev_out = np.empty(num, dtype=int)
    rows = np.arange(num)

    while True:
        # the stable sort of each start's vertices, gathered by one flat take per array
        order = (vals.argsort(axis=1, kind="stable") + np.arange(0, vals.size, n + 1)[:, None]).ravel()
        sim = sim.reshape(-1, n).take(order, axis=0).reshape(-1, n + 1, n)
        vals = vals.ravel().take(order).reshape(-1, n + 1)
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
            rows, sim, vals, nfev = rows.take(live), sim.take(live, axis=0), vals.take(live, axis=0), nfev.take(live)
        if n == 4 and rows.size <= HANDOFF_ROWS:
            for k, row in enumerate(rows.tolist()):
                x_best[row], f_best[row], nfev_out[row] = _nelder_mead_tail(
                    reader(row), sim[k].tolist(), vals[k].tolist(), int(nfev[k]), lo.tolist(), hi.tolist(), maxfev
                )
            break

        cen = sim[:, 0]
        for k in range(1, n):
            cen = cen + sim[:, k]
        cen = cen / n
        step = cen - sim[:, n]
        refl = np.minimum(np.maximum(cen + step, lo), hi)
        fr = values(refl, rows)
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
            fc = values(cand, rows[second])
            nfev[second] += 1
            fr2, exp2 = fr[second], expand[second]
            take = np.where(exp2, fc < fr2, fc < np.minimum(fr2, vals[second, n]))
            refl[second] = np.where(take[:, None], cand, refl[second])
            fr[second] = np.where(take, fc, fr2)
            shrink = second[~(exp2 | take)]
            if shrink.size:
                best = sim[shrink, :1]
                pts = best + 0.5 * (sim[shrink, 1:] - best)
                fs = values(pts.reshape(-1, n), np.repeat(rows[shrink], n)).reshape(-1, n)
                nfev[shrink] += n
                sim[shrink, 1:n], vals[shrink, 1:n] = pts[:, :-1], fs[:, :-1]
                refl[shrink], fr[shrink] = pts[:, -1], fs[:, -1]
        sim[:, n], vals[:, n] = refl, fr

    return x_best, f_best, nfev_out


def _nelder_mead_tail(f, sim, vals, nfev, lo, hi, maxfev):
    """One four-coordinate start of _nelder_mead_batch, continued in plain floats from its state.

    ``sim`` holds the 5 vertices (sequences of 4 floats) sorted as the batch's
    stable argsort leaves them, ``vals`` their values and ``nfev`` the evaluations
    so far; ``f(p)`` is the value of one point.  Each coordinate's centroid, step,
    clip, candidate and shrink is written out in the batch's order of operations,
    and the points are evaluated in the same order, so the start takes the same
    path, stop test and count as in the batch.  Returns (x_best, f_best, nfev).
    """
    (lx, ly, lz, lt), (hx, hy, hz, ht) = lo, hi
    while True:
        best = sim[0]
        if nfev >= maxfev or (
            vals[4] - vals[0] <= 1e-10 and all(abs(c - b) <= 1e-8 for v in sim[1:] for c, b in zip(v, best))
        ):
            return best, vals[0], nfev

        (bx, by, bz, bt), (px, py, pz, pt), (qx, qy, qz, qt), (rx, ry, rz, rt), (wx, wy, wz, wt) = sim
        # the batch's centroid (((s0 + s1) + s2) + s3) / 4
        cx, cy = (bx + px + qx + rx) / 4, (by + py + qy + ry) / 4
        cz, ct = (bz + pz + qz + rz) / 4, (bt + pt + qt + rt) / 4
        dx, dy, dz, dt = cx - wx, cy - wy, cz - wz, ct - wt
        x, y, z, t = cx + dx, cy + dy, cz + dz, ct + dt
        # the batch's np.minimum(np.maximum(x, lo), hi)
        refl = (lx if x < lx else hx if x > hx else x, ly if y < ly else hy if y > hy else y,
                lz if z < lz else hz if z > hz else z, lt if t < lt else ht if t > ht else t)
        fr = f(refl)
        nfev += 1
        expand = fr < vals[0]
        if expand or not fr < vals[3]:
            if expand:
                x, y, z, t = cx + 2.0 * dx, cy + 2.0 * dy, cz + 2.0 * dz, ct + 2.0 * dt
            elif fr < vals[4]:
                x, y, z, t = refl
                x, y, z, t = cx + 0.5 * (x - cx), cy + 0.5 * (y - cy), cz + 0.5 * (z - cz), ct + 0.5 * (t - ct)
            else:
                x, y, z, t = cx - 0.5 * dx, cy - 0.5 * dy, cz - 0.5 * dz, ct - 0.5 * dt
            cand = (lx if x < lx else hx if x > hx else x, ly if y < ly else hy if y > hy else y,
                    lz if z < lz else hz if z > hz else z, lt if t < lt else ht if t > ht else t)
            fc = f(cand)
            nfev += 1
            if fc < fr if expand else fc < min(fr, vals[4]):
                refl, fr = cand, fc
            elif not expand:
                # shrink toward the best vertex, then sort all of it again
                sim[1:] = [(bx + 0.5 * (x - bx), by + 0.5 * (y - by), bz + 0.5 * (z - bz), bt + 0.5 * (t - bt))
                           for x, y, z, t in sim[1:]]
                vals[1:] = map(f, sim[1:])
                nfev += 4
                order = sorted(range(5), key=vals.__getitem__)
                sim, vals = [sim[k] for k in order], [vals[k] for k in order]
                continue
        # the sorted first four vertices stay in order; a stable sort puts the new worst vertex
        # after every one whose value it equals
        k = bisect_right(vals, fr, 0, 4)
        del sim[4], vals[4]
        sim.insert(k, refl)
        vals.insert(k, fr)


def _check_starts(num_starts: int, seed: int) -> tuple[int, int]:
    """(num_starts, seed) as plain ints; rejects a start count below 1 and a seed below 0, or either not an integer.

    A count whose simplices, five 4-vectors a start, cannot be allocated is refused before any start is drawn:
    numpy refuses that unwritten block with MemoryError, or with ValueError past its index range.
    """
    num_starts = _count(num_starts, "num_starts", 1)
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    try:
        np.empty((num_starts, 5, 4))
    except (MemoryError, ValueError):
        raise ValueError(
            f"num_starts = {num_starts} is too many: the simplices of {num_starts} starts do not fit in memory"
        ) from None
    return num_starts, index(seed)


def _box(bounds) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """The lower and upper edges, as floats, of a box of four finite (lo, hi) pairs with lo <= hi; else None."""
    try:
        pairs = [_floats(pair) or () for pair in bounds]
    except TypeError:
        # bounds is not iterable
        return None
    ok = len(pairs) == 4 and all(len(p) == 2 and -inf < p[0] <= p[1] < inf for p in pairs)
    return tuple(zip(*pairs)) if ok else None


# numpy's SeedSequence and PCG64 (O'Neill 2014), the stream of default_rng([seed, i])
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(n: int) -> list[int]:
    """n >= 0 as its little-endian 32-bit words, 0 as [0], as SeedSequence reads an int."""
    return [n >> k & _M32 for k in range(0, n.bit_length() or 1, 32)]


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix: each call xors a word with the next constant, h, h*mult, ..., then multiplies it."""
    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


# SeedSequence's mix of two pool words
def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _start_draws(seed: int, starts) -> list[list[float]]:
    """For each start index i in ``starts``, numpy's default_rng([seed, i]).random(4), bit for bit, with no numpy.

    SeedSequence hashes the 32-bit words of seed and i into a pool of four words, then draws from it the state
    and increment of PCG64, whose steps give each float's 53 bits.  NEP 19 fixes this stream, not Generator's methods.
    """
    seed_words = _words32(seed)
    draws = []
    for i in starts:
        entropy = seed_words + _words32(i)
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(v) for v in (entropy + [0] * 4)[:4]]
        for s in range(4):
            for d in range(4):
                if d != s:
                    pool[d] = _mix(pool[d], hashmix(pool[s]))
        for v in entropy[4:]:
            pool = [_mix(p, hashmix(v)) for p in pool]
        w = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
        state_hi, state_lo, inc_hi, inc_lo = (w[k] | w[k + 1] << 32 for k in (0, 2, 4, 6))
        inc = (inc_hi << 64 | inc_lo) << 1 & _M128 | 1
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _M128
        row = []
        for _ in range(4):
            state = (state * _PCG64_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            row.append((((x >> rot | x << 64 - rot) & _M64) >> 11) * 2.0**-53)
        draws.append(row)
    return draws


def _search(kinds, base_vector, angles, num_starts: int, seed: int, bounds) -> list[ExtremumResult]:
    """Multistart search for several (target, mode) kinds in one lockstep batch.

    Start i of every kind begins at lo + (hi - lo) * u, for u the four floats of
    default_rng([seed, i]).random(4) from _start_draws.  The starts minimize the discrepancy's
    pseudo-angle (scalar._pseudo_az and _pseudo_el), signed for a maximum; each kind then
    reports delta_closed_form at the best vertex of its best start, ranked by that value,
    ties to the lowest start index.
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
    lo, hi = np.array(box[0]), np.array(box[1])
    _check_phase(family, max(abs(float(lo[3])), abs(float(hi[3]))))
    u = np.array(_start_draws(seed, range(num_starts)))
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

    Deterministic for a given seed: start i draws its initial point from numpy's
    default_rng([seed, i]), computed in plain Python, so prefixes agree across different
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
    vector, that is arccos(-|z|).  The clean vector's z is its z-curve c + R cos(s - alpha) at phase
    s = omega * t (scalar._z_curve, from base and the axis), so it ranges over [c - R, c + R], all
    of it once t spans a period 2*pi/omega.  Hence max_el = arccos(-(|c| + R)); the z-curve keeps
    its bits when the axis is near z, where 1 - n_z^2 would cancel.  This needs ``bounds`` to be a
    search box whose every coordinate covers [0, 2*pi), from 0 or below to BOX_HI or above, and
    omega >= 1, so that t in [0, 2*pi) spans a period; otherwise ValueError.
    """
    b = _require_unit(base, "base")
    family = _family(rates)
    box = _box(bounds)
    if box is None or not (max(box[0]) <= 0.0 and min(box[1]) >= BOX_HI):
        raise ValueError(f"the closed forms need the full search box [0, 2*pi)^4, got {bounds!r}")
    if not family.omega >= 1.0:
        raise ValueError(f"the closed forms need omega >= 1, so that t spans a period; got {family.omega!r}")
    c, r, _ = _z_curve(*b, family.na, family.nt)
    return pi, acos(-min(1.0, abs(c) + r)), 0.0, 0.0


def estimate_period_numeric(target: str, err, angles, base=(1.0, 0.0, 0.0)) -> PeriodEstimate:
    """Half the analytic period T if that shift matches the sampled discrepancy signal, else T.

    Under the rotation family every coordinate moves along a single harmonic of the phase, and
    every signal surveyed repeats after T/2 or T, or is constant; that no shorter divisor occurs
    is observed, not proved (see the README), so only T/2 and T are tried.  The signal is
    read over the phase s = omega * t, at time s of the unit-speed family (omega = 1, the same
    axis), where T/2 and T are the shifts pi and 2 pi: a shift is accepted when
    max_s |delta(s) - delta(s + shift)| over a PERIOD_GRID-point grid of [0, 2 pi] stays below
    PERIOD_MATCH_TOL and below half the signal's range on the grid (a gap near the whole range
    of a barely moving signal is no match), and no point leaves [0, 4 pi] at any rate.  A
    signal whose range on the grid is below that tolerance would match every shift, so it is
    flagged degenerate and assigned the analytic period.

    The signal is read as delta_batch reads its ``target`` column: one kernel call evaluates the
    grid and both shifts of it, and only the target's discrepancy is read (_az_rows or _el_rows).
    """
    idx = _target_index(target)
    err = _finite_triple(err, "Euler angles", "err")
    base = _require_unit(base, "base")
    family = _family(angles)
    t_period = _period(family)
    kernel = _pair_kernel(family._replace(omega=1.0), base)
    read = (_az_rows, _el_rows)[idx]
    phases = np.linspace(0.0, _TWO_PI, PERIOD_GRID)
    sig, half, whole = read(kernel(err, phases + np.array([[0.0], [pi], [_TWO_PI]])))
    spread = float(sig.max() - sig.min())
    if spread < PERIOD_MATCH_TOL:
        return PeriodEstimate(t_period, degenerate=True)
    tol = min(PERIOD_MATCH_TOL, spread / 2)
    for k, shifted in ((2, half), (1, whole)):
        residual = float(np.abs(shifted - sig).max())
        if residual < tol:
            return PeriodEstimate(t_period / k, residual=residual)
    raise PeriodEstimationError(f"no period among T/2, T fits the {target} signal for angles {tuple(angles)}")


CASE_SERIES_SAMPLES = 512


def case_series(spec: CaseSpec) -> ErrorSeries:
    """One-period closed-form series of the probe error (0, 0.2, 0)."""
    family = _family(spec.angles)
    ts = np.linspace(0.0, _period(family), CASE_SERIES_SAMPLES)
    start = _start_pair(PROBE_ERR, _require_unit(spec.base_vector, "base_vector"))
    phases = [family.omega * t for t in ts.tolist()]
    daz, del_ = (np.array(_samples(idx, *start, family.na, family.nt, phases)) for idx in (0, 1))
    return ErrorSeries(t=ts, delta_az=daz, delta_el=del_)


def run_case_study(spec: CaseSpec, num_starts: int = 1000, seed: int = 0) -> CaseReport:
    """Periods, the four extremal values, and a one-period plotting series.

    The numeric period and the series use the fixed probe error (0, 0.2, 0)
    on the elevation channel; extrema search the case's error box.  A
    ``spec`` that is not a CaseSpec raises ValueError.
    """
    if not isinstance(spec, CaseSpec):
        raise ValueError(f"spec must be a CaseSpec, got {spec!r}")
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

