"""Extrema, time averages, numeric periods, and the built-in case studies.

The objective throughout is delta_closed_form(err, t, angles, base) viewed
as a function of the four search variables (eps_x, eps_y, eps_z, t) on the
box [0, 2*pi)^4 with the rotation rates held fixed.  It is cheap, bounded,
multimodal, and non-smooth where the wrapped angle differences kink, so
extrema are located by multi-start Nelder-Mead restricted to the box.
Every reported extremum is attained at its reported point, which makes max
values certified lower bounds of the true suprema (and min values upper
bounds of the infima); no global-optimality claim is made.

Reported extremum locations are not unique: the objective has large
symmetry orbits, so different seeds reach different argmax points with the
same value.  Only the values are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import nextafter, pi
from typing import Iterator, Sequence

import numpy as np
from scipy.integrate import quad

from .bloch import EulerAngles
from .propagation import ErrorSeries, _require_unit, delta_closed_form, period

TWO_PI = 2.0 * pi
# half-open search box per coordinate; the upper edge stays below 2*pi
BOX_HI = nextafter(TWO_PI, 0.0)
SEARCH_BOX = ((0.0, TWO_PI),) * 4

PERIOD_GRID = 1024
PERIOD_MATCH_TOL = 1e-6
CONSTANT_SIGNAL_TOL = 1e-9

_TARGETS = {"az": 0, "el": 1}


class PeriodEstimationError(RuntimeError):
    """No candidate period below ten analytic periods matched the signal."""


class PeriodEstimate(float):
    """Estimated period; ``degenerate`` marks a constant signal.

    A constant discrepancy signal (zero error, or an error that commutes
    with the rotation) is periodic with every period, so the analytic value
    is returned by convention and flagged instead of raising.
    """

    degenerate: bool

    def __new__(cls, value: float, degenerate: bool = False) -> "PeriodEstimate":
        self = super().__new__(cls, value)
        self.degenerate = bool(degenerate)
        return self


@dataclass(frozen=True)
class ExtremumResult:
    """One extremum of a discrepancy over (eps_x, eps_y, eps_z, t)."""

    kind: str
    value: float
    at: tuple[float, float, float, float]
    base_vector: tuple[float, float, float]
    num_starts: int
    seed: int


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


def _clip(x: list[float], lo: Sequence[float], hi: Sequence[float]) -> list[float]:
    return [lo[j] if x[j] < lo[j] else hi[j] if x[j] > hi[j] else x[j] for j in range(len(x))]


def _nelder_mead(f, x0, lo, hi, fatol=1e-10, xatol=1e-8, maxfev=2000):
    """Bounded Nelder-Mead minimization; returns (x_best, f_best, nfev).

    Standard reflection/expansion/contraction/shrink coefficients
    (1, 2, 1/2, 1/2); candidates are clipped into the box, so the simplex
    can flatten against a face, in which case the evaluation cap ends the
    start and the best vertex so far is still a valid attained value.
    """
    n = len(x0)
    pts = [list(x0)]
    for j in range(n):
        p = list(x0)
        p[j] = p[j] + 0.25 if p[j] + 0.25 <= hi[j] else p[j] - 0.25
        pts.append(_clip(p, lo, hi))
    vals = [f(p) for p in pts]
    nfev = n + 1

    while nfev < maxfev:
        order = sorted(range(n + 1), key=vals.__getitem__)
        pts = [pts[k] for k in order]
        vals = [vals[k] for k in order]
        if vals[-1] - vals[0] <= fatol and max(
            abs(pts[k][j] - pts[0][j]) for k in range(1, n + 1) for j in range(n)
        ) <= xatol:
            break

        cen = [sum(pts[k][j] for k in range(n)) / n for j in range(n)]
        worst = pts[-1]
        refl = _clip([cen[j] + (cen[j] - worst[j]) for j in range(n)], lo, hi)
        fr = f(refl)
        nfev += 1
        if fr < vals[0]:
            expd = _clip([cen[j] + 2.0 * (cen[j] - worst[j]) for j in range(n)], lo, hi)
            fe = f(expd)
            nfev += 1
            pts[-1], vals[-1] = (expd, fe) if fe < fr else (refl, fr)
        elif fr < vals[-2]:
            pts[-1], vals[-1] = refl, fr
        else:
            if fr < vals[-1]:
                cont = [cen[j] + 0.5 * (refl[j] - cen[j]) for j in range(n)]
            else:
                cont = [cen[j] + 0.5 * (worst[j] - cen[j]) for j in range(n)]
            cont = _clip(cont, lo, hi)
            fc = f(cont)
            nfev += 1
            if fc < min(fr, vals[-1]):
                pts[-1], vals[-1] = cont, fc
            else:
                best = pts[0]
                for k in range(1, n + 1):
                    pts[k] = [best[j] + 0.5 * (pts[k][j] - best[j]) for j in range(n)]
                    vals[k] = f(pts[k])
                nfev += n

    k = min(range(n + 1), key=vals.__getitem__)
    return pts[k], vals[k], nfev


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
    idx = _TARGETS[target]
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    if num_starts < 1:
        raise ValueError("num_starts must be >= 1")
    sign = -1.0 if mode == "max" else 1.0
    base = tuple(float(c) for c in _require_unit(base_vector, "base_vector"))
    rates = EulerAngles(*(float(a) for a in angles))
    lo = [b[0] for b in bounds]
    hi = [min(b[1], BOX_HI) for b in bounds]
    span = [h - l for l, h in zip(lo, hi)]

    def objective(x) -> float:
        return sign * delta_closed_form((x[0], x[1], x[2]), x[3], rates, base)[idx]

    best_x: list[float] | None = None
    best_f = float("inf")
    for i in range(num_starts):
        u = np.random.default_rng([seed, i]).random(4)
        x0 = [lo[j] + span[j] * float(u[j]) for j in range(4)]
        x, fx, _ = _nelder_mead(objective, x0, lo, hi)
        if fx < best_f:
            best_x, best_f = x, fx

    assert best_x is not None
    return ExtremumResult(
        kind=f"{mode}_{target}",
        value=sign * best_f,
        at=tuple(float(c) for c in best_x),
        base_vector=base,
        num_starts=num_starts,
        seed=seed,
    )


def find_extrema(
    base_vector,
    angles,
    num_starts: int,
    seed: int,
    bounds: tuple[tuple[float, float], ...] = SEARCH_BOX,
) -> tuple[ExtremumResult, ...]:
    """The four extrema in report order: max_az, max_el, min_az, min_el."""
    return tuple(
        find_extremum(target, mode, base_vector, angles, num_starts=num_starts, seed=seed, bounds=bounds)
        for mode in ("max", "min")
        for target in ("az", "el")
    )


def time_averaged_error(
    target: str, err, angles, base=(1.0, 0.0, 0.0), tol: float = 1e-8
) -> float:
    """Mean discrepancy over one full period, (1/T) * integral of delta.

    Adaptive quadrature to absolute tolerance ``tol``; the integrand has
    kinks where the wrapped difference folds, which the subdivision
    resolves without assistance.
    """
    idx = _TARGETS[target]
    _require_unit(base, "base")
    t_period = period(angles)
    val, _ = quad(
        lambda t: delta_closed_form(err, t, angles, base)[idx],
        0.0,
        t_period,
        epsabs=tol,
        epsrel=1e-10,
        limit=200,
    )
    return val / t_period


def estimate_period_numeric(target: str, err, angles, base=(1.0, 0.0, 0.0)) -> PeriodEstimate:
    """Smallest candidate period matching the sampled discrepancy signal.

    Candidates T/16 ... T/2, T, 2T ... 10T around the analytic period T are
    accepted when max_t |delta(t) - delta(t + candidate)| over a dense
    one-period grid stays below 1e-6.  A constant signal is flagged
    degenerate and assigned the analytic period (every positive number is a
    period of a constant).
    """
    idx = _TARGETS[target]
    _require_unit(base, "base")
    t_period = period(angles)
    ts = np.linspace(0.0, t_period, PERIOD_GRID)
    sig = np.array([delta_closed_form(err, t, angles, base)[idx] for t in ts])
    if float(sig.max() - sig.min()) < CONSTANT_SIGNAL_TOL:
        return PeriodEstimate(t_period, degenerate=True)

    candidates = [t_period / k for k in range(16, 1, -1)]
    candidates.append(t_period)
    candidates.extend(k * t_period for k in range(2, 11))
    for cand in candidates:
        shifted = np.array([delta_closed_form(err, t + cand, angles, base)[idx] for t in ts])
        if float(np.abs(shifted - sig).max()) < PERIOD_MATCH_TOL:
            return PeriodEstimate(cand)
    raise PeriodEstimationError(
        f"no period below 10 analytic periods fits the {target} signal for angles {tuple(angles)}"
    )


PROBE_ERR = (0.0, 0.2, 0.0)
CASE_SERIES_SAMPLES = 512


def case_series(spec: CaseSpec) -> ErrorSeries:
    """One-period closed-form series of the probe error (0, 0.2, 0)."""
    ts = np.linspace(0.0, period(spec.angles), CASE_SERIES_SAMPLES)
    pairs = [delta_closed_form(PROBE_ERR, t, spec.angles, base=spec.base_vector) for t in ts]
    return ErrorSeries(
        t=ts,
        delta_az=np.array([p[0] for p in pairs]),
        delta_el=np.array([p[1] for p in pairs]),
    )


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


def iter_case_reports(num_starts: int = 1000, seed: int = 0) -> Iterator[CaseReport]:
    for spec in CASE_STUDIES:
        yield run_case_study(spec, num_starts=num_starts, seed=seed)
