"""The three benchmark workloads: their inputs and their output checks.

Every op is a short list of ``blochprop`` command lines.  Inputs come from a
``random.Random`` seeded by the workload name and the benchmark seed, so one
seed always gives the same ops.  Each op's outputs are checked against closed
forms, outside the timed region, by the op's ``check``; it returns None when
the outputs are right and a one-line reason when they are not.

* search: ``extrema`` on the base vector (1,0,0).  Almost all the time is the
  multistart Nelder-Mead in ``analysis`` and its scalar ``delta_closed_form``
  calls; ``simulate``, ``svgplot`` and the file writers do almost nothing.
* trajectories: one configuration through ``simulate`` in all three pipelines,
  written as csv, json or svg in turn.  The per-step loops in
  ``propagation``, ``rotations`` and ``bloch`` and the output writers do the
  work; ``analysis`` does none.
* periods: ``period`` then ``average`` on one configuration.  Same
  ``delta_closed_form`` layer as search, but as a dense grid of independent
  points and as adaptive-quadrature scalar calls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable
from xml.etree import ElementTree

# extrema of delta_closed_form must match their closed forms this closely
EXTREMA_TOL = 1e-9
# the three simulate pipelines must agree pointwise this closely
PIPELINE_TOL = 1e-9
# the numeric period must match the analytic one to this share of it
PERIOD_TOL = 1e-6
# the CLI's analytic period must match 2*pi/omega to this share of it
ANALYTIC_PERIOD_TOL = 1e-12

SEARCH_STARTS = 64
TRAJECTORY_STEPS = 1000
PIPELINES = ("euler", "su2", "closed")
FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class Call:
    argv: list
    output: str | None  # file the call writes, relative to the checkout root


@dataclass(frozen=True)
class Op:
    calls: list
    # check(results) with results[i] = (exit code, stdout, bytes of calls[i].output)
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    ops_per_pass: int
    min_passes: int
    make_op: Callable  # make_op(rng, index, workdir) -> Op


def _triple(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def _rates(rng: random.Random) -> tuple[float, float, float]:
    """Rotation rates uniform in [-3, 3]^3 with omega >= 1.

    The extrema search box holds t in [0, 2*pi), which spans a full period
    2*pi/omega only when omega >= 1.  Below that the box maximum of delta_el
    can lie under the full-period closed form: for omega = 0.245 it does, by
    3.7e-4, at any number of starts.
    """
    while True:
        phi, theta, psi = (rng.uniform(-3.0, 3.0) for _ in range(3))
        if math.hypot(theta, phi + psi) >= 1.0:
            return phi, theta, psi


def _unit(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return tuple(c / n for c in v)


def _err(rng: random.Random) -> tuple[float, float, float]:
    return tuple(rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))


def _exit_codes(results) -> str | None:
    codes = [r[0] for r in results]
    return None if all(c == 0 for c in codes) else f"exit codes {codes}"


def _in_range(values, what: str) -> str | None:
    for v in values:
        if not 0.0 <= v <= math.pi:
            return f"{what} value {v!r} outside [0, pi]"
    return None


# -- search ------------------------------------------------------------------


def _check_extrema(rates, results) -> str | None:
    bad = _exit_codes(results)
    if bad:
        return bad
    doc = json.loads(results[0][2])
    got = {e["kind"]: float(e["value"]) for e in doc["extrema"]}
    phi, theta, psi = rates
    omega = math.hypot(theta, phi + psi)
    want = {
        "max_az": math.pi,
        "max_el": math.acos(-abs(theta) / omega),
        "min_az": 0.0,
        "min_el": 0.0,
    }
    for kind, value in want.items():
        if abs(got[kind] - value) > EXTREMA_TOL:
            return f"{kind} = {got[kind]!r}, closed form {value!r}"
    return None


def _search_op(rng: random.Random, index: int, workdir: str) -> Op:
    rates = _rates(rng)
    out = f"{workdir}/search-{index}.json"
    argv = [
        "extrema", "--vec", "1,0,0", f"--angles={_triple(rates)}",
        "--starts", str(SEARCH_STARTS), "--seed", str(rng.randrange(2**31)),
        "--output", out,
    ]
    return Op([Call(argv, out)], lambda results: _check_extrema(rates, results))


# -- trajectories --------------------------------------------------------------


def _parse_series(fmt: str, data: bytes) -> list[list[float]]:
    """Columns t, delta_az, delta_el of a csv or json series file."""
    if fmt == "json":
        doc = json.loads(data)
        return [doc["t"], doc["delta_az"], doc["delta_el"]]
    lines = data.decode().splitlines()
    if lines[0] != "t,delta_az,delta_el":
        raise ValueError(f"unexpected csv header {lines[0]!r}")
    return [list(col) for col in zip(*([float(x) for x in ln.split(",")] for ln in lines[1:]))]


def _check_trajectories(fmt: str, results) -> str | None:
    bad = _exit_codes(results)
    if bad:
        return bad
    if fmt == "svg":
        for _, _, data in results:
            if not ElementTree.fromstring(data).tag.endswith("svg"):
                return "svg output has no <svg> root"
        return None
    series = [_parse_series(fmt, data) for _, _, data in results]
    ref = series[0]
    if len(ref[0]) != TRAJECTORY_STEPS + 1:
        return f"{len(ref[0])} samples, expected {TRAJECTORY_STEPS + 1}"
    for cols in series:
        for col in cols[1:]:
            bad = _in_range(col, "discrepancy")
            if bad:
                return bad
    for pipeline, cols in zip(PIPELINES[1:], series[1:]):
        if cols[0] != ref[0]:
            return f"{pipeline} sample times differ from euler"
        for a, b in zip(cols[1:], ref[1:]):
            if len(a) != len(b):
                return f"{pipeline} has {len(a)} samples, euler {len(b)}"
            gap = max(abs(x - y) for x, y in zip(a, b))
            if gap > PIPELINE_TOL:
                return f"{pipeline} differs from euler by {gap!r}"
    return None


def _trajectories_op(rng: random.Random, index: int, workdir: str) -> Op:
    fmt = FORMATS[index % len(FORMATS)]
    vec, err = _unit(rng), _err(rng)
    step = tuple(rng.uniform(-math.pi / 50.0, math.pi / 50.0) for _ in range(3))
    calls = []
    for pipeline in PIPELINES:
        out = f"{workdir}/trajectories-{index}-{pipeline}.{fmt}"
        argv = [
            "simulate", f"--vec={_triple(vec)}", f"--err={_triple(err)}",
            f"--step={_triple(step)}", "--steps", str(TRAJECTORY_STEPS),
            "--pipeline", pipeline, "--format", fmt, "--output", out,
        ]
        calls.append(Call(argv, out))
    return Op(calls, lambda results: _check_trajectories(fmt, results))


# -- periods -------------------------------------------------------------------


def _field(stdout: str, label: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(label + ":"):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"no {label!r} line in output")


def _check_periods(rates, results) -> str | None:
    bad = _exit_codes(results)
    if bad:
        return bad
    per_out, avg_out = results[0][1], results[1][1]
    phi, theta, psi = rates
    closed = 2.0 * math.pi / math.hypot(theta, phi + psi)
    analytic = float(_field(per_out, "analytic period"))
    if abs(analytic - closed) > ANALYTIC_PERIOD_TOL * closed:
        return f"analytic period {analytic!r}, 2*pi/omega = {closed!r}"
    numeric_text = _field(per_out, "numeric estimate")
    numeric = float(numeric_text.split()[0])
    if "degenerate" not in numeric_text and abs(numeric - analytic) > PERIOD_TOL * analytic:
        return f"numeric period {numeric!r}, analytic {analytic!r}"
    averages = [
        float(_field(avg_out, "average azimuthal discrepancy")),
        float(_field(avg_out, "average elevation discrepancy")),
    ]
    return _in_range(averages, "average")


def _periods_op(rng: random.Random, index: int, workdir: str) -> Op:
    rates, vec, err = _rates(rng), _unit(rng), _err(rng)
    tail = [f"--angles={_triple(rates)}", f"--err={_triple(err)}", f"--vec={_triple(vec)}"]
    calls = [Call(["period", *tail], None), Call(["average", *tail], None)]
    return Op(calls, lambda results: _check_periods(rates, results))


# trajectories and periods run at least 100 ops, so that at least 10 latency
# samples lie beyond op_p90_s; search ops take about a second each, so its
# run is at least 3 passes of 5 for a median pass time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", ops_per_pass=5, min_passes=3, make_op=_search_op),
        Workload("trajectories", ops_per_pass=30, min_passes=4, make_op=_trajectories_op),
        Workload("periods", ops_per_pass=25, min_passes=4, make_op=_periods_op),
    )
}


def make_ops(workload: Workload, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make_op(rng, i, workdir) for i in range(workload.ops_per_pass)]
