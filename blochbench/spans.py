"""Span tracing of blochprop's public functions, applied from outside the package.

Each traced function is replaced, at every ``blochprop`` module binding that
holds it, by a wrapper that records one span per call: the span name, its
duration, and the span that was open when it was entered.  A span's self time
is its duration minus that of its direct child spans.  Nothing inside the
package is edited, and ``uninstall`` puts the original functions back.

A traced name that a refactor removes is listed in ``absent`` and its metrics
read 0; a name that is present but never called also reads 0.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "blochprop"


@dataclass
class SpanStat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    # work units the call was asked for: starts for find_extremum, steps for simulate
    units: int = 0
    # calls counted by the name of the span that was open when each began
    parents: dict = field(default_factory=lambda: defaultdict(int))


def _find_extremum_span(args):
    return "analysis.find_extremum", int(args.get("num_starts", 0))


def _simulate_span(args):
    return f"propagation.simulate.{args.get('pipeline', 'euler')}", int(args.get("steps", 0))


# (module, function, span namer).  A namer maps the call's bound arguments to
# (span name, work units); without one the span is named module.function.
TARGETS = (
    ("cli", "main", None),
    ("cli", "series_to_csv", None),
    ("cli", "series_to_json", None),
    ("svgplot", "render_series_svg", None),
    ("analysis", "find_extremum", _find_extremum_span),
    ("analysis", "estimate_period_numeric", None),
    ("analysis", "time_averaged_error", None),
    ("propagation", "simulate", _simulate_span),
    ("propagation", "delta_closed_form", None),
    ("propagation", "delta_pair", None),
    ("propagation", "matrix_exp_generator", None),
    ("rotations", "rotate_su2", None),
    ("rotations", "euler_matrix", None),
    ("bloch", "cartesian_to_spherical", None),
    ("bloch", "angle_distance", None),
)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStat] = defaultdict(SpanStat)
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._patched: list[tuple] = []

    def reset(self) -> None:
        self.stats.clear()

    def _wrap(self, name, fn, namer):
        sig = inspect.signature(fn) if namer is not None else None
        stack = self._stack
        stats = self.stats

        def traced(*args, **kwargs):
            span, units = name, 0
            if sig is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                except TypeError:
                    pass  # the call itself raises the same error below
                else:
                    bound.apply_defaults()
                    span, units = namer(bound.arguments)
            parent = stack[-1] if stack else None
            entry = [span, 0.0]
            stack.append(entry)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                st = stats[span]
                st.calls += 1
                st.s += dt
                st.self_s += dt - entry[1]
                st.units += units
                st.parents[parent[0] if parent else None] += 1
                if parent is not None:
                    parent[1] += dt

        return traced

    def install(self) -> None:
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for mod_name, fn_name, namer in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if not callable(fn):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, namer)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()


def layer_metrics(stats: dict[str, SpanStat], write_bytes: int) -> dict[str, float]:
    """Per-layer numbers for one traced pass, keyed by BENCHMARK.json name."""
    def st(name):
        return stats.get(name) or SpanStat()

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    fe = st("analysis.find_extremum")
    dcf = st("propagation.delta_closed_form")
    pn = st("analysis.estimate_period_numeric")
    ta = st("analysis.time_averaged_error")
    fe_evals = dcf.parents.get("analysis.find_extremum", 0)
    m = {
        "analysis.find_extremum.calls": fe.calls,
        "analysis.find_extremum.s": fe.s,
        "analysis.find_extremum.self_s": fe.self_s,
        "analysis.find_extremum.evals": fe_evals,
        "analysis.find_extremum.evals_per_start": per(fe_evals, fe.units),
        "propagation.delta_closed_form.calls": dcf.calls,
        "propagation.delta_closed_form.s": dcf.s,
        "propagation.delta_closed_form.us_per_call": per(dcf.s, dcf.calls, 1e6),
        "analysis.estimate_period_numeric.calls": pn.calls,
        "analysis.estimate_period_numeric.s": pn.s,
        "analysis.estimate_period_numeric.evals": dcf.parents.get("analysis.estimate_period_numeric", 0),
        "analysis.time_averaged_error.calls": ta.calls,
        "analysis.time_averaged_error.s": ta.s,
        "analysis.time_averaged_error.evals": dcf.parents.get("analysis.time_averaged_error", 0),
    }
    for pipeline in ("euler", "su2", "closed"):
        sim = st(f"propagation.simulate.{pipeline}")
        m[f"propagation.simulate.{pipeline}.us_per_step"] = per(sim.s, sim.units, 1e6)
    for name in (
        "propagation.delta_pair",
        "propagation.matrix_exp_generator",
        "rotations.rotate_su2",
        "bloch.cartesian_to_spherical",
        "svgplot.render_series_svg",
    ):
        m[f"{name}.calls"] = st(name).calls
        m[f"{name}.s"] = st(name).s
    m["rotations.euler_matrix.calls"] = st("rotations.euler_matrix").calls
    m["bloch.angle_distance.calls"] = st("bloch.angle_distance").calls
    m["cli.series_to_csv.s"] = st("cli.series_to_csv").s
    m["cli.series_to_json.s"] = st("cli.series_to_json").s
    m["cli.write.bytes"] = write_bytes
    m["cli.main.calls"] = st("cli.main").calls
    m["cli.main.self_s"] = st("cli.main").self_s
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", ".evals", ".evals_per_start")):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith((".us_per_call", ".us_per_step")):
        return "us"
    return "s"
