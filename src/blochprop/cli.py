"""Command-line front end.

Subcommands: simulate, extrema, period, cases, average.  Exit codes: 0 on
success, 1 for invalid input or degenerate math, 2 for I/O failures.

Angle-valued flags accept plain decimals plus the exact forms pi, e,
2pi/5, pi/100 and the like, so periodic parameters survive the command
line without decimal truncation ("2e5" stays scientific notation because
plain-float parsing is tried first).

Only the standard library and the numpy-free scalar module load with this
module, so --help and average run without numpy; the other commands import
their numpy modules when they run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .scalar import PROBE_ERR, PeriodEstimationError, period, time_averaged_error

if TYPE_CHECKING:
    from .analysis import CaseReport, ExtremumResult
    from .propagation import ErrorSeries

SCHEMA_VERSION = 1
# human-readable reports print values below this as "~0"; files keep full precision
TINY_PRINT = 1e-6

_ANGLE_RE = re.compile(r"^([+-]?)(\d+(?:\.\d+)?)?(pi|e)(?:/(\d+(?:\.\d+)?))?$")


def parse_angle(text: str) -> float:
    """One finite angle literal: a float, or [sign][coeff](pi|e)[/divisor]."""
    s = text.strip().lower()
    try:
        value = float(s)
    except ValueError:
        m = _ANGLE_RE.match(s)
        if m is None:
            raise ValueError(f"cannot parse angle {text!r}") from None
        sign = -1.0 if m.group(1) == "-" else 1.0
        coeff = float(m.group(2)) if m.group(2) else 1.0
        base = math.pi if m.group(3) == "pi" else math.e
        divisor = float(m.group(4)) if m.group(4) else 1.0
        if divisor == 0.0:
            raise ValueError(f"zero divisor in angle {text!r}") from None
        value = sign * coeff * base / divisor
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    return tuple(map(parse_angle, parts))


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _human(x: float) -> str:
    return "~0" if abs(x) < TINY_PRINT else f"{x:.12g}"


def _csv(header: str, rows) -> str:
    """CSV text with a header line; string cells verbatim, numbers via _fmt."""
    lines = [header]
    lines.extend(",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(doc: dict) -> str:
    """A versioned JSON report: sorted keys, two-space indent, final newline.

    The bytes are those of json.dumps(..., sort_keys=True, indent=2).  Any
    indent makes json.dumps use its pure-Python encoder, so each top-level
    value is written on its own: a list of numbers through the C encoder,
    with an item separator that breaks it onto indented lines, anything else
    through json.dumps with its lines shifted one level in (the encoder
    escapes newlines inside strings).
    """
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    items = ",\n".join(f"  {json.dumps(key)}: {_json_value(doc[key])}" for key in sorted(doc))
    return "{\n" + items + "\n}\n"


_NUMBER_TYPES = frozenset((float, int))


def _json_value(value) -> str:
    """One top-level value of _json, at one level of indent."""
    if isinstance(value, list) and value and _NUMBER_TYPES.issuperset(map(type, value)):
        return "[\n    " + json.dumps(value, separators=(",\n    ", ": "))[1:-1] + "\n  ]"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def series_to_csv(series: ErrorSeries) -> str:
    """_csv's bytes for the three float columns, one format call a line."""
    cols = (series.t.tolist(), series.delta_az.tolist(), series.delta_el.tolist())
    return "t,delta_az,delta_el\n" + "".join(map("{:.17g},{:.17g},{:.17g}\n".format, *cols))


def series_to_json(series: ErrorSeries) -> str:
    return _json(
        {"t": series.t.tolist(), "delta_az": series.delta_az.tolist(), "delta_el": series.delta_el.tolist()}
    )


class _OutputError(Exception):
    """An output path could not be written; main exits 2."""


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise _OutputError(f"cannot write {path}: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract wants 1 for bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _triple_arg(text: str) -> tuple[float, float, float]:
    try:
        return parse_triple(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blochprop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="iterate both vectors and dump the discrepancy series")
    p_sim.add_argument("--vec", type=_triple_arg, default=(1.0, 0.0, 0.0), help="clean unit vector")
    p_sim.add_argument("--err", type=_triple_arg, default=(0.0, 0.2, 0.0), help="error angles applied to --vec")
    p_sim.add_argument("--step", type=_triple_arg, required=True, help="per-iteration rotation angles")
    p_sim.add_argument("--steps", type=int, required=True, help="number of iterations")
    p_sim.add_argument("--pipeline", choices=("euler", "su2", "closed"), default="euler")
    p_sim.add_argument("--output", default=None, help="output file (stdout when omitted)")
    p_sim.add_argument("--format", choices=("csv", "svg", "json"), default="csv")

    p_ext = sub.add_parser("extrema", help="multi-start search for the four discrepancy extrema")
    p_ext.add_argument("--vec", type=_triple_arg, default=(1.0, 0.0, 0.0), help="base unit vector")
    p_ext.add_argument("--angles", type=_triple_arg, default=(1.0, 1.0, 1.0), help="rotation rates")
    p_ext.add_argument("--seed", type=int, default=0)
    p_ext.add_argument("--starts", type=int, default=1000)
    p_ext.add_argument("--output", default=None, help="report file (summary always on stdout)")
    p_ext.add_argument("--format", choices=("csv", "json"), default="json")

    p_per = sub.add_parser("period", help="analytic and numerically estimated period")
    p_per.add_argument("--angles", type=_triple_arg, required=True, help="rotation rates")
    p_per.add_argument("--err", type=_triple_arg, default=PROBE_ERR, help="probe error angles")
    p_per.add_argument("--vec", type=_triple_arg, default=(1.0, 0.0, 0.0))

    p_cas = sub.add_parser("cases", help="run all built-in case studies")
    p_cas.add_argument("--seed", type=int, default=0)
    p_cas.add_argument("--starts", type=int, default=1000)
    p_cas.add_argument("--output", default="case_studies", help="output directory")
    p_cas.add_argument("--format", choices=("csv", "json"), default="json", help="summary format")

    p_avg = sub.add_parser("average", help="time-averaged discrepancies over one period")
    p_avg.add_argument("--err", type=_triple_arg, default=PROBE_ERR)
    p_avg.add_argument("--angles", type=_triple_arg, default=(1.0, 1.0, 1.0))
    p_avg.add_argument("--vec", type=_triple_arg, default=(1.0, 0.0, 0.0))

    return parser


def cmd_simulate(args) -> None:
    import numpy as np

    from .propagation import simulate
    from .rotations import euler_matrix
    from .svgplot import render_series_svg

    v_err = np.asarray(args.vec, dtype=float) @ euler_matrix(args.err)
    series = simulate(args.vec, v_err, args.step, args.steps, pipeline=args.pipeline)
    if args.format == "csv":
        text = series_to_csv(series)
    elif args.format == "json":
        text = series_to_json(series)
    else:
        text = render_series_svg(series, title="discrepancies per iteration")
    if args.output is None:
        sys.stdout.write(text)
    else:
        _write_text(args.output, text)


def _extremum_doc(res: ExtremumResult) -> dict:
    return {
        "kind": res.kind,
        "value": res.value,
        "at": {"eps_x": res.at[0], "eps_y": res.at[1], "eps_z": res.at[2], "t": res.at[3]},
    }


def extrema_report_json(results, base, angles, seed: int, starts: int) -> str:
    return _json(
        {
            "base_vector": list(base),
            "angles": list(angles),
            "seed": seed,
            "num_starts": starts,
            "extrema": [_extremum_doc(r) for r in results],
        }
    )


def extrema_report_csv(results) -> str:
    return _csv("kind,value,eps_x,eps_y,eps_z,t", ((r.kind, r.value, *r.at) for r in results))


def cmd_extrema(args) -> None:
    from .analysis import find_extrema

    results = find_extrema(args.vec, args.angles, num_starts=args.starts, seed=args.seed)
    for r in results:
        print(f"{r.kind}: {_human(r.value)}")
    if args.output is None:
        return
    text = (
        extrema_report_json(results, args.vec, args.angles, args.seed, args.starts)
        if args.format == "json"
        else extrema_report_csv(results)
    )
    _write_text(args.output, text)
    print(f"report written to {args.output}")


def cmd_period(args) -> None:
    from .analysis import estimate_period_numeric

    analytic = period(args.angles)
    est = estimate_period_numeric("el", args.err, args.angles, base=args.vec)
    suffix = " (degenerate: constant signal, analytic value returned)" if est.degenerate else ""
    print(f"analytic period:  {_fmt(analytic)}")
    print(f"numeric estimate: {_fmt(float(est))}{suffix}")
    print(f"difference:       {_fmt(abs(analytic - float(est)))}")


def _slug(label: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", label.lower()).strip("_")


def _case_doc(report: CaseReport) -> dict:
    spec = report.spec
    return {
        "label": spec.label,
        "angles": {"phi": spec.angles.phi, "theta": spec.angles.theta, "psi": spec.angles.psi},
        "base_vector": list(spec.base_vector),
        "analytic_period": report.analytic_period,
        "numeric_period": float(report.numeric_period),
        "degenerate_period": report.numeric_period.degenerate,
        "max_az": report.max_az,
        "max_el": report.max_el,
        "min_az": report.min_az,
        "min_el": report.min_el,
    }


def _case_row(report: CaseReport) -> tuple:
    return (
        report.spec.label,
        *report.spec.angles,
        report.analytic_period,
        float(report.numeric_period),
        report.max_az,
        report.max_el,
        report.min_az,
        report.min_el,
    )


def cmd_cases(args) -> None:
    from .analysis import CASE_STUDIES, _check_starts, run_case_study
    from .svgplot import render_series_svg

    _check_starts(args.starts, args.seed)
    outdir = Path(args.output)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _OutputError(f"cannot create {outdir}: {exc}") from None
    reports = []
    for spec in CASE_STUDIES:
        report = run_case_study(spec, num_starts=args.starts, seed=args.seed)
        reports.append(report)
        slug = _slug(spec.label)
        _write_text(outdir / f"{slug}.csv", series_to_csv(report.series))
        _write_text(outdir / f"{slug}.svg", render_series_svg(report.series, title=f"{spec.label}, one period"))
        print(
            f"{spec.label}: period {_fmt(report.analytic_period)} "
            f"(numeric {_fmt(float(report.numeric_period))}), "
            f"max_az {_human(report.max_az)}, max_el {_human(report.max_el)}, "
            f"min_az {_human(report.min_az)}, min_el {_human(report.min_el)}"
        )
    if args.format == "json":
        text = _json({"seed": args.seed, "num_starts": args.starts, "cases": [_case_doc(r) for r in reports]})
    else:
        text = _csv(
            "label,phi,theta,psi,analytic_period,numeric_period,max_az,max_el,min_az,min_el",
            map(_case_row, reports),
        )
    summary_path = outdir / f"summary.{args.format}"
    _write_text(summary_path, text)
    print(f"summary written to {summary_path}")


def cmd_average(args) -> None:
    avg_az = time_averaged_error("az", args.err, args.angles, base=args.vec)
    avg_el = time_averaged_error("el", args.err, args.angles, base=args.vec)
    print(f"average azimuthal discrepancy: {_fmt(avg_az)}")
    print(f"average elevation discrepancy: {_fmt(avg_el)}")


_COMMANDS = {
    "simulate": cmd_simulate,
    "extrema": cmd_extrema,
    "period": cmd_period,
    "cases": cmd_cases,
    "average": cmd_average,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; library input errors exit 1, unwritable outputs exit 2."""
    args = _parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ValueError, PeriodEstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
