#!/usr/bin/env python3
"""Regenerate the discrepancy-series plots.

Writes the 200-step reference experiment (unit base vector, error angles
(0, 0.2, 0), step pi/100 in all three slots) and a one-period closed-form
series for every built-in case study, as CSV plus SVG.
"""

import argparse
from math import pi
from pathlib import Path

import numpy as np

from blochprop import CASE_STUDIES, EulerAngles, euler_matrix, simulate
from blochprop.analysis import case_series
from blochprop.cli import _slug, series_to_csv
from blochprop.svgplot import render_series_svg


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="figures", help="output directory")
    args = ap.parse_args()

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    v = np.array([1.0, 0.0, 0.0])
    v_err = v @ euler_matrix(EulerAngles(0.0, 0.2, 0.0))
    step = EulerAngles(pi / 100, pi / 100, pi / 100)
    series = simulate(v, v_err, step, 200)
    (outdir / "reference_200_steps.csv").write_text(series_to_csv(series))
    (outdir / "reference_200_steps.svg").write_text(
        render_series_svg(series, title="discrepancies, 200 steps of pi/100")
    )
    print(f"wrote reference series ({len(series)} samples)")

    for spec in CASE_STUDIES:
        series = case_series(spec)
        slug = _slug(spec.label)
        (outdir / f"case_{slug}.csv").write_text(series_to_csv(series))
        (outdir / f"case_{slug}.svg").write_text(render_series_svg(series, title=f"{spec.label}, one period"))
        print(f"wrote case series: {spec.label}")


if __name__ == "__main__":
    main()
