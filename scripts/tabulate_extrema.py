#!/usr/bin/env python3
"""Recompute the extrema tables and case summaries.

Table A: discrepancy extrema for base vector (1,0,0), rotation rates
(1,1,1).  Table B: the same for base vector (0,0,1).  Then one row per
built-in case study with analytic/numeric periods and extremal values,
and the time-averaged discrepancies for the probe error.
"""

import argparse

from blochprop import CASE_STUDIES, find_extrema, run_case_study, time_averaged_error
from blochprop.analysis import PROBE_ERR


def table(base, angles, starts, seed) -> None:
    for r in find_extrema(base, angles, num_starts=starts, seed=seed):
        loc = ", ".join(f"{c:.6f}" for c in r.at)
        print(f"  {r.kind}: {r.value:.16g}  at ({loc})")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--starts", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("Table A: base (1,0,0), rates (1,1,1)")
    table((1.0, 0.0, 0.0), (1.0, 1.0, 1.0), args.starts, args.seed)
    print("Table B: base (0,0,1), rates (1,1,1)")
    table((0.0, 0.0, 1.0), (1.0, 1.0, 1.0), args.starts, args.seed)

    print("Case studies:")
    for spec in CASE_STUDIES:
        rep = run_case_study(spec, num_starts=args.starts, seed=args.seed)
        print(
            f"  {spec.label}: T={rep.analytic_period:.12g} "
            f"T_num={float(rep.numeric_period):.12g} "
            f"max_az={rep.max_az:.12g} max_el={rep.max_el:.12g} "
            f"min_az={rep.min_az:.3g} min_el={rep.min_el:.3g}"
        )

    avg_az = time_averaged_error("az", PROBE_ERR, (1.0, 1.0, 1.0))
    avg_el = time_averaged_error("el", PROBE_ERR, (1.0, 1.0, 1.0))
    print(f"Averages for err {PROBE_ERR}, rates (1,1,1): az {avg_az:.12g}, el {avg_el:.12g}")


if __name__ == "__main__":
    main()
