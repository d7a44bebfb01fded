"""Propagation of Euler-angle errors on the Bloch sphere.

A perturbed qubit vector and its clean original are rotated in lockstep;
the package tracks the wrapped azimuth and elevation discrepancies,
provides the closed-form continuous limit of repeated small rotations with
its generator and period, and searches the error space for extremal and
time-averaged discrepancies.
"""

from .bloch import (
    EulerAngles,
    Spherical,
    angle_distance,
    cartesian_to_spherical,
    matrix_to_cartesian,
    qubit_to_matrix,
    spherical_to_cartesian,
)
from .rotations import (
    euler_matrix,
    rotate_euler,
    rotate_su2,
    su2_from_axis,
    su2_from_euler,
)
from .propagation import (
    DegenerateRotationError,
    ErrorAngles,
    ErrorSeries,
    delta_closed_form,
    delta_pair,
    equivalent_continuous_angles,
    generator,
    generator_eigenvalues,
    limit_convergence_check,
    matrix_exp_generator,
    period,
    rotation_log,
    simulate,
    sp_general,
    sp_special,
)
from .analysis import (
    CASE_STUDIES,
    CaseReport,
    CaseSpec,
    ExtremumResult,
    PeriodEstimate,
    PeriodEstimationError,
    estimate_period_numeric,
    find_extrema,
    find_extremum,
    iter_case_reports,
    run_case_study,
    time_averaged_error,
)

__version__ = "0.1.0"

__all__ = [
    "EulerAngles",
    "Spherical",
    "angle_distance",
    "cartesian_to_spherical",
    "matrix_to_cartesian",
    "qubit_to_matrix",
    "spherical_to_cartesian",
    "euler_matrix",
    "rotate_euler",
    "rotate_su2",
    "su2_from_axis",
    "su2_from_euler",
    "DegenerateRotationError",
    "ErrorAngles",
    "ErrorSeries",
    "delta_closed_form",
    "delta_pair",
    "equivalent_continuous_angles",
    "generator",
    "generator_eigenvalues",
    "limit_convergence_check",
    "matrix_exp_generator",
    "period",
    "rotation_log",
    "simulate",
    "sp_general",
    "sp_special",
    "CASE_STUDIES",
    "CaseReport",
    "CaseSpec",
    "ExtremumResult",
    "PeriodEstimate",
    "PeriodEstimationError",
    "estimate_period_numeric",
    "find_extrema",
    "find_extremum",
    "iter_case_reports",
    "run_case_study",
    "time_averaged_error",
    "__version__",
]
