"""Propagation of Euler-angle errors on the Bloch sphere.

A perturbed qubit vector and its clean original are rotated in lockstep;
the package tracks the wrapped azimuth and elevation discrepancies,
provides the closed-form continuous limit of repeated small rotations with
its generator and period, and searches the error space for extremal and
time-averaged discrepancies.

Each public name is imported from its module on first use (PEP 562), so
``import blochprop`` loads no numpy, and neither does a name from the
numpy-free ``scalar`` module, such as time_averaged_error.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names, each with the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("bloch", "EulerAngles Spherical angle_distance cartesian_to_spherical matrix_to_cartesian qubit_to_matrix"
         " spherical_to_cartesian"),
        ("rotations", "euler_matrix rotate_euler rotate_su2 su2_from_axis su2_from_euler"),
        ("scalar", "DegenerateRotationError PeriodEstimationError TimeAverage delta_closed_form period"
         " time_averaged_error"),
        ("propagation", "ErrorAngles ErrorSeries delta_batch delta_pair equivalent_continuous_angles generator"
         " generator_eigenvalues limit_convergence_check matrix_exp_generator rotation_log simulate sp_general"
         " sp_special"),
        ("analysis", "CASE_STUDIES CaseReport CaseSpec ExtremumResult PeriodEstimate closed_form_extrema"
         " estimate_period_numeric find_extrema find_extremum run_case_study"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """A public name, imported from its module, or a submodule; the value is kept for later lookups."""
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        try:
            value = import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            # a module the submodule itself imports, such as numpy, is missing
            if not (exc.name or "").startswith(f"{__name__}."):
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
