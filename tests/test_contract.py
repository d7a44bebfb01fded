"""The README's input contract, tested as one table over the public API.

Every public function returns its value, or raises a ValueError whose message names the bad input
with the name the README gives it.  Each entry of CONTRACT is a small valid call; the table test
varies one argument at a time over the malformed values of that argument's kind.  Each such call
must return finite values or raise that ValueError (or the documented PeriodEstimationError), and
nothing may warn.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import blochprop
from blochprop import (
    CASE_STUDIES,
    ErrorSeries,
    PeriodEstimationError,
    cartesian_to_spherical,
    closed_form_extrema,
    euler_matrix,
    find_extrema,
    generator,
    matrix_to_cartesian,
    period,
    qubit_to_matrix,
    rotate_euler,
    rotate_su2,
    rotation_log,
    run_case_study,
    simulate,
    su2_from_euler,
    time_averaged_error,
)

NAN, INF = math.nan, math.inf
# an int beyond the float range
HUGE = 10**400

X_BASE = (1.0, 0.0, 0.0)
TILTED = (0.48, 0.6, 0.64)
RATES = (0.7, -1.3, 2.1)
ERR = (0.3, 0.2, 0.1)
# equal first and last angles, so that equivalent_continuous_angles has an answer
STEP = (0.1, 0.2, 0.1)

SCALARS = ["x", None, [1.0], NAN, INF, HUGE, np.complex128(0.5)]
COUNTS = [2.5, "2", None, -1]
CHOICES = [None, "x", []]
BOXES = [
    "0101", b"0101", None, 1.0, [[(0.0, 1.0)] * 4], np.ones((4, 3)), (("01",),) * 4, ("01",) * 4, (b"01",) * 4,
    ((NAN, 1.0),) * 4, ((0.0, INF),) * 4, ((0, HUGE),) * 4, ((0.0, 1.0),) * 3, ((0.0, 1.0),) * 5,
    ((0.0, 1.0, 2.0),) * 4,
]


def vectors(valid):
    """The malformed values of a vector or triple kind: strings, non-sequences, nesting, non-finite, lengths, complex
    (a real triple times 1 + 0j)."""
    x, y, z = valid
    return [
        "100", b"100", None, 1.0, [[x, y, z]], (x, [y], z), np.eye(3), np.ones((3, 1)),
        (NAN, y, z), (x, INF, z), (x, y, HUGE), (x, y), (x, y, z, 0.0), np.array(valid) * (1 + 0j),
    ]


def arrays(valid):
    """The malformed values of an array kind: unconvertible, None, ragged, all NaN, all infinite, all near overflow,
    and complex when the kind is real: a complex array, and numpy complex scalars beside an int beyond int64, which
    numpy holds in an object array."""
    valid = np.asarray(valid)
    malformed = [
        "x", None, [0.0, [1.0, 2.0]], np.full_like(valid, NAN), np.full_like(valid, INF), np.full_like(valid, 1e308)
    ]
    if np.iscomplexobj(valid):
        return malformed
    return [*malformed, valid * (1 + 1j), [np.complex128(1.5), 2**70], [np.complex64(1), 10**400]]


# function name -> (valid keyword arguments, {argument: (malformed values, the README's names for it)})
CONTRACT = {
    "angle_distance": ({"a": 0.1, "b": 2.0}, {"a": (SCALARS, "a"), "b": (SCALARS, "b")}),
    "cartesian_to_spherical": ({"v": TILTED}, {"v": (vectors(TILTED), "v")}),
    "spherical_to_cartesian": ({"s": (1.0, 0.5, 0.3)}, {"s": (vectors((1.0, 0.5, 0.3)), "s")}),
    "qubit_to_matrix": ({"v": TILTED}, {"v": (vectors(TILTED), "v")}),
    "matrix_to_cartesian": ({"m": qubit_to_matrix(TILTED)}, {"m": (arrays(qubit_to_matrix(TILTED)), "m|matrix")}),
    "euler_matrix": ({"angles": ERR}, {"angles": (vectors(ERR), "Euler angles")}),
    "su2_from_euler": ({"angles": ERR}, {"angles": (vectors(ERR), "Euler angles")}),
    "su2_from_axis": (
        {"axis": (0.0, 0.6, 0.8), "angle": 0.3},
        {"axis": (vectors((0.0, 0.6, 0.8)), "axis"), "angle": (SCALARS, "angle")},
    ),
    "rotate_euler": (
        {"v": TILTED, "s": euler_matrix(ERR)},
        {"v": (vectors(TILTED), "v"), "s": (arrays(euler_matrix(ERR)), "s")},
    ),
    "rotate_su2": (
        {"v": TILTED, "u": su2_from_euler(ERR)},
        {"v": (vectors(TILTED), "v"), "u": (arrays(su2_from_euler(ERR)), "u")},
    ),
    "period": ({"angles": RATES}, {"angles": (vectors(RATES), "rotation rates")}),
    "generator": ({"angles": RATES}, {"angles": (vectors(RATES), "rotation rates")}),
    "generator_eigenvalues": ({"angles": RATES}, {"angles": (vectors(RATES), "rotation rates")}),
    "sp_general": (
        {"t": [0.0, 1.7], "angles": RATES},
        {"t": (arrays([0.0, 1.7]), "t"), "angles": (vectors(RATES), "rotation rates")},
    ),
    "sp_special": ({"t": 1.7}, {"t": (SCALARS, "t")}),
    "matrix_exp_generator": (
        {"j": generator(RATES), "t": [0.0, 1.7]},
        {"j": (arrays(generator(RATES)), "generator"), "t": (arrays([0.0, 1.7]), "t")},
    ),
    "rotation_log": ({"r": euler_matrix(ERR)}, {"r": (arrays(euler_matrix(ERR)), "r")}),
    "equivalent_continuous_angles": ({"step": STEP}, {"step": (vectors(STEP), "step")}),
    "limit_convergence_check": (
        {"t": 1.7, "angles": RATES, "s": 3},
        {"t": (SCALARS, "t"), "angles": (vectors(RATES), "rotation rates"), "s": (COUNTS, "s")},
    ),
    "delta_pair": ({"w": TILTED, "w_err": X_BASE}, {"w": (vectors(TILTED), "w"), "w_err": (vectors(X_BASE), "w_err")}),
    "delta_closed_form": (
        {"err": ERR, "t": 1.7, "angles": RATES, "base": TILTED},
        {
            "err": (vectors(ERR), "Euler angles|err"),
            "t": (SCALARS, "t"),
            "angles": (vectors(RATES), "rotation rates"),
            "base": (vectors(TILTED), "base"),
        },
    ),
    "delta_batch": (
        {"err": [ERR, ERR], "t": [0.0, 1.7], "rates": RATES, "base": TILTED},
        {
            "err": (arrays([ERR, ERR]), "err"),
            "t": (arrays([0.0, 1.7]), "t"),
            "rates": (vectors(RATES), "rotation rates"),
            "base": (vectors(TILTED), "base"),
        },
    ),
    "simulate": (
        {"v": X_BASE, "v_err": TILTED, "step": STEP, "steps": 3, "pipeline": "euler"},
        {
            "v": (vectors(X_BASE), "v"),
            "v_err": (vectors(TILTED), "v_err"),
            "step": (vectors(STEP), "step"),
            "steps": (COUNTS, "steps"),
            "pipeline": (CHOICES, "pipeline"),
        },
    ),
    "ErrorSeries": (
        {"t": [0.0, 1.0], "delta_az": [0.0, 0.1], "delta_el": [0.1, 0.2]},
        {
            "t": (arrays([0.0, 1.0]), "t"),
            "delta_az": (arrays([0.0, 0.1]), "delta_az|discrepancies"),
            "delta_el": (arrays([0.1, 0.2]), "delta_el|discrepancies"),
        },
    ),
    "time_averaged_error": (
        {"target": "el", "err": ERR, "angles": RATES, "base": TILTED, "tol": 1e-8},
        {
            "target": (CHOICES, "target"),
            "err": (vectors(ERR), "Euler angles|err"),
            "angles": (vectors(RATES), "rotation rates"),
            "base": (vectors(TILTED), "base"),
            "tol": (SCALARS, "tol"),
        },
    ),
    "estimate_period_numeric": (
        {"target": "el", "err": ERR, "angles": RATES, "base": TILTED},
        {
            "target": (CHOICES, "target"),
            "err": (vectors(ERR), "Euler angles|err"),
            "angles": (vectors(RATES), "rotation rates"),
            "base": (vectors(TILTED), "base"),
        },
    ),
    "closed_form_extrema": (
        {"base": TILTED, "rates": RATES},
        {
            "base": (vectors(TILTED), "base"),
            "rates": (vectors(RATES), "rotation rates"),
            "bounds": (BOXES, "full search box"),
        },
    ),
    "find_extrema": (
        {"base_vector": TILTED, "angles": RATES, "num_starts": 2, "seed": 0},
        {
            "base_vector": (vectors(TILTED), "base_vector"),
            "angles": (vectors(RATES), "rotation rates"),
            "num_starts": (COUNTS, "num_starts"),
            "seed": (COUNTS, "seed"),
            "bounds": (BOXES, "bounds"),
        },
    ),
    "find_extremum": (
        {"target": "el", "mode": "max", "base_vector": TILTED, "angles": RATES, "num_starts": 2, "seed": 0},
        {
            "target": (CHOICES, "target"),
            "mode": (CHOICES, "mode"),
            "base_vector": (vectors(TILTED), "base_vector"),
            "angles": (vectors(RATES), "rotation rates"),
            "num_starts": (COUNTS, "num_starts"),
            "seed": (COUNTS, "seed"),
            "bounds": (BOXES, "bounds"),
        },
    ),
    "run_case_study": (
        {"spec": CASE_STUDIES[0], "num_starts": 2, "seed": 0},
        {"spec": (CHOICES + [1.0], "spec"), "num_starts": (COUNTS, "num_starts"), "seed": (COUNTS, "seed")},
    ),
}

# the public callables that take no input the contract covers: records and exceptions
SKIPPED = {
    "EulerAngles", "Spherical", "ErrorAngles", "TimeAverage", "PeriodEstimate", "CaseSpec", "CaseReport",
    "ExtremumResult", "DegenerateRotationError", "PeriodEstimationError",
}


def is_finite(value) -> bool:
    """Every number in a result is finite: arrays, tuples, records and dataclasses are searched, strings skipped."""
    if isinstance(value, str):
        return True
    if dataclasses.is_dataclass(value):
        return all(is_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(is_finite, value))
    return bool(np.isfinite(value).all())


def breach(name: str, kwargs: dict, names: str) -> str | None:
    """None if the call keeps the contract, else what it did instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = getattr(blochprop, name)(**kwargs)
        except PeriodEstimationError:
            return None
        except ValueError as exc:
            return None if re.search(rf"\b(?:{names})\b", str(exc)) else f"ValueError naming no {names}: {exc}"
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
    return None if is_finite(result) else f"returned non-finite {result!r}"


def test_the_table_covers_every_public_callable():
    public = {name for name in blochprop.__all__ if callable(getattr(blochprop, name))}
    assert SKIPPED <= public
    assert public - SKIPPED == set(CONTRACT)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_each_valid_call_returns_finite_values(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_finite(getattr(blochprop, name)(**CONTRACT[name][0]))


@pytest.mark.parametrize(
    "name, argument", [(name, argument) for name in sorted(CONTRACT) for argument in CONTRACT[name][1]]
)
def test_each_malformed_argument_is_named(name, argument):
    valid, arguments = CONTRACT[name]
    malformed, names = arguments[argument]
    found = []
    for bad in malformed:
        what = breach(name, {**valid, argument: bad}, names)
        if what is not None:
            found.append(f"{argument}={bad!r:.60}: {what:.200}")
    assert not found, "\n".join(found)


# -- inputs once misread or unnamed, each held to its rule's message ------------------------------

# float() reads a str by character and a bytes by byte: "100" and b"\x01\x00\x00" as (1.0, 0.0, 0.0)
@pytest.mark.parametrize(
    "call, text, data, message",
    [
        (qubit_to_matrix, "100", b"\x01\x00\x00", r"^v must be a unit 3-vector\b"),
        (lambda x: find_extrema(x, (1, 1, 1), 2, 0), "100", b"\x01\x00\x00", r"^base_vector must be a unit 3-vector\b"),
        (cartesian_to_spherical, "100", b"100", r"^v must be three finite numbers\b"),
        (period, "123", b"123", r"^rotation rates must be a triple\b"),
        (euler_matrix, "123", b"123", r"^Euler angles must be a triple\b"),
        (lambda x: find_extrema(X_BASE, (1, 1, 1), 2, 0, bounds=(x,) * 4), "01", b"01", r"^bounds must be four finite"),
    ],
    ids=["unit vector", "base vector", "plain vector", "rate triple", "angle triple", "box"],
)
def test_a_str_or_bytes_is_not_a_sequence_of_numbers(call, text, data, message):
    for x in (text, data):
        with pytest.raises(ValueError, match=message):
            call(x)


def test_a_box_edge_beyond_the_float_range_is_named():
    bounds = ((0, 10**400),) * 4
    with pytest.raises(ValueError, match=r"^bounds must be four finite \(lo, hi\) pairs"):
        find_extrema(X_BASE, (1, 1, 1), 2, 0, bounds=bounds)
    with pytest.raises(ValueError, match="full search box"):
        closed_form_extrema(X_BASE, (1, 1, 1), bounds)


NAMED = {
    "tol None": (lambda: time_averaged_error("el", ERR, RATES, tol=None), r"^tol must be one finite number, got None$"),
    "tol nan": (lambda: time_averaged_error("el", ERR, RATES, tol=NAN), r"^tol must be finite, got nan$"),
    "steps beyond memory": (
        lambda: simulate(X_BASE, TILTED, STEP, 2**50),
        r"^steps = 1125899906842624 is too many: a run of 1125899906842625 samples does not fit in memory$",
    ),
    "starts beyond memory": (
        lambda: find_extrema(X_BASE, RATES, 2**50, 0),
        r"^num_starts = 1125899906842624 is too many: the simplices of 1125899906842624 starts do not fit in memory$",
    ),
    "spec": (lambda: run_case_study("x"), r"^spec must be a CaseSpec, got 'x'$"),
    "ErrorSeries t": (lambda: ErrorSeries("x", [0.0], [0.0]), r"^t must be finite numbers, got 'x'$"),
    "ErrorSeries delta_el": (
        lambda: ErrorSeries([0.0], [0.0], None), r"^delta_el must be numbers in \[0, pi\], got None$"
    ),
    "matrix_to_cartesian m": (lambda: matrix_to_cartesian("x"), r"^m must be a stack of 2x2 matrices, got 'x'$"),
    "rotate_su2 u": (lambda: rotate_su2(X_BASE, "x"), r"^u must be a finite 2x2 matrix, got 'x'$"),
    "rotate_su2 None": (lambda: rotate_su2(X_BASE, None), r"^u must be a finite 2x2 matrix, got None$"),
    "rotate_su2 NaN": (
        lambda: rotate_su2(X_BASE, np.full((2, 2), NAN)), r"^u must be a finite 2x2 matrix, got shape \(2, 2\)$"
    ),
}


@pytest.mark.parametrize("entry", sorted(NAMED))
def test_inputs_once_unnamed_are_named(entry):
    call, message = NAMED[entry]
    with pytest.raises(ValueError, match=message):
        call()


# finite matrices that do not rotate, each once computed with: now refused by the rule, which names them
NON_ROTATIONS = {
    "2I": 2.0 * np.eye(3),
    "-I": -np.eye(3),
    "reflection": np.diag([1.0, 1.0, -1.0]),
    "shear": np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
}
NON_UNITARIES = {
    "2I": 2.0 * np.eye(2, dtype=complex),
    "1.1I": 1.1 * np.eye(2, dtype=complex),
    "shear": np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
}
ROTATING = {"r": rotation_log, "s": lambda s: rotate_euler(TILTED, s)}


def assert_refused(call, matrix, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            call(matrix)


@pytest.mark.parametrize("key", sorted(NON_ROTATIONS))
@pytest.mark.parametrize("name", sorted(ROTATING))
def test_a_matrix_that_does_not_rotate_is_named(name, key):
    message = rf"^{name} must be a rotation matrix: orthogonal rows of unit norm and determinant \+1$"
    assert_refused(ROTATING[name], NON_ROTATIONS[key], message)


@pytest.mark.parametrize("key", sorted(NON_UNITARIES))
def test_a_matrix_that_is_not_unitary_is_named(key):
    message = r"^u must be a unitary matrix: orthogonal rows of unit norm$"
    assert_refused(lambda u: rotate_su2(TILTED, u), NON_UNITARIES[key], message)


def holds_complex(x):
    """Whether x is a numpy complex array or scalar, or a list holding a numpy complex scalar."""
    return any(getattr(v, "dtype", None) in (np.complex64, np.complex128) for v in (x if isinstance(x, list) else [x]))


# the table's complex values for each real argument: numpy would read each as its real part, with only a warning
COMPLEX = {
    f"{name}-{argument}-{type(bad[0] if isinstance(bad, list) else bad).__name__}": (name, argument, bad)
    for name, (valid, arguments) in CONTRACT.items()
    for argument, (malformed, _) in arguments.items()
    for bad in malformed
    if holds_complex(bad) and not np.iscomplexobj(valid[argument])
}


@pytest.mark.parametrize("key", sorted(COMPLEX))
def test_a_complex_value_for_a_real_argument_is_refused(key):
    # the table test would also pass a finite result; a complex value must be refused by name, never read
    name, argument, bad = COMPLEX[key]
    valid, arguments = CONTRACT[name]
    names = arguments[argument][1]
    assert_refused(lambda x: getattr(blochprop, name)(**{**valid, argument: x}), bad, rf"\b(?:{names})\b")
