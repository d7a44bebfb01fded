"""Start-up: the package loads no scipy, its import, --help and average load no numpy, and extrema no numpy.random.

Every command, average included, runs without scipy; --help and average also run without numpy,
extrema also runs without numpy.random where numpy itself does not load it (numpy 1.x does, 2.4 does not),
every command that writes no JSON runs without json, the CLI's import loads no json, pathlib or typing,
and the package exports each public name from its module on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blochprop
from blochprop.cli import main

SRC = str(Path(blochprop.__file__).resolve().parent.parent)
# every command that writes to stdout alone; average integrates with blochprop.quadpack
NO_SCIPY_RUNS = [
    ["period", "--angles", "1,1,1"],
    ["simulate", "--step", "0.1,0.2,0.3", "--steps", "50"],
    ["extrema", "--starts", "4"],
    ["average", "--angles", "1,1,1"],
    ["average", "--err", "0.3,0.2,0.1", "--angles", "0.7,-1.3,2.1", "--vec", "0.48,0.6,0.64"],
]

# the commands that need no numpy: --help exits through SystemExit
NO_NUMPY_RUNS = [["--help"], *(argv for argv in NO_SCIPY_RUNS if argv[0] == "average")]

# the commands that write no JSON: json loads only with a JSON writer
NO_JSON_RUNS = [
    ["--help"],
    ["average", "--angles", "1,1,1"],
    ["period", "--angles", "1,1,1"],
    ["simulate", "--step", "0.1,0.2,0.3", "--steps", "50", "--format", "csv"],
    ["simulate", "--step", "0.1,0.2,0.3", "--steps", "50", "--format", "svg"],
]

# the search draws its start points in plain Python, at any seed
NO_NUMPY_RANDOM_RUNS = [["extrema", "--starts", "4"], ["extrema", "--starts", "4", "--seed", str(2**70)]]

# runs each argv in sys.argv[1] through cli.main with the module sys.argv[2] (scipy by default)
# blocked, then checks that the block held
_BLOCKED = """
import contextlib, io, json, sys
blocked = sys.argv[2] if len(sys.argv) > 2 else "scipy"
sys.modules[blocked] = None
from blochprop.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue()])
try:
    __import__(blocked)
except ImportError:
    results.append(blocked + " blocked")
print(json.dumps(results))
"""

# the package's public names, each with a module it can be imported from
PUBLIC = {
    "CASE_STUDIES": "analysis",
    "CaseReport": "analysis",
    "CaseSpec": "analysis",
    "DegenerateRotationError": "propagation",
    "ErrorAngles": "propagation",
    "ErrorSeries": "propagation",
    "EulerAngles": "bloch",
    "ExtremumResult": "analysis",
    "PeriodEstimate": "analysis",
    "PeriodEstimationError": "analysis",
    "Spherical": "bloch",
    "TimeAverage": "analysis",
    "angle_distance": "bloch",
    "cartesian_to_spherical": "bloch",
    "closed_form_extrema": "analysis",
    "delta_batch": "propagation",
    "delta_closed_form": "propagation",
    "delta_pair": "propagation",
    "equivalent_continuous_angles": "propagation",
    "estimate_period_numeric": "analysis",
    "euler_matrix": "rotations",
    "find_extrema": "analysis",
    "find_extremum": "analysis",
    "generator": "propagation",
    "generator_eigenvalues": "propagation",
    "limit_convergence_check": "propagation",
    "matrix_exp_generator": "propagation",
    "matrix_to_cartesian": "bloch",
    "period": "propagation",
    "qubit_to_matrix": "bloch",
    "rotate_euler": "rotations",
    "rotate_su2": "rotations",
    "rotation_log": "propagation",
    "run_case_study": "analysis",
    "simulate": "propagation",
    "sp_general": "propagation",
    "sp_special": "propagation",
    "spherical_to_cartesian": "bloch",
    "su2_from_axis": "rotations",
    "su2_from_euler": "rotations",
    "time_averaged_error": "analysis",
}


def run_python(*args) -> str:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy():
    code = "import sys, blochprop, blochprop.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert run_python("-c", code) == "[]\n"


def test_commands_run_with_scipy_blocked(capsys):
    blocked = json.loads(run_python("-c", _BLOCKED, json.dumps(NO_SCIPY_RUNS)))
    unblocked = []
    for argv in NO_SCIPY_RUNS:
        code = main(argv)
        unblocked.append([code, capsys.readouterr().out])
    assert blocked == unblocked + ["scipy blocked"]
    assert [code for code, _ in unblocked] == [0] * len(NO_SCIPY_RUNS)


def run_unblocked(runs, capsys) -> list:
    """[exit code, stdout] of each argv through cli.main in this process, as _BLOCKED records them."""
    results = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        results.append([code, capsys.readouterr().out])
    return results


def test_help_and_average_run_with_numpy_blocked(capsys, monkeypatch):
    # argparse wraps --help at the terminal's width; both sides read it from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    blocked = json.loads(run_python("-c", _BLOCKED, json.dumps(NO_NUMPY_RUNS), "numpy"))
    unblocked = run_unblocked(NO_NUMPY_RUNS, capsys)
    assert blocked == unblocked + ["numpy blocked"]
    assert [code for code, _ in unblocked] == [0] * len(NO_NUMPY_RUNS)
    assert unblocked[0][1].startswith("usage: blochprop ")


def test_commands_without_json_output_run_with_json_blocked(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    blocked = json.loads(run_python("-c", _BLOCKED, json.dumps(NO_JSON_RUNS), "json"))
    unblocked = run_unblocked(NO_JSON_RUNS, capsys)
    assert blocked == unblocked + ["json blocked"]
    assert [code for code, _ in unblocked] == [0] * len(NO_JSON_RUNS)
    assert unblocked[4][1].startswith("<svg")


def test_cli_import_in_a_clean_interpreter_loads_no_json_pathlib_typing_or_numpy():
    # -S skips the site module, whose .pth files may import pathlib or typing before any of our code runs
    code = "import sys, blochprop.cli; print([m for m in ('json', 'pathlib', 'typing', 'numpy') if m in sys.modules])"
    assert run_python("-S", "-c", code) == "[]\n"


def test_extrema_runs_with_numpy_random_blocked(capsys):
    """Holds where numpy loads numpy.random on first use, as numpy 2.4 does; numpy 1.x loads it with numpy."""
    if run_python("-c", "import sys, numpy; print('numpy.random' in sys.modules)") == "True\n":
        pytest.skip("import numpy itself loads numpy.random, as numpy 1.x does")
    blocked = json.loads(run_python("-c", _BLOCKED, json.dumps(NO_NUMPY_RANDOM_RUNS), "numpy.random"))
    unblocked = run_unblocked(NO_NUMPY_RANDOM_RUNS, capsys)
    assert blocked == unblocked + ["numpy.random blocked"]
    assert [code for code, _ in unblocked] == [0] * len(NO_NUMPY_RANDOM_RUNS)


def test_import_loads_only_the_numpy_free_modules():
    code = (
        "import sys; sys.modules['numpy'] = None; import blochprop, blochprop.cli, blochprop.scalar; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'blochprop'))"
    )
    assert run_python("-c", code) == "['blochprop', 'blochprop.cli', 'blochprop.scalar']\n"


# in a fresh interpreter: the submodules a bare import loads, then __all__ and dir, then the names
# that resolve to the same object as in their module in PUBLIC
_EXPORTS = """
import importlib, json, sys
import blochprop
loaded = sorted(m for m in sys.modules if m.startswith("blochprop."))
public = json.loads(sys.argv[1])
same = [n for n, m in public.items() if getattr(blochprop, n) is getattr(importlib.import_module("blochprop." + m), n)]
print(json.dumps([loaded, sorted(blochprop.__all__), set(blochprop.__all__) <= set(dir(blochprop)), same]))
"""


def test_public_names_load_their_module_on_first_use():
    loaded, names, listed, same = json.loads(run_python("-c", _EXPORTS, json.dumps(PUBLIC)))
    assert loaded == []
    assert names == sorted([*PUBLIC, "__version__"])
    assert listed
    assert same == list(PUBLIC)


def test_submodules_resolve_after_a_bare_import():
    code = "import blochprop; print(blochprop.analysis.__name__, blochprop.cli.__name__, hasattr(blochprop, 'nosuch'))"
    assert run_python("-c", code) == "blochprop.analysis blochprop.cli False\n"


def test_time_averaged_error_loads_no_scipy():
    code = (
        "import sys; from blochprop import time_averaged_error; "
        "time_averaged_error('az', (0.3, 0.2, 0.1), (0.7, -1.3, 2.1)); "
        "time_averaged_error('el', (0.0, 0.2, 0.0), (1.0, 1.0, 1.0)); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert run_python("-c", code) == "[]\n"


def test_import_loads_no_xml_or_network_modules():
    # xml.sax.saxutils, for one, imports urllib.request and ssl: tens of ms and MiB at start-up
    code = (
        "import sys, blochprop, blochprop.cli; "
        "print([m for m in sys.modules if m.split('.')[0] in ('xml', 'http', 'ssl', 'email') or m == 'urllib.request'])"
    )
    assert run_python("-c", code) == "[]\n"
