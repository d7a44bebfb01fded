"""Start-up: importing the package loads no scipy, and only average needs it, on its first call."""

import json
import os
import subprocess
import sys
from pathlib import Path

import blochprop
from blochprop.cli import main

SRC = str(Path(blochprop.__file__).resolve().parent.parent)
# the commands that never integrate; average is the one that imports scipy
NO_SCIPY_RUNS = [
    ["period", "--angles", "1,1,1"],
    ["simulate", "--step", "0.1,0.2,0.3", "--steps", "50"],
    ["extrema", "--starts", "4"],
]

# runs each argv through cli.main with scipy blocked, then checks that the block holds for average
_BLOCKED = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from blochprop.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
try:
    main(["average", "--angles", "1,1,1"])
except ImportError:
    results.append("average needs scipy")
print(json.dumps(results))
"""


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
    assert blocked == unblocked + ["average needs scipy"]
    assert [code for code, _ in unblocked] == [0, 0, 0]


def test_import_loads_no_xml_or_network_modules():
    # xml.sax.saxutils, for one, imports urllib.request and ssl: tens of ms and MiB at start-up
    code = (
        "import sys, blochprop, blochprop.cli; "
        "print([m for m in sys.modules if m.split('.')[0] in ('xml', 'http', 'ssl', 'email') or m == 'urllib.request'])"
    )
    assert run_python("-c", code) == "[]\n"
