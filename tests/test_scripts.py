"""Smoke tests of the reproduction scripts: run each main() into a temporary directory."""

import runpy
import sys
from pathlib import Path

from blochprop import CASE_STUDIES
from blochprop.analysis import case_series
from blochprop.cli import _slug, series_to_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_plot_error_series(tmp_path, monkeypatch, capsys):
    run_script("plot_error_series.py", monkeypatch, "--output", str(tmp_path))
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["wrote reference series (201 samples)"] + [
        f"wrote case series: {spec.label}" for spec in CASE_STUDIES
    ]
    names = {"reference_200_steps.csv", "reference_200_steps.svg"}
    for spec in CASE_STUDIES:
        names |= {f"case_{_slug(spec.label)}.csv", f"case_{_slug(spec.label)}.svg"}
    assert {p.name for p in tmp_path.iterdir()} == names
    assert (tmp_path / "reference_200_steps.svg").read_text().startswith("<svg")
    spec = CASE_STUDIES[0]
    assert (tmp_path / f"case_{_slug(spec.label)}.csv").read_text() == series_to_csv(case_series(spec))

