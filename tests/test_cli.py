"""Command-line interface: parsing, formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from blochprop.analysis import PeriodEstimationError
from blochprop.cli import main, parse_angle, parse_triple


def run_cli(*argv):
    return main(list(argv))


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestAngleGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0.0),
            ("1.5", 1.5),
            ("-0.25", -0.25),
            ("2e5", 2e5),
            ("1e-3", 1e-3),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("e", math.e),
            ("pi/100", math.pi / 100),
            ("2pi/5", 2 * math.pi / 5),
            ("1.5pi", 1.5 * math.pi),
            ("2e/3", 2 * math.e / 3),
            ("PI/2", math.pi / 2),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("text", ["", "pie", "2x", "pi/", "pi/0", "/3", "two"])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_angle(text)

    def test_triple(self):
        assert parse_triple("pi,0,e") == pytest.approx((math.pi, 0.0, math.e))

    def test_triple_wrong_arity(self):
        with pytest.raises(ValueError, match="three"):
            parse_triple("1,2")


class TestSimulateCommand:
    ARGS = ["simulate", "--vec", "1,0,0", "--err", "0,0.2,0",
            "--step", "pi/100,pi/100,pi/100", "--steps", "200"]

    def test_csv_to_stdout(self, capsys):
        assert run_cli(*self.ARGS) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "t,delta_az,delta_el"
        assert len(lines) == 202
        assert "\r" not in out

    def test_csv_cells_round_trip_to_doubles(self, capsys):
        run_cli(*self.ARGS)
        lines = capsys.readouterr().out.splitlines()[1:]
        first = lines[0].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 0.19999999999999996

    def test_file_output_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*self.ARGS, "--output", str(p1)) == 0
        assert run_cli(*self.ARGS, "--output", str(p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_pipelines_agree(self, tmp_path):
        paths = {}
        for pipe in ("euler", "su2", "closed"):
            p = tmp_path / f"{pipe}.csv"
            assert run_cli(*self.ARGS, "--pipeline", pipe, "--output", str(p)) == 0
            rows = [line.split(",") for line in p.read_text().splitlines()[1:]]
            paths[pipe] = np.array([[float(c) for c in r] for r in rows])
        assert np.abs(paths["euler"] - paths["su2"]).max() < 1e-9
        assert np.abs(paths["euler"] - paths["closed"]).max() < 1e-9

    def test_zero_error_gives_zero_columns(self, capsys):
        run_cli("simulate", "--err", "0,0,0", "--step", "1,2,3", "--steps", "10")
        for line in capsys.readouterr().out.splitlines()[1:]:
            _, daz, del_ = line.split(",")
            assert float(daz) == 0.0 and float(del_) == 0.0

    def test_json_format(self, capsys):
        run_cli("simulate", "--err", "0,0.2,0", "--step", "1,1,1", "--steps", "4", "--format", "json")
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert len(doc["t"]) == 5
        assert set(doc) == {"schema_version", "t", "delta_az", "delta_el"}

    def test_svg_format(self, capsys):
        run_cli("simulate", "--err", "0,0.2,0", "--step", "1,1,1", "--steps", "20", "--format", "svg")
        out = capsys.readouterr().out
        assert out.startswith("<svg")
        assert out.count("<polyline") == 2
        assert "#1f77b4" in out and "#ff7f0e" in out

    def test_non_unit_vector_exits_1(self, capsys):
        rc = run_cli("simulate", "--vec", "2,0,0", "--err", "0,0.2,0", "--step", "1,1,1", "--steps", "3")
        assert rc == 1
        assert "unit" in capsys.readouterr().err

    def test_negative_steps_exits_1(self):
        assert run_cli("simulate", "--err", "0,0.2,0", "--step", "1,1,1", "--steps", "-3") == 1

    def test_bad_angle_literal_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "--err", "0,0.2,0", "--step", "pie,1,1", "--steps", "3")
        assert exc.value.code == 1

    def test_unwritable_output_exits_2(self, capsys):
        rc = run_cli(*self.ARGS, "--output", "/nonexistent_dir_zz/x.csv")
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err


class TestExtremaCommand:
    def test_json_report(self, tmp_path, capsys):
        p = tmp_path / "rep.json"
        rc = run_cli("extrema", "--vec", "1,0,0", "--seed", "42", "--starts", "8", "--output", str(p))
        assert rc == 0
        doc = json.loads(p.read_text())
        assert doc["schema_version"] == 1
        assert doc["seed"] == 42 and doc["num_starts"] == 8
        kinds = {e["kind"] for e in doc["extrema"]}
        assert kinds == {"max_az", "max_el", "min_az", "min_el"}
        out = capsys.readouterr().out
        assert "max_el" in out

    def test_repeat_runs_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli("extrema", "--seed", "5", "--starts", "6", "--output", str(p1))
        run_cli("extrema", "--seed", "5", "--starts", "6", "--output", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_report(self, tmp_path):
        p = tmp_path / "rep.csv"
        run_cli("extrema", "--starts", "5", "--output", str(p), "--format", "csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "kind,value,eps_x,eps_y,eps_z,t"
        assert len(lines) == 5

    def test_tiny_values_printed_as_approx_zero(self, capsys):
        run_cli("extrema", "--starts", "30", "--seed", "0")
        out = capsys.readouterr().out
        assert "min_az: ~0" in out
        assert "min_el: ~0" in out


class TestPeriodCommand:
    def test_unit_rates(self, capsys):
        assert run_cli("period", "--angles", "1,1,1") == 0
        out = capsys.readouterr().out
        assert "2.8099258924162904" in out
        assert "analytic" in out and "numeric" in out

    def test_degenerate_exits_1(self, capsys):
        assert run_cli("period", "--angles", "0,0,0") == 1
        assert "no finite period" in capsys.readouterr().err

    def test_zero_error_reports_degenerate_signal(self, capsys):
        assert run_cli("period", "--angles", "1,1,1", "--err", "0,0,0") == 0
        assert "degenerate" in capsys.readouterr().out


class TestCasesCommand:
    def test_runs_all_cases(self, tmp_path, capsys):
        outdir = tmp_path / "cases"
        rc = run_cli("cases", "--starts", "3", "--seed", "0", "--output", str(outdir))
        assert rc == 0
        csvs = sorted(outdir.glob("*.csv"))
        assert len(csvs) == 7
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["schema_version"] == 1
        assert len(doc["cases"]) == 7
        for row in doc["cases"]:
            assert abs(row["analytic_period"] - row["numeric_period"]) < 1e-6 * row["analytic_period"]
        assert capsys.readouterr().out.count("period") >= 7

    def test_csv_summary(self, tmp_path):
        outdir = tmp_path / "cases"
        rc = run_cli("cases", "--starts", "2", "--output", str(outdir), "--format", "csv")
        assert rc == 0
        lines = (outdir / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("label,phi,theta,psi,analytic_period")
        assert len(lines) == 8

    def test_output_collides_with_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        rc = run_cli("cases", "--starts", "2", "--output", str(blocker))
        assert rc == 2
        assert "cannot create" in capsys.readouterr().err


class TestAverageCommand:
    def test_reference_error(self, capsys):
        assert run_cli("average", "--err", "0,0.2,0", "--angles", "1,1,1") == 0
        out = capsys.readouterr().out
        assert "azimuthal" in out and "elevation" in out
        el = float(out.splitlines()[1].rsplit(" ", 1)[1])
        assert el == pytest.approx(0.16870902246508462, abs=1e-9)

    def test_zero_error(self, capsys):
        assert run_cli("average", "--err", "0,0,0", "--angles", "1,1,1") == 0
        for line in capsys.readouterr().out.splitlines():
            assert float(line.rsplit(" ", 1)[1]) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_exits_1(self):
        assert run_cli("average", "--err", "0,0.2,0", "--angles", "0.5,0,-0.5") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("extrema", "--vec", "0,0,0"),
        ("extrema", "--vec", "0,0,2"),
        ("period", "--angles", "1,1,1", "--vec", "0,0,2"),
        ("average", "--vec", "0,0,0"),
    ],
)
def test_non_unit_base_exits_1(argv, capsys):
    assert run_cli(*argv) == 1
    assert "unit" in one_line_error(capsys)


def test_cases_zero_starts_exits_1(tmp_path, capsys):
    assert run_cli("cases", "--starts", "0", "--output", str(tmp_path / "cases")) == 1
    assert "num_starts" in one_line_error(capsys)


def test_period_estimation_failure_exits_1(monkeypatch, capsys):
    def no_match(*args, **kwargs):
        raise PeriodEstimationError("no period below 10 analytic periods fits")

    monkeypatch.setattr("blochprop.cli.estimate_period_numeric", no_match)
    assert run_cli("period", "--angles", "1,1,1") == 1
    assert "no period" in one_line_error(capsys)


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 1
