"""Command-line interface: parsing, formats, exit codes, determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from blochprop.analysis import CASE_STUDIES, case_series, run_case_study
from blochprop.cli import (
    SCHEMA_VERSION,
    _case_doc,
    _json,
    _slug,
    build_parser,
    main,
    parse_angle,
    parse_triple,
    series_to_csv,
    series_to_json,
)
from blochprop.propagation import simulate
from blochprop.svgplot import render_series_svg


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

    @pytest.mark.parametrize("steps", [2**50, 10**20])
    def test_steps_that_do_not_fit_in_memory_exit_1(self, steps, capsys):
        # 2**50 samples fail at allocation, so no memory is written; 10**20 lies past numpy's index range
        assert run_cli("simulate", "--step", "0.1,0.2,0.3", "--steps", str(steps)) == 1
        assert f"error: steps = {steps} is too many" in one_line_error(capsys)

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

    def test_subnormal_rates_exit_1(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("period", "--angles", "0,0,1e-310") == 1
        assert "(0.0, 0.0, 1e-310)" in one_line_error(capsys)

    def test_zero_error_reports_degenerate_signal(self, capsys):
        assert run_cli("period", "--angles", "1,1,1", "--err", "0,0,0") == 0
        assert "degenerate" in capsys.readouterr().out

    def test_small_error_reports_degenerate_signal(self, capsys):
        # the signal varies by less than PERIOD_MATCH_TOL, so every shift would match: not T/16
        assert run_cli("period", "--angles", "1,1,1", "--err", "0,1e-7,0") == 0
        out = capsys.readouterr().out
        assert "numeric estimate: 2.8099258924162904 (degenerate: constant signal, analytic value returned)" in out
        assert "difference:       0\n" in out

    def test_period_above_half_the_float_range_is_its_divisor(self, capsys):
        # T = 1.57e308: a grid over t, shifted by a candidate, overflowed; the phase stays in [0, 4 pi], and
        # the divisor is T/2, as for every omega about the theta axis, 1e-300 among them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("period", "--angles", "0,4e-308,0") == 0
        out, err = capsys.readouterr()
        assert out == (
            "analytic period:  1.5707963267948964e+308\n"
            "numeric estimate: 7.853981633974482e+307\n"
            "difference:       7.853981633974482e+307\n"
        )
        assert err == ""
        assert run_cli("period", "--angles", "0,1e-300,0") == 0
        assert "numeric estimate: 3.1415926535897931e+300\n" in capsys.readouterr().out

    def test_period_above_half_the_float_range_reports_degenerate_signal(self, capsys):
        # about the z axis the probe's elevation never moves
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("period", "--angles", "0,0,4e-308") == 0
        out, err = capsys.readouterr()
        assert "numeric estimate: 1.5707963267948964e+308 (degenerate: constant signal, analytic value returned)" in out
        assert err == ""


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

    def test_plots_every_case(self, tmp_path):
        outdir = tmp_path / "cases"
        assert run_cli("cases", "--starts", "2", "--seed", "0", "--output", str(outdir)) == 0
        slugs = [_slug(spec.label) for spec in CASE_STUDIES]
        expected = {f"{slug}.{ext}" for slug in slugs for ext in ("csv", "svg")} | {"summary.json"}
        assert {p.name for p in outdir.iterdir()} == expected
        for spec, slug in zip(CASE_STUDIES, slugs):
            series = case_series(spec)
            assert (outdir / f"{slug}.csv").read_text() == series_to_csv(series)
            assert (outdir / f"{slug}.svg").read_text() == render_series_svg(series, title=f"{spec.label}, one period")
        doc = json.loads((outdir / "summary.json").read_text())
        assert doc["cases"] == [_case_doc(run_case_study(spec, num_starts=2, seed=0)) for spec in CASE_STUDIES]

    def test_unwritable_plot_exits_2(self, tmp_path, capsys):
        outdir = tmp_path / "cases"
        blocker = outdir / f"{_slug(CASE_STUDIES[0].label)}.svg"
        blocker.mkdir(parents=True)
        assert run_cli("cases", "--starts", "2", "--output", str(outdir)) == 2
        err = one_line_error(capsys)
        assert err.startswith(f"error: cannot write {blocker}"), err


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

    def test_subnormal_rates_exit_1(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("average", "--angles", "0,0,1e-310") == 1
        assert "(0.0, 0.0, 1e-310)" in one_line_error(capsys)

    def test_period_above_half_the_float_range_averages_as_unit_rates_about_its_axis(self, capsys):
        # T = 1.57e308 is finite; the average reads the phase, which depends on the rates only through the axis
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("average", "--angles", "0,0,4e-308") == 0
            slow = capsys.readouterr()
            assert run_cli("average", "--angles", "0,0,1") == 0
        assert slow == capsys.readouterr()
        assert slow.err == ""


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


def test_cases_zero_starts_creates_nothing(tmp_path):
    outdir = tmp_path / "cases"
    assert run_cli("cases", "--starts", "0", "--output", str(outdir)) == 1
    assert not outdir.exists()


@pytest.mark.parametrize("starts", [2**50, 2**63 - 2, 10**20])
@pytest.mark.parametrize("command", ["extrema", "cases"])
def test_starts_that_do_not_fit_in_memory_exit_1_and_create_nothing(tmp_path, capsys, command, starts):
    # refused before any start is drawn or any directory is made
    assert run_cli(command, "--starts", str(starts), "--output", str(tmp_path / "out")) == 1
    assert f"error: num_starts = {starts} is too many" in one_line_error(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,seed,output", [("extrema", "-1", "out/report.json"), ("cases", "-3", "out")])
def test_negative_seed_exits_1_and_creates_nothing(tmp_path, capsys, command, seed, output):
    assert run_cli(command, "--seed", seed, "--starts", "2", "--output", str(tmp_path / output)) == 1
    assert f"seed must be a non-negative integer, got {seed}" in one_line_error(capsys)
    assert not (tmp_path / "out").exists()


def test_half_turn_step_pipelines_agree(tmp_path):
    # S(pi/2, 0, pi/2) is a half-turn about z; its matrix logarithm has no
    # preferred axis sign, and the closed pipeline must still run
    paths = {}
    for pipe in ("euler", "su2", "closed"):
        p = tmp_path / f"{pipe}.csv"
        argv = ("simulate", "--step", "pi/2,0,pi/2", "--steps", "3", "--pipeline", pipe, "--output", str(p))
        assert run_cli(*argv) == 0
        paths[pipe] = np.loadtxt(p, delimiter=",", skiprows=1)
    assert paths["euler"].shape == (4, 3)
    assert np.abs(paths["closed"] - paths["euler"]).max() < 1e-9
    assert np.abs(paths["su2"] - paths["euler"]).max() < 1e-9


def test_step_whose_phase_sum_overflows_runs_in_every_pipeline(tmp_path, capsys):
    # su2 formed phi + psi = inf before halving it: two numpy warnings, then exit 1
    paths = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pipe in ("euler", "su2", "closed"):
            p = tmp_path / f"{pipe}.csv"
            argv = ("simulate", "--step", "1e308,1e308,1e308", "--steps", "2", "--pipeline", pipe, "--output", str(p))
            assert run_cli(*argv) == 0
            assert capsys.readouterr().err == ""
            paths[pipe] = np.loadtxt(p, delimiter=",", skiprows=1)
    assert paths["euler"].shape == (3, 3)
    assert np.abs(paths["su2"] - paths["euler"]).max() < 1e-9
    assert np.abs(paths["closed"] - paths["euler"]).max() < 1e-9


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 1


class TestRepeatedMain:
    # main builds its parser once per process; no call may see another's flags

    def test_output_flag_does_not_carry_over(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        argv = ("extrema", "--starts", "4", "--seed", "3")
        assert run_cli(*argv, "--output", str(report)) == 0
        first = capsys.readouterr().out
        report.unlink()
        assert run_cli(*argv) == 0
        second = capsys.readouterr().out
        assert first == second + f"report written to {report}\n"
        assert not report.exists()

    def test_bad_flag_then_good_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("period", "--angles", "1,1,1", "--bogus", "2")
        assert exc.value.code == 1
        capsys.readouterr()
        assert run_cli("period", "--angles", "1,1,1") == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert "numeric estimate" in out.out

    def test_format_falls_back_to_its_default(self, capsys):
        argv = ("simulate", "--step", "1,1,1", "--steps", "2")
        assert run_cli(*argv, "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["schema_version"] == SCHEMA_VERSION
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.startswith("t,delta_az,delta_el\n")

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"t": [], "x": [0.1, -0.0, 1e-300, 2, float("inf"), float("nan")]},
        {"nested": {"b": [1.0, 2.0], "a": "x, y\nz"}, "mixed": ["a, b", 1.5, None], "rows": [[1.0, 2.0]]},
        {"seed": 3, "flag": True, "label": "1:1:2", "none": None},
    ],
)
def test_json_writer_bytes_equal_the_indenting_encoder(doc):
    want = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, sort_keys=True, indent=2) + "\n"
    assert _json(doc) == want


def test_series_json_bytes_equal_the_indenting_encoder():
    v = np.array([0.6, 0.0, 0.8])
    series = simulate(v, v @ np.diag([1.0, -1.0, -1.0]), (0.1, 0.2, 0.3), 50)
    doc = {"t": series.t.tolist(), "delta_az": series.delta_az.tolist(), "delta_el": series.delta_el.tolist()}
    want = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, sort_keys=True, indent=2) + "\n"
    assert series_to_json(series) == want


@pytest.mark.parametrize(
    "text", ["nan", "NaN", "inf", "-inf", "+Infinity", "1e400", "-1e999", pytest.param("9" * 400 + "pi", id="9x400pi")]
)
def test_parse_angle_rejects_non_finite(text):
    with pytest.raises(ValueError, match="finite"):
        parse_angle(text)


@pytest.mark.parametrize(
    "argv",
    [
        ("extrema", "--vec", "nan,0,0", "--starts", "2"),
        ("extrema", "--angles", "nan,1,1", "--starts", "2"),
        ("simulate", "--step", "nan,0,0", "--steps", "3"),
        ("simulate", "--err", "inf,0,0", "--step", "1,1,1", "--steps", "3"),
        ("period", "--angles", "inf,1,1"),
        ("average", "--angles", "1,nan,1"),
        ("average", "--err", "0,-inf,0"),
    ],
)
def test_non_finite_angle_exits_1_without_warning(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
    assert exc.value.code == 1
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err and "Traceback" not in captured.err
