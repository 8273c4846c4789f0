import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import kclink
from kclink import golden
from kclink.cli import main
from kclink.version import __version__

from .test_io import GAUGE_BLOCK_CSV

PASSING_CSV = """\
A1,10.0,1.0,,,
A2,10.5,1.0,,,
B1,,,20.0,1.0,
B2,,,20.5,1.0,
"""

SCENARIO_JSON = json.dumps({
    "y_a_true": 110, "y_b_true": 120, "sigma_a": 20, "sigma_b": 50,
    "rho": 0.5, "n": 50,
    "layout": {"only_a": 8, "linking": 4, "only_b": 5},
    "seed": 20260808,
})


@pytest.fixture
def gauge_block_file(tmp_path):
    path = tmp_path / "comparison.csv"
    path.write_text(GAUGE_BLOCK_CSV, encoding="utf-8")
    return path


@pytest.fixture
def passing_file(tmp_path):
    path = tmp_path / "passing.csv"
    path.write_text(PASSING_CSV, encoding="utf-8")
    return path


class TestLinkCommand:
    def test_nonconforming_dataset_exits_2(self, gauge_block_file, capsys):
        code = main(["link", "--input", str(gauge_block_file),
                     "--decimals", "1", "--units", "nm"])
        assert code == 2
        out = capsys.readouterr()
        assert "-103.6" in out.out
        assert "(failed)" in out.out
        assert "warning:" in out.err

    def test_passing_dataset_exits_0(self, passing_file, capsys):
        code = main(["link", "--input", str(passing_file)])
        assert code == 0
        assert "(passed)" in capsys.readouterr().out

    def test_json_report_to_file(self, gauge_block_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["link", "--input", str(gauge_block_file),
                     "--report-format", "json", "--output", str(out_path)])
        assert code == 2
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert report["kcrv"]["y_a"] == pytest.approx(-103.6, abs=0.05)
        assert report["conformity"]["passed"] is False
        assert capsys.readouterr().out == ""

    def test_byte_identical_reports(self, gauge_block_file, tmp_path):
        paths = [tmp_path / "one.json", tmp_path / "two.json"]
        for path in paths:
            main(["link", "--input", str(gauge_block_file),
                  "--report-format", "json", "--output", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_plot_data_written(self, gauge_block_file, tmp_path):
        plot = tmp_path / "doe.csv"
        main(["link", "--input", str(gauge_block_file),
              "--plot-data", str(plot)])
        assert plot.exists()
        assert len(plot.read_text().strip().splitlines()) == 19

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["link", "--input", str(tmp_path / "nope.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("A1,zzz,1.0,,,\n", encoding="utf-8")
        assert main(["link", "--input", str(path)]) == 1

    def test_gauge_block_scaled_by_1e30(self, tmp_path, capsys):
        # valid input far above the 28 digits of the default decimal context
        rows = [row.split(",") for row in GAUGE_BLOCK_CSV.splitlines()[1:]]
        scaled = tmp_path / "scaled.csv"
        scaled.write_text("".join(
            ",".join([label, *(cell and repr(float(cell) * 1e30)
                               for cell in cells)]) + "\n"
            for label, *cells in rows
        ), encoding="utf-8")
        assert main(["link", "--input", str(scaled), "--decimals", "1"]) == 2
        out = capsys.readouterr().out
        assert "(failed)" in out and "y_A = -103614581130471" in out

    def test_integer_beyond_float_range_exits_1(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([
            {"label": "A1", "x_a": 10**400, "u_a": 1.0},
            {"label": "B1", "x_b": 2.0, "u_b": 1.0},
        ]), encoding="utf-8")
        assert main(["link", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: lab entry 0: A1: value_a is beyond the float range\n"
        )

    @pytest.mark.parametrize("name, content", [
        ("big.json", '[{"label": "A1", "x_a": ' + "9" * 5000 + ', "u_a": 1}]'),
        ("wide.csv", "A1," + "1" * 200_000 + ",1,,,\n"),
        ("latin1.csv", "B\xe9,,,7.5,2.0,\n".encode("latin-1")),
    ], ids=["big.json", "wide.csv", "latin1.csv"])
    def test_unreadable_file_exits_1(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_bytes(content)
        assert main(["link", "--input", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}")

    @pytest.mark.parametrize("a_rows", [
        "A1,1.5e154,1\nA2,-1.5e154,1\n",
        "A1,1.7e308,1e110\nA2,-1.7e308,1e100\n",
    ], ids=["q2-inf", "d-inf"])
    @pytest.mark.parametrize("report_format", ["text", "json"])
    def test_chi_square_beyond_float_range_exits_1(
        self, tmp_path, capsys, a_rows, report_format
    ):
        path = tmp_path / "huge.csv"
        path.write_text(a_rows + "B1,,,1,1\nB2,,,2,1\n", encoding="utf-8")
        code = main(["link", "--input", str(path),
                     "--report-format", report_format])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the residual chi-square exceeds the float range\n"
        )

    @pytest.mark.parametrize("a_rows", [
        # x / u^2 of +-1e454: inf - inf in the weighted value sum
        "A1,1e154,1e-150\nA2,-1e154,1e-150\n",
        # finite terms of 1e308 whose sum overflows
        "A1,1e150,1e-79\nA2,1e150,1e-79\n",
        # u^2 underflows to zero: an infinite weight
        "A1,1,1e-170\nA2,2,1\n",
    ], ids=["inf-minus-inf", "fsum-overflow", "u2-underflow"])
    def test_weight_sums_beyond_float_range_exit_1(self, tmp_path, capsys, a_rows):
        path = tmp_path / "tiny.csv"
        path.write_text(a_rows + "B1,,,1,1\nB2,,,2,1\n", encoding="utf-8")
        assert main(["link", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: the weight sums exceed the float range\n"
        )

    @pytest.mark.parametrize("rows, error", [
        ("A1,1,1\nC1,1,1e-100,2,1e-100,5e-201\nB1,,,2,1\n",
         "C1: u_a^2*u_b^2 - cov_ab^2 is not a positive finite float "
         "(beyond the float range or precision)"),
        ("A1,1e100,1e100\nA2,2e100,1e100\nB1,,,1e100,1e100\nB2,,,2e100,1e100\n",
         "the weight sums are beyond the float range (a = 2e-200, b = 2e-200, "
         "a*b - c^2 = 0.0)"),
    ], ids=["covariance-denominator", "weight-determinant"])
    def test_float_range_limits_exit_1(self, tmp_path, capsys, rows, error):
        path = tmp_path / "labs.csv"
        path.write_text(rows, encoding="utf-8")
        assert main(["link", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("option", ["--plot-data", None])
    def test_lone_surrogate_label_exits_1(self, tmp_path, capsys, option):
        path = tmp_path / "labs.json"
        path.write_text('[{"label": "A\\ud800", "x_a": 1, "u_a": 1},'
                        ' {"label": "B1", "x_b": 2, "u_b": 1}]', encoding="utf-8")
        argv = ["link", "--input", str(path)]
        if option:
            argv += [option, str(tmp_path / "doe.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: lab entry 0: ")

    def test_negative_decimals_exit_1(self, gauge_block_file, capsys):
        code = main(["link", "--input", str(gauge_block_file),
                     "--decimals", "-1"])
        assert code == 1
        assert ("error: decimals must be a non-negative integer, got -1\n"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("existing", [None, "an earlier report\n"])
    def test_rejected_options_leave_no_report_file(self, gauge_block_file, tmp_path,
                                                    capsys, existing):
        out = tmp_path / "r.json"
        for decimals in ("-1", "3000000"):  # below 0, above a double's 1074 digits
            if existing is not None:
                out.write_text(existing, encoding="utf-8")
            assert main(["link", "--input", str(gauge_block_file), "--report-format", "json",
                         "--decimals", decimals, "--output", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "\nerror: decimals must be " in captured.err
            assert captured.err.endswith(f", got {decimals}\n")
            if existing is None:
                assert not out.exists()
            else:
                assert out.read_text(encoding="utf-8") == existing

    def test_many_decimals(self, gauge_block_file, capsys):
        for decimals in (400, 1074):  # 1074: a double's last fractional digit
            code = main(["link", "--input", str(gauge_block_file),
                         "--report-format", "json", "--decimals", str(decimals)])
            assert code == 2
            report = json.loads(capsys.readouterr().out)
            assert report["display"]["decimals"] == decimals
            assert report["display"]["kcrv"]["y_a"] == report["kcrv"]["y_a"]

    def test_usage_error_exits_1(self, capsys):
        assert main(["link"]) == 1
        assert main(["nonsense"]) == 1

    def test_format_option_is_gone(self, gauge_block_file, capsys):
        # the file suffix alone picks the reader
        assert main(["link", "--input", str(gauge_block_file), "--format", "csv"]) == 1
        assert main(["inflate", "--input", str(gauge_block_file), "--lab", "INMETRO1",
                     "--standard", "B", "--format", "csv"]) == 1
        capsys.readouterr()
        assert main(["link", "--help"]) == 0
        assert "--format" not in capsys.readouterr().out


class TestInflateCommand:
    def test_golden_inflation(self, gauge_block_file, capsys):
        code = main(["inflate", "--input", str(gauge_block_file),
                     "--lab", "INMETRO1", "--standard", "B"])
        assert code == 0
        out = capsys.readouterr().out
        assert "11.2" in out
        assert "(passed)" in out

    def test_tolerance_option_is_gone(self, gauge_block_file):
        code = main(["inflate", "--input", str(gauge_block_file),
                     "--lab", "INMETRO1", "--standard", "B",
                     "--tolerance", "1e-4"])
        assert code == 1

    def test_unknown_lab_exits_1(self, gauge_block_file, capsys):
        code = main(["inflate", "--input", str(gauge_block_file),
                     "--lab", "NOBODY", "--standard", "B"])
        assert code == 1
        assert "unknown laboratory" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_csv_dataset(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_JSON, encoding="utf-8")
        out = tmp_path / "dataset.csv"
        code = main(["synth", "--scenario", str(scenario),
                     "--output", str(out)])
        assert code == 0
        assert "17 laboratories" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1 + 17
        # generated file feeds straight back into link
        assert main(["link", "--input", str(out)]) in (0, 2)

    def test_file_layouts(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_JSON, encoding="utf-8")
        as_csv, as_json = tmp_path / "labs.csv", tmp_path / "labs.json"
        for out in (as_csv, as_json):
            main(["synth", "--scenario", str(scenario), "--output", str(out)])
        rows = as_csv.read_bytes().split(b"\r\n")
        assert rows[0] == b"label,x_a,u_a,x_b,u_b,cov_ab"
        assert rows[1].startswith(b"LAB-01,") and rows[1].endswith(b",,,")
        assert rows[-1] == b""
        text = as_json.read_text(encoding="utf-8")
        assert text.startswith('{\n  "labs": [\n    {\n      "cov_ab": null,')
        assert text.endswith("\n  ]\n}\n")
        document = json.loads(text)
        assert list(document) == ["labs"] and len(document["labs"]) == 17
        assert all(list(lab) == sorted(["label", "x_a", "u_a", "x_b", "u_b",
                                        "cov_ab"]) for lab in document["labs"])

    def test_json_output_and_scenario_seed(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_JSON, encoding="utf-8")
        other_seed = tmp_path / "other-seed.json"
        other_seed.write_text(SCENARIO_JSON.replace("20260808", "1"), encoding="utf-8")
        base = tmp_path / "base.json"
        alt = tmp_path / "alt.json"
        assert main(["synth", "--scenario", str(scenario), "--output", str(base)]) == 0
        assert main(["synth", "--scenario", str(other_seed), "--output", str(alt)]) == 0
        base_labs = json.loads(base.read_text())["labs"]
        alt_labs = json.loads(alt.read_text())["labs"]
        assert base_labs != alt_labs
        again = tmp_path / "again.json"
        main(["synth", "--scenario", str(scenario), "--output", str(again)])
        assert json.loads(again.read_text())["labs"] == base_labs

    def test_seed_override_option_is_gone(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_JSON, encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["synth", "--scenario", str(scenario), "--output", str(out),
                     "--seed-override", "1"]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name, content, match", [
        ("seed-inf.json", SCENARIO_JSON.replace("20260808", "Infinity"),
         "malformed scenario"),
        ("n-inf.json", SCENARIO_JSON.replace('"n": 50', '"n": Infinity'),
         "malformed scenario"),
        # beyond int's digit limit
        ("digits.json", SCENARIO_JSON.replace("20260808", "9" * 5000), "invalid JSON"),
        ("latin1.json", SCENARIO_JSON.replace("110", '"\xe9"').encode("latin-1"),
         "not UTF-8 text"),
        ("deep.json", "[" * 100_000, "invalid JSON"),
        ("count.json", SCENARIO_JSON.replace('"only_a": 8', '"only_a": 4294967296'),
         "below 2\\*\\*32"),
        # a fraction or a boolean is never truncated or read as 1
        ("n-fraction.json", SCENARIO_JSON.replace('"n": 50', '"n": 50.9'),
         "malformed scenario: n: expected int, got 50.9$"),
        ("seed-fraction.json", SCENARIO_JSON.replace("20260808", "7.5"),
         "malformed scenario: seed: expected int, got 7.5$"),
        ("count-fraction.json", SCENARIO_JSON.replace('"only_a": 8', '"only_a": 8.9'),
         "malformed scenario: only_a: expected int, got 8.9$"),
        ("seed-bool.json", SCENARIO_JSON.replace("20260808", "true"),
         "malformed scenario: seed: expected int, got True$"),
        ("count-bool.json", SCENARIO_JSON.replace('"linking": 4', '"linking": true'),
         "malformed scenario: linking: expected int, got True$"),
        ("sigma-bool.json", SCENARIO_JSON.replace('"sigma_a": 20', '"sigma_a": true'),
         "malformed scenario: sigma_a: expected float, got True$"),
        # a string is never read as a number, whatever it spells
        ("n-string.json", SCENARIO_JSON.replace('"n": 50', '"n": "50"'),
         "malformed scenario: n: expected int, got '50'$"),
        ("n-string-fraction.json", SCENARIO_JSON.replace('"n": 50', '"n": "50.9"'),
         "malformed scenario: n: expected int, got '50.9'$"),
        ("seed-hex.json", SCENARIO_JSON.replace("20260808", '"0x10"'),
         "malformed scenario: seed: expected int, got '0x10'$"),
        ("sigma-string.json", SCENARIO_JSON.replace('"sigma_a": 20', '"sigma_a": "20"'),
         "malformed scenario: sigma_a: expected float, got '20'$"),
        ("count-null.json", SCENARIO_JSON.replace('"only_a": 8', '"only_a": null'),
         "malformed scenario: only_a: expected int, got None$"),
        ("layout-array.json", SCENARIO_JSON.replace(
            '{"only_a": 8, "linking": 4, "only_b": 5}', "[8, 4, 5]"), "malformed scenario: "),
        ("truth-overflow.json",
         SCENARIO_JSON.replace('"y_a_true": 110', f'"y_a_true": {10**400}'),
         "malformed scenario: y_a_true: expected float, got a number beyond its range$"),
    ], ids=["seed-inf", "n-inf", "digits", "latin1", "deep", "count", "n-fraction",
            "seed-fraction", "count-fraction", "seed-bool", "count-bool", "sigma-bool",
            "n-string", "n-string-fraction", "seed-hex", "sigma-string", "count-null",
            "layout-array", "truth-overflow"])
    def test_unreadable_scenario_exits_1(self, tmp_path, capsys, name, content, match):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_bytes(content)
        out = tmp_path / "dataset.csv"
        assert main(["synth", "--scenario", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert re.search(match, err)
        assert not out.exists()


    @pytest.mark.parametrize("field", ["y_a_true", "y_b_true", "sigma_a", "sigma_b"])
    def test_non_finite_scenario_exits_1_without_warnings(self, tmp_path, capsys,
                                                         field):
        scenario = json.loads(SCENARIO_JSON)
        scenario[field] = float("inf")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")  # writes Infinity
        out = tmp_path / "dataset.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", "--scenario", str(path), "--output", str(out)])
        assert code == 1 and not caught
        assert capsys.readouterr().err == (
            f"error: {path}: {field} must be finite, got inf\n")
        assert not out.exists()


class TestSelftestCommand:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "ok   gauge-block example" in out
        assert "ok   synthetic example" in out
        assert "ok   gauge-block inflation" in out

    @pytest.mark.parametrize("suite, name, change, failure", [
        (0, "GAUGE_BLOCK_EXPECTED", {"ratio": 2.0},
         r"q2/\(N-2\) = 1\.07\d*, expected 2\.0 \+/- 0\.005"),
        (0, "GAUGE_BLOCK_EXPECTED",
         {"kcrv": {**golden.GAUGE_BLOCK_EXPECTED["kcrv"], "y_a": -90.0}},
         r"y_a = -103\.6\d*, expected -90\.0 \+/- 0\.05"),
        (0, "GAUGE_BLOCK_EXPECTED",
         {"doe_a": {**golden.GAUGE_BLOCK_EXPECTED["doe_a"], "METAS": (0.0, 12.1)}},
         r"DOE METAS/A = \(7\.61\d*, 12\.05\d*\), expected \(0\.0, 12\.1\)"),
        (0, "GAUGE_BLOCK_EXPECTED", {"passed": True},
         r"conformity verdict should be True"),
        (2, "GAUGE_BLOCK_INFLATED_EXPECTED", {"minimal_u": 11.3},
         r"minimal u\(INMETRO1/B\) = 11\.2, expected 11\.3"),
    ], ids=["ratio", "kcrv", "doe", "verdict", "minimal_u"])
    def test_reports_a_mismatch_and_exits_1(self, monkeypatch, capsys, suite, name,
                                            change, failure):
        monkeypatch.setattr(golden, name, {**getattr(golden, name), **change})
        assert main(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        suites = ["gauge-block example", "synthetic example", "gauge-block inflation"]
        expected = [f"ok   {other}" for other in suites]
        expected[suite] = f"FAIL {suites[suite]}"
        assert lines[:suite + 1] + lines[suite + 2:] == expected
        assert re.fullmatch(rf"  {suites[suite]}: {failure}", lines[suite + 1])


class TestUnitsFlow:
    def test_json_file_units_reach_the_report(self, tmp_path, capsys):
        payload = {"units": "nm", "labs": [
            {"label": "A1", "x_a": 10.0, "u_a": 1.0},
            {"label": "B1", "x_b": 20.0, "u_b": 1.0},
        ]}
        path = tmp_path / "labs.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["link", "--input", str(path)]) == 0
        assert "values in nm" in capsys.readouterr().out

    def test_flag_overrides_file_units(self, tmp_path, capsys):
        payload = {"units": "nm", "labs": [
            {"label": "A1", "x_a": 10.0, "u_a": 1.0},
            {"label": "B1", "x_b": 20.0, "u_b": 1.0},
        ]}
        path = tmp_path / "labs.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["link", "--input", str(path), "--units", "um"]) == 0
        assert "values in um" in capsys.readouterr().out


    @pytest.mark.parametrize("output", [None, "new", "existing"])
    @pytest.mark.parametrize("command", [["link"],
                                         ["inflate", "--lab", "INMETRO1", "--standard", "B"]])
    def test_units_that_are_not_utf8_exit_1(self, gauge_block_file, tmp_path, capsys,
                                            command, output):
        # a non-UTF-8 byte in argv reaches --units as a lone surrogate
        out = tmp_path / "r.txt"
        if output == "existing":
            out.write_text("an earlier report\n", encoding="utf-8")
        argv = [*command, "--input", str(gauge_block_file), "--units", "\udcff"]
        assert main(argv + (["--output", str(out)] if output else [])) == 1
        assert capsys.readouterr() == (
            "", "error: --units: 'utf-8' codec can't encode character '\\udcff' in position 0:"
                " surrogates not allowed\n")
        if output == "existing":
            assert out.read_text(encoding="utf-8") == "an earlier report\n"
        else:
            assert not out.exists()


class TestWriteErrors:
    """An output that cannot be written ends the run with one error line."""

    @pytest.mark.parametrize("target", ["/dev/full", "a directory"])
    @pytest.mark.parametrize("command", [
        ["link", "--output"], ["link", "--plot-data"],
        ["inflate", "--lab", "INMETRO1", "--standard", "B", "--output"]])
    def test_unwritable_output_exits_1(self, gauge_block_file, tmp_path, capsys, command,
                                       target):
        if target == "/dev/full" and not os.path.exists(target):
            pytest.skip("no /dev/full here")
        *command, option = command
        path = target if target == "/dev/full" else str(tmp_path)
        assert main([*command, "--input", str(gauge_block_file), option, path]) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.startswith("warning: ")]
        assert len(errors) == 1 and errors[0].startswith("error: "), errors


class TestMisc:
    def test_version(self, capsys):
        assert main(["--version"]) == 0

    def test_repeated_calls_give_the_same_results(self, gauge_block_file, capsys):
        # the parser is built once per process; no call may leave state behind
        data = ["--input", str(gauge_block_file)]
        calls = [["--version"], ["link", "--help"], ["inflate"], ["link", *data],
                 ["inflate", *data, "--lab", "INMETRO1", "--standard", "B"],
                 ["link", *data, "--units", "nm", "--decimals", "1"], ["--help"],
                 ["synth"], ["link", *data, "--decimals", "x"]]
        outcomes = []
        for argv in calls + calls[::-1]:
            code = main(argv)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        first, second = outcomes[:len(calls)], outcomes[len(calls):][::-1]
        assert first == second
        assert [code for code, _, _ in first] == [0, 0, 1, 2, 0, 2, 0, 1, 1]
        assert first[0][1] == f"{__version__}\n"
        assert "usage: kclink inflate" in first[2][2]

    def test_help(self, capsys):
        assert main(["--help"]) == 0


class TestClosedStdout:
    """``kclink link ... | head -1``: a reader that closes the pipe early
    ends the run quietly with exit 1, whether stdout is buffered or not."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_pipe_exits_1_quietly(self, tmp_path, unbuffered):
        # a report of about 1.5 MB, far more than a pipe holds
        rows = ["{0}.5,1.0,,,", ",,{1}.25,2.0,", "{0}.5,1.0,{1}.25,2.0,0.5"]
        data = tmp_path / "big.csv"
        data.write_text("".join(f"LAB{index:05d},{rows[index % 3].format(index % 7, index % 5)}\n"
                                for index in range(30_000)), encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(kclink.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open(tmp_path / "stderr", "w+b") as err:
            child = subprocess.Popen([sys.executable, "-m", "kclink.cli", "link", "--input",
                                      str(data)], stdout=subprocess.PIPE, stderr=err, env=env)
            try:
                assert child.stdout.read(64).startswith(b"distributed linking")
                child.stdout.close()
                assert child.wait(timeout=120) == 1
            finally:
                child.kill()
            err.seek(0)
            assert err.read() == b""


class TestColdStart:
    # SciPy's inverse normal CDF serves the synthetic draws only: the
    # analysis commands must not pay its import
    @pytest.mark.parametrize("call, loaded", [
        ("", False),
        ("main(['link', '--input', data, '--report-format', 'json',"
         " '--output', 'report.json', '--plot-data', 'plot.csv'])", False),
        ("main(['inflate', '--input', data, '--lab', 'INMETRO1', '--standard', 'B'])",
         False),
        ("main(['selftest'])", False),
        ("generate_scenario(scenario_from_dict(json.loads(scenario)))", True),
    ], ids=["import", "link", "inflate", "selftest", "generate_scenario"])
    def test_scipy_loads_on_the_first_draw(self, gauge_block_file, tmp_path, call, loaded):
        script = ("import json, sys\n"
                  "from kclink.cli import main\n"
                  "from kclink.synthetic import generate_scenario, scenario_from_dict\n"
                  f"data, scenario = {str(gauge_block_file)!r}, {SCENARIO_JSON!r}\n"
                  f"{call}\n"
                  "print('scipy' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(kclink.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == str(loaded)
