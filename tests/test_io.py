import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kclink.io import (
    ParseError,
    emit_plot_data,
    parse_dataset,
    parse_dataset_with_units,
    parse_number,
    render_report,
    round_half_up,
    write_dataset,
)
from kclink.linking import link
from kclink.model import KclinkError, validate_dataset

from .strategies import datasets


GAUGE_BLOCK_CSV = """\
label,x_a,u_a,x_b,u_b,cov_ab
METAS,-96.0,13.0,,,
NPL,-140.0,33.0,,,
BNM-LNE,-110.0,16.0,,,
KRISS,-104.3,20.6,,,
NRLM,-89.4,16.3,,,
VNIIM,-104.0,15.0,,,
CSIRO,-114.0,16.0,,,
NIM,-90.0,10.3,,,
NIST,-117.0,17.9,-100.0,18.0,
CENAM,-119.0,18.7,-93.0,23.0,
NRC,-126.0,24.0,-124.0,26.0,
INMETRO1,,,-98.0,4.0,
INMETRO2,,,-68.0,29.0,
INTI,,,-104.0,21.0,
CEM,,,-148.0,17.0,
"""


@pytest.fixture
def gauge_block_csv(tmp_path):
    path = tmp_path / "comparison.csv"
    path.write_text(GAUGE_BLOCK_CSV, encoding="utf-8")
    return path


class TestParseNumber:
    @pytest.mark.parametrize("text, expected", [
        ("-96.0", -96.0),
        ("-96,0", -96.0),
        ("−96,0", -96.0),  # typographic minus with decimal comma
        ("  12.5 ", 12.5),
        ("0,8", 0.8),
    ])
    def test_accepts_comma_and_point(self, text, expected):
        assert parse_number(text) == expected

    def test_empty_is_absent(self):
        assert parse_number("") is None
        assert parse_number("   ") is None

    @pytest.mark.parametrize("text", ["1,234.5", "1,2,3", "abc"])
    def test_rejects_ambiguity_and_noise(self, text):
        with pytest.raises(ValueError):
            parse_number(text)


class TestParseDataset:
    def test_csv_round_trip_matches_builtin(self, gauge_block_csv, gauge_block):
        dataset = parse_dataset(gauge_block_csv)
        assert dataset.labs == gauge_block.labs
        assert dataset.only_a == gauge_block.only_a

    def test_a_only_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("METAS,-96.0,13.0,,,\nX,,,-1.0,2.0,\n", encoding="utf-8")
        dataset = parse_dataset(path)
        lab = dataset.lab("METAS")
        assert lab.value_a == -96.0 and lab.u_a == 13.0
        assert not lab.in_group_b

    def test_linking_row_without_covariance(self, gauge_block_csv):
        dataset = parse_dataset(gauge_block_csv)
        nist = dataset.lab("NIST")
        assert nist.is_linking
        assert nist.cov_ab is None
        assert any("not reported" in w for w in dataset.warnings)

    def test_decimal_comma_cells(self, tmp_path):
        path = tmp_path / "comma.csv"
        path.write_text(
            'A1,"−96,0","13,0",,,\nB1,,,"7,5","2,0",\n', encoding="utf-8"
        )
        dataset = parse_dataset(path)
        assert dataset.lab("A1").value_a == -96.0
        assert dataset.lab("B1").value_b == 7.5

    def test_short_rows_are_padded(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("A1,-96.0,13.0\nB1,,,7.5,2.0\n", encoding="utf-8")
        dataset = parse_dataset(path)
        assert dataset.lab("A1").u_a == 13.0

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A1,-96.0,13.0,,,\nB1,oops,1.0,7.5,2.0,\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.csv:2"):
            parse_dataset(path)

    def test_validation_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A1,-96.0,-13.0,,,\nB1,,,7.5,2.0,\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"bad\.csv:1"):
            parse_dataset(path)

    def test_too_many_columns(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("A1,1,1,1,1,0,999\n", encoding="utf-8")
        with pytest.raises(ParseError, match="columns"):
            parse_dataset(path)

    def test_json_array(self, tmp_path):
        path = tmp_path / "labs.json"
        payload = [
            {"label": "A1", "x_a": -96.0, "u_a": 13.0},
            {"label": "C1", "x_a": "-117,0", "u_a": 17.9,
             "x_b": -100.0, "u_b": 18.0, "cov_ab": None},
            {"label": "B1", "x_b": -98.0, "u_b": 4.0},
        ]
        path.write_text(json.dumps(payload), encoding="utf-8")
        dataset = parse_dataset(path)
        assert dataset.lab("C1").value_a == -117.0
        assert dataset.lab("C1").cov_ab is None
        assert dataset.linking == ("C1",)

    def test_json_wrapper_with_units(self, tmp_path):
        path = tmp_path / "labs.json"
        payload = {"units": "nm", "labs": [
            {"label": "A1", "x_a": 1.0, "u_a": 1.0},
            {"label": "B1", "x_b": 2.0, "u_b": 1.0},
        ]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert parse_dataset(path).card_a == 1
        dataset, units = parse_dataset_with_units(path)
        assert units == "nm"
        assert dataset.card_b == 1

    def test_quoted_label_containing_comma(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(
            '"Acme, Inc.",-96.0,13.0,,,\nB1,,,7.5,2.0,\n', encoding="utf-8"
        )
        dataset = parse_dataset(path)
        assert dataset.lab("Acme, Inc.").value_a == -96.0

    def test_json_errors(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{oops", encoding="utf-8")
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_dataset(broken)
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42", encoding="utf-8")
        with pytest.raises(ParseError, match="array"):
            parse_dataset(scalar)

    def test_json_null_label(self, tmp_path):
        path = tmp_path / "labs.json"
        path.write_text(json.dumps([
            {"label": None, "x_a": 1.0, "u_a": 1.0},
            {"label": "B1", "x_b": 2.0, "u_b": 1.0},
        ]), encoding="utf-8")
        with pytest.raises(ParseError, match="lab entry 0: laboratory label"):
            parse_dataset(path)

    def test_json_string_and_boolean_numbers(self, tmp_path):
        path = tmp_path / "labs.json"
        path.write_text(json.dumps([
            {"label": "A1", "x_a": "1,5", "u_a": 1},
            {"label": "B1", "x_b": 2.0, "u_b": True},
        ]), encoding="utf-8")
        with pytest.raises(ParseError, match="lab entry 1: B1: u_b must be a real"):
            parse_dataset(path)

    def test_format_inference_and_override(self, tmp_path, gauge_block_csv):
        renamed = tmp_path / "data.txt"
        renamed.write_text(GAUGE_BLOCK_CSV, encoding="utf-8")
        assert parse_dataset(renamed).card_a == 11
        with pytest.raises(ParseError, match="unknown dataset format"):
            parse_dataset(gauge_block_csv, "xml")


class TestRoundHalfUp:
    @pytest.mark.parametrize("value, decimals, expected", [
        (0.25, 1, 0.3),
        (-0.25, 1, -0.3),
        (1.005, 2, 1.01),
        (2.5, 0, 3.0),
        (1.0725, 2, 1.07),
        (11.15, 1, 11.2),
    ])
    def test_half_up(self, value, decimals, expected):
        assert round_half_up(value, decimals) == expected

    @pytest.mark.parametrize("value, decimals", [
        (1e300, 0),
        (1e13, 15),
        (-1.7976931348623157e308, 3),
        (5e-324, 400),
    ])
    def test_any_finite_float(self, value, decimals):
        assert round_half_up(value, decimals) == value


class TestRenderReport:
    def test_text_footer_at_one_decimal(self, gauge_block):
        text = render_report(link(gauge_block), "text", decimals=1, units="nm")
        assert "y_A = -103.6 nm" in text
        assert "u(y_A) = 4.9 nm" in text
        assert "y_B = -100.5 nm" in text
        assert "u(y_B) = 3.6 nm" in text
        assert "q2/(N-2) = 1.07 (failed)" in text

    def test_text_contains_doe_rows(self, gauge_block):
        text = render_report(link(gauge_block), "text", decimals=1)
        assert any(line.startswith("METAS") and "7.6" in line
                   for line in text.splitlines())

    def test_warning_section_only_when_needed(self, gauge_block, synthetic):
        assert "warnings:" in render_report(link(gauge_block), "text")
        assert "warnings:" not in render_report(link(synthetic), "text")

    def test_json_full_precision_round_trip(self, synthetic):
        result = link(synthetic)
        parsed = json.loads(render_report(result, "json"))
        assert parsed["kcrv"]["y_a"] == result.kcrv.y_hat_a
        assert parsed["kcrv"]["u_b"] == result.kcrv.u_b
        assert parsed["kcrv"]["cov_ab"] == result.kcrv.cov_ab
        assert parsed["conformity"]["q2"] == result.conformity.q2
        by_key = {(d["label"], d["standard"]): d for d in parsed["doe"]}
        for entry in result.does:
            stored = by_key[(entry.label, entry.standard)]
            assert stored["d"] == entry.d
            assert stored["u_d"] == entry.u_d
        echoed = {lab["label"]: lab for lab in parsed["input"]["labs"]}
        assert echoed["LAB-09"]["cov_ab"] == synthetic.lab("LAB-09").cov_ab

    def test_json_rendering_is_deterministic(self, synthetic):
        result = link(synthetic)
        first = render_report(result, "json")
        second = render_report(link(synthetic), "json")
        assert first == second

    def test_display_block_is_rounded_copy(self, gauge_block):
        result = link(gauge_block)
        data = json.loads(render_report(result, "json", decimals=1))
        assert data["display"]["kcrv"]["y_a"] == -103.6
        assert data["display"]["ratio"] == 1.07
        # full-precision fields unaffected by display rounding
        assert data["kcrv"]["y_a"] == result.kcrv.y_hat_a

    def test_primary_selects_format(self, synthetic):
        result = link(synthetic)
        assert render_report(result, "text").startswith("distributed")
        assert render_report(result, "json").startswith("{")

    def test_zero_dof_ratio_renders(self):
        from kclink.model import LabResult, validate_dataset

        dataset = validate_dataset([
            LabResult("A1", value_a=5.0, u_a=2.0),
            LabResult("B1", value_b=7.0, u_b=3.0),
        ])
        text = render_report(link(dataset), "text")
        assert "q2/(N-2) = n/a (passed)" in text
        data = json.loads(render_report(link(dataset), "json"))
        assert data["conformity"]["ratio"] is None

    def test_negative_decimals(self, synthetic):
        with pytest.raises(KclinkError, match="decimals"):
            render_report(link(synthetic), "json", decimals=-1)

    def test_numpy_scalars_render_like_floats(self, gauge_block, tmp_path):
        as_numpy = validate_dataset(
            replace(lab, **{name: np.float64(getattr(lab, name))
                            for name in ("value_a", "u_a", "value_b", "u_b")
                            if getattr(lab, name) is not None})
            for lab in gauge_block.labs
        )
        for format in ("text", "json"):
            assert (render_report(link(as_numpy), format)
                    == render_report(link(gauge_block), format))
        plot = emit_plot_data(link(as_numpy), tmp_path / "numpy.csv")
        plain = emit_plot_data(link(gauge_block), tmp_path / "plain.csv")
        assert "np." not in plot.read_text(encoding="utf-8")
        assert plot.read_bytes() == plain.read_bytes()


# labels survive both formats, quoting and all, as long as they carry no
# surrounding whitespace (CSV labels are stripped on reading)
labels = st.one_of(
    st.text(min_size=1), st.text(alphabet=',"\'\r\nx;', min_size=1)
).map(str.strip).filter(bool)


class TestWriteDataset:
    @given(dataset=datasets(), names=st.lists(labels, min_size=9, max_size=9,
                                              unique=True),
           suffix=st.sampled_from([".csv", ".json"]))
    def test_round_trip(self, dataset, names, suffix):
        dataset = validate_dataset(
            replace(lab, label=name) for lab, name in zip(dataset.labs, names)
        )
        with tempfile.TemporaryDirectory() as directory:
            path = write_dataset(dataset, Path(directory) / f"labs{suffix}")
            assert parse_dataset(path).labs == dataset.labs


class TestEmitPlotData:
    def test_row_per_degree_of_equivalence(self, gauge_block, tmp_path):
        result = link(gauge_block)
        path = emit_plot_data(result, tmp_path / "doe.csv")
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "label,standard,d,u_d,U_d_k2"
        assert len(lines) == 1 + 18  # 11 A entries + 7 B entries
        a_rows = [l for l in lines[1:] if l.split(",")[1] == "A"]
        assert len(a_rows) == 11

    def test_expanded_column_is_twice_u_d(self, synthetic, tmp_path):
        result = link(synthetic)
        path = emit_plot_data(result, tmp_path / "doe.csv")
        for line in path.read_text(encoding="utf-8").strip().splitlines()[1:]:
            _, _, _, u_d, expanded = line.split(",")
            assert float(expanded) == 2.0 * float(u_d)

    def test_unwritable_path(self, synthetic, tmp_path):
        result = link(synthetic)
        with pytest.raises(OSError):
            emit_plot_data(result, tmp_path / "missing" / "doe.csv")
