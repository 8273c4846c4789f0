import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kclink import io as kio
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
from kclink.golden import gauge_block_dataset, synthetic_dataset
from kclink.model import KclinkError, LabResult, validate_dataset

from . import oracles
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

    @pytest.mark.parametrize("row, message", [
        ("B2,,,2.0,-1.0,", "B2: uncertainty for standard B must be finite and positive"),
        ("B2,,,oops,1.0,", "could not convert string to float: 'oops'"),
        ("B2,,,2.0,1.0,,7", "expected at most 6 columns, got 7"),
        (f'"B2\n{"x" * 200_000}",,,2.0,1.0,', "field larger than field limit (131072)"),
    ], ids=["column-check", "cell", "width", "field-size"])
    def test_errors_name_the_line_a_row_starts_on(self, tmp_path, row, message):
        # write_dataset quotes a label with a line break across two lines
        dataset = validate_dataset([LabResult("multi\nline", value_a=1.0, u_a=1.0),
                                    LabResult("B1", value_b=2.0, u_b=1.0)])
        path = write_dataset(dataset, tmp_path / "labels.csv")
        assert parse_dataset(path) == dataset
        with open(path, "a", encoding="utf-8", newline="") as handle:
            handle.write(f"{row}\r\n")
        # line 1 the header, 2 and 3 the first lab, 4 B1
        with pytest.raises(ParseError) as caught:
            parse_dataset(path)
        assert str(caught.value) == f"{path}:5: {message}"

    @pytest.mark.parametrize("name, content, message", [
        ("lab.csv", '"A1",1.0,-1.0,,,\n"B1",,,2.0,1.0,\n"B2",,,2.0,1.0,,7\n',
         ":1: A1: uncertainty for standard A must be finite and positive"),
        ("cell.csv", '"A1",1.0,-1.0,,,\n"B1",,,2.0,1.0,\n"B2",,,oops,1.0,\n',
         ":1: A1: uncertainty for standard A must be finite and positive"),
        ("repeat.csv", '"A1",1.0,1.0,,,\n"A1",,,2.0,1.0,\n"B2",,,2.0,1.0,,7\n',
         ":3: expected at most 6 columns, got 7"),
        ("entry.json", json.dumps([{"label": "A1", "x_a": 1.0, "u_a": -1.0},
                                   {"label": "B1", "x_b": 2.0, "u_b": 1.0}, 3]),
         ": lab entry 0: A1: uncertainty for standard A must be finite and positive"),
        ("units.json", json.dumps({"units": 5, "labs": [
            {"label": "A1", "x_a": 1.0, "u_a": 1.0}, {"label": "B1", "x_b": 2.0, "u_b": 0.0}]}),
         ": lab entry 1: B1: uncertainty for standard B must be finite and positive"),
        ("repeat.json", json.dumps({"units": 5, "labs": [
            {"label": "A1", "x_a": 1.0, "u_a": 1.0}, {"label": "A1", "x_b": 2.0, "u_b": 1.0}]}),
         ": units must be a string"),
    ], ids=["lab-before-width", "lab-before-cell", "width-before-repeat",
            "lab-before-entry", "lab-before-units", "units-before-repeat"])
    def test_first_failing_row_in_file_order_is_the_error(self, tmp_path, name, content,
                                                          message):
        # a failing lab wins over a later row that cannot be read, and any
        # error while reading over the checks of the whole dataset
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            parse_dataset(path)
        assert str(caught.value) == f"{path}{message}"

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

    def test_labels_are_stripped_in_both_formats(self, tmp_path):
        dataset = validate_dataset([
            LabResult(" A1 ", value_a=1.0, u_a=1.0),
            LabResult("\tC1", value_a=2.0, u_a=1.0, value_b=3.0, u_b=1.0),
            LabResult("B1  ", value_b=4.0, u_b=1.0),
        ])
        from_csv = parse_dataset(write_dataset(dataset, tmp_path / "labs.csv"))
        from_json = parse_dataset(write_dataset(dataset, tmp_path / "labs.json"))
        assert from_csv == from_json
        assert [lab.label for lab in from_json.labs] == ["A1", "C1", "B1"]

    @pytest.mark.parametrize("name, content, match", [
        # beyond int's digit limit (or, without one, beyond the float range)
        ("big.json", '[{"label": "A1", "x_a": ' + "9" * 5000 + ', "u_a": 1}]',
         r"big\.json: "),
        ("deep.json", "[" * 100_000, r"deep\.json: invalid JSON"),
        # beyond the CSV reader's field size limit of 131072 characters
        ("wide.csv", "B1,,,7.5,2.0,\nA1," + "1" * 200_000 + ",1,,,\n",
         r"wide\.csv:2: field larger"),
        ("latin1.csv", "A1,-96.0,13.0,,,\nB\xe9,,,7.5,2.0,\n".encode("latin-1"),
         r"latin1\.csv: not UTF-8 text"),
        ("latin1.json", '[{"label": "B\xe9"}]'.encode("latin-1"),
         r"latin1\.json: not UTF-8 text"),
        ("inf.csv", "B1,,,7.5,2.0,\nA1,inf,1.0,,,\n",
         r"inf\.csv:2: A1: non-finite value for standard A$"),
        ("nan.json", '[{"label": "A1", "x_a": NaN, "u_a": 1.0}]',
         r"nan\.json: lab entry 0: A1: non-finite value for standard A$"),
        ("entry.json", "[3]", r"entry\.json: lab entry 0 is not an object$"),
        ("units.json", '{"units": 5, "labs": [{"label": "A1", "x_a": 1, "u_a": 1},'
         ' {"label": "B1", "x_b": 2, "u_b": 1}]}',
         r"units\.json: units must be a string$"),
    ], ids=["big.json", "deep.json", "wide.csv", "latin1.csv", "latin1.json",
            "inf.csv", "nan.json", "entry.json", "units.json"])
    def test_unreadable_files(self, tmp_path, name, content, match):
        path = tmp_path / name
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_bytes(content)
        with pytest.raises(ParseError, match=match):
            parse_dataset(path)

    @pytest.mark.parametrize("text, match", [
        ('[{"label": "A1", "x_a": 1, "u_a": 1},'
         ' {"label": "B\\ud800", "x_b": 2, "u_b": 1}]',
         r"lab entry 1: .*surrogates not allowed"),
        ('{"units": "n\\udc00m", "labs": [{"label": "A1", "x_a": 1, "u_a": 1},'
         ' {"label": "B1", "x_b": 2, "u_b": 1}]}',
         r"units: .*surrogates not allowed"),
    ], ids=["label", "units"])
    def test_json_lone_surrogate_is_rejected(self, tmp_path, text, match):
        # a lone surrogate escape decodes, but cannot be written as UTF-8
        path = tmp_path / "labs.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=match):
            parse_dataset(path)

    def test_suffix_picks_the_reader(self, tmp_path, gauge_block):
        renamed = tmp_path / "data.txt"
        renamed.write_text(GAUGE_BLOCK_CSV, encoding="utf-8")
        assert parse_dataset(renamed).card_a == 11
        upper = write_dataset(gauge_block, tmp_path / "data.JSON")
        assert upper.read_text(encoding="utf-8").startswith('{\n  "labs": [')
        assert parse_dataset(upper).labs == gauge_block.labs
        with pytest.raises(TypeError):
            parse_dataset(renamed, "csv")  # the suffix is the only source
        with pytest.raises(TypeError):
            parse_dataset_with_units(renamed, format="csv")

    @pytest.mark.parametrize("header", [
        "label,x_a,u_a,x_b,u_b,cov_ab",
        " LABEL , X_A ,u_a,x_b,u_b,cov_ab",
        "lab,x_a,u_a,x_b,u_b,cov",  # unknown names are accepted anywhere
        "label,x_a,u_a",
        "name,,,x_b",
    ])
    def test_header_names_in_place_are_skipped(self, tmp_path, header):
        path = tmp_path / "header.csv"
        path.write_text(f"{header}\nA1,1.0,0.1,,,\nB1,,,2.0,0.2,\n",
                        encoding="utf-8")
        dataset = parse_dataset(path)
        assert dataset.lab("A1").value_a == 1.0 and dataset.lab("B1").value_b == 2.0

    @pytest.mark.parametrize("header, cell", [
        ("label,x_b,u_b,x_a,u_a,cov_ab", "cell 2 is 'x_b'"),
        ("label,x_a,u_a,x_b,u_b,cov,cov_ab", "cell 7 is 'cov_ab'"),
        ("u_a,x_a,x_a,x_b,u_b,cov_ab", "cell 1 is 'u_a'"),
        ("label,x_a,u_a,X_A,u_b,cov_ab", "cell 4 is 'x_a'"),
    ])
    def test_header_name_out_of_place_is_an_error(self, tmp_path, header, cell):
        # read by position, the first header would give A1 the A value 1.0
        path = tmp_path / "header.csv"
        path.write_text(f"{header}\nA1,1.0,0.1,,,\nB1,,,2.0,0.2,\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as caught:
            parse_dataset(path)
        assert str(caught.value) == (
            f"{path}:1: header {cell}; "
            f"the columns are label, x_a, u_a, x_b, u_b, cov_ab")

    def test_label_naming_a_column_is_data(self, tmp_path):
        # only the cells after the first make line 1 a header
        path = tmp_path / "labels.csv"
        path.write_text("u_a,1.0,0.1,,,\nB1,,,2.0,0.2,\n", encoding="utf-8")
        assert parse_dataset(path).lab("u_a").value_a == 1.0

    @pytest.mark.parametrize("suffix, text", [
        (".csv", "label,x_a,u_a,x_b,u_b,cov_ab\nA1,1.0,0.1,,,\nB1,,,2.0,0.2,\n"),
        (".csv", "A1,1.0,0.1,,,\nB1,,,2.0,0.2,\n"),
        (".json", '{"units": "nm", "labs": [{"label": "A1", "x_a": 1.0, "u_a": 0.1},'
                  ' {"label": "B1", "x_b": 2.0, "u_b": 0.2}]}'),
    ], ids=["csv-header", "csv", "json"])
    def test_byte_order_mark_is_skipped(self, tmp_path, suffix, text):
        # "CSV UTF-8" from Excel and UTF-8 from Notepad start with EF BB BF
        plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"bom{suffix}"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert parse_dataset_with_units(marked) == parse_dataset_with_units(plain)
        assert parse_dataset(marked).labels == ("A1", "B1")

    @pytest.mark.parametrize("suffix, text", [
        (".csv", "\ufeffA1,1.0,0.1,,,\n\ufeffB1,,,2.0,0.2,\n"),
        (".json", '[{"label": "\ufeffA1", "x_a": 1.0, "u_a": 0.1},'
                  ' {"label": "\ufeffB1", "x_b": 2.0, "u_b": 0.2}]'),
    ], ids=["csv", "json"])
    def test_byte_order_mark_past_the_start_is_text(self, tmp_path, suffix, text):
        path = tmp_path / f"labs{suffix}"
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert parse_dataset(path).labels == ("\ufeffA1", "\ufeffB1")


def _read(path: Path) -> tuple | str:
    """A dataset file's labels, column bytes and units, or its error's text."""
    try:
        dataset, units = parse_dataset_with_units(path)
    except KclinkError as exc:
        return f"{type(exc).__name__}: {exc}"
    return (dataset.labels, dataset.x.tobytes(), dataset.u.tobytes(),
            dataset.cov_ab.tobytes(), units)


# cells that float reads in its own way: a signed zero, a NaN (read as +inf),
# an infinity, an underscore and surrounding blanks
odd_cells = st.sampled_from(["-0.0", "nan", "-nan", "inf", "-inf", "1_0", " 1 ", "\t2.5 "])


@st.composite
def csv_files(draw):
    """A dataset of :func:`datasets` as CSV bytes: LF, CRLF, CR or mixed line
    ends, a header or not, a final line end or not, labels with a character of
    2, 3 or 4 UTF-8 bytes or none, blanks around the cells of some rows and up
    to two cells of a row replaced by :data:`odd_cells`."""
    rows = []
    for lab in draw(datasets()).labs:
        cells = ["" if v is None else repr(v)
                 for v in (lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab)]
        for k in draw(st.sets(st.integers(0, 4), max_size=2)):
            cells[k] = draw(odd_cells)
        pad = draw(st.sampled_from(["", " "]))
        label = lab.label + draw(st.sampled_from(["", "é", "日本", "😀"]))
        rows.append(",".join(f"{pad}{cell}{pad}" if cell else ""
                             for cell in [label, *cells]))
    if draw(st.booleans()):
        rows.insert(0, "label,x_a,u_a,x_b,u_b,cov_ab")
    end = draw(st.sampled_from(["\n", "\r\n", "\r", None]))  # None: mixed
    ends = [end or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in rows]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, rows, ends)).encode("utf-8")


# a file for each doubt on which the plain CSV path hands the file to the row loop
FALLBACKS = {
    "quote": b'A1,1,1,,,\n"B1",,,2,1,\n',
    "blank line": b"A1,1,1,,,\n\nB1,,,2,1,\n",
    "short line": b"A1,1,1\nB1,,,2,1,\n",
    "seven columns": b"A1,1,1,,,,\nB1,,,2,1,\n",
    "four then six commas": b"A1,1,1,,\n7,B1,,,2,1,\n",  # 10 commas in 2 lines
    "long line": b"B1,,,7.5,2.0,\nA1," + b"1" * 200_000 + b",1,,,\n",
    "empty label": b"A1,1,1,,,\n ,1,1,,,\nB1,,,2,1,\n",
    "not a float": "A1,\u22121,1,,,\nB1,,,2,1,\n".encode("utf-8"),
    "blank cell": b"A1,1,1,,,\nB1, ,,2,1,\n",
    "not UTF-8": b"A1,1,1,,,\nB1,,,2,1,\nC\xff,1,1,,,\n",
    # 70,000 characters, 140,000 bytes: the row loop reads it
    "multi-byte field": ("B1,,,2,1,\nA1,1,1,,,\nA" + "\u00e9" * 70_000 + ",1,1,,,\n")
    .encode("utf-8"),
}
# plain files: the plain CSV path reads them to the end
PLAIN = {
    "CR": b"label,x_a,u_a,x_b,u_b,cov_ab\rA1,1,1,,,\rB1,,,2,1,\r",
    "CR and CRLF": b"A1,1,1,,,\r\nB1,,,2,1,\rC1,1,1,2,1,0.5",
    "NUL labels": b"A\x001,1,1,,,\nB\x00,,,2,1,\n",
    "odd cells": b" A1 , 1 ,1_0,,,\nB1,,,-0.0,inf,\nA2,nan,1,,,\n",
    "line at the limit": b"A1,1,1,,,\nB1,,,2,1,\nA2," + b"1" * (131_072 - 8) + b",1,,,\n",
    "header only": b"label,x_a,u_a,x_b,u_b,cov_ab\r\n",
    "empty": b"",
    "duplicate label": b"A1,1,1,,,\nA1,,,2,1,\n",
    "bad u after a header": b"label,x_a,u_a,x_b,u_b,cov_ab\nA1,1,-1,,,\nB1,,,2,1,\n",
    "multi-byte labels": "A\u00e9,1,1,,,\r\nB\u65e5\u672c,,,2,1,\r\nC\U0001f600,1,1,2,1,0.5\r\n"
    .encode("utf-8"),
    # 140,000 characters in a line, each field within the limit
    "long line, short fields": b"A1,1,1,,,\nB1,,,2,1,\nA2,1." + b"0" * 69_997 + b",1."
    + b"0" * 69_987 + b",,,\n",
}


class TestPlainCsv:
    """A CSV file without quotes is read a chunk at a time, and on any doubt
    by the ``csv`` row loop: either way with the same result."""

    @given(content=csv_files(), chunk=st.integers(1, 7))
    @example(content=FALLBACKS["quote"], chunk=3)
    @example(content=b"label,x_b,u_b,x_a,u_a,cov_ab\nA1,1,1,,,\n", chunk=5)  # header error
    @example(content=FALLBACKS["blank line"], chunk=2)
    @example(content=FALLBACKS["short line"], chunk=4)
    @example(content=FALLBACKS["seven columns"], chunk=7)
    @example(content=FALLBACKS["four then six commas"], chunk=50)
    @example(content=FALLBACKS["long line"], chunk=1 << 12)
    @example(content=FALLBACKS["empty label"], chunk=1)
    @example(content=FALLBACKS["not a float"], chunk=6)
    @example(content=FALLBACKS["blank cell"], chunk=3)
    @example(content=FALLBACKS["not UTF-8"], chunk=2)
    @example(content=b"A1,1,1,,,\nB1,,,2,1,\n\r\n\n", chunk=3)  # trailing blank lines
    @example(content=b"A1,1\x002,1,,,\nB1,,,2,1,\n", chunk=2)  # a NUL in a number
    @example(content=b'A\x001,1,1,,,\n"C,\x00",1,1,2,1,0\nB1,,,2,1,\n', chunk=4)
    @example(content=b"\r\r\r", chunk=1)
    @example(content=PLAIN["CR and CRLF"], chunk=1)
    @example(content=PLAIN["line at the limit"], chunk=1 << 12)
    @settings(deadline=None)
    def test_plain_path_is_the_row_loop(self, content, chunk):
        # chunks of a few characters: lines and CRLF pairs straddle their boundaries
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "labs.csv"
            path.write_bytes(content)
            with mock.patch.object(kio, "_PLAIN_CHARS", chunk):
                got = _read(path)
            with mock.patch.object(kio, "_plain_csv", lambda path, data: None):
                assert got == _read(path)

    @pytest.mark.parametrize("chunk", [*range(1, 8), kio._PLAIN_CHARS])
    @pytest.mark.parametrize("name", ["multi-byte labels", "long line, short fields",
                                      "multi-byte field"])
    def test_field_widths_in_bytes(self, tmp_path, name, chunk):
        # a field's UTF-8 bytes bound its characters: within the limit in bytes
        # the plain path reads it, beyond it the row loop, with the same result
        path = tmp_path / "labs.csv"
        path.write_bytes(PLAIN.get(name) or FALLBACKS[name])
        with mock.patch.object(kio, "_PLAIN_CHARS", chunk):
            assert (kio._plain_csv(path) is None) == (name in FALLBACKS)
            got = _read(path)
        with mock.patch.object(kio, "_plain_csv", lambda path, data: None):
            assert got == _read(path)

    @pytest.mark.parametrize("name", FALLBACKS)
    def test_doubt_falls_back(self, tmp_path, name):
        path = tmp_path / "labs.csv"
        path.write_bytes(FALLBACKS[name])
        assert kio._plain_csv(path) is None

    @pytest.mark.parametrize("name", PLAIN)
    def test_plain_files_skip_the_row_loop(self, tmp_path, monkeypatch, name):
        path = tmp_path / "labs.csv"
        path.write_bytes(PLAIN[name])
        want = _read(path)
        monkeypatch.setattr(kio, "_csv_rows", None)  # a call would raise TypeError
        assert _read(path) == want


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

    @given(value=st.floats(allow_nan=False, allow_infinity=False),
           decimals=st.integers(min_value=0, max_value=400))
    def test_matches_a_fresh_decimal_context_per_value(self, value, decimals):
        assert (repr(round_half_up(value, decimals))
                == repr(oracles.round_half_up(value, decimals)))


@st.composite
def text_cells(draw):
    """``(value, decimals)``: any finite float, a decimal tie
    ``(10 m + 5) / 10^(decimals + 1)`` at the report's decimals, or a value
    near the tie mask's bound (``|v| * 10^(decimals + 1)`` in 2^46..2^52)."""
    decimals = draw(st.one_of(st.integers(0, 25), st.integers(0, 400)))
    tie = st.integers(-10**20, 10**20).map(lambda m: (10 * m + 5) / 10 ** (decimals + 1))
    near = st.floats(2**46 / 10 ** (decimals + 1), 2**52 / 10 ** (decimals + 1))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return draw(st.one_of(finite, tie, near, near.map(float.__neg__))), decimals


class TestTextTable:
    """Every measured cell of the DOE table against ``oracles._fmt``."""

    @given(text_cells())
    # beyond 2^49 but below 2^52: a bound of 2^52 printed these wrongly
    @example((-346170442.8977755, 6))
    @example((36348.23446116305, 10))
    @example((-4414347.715451675, 8))
    @example((-9.964935892125e-11, 22))  # a tie that 10.0**23 misses
    @example((0.125, 2))
    @example((1.005, 2))
    @example((2.5, 0))
    @example((-0.0005, 3))
    @example((5e-324, 400))
    @example((1e22, 3))
    @example((56294995342.131195, 3))  # just below 2^49 / 10^4
    @example((-0.0, 3))
    def test_cells_match_the_reference(self, cell):
        value, decimals = cell
        result = link(synthetic_dataset())  # A-only, linking and B-only labs
        filled = np.where(result.dataset.measured, value, np.nan)
        table = replace(result, d=filled, u_d=filled)
        assert (render_report(table, "text", decimals=decimals)
                == oracles.text_report(table, decimals, None))


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

    # sha256 prefixes of the reports at decimals=3: the report bytes are a
    # contract, so any change to them must be deliberate
    @pytest.mark.parametrize("dataset, units, format, digest", [
        (gauge_block_dataset, "nm", "json", "30866f58d3138b4c"),
        (gauge_block_dataset, "nm", "text", "fa4263e2c2cbffb1"),
        (synthetic_dataset, None, "json", "4c28fe4f7bb7f0fb"),
        (synthetic_dataset, None, "text", "f2940a8c74603734"),
    ])
    def test_report_bytes_are_pinned(self, dataset, units, format, digest):
        report = render_report(link(dataset()), format, decimals=3, units=units)
        assert hashlib.sha256(report.encode()).hexdigest()[:16] == digest

    def test_primary_selects_format(self, synthetic):
        result = link(synthetic)
        assert render_report(result, "text").startswith("distributed")
        assert render_report(result, "json").startswith("{")

    def test_zero_dof_ratio_renders(self):
        dataset = validate_dataset([
            LabResult("A1", value_a=5.0, u_a=2.0),
            LabResult("B1", value_b=7.0, u_b=3.0),
        ])
        text = render_report(link(dataset), "text")
        assert "q2/(N-2) = n/a (passed)" in text
        data = json.loads(render_report(link(dataset), "json"))
        assert data["conformity"]["ratio"] is None

    def test_unknown_format(self, synthetic):
        with pytest.raises(KclinkError, match="unknown report format: 'xml'"):
            render_report(link(synthetic), "xml")

    def test_negative_decimals(self, synthetic):
        with pytest.raises(KclinkError, match="decimals"):
            render_report(link(synthetic), "json", decimals=-1)

    @pytest.mark.parametrize("format", ["text", "json"])
    def test_numpy_integer_decimals(self, gauge_block, format):
        result = link(gauge_block)
        assert (render_report(result, format, decimals=np.int64(2))
                == render_report(result, format, decimals=2))

    @pytest.mark.parametrize("decimals", [-1, np.int64(-1), True, False, np.True_, 2.5,
                                          2.0, np.float64(2.0), "3", None], ids=repr)
    @pytest.mark.parametrize("format", ["text", "json"])
    def test_decimals_must_be_a_non_negative_integer(self, synthetic, format, decimals):
        with pytest.raises(KclinkError) as caught:
            render_report(link(synthetic), format, decimals=decimals)
        assert str(caught.value) == (
            f"decimals must be a non-negative integer, got {decimals!r}")

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
# surrounding whitespace (labels are stripped on reading)
labels = st.one_of(
    st.text(min_size=1), st.text(alphabet=',"\'\r\nx;', min_size=1)
).map(str.strip).filter(bool)


# any text: non-ASCII, quotes, backslashes, control and surrogate characters
any_text = st.text(st.characters(blacklist_categories=()), min_size=1)
# hand-built corner cases: empty linking group (and a zero-dof warning),
# empty only_a and only_b groups, and no warnings at all
EMPTY_LINKING = validate_dataset([
    LabResult("A1", value_a=1.0, u_a=1.0), LabResult("B1", value_b=2.0, u_b=1.0),
])
ONLY_LINKING = validate_dataset([
    LabResult("C1", value_a=1.0, u_a=1.0, value_b=2.0, u_b=1.0, cov_ab=0.5),
    LabResult("C2", value_a=3.0, u_a=2.0, value_b=1.0, u_b=1.5, cov_ab=-0.25),
])
NO_WARNINGS = validate_dataset([
    LabResult("A1", value_a=1.0, u_a=1.0),
    LabResult("C1", value_a=2.0, u_a=1.0, value_b=3.0, u_b=1.0, cov_ab=0.5),
    LabResult("B1", value_b=4.0, u_b=1.0),
])


def _relabelled(dataset, names):
    return validate_dataset(
        replace(lab, label=name) for lab, name in zip(dataset.labs, names)
    )


class TestReportBytes:
    """The direct writers against ``json.dumps`` and ``csv.writer``."""

    @given(dataset=datasets(),
           names=st.lists(any_text, min_size=9, max_size=9, unique=True),
           units=st.none() | any_text,
           decimals=st.integers(min_value=0, max_value=20))
    @example(dataset=synthetic_dataset(), names=[], units="µm", decimals=400)
    @example(dataset=gauge_block_dataset(), names=[], units=None, decimals=3)
    @example(dataset=EMPTY_LINKING, names=[], units="nm", decimals=1)
    @example(dataset=ONLY_LINKING, names=["\"q\\", "\x00\n"], units="",
             decimals=0)
    @example(dataset=NO_WARNINGS, names=["é", "\ud800", "\t"], units=None,
             decimals=6)
    def test_json_report_is_json_dumps(self, dataset, names, units, decimals):
        if names:
            dataset = _relabelled(dataset, names)
        result = link(dataset)
        assert (render_report(result, "json", decimals=decimals, units=units)
                == oracles.json_report(result, decimals, units))

    @given(dataset=datasets(),
           names=st.lists(st.text(',"\r\nx;') | st.text(min_size=1),
                          min_size=9, max_size=9, unique=True).filter(all))
    @example(dataset=NO_WARNINGS, names=['a,"b"', "\r\n", "µ;"])
    def test_plot_data_is_csv_writer(self, dataset, names):
        result = link(_relabelled(dataset, names))
        with tempfile.TemporaryDirectory() as directory:
            path = emit_plot_data(result, Path(directory) / "doe.csv")
            assert path.read_bytes() == oracles.plot_data(result).encode("utf-8")

    @given(dataset=datasets(), names=st.lists(labels, min_size=9, max_size=9, unique=True),
           suffix=st.sampled_from([".csv", ".json"]))
    @example(dataset=NO_WARNINGS, names=['a,"b"', "x\r\ny", "\x00\t"], suffix=".csv")
    def test_dataset_file_is_csv_writer_or_json_dumps(self, dataset, names, suffix):
        dataset = _relabelled(dataset, names)
        with tempfile.TemporaryDirectory() as directory:
            path = write_dataset(dataset, Path(directory) / f"labs{suffix}")
            assert path.read_bytes() == oracles.dataset_file(dataset, suffix).encode("utf-8")


# labels as csv.writer quotes them, and any other text
plot_labels = st.lists(st.text(',"\r\nx;') | st.text(min_size=1),
                       min_size=9, max_size=9, unique=True).filter(all)


class TestSharedDoeText:
    """The JSON report and the plot data print the same text of each DOE's
    ``d`` and ``u_d``, made per block and kept with nothing: in either order,
    alone or twice, each output is the reference's bytes."""

    ORDERS = [("json", "plot"), ("plot", "json"), ("json",), ("plot",),
              ("json", "json"), ("plot", "plot")]

    @given(dataset=datasets(), names=plot_labels, decimals=st.integers(0, 20))
    @example(dataset=gauge_block_dataset(), names=[], decimals=3)
    @example(dataset=EMPTY_LINKING, names=['a,"b"', "\r\n"], decimals=0)
    @example(dataset=ONLY_LINKING, names=["x;", " , "], decimals=6)
    @settings(deadline=None)
    def test_outputs_in_any_order_match_the_references(self, dataset, names, decimals):
        if names:
            dataset = _relabelled(dataset, names)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "doe.csv"
            for order in self.ORDERS:
                result = link(dataset)
                for output in order:
                    if output == "json":
                        assert (render_report(result, "json", decimals=decimals)
                                == oracles.json_report(result, decimals, None))
                    else:
                        assert (emit_plot_data(result, path).read_bytes()
                                == oracles.plot_data(result).encode("utf-8"))

    def test_stored_text_is_not_part_of_the_result(self, gauge_block, tmp_path):
        result, fresh = link(gauge_block), link(gauge_block)
        render_report(result, "json")
        emit_plot_data(result, tmp_path / "doe.csv")
        assert vars(result).keys() == vars(fresh).keys()  # no text is kept
        assert result == fresh and hash(result) == hash(fresh)
        assert repr(result) == repr(fresh)
        copy = replace(result)
        assert copy == result and vars(copy).keys() == vars(fresh).keys()
        assert render_report(copy, "json") == render_report(result, "json")


def _round_trip(dataset, suffix: str) -> None:
    with tempfile.TemporaryDirectory() as directory:
        path = write_dataset(dataset, Path(directory) / f"labs{suffix}")
        assert parse_dataset(path).labs == dataset.labs


# NUL labels, the second of which csv.writer quotes
NUL_LABELS = ["A\x001", "C,\x00", "B\x00"]


class TestWriteDataset:
    @given(dataset=datasets(), names=st.lists(labels, min_size=9, max_size=9,
                                              unique=True),
           suffix=st.sampled_from([".csv", ".json"]))
    @example(dataset=NO_WARNINGS, names=NUL_LABELS, suffix=".csv")
    @example(dataset=NO_WARNINGS, names=["A\x001", "C\x00", "B\x00"], suffix=".csv")
    def test_round_trip(self, dataset, names, suffix):
        _round_trip(_relabelled(dataset, names), suffix)

    @given(dataset=datasets(),
           names=st.lists(labels | st.text('\x00,"x', min_size=1), min_size=9, max_size=9,
                          unique=True))
    @example(dataset=NO_WARNINGS, names=NUL_LABELS)
    def test_round_trip_through_the_row_loop(self, dataset, names):
        # every file through the row loop: its NUL, comma and quote labels
        # reach csv.reader
        with mock.patch.object(kio, "_plain_csv", lambda path, data: None):
            _round_trip(_relabelled(dataset, names), ".csv")


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
