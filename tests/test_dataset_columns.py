"""The column-native dataset against the per-lab path it replaced.

``tests.oracles.reference_dataset`` validates rows the earlier way: one
``LabResult`` per row in input order, then the dataset-wide checks, with
the columns built from the labs.  Building a dataset from columns, or
reading the rows from a CSV or JSON file, must give the same dataset bit
for bit, or fail with the same first error.
"""

import csv
import json
import warnings
from math import inf, nan

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kclink.io import ParseError, parse_dataset
from kclink.model import (
    ComparisonDataset,
    KclinkError,
    LabError,
    LabResult,
    ValidationError,
    check_labs,
    validate_dataset,
)

from . import oracles
from .strategies import lab_rows

_FIELDS = ("label", "x_a", "u_a", "x_b", "u_b", "cov_ab")


def _columns(rows):
    """The columns of the rows, NaN for None."""
    def column(k):
        return [nan if row[k] is None else row[k] for row in rows]

    return [row[0] for row in rows], [column(1), column(3)], [column(2), column(4)], \
        column(5)


def _bits(column: np.ndarray) -> bytes:
    return np.ascontiguousarray(column, dtype=float).tobytes()


def assert_same(got, want, where=None):
    """``got``, a dataset or the error it raised, is what the reference gave;
    ``where`` maps a failing row to the prefix a reader puts before it."""
    if isinstance(want, tuple) and not isinstance(want, oracles.ReferenceDataset):
        index, message = want
        assert isinstance(got, KclinkError), got
        if index is None:
            assert type(got) is ValidationError and str(got) == message
        elif where is None:
            assert isinstance(got, LabError) and (got.index, str(got)) == want
        else:
            assert isinstance(got, ParseError) and str(got) == f"{where(index)}: {message}"
        return
    assert not isinstance(got, Exception), got
    assert got.labels == want.labels
    for name in ("x", "u", "cov_ab"):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    for name in ("only_a", "only_b", "linking", "warnings"):
        assert getattr(got, name) == getattr(want, name), name
    assert got == validate_dataset(want.labs) and got.labs == want.labs


def _build(rows):
    try:
        return ComparisonDataset(*_columns(rows))
    except ValidationError as exc:
        return exc


@given(lab_rows())
@settings(max_examples=300, deadline=None)
@example([("A1", nan, 1.0, None, None, None), ("B1", None, None, 2.0, 1.0, None)])
@example([("C1", 1.0, 1.0, 2.0, 1.0, 0.0), ("C2", 1.0, 1.0, 2.0, 1.0, None)])
@example([("C1", 1.0, 1e200, 2.0, 1e200, 1e300), ("B1", None, None, 2.0, 1.0, None)])
def test_column_build_equals_the_per_lab_path(rows):
    # a column has no way to hold a NaN that was reported: NaN is absent
    absent = [tuple(None if v != v else v for v in row) for row in rows]
    assert_same(_build(rows), oracles.reference_dataset(absent))


def _write_csv(rows, path, quoting=csv.QUOTE_MINIMAL):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, quoting=quoting)
        writer.writerow(_FIELDS)
        for label, *cells in rows:
            writer.writerow([label, *("" if c is None else c if isinstance(c, str)
                                      else repr(c) for c in cells)])


def _csv_rows(rows):
    """The line numbers, and the rows as the per-lab reader saw them, of the
    rows of a file from :func:`_write_csv` that are not blank."""
    lines, seen = [], []
    for lineno, (label, *cells) in enumerate(rows, start=2):
        text = ["" if c is None else c if isinstance(c, str) else repr(c) for c in cells]
        if "".join([label, *text]).strip():
            lines.append(lineno)
            seen.append((label.strip(), *text))
    return lines, seen


@given(lab_rows(text=True))
@settings(max_examples=200, deadline=None)
@example([("A1", nan, 1.0, None, None, None), ("B1", None, None, 2.0, 1.0, None)])
@example([("A1", 1.0, -1.0, None, None, None), ("A2", 1.0, 1.0, None, None, None),
          ("A3", 1.0, 1.0, None, None, None), ("A4", "oops", 1.0, None, None, None),
          ("B1", None, None, 2.0, 1.0, None)])
@example([("C1", 1.0, 1.0, 2.0, 1.0, 0.0), ("C2", 1.0, 1.0, 2.0, 1.0, None)])
# CSV rows of only commas and spaces are skipped, and still counted in the
# line number of the failing lab after them
@example([("A1", 1.0, 1.0, None, None, None), ("", None, None, None, None, None),
          (" ", " ", None, "  ", None, " "), ("A2", 1.0, 0.0, None, None, None),
          ("B1", None, None, 2.0, 1.0, None)])
def test_files_read_like_the_per_lab_path(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("files")
    as_csv, as_json = directory / "labs.csv", directory / "labs.json"
    quoted = directory / "quoted.csv"  # every cell quoted: only the row loop reads it
    _write_csv(rows, as_csv)
    _write_csv(rows, quoted, csv.QUOTE_ALL)
    as_json.write_text(json.dumps([dict(zip(_FIELDS, row)) for row in rows]),
                       encoding="utf-8")
    lines, seen = _csv_rows(rows)
    stripped = [(label.strip(), *cells) for label, *cells in rows]
    for path, want, where in (
        (as_csv, oracles.reference_dataset(seen), lambda i: f"{as_csv}:{lines[i]}"),
        (quoted, oracles.reference_dataset(seen), lambda i: f"{quoted}:{lines[i]}"),
        (as_json, oracles.reference_dataset(stripped),
         lambda i: f"{as_json}: lab entry {i}"),
    ):
        try:
            got = parse_dataset(path)
        except KclinkError as exc:
            got = exc
        assert_same(got, want, where)


# JSON cells that are not numbers, and the literals json reads as NaN and inf
_NOT_NUMBERS = (True, False, [], [1.0], {}, {"x_a": 1.0}, 10**400, -10**400, nan, inf, -inf)


@st.composite
def json_rows(draw):
    """Rows from :func:`lab_rows` with one to three cells replaced by a value
    of ``_NOT_NUMBERS``, the label of such a row failing too at random."""
    rows = [list(row) for row in draw(lab_rows(text=True))]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(1, 5))] = draw(st.sampled_from(_NOT_NUMBERS))
        if draw(st.booleans()):
            row[0] = draw(st.sampled_from(["", None, 7, False, ["A1"], {}]))
    return [tuple(row) for row in rows]


@given(json_rows())
@settings(max_examples=200, deadline=None)
@example([("A1", 1.0, 1.0, None, None, None), ("B1", None, None, True, 1.0, None)])
@example([("A1", 1.0, 1.0, None, None, None), (None, None, None, 2.0, [1.0], None)])
@example([("A1", 10**400, 1.0, None, None, None), ("B1", None, None, nan, 1.0, None)])
@example([("A1", 1.0, 1.0, None, None, inf), ("B1", None, None, "oops", {}, None)])
def test_json_cells_that_are_not_numbers_read_like_the_per_lab_path(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("files") / "labs.json"
    path.write_text(json.dumps([dict(zip(_FIELDS, row)) for row in rows]),
                    encoding="utf-8")
    want = oracles.reference_dataset([
        (label.strip() if isinstance(label, str) else label, *cells) for label, *cells in rows])
    try:
        got = parse_dataset(path)
    except KclinkError as exc:
        got = exc
    assert_same(got, want, lambda i: f"{path}: lab entry {i}")


def test_labs_are_built_on_first_access(tmp_path, synthetic):
    path = tmp_path / "labs.csv"
    _write_csv([(lab.label, lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab)
                for lab in synthetic.labs], path)
    dataset = parse_dataset(path)
    assert "labs" not in vars(dataset)
    assert dataset.labs == synthetic.labs and "labs" in vars(dataset)
    assert dataset.labs is dataset.labs


def test_the_covariance_keeps_its_reported_bit():
    dataset = ComparisonDataset(("C1", "C2", "A1", "B1"), [[1.0, 1.0, 1.0, nan], [
        2.0, 2.0, nan, 2.0]], [[1.0, 1.0, 1.0, nan], [1.0, 1.0, nan, 1.0]],
        [0.0, nan, nan, nan])
    assert np.array_equal(dataset.cov_ab, [0.0, nan, nan, nan], equal_nan=True)
    assert dataset.bivariate.tolist() == [False] * 4
    assert [lab.cov_ab for lab in dataset.labs] == [0.0, None, None, None]
    assert dataset.warnings[0] == ("covariance not reported by linking "
                                   "laboratories (C2); treated as zero")
    assert dataset != ComparisonDataset(dataset.labels, dataset.x, dataset.u, [nan] * 4)


def test_an_overflowing_bound_leaks_no_warning():
    # u_a*u_b overflows to inf, so any finite covariance is inside the bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dataset = ComparisonDataset(("C1", "B1"), [[1.0, nan], [2.0, 2.0]],
                                    [[1e200, nan], [1e200, 1.0]], [1e300, nan])
        assert dataset.linking == ("C1",)
        with pytest.raises(LabError, match="non-finite covariance"):
            ComparisonDataset(("C1", "B1"), [[1.0, nan], [2.0, 2.0]],
                              [[1e200, nan], [1e200, 1.0]], [inf, nan])


def test_columns_must_match_the_labels():
    with pytest.raises(ValidationError, match="an entry per label"):
        ComparisonDataset(("A1", "B1"), [[1.0, nan]], [[1.0, nan]], [nan, nan])


def test_check_labs_names_the_first_failing_lab():
    labels = ("A1", "A2", "A3")
    x = np.array([[1.0, 1.0, inf], [nan, nan, nan]])
    u = np.array([[1.0, -1.0, 1.0], [nan, nan, nan]])
    with pytest.raises(LabError) as caught:
        check_labs(labels, x, u, np.full(3, nan))
    assert caught.value.index == 1 and str(caught.value) == (
        "A2: uncertainty for standard A must be finite and positive")
    with pytest.raises(ValidationError) as expected:
        LabResult("A2", value_a=1.0, u_a=-1.0)
    assert str(expected.value) == str(caught.value)
