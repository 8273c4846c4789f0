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
from hypothesis import example, given, settings

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


def _write_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
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
def test_files_read_like_the_per_lab_path(tmp_path_factory, rows):
    directory = tmp_path_factory.mktemp("files")
    as_csv, as_json = directory / "labs.csv", directory / "labs.json"
    _write_csv(rows, as_csv)
    as_json.write_text(json.dumps([dict(zip(_FIELDS, row)) for row in rows]),
                       encoding="utf-8")
    lines, seen = _csv_rows(rows)
    stripped = [(label.strip(), *cells) for label, *cells in rows]
    for path, want, where in (
        (as_csv, oracles.reference_dataset(seen), lambda i: f"{as_csv}:{lines[i]}"),
        (as_json, oracles.reference_dataset(stripped),
         lambda i: f"{as_json}: lab entry {i}"),
    ):
        try:
            got = parse_dataset(path)
        except KclinkError as exc:
            got = exc
        assert_same(got, want, where)


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
    assert dataset.cov.tolist() == [0.0] * 4
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
