"""Dataset files in; reports, plot data and dataset files out.

Input files are CSV (columns ``label, x_a, u_a, x_b, u_b, cov_ab``, empty
cells meaning "absent", after an optional header row) or JSON (an array of
objects with the same field names, optionally wrapped as ``{"units": ...,
"labs": [...]}``).  The suffix picks the format, for reading and writing
alike: ``.json`` in any case means JSON, anything else CSV.  Numbers
are accepted with either a decimal point or a decimal comma and with
either ASCII or typographic minus signs; output always uses points.  A
UTF-8 byte-order mark at the start of an input file is skipped.

:func:`parse_dataset` is the one reader and :func:`write_dataset` the one
writer of dataset files.  The reader only turns cells into numbers (text
through :func:`parse_number`, a JSON number through ``float``, an empty cell
or ``null`` absent, a NaN as +inf) and fills the dataset's columns; their
checks name the first failing lab in file order, by the line its row starts
on or by its entry.
:func:`report_chunks` is the one source of a report: it checks its options
when called and returns the report's chunks, which :func:`render_report` joins
and a caller may write as they are made.  Reports carry full-precision values
alongside display-rounded ones, and display rounding is half-up and never
feeds back into any computation.  The JSON report's bytes are those of
``json.dumps(document, sort_keys=True, indent=2)`` of its documented structure:
``json.dumps`` writes the fixed members, and the arrays that grow with N are
spliced in row by row, without building ``document``.  It and the plot data
print each DOE's ``d`` and ``u_d`` from one text, made on first use and kept
with the result (:func:`_doe_text`).  Each output is made in chunks of rows
from column slices of ``_CHUNK_ROWS`` labs, in memory that does not grow
with N.  :func:`_csv_field` quotes every CSV field as ``csv.writer`` does.

The text report prints every DOE row by a ``%``-template per measured pattern,
which rounds the binary value correctly: half-up rounding of its shortest
digits but at a decimal tie.  A tie mask first replaces by its :func:`round_half_up`
a cell that may be a tie (``k = rint(v * 10^(d+1))`` is an odd multiple of 5
and ``k / 10^(d+1) == v``), one with ``|v| * 10^(d+1) >= 2^49`` (ulp(v) is then
not surely below 0.025 * 10^-d) and every cell when ``d > 21`` (inexact 10^(d+1)).
"""

from __future__ import annotations

import csv
import json
import operator
import re
from decimal import ROUND_HALF_UP, Context, Decimal
from dataclasses import asdict
from functools import lru_cache, partial
from itertools import compress
from json.encoder import encode_basestring_ascii
from math import inf
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .linking import LinkingResult
from .model import (ComparisonDataset, KclinkError, LabError, LabResult, _rows,
                    check_labs, validate_dataset)
from .version import __version__

_CSV_COLUMNS = ("label", "x_a", "u_a", "x_b", "u_b", "cov_ab")
# the table rows, DOEs, labs or labels that the writers format at a time
_CHUNK_ROWS = 1024


class ParseError(KclinkError):
    """An input file could not be read as a comparison dataset."""


def parse_number(text: str) -> float | None:
    """Parse a decimal-point or decimal-comma number; empty means absent."""
    cleaned = text.strip().replace("−", "-")
    if not cleaned:
        return None
    if "," in cleaned:
        if "." in cleaned:
            raise ValueError(f"ambiguous number (comma and point): {text!r}")
        cleaned = cleaned.replace(",", ".", 1)
        if "," in cleaned:
            raise ValueError(f"ambiguous number (multiple commas): {text!r}")
    return float(cleaned)


# an absent cell's number: this one NaN object, so that a NaN read from a
# cell, another object, still counts as present
_ABSENT = float("nan")


def _row(label: object, cells: Iterable[object], where: str,
         place: int) -> tuple[object, list[float]]:
    """A row's label and numbers, an error as a :class:`ParseError` at ``where``
    and ``place``: a string label is stripped, a string cell goes through
    :func:`parse_number`, a number through ``float``, and an empty cell or
    ``null`` is absent.  A JSON cell that is not a number (a boolean, an array,
    an object or an integer beyond the float range) fails as :class:`LabResult`
    words it, the label first."""
    try:
        label = _utf8(label).strip() if isinstance(label, str) else label
        cells = [parse_number(cell) if isinstance(cell, str) else cell for cell in cells]
        if all(cell is None or type(cell) in (float, int) for cell in cells):
            try:
                return label, [_ABSENT if cell is None else float(cell) for cell in cells]
            except OverflowError:  # an integer beyond the float range
                pass
        LabResult(label, *cells)  # raises, for the label or a cell that is not a number
    except (ValueError, KclinkError) as exc:
        raise ParseError(f"{where}{place}: {exc}") from None


def _utf8(text: object) -> object:
    """``text`` itself once a string is known to encode as UTF-8; a JSON
    ``\\ud800`` escape decodes to a lone surrogate, which does not."""
    if isinstance(text, str):
        text.encode("utf-8")  # UnicodeEncodeError, a ValueError, if not
    return text


def _is_header(row: list[str], path: Path) -> bool:
    """Whether line 1 is a header: a cell after the first names a column.
    Each cell naming a column must sit in its position; others are ignored."""
    names = [cell.strip().lower() for cell in row]
    if not any(name in _CSV_COLUMNS for name in names[1:]):
        return False
    for position, name in enumerate(names):
        if name in _CSV_COLUMNS and _CSV_COLUMNS.index(name) != position:
            raise ParseError(f"{path}:1: header cell {position + 1} is {name!r}; "
                             f"the columns are {', '.join(_CSV_COLUMNS)}")
    return True


def _csv_rows(path: Path, where: str):
    """The line each data row starts on (a quoted cell may span lines), its
    label and numbers: plain number cells through ``float``, a row with any
    other cell through :func:`_row`."""
    width = len(_CSV_COLUMNS)
    with open(path, encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            start = 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                label = row[0].strip() if row else ""
                if not (label or "".join(row).strip()):  # a blank line
                    continue
                if lineno == 1 and _is_header(row, path):
                    continue
                if len(row) != width:
                    if len(row) > width:
                        raise ParseError(f"{path}:{lineno}: expected at most "
                                         f"{width} columns, got {len(row)}")
                    row += [""] * (width - len(row))
                _, x_a, u_a, x_b, u_b, cov_ab = row
                try:  # unrolled, not a comprehension: this runs for every row of a file
                    numbers = [float(x_a) if x_a else _ABSENT, float(u_a) if u_a else _ABSENT,
                               float(x_b) if x_b else _ABSENT, float(u_b) if u_b else _ABSENT,
                               float(cov_ab) if cov_ab else _ABSENT]
                except ValueError:  # a decimal comma, a typographic minus, ...
                    label, numbers = _row(row[0], row[1:], where, lineno)
                yield lineno, label, numbers
        except csv.Error as exc:  # e.g. a cell beyond the reader's field size limit
            raise ParseError(f"{path}:{start}: {exc}") from None


def _json_rows(path: Path, where: str):
    """Index, label and numbers of each lab entry, through :func:`_row`,
    and the units."""
    text = path.read_text(encoding="utf-8-sig")
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # malformed, an integer beyond int's digit limit, or nested too deep
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    units = None
    if isinstance(data, dict):
        try:
            units = _utf8(data.get("units"))
        except ValueError as exc:
            raise ParseError(f"{path}: units: {exc}") from None
        data = data.get("labs")
    if not isinstance(data, list):
        raise ParseError(
            f"{path}: expected an array of lab objects "
            f'(or {{"units": ..., "labs": [...]}})'
        )

    def rows():
        for index, entry in enumerate(data):
            if not isinstance(entry, dict):
                raise ParseError(f"{path}: lab entry {index} is not an object")
            label, *cells = map(entry.get, _CSV_COLUMNS)
            yield index, *_row(label, cells, where, index)

    return rows(), units


def parse_dataset(path: str | Path) -> ComparisonDataset:
    """Read and validate a comparison dataset from a CSV or JSON file: a
    ``.json`` suffix (any case) means JSON, anything else CSV."""
    dataset, _ = parse_dataset_with_units(path)
    return dataset


def parse_dataset_with_units(path: str | Path) -> tuple[ComparisonDataset, str | None]:
    """Like :func:`parse_dataset`, also returning the unit label carried in
    the file's metadata (JSON wrapper form), or ``None``.  The rows are read
    into columns, then checked together; an error names the first failing
    lab in file order, even when a row after it cannot be read.  A cell read
    as NaN enters the columns as +inf, which :class:`LabResult` words alike."""
    path = Path(path)
    where, units, stop = f"{path}:", None, None  # where + a row's place names it
    places, labels, numbers = [], [], []  # numbers: x_a, u_a, x_b, u_b, cov_ab per row
    try:
        if path.suffix.lower() == ".json":
            where = f"{path}: lab entry "
            rows, units = _json_rows(path, where)
        else:
            rows = _csv_rows(path, where)
        for place, label, row in rows:
            places.append(place)
            labels.append(label)
            numbers += row
    except ParseError as exc:
        stop = exc
    except UnicodeDecodeError as exc:
        stop = ParseError(f"{path}: not UTF-8 text ({exc.reason})")
    if stop is None and units is not None and not isinstance(units, str):
        stop = ParseError(f"{path}: units must be a string")
    block = np.array(numbers, dtype=float).reshape(-1, 5).T
    if np.count_nonzero(block != block) > numbers.count(_ABSENT):  # a cell read NaN
        block = np.array([v if v is _ABSENT or v == v else inf for v in numbers]
                         ).reshape(-1, 5).T
    columns = labels, block[0:4:2], block[1:4:2], block[4]
    try:
        if stop is not None:
            check_labs(*columns)
            raise stop
        return validate_dataset(*columns), units
    except LabError as exc:
        raise ParseError(f"{where}{places[exc.index]}: {exc}") from None


@lru_cache(maxsize=32)
def _rounding(decimals: int) -> tuple[Decimal, Context]:
    # 309 integer digits cover every finite float; the shared context only
    # collects status flags, which nothing reads
    return Decimal(1).scaleb(-decimals), Context(prec=max(decimals, 0) + 309)


def round_half_up(value: float, decimals: int) -> float:
    """Round half away from zero at the given number of decimals."""
    quantum, context = _rounding(decimals)
    return float(Decimal(repr(value)).quantize(quantum, ROUND_HALF_UP, context))


def _fmt(value: float, decimals: int) -> str:
    return f"{round_half_up(value, decimals):.{decimals}f}"


def _ties(cells: np.ndarray, decimals: int) -> np.ndarray:
    """Per cell, whether it needs :func:`round_half_up`: the tie mask above."""
    with np.errstate(all="ignore"):  # NaN (absent) cells: flagged only when d > 21
        scale = np.float64(10.0) ** (decimals + 1)  # exact up to 10^22
        scaled = cells * scale
        k = np.rint(scaled)
        tie = (np.abs(np.fmod(k, 10.0)) == 5.0) & (k / scale == cells)
        return tie | (np.abs(scaled) >= 2.0 ** 49) | (decimals > 21)


def _text_chunks(result: LinkingResult, decimals: int, units: str | None) -> Iterator[str]:
    unit_suffix = f" {units}" if units else ""
    labels = result.dataset.labels
    width = max(len("lab"), max(map(len, labels)))
    col = max(10, decimals + 7)

    lines = [f"distributed linking of two key comparisons (kclink {__version__})"]
    if units:
        lines.append(f"values in {units}")
    lines.append("")
    header = (f"{'lab':<{width}}  "
              f"{'d_A':>{col}} {'u(d_A)':>{col}} {'d_B':>{col}} {'u(d_B)':>{col}}")
    lines.append(header)
    lines.append("-" * len(header))
    yield "\n".join(lines) + "\n"
    # A-only, B-only and linking rows; "%.0s" prints an absent cell's NaN as nothing
    value, absent = f"%{col}.{decimals}f", f"{'-':>{col}}%.0s"
    templates = [f"%-{width}s  {a} {a} {b} {b}\n"
                 for a, b in ((value, absent), (absent, value), (value, value))]
    for block in _blocks(len(labels)):
        d, u_d = result.d[:, block], result.u_d[:, block]
        cells = np.stack([d[0], u_d[0], d[1], u_d[1]], axis=1)
        tie = _ties(cells, decimals)
        cells[tie] = [round_half_up(v, decimals) for v in cells[tie].tolist()]
        patterns = (np.dot([1, 2], result.dataset.measured[:, block]) - 1).tolist()
        yield "".join([templates[pattern] % (label, *row)
                       for label, pattern, row in zip(labels[block], patterns, cells.tolist())])
    lines = ["-" * len(header)]
    kcrv = result.kcrv
    lines.append(
        f"KCRV A: y_A = {_fmt(kcrv.y_hat_a, decimals)}{unit_suffix}, "
        f"u(y_A) = {_fmt(kcrv.u_a, decimals)}{unit_suffix}"
    )
    lines.append(
        f"KCRV B: y_B = {_fmt(kcrv.y_hat_b, decimals)}{unit_suffix}, "
        f"u(y_B) = {_fmt(kcrv.u_b, decimals)}{unit_suffix}"
    )
    lines.append(f"cov(y_A, y_B) = {kcrv.cov_ab:.6g}, r = {_fmt(kcrv.r_tilde, 3)}")
    conf = result.conformity
    ratio = "n/a" if conf.ratio is None else _fmt(conf.ratio, 2)
    verdict = "passed" if conf.passed else "failed"
    lines.append(
        f"conformity: q2/(N-2) = {ratio} ({verdict})   "
        f"[q2 = {conf.q2:.6g}, dof = {conf.dof}]"
    )
    if result.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {warning}" for warning in result.warnings)
    lines.append("")
    yield "\n".join(lines)


_dumps = partial(json.dumps, sort_keys=True, indent=2)  # every JSON file kclink writes
_float = float.__repr__  # json's text for a finite float
_str = encode_basestring_ascii  # json's text for a str (ensure_ascii)


def _blocks(count: int) -> Iterator[slice]:
    """Slices of ``_CHUNK_ROWS`` rows that cover ``count`` rows in order."""
    return (slice(start, start + _CHUNK_ROWS) for start in range(0, count, _CHUNK_ROWS))


def _array(head: str, blocks: Iterable[list[str]], indent: str) -> Iterator[str]:
    """``head``, then a JSON array of the items of ``blocks``, each starting on
    its own line, closing at ``indent``: one chunk per block."""
    opening = head + "["
    for items in blocks:
        if items:
            yield opening + ",".join(items)
            opening = ","
    yield f"\n{indent}]" if opening == "," else opening + "]"


def _strings(head: str, values: Sequence[str], indent: str) -> Iterator[str]:
    """``head``, then a JSON array of strings, closing at ``indent``."""
    return _array(head, ([f"\n{indent}  {_str(value)}" for value in values[block]]
                         for block in _blocks(len(values))), indent)


def _doe_text(result: LinkingResult) -> tuple[list[str], list[str]]:
    """The text of each DOE's ``d`` and ``u_d``, in :meth:`LinkingResult.doe_rows`
    order: made on first use and kept with the result, for both outputs."""
    text = vars(result).get("_doe_text")
    if text is None:
        measured = result.dataset.measured
        text = vars(result)["_doe_text"] = (list(map(_float, result.d[measured].tolist())),
                                            list(map(_float, result.u_d[measured].tolist())))
    return text


def _doe_blocks(result: LinkingResult) -> Iterator[tuple[str, Iterator[tuple]]]:
    """Per standard and block of labs, the standard and, in :meth:`LinkingResult.doe_rows`
    order, each DOE's label, ``d`` and ``u_d`` text and ``u_d``.  Read each block's
    rows before the next: zip stops at the labels, before it draws a text."""
    labels, measured = result.dataset.labels, result.dataset.measured
    d_text, u_text = map(iter, _doe_text(result))
    for row, standard in enumerate("AB"):
        for block in _blocks(len(labels)):
            mask = measured[row, block]
            yield standard, zip(compress(labels[block], mask.tolist()), d_text, u_text,
                                result.u_d[row, block][mask].tolist())


def _json_chunks(result: LinkingResult, decimals: int, units: str | None) -> Iterator[str]:
    # json.dumps writes the members before "doe" and after "input", whose
    # arrays grow with N and go row by row; a dataset always has labs and DOEs.
    # Rows inline NaN as "null": a call per field costs about a float's text.
    kcrv, conf, dataset = result.kcrv, result.conformity, result.dataset
    estimate = {"cov_ab": kcrv.cov_ab, "r_tilde": kcrv.r_tilde, "u_a": kcrv.u_a,
                "u_b": kcrv.u_b, "y_a": kcrv.y_hat_a, "y_b": kcrv.y_hat_b}
    display = {"decimals": decimals,
               "kcrv": {key: round_half_up(estimate[key], decimals)
                        for key in ("u_a", "u_b", "y_a", "y_b")},
               "ratio": None if conf.ratio is None else round_half_up(conf.ratio, 2)}
    head = _dumps({"aux": asdict(result.aux), "conformity": asdict(conf), "display": display})
    tail = _dumps({"kcrv": estimate, "tool": {"name": "kclink", "version": __version__},
                   "units": units, "warnings": result.warnings})
    yield from _array(head[:-len("\n}")] + ',\n  "doe": ', (
        [f'\n    {{\n      "d": {d},\n      "label": {_str(label)},\n'
         f'      "standard": "{standard}",\n      "u_d": {u_d}\n    }}'
         for label, d, u_d, _ in rows]
        for standard, rows in _doe_blocks(result)), "  ")
    yield from _strings(',\n  "input": {\n    "groups": {\n      "linking": ', dataset.linking,
                        "      ")
    yield from _strings(',\n      "only_a": ', dataset.only_a, "      ")
    yield from _strings(',\n      "only_b": ', dataset.only_b, "      ")
    yield from _array('\n    },\n    "labs": ', (
        [f'\n      {{\n        "cov_ab": {"null" if c != c else _float(c)},\n'
         f'        "label": {_str(label)},\n'
         f'        "u_a": {"null" if u_a != u_a else _float(u_a)},\n'
         f'        "u_b": {"null" if u_b != u_b else _float(u_b)},\n'
         f'        "x_a": {"null" if x_a != x_a else _float(x_a)},\n'
         f'        "x_b": {"null" if x_b != x_b else _float(x_b)}\n      }}'
         for label, x_a, u_a, x_b, u_b, c in _rows(dataset.labels[block], dataset.x[:, block],
                                                   dataset.u[:, block], dataset.cov_ab[block])]
        for block in _blocks(len(dataset.labels))), "    ")
    yield "\n  }," + tail[len("{"):]


def report_chunks(result: LinkingResult, format: Literal["text", "json"] = "text", *,
                  decimals: int = 3, units: str | None = None) -> Iterator[str]:
    """The report that :func:`render_report` returns, a chunk per block of
    ``_CHUNK_ROWS`` labs; the options are checked here, before the first chunk.
    ``decimals`` runs from 0 to 1074, a double's last fractional digit."""
    if format not in ("text", "json"):
        raise KclinkError(f"unknown report format: {format!r}")
    try:  # any integer, NumPy's too, but not a bool
        places = -1 if isinstance(decimals, bool) else operator.index(decimals)
    except TypeError:
        places = -1
    if places < 0:
        raise KclinkError(f"decimals must be a non-negative integer, got {decimals!r}")
    if places > 1074:  # more could only print zeros
        raise KclinkError(f"decimals must be at most 1074, got {decimals!r}")
    return (_text_chunks if format == "text" else _json_chunks)(result, places, units)


def render_report(
    result: LinkingResult,
    format: Literal["text", "json"] = "text",
    *,
    decimals: int = 3,
    units: str | None = None,
) -> str:
    """Render a linking result as a text table or as a JSON document.

    Only the requested format is built.  The JSON document carries
    full-precision values and a ``display`` block rounded to ``decimals``;
    it is deterministic: identical results give identical bytes.
    """
    return "".join(report_chunks(result, format, decimals=decimals, units=units))


def write_dataset(dataset: ComparisonDataset, path: str | Path) -> Path:
    """Write ``{"labs": [...]}`` JSON when the suffix is ``.json``, otherwise
    CSV with a header row and ``repr`` numbers.

    :func:`parse_dataset` reads either back to the same labs, as long as no
    label has surrounding whitespace (labels are stripped on reading).
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if path.suffix.lower() == ".json":
            records = [dict(zip(_CSV_COLUMNS, [label, *[None if v != v else v for v in numbers]]))
                       for label, *numbers in dataset.rows()]
            handle.write(_dumps({"labs": records}) + "\n")
        else:
            handle.write(",".join(_CSV_COLUMNS) + "\r\n")
            handle.writelines(_csv_field(label) + "".join(["," if v != v else f",{v!r}"
                                                           for v in numbers]) + "\r\n"
                              for label, *numbers in dataset.rows())
    return path


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it by default (QUOTE_MINIMAL)."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def emit_plot_data(result: LinkingResult, path: str | Path) -> Path:
    """Write the DOE chart data as CSV: label, standard, d, u_d and the
    expanded (k = 2) uncertainty, one row per degree of equivalence."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("label,standard,d,u_d,U_d_k2\r\n")
        for standard, rows in _doe_blocks(result):
            handle.write("".join([
                f"{_csv_field(label)},{standard},{d},{u_d},{_float(2.0 * u)}\r\n"
                for label, d, u_d, u in rows]))
    return path
