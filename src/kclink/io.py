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
writer of dataset files.  A plain CSV file is read ``_PLAIN_CHARS`` characters
at a time: one scan of the UTF-8 bytes of a chunk's complete lines finds their
commas and line ends, which give each line's layout, each field's width and the
absent (empty) cells, and the non-empty cells are read to ``float``'s bits by
:func:`_floats` (one ``orjson.loads`` a chunk, or ``float`` a cell) into a
float64 block (a NaN as +inf), whose column checks name the first failing lab
by its line.  Plain means no ``"``, data lines of exactly 5 commas, no field
longer than ``csv.field_size_limit()`` in UTF-8 bytes (which bound its
characters), no empty label, cells that ``float`` reads and UTF-8 bytes;
universal newlines end a line where ``csv`` ends one, and NUL is text.  On any
doubt the ``csv`` row loop, where NUL is text too, reads the whole file (again,
if its first ``"`` comes late; a file that is not a regular one, such as a
pipe, is read once into memory).  The row loop and the JSON reader check each
row as one :class:`LabResult` as they read it: the first row in file order that
fails, named by the line it starts on or by its entry, is the error.
:func:`report_chunks` is the one source of a report: it checks its options
when called and returns the report's chunks, which :func:`render_report` joins
and a caller may write as they are made.  Reports carry full-precision values
alongside display-rounded ones, and display rounding is half-up and never
feeds back into any computation.  The JSON report's bytes are those of
``json.dumps(document, sort_keys=True, indent=2)`` of its documented structure:
``json.dumps`` writes the fixed members, and the arrays that grow with N are
spliced in row by row, without building ``document``; a JSON dataset file is
``json.dumps({"labs": [...]}, sort_keys=True, indent=2)`` and a newline, its
records written as the report's ``input.labs``.  Each output, a dataset file
too, is made from column slices of ``_CHUNK_ROWS`` labs, in memory that does
not grow with N.  Each float is ``repr``'s text (NaN ``null`` or an empty CSV
cell) by :func:`_texts`: one ``orjson.dumps`` per block column, and ``repr`` for
the few values orjson writes in another form.  :func:`_doe_slices` makes a
block's ``d`` and ``u_d`` text, kept with nothing; :func:`_plot_rows` writes a
block's plot rows and passes it on, so one walk feeds both DOE writers.  A
block's labels are JSON-escaped by one ``map``, and searched once for a
character that :func:`_csv_field` quotes as ``csv.writer`` does.

The text report formats a block of DOE rows by one ``%``: its format string
joins a ``%``-template per row's measured pattern, in which an absent cell is
``-`` text, and the rows' labels and printed cells are its arguments.  A
template rounds the binary value correctly: half-up rounding of its shortest
digits but at a decimal tie.  A tie mask over the printed cells first replaces
by its :func:`round_half_up` a cell that may be a tie
(``k = rint(v * 10^(d+1))`` is an odd multiple of 5 and
``k / 10^(d+1) == v``), one with ``|v| * 10^(d+1) >= 2^49`` (ulp(v) is then
not surely below 0.025 * 10^-d) and every cell when ``d > 21`` (inexact 10^(d+1)).
"""

from __future__ import annotations

import csv
import json
import operator
import re
from collections import deque
from decimal import ROUND_HALF_UP, Context, Decimal
from dataclasses import asdict
from functools import partial
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii
from io import BytesIO, TextIOWrapper
from math import inf, nan
from pathlib import Path
from typing import Iterable, Iterator, Literal, Sequence, TextIO

import numpy as np

from .linking import LinkingResult
from .model import ComparisonDataset, KclinkError, LabError, LabResult, validate_dataset
from .version import __version__

_CSV_COLUMNS = ("label", "x_a", "u_a", "x_b", "u_b", "cov_ab")
# the table rows, DOEs, labs or labels that the writers format at a time
_CHUNK_ROWS = 1024
_PLAIN_CHARS = 1 << 16  # the characters of a plain CSV file read at a time


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


def _row(label: object, cells: Iterable[object], where: str,
         place: int) -> tuple[str, list[float]]:
    """A row's label and numbers (NaN where absent) as one :class:`LabResult`
    checks them, its error a :class:`ParseError` at ``where`` and ``place``: a
    string label is stripped, a string cell read by :func:`parse_number`, and
    an empty cell or ``null`` is absent."""
    try:
        lab = LabResult(_utf8(label).strip() if isinstance(label, str) else label,
                        *[parse_number(cell) if isinstance(cell, str) else cell
                          for cell in cells])
    except (ValueError, KclinkError) as exc:
        raise ParseError(f"{where}{place}: {exc}") from None
    return lab.label, [nan if v is None else v
                       for v in (lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab)]


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


def _text(path: Path, data: bytes | None, newline: str | None = None) -> TextIO:
    """The text of the file at ``path``, after a byte-order mark, or of
    ``data``, the bytes already read from a file that is not a regular one."""
    if data is None:
        return open(path, encoding="utf-8-sig", newline=newline)
    return TextIOWrapper(BytesIO(data), encoding="utf-8-sig", newline=newline)


def _plain_csv(path: Path, data: bytes | None = None) -> tuple[range, list, np.ndarray] | None:
    """The places, labels and (N, 5) numbers of a CSV file read a chunk of
    ``_PLAIN_CHARS`` characters at a time, or None on any doubt (see the
    module docstring), for :func:`_csv_rows` to read the whole file."""
    first, labels, blocks, rest, chunk = None, [], [np.empty((0, 5))], "", None
    limit = csv.field_size_limit()
    try:
        with _text(path, data) as handle:  # universal newlines
            while chunk != "":
                chunk = handle.read(_PLAIN_CHARS)
                rest += chunk if chunk or not rest else "\n"  # the last line ends too
                cut = rest.rfind("\n") + 1
                text, rest = rest[:cut], rest[cut:]  # complete lines, a partial one
                # a longer partial line has a field beyond the limit or not 5 commas
                if '"' in chunk or len(rest) > 6 * (limit + 1):
                    return None
                if not text:
                    continue
                # one scan of the lines' bytes for their stops, the commas and line
                # ends: a field's bytes bound its characters, and 0 bytes is absent
                raw = np.frombuffer(text.encode("utf-8"), np.uint8)
                stops = np.flatnonzero((raw == 44) | (raw == 10))
                ends, widths = raw[stops] == 10, np.diff(stops, prepend=-1) - 1
                cells = text.replace("\n", ",").split(",")
                if widths.max() > limit:
                    return None
                skip = 0
                if first is None:  # line 1: its fields up to its line end
                    skip = int(ends.argmax()) + 1
                    first = int(_is_header(cells[:skip], path))
                    skip *= first
                ends, widths, cells = ends[skip:], widths[skip:], cells[skip:-1]
                names = list(map(str.strip, cells[::6]))
                # 5 commas a line: one stop in 6 ends a line, and it is every 6th
                if (not all(names) or np.count_nonzero(ends) * 6 != len(ends)
                        or not ends[5::6].all()):
                    return None
                del cells[::6]
                widths = widths.reshape(-1, 6)[:, 1:]
                present = widths > 0
                values = _floats(cells, widths)
                values[values != values] = inf  # a cell read NaN
                blocks.append(np.full(present.shape, nan))
                blocks[-1][present] = values
                labels += names
    except ValueError:  # UnicodeDecodeError too
        return None
    start = (first or 0) + 1
    return range(start, start + len(labels)), labels, np.concatenate(blocks)


def _floats(cells: list[str], widths: np.ndarray) -> np.ndarray:
    """``float`` of each non-empty cell (of UTF-8 ``widths``), bit for bit: one
    ``orjson.loads`` when each has one decimal point, so that each item read is a JSON
    float, and at most 768 bytes (orjson reads 768 digits and rounds a halfway tail
    up); else one ``float`` per cell, whose ValueError is the caller's."""
    import orjson  # loaded by the first plain CSV chunk, not by every command
    count = np.count_nonzero(widths)
    text = ",".join(filter(None, cells))
    if text.count(".") == count and widths.max(initial=0) <= 768:
        try:
            return np.fromiter(orjson.loads(f"[{text}]"), float, count)
        except ValueError:  # not JSON (+1.5, 01.5, 1.0e400), or an item is a list ([1.5])
            pass
    return np.fromiter(map(float, filter(None, cells)), float, count)


def _csv_rows(path: Path, data: bytes | None, where: str) -> tuple[list, list, np.ndarray]:
    """The line each data row starts on (a quoted cell may span lines), its
    label and its numbers, each row checked by :func:`_row` as it is read."""
    width = len(_CSV_COLUMNS)
    places, labels, numbers = [], [], []
    with _text(path, data, newline="") as handle:
        reader = csv.reader(handle)
        try:
            start = 1
            for row in reader:
                lineno, start = start, reader.line_num + 1
                if not "".join(row).strip():  # a blank line
                    continue
                if lineno == 1 and _is_header(row, path):
                    continue
                if len(row) > width:
                    raise ParseError(f"{path}:{lineno}: expected at most "
                                     f"{width} columns, got {len(row)}")
                label, cells = _row(row[0], row[1:] + [""] * (width - len(row)), where, lineno)
                places.append(lineno)
                labels.append(label)
                numbers += cells
        except csv.Error as exc:  # e.g. a cell beyond the reader's field size limit
            raise ParseError(f"{path}:{start}: {exc}") from None
    return places, labels, np.array(numbers).reshape(-1, 5)


def _json_rows(path: Path, where: str) -> tuple[range, list, np.ndarray, str | None]:
    """The index, label and numbers of each lab entry, each checked by
    :func:`_row` as it is read, and the units."""
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
    labels, numbers = [], []
    for index, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: lab entry {index} is not an object")
        label, cells = _row(entry.get("label"), map(entry.get, _CSV_COLUMNS[1:]), where, index)
        labels.append(label)
        numbers += cells
    if units is not None and not isinstance(units, str):  # after the labs: they fail first
        raise ParseError(f"{path}: units must be a string")
    return range(len(labels)), labels, np.array(numbers).reshape(-1, 5), units


def parse_dataset(path: str | Path) -> ComparisonDataset:
    """Read and validate a comparison dataset from a CSV or JSON file: a
    ``.json`` suffix (any case) means JSON, anything else CSV."""
    dataset, _ = parse_dataset_with_units(path)
    return dataset


def parse_dataset_with_units(path: str | Path) -> tuple[ComparisonDataset, str | None]:
    """Like :func:`parse_dataset`, also returning the unit label carried in
    the file's metadata (JSON wrapper form), or ``None``.  An error names the
    first failing row in file order (see the module docstring); a file that is
    not a regular one, such as a pipe, is read once."""
    path = Path(path)
    where, units = f"{path}:", None  # where + a row's place names it
    try:
        if path.suffix.lower() == ".json":
            where = f"{path}: lab entry "
            places, labels, block, units = _json_rows(path, where)
        else:
            data = None if path.is_file() else path.read_bytes()
            places, labels, block = _plain_csv(path, data) or _csv_rows(path, data, where)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    block = block.T
    try:
        return validate_dataset(labels, block[0:4:2], block[1:4:2], block[4]), units
    except LabError as exc:
        raise ParseError(f"{where}{places[exc.index]}: {exc}") from None


def round_half_up(value: float, decimals: int) -> float:
    """Round half away from zero at the given number of decimals."""
    # 309 integer digits cover every finite float; the context only collects
    # status flags, which nothing reads
    return float(Decimal(repr(value)).quantize(Decimal(1).scaleb(-decimals), ROUND_HALF_UP,
                                               Context(prec=max(decimals, 0) + 309)))


def _fmt(value: float, decimals: int) -> str:
    return f"{round_half_up(value, decimals):.{decimals}f}"


def _ties(cells: np.ndarray, decimals: int) -> np.ndarray:
    """Per cell, whether it needs :func:`round_half_up`: the tie mask above."""
    with np.errstate(all="ignore"):  # a huge cell's scaled value may overflow to inf
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
    # A-only, B-only and linking rows; an absent cell is "-" text, not an argument
    value, absent = f"%{col}.{decimals}f", f"{'-':>{col}}"
    templates = [f"%-{width}s  {a} {a} {b} {b}\n"
                 for a, b in ((value, absent), (absent, value), (value, value))]
    for block in _blocks(len(labels)):
        measured = result.dataset.measured[:, block]
        d, u_d = result.d[:, block], result.u_d[:, block]
        shown = measured[[0, 0, 1, 1]].T  # each row's printed cells
        cells = np.stack([d[0], u_d[0], d[1], u_d[1]], axis=1)[shown]
        tie = _ties(cells, decimals)
        cells[tie] = [round_half_up(v, decimals) for v in cells[tie].tolist()]
        args = np.empty((len(shown), 5), object)  # each row's label and printed cells
        args[:, 0], args[:, 1:][shown] = labels[block], cells
        patterns = (np.dot([1, 2], measured) - 1).tolist()
        # one % per block: the labels are its arguments, never part of its format
        yield "".join(map(templates.__getitem__, patterns)) % tuple(
            args[np.insert(shown, 0, True, axis=1)].tolist())
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
    if result.dataset.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {warning}" for warning in result.dataset.warnings)
    lines.append("")
    yield "\n".join(lines)


_dumps = partial(json.dumps, sort_keys=True, indent=2)  # every JSON file kclink writes
_str = encode_basestring_ascii  # json's text for a str (ensure_ascii)


def _texts(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each float64 of ``values``, ``"null"`` for NaN: orjson's text,
    which has ``repr``'s form for 1e-4 <= |v| < 1e16 and +-0, and ``repr``'s for the rest."""
    import orjson  # loaded by the first float text, not by every command
    array = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    texts = array[1:-1].decode().split(",") if values.size else []
    size = np.abs(values)
    for index in np.flatnonzero((size < 1e-4) & (size > 0.0) | (size >= 1e16)).tolist():
        texts[index] = float.__repr__(float(values[index]))
    return texts


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


def _doe_slices(result: LinkingResult) -> Iterator[tuple[str, list, list, list, np.ndarray]]:
    """Per standard and block of labs, in :attr:`LinkingResult.does` order: the
    standard, the labels of the block's labs that measured it, the text of their
    ``d`` and ``u_d``, and their ``u_d``."""
    labels, measured = result.dataset.labels, result.dataset.measured
    for row, standard in enumerate("AB"):
        for block in _blocks(len(labels)):
            mask = measured[row, block]
            u_d = result.u_d[row, block][mask]
            yield (standard, list(compress(labels[block], mask.tolist())),
                   _texts(result.d[row, block][mask]), _texts(u_d), u_d)


def _plot_rows(handle: TextIO, does: Iterable[tuple]) -> Iterator[tuple]:
    """Write the plot data's header to ``handle``, then each block of ``does``
    (from :func:`_doe_slices`): its rows, before the block is passed on."""
    handle.write("label,standard,d,u_d,U_d_k2\r\n")
    for block in does:
        standard, labels, d_text, u_text, u_d = block
        if labels:  # a row is its fields joined by commas, as csv.writer joins them
            rows = zip(_csv_labels(labels), repeat(standard), d_text, u_text, _texts(2.0 * u_d))
            handle.write("\r\n".join(map(",".join, rows)) + "\r\n")
        yield block


def _json_chunks(result: LinkingResult, decimals: int, units: str | None,
                 does: Iterable[tuple]) -> Iterator[str]:
    # json.dumps writes the members before "doe" and after "input", whose arrays grow
    # with N and go row by row, a block of DOEs at a time; a dataset has labs and DOEs.
    kcrv, conf, dataset = result.kcrv, result.conformity, result.dataset
    estimate = {"cov_ab": kcrv.cov_ab, "r_tilde": kcrv.r_tilde, "u_a": kcrv.u_a,
                "u_b": kcrv.u_b, "y_a": kcrv.y_hat_a, "y_b": kcrv.y_hat_b}
    display = {"decimals": decimals,
               "kcrv": {key: round_half_up(estimate[key], decimals)
                        for key in ("u_a", "u_b", "y_a", "y_b")},
               "ratio": None if conf.ratio is None else round_half_up(conf.ratio, 2)}
    head = _dumps({"aux": asdict(result.aux), "conformity": asdict(conf), "display": display})
    tail = _dumps({"kcrv": estimate, "tool": {"name": "kclink", "version": __version__},
                   "units": units, "warnings": dataset.warnings})
    yield from _array(head[:-len("\n}")] + ',\n  "doe": ', (
        [f'\n    {{\n      "d": {d},\n      "label": {label},\n'
         f'      "standard": "{standard}",\n      "u_d": {u_d}\n    }}'
         for label, d, u_d in zip(map(_str, labels), d_text, u_text)]
        for standard, labels, d_text, u_text, _ in does), "  ")
    yield from _strings(',\n  "input": {\n    "groups": {\n      "linking": ', dataset.linking,
                        "      ")
    yield from _strings(',\n      "only_a": ', dataset.only_a, "      ")
    yield from _strings(',\n      "only_b": ', dataset.only_b, "      ")
    yield from _array('\n    },\n    "labs": ', _lab_records(dataset), "    ")
    yield "\n  }," + tail[len("{"):]


def _lab_rows(labels: Iterable[str], dataset: ComparisonDataset, block: slice) -> Iterator:
    """``(label, x_a, u_a, x_b, u_b, cov_ab)`` text per lab of ``block``, its
    label from ``labels``, its numbers by :func:`_texts`."""
    (x_a, x_b), (u_a, u_b) = dataset.x[:, block], dataset.u[:, block]
    return zip(labels, *map(_texts, (x_a, u_a, x_b, u_b, dataset.cov_ab[block])))


def _lab_records(dataset: ComparisonDataset) -> Iterator[list[str]]:
    """Per block of labs, each lab's record in the JSON report's ``input.labs``,
    after its newline and indent."""
    for block in _blocks(len(dataset.labels)):
        yield [f'\n      {{\n        "cov_ab": {c},\n        "label": {label},\n'
               f'        "u_a": {u_a},\n        "u_b": {u_b},\n'
               f'        "x_a": {x_a},\n        "x_b": {x_b}\n      }}'
               for label, x_a, u_a, x_b, u_b, c in _lab_rows(
                   map(_str, dataset.labels[block]), dataset, block)]


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
    return (_text_chunks(result, places, units) if format == "text"
            else _json_chunks(result, places, units, _doe_slices(result)))


def render_report(result: LinkingResult, format: Literal["text", "json"] = "text", *,
                  decimals: int = 3, units: str | None = None) -> str:
    """Render a linking result as a text table or as a JSON document; only the
    requested format is built.  The JSON document carries full-precision values
    and a ``display`` block rounded to ``decimals``; it is deterministic:
    identical results give identical bytes."""
    return "".join(report_chunks(result, format, decimals=decimals, units=units))


def write_dataset(dataset: ComparisonDataset, path: str | Path) -> Path:
    """Write ``{"labs": [...]}`` JSON when the suffix is ``.json``, otherwise
    CSV with a header row and ``repr`` numbers.  :func:`parse_dataset` reads
    either back to the same labs, as long as no label has surrounding
    whitespace (labels are stripped on reading)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if path.suffix.lower() == ".json":  # json.dumps(..., indent=2) + "\n", row by row:
            # the report's records one level out (labels are escaped: a "\n" starts a line)
            handle.writelines(chunk.replace("\n  ", "\n") for chunk in
                              _array('{\n    "labs": ', _lab_records(dataset), "    "))
            handle.write("\n}\n")
        else:
            handle.write(",".join(_CSV_COLUMNS) + "\r\n")
            for block in _blocks(len(dataset.labels)):  # an absent cell is empty, not null
                rows = _lab_rows(_csv_labels(dataset.labels[block]), dataset, block)
                handle.write("".join([label + ",".join(("", *cells)).replace("null", "")
                                      + "\r\n" for label, *cells in rows]))
    return path


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it by default (QUOTE_MINIMAL)."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _csv_labels(labels: Sequence[str]) -> Iterable[str]:
    """A block's labels as :func:`_csv_field` writes them, after one search of
    the whole block: only a block with a label to quote calls it per label."""
    return map(_csv_field, labels) if _NEEDS_QUOTES("".join(labels)) else labels


def emit_plot_data(result: LinkingResult, path: str | Path) -> Path:
    """Write the DOE chart data as CSV: label, standard, d, u_d and the
    expanded (k = 2) uncertainty, one row per degree of equivalence."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        deque(_plot_rows(handle, _doe_slices(result)), maxlen=0)
    return path
