"""Dataset files in; reports, plot data and dataset files out.

Input files are CSV (columns ``label, x_a, u_a, x_b, u_b, cov_ab``, empty
cells meaning "absent", after an optional header row) or JSON (an array of
objects with the same field names, optionally wrapped as ``{"units": ...,
"labs": [...]}``).  The suffix picks the format, for reading and writing
alike: ``.json`` in any case means JSON, anything else CSV.  Numbers
are accepted with either a decimal point or a decimal comma and with
either ASCII or typographic minus signs; output always uses points.

:func:`parse_dataset` is the one reader and :func:`write_dataset` the one
writer of dataset files.  :func:`render_report` builds only the requested
report format; reports carry full-precision values alongside
display-rounded ones, and display rounding is half-up and never feeds back
into any computation.  The JSON report's bytes are those of
``json.dumps(document, sort_keys=True, indent=2)`` of its documented
structure, written row by row without building ``document``.
"""

from __future__ import annotations

import csv
import json
import re
from decimal import ROUND_HALF_UP, Context, Decimal
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Literal

from .linking import LinkingResult
from .model import ComparisonDataset, KclinkError, LabResult, validate_dataset
from .version import __version__

_CSV_COLUMNS = ("label", "x_a", "u_a", "x_b", "u_b", "cov_ab")
# a lab's fields in the order of _CSV_COLUMNS
_lab_fields = attrgetter("label", "value_a", "u_a", "value_b", "u_b", "cov_ab")


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


def _lab(label: object, cells: Iterable[object]) -> LabResult:
    """Build a lab from its label and raw number cells: a string label is
    stripped, string cells go through :func:`parse_number`, and anything
    else reaches :class:`LabResult` as is."""
    return LabResult(
        label.strip() if isinstance(label, str) else label,
        *[parse_number(raw) if isinstance(raw, str) else raw for raw in cells],
    )


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


def _parse_csv(path: Path) -> tuple[list[LabResult], None]:
    labs: list[LabResult] = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            for lineno, row in enumerate(reader, start=1):
                if not "".join(row).strip() or lineno == 1 and _is_header(row, path):
                    continue
                if len(row) > len(_CSV_COLUMNS):
                    raise ParseError(
                        f"{path}:{lineno}: expected at most {len(_CSV_COLUMNS)} "
                        f"columns, got {len(row)}"
                    )
                try:
                    labs.append(_lab(row[0], row[1:]))
                except (ValueError, KclinkError) as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
        except csv.Error as exc:  # e.g. a cell beyond the reader's field size limit
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return labs, None


def _parse_json(path: Path) -> tuple[list[LabResult], str | None]:
    text = path.read_text(encoding="utf-8")
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
    labs: list[LabResult] = []
    for index, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ParseError(f"{path}: lab entry {index} is not an object")
        try:
            label = _utf8(entry.get("label"))
            labs.append(_lab(label, map(entry.get, _CSV_COLUMNS[1:])))
        except (ValueError, KclinkError) as exc:
            raise ParseError(f"{path}: lab entry {index}: {exc}") from None
    return labs, units


def parse_dataset(path: str | Path) -> ComparisonDataset:
    """Read and validate a comparison dataset from a CSV or JSON file: a
    ``.json`` suffix (any case) means JSON, anything else CSV."""
    dataset, _ = parse_dataset_with_units(path)
    return dataset


def parse_dataset_with_units(path: str | Path) -> tuple[ComparisonDataset, str | None]:
    """Like :func:`parse_dataset`, also returning the unit label carried in
    the file's metadata (JSON wrapper form), or ``None``."""
    path = Path(path)
    reader = _parse_json if path.suffix.lower() == ".json" else _parse_csv
    try:
        labs, units = reader(path)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if units is not None and not isinstance(units, str):
        raise ParseError(f"{path}: units must be a string")
    return validate_dataset(labs), units


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
    # NaN marks a value the lab did not measure
    return "-" if value != value else f"{round_half_up(value, decimals):.{decimals}f}"


def _render_text(result: LinkingResult, decimals: int, units: str | None) -> str:
    unit_suffix = f" {units}" if units else ""
    labels = [lab.label for lab in result.dataset.labs]
    width = max(len("lab"), max(map(len, labels)))
    col = max(10, decimals + 7)

    lines = [f"distributed linking of two key comparisons (kclink {__version__})"]
    if units:
        lines.append(f"values in {units}")
    lines.append("")
    header = (
        f"{'lab':<{width}}  "
        f"{'d_A':>{col}} {'u(d_A)':>{col}} {'d_B':>{col}} {'u(d_B)':>{col}}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    (d_a, d_b), (u_d_a, u_d_b) = result.d.tolist(), result.u_d.tolist()
    for label, *row in zip(labels, d_a, u_d_a, d_b, u_d_b):
        lines.append(
            f"{label:<{width}}  "
            + " ".join([f"{_fmt(value, decimals):>{col}}" for value in row])
        )
    lines.append("-" * len(header))
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
    return "\n".join(lines)


_float = float.__repr__  # json's text for a finite float
_str = encode_basestring_ascii  # json's text for a str (ensure_ascii)


def _strings(values: Iterable[str], indent: str) -> str:
    """A JSON array of strings, closing at ``indent``."""
    items = ",".join([f"\n{indent}  {_str(value)}" for value in values])
    return f"[{items}\n{indent}]" if items else "[]"


def _render_json(result: LinkingResult, decimals: int, units: str | None) -> str:
    # the fixed shape in sorted key order; a dataset always has labs and DOEs.
    # Rows inline None as "null": a call per field costs about a float's text.
    aux, kcrv, conf = result.aux, result.kcrv, result.conformity
    labs = [
        f'\n      {{\n        "cov_ab": {"null" if c is None else _float(c)},\n'
        f'        "label": {_str(label)},\n'
        f'        "u_a": {"null" if u_a is None else _float(u_a)},\n'
        f'        "u_b": {"null" if u_b is None else _float(u_b)},\n'
        f'        "x_a": {"null" if x_a is None else _float(x_a)},\n'
        f'        "x_b": {"null" if x_b is None else _float(x_b)}\n      }}'
        for label, x_a, u_a, x_b, u_b, c in map(_lab_fields, result.dataset.labs)
    ]
    does = [
        f'\n    {{\n      "d": {_float(d)},\n'
        f'      "label": {_str(label)},\n'
        f'      "standard": "{standard}",\n'
        f'      "u_d": {_float(u_d)}\n    }}'
        for label, standard, d, u_d in result.doe_rows()
    ]
    ratio, shown = ("null", "null") if conf.ratio is None else (
        _float(conf.ratio), _float(round_half_up(conf.ratio, 2)))
    return (
        f'{{\n  "aux": {{\n    "a": {_float(aux.a)},\n    "b": {_float(aux.b)},\n'
        f'    "c": {_float(aux.c)},\n    "s1": {_float(aux.s1)},\n'
        f'    "s2": {_float(aux.s2)}\n  }},\n'
        f'  "conformity": {{\n    "dof": {int.__repr__(conf.dof)},\n'
        f'    "passed": {"true" if conf.passed else "false"},\n'
        f'    "q2": {_float(conf.q2)},\n    "ratio": {ratio}\n  }},\n'
        f'  "display": {{\n    "decimals": {int.__repr__(decimals)},\n    "kcrv": {{\n'
        f'      "u_a": {_float(round_half_up(kcrv.u_a, decimals))},\n'
        f'      "u_b": {_float(round_half_up(kcrv.u_b, decimals))},\n'
        f'      "y_a": {_float(round_half_up(kcrv.y_hat_a, decimals))},\n'
        f'      "y_b": {_float(round_half_up(kcrv.y_hat_b, decimals))}\n    }},\n'
        f'    "ratio": {shown}\n  }},\n'
        f'  "doe": [{",".join(does)}\n  ],\n'
        f'  "input": {{\n    "groups": {{\n'
        f'      "linking": {_strings(result.dataset.linking, "      ")},\n'
        f'      "only_a": {_strings(result.dataset.only_a, "      ")},\n'
        f'      "only_b": {_strings(result.dataset.only_b, "      ")}\n    }},\n'
        f'    "labs": [{",".join(labs)}\n    ]\n  }},\n'
        f'  "kcrv": {{\n    "cov_ab": {_float(kcrv.cov_ab)},\n'
        f'    "r_tilde": {_float(kcrv.r_tilde)},\n    "u_a": {_float(kcrv.u_a)},\n'
        f'    "u_b": {_float(kcrv.u_b)},\n    "y_a": {_float(kcrv.y_hat_a)},\n'
        f'    "y_b": {_float(kcrv.y_hat_b)}\n  }},\n'
        f'  "tool": {{\n    "name": "kclink",\n'
        f'    "version": {_str(__version__)}\n  }},\n'
        f'  "units": {"null" if units is None else _str(units)},\n'
        f'  "warnings": {_strings(result.warnings, "  ")}\n}}'
    )


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
    if format not in ("text", "json"):
        raise KclinkError(f"unknown report format: {format!r}")
    if decimals < 0:
        raise KclinkError(f"decimals must be non-negative, got {decimals}")
    if format == "text":
        return _render_text(result, decimals, units)
    return _render_json(result, decimals, units)


def write_dataset(dataset: ComparisonDataset, path: str | Path) -> Path:
    """Write ``{"labs": [...]}`` JSON when the suffix is ``.json``, otherwise
    CSV with a header row and ``repr`` numbers.

    :func:`parse_dataset` reads either back to the same labs, as long as no
    label has surrounding whitespace (labels are stripped on reading).
    """
    path = Path(path)
    rows = list(map(_lab_fields, dataset.labs))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if path.suffix.lower() == ".json":
            records = [dict(zip(_CSV_COLUMNS, row)) for row in rows]
            handle.write(json.dumps({"labs": records}, indent=2, sort_keys=True) + "\n")
        else:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            writer.writerows(
                [label, *("" if v is None else repr(v) for v in numbers)]
                for label, *numbers in rows
            )
    return path


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it by default (QUOTE_MINIMAL)."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def emit_plot_data(result: LinkingResult, path: str | Path) -> Path:
    """Write the DOE chart data as CSV: label, standard, d, u_d and the
    expanded (k = 2) uncertainty, one row per degree of equivalence."""
    rows = [
        f"{_csv_field(label)},{standard},{_float(d)},"
        f"{_float(u_d)},{_float(2.0 * u_d)}\r\n"
        for label, standard, d, u_d in result.doe_rows()
    ]
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("label,standard,d,u_d,U_d_k2\r\n" + "".join(rows))
    return path
