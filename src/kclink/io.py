"""Dataset files in; reports, plot data and dataset files out.

Input files are CSV (columns ``label, x_a, u_a, x_b, u_b, cov_ab``, empty
cells meaning "absent") or JSON (an array of objects with the same field
names, optionally wrapped as ``{"units": ..., "labs": [...]}``).  Numbers
are accepted with either a decimal point or a decimal comma and with
either ASCII or typographic minus signs; output always uses points.

:func:`parse_dataset` is the one reader and :func:`write_dataset` the one
writer of dataset files.  :func:`render_report` builds only the requested
report format; reports carry full-precision values alongside
display-rounded ones, and display rounding is half-up and never feeds back
into any computation.
"""

from __future__ import annotations

import csv
import json
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path
from typing import Iterable, Literal

from .linking import LinkingResult
from .model import ComparisonDataset, KclinkError, LabResult, validate_dataset
from .version import __version__

_CSV_COLUMNS = ("label", "x_a", "u_a", "x_b", "u_b", "cov_ab")


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


def _looks_like_header(row: list[str]) -> bool:
    tail = [cell.strip().lower() for cell in row[1:]]
    return any(cell in _CSV_COLUMNS for cell in tail)


def _parse_csv(path: Path) -> list[LabResult]:
    labs: list[LabResult] = []
    with open(path, encoding="utf-8", newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not "".join(row).strip():
                continue
            if lineno == 1 and _looks_like_header(row):
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
    return labs


def _parse_json(path: Path) -> tuple[list[LabResult], str | None]:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    units = None
    if isinstance(data, dict):
        units = data.get("units")
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
            labs.append(_lab(entry.get("label"), map(entry.get, _CSV_COLUMNS[1:])))
        except (ValueError, KclinkError) as exc:
            raise ParseError(f"{path}: lab entry {index}: {exc}") from None
    return labs, units


def parse_dataset(
    path: str | Path, format: Literal["csv", "json"] | None = None
) -> ComparisonDataset:
    """Read and validate a comparison dataset from a CSV or JSON file.

    With ``format=None`` the format is inferred from the file suffix
    (``.json`` means JSON, anything else CSV).
    """
    dataset, _ = parse_dataset_with_units(path, format)
    return dataset


def parse_dataset_with_units(
    path: str | Path, format: Literal["csv", "json"] | None = None
) -> tuple[ComparisonDataset, str | None]:
    """Like :func:`parse_dataset`, also returning the unit label carried in
    the file's metadata (JSON wrapper form), or ``None``."""
    path = Path(path)
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "csv"
    if format == "csv":
        labs = _parse_csv(path)
        units = None
    elif format == "json":
        labs, units = _parse_json(path)
    else:
        raise ParseError(f"unknown dataset format: {format!r}")
    if units is not None and not isinstance(units, str):
        raise ParseError(f"{path}: units must be a string")
    return validate_dataset(labs), units


def round_half_up(value: float, decimals: int) -> float:
    """Round half away from zero at the given number of decimals."""
    quantum = Decimal(1).scaleb(-decimals)
    # 309 integer digits cover every finite float
    context = Context(prec=max(decimals, 0) + 309)
    return float(Decimal(repr(value)).quantize(quantum, ROUND_HALF_UP, context))


def _lab_echo(lab: LabResult) -> dict:
    return {
        "label": lab.label,
        "x_a": lab.value_a,
        "u_a": lab.u_a,
        "x_b": lab.value_b,
        "u_b": lab.u_b,
        "cov_ab": lab.cov_ab,
    }


def _fmt(value: float | None, decimals: int) -> str:
    if value is None:
        return "-"
    return f"{round_half_up(value, decimals):.{decimals}f}"


def _render_text(
    result: LinkingResult, decimals: int, units: str | None
) -> str:
    unit_suffix = f" {units}" if units else ""
    doe = {(entry.label, entry.standard): entry for entry in result.does}
    width = max(len("lab"), max(len(lab.label) for lab in result.dataset.labs))
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
    for lab in result.dataset.labs:
        entry_a = doe.get((lab.label, "A"))
        entry_b = doe.get((lab.label, "B"))
        lines.append(
            f"{lab.label:<{width}}  "
            f"{_fmt(entry_a.d if entry_a else None, decimals):>{col}} "
            f"{_fmt(entry_a.u_d if entry_a else None, decimals):>{col}} "
            f"{_fmt(entry_b.d if entry_b else None, decimals):>{col}} "
            f"{_fmt(entry_b.u_d if entry_b else None, decimals):>{col}}"
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
    lines.append(
        f"cov(y_A, y_B) = {kcrv.cov_ab:.6g}, r = {_fmt(kcrv.r_tilde, 3)}"
    )
    conf = result.conformity
    ratio = "n/a" if conf.ratio is None else _fmt(conf.ratio, 2)
    verdict = "passed" if conf.passed else "failed"
    lines.append(
        f"conformity: q2/(N-2) = {ratio} ({verdict})   "
        f"[q2 = {conf.q2:.6g}, dof = {conf.dof}]"
    )
    if result.warnings:
        lines.append("warnings:")
        for warning in result.warnings:
            lines.append(f"  - {warning}")
    lines.append("")
    return "\n".join(lines)


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
    kcrv = result.kcrv
    conf = result.conformity
    data = {
        "tool": {"name": "kclink", "version": __version__},
        "units": units,
        "input": {
            "labs": [_lab_echo(lab) for lab in result.dataset.labs],
            "groups": {
                "only_a": list(result.dataset.only_a),
                "linking": list(result.dataset.linking),
                "only_b": list(result.dataset.only_b),
            },
        },
        "aux": {
            "a": result.aux.a,
            "b": result.aux.b,
            "c": result.aux.c,
            "s1": result.aux.s1,
            "s2": result.aux.s2,
        },
        "kcrv": {
            "y_a": kcrv.y_hat_a,
            "u_a": kcrv.u_a,
            "y_b": kcrv.y_hat_b,
            "u_b": kcrv.u_b,
            "cov_ab": kcrv.cov_ab,
            "r_tilde": kcrv.r_tilde,
        },
        "doe": [
            {
                "label": entry.label,
                "standard": entry.standard,
                "d": entry.d,
                "u_d": entry.u_d,
            }
            for entry in result.does
        ],
        "conformity": {
            "q2": conf.q2,
            "dof": conf.dof,
            "ratio": conf.ratio,
            "passed": conf.passed,
        },
        "warnings": list(result.warnings),
        "display": {
            "decimals": decimals,
            "kcrv": {
                "y_a": round_half_up(kcrv.y_hat_a, decimals),
                "u_a": round_half_up(kcrv.u_a, decimals),
                "y_b": round_half_up(kcrv.y_hat_b, decimals),
                "u_b": round_half_up(kcrv.u_b, decimals),
            },
            "ratio": None if conf.ratio is None else round_half_up(conf.ratio, 2),
        },
    }
    return json.dumps(data, sort_keys=True, indent=2)


def write_dataset(dataset: ComparisonDataset, path: str | Path) -> Path:
    """Write ``{"labs": [...]}`` JSON when the suffix is ``.json``, otherwise
    CSV with a header row and ``repr`` numbers.

    :func:`parse_dataset` reads either back to the same labs, as long as no
    label has surrounding whitespace (labels are stripped on reading).
    """
    path = Path(path)
    records = [_lab_echo(lab) for lab in dataset.labs]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if path.suffix.lower() == ".json":
            handle.write(json.dumps({"labs": records}, indent=2, sort_keys=True) + "\n")
        else:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            for label, *numbers in (record.values() for record in records):
                writer.writerow(
                    [label, *("" if v is None else repr(v) for v in numbers)]
                )
    return path


def emit_plot_data(result: LinkingResult, path: str | Path) -> Path:
    """Write the DOE chart data as CSV: label, standard, d, u_d and the
    expanded (k = 2) uncertainty, one row per degree of equivalence."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["label", "standard", "d", "u_d", "U_d_k2"])
        for entry in result.does:
            writer.writerow(
                [entry.label, entry.standard,
                 repr(entry.d), repr(entry.u_d), repr(2.0 * entry.u_d)]
            )
    return path
