"""The report, plot-data and dataset-file writers emit bounded chunks of rows:
the bytes are the single-join references' at every chunk boundary, and the
memory a writer holds does not grow with the number of labs."""

import io
import tempfile
import tracemalloc
from dataclasses import replace
from itertools import compress
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kclink import io as kio
from kclink.cli import main
from kclink.io import emit_plot_data, render_report, report_chunks, write_dataset
from kclink.linking import link
from kclink.model import KclinkError, LabResult, validate_dataset

from . import oracles
from .strategies import datasets

CHUNK = kio._CHUNK_ROWS
REFERENCES = {"json": oracles.json_report, "text": oracles.text_report}


def mixed_dataset(count: int, seed: int = 0):
    """``count`` labs cycling through A-only, B-only and linking, a label
    that CSV quotes and JSON escapes, and a last lab, linking without a
    covariance, whose values are too large for the text table's templates."""
    rng = np.random.default_rng(seed)
    kind = np.arange(count) % 3  # A-only, B-only, linking
    measured = np.array([kind != 1, kind != 0])
    x = np.where(measured, rng.normal(10.0, 1.0, (2, count)), np.nan)
    u = np.where(measured, rng.uniform(0.5, 2.0, (2, count)), np.nan)
    cov_ab = np.where(kind == 2, rng.uniform(-0.5, 0.5, count) * u[0] * u[1], np.nan)
    x[:, -1], u[:, -1], cov_ab[-1] = 1e12, 1e12, np.nan
    labels = [f"L{index:05d}" for index in range(count)]
    labels[count // 2] = 'L, "é"'
    return validate_dataset(labels, x, u, cov_ab)


def first_difference(got: str, want: str) -> tuple | None:
    """None when ``got == want``, else where they first differ and the text
    around it: a short report, where pytest's diff of two long texts is slow."""
    if got == want:
        return None
    at = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
              min(len(got), len(want)))
    return at, got[max(at - 60, 0):at + 60], want[max(at - 60, 0):at + 60]


@pytest.mark.parametrize("count", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_outputs_at_chunk_boundaries_match_the_references(count, tmp_path, capsys):
    dataset = mixed_dataset(count)
    result = link(dataset)
    last = np.array([[result.d[0, -1], result.u_d[0, -1], result.d[1, -1], result.u_d[1, -1]]])
    assert kio._ties(last, 3).all()  # the last row is rounded through Decimal
    assert result.dataset.warnings  # the lab without a covariance
    data = write_dataset(dataset, tmp_path / "labs.csv")
    for path in (data, write_dataset(dataset, tmp_path / "labs.json")):
        assert first_difference(path.read_bytes().decode("utf-8"),
                                oracles.dataset_file(dataset, path.suffix)) is None
    for format, reference in REFERENCES.items():
        report = render_report(result, format, units="nm")
        assert first_difference(report, reference(result, 3, "nm")) is None
        stream = io.StringIO()
        stream.writelines(report_chunks(result, format, units="nm"))
        assert first_difference(stream.getvalue(), report) is None
        out, plot = tmp_path / f"report.{format}", tmp_path / f"plot.{format}.csv"
        argv = ["link", "--input", str(data), "--report-format", format, "--units", "nm"]
        assert main([*argv, "--output", str(out), "--plot-data", str(plot)]) in (0, 2)
        assert first_difference(out.read_bytes().decode("utf-8"), report + "\n") is None
        assert first_difference(plot.read_bytes().decode("utf-8"),
                                oracles.plot_data(result)) is None
        capsys.readouterr()
        assert main(argv) in (0, 2)
        assert first_difference(capsys.readouterr().out, report + "\n") is None


@pytest.mark.parametrize("decimals", [3, 22])
def test_text_rows_take_labels_as_arguments(decimals):
    # a block's rows are formatted by one %: a label that reads as a format
    # directive stays an argument, before and after the block boundary; the
    # labs cycle through all three row patterns, the last lab's cells are too
    # large for the templates, and at 22 decimals every cell is rounded by Decimal
    mixed = mixed_dataset(CHUNK + 1)
    labels = list(mixed.labels)
    labels[CHUNK - 2:] = "L%%", "L%s", "L%(x)d"
    dataset = validate_dataset(labels, mixed.x, mixed.u, mixed.cov_ab)
    assert set((np.dot([1, 2], dataset.measured) - 1).tolist()) == {0, 1, 2}
    result = link(dataset)
    report = render_report(result, "text", decimals=decimals, units="nm")
    assert first_difference(report, oracles.text_report(result, decimals, "nm")) is None
    assert all(f"\n{label}  " in report for label in labels[CHUNK - 2:])


@pytest.mark.parametrize("decimals", [0, 3, 22])
def test_text_blocks_of_one_row_pattern(decimals):
    # blocks of 2 rows: A-only, B-only, then linking with and without a
    # covariance, so that a block's absent cells are all in one column pair
    # or none; at 22 decimals every printed cell is rounded by Decimal
    dataset = validate_dataset([
        LabResult("A1", value_a=1.0, u_a=0.5), LabResult("A2", value_a=2.25, u_a=0.75),
        LabResult("B1", value_b=3.0, u_b=0.5), LabResult("B2", value_b=4.5, u_b=1.25),
        LabResult("C1", value_a=1.5, u_a=0.5, value_b=3.5, u_b=0.5, cov_ab=0.1),
        LabResult("C2", value_a=2.0, u_a=1.0, value_b=4.0, u_b=1.0)])
    result = link(dataset)
    assert (np.dot([1, 2], dataset.measured) - 1).tolist() == [0, 0, 1, 1, 2, 2]
    with mock.patch.object(kio, "_CHUNK_ROWS", 2):
        assert first_difference(render_report(result, "text", decimals=decimals),
                                oracles.text_report(result, decimals, None)) is None


@pytest.mark.parametrize("format, decimals", [("xml", 3), ("json", -1), ("text", True),
                                              ("text", 1.5), ("json", 1075),
                                              ("text", 3_000_000)])
def test_write_report_checks_its_options_before_writing(format, decimals):
    stream = io.StringIO()
    with pytest.raises(KclinkError):
        stream.writelines(report_chunks(link(mixed_dataset(5)), format, decimals=decimals))
    assert stream.getvalue() == ""


def _traced_peak(write) -> int:
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("output", ["json", "text", "plot", "labs.csv", "labs.json", "cli"])
def test_writer_memory_does_not_grow_with_the_labs(output, tmp_path):
    # "cli": kclink link's one walk of the JSON report and plot data, on a fresh
    # copy of the result per run, as a run links anew: the DOE text it makes is
    # dropped a block at a time, neither kept for the run nor with the result
    path = tmp_path / "out"

    def write(result):
        if output == "plot":
            emit_plot_data(result, path)
        elif output == "cli":
            with mock.patch("kclink.cli.parse_dataset_with_units",
                            return_value=(result.dataset, None)), \
                    mock.patch("kclink.cli.link", side_effect=lambda _: replace(result)):
                main(["link", "--input", "labs.csv", "--report-format", "json",
                      "--output", str(path), "--plot-data", str(tmp_path / "plot.csv")])
        elif output.startswith("labs"):  # a dataset file
            write_dataset(result.dataset, tmp_path / output)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(report_chunks(result, output))

    peaks = []
    for count in (10_000, 40_000):
        result = link(mixed_dataset(count))
        write(result)  # warm up
        peaks.append(_traced_peak(lambda: write(result)))
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_plain_csv_reader_keeps_no_object_per_number(tmp_path):
    # 2**16 labs in a plain CSV file: the reader's peak stays below 2.4 times
    # what the dataset it returns retains.  The row loop, which keeps a
    # Python float per cell until it fills the columns, peaks at 3.2 times;
    # the plain path, which makes each chunk's cells one float64 block, 1.8
    count = 2 ** 16
    mixed = mixed_dataset(count)
    dataset = validate_dataset([f"L{index:05d}" for index in range(count)],
                               mixed.x, mixed.u, mixed.cov_ab)
    path = write_dataset(dataset, tmp_path / "labs.csv")
    assert kio._plain_csv(path) is not None
    tracemalloc.start()
    try:
        got = kio.parse_dataset(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == dataset
    assert peak <= 2.4 * retained, (peak, retained)


# a label that csv.writer quotes or json.dumps escapes, or both
special_labels = st.text(',"\r\n\\\x00\téx', min_size=1).filter(
    lambda text: kio._NEEDS_QUOTES(text) or kio._str(text) != f'"{text}"')


@st.composite
def blocked_datasets(draw):
    """A dataset of several blocks of 2 or 3 labs and that block size: some
    blocks hold a label to quote or escape, the others only plain labels."""
    chunk = draw(st.integers(2, 3))
    dataset = draw(datasets(4).filter(lambda data: len(data.labels) > chunk))
    blocks = range(0, len(dataset.labels), chunk)
    special = draw(st.lists(st.booleans(), min_size=len(blocks), max_size=len(blocks))
                   .filter(lambda flags: any(flags) and not all(flags)))
    names = [f"P{index}" for index in range(len(dataset.labels))]
    for start, flagged in zip(blocks, special):
        if flagged:
            index = draw(st.integers(start, min(start + chunk, len(names)) - 1))
            names[index] = draw(special_labels) + f"{index}"
    return validate_dataset(replace(lab, label=name)
                            for lab, name in zip(dataset.labs, names)), chunk


@given(blocked_datasets())
@settings(deadline=None)
def test_writers_over_blocks_of_mixed_labels_match_the_references(case):
    # each block decides once whether its labels need quoting or escaping
    dataset, chunk = case
    result = link(dataset)
    with mock.patch.object(kio, "_CHUNK_ROWS", chunk), \
            tempfile.TemporaryDirectory() as directory:
        plot = emit_plot_data(result, Path(directory) / "plot.csv")
        assert plot.read_bytes() == oracles.plot_data(result).encode("utf-8")
        assert render_report(result, "json") == oracles.json_report(result, 3, None)
        for suffix in (".csv", ".json"):
            path = write_dataset(dataset, Path(directory) / f"labs{suffix}")
            assert path.read_bytes() == oracles.dataset_file(dataset, suffix).encode("utf-8")


@pytest.mark.parametrize("quoted", [None, 0, 1, 2])
def test_csv_labels_are_quoted_only_in_the_block_that_needs_it(quoted, tmp_path, monkeypatch):
    # a call counter on _csv_field, not a timing: with no label to quote it is
    # never called, else only for the rows of the quoted label's block of DOEs,
    # A's and B's (the label is a linking lab's)
    count = 2 * CHUNK + CHUNK // 2
    mixed = mixed_dataset(count)
    labels = [f"L{index:05d}" for index in range(count)]
    block = slice(0, 0)
    if quoted is not None:
        block = slice(quoted * CHUNK, (quoted + 1) * CHUNK)
        index = quoted * CHUNK + 7
        index += (2 - index % 3) % 3  # a linking lab of mixed_dataset
        labels[index] = 'L, "é"'
    dataset = validate_dataset(labels, mixed.x, mixed.u, mixed.cov_ab)
    assert quoted is None or dataset.measured[:, index].all()
    result = link(dataset)
    calls, field = [], kio._csv_field
    monkeypatch.setattr(kio, "_csv_field", lambda text: calls.append(text) or field(text))
    plot = emit_plot_data(result, tmp_path / "plot.csv")
    assert calls == [label for row in dataset.measured[:, block].tolist()
                     for label in compress(labels[block], row)]
    assert plot.read_bytes() == oracles.plot_data(result).encode("utf-8")
    calls.clear()
    data = write_dataset(dataset, tmp_path / "labs.csv")
    assert calls == labels[block]
    assert data.read_bytes() == oracles.dataset_file(dataset, ".csv").encode("utf-8")
