"""The report and plot-data writers emit bounded chunks of rows: the bytes
are the single-join references' at every chunk boundary, and the memory a
writer holds does not grow with the number of labs."""

import io
import tracemalloc

import numpy as np
import pytest

from kclink import io as kio
from kclink.cli import main
from kclink.io import emit_plot_data, render_report, report_chunks, write_dataset
from kclink.linking import link
from kclink.model import KclinkError, validate_dataset

from . import oracles

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
    assert result.warnings  # the lab without a covariance
    data = write_dataset(dataset, tmp_path / "labs.csv")
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


@pytest.mark.parametrize("output", ["json", "text", "plot"])
def test_writer_memory_does_not_grow_with_the_labs(output, tmp_path):
    path = tmp_path / "out"

    def write(result):
        if output == "plot":
            emit_plot_data(result, path)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(report_chunks(result, output))

    peaks = []
    for count in (10_000, 40_000):
        result = link(mixed_dataset(count))
        kio._doe_text(result)  # the one O(N) text, shared by two outputs
        write(result)  # warm up
        peaks.append(_traced_peak(lambda: write(result)))
    assert peaks[1] <= 1.25 * peaks[0], peaks
