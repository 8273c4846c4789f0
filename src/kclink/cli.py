"""Command-line interface.

Subcommands: ``link`` analyses a dataset file, ``inflate`` finds the
minimal uncertainty inflation restoring conformity, ``synth`` generates a
synthetic dataset from a scenario file, and ``selftest`` re-checks the
built-in examples against their published reference results.  The
subcommands only wire options to the library: every dataset file is read and
written and every report made by :mod:`kclink.io`, a scenario file read by
:func:`kclink.synthetic.load_scenario`; ``link`` and ``inflate`` take a report's
chunks, whose options are then checked, before they open ``--output``, then
``--plot-data``: a rejected option leaves no report or plot file, nor truncates
one.  Nothing is printed before that: a rejected option, an output file that
cannot be opened or text that stdout's encoding cannot write (a label, ``--units``
or ``synth``'s ``wrote`` line) prints only its error line; ``synth`` writes no file.

Exit codes: 0 on success with a passing conformity check, 2 when the
analysis ran but the conformity check failed, 1 on any error (without a
message when the reader of stdout closes it early).
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
import warnings
from collections import deque
from collections.abc import Iterable
from contextlib import nullcontext
from functools import cache
from itertools import chain
from pathlib import Path

from . import golden
from .inflation import minimal_inflation
from .io import (_doe_slices, _json_chunks, _plot_rows, _utf8, parse_dataset_with_units,
                 report_chunks, write_dataset)
from .linking import LinkingResult, link
from .model import ComparisonDataset, KclinkError
from .synthetic import generate_scenario, load_scenario
from .version import __version__

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONFORMING = 2


def _print_warnings(messages: Iterable[object]) -> None:
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


def _read(args: argparse.Namespace) -> ComparisonDataset:
    try:  # a non-UTF-8 byte in argv decodes to a lone surrogate
        _utf8(args.units)
    except ValueError as exc:
        raise KclinkError(f"--units: {exc}") from None
    dataset, file_units = parse_dataset_with_units(args.input)
    if args.units is None:
        args.units = file_units
    return dataset


def _check_stdout(lines: Iterable[str]) -> None:
    """Raise a :class:`KclinkError` unless stdout's encoding can write ``lines``."""
    encoding = getattr(sys.stdout, "encoding", None)  # None: a StringIO
    if encoding and not codecs.lookup(encoding).name.startswith("utf"):
        try:
            "\n".join(lines).encode(encoding, getattr(sys.stdout, "errors", None) or "strict")
        except UnicodeEncodeError as exc:
            raise KclinkError(f"standard output's encoding ({encoding}) cannot write "
                              f"{exc.object[exc.start:exc.end]!r}") from None


def _emit_report(result: LinkingResult, args: argparse.Namespace, *lines: str) -> None:
    """Print ``lines`` and the dataset's warnings, then write the report and plot data."""
    # the chunks first, so that a rejected option opens no file; then stdout's encoding
    # must write the lines, and a text report's labels and units (a JSON report is
    # ASCII, an --output file UTF-8); nothing is printed until the files are open
    chunks = report_chunks(result, args.report_format, decimals=args.decimals,
                           units=args.units)
    text = args.report_format == "text"
    _check_stdout(chain(lines, [args.units or ""], result.dataset.labels)
                  if text and not args.output else lines)
    with (open(args.output, "w", encoding="utf-8") if args.output
          else nullcontext(sys.stdout)) as out, \
         (open(args.plot_data, "w", encoding="utf-8", newline="") if args.plot_data
          else nullcontext()) as plot:
        does = _plot_rows(plot, _doe_slices(result)) if plot else ()
        if plot and not text:  # one walk makes each DOE's text for both outputs
            chunks = _json_chunks(result, args.decimals, args.units, does)
        for line in lines:
            print(line)
        _print_warnings(result.dataset.warnings)
        out.writelines(chunks)
        out.write("\n")
        deque(does, maxlen=0)  # after a text report, the plot data walks on its own


def _cmd_link(args: argparse.Namespace) -> int:
    result = link(_read(args))
    _emit_report(result, args)
    return EXIT_OK if result.conformity.passed else EXIT_NONCONFORMING


def _cmd_inflate(args: argparse.Namespace) -> int:
    found = minimal_inflation(_read(args), args.lab, args.standard)
    _emit_report(found.relinked, args,
                 f"{found.label} (standard {found.standard}): "
                 f"minimal passing uncertainty {found.minimal_u:g} "
                 f"(was {found.original_u:g}; conformity boundary at "
                 f"{found.critical_u:.6g})")
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    # a degenerate sample's RuntimeWarning, one line each, as link prints its warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        dataset = generate_scenario(load_scenario(args.scenario))
    wrote = (f"wrote {len(dataset.labels)} laboratories "
             f"({len(dataset.only_a)} A-only, {len(dataset.linking)} linking, "
             f"{len(dataset.only_b)} B-only) to {Path(args.output)}")
    _check_stdout([wrote])  # before the file is written
    _print_warnings(warning.message for warning in caught)
    write_dataset(dataset, args.output)
    print(wrote)
    return EXIT_OK


def _close(value: float, expected: float, atol: float) -> bool:
    return abs(value - expected) <= atol


def _selftest_dataset(name, result, expected, atol) -> list[str]:
    failures: list[str] = []
    doe = {(entry.label, entry.standard): (entry.d, entry.u_d) for entry in result.does}
    kcrv = expected["kcrv"]
    checks = [
        ("y_a", result.kcrv.y_hat_a, kcrv["y_a"]),
        ("u(y_a)", result.kcrv.u_a, kcrv["u_a"]),
        ("y_b", result.kcrv.y_hat_b, kcrv["y_b"]),
        ("u(y_b)", result.kcrv.u_b, kcrv["u_b"]),
    ]
    for what, got, want in checks:
        if not _close(got, want, atol):
            failures.append(f"{name}: {what} = {got!r}, expected {want} +/- {atol}")
    for standard in "AB":
        for label, (d, u_d) in expected.get(f"doe_{standard.lower()}", {}).items():
            got_d, got_u_d = doe[(label, standard)]
            if not _close(got_d, d, atol) or not _close(got_u_d, u_d, atol):
                failures.append(
                    f"{name}: DOE {label}/{standard} = "
                    f"({got_d!r}, {got_u_d!r}), expected ({d}, {u_d})"
                )
    if not _close(result.conformity.ratio, expected["ratio"], 0.005):
        failures.append(
            f"{name}: q2/(N-2) = {result.conformity.ratio!r}, "
            f"expected {expected['ratio']} +/- 0.005"
        )
    if result.conformity.passed is not expected["passed"]:
        failures.append(f"{name}: conformity verdict should be {expected['passed']}")
    return failures


def _cmd_selftest(args: argparse.Namespace) -> int:
    gauge_block = golden.gauge_block_dataset()
    found = minimal_inflation(gauge_block, "INMETRO1", "B")
    suites = [
        ("gauge-block example", link(gauge_block), golden.GAUGE_BLOCK_EXPECTED,
         0.05),
        ("synthetic example", link(golden.synthetic_dataset()),
         golden.SYNTHETIC_EXPECTED, 0.0005),
        ("gauge-block inflation", found.relinked,
         golden.GAUGE_BLOCK_INFLATED_EXPECTED, 0.05),
    ]
    status = EXIT_OK
    for name, result, expected, atol in suites:
        failures = _selftest_dataset(name, result, expected, atol)
        if "minimal_u" in expected and found.minimal_u != expected["minimal_u"]:
            failures.append(f"{name}: minimal u(INMETRO1/B) = "
                            f"{found.minimal_u!r}, expected {expected['minimal_u']}")
        if failures:
            status = EXIT_ERROR
            print(f"FAIL {name}")
            for failure in failures:
                print(f"  {failure}")
        else:
            print(f"ok   {name}")
    return status


@cache  # built once per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kclink",
        description="Bayesian distributed linking of two key comparisons",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the dataset and report options shared by link and inflate
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--input", required=True,
                        help="dataset file (.json means JSON, anything else CSV)")
    report.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    report.add_argument("--report-format", choices=("text", "json"),
                        default="text")
    report.add_argument("--decimals", type=int, default=3,
                        help="display decimals in the report, 0 to 1074 (default 3)")
    report.add_argument("--units", default=None,
                        help="unit label echoed in the report")

    p_link = sub.add_parser("link", parents=[report],
                            help="analyse a comparison dataset")
    p_link.add_argument("--plot-data", default=None,
                        help="also write DOE plot data (CSV) to this path")
    p_link.set_defaults(func=_cmd_link)

    p_inflate = sub.add_parser(
        "inflate",
        parents=[report],
        help="find the minimal uncertainty inflation restoring conformity",
        description="Smallest 3-significant-digit uncertainty of one lab at "
                    "which the data pass; the exact boundary comes from one "
                    "analysis without that lab's value.",
    )
    p_inflate.add_argument("--lab", required=True, help="target laboratory")
    p_inflate.add_argument("--standard", required=True, choices=("A", "B"))
    p_inflate.set_defaults(func=_cmd_inflate, plot_data=None)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--scenario", required=True,
                         help="scenario specification (JSON)")
    p_synth.add_argument("--output", required=True,
                         help="dataset file to write (.csv or .json)")
    p_synth.set_defaults(func=_cmd_synth)

    p_self = sub.add_parser("selftest",
                            help="check the built-in examples")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        # argparse exits 0 for --help/--version, 2 for usage errors
        return EXIT_OK if not exit_request.code else EXIT_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader left (`kclink link ... | head`): exit quietly;
        # what stdout still holds goes nowhere, not into an error at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (KclinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
