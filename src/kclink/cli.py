"""Command-line interface.

Subcommands: ``link`` analyses a dataset file, ``inflate`` finds the
minimal uncertainty inflation restoring conformity, ``synth`` generates a
synthetic dataset from a scenario file, and ``selftest`` re-checks the
built-in examples against their published reference results.  The
subcommands only wire options to the library: every file is read and every
report made by :mod:`kclink.io`; ``link`` and ``inflate`` take a report's
chunks, whose options are then checked, before they open ``--output`` and
write them there or to stdout.

Exit codes: 0 on success with a passing conformity check, 2 when the
analysis ran but the conformity check failed, 1 on any error (without a
message when the reader of stdout closes it early).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from functools import cache

from . import golden
from .inflation import minimal_inflation
from .io import (_utf8, emit_plot_data, parse_dataset_with_units, report_chunks,
                 write_dataset)
from .linking import LinkingResult, link
from .model import ComparisonDataset, KclinkError
from .synthetic import generate_scenario, load_scenario
from .version import __version__

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONFORMING = 2


def _print_warnings(result: LinkingResult) -> None:
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _read(args: argparse.Namespace) -> ComparisonDataset:
    try:  # a non-UTF-8 byte in argv decodes to a lone surrogate
        _utf8(args.units)
    except ValueError as exc:
        raise KclinkError(f"--units: {exc}") from None
    dataset, file_units = parse_dataset_with_units(args.input)
    if args.units is None:
        args.units = file_units
    return dataset


def _emit_report(result: LinkingResult, args: argparse.Namespace) -> None:
    # the chunks first: a rejected option leaves no --output file, nor truncates one
    chunks = report_chunks(result, args.report_format, decimals=args.decimals,
                           units=args.units)
    with (open(args.output, "w", encoding="utf-8") if args.output
          else nullcontext(sys.stdout)) as out:
        out.writelines(chunks)
        out.write("\n")


def _cmd_link(args: argparse.Namespace) -> int:
    result = link(_read(args))
    _print_warnings(result)
    _emit_report(result, args)
    if args.plot_data:
        emit_plot_data(result, args.plot_data)
    return EXIT_OK if result.conformity.passed else EXIT_NONCONFORMING


def _cmd_inflate(args: argparse.Namespace) -> int:
    found = minimal_inflation(_read(args), args.lab, args.standard)
    print(
        f"{found.label} (standard {found.standard}): "
        f"minimal passing uncertainty {found.minimal_u:g} "
        f"(was {found.original_u:g}; conformity boundary at "
        f"{found.critical_u:.6g})"
    )
    _print_warnings(found.relinked)
    _emit_report(found.relinked, args)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    dataset = generate_scenario(load_scenario(args.scenario))
    out = write_dataset(dataset, args.output)
    print(
        f"wrote {len(dataset.labels)} laboratories "
        f"({len(dataset.only_a)} A-only, {len(dataset.linking)} linking, "
        f"{len(dataset.only_b)} B-only) to {out}"
    )
    return EXIT_OK


def _close(value: float, expected: float, atol: float) -> bool:
    return abs(value - expected) <= atol


def _selftest_dataset(name, result, expected, atol) -> list[str]:
    failures: list[str] = []
    doe = {(label, standard): (d, u_d) for label, standard, d, u_d in result.doe_rows()}
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
    p_inflate.set_defaults(func=_cmd_inflate)

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


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
