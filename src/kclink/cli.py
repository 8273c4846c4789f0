"""Command-line interface.

Subcommands: ``link`` analyses a dataset file, ``inflate`` finds the
minimal uncertainty inflation restoring conformity, ``synth`` generates a
synthetic dataset from a scenario file, and ``selftest`` re-checks the
built-in examples against their published reference results.

Exit codes: 0 on success with a passing conformity check, 2 when the
analysis ran but the conformity check failed, 1 on any error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import golden
from .inflation import minimal_inflation
from .io import emit_plot_data, parse_dataset_with_units, render_report
from .linking import LinkingResult, link
from .model import KclinkError
from .synthetic import generate_scenario, load_scenario
from .version import __version__

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONCONFORMING = 2


def _print_warnings(result: LinkingResult) -> None:
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _emit_report(result: LinkingResult, args: argparse.Namespace) -> None:
    document = render_report(
        result,
        format=args.report_format,
        decimals=args.decimals,
        units=args.units,
    )
    if args.output:
        Path(args.output).write_text(document.primary() + "\n", encoding="utf-8")
    else:
        print(document.primary())


def _cmd_link(args: argparse.Namespace) -> int:
    dataset, file_units = parse_dataset_with_units(args.input, args.format)
    if args.units is None:
        args.units = file_units
    result = link(dataset)
    _print_warnings(result)
    _emit_report(result, args)
    if args.plot_data:
        emit_plot_data(result, args.plot_data)
    return EXIT_OK if result.conformity.passed else EXIT_NONCONFORMING


def _cmd_inflate(args: argparse.Namespace) -> int:
    dataset, file_units = parse_dataset_with_units(args.input, args.format)
    if args.units is None:
        args.units = file_units
    found = minimal_inflation(dataset, args.lab, args.standard)
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
    scenario = load_scenario(args.scenario)
    if args.seed_override is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed_override)
    dataset = generate_scenario(scenario)
    out = Path(args.output)
    if out.suffix.lower() == ".json":
        payload = [
            {
                "label": lab.label,
                "x_a": lab.value_a,
                "u_a": lab.u_a,
                "x_b": lab.value_b,
                "u_b": lab.u_b,
                "cov_ab": lab.cov_ab,
            }
            for lab in dataset.labs
        ]
        out.write_text(
            json.dumps({"labs": payload}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["label", "x_a", "u_a", "x_b", "u_b", "cov_ab"])
            for lab in dataset.labs:
                writer.writerow(
                    [
                        lab.label,
                        *("" if v is None else repr(v) for v in (
                            lab.value_a, lab.u_a, lab.value_b, lab.u_b,
                            lab.cov_ab,
                        )),
                    ]
                )
    print(
        f"wrote {len(dataset.labs)} laboratories "
        f"({len(dataset.only_a)} A-only, {len(dataset.linking)} linking, "
        f"{len(dataset.only_b)} B-only) to {out}"
    )
    return EXIT_OK


def _close(value: float, expected: float, atol: float) -> bool:
    return abs(value - expected) <= atol


def _selftest_dataset(name, dataset, expected, atol) -> list[str]:
    failures: list[str] = []
    result = link(dataset)
    doe = {(e.label, e.standard): e for e in result.does}
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
    for standard, table in (("A", expected["doe_a"]), ("B", expected["doe_b"])):
        for label, (d, u_d) in table.items():
            entry = doe[(label, standard)]
            if not _close(entry.d, d, atol) or not _close(entry.u_d, u_d, atol):
                failures.append(
                    f"{name}: DOE {label}/{standard} = "
                    f"({entry.d!r}, {entry.u_d!r}), expected ({d}, {u_d})"
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
    suites = [
        (
            "gauge-block example",
            golden.gauge_block_dataset(),
            golden.GAUGE_BLOCK_EXPECTED,
            0.05,
        ),
        (
            "synthetic example",
            golden.synthetic_dataset(),
            golden.SYNTHETIC_EXPECTED,
            0.0005,
        ),
    ]
    status = EXIT_OK
    for name, dataset, expected, atol in suites:
        failures = _selftest_dataset(name, dataset, expected, atol)
        if failures:
            status = EXIT_ERROR
            print(f"FAIL {name}")
            for failure in failures:
                print(f"  {failure}")
        else:
            print(f"ok   {name}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kclink",
        description="Bayesian distributed linking of two key comparisons",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_link = sub.add_parser("link", help="analyse a comparison dataset")
    p_link.add_argument("--input", required=True, help="dataset file")
    p_link.add_argument("--format", choices=("csv", "json"), default=None,
                        help="input format (default: from file suffix)")
    p_link.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    p_link.add_argument("--report-format", choices=("text", "json"),
                        default="text")
    p_link.add_argument("--decimals", type=int, default=3,
                        help="display decimals in the report (default 3)")
    p_link.add_argument("--units", default=None,
                        help="unit label echoed in the report")
    p_link.add_argument("--plot-data", default=None,
                        help="also write DOE plot data (CSV) to this path")
    p_link.set_defaults(func=_cmd_link)

    p_inflate = sub.add_parser(
        "inflate",
        help="find the minimal uncertainty inflation restoring conformity",
        description="Smallest 3-significant-digit uncertainty of one lab at "
                    "which the data pass; the exact boundary comes from one "
                    "analysis without that lab.",
    )
    p_inflate.add_argument("--input", required=True)
    p_inflate.add_argument("--format", choices=("csv", "json"), default=None)
    p_inflate.add_argument("--lab", required=True, help="target laboratory")
    p_inflate.add_argument("--standard", required=True, choices=("A", "B"))
    p_inflate.add_argument("--output", default=None)
    p_inflate.add_argument("--report-format", choices=("text", "json"),
                           default="text")
    p_inflate.add_argument("--decimals", type=int, default=3)
    p_inflate.add_argument("--units", default=None)
    p_inflate.set_defaults(func=_cmd_inflate)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--scenario", required=True,
                         help="scenario specification (JSON)")
    p_synth.add_argument("--seed-override", type=int, default=None)
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
        return args.func(args)
    except KclinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
