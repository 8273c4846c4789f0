"""The benchmark's workloads: inputs, one op, and the check of its output.

Each workload is a single-process closed loop: one caller runs op ``i``
only after op ``i - 1`` returned, cycling through a small pool of distinct
inputs drawn from the workload seed, so caching one input cannot pass as a
gain.

* ``cli-link-10k``: ``kclink link`` with a JSON report and plot data on
  10^4 labs.  Report parsing, rendering and encoding dominate.
* ``cli-inflate-1k``: ``kclink inflate`` with the text report on 10^3 labs
  that fail because of one linking lab.  Repeated re-linking dominates.
* ``mc-17``: generate the 17-lab synthetic scenario (8/4/5 labs, n = 50)
  at seed ``base + i`` and link it.  Synthetic sampling dominates, and
  ``link`` runs as many tiny calls.

This module imports only the standard library at the top: the worker
times ``import kclink`` and must not have numpy loaded before it.  The
numpy-based oracle is imported inside the functions that need it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

POOL_SIZE = {"cli-link-10k": 3, "cli-inflate-1k": 3, "mc-17": 64}
WARMUP_OPS = {"cli-link-10k": 2, "cli-inflate-1k": 2, "mc-17": 50}
MC_SCENARIO = {
    "y_a_true": 110.0, "y_b_true": 120.0, "sigma_a": 20.0, "sigma_b": 50.0,
    "rho": 0.5, "n": 50, "layout": {"only_a": 8, "linking": 4, "only_b": 5},
}
# relative tolerance between kclink's exactly rounded sums and the oracle
RTOL = 1e-8


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Draw the workload's input pool into ``work``; return the job."""
    import numpy as np

    import inputs

    rng = np.random.default_rng([seed, sorted(POOL_SIZE).index(workload)])
    job = {
        "workload": workload,
        "warmup": WARMUP_OPS[workload],
        "report": str(work / "report.json"),
        "plot": str(work / "plot.csv"),
    }
    if workload == "mc-17":
        base = int(rng.integers(0, 2**40))
        job["pool"] = [{**MC_SCENARIO, "seed": base + k} for k in range(POOL_SIZE[workload])]
        return job
    job["pool"] = []
    for k in range(POOL_SIZE[workload]):
        if workload == "cli-link-10k":
            data, entry = inputs.draw_link_dataset(rng, 10_000), {}
        else:
            data, outlier = inputs.draw_inflation_dataset(rng, 1_000)
            entry = {"lab": data.labels[outlier], "index": outlier}
        entry["csv"] = str(work / f"input-{k}.csv")
        entry["npz"] = str(work / f"input-{k}.npz")
        inputs.write_csv(data, Path(entry["csv"]))
        inputs.save(data, Path(entry["npz"]))
        job["pool"].append(entry)
    return job


def make_op(job: dict):
    """The workload's op as ``op(i) -> output``; kclink must be importable.

    Calls go through module attributes so that traced runs see them.
    """
    from kclink import cli, linking, synthetic

    pool = job["pool"]
    if job["workload"] == "mc-17":
        scenarios = [synthetic.scenario_from_dict(entry) for entry in pool]

        def mc_op(i: int):
            return linking.link(synthetic.generate_scenario(scenarios[i % len(pool)]))

        return mc_op

    if job["workload"] == "cli-link-10k":
        argvs = [
            ["link", "--input", e["csv"], "--report-format", "json",
             "--output", job["report"], "--plot-data", job["plot"]]
            for e in pool
        ]
    else:
        argvs = [
            ["inflate", "--input", e["csv"], "--lab", e["lab"], "--standard", "B"]
            for e in pool
        ]

    def cli_op(i: int):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argvs[i % len(argvs)])
        return code, out.getvalue()

    return cli_op


def _close(got, want) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL * 1e-3)


def _all_close(got, want) -> bool:
    import numpy as np

    return len(got) == len(want) and bool(
        np.allclose(np.asarray(got, dtype=float), want, rtol=RTOL, atol=RTOL * 1e-3)
    )


def make_check(job: dict):
    """``check(i, output) -> (problem or None, info)`` against the oracle.

    Expected results are computed once per pool input; every op's output
    is compared with them after the op's timed interval.
    """
    import inputs
    import oracle

    pool = job["pool"]
    if job["workload"] == "mc-17":
        expected = []
        for entry in pool:
            rows = oracle.reference_scenario(entry)
            labels = [f"LAB-{k:02d}" for k in range(1, len(rows) + 1)]
            expected.append((labels, rows, oracle.solve(oracle.columns_from_rows(labels, rows))))
        return lambda i, result: _check_mc(expected[i % len(pool)], result)

    data = [inputs.load(Path(entry["npz"])) for entry in pool]
    if job["workload"] == "cli-link-10k":
        solved = [oracle.solve(d) for d in data]
        return lambda i, output: _check_link(job, data[i % len(pool)],
                                             solved[i % len(pool)], output)
    return lambda i, output: _check_inflate(data[i % len(pool)],
                                            pool[i % len(pool)]["index"], output)


def _check_mc(expected, result):
    labels, rows, want = expected
    labs = result.dataset.labs
    if [lab.label for lab in labs] != labels:
        return "generated labels differ", {}
    got_rows = [(lab.value_a, lab.u_a, lab.value_b, lab.u_b, lab.cov_ab) for lab in labs]
    for got, ref in zip(got_rows, rows):
        if any((g is None) != (r is None) or (g is not None and not
               math.isclose(g, r, rel_tol=1e-12)) for g, r in zip(got, ref)):
            return "generated lab differs from the reference sample", {}
    k, c = result.kcrv, result.conformity
    if not all(_close(g, w) for g, w in (
        (k.y_hat_a, want.y_a), (k.u_a, want.u_a), (k.y_hat_b, want.y_b),
        (k.u_b, want.u_b), (k.cov_ab, want.cov_ab), (c.q2, want.q2),
    )) or c.dof != want.dof or c.passed != want.passed:
        return "linking result differs from the oracle", {}
    return None, {}


def _check_link(job, data, want, output):
    code, _ = output
    report = Path(job["report"]).read_bytes()
    plot = Path(job["plot"]).read_bytes()
    info = {"report_bytes": len(report), "plot_bytes": len(plot)}
    if code != (0 if want.passed else 2):
        return f"exit code {code}, oracle verdict passed={want.passed}", info
    doc = json.loads(report)
    kcrv, conf = doc["kcrv"], doc["conformity"]
    if not all(_close(kcrv[key], value) for key, value in (
        ("y_a", want.y_a), ("u_a", want.u_a), ("y_b", want.y_b),
        ("u_b", want.u_b), ("cov_ab", want.cov_ab),
    )):
        return "KCRVs differ from the oracle", info
    if not _close(conf["q2"], want.q2) or conf["dof"] != want.dof \
            or conf["passed"] != want.passed:
        return "conformity differs from the oracle", info
    rows = list(csv.reader(io.StringIO(plot.decode("utf-8"))))[1:]
    labels = list(data.labels)
    has_a, has_b = data.has_a.tolist(), data.has_b.tolist()
    want_labels = [l for l, h in zip(labels, has_a) if h] + \
                  [l for l, h in zip(labels, has_b) if h]
    want_d = [*want.d_a, *want.d_b]
    want_u = [*want.u_d_a, *want.u_d_b]
    for source in (
        [(e["label"], e["d"], e["u_d"]) for e in doc["doe"]],
        [(r[0], float(r[2]), float(r[3])) for r in rows],
    ):
        if [s[0] for s in source] != want_labels \
                or not _all_close([s[1] for s in source], want_d) \
                or not _all_close([s[2] for s in source], want_u):
            return "degrees of equivalence differ from the oracle", info
    return None, info


_MINIMAL = re.compile(r"minimal passing uncertainty (\S+)")
_KCRV = re.compile(r"KCRV ([AB]): y_[AB] = ([^,\s]+)")


def _check_inflate(data, index, output):
    import oracle

    code, text = output
    info = {"report_bytes": len(text.encode("utf-8")), "plot_bytes": 0}
    found = _MINIMAL.search(text)
    if code != 0 or found is None:
        return f"exit code {code} or no minimal uncertainty reported", info
    minimal = float(found.group(1))
    if not oracle.passes_at(data, index, minimal):
        return f"oracle fails the dataset at the reported {minimal}", info
    below = oracle.step_below(minimal)
    if oracle.passes_at(data, index, below):
        return f"oracle passes the dataset at {below}, below the reported {minimal}", info
    want = oracle.solve(oracle.with_u_b(data, index, minimal))
    shown = dict(_KCRV.findall(text))
    if "(passed)" not in text or set(shown) != {"A", "B"} or any(
        abs(float(shown[s]) - y) > 5.001e-4 for s, y in (("A", want.y_a), ("B", want.y_b))
    ):
        return "report at the minimal uncertainty differs from the oracle", info
    return None, info
