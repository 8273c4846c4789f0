"""One fresh interpreter of a benchmark run.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``.  The job names
the workload, its input pool, kclink's source directory and a mode:

* ``setup``: import kclink, warm up, report set-up time and peak RSS.
* ``measure``: as ``setup``, then run the closed loop for ``seconds`` and
  report every op's latency, the reference time paired with it, and every
  failed check.
* ``trace``: as ``measure`` for half the time, then with span wrappers
  installed for the other half; report the per-layer metrics.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

import tracing
import workloads


# how often the loop times the reference computation; ops in between are
# related to the most recent timing
REFERENCE_INTERVAL_S = 0.02


def reference() -> float:
    """A fixed stdlib computation (build, encode and sum records) whose
    time tracks how fast the shared machine runs at the moment."""
    rows = [{"x": i * 0.5, "label": f"L{i:05d}", "pair": [i, i + 1]} for i in range(600)]
    return math.fsum(row["x"] for row in rows) + len(json.dumps(rows))


def _loop(op, check, first: int, seconds: float, tracer=None) -> dict:
    """Run ops ``first, first + 1, ...`` until ``seconds`` have passed.

    Only the op is timed; its output is checked after the timed interval.
    Every op is paired with the latest timing of ``reference``.
    """
    latencies, references, failures, infos, redraws = [], [], [], [], 0
    i = first
    reference_at = float("-inf")
    deadline = perf_counter() + seconds
    while not latencies or perf_counter() < deadline:
        if perf_counter() - reference_at >= REFERENCE_INTERVAL_S:
            reference_at = perf_counter()
            reference()
            reference_s = perf_counter() - reference_at
        problem = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer:
                tracer.op = i
            start = perf_counter()
            try:
                output = op(i)
            except Exception as exc:  # a failed op is a result, not a crash
                problem = f"op raised {exc!r}"
            latencies.append(perf_counter() - start)
        references.append(reference_s)
        redraws += sum("degenerate sample" in str(w.message) for w in caught)
        if problem is None:
            try:
                problem, info = check(i, output)
                infos.append(info)
            except Exception as exc:
                problem = f"check raised {exc!r}"
        if problem is not None:
            failures.append(f"op {i}: {problem}")
        i += 1
    return {"latencies": latencies, "references": references, "failures": failures,
            "infos": infos, "redraws": redraws, "next": i}


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_metrics(tracer: tracing.Tracer, traced: dict, untraced: dict) -> dict:
    """The per-layer metrics: medians over traced ops of per-op figures."""
    ops = tracing.per_op(tracer.spans)
    ids = range(traced["next"] - len(traced["latencies"]), traced["next"])
    empty = {"total": {}, "self": {}, "calls": {}}

    def med(kind, key, scale=1.0):
        return statistics.median(ops.get(i, empty)[kind].get(key, 0) for i in ids) * scale

    def med_info(key):
        return statistics.median(info.get(key, 0) for info in traced["infos"]) \
            if traced["infos"] else 0

    per_call_us = [
        ops[i]["total"]["synthetic.sample_lab"] / ops[i]["calls"]["synthetic.sample_lab"] * 1e6
        for i in ids if "synthetic.sample_lab" in ops.get(i, empty)["calls"]
    ]
    sample_calls = sum(ops.get(i, empty)["calls"].get("synthetic.sample_lab", 0) for i in ids)
    self_sums = [sum(ops.get(i, empty)["self"].values()) for i in ids]
    untraced_p50 = statistics.median(untraced["latencies"])
    traced_p50 = statistics.median(traced["latencies"])
    # shares are taken in units of the reference computation, so that the
    # machine's load changing between the two halves does not enter them
    untraced_ref = statistics.median(
        op / ref for op, ref in zip(untraced["latencies"], untraced["references"]))
    traced_ref = statistics.median(
        op / ref for op, ref in zip(traced["latencies"], traced["references"]))
    self_sum_ref = statistics.median(
        own / ref for own, ref in zip(self_sums, traced["references"]))
    return {
        "cli.main_ms": med("total", "cli.main", 1e3),
        "cli.self_ms": med("self", "cli.main", 1e3),
        "io.parse_ms": med("total", "io.parse", 1e3),
        "io.parse_self_ms": med("self", "io.parse", 1e3),
        "io.render_ms": med("total", "io.render", 1e3),
        "io.encode_ms": med("total", "io.encode", 1e3),
        "io.plot_ms": med("total", "io.plot", 1e3),
        "io.report_bytes": med_info("report_bytes"),
        "io.plot_bytes": med_info("plot_bytes"),
        "model.validate_ms": med("total", "model.validate", 1e3),
        "model.validate_calls": med("calls", "model.validate"),
        "linking.link_ms": med("total", "linking.link", 1e3),
        "linking.link_calls": med("calls", "linking.link"),
        "inflation.search_ms": med("total", "inflation.search", 1e3),
        "inflation.self_ms": med("self", "inflation.search", 1e3),
        "inflation.link_calls": med("calls", ("linking.link", "inflation.search")),
        "inflation.validate_calls": med("calls", ("model.validate", "inflation.search")),
        "synthetic.generate_ms": med("total", "synthetic.generate", 1e3),
        "synthetic.self_ms": med("self", "synthetic.generate", 1e3),
        "synthetic.sample_lab_us": statistics.median(per_call_us) if per_call_us else 0.0,
        "synthetic.sample_lab_calls": med("calls", "synthetic.sample_lab"),
        "synthetic.redraw_ratio": traced["redraws"] / sample_calls if sample_calls else 0.0,
        "trace.untraced_p50_ms": _ms(untraced_p50),
        "trace.traced_p50_ms": _ms(traced_p50),
        "trace.overhead_ms": _ms(traced_p50 - untraced_p50),
        "trace.overhead_share": traced_ref / untraced_ref - 1.0,
        "trace.self_sum_ms": _ms(statistics.median(self_sums)),
        "trace.accounted_share": self_sum_ref / untraced_ref,
    }


def write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("op,span,parent,name,start,end\n")
        for op, span, parent, name, start, end in spans:
            handle.write(f"{op},{span},{parent},{name},{start!r},{end!r}\n")


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))

    start = perf_counter()
    import kclink

    if not Path(kclink.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"kclink was imported from {kclink.__file__}, not {src}")
    op = workloads.make_op(job)
    for i in range(job["warmup"]):
        op(i)
    result = {"setup_s": perf_counter() - start}

    if job["mode"] != "setup":
        check = workloads.make_check(job)
        seconds = job["seconds"]
        if job["mode"] == "measure":
            result.update(_loop(op, check, job["warmup"], seconds))
        else:
            untraced = _loop(op, check, job["warmup"], seconds / 2)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = _loop(op, check, untraced["next"], seconds / 2, tracer)
            write_spans(tracer.spans, Path(job["spans"]))
            result.update(
                latencies=untraced["latencies"] + traced["latencies"],
                failures=untraced["failures"] + traced["failures"],
                layers=layer_metrics(tracer, traced, untraced),
            )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
