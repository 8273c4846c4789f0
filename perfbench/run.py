"""kclink benchmark: one workload per run, every output checked by an oracle.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli-link-10k --seed 1 --seconds 20 --trace 0

The workloads are described in ``workloads.py``; ``layers.json`` maps each
per-layer metric to its layer and to the end-to-end metric and workload it
should move.  The run draws its inputs from ``--seed`` into
``.perfbench-work/`` and starts fresh interpreters (``worker.py``) on
kclink's sources in ``src/``, with BLAS pools pinned to one thread:

* ``--trace 0``: several set-up-only interpreters (import kclink and warm
  up) for ``setup_s`` and ``peak_rss_mb``, then one interpreter that runs
  the closed loop for ``--seconds``.  Prints the end-to-end metrics.
* ``--trace 1``: one interpreter that runs the loop untraced for half the
  time and with span wrappers for the other half.  Prints the per-layer
  metrics, including the tracing overhead; spans go to ``spans.csv``.

Latency is gated in units of a reference computation (``ref``): each op's
wall time divided by the time of a fixed stdlib computation run just
before it in the same interpreter (``worker.reference``).  On a shared
host the machine's speed changes by up to 1.9x for tens of seconds at a
time; the ratio cancels that, the wall-clock figures do not.  The median
and tail in milliseconds, the throughput and the error rate are printed
beside the gated metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-link-10k", "cli-inflate-1k", "mc-17")
# fresh interpreters timed for setup_s and peak_rss_mb, after one that
# compiles the sources and is discarded
SETUP_RUNS = 4
# every interpreter is stopped by then, so a run ends within 180 s
BUDGET_S = 170
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def run_worker(job: dict, mode: str, work: Path, tag: str) -> dict:
    job_path = work / f"job-{tag}.json"
    result_path = work / f"result-{tag}.json"
    job_path.write_text(json.dumps({**job, "mode": mode}), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, job["deadline"] - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} worker failed:\n{done.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def end_to_end(job: dict, work: Path, seconds: float) -> tuple[dict, dict, dict]:
    run_worker(job, "setup", work, "prime")
    # half the set-ups before the loop and half after, so that they sample
    # more than one phase of the machine's load
    setups = [run_worker(job, "setup", work, f"setup-{k}") for k in range(SETUP_RUNS // 2)]
    measured = run_worker({**job, "seconds": seconds}, "measure", work, "measure")
    setups += [run_worker(job, "setup", work, f"setup-{k}")
               for k in range(SETUP_RUNS // 2, SETUP_RUNS)]
    latencies = measured["latencies"]
    relative = [op / ref for op, ref in zip(latencies, measured["references"])]
    percentile, tail_s = tail(latencies)
    attempted, failed = len(latencies), len(measured["failures"])
    metrics = {
        "setup_s": (statistics.median(
            [s["setup_s"] for s in setups] + [measured["setup_s"]]), "s"),
        "latency_p50_ref": (statistics.median(relative), "ref"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in setups), "MB"),
    }
    # Printed but not gated.  Co-tenants of a shared host slow every op by
    # up to 1.9x for tens of seconds at a time, which moves wall-clock
    # latencies between runs by more than any bound could allow, while the
    # median latency in units of the reference computation timed beside it
    # stays steady.  Tails move with short bursts even in those units.  The
    # error rate is carried by success_rate: a gated metric never reads 0.
    extra = {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, f"ms (p{percentile:.3f} of {attempted} ops)"),
        "throughput_per_s": (attempted / sum(latencies), "1/s"),
        "reference_p50_ms": (statistics.median(measured["references"]) * 1e3, "ms"),
        "error_rate": (failed / attempted, "ratio"),
    }
    return metrics, extra, measured


def per_layer(job: dict, work: Path, seconds: float) -> tuple[dict, dict, dict]:
    spans = work / "spans.csv"
    traced = run_worker({**job, "seconds": seconds, "spans": str(spans)},
                        "trace", work, "trace")
    units = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["units"]
    metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
    extra = {"ops": (len(traced["latencies"]), f"ops, spans in {spans.relative_to(ROOT)}")}
    return metrics, extra, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    os.environ.update(PINNED)
    src = ROOT / "src"
    if not (src / "kclink" / "__init__.py").is_file():
        print(f"error: kclink sources not found in {src}", file=sys.stderr)
        return 1
    work = ROOT / ".perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    sys.path.insert(0, str(HERE))
    import workloads

    job = {**workloads.prepare(args.workload, args.seed, work),
           "src": str(src), "deadline": deadline}
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, extra, raw = measure(job, work, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; machine {json.dumps(machine())}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for failure in raw["failures"][:10]:
        print(f"  FAILED {failure}")
    attempted, failed = len(raw["latencies"]), len(raw["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
