"""Spans recorded around calls into kclink's layers, from outside kclink.

A ``Tracer`` keeps spans in memory as ``(op, span, parent, name, start,
end)`` tuples.  ``installed`` replaces the module attributes that each
calling module looks up with timing wrappers and always restores them.  A
name that no longer exists is skipped, so it simply records zero calls.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute looked up by that module's code, span name)
WRAP_POINTS = (
    ("kclink.cli", "main", "cli.main"),
    ("kclink.cli", "parse_dataset_with_units", "io.parse"),
    ("kclink.cli", "link", "linking.link"),
    ("kclink.cli", "render_report", "io.render"),
    ("kclink.cli", "emit_plot_data", "io.plot"),
    ("kclink.cli", "minimal_inflation", "inflation.search"),
    ("kclink.io", "validate_dataset", "model.validate"),
    ("kclink.io", "ReportDocument.primary", "io.encode"),
    ("kclink.inflation", "link", "linking.link"),
    ("kclink.inflation", "validate_dataset", "model.validate"),
    ("kclink.synthetic", "generate_scenario", "synthetic.generate"),
    ("kclink.synthetic", "sample_lab", "synthetic.sample_lab"),
    ("kclink.synthetic", "validate_dataset", "model.validate"),
    ("kclink.linking", "link", "linking.link"),
)

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 0

    def enter(self) -> tuple[int, int, float]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(self._next_id)
        return self._next_id, parent, perf_counter()

    def exit(self, name: str, opened: tuple[int, int, float]) -> None:
        end = perf_counter()
        self._stack.pop()
        span, parent, start = opened
        self.spans.append((self.op, span, parent, name, start, end))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name, opened)

        return traced


@contextmanager
def installed(tracer: Tracer, points=WRAP_POINTS):
    """Install wrappers on ``points`` for the duration of the block."""
    saved = []
    try:
        for module_name, dotted, span_name in points:
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, _MISSING)
            if owner is _MISSING:
                continue
            original = vars(owner).get(attr, _MISSING)
            if original is _MISSING:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_op(spans) -> dict[int, dict]:
    """Per op: for each span name, total time, self time and call count,
    plus call counts keyed ``(name, parent name)``."""
    names = {span: name for _, span, _, name, _, _ in spans}
    child_time: dict[int, float] = {}
    for _, _, parent, _, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    ops: dict[int, dict] = {}
    for op, span, parent, name, start, end in spans:
        entry = ops.setdefault(op, {"total": {}, "self": {}, "calls": {}})
        duration = end - start
        entry["total"][name] = entry["total"].get(name, 0.0) + duration
        entry["self"][name] = (
            entry["self"].get(name, 0.0) + duration - child_time.get(span, 0.0)
        )
        entry["calls"][name] = entry["calls"].get(name, 0) + 1
        key = (name, names[parent] if parent else None)
        entry["calls"][key] = entry["calls"].get(key, 0) + 1
    return ops
