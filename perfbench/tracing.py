"""In-memory spans around the benchmark's calls into flicforq.

A span is (name, start, end, parent, op, error).  ``name`` is
``<module>.<layer>`` (``compiler.calibrate``, ``integrator.propagator``,
...) or ``op`` for the root span of one operation.  Spans are kept in a
list and written out once, when the run ends.  With tracing off,
``Tracer.call`` is a plain call and records nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = None

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, inside a span when tracing."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "error": None,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one operation; every span inside carries ``op_id``."""
        prev, self._op = self._op, op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = prev


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((s["end"] - s["start"]) - covered)
    return out


def layer_totals(spans: list[dict], ops) -> tuple[dict[str, float], float]:
    """Self time per span name over the spans of ``ops``, and the summed
    duration of those ops' root spans."""
    ops = set(ops)
    totals: dict[str, float] = {}
    op_time = 0.0
    for s, st in zip(spans, self_times(spans)):
        if s["op"] not in ops:
            continue
        totals[s["name"]] = totals.get(s["name"], 0.0) + st
        if s["name"] == "op":
            op_time += s["end"] - s["start"]
    return totals, op_time


def error_counts(spans: list[dict]) -> dict[str, int]:
    """Exceptions raised inside each module's spans, counted once per
    raising span (an exception passing up through ``op`` is not recounted)."""
    out: dict[str, int] = {}
    for s in spans:
        if s["error"] and s["name"] != "op":
            mod = s["name"].split(".", 1)[0]
            out[mod] = out.get(mod, 0) + 1
    return out
