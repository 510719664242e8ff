"""Spans recorded by the benchmark around its calls into povmsim.

A span has a name, a start and end on ``time.perf_counter``, the index of
the span that encloses it, the op it belongs to, and free attributes
(route, outcome count, samples).  Spans stay in memory until the run ends.
Tracing off is a ``NullTracer`` whose spans record nothing, so the timed
loops call the same code either way.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def op(self, kind):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        tracer = self.tracer
        self.record["parent"] = tracer.stack[-1] if tracer.stack else None
        self.record["op"] = tracer.current_op
        self.record["index"] = len(tracer.spans)
        tracer.spans.append(self.record)
        tracer.stack.append(self.record["index"])
        self.record["cpu0"] = time.process_time()
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.record["cpu"] = time.process_time() - self.record.pop("cpu0")
        if exc[0] is not None:
            self.record["error"] = exc[0].__name__
        self.tracer.stack.pop()
        return False

    def set(self, **attrs):
        self.record["attrs"].update(attrs)


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.current_op = None
        self.ops_started = 0

    def span(self, name, **attrs):
        return _Span(self, {"name": name, "attrs": dict(attrs)})

    def op(self, kind):
        """Root span of the next op; every span inside it carries its id."""
        self.current_op = self.ops_started
        self.ops_started += 1
        return self.span("op", kind=kind)

    def named(self, name) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_times(self) -> dict:
        """Per span name: count, total duration and self time in seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans are strictly nested because each op runs on one thread.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = s["end"] - s["start"]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[s["index"]]
        return out

    def layer_self_times(self) -> dict:
        """Self time per layer (the span name's first part; ``op`` is the benchmark)."""
        out: dict = {}
        for name, row in self.self_times().items():
            layer = "benchmark" if name == "op" else name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
