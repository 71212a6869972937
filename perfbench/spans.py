"""Spans recorded around calls into the engine, and what they add up to.

A span is one JSON line: trace id, span id, parent span id, name, start
and end (CLOCK_MONOTONIC nanoseconds), CPU nanoseconds of this process,
and counts taken at the same boundary. Spans stay in memory until
`Tracer.write`. A layer's self time is its span's duration minus the
part of it that child spans cover.
"""
from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager


class OpenSpan:
    def __init__(self, sid: int | None):
        self.id = sid
        self.counts: dict[str, int] = {}
        self.seconds = 0.0  # set when the span closes


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, trace: str, name: str, parent: int | None = None):
        """Times the block; the yielded OpenSpan takes counts and is the
        parent of spans opened inside it."""
        sp = OpenSpan(next(self._ids))
        start, cpu = time.monotonic_ns(), time.process_time_ns()
        try:
            yield sp
        finally:
            end = time.monotonic_ns()
            sp.seconds = (end - start) / 1e9
            self.spans.append({"trace": trace, "span": sp.id, "parent": parent,
                               "name": name, "start": start, "end": end,
                               "cpu": time.process_time_ns() - cpu,
                               "counts": sp.counts})

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class NullTracer(Tracer):
    """Same calls, nothing kept: the untraced job runs the same code."""

    @contextmanager
    def span(self, trace, name, parent=None):
        yield OpenSpan(None)


def load(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def self_ns(span: dict, spans: list[dict]) -> int:
    """Duration minus the union of the intervals of its direct children."""
    kids = sorted((c["start"], c["end"]) for c in spans
                  if c["parent"] == span["span"] and c["trace"] == span["trace"])
    covered, cur_s, cur_e = 0, None, None
    for s, e in kids:
        s, e = max(s, span["start"]), min(e, span["end"])
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return span["end"] - span["start"] - covered


class Spans:
    """Queries over one loaded trace file."""

    def __init__(self, spans: list[dict]):
        self.spans = spans

    def named(self, name: str, trace_prefix: str = "") -> list[dict]:
        return [s for s in self.spans
                if s["name"] == name and s["trace"].startswith(trace_prefix)]

    def self_s(self, name: str, trace_prefix: str = "") -> float:
        return sum(self_ns(s, self.spans) for s in self.named(name, trace_prefix)) / 1e9

    def cpu_s(self, name: str, trace_prefix: str = "") -> float:
        return sum(s["cpu"] for s in self.named(name, trace_prefix)) / 1e9

    def durations_s(self, name: str, trace_prefix: str = "") -> list[float]:
        return [(s["end"] - s["start"]) / 1e9 for s in self.named(name, trace_prefix)]

    def count(self, name: str, key: str, trace_prefix: str = "") -> int:
        return sum(s["counts"].get(key, 0) for s in self.named(name, trace_prefix))

    def median_s(self, name: str, trace_prefix: str = "") -> float:
        return statistics.median(self.durations_s(name, trace_prefix))
