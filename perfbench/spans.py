"""In-memory spans for the traced run.

A span has a name, start and end (perf_counter_ns, which is CLOCK_MONOTONIC
on Linux and so comparable across processes), the id of the span that
caused it and the id of the request it belongs to. Spans stay in memory
until write() dumps them with per-name totals and self time.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent_id: int | None
    request_id: int | None
    counts: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Span | None = None, request_id: int | None = None) -> Span:
        if request_id is None and parent is not None:
            request_id = parent.request_id
        span = Span(len(self.spans), name, start_ns, end_ns,
                    parent.span_id if parent else None, request_id)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: Span | None = None, request_id: int | None = None):
        """Record a span around the with-block; yields the open span."""
        span = self.add(name, time.perf_counter_ns(), 0, parent, request_id)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()

    def named(self, name: str, under: Span | None = None) -> list[Span]:
        """Spans called `name`, optionally only those below the span `under`."""
        found = []
        for s in self.spans:
            if s.name != name:
                continue
            parent = s.parent_id
            while under is not None and parent is not None and parent != under.span_id:
                parent = self.spans[parent].parent_id
            if under is None or parent == under.span_id:
                found.append(s)
        return found

    def median(self, name: str, scale_ns: float, under: Span | None = None) -> float:
        values = [s.duration_ns for s in self.named(name, under)]
        if not values:
            raise KeyError(f"no span named {name!r} was recorded")
        return statistics.median(values) / scale_ns

    def self_times(self) -> dict[str, dict]:
        """Per name: count, total and self time (total minus child coverage), in ms."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append(s)
        summary: dict[str, dict] = {}
        for s in self.spans:
            covered, cursor = 0, s.start_ns
            for c in sorted(children.get(s.span_id, []), key=lambda c: c.start_ns):
                lo, hi = max(c.start_ns, cursor), min(c.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = summary.setdefault(s.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += s.duration_ns / 1e6
            entry["self_ms"] += (s.duration_ns - covered) / 1e6
        return summary

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"summary": self.self_times(),
                       "spans": [asdict(s) for s in self.spans]}, fh)
