"""In-memory spans for the suite's traced run.

A :class:`Tracer` records one :class:`Span` per call the harness makes
into a layer of the program under test: name (the layer), start, end,
the span that caused it and a job id shared by all spans of one job.
Counts (events, tuples, cells, docs, epochs) are attached at the same
boundaries. Nothing is written while a pass runs; :func:`chrome_trace`
and :func:`layers_table` turn the list into artefacts at exit.

Work the harness cannot bracket call-by-call without drowning it in
clock reads — the per-tuple ``generate``/``process`` calls the engine
makes into source and operator logic — is accumulated by
:func:`timed_method` and reported as one *aggregated* child span per
job (:meth:`Tracer.add_aggregate`), so self time still subtracts it
from ``sps.engine.run``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "Span",
    "Tracer",
    "timed_method",
    "self_times",
    "layers_table",
    "chrome_trace",
]


class Span:
    """One timed interval; ``end`` is filled when the block exits."""

    __slots__ = ("sid", "name", "job", "parent", "start", "end", "counts")

    def __init__(self, sid, name, job, parent, start, end=None, counts=None):
        self.sid = sid
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON form: crosses the pipe from a workload's interpreter."""
        return {
            "id": self.sid,
            "name": self.name,
            "job": self.job,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans; nesting follows the ``with`` structure."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: str, **counts):
        """Time the block as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, job, parent, 0.0, counts=counts)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add_aggregate(
        self, name: str, parent: Span, offset: float, seconds: float, calls
    ) -> float:
        """Add a summed child span ``offset`` seconds into ``parent``.

        The interval is synthetic (the calls were interleaved with the
        parent's own work); only its length is measured. Successive
        aggregates of one parent are laid end to end so they never
        overlap. Returns the next free offset.
        """
        seconds = min(seconds, max(parent.duration - offset, 0.0))
        start = parent.start + offset
        self.spans.append(
            Span(
                len(self.spans),
                name,
                parent.job,
                parent.sid,
                start,
                start + seconds,
                {"calls": calls, "aggregated": True},
            )
        )
        return offset + seconds


def timed_method(method, cell: list):
    """Wrap a bound method; add its wall time and a call to ``cell``."""
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        try:
            return method(*args, **kwargs)
        finally:
            cell[0] += clock() - start
            cell[1] += 1

    return timed


def _covered(span: Span, children: list[Span]) -> float:
    """Length of ``span``'s interval covered by the union of children."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span id: duration minus child coverage."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {
        span.sid: span.duration - _covered(span, children.get(span.sid, []))
        for span in spans
    }


def layers_table(spans: list[Span]) -> dict[str, dict]:
    """Self-time seconds, share and span count per span name.

    Shares are of the summed self time, which equals the summed
    duration of the root spans (every instant inside a root belongs to
    exactly one span's self time).
    """
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for span in spans:
        row = table.setdefault(
            span.name, {"self_s": 0.0, "share": 0.0, "spans": 0}
        )
        row["self_s"] += selfs[span.sid]
        row["spans"] += 1
        for key, value in span.counts.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                row[key] = row.get(key, 0) + value
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["self_s"] / total if total > 0 else 0.0
    return table


def chrome_trace(spans_by_workload: dict[str, list[dict]]) -> dict:
    """Chrome ``trace_event`` JSON from :meth:`Span.to_dict` lists.

    One process row per workload."""
    events = []
    for pid, (workload, spans) in enumerate(spans_by_workload.items(), 1):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": workload},
            }
        )
        origin = min((s["start"] for s in spans), default=0.0)
        for span in spans:
            events.append(
                {
                    "name": span["name"],
                    "cat": workload,
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": {
                        "id": span["id"],
                        "parent": span["parent"],
                        "job": span["job"],
                        **span["counts"],
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
