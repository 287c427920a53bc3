"""Span tracer: structured trace events from the simulated engine.

The tracer is the event half of the observability layer. It records a
flat list of :class:`TraceEvent` rows — span begin/end pairs, complete
spans (begin + known duration) and instant markers — each carrying a
span id and an optional parent span id, so tooling can rebuild the
span tree. Event kinds emitted by the engine observer:

- ``run`` — the root span covering the whole simulation;
- ``operator`` — one span per subtask, open for the subtask's lifetime;
- ``serve`` — one complete span per served tuple (service time);
- ``stall`` — one complete span per injected stall;
- ``window.fire`` — instant: a window operator's timer emitted results;
- ``join.match`` — instant: a join emitted a batch of matches.

Timestamps are **simulated seconds**. Events append in simulation
order and carry no wall-clock state, so traces of the same seeded run
are byte-identical. :mod:`repro.obs.export` serialises the list to
JSONL or to Chrome ``trace_event`` JSON for ``chrome://tracing`` /
Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["TraceEvent", "SpanTracer"]

#: Phase markers, mirroring Chrome trace_event semantics.
PH_BEGIN = "B"
PH_END = "E"
PH_COMPLETE = "X"
PH_INSTANT = "i"


@dataclass
class TraceEvent:
    """One trace record.

    ``ts`` is the simulated time in seconds; ``dur`` is only set for
    complete spans. ``pid``/``tid`` follow the Chrome convention the
    exporter keeps: process = cluster node, thread = subtask.
    """

    ph: str
    name: str
    cat: str
    ts: float
    span_id: int
    parent_id: int | None = None
    pid: int = 0
    tid: int = 0
    dur: float | None = None
    args: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (one JSONL line)."""
        row: dict[str, Any] = {
            "ph": self.ph,
            "name": self.name,
            "cat": self.cat,
            "ts": self.ts,
            "span_id": self.span_id,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.parent_id is not None:
            row["parent_id"] = self.parent_id
        if self.dur is not None:
            row["dur"] = self.dur
        if self.args:
            row["args"] = self.args
        return row


class SpanTracer:
    """Collects trace events with parent/child span ids.

    Span ids are sequential integers assigned in emission order, which
    keeps them deterministic for a deterministic event stream. The
    tracer never mutates anything outside its own buffers, so tracing a
    simulation cannot perturb it.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self._next_span = 0
        self._open: dict[int, TraceEvent] = {}

    def _new_span(self) -> int:
        self._next_span += 1
        return self._next_span

    # ------------------------------------------------------------ emitters

    def begin(
        self,
        name: str,
        cat: str,
        ts: float,
        parent_id: int | None = None,
        pid: int = 0,
        tid: int = 0,
        **args: Any,
    ) -> int:
        """Open a span; returns its id (0 when disabled)."""
        if not self.enabled:
            return 0
        span_id = self._new_span()
        event = TraceEvent(
            ph=PH_BEGIN,
            name=name,
            cat=cat,
            ts=ts,
            span_id=span_id,
            parent_id=parent_id,
            pid=pid,
            tid=tid,
            args=dict(args),
        )
        self.events.append(event)
        self._open[span_id] = event
        return span_id

    def end(self, span_id: int, ts: float, **args: Any) -> None:
        """Close a span previously opened with :meth:`begin`."""
        if not self.enabled or span_id == 0:
            return
        opened = self._open.pop(span_id, None)
        if opened is None:
            return
        self.events.append(
            TraceEvent(
                ph=PH_END,
                name=opened.name,
                cat=opened.cat,
                ts=ts,
                span_id=span_id,
                parent_id=opened.parent_id,
                pid=opened.pid,
                tid=opened.tid,
                args=dict(args),
            )
        )

    def complete(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        parent_id: int | None = None,
        pid: int = 0,
        tid: int = 0,
        **args: Any,
    ) -> int:
        """Record a span whose duration is already known."""
        if not self.enabled:
            return 0
        span_id = self._new_span()
        self.events.append(
            TraceEvent(
                ph=PH_COMPLETE,
                name=name,
                cat=cat,
                ts=ts,
                span_id=span_id,
                parent_id=parent_id,
                pid=pid,
                tid=tid,
                dur=dur,
                args=dict(args),
            )
        )
        return span_id

    def instant(
        self,
        name: str,
        cat: str,
        ts: float,
        parent_id: int | None = None,
        pid: int = 0,
        tid: int = 0,
        **args: Any,
    ) -> int:
        """Record a zero-duration marker."""
        if not self.enabled:
            return 0
        span_id = self._new_span()
        self.events.append(
            TraceEvent(
                ph=PH_INSTANT,
                name=name,
                cat=cat,
                ts=ts,
                span_id=span_id,
                parent_id=parent_id,
                pid=pid,
                tid=tid,
                args=dict(args),
            )
        )
        return span_id

    # ------------------------------------------------------------- readers

    def __len__(self) -> int:
        return len(self.events)

    def open_spans(self) -> list[int]:
        """Ids of spans begun but not yet ended (should be empty at exit)."""
        return sorted(self._open)
