"""The engine observer: glue between the engine and registry/tracer.

:class:`EngineObserver` is the single object the engine knows about.
It owns per-subtask counter arrays the hot-path hooks bump directly,
samples them into per-operator time series on the simulated clock, and
emits span/instant trace events for the structural moments of a run
(operator lifetime, tuple service, window fires, join batches, stalls,
backpressure transitions).

**Zero-perturbation invariant.** The observer only *reads* the
simulation: it never draws from any RNG and never mutates engine state.
The engine pushes each sampling deadline as a control instant, read
before anything else at its instant, so an observed run executes the
step it would without the observer: results are bit-identical, only the
event count moves (pinned by ``tests/test_obs.py``).
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import check_time
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import SpanTracer

__all__ = ["EngineObserver", "merge_summaries"]


class EngineObserver:
    """Observes one :class:`~repro.sps.engine.StreamEngine` run.

    ``sample_interval`` is in *simulated* seconds. ``serve_spans``
    controls whether every served tuple becomes a trace span — the
    full story for ``repro trace``, too verbose for sweeps, which pass
    a registry only.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
        sample_interval: float = 0.25,
        serve_spans: bool = True,
    ) -> None:
        check_time("sample_interval", sample_interval)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.sample_interval = sample_interval
        self.serve_spans = serve_spans and tracer is not None
        # Per-gid arrays, allocated at bind time.
        self.tuples_in: list[int] = []
        self.tuples_out: list[int] = []
        self.shuffle_bytes: list[float] = []
        self.stall_s: list[float] = []
        self._runtimes: list = []
        self._ops: dict[str, list[int]] = {}
        self._is_join: list[bool] = []
        self._op_spans: list[int] = []
        self._closed_spans: set[int] = set()
        self._run_span = 0
        self._lag_max: dict[str, float] = {}
        self._end_time = 0.0
        # Fault-tolerance counters (DESIGN.md §13); stay zero unless
        # the engine runs with checkpointing on.
        self.checkpoints = 0
        self.checkpoint_duration_s = 0.0
        self.checkpoint_state_bytes = 0.0
        self.recoveries = 0
        self.recovery_time_s = 0.0
        self.replayed_events = 0

    # ---------------------------------------------------------- lifecycle

    def on_run_start(self, engine) -> None:
        """Bind to the engine's runtimes and open the lifetime spans."""
        from repro.sps.logical_kinds import OperatorKind

        runtimes = engine._runtimes
        self._runtimes = runtimes
        n = len(runtimes)
        self.tuples_in = [0] * n
        self.tuples_out = [0] * n
        self.shuffle_bytes = [0.0] * n
        self.stall_s = [0.0] * n
        self._ops = {}
        self._is_join = [False] * n
        self._op_spans = [0] * n
        self._closed_spans = set()
        for runtime in runtimes:
            self._ops.setdefault(runtime.op_id, []).append(runtime.gid)
            kind = engine.logical.operator(runtime.op_id).kind
            self._is_join[runtime.gid] = kind is OperatorKind.WINDOW_JOIN
        self._lag_max = {op: 0.0 for op in self._ops}
        #: a queue's depth at a deadline, as a clock-ordered queue holds it
        self._queued = engine._queued
        tracer = self.tracer
        if tracer is not None:
            self._run_span = tracer.begin(
                "run", "engine", 0.0, plan=engine.logical.name
            )
            for runtime in runtimes:
                self._op_spans[runtime.gid] = tracer.begin(
                    f"{runtime.op_id}[{runtime.index}]",
                    "operator",
                    0.0,
                    parent_id=self._run_span,
                    pid=runtime.node_id,
                    tid=runtime.gid,
                )

    def on_run_end(self, now: float) -> None:
        """Final sample, close lifetime spans, freeze the end time."""
        self._end_time = now
        self._flush_sample(now)
        tracer = self.tracer
        if tracer is not None:
            for runtime in self._runtimes:
                if runtime.gid not in self._closed_spans:
                    tracer.end(self._op_spans[runtime.gid], now)
            tracer.end(self._run_span, now)

    # ------------------------------------------------------------ sampling

    def sample(self, boundary: float, now: float) -> float:
        """Record one time-series row per operator at the deadline
        ``boundary``; returns the next. Rows are stamped at the last
        boundary that ``now``, the next event's instant, reaches, so tick
        times are stable regardless of which event comes next."""
        interval = self.sample_interval
        # Skip boundaries the simulation jumped over entirely.
        while boundary + interval <= now:
            boundary += interval
        self._flush_sample(boundary)
        return boundary + interval

    def _flush_sample(self, t: float) -> None:
        registry = self.registry
        runtimes = self._runtimes
        tuples_in = self.tuples_in
        tuples_out = self.tuples_out
        shuffle_bytes = self.shuffle_bytes
        stall_s = self.stall_s
        for op, gids in self._ops.items():
            depth = 0
            busy = 0.0
            t_in = 0
            t_out = 0
            sh_bytes = 0.0
            stalled = 0.0
            for gid in gids:
                runtime = runtimes[gid]
                depth += self._queued(runtime, t)
                busy += runtime.busy_time
                t_in += tuples_in[gid]
                t_out += tuples_out[gid]
                sh_bytes += shuffle_bytes[gid]
                stalled += stall_s[gid]
            lag = self._lag_max[op]
            self._lag_max[op] = 0.0
            registry.record_sample(
                t,
                op,
                queue_depth=depth,
                busy_s=busy,
                tuples_in=t_in,
                tuples_out=t_out,
                shuffle_bytes=sh_bytes,
                stall_s=stalled,
                watermark_lag_s=lag,
            )
            registry.set_gauge("queue_depth", op, depth)

    # ---------------------------------------------------- hot-path hooks

    def on_serve(
        self, runtime, now: float, service: float, wait: float
    ) -> None:
        """A subtask started serving a tuple (service time is known)."""
        op = runtime.op_id
        registry = self.registry
        registry.observe("service_s", op, service)
        registry.observe("wait_s", op, wait)
        if self.serve_spans:
            self.tracer.complete(
                op,
                "serve",
                now,
                service,
                parent_id=self._op_spans[runtime.gid],
                pid=runtime.node_id,
                tid=runtime.gid,
            )

    def on_done(self, runtime, now: float, tup, outputs: list) -> None:
        """A tuple finished processing and produced ``outputs``."""
        gid = runtime.gid
        self.tuples_out[gid] += len(outputs)
        lag = now - tup.event_time
        if lag > 0:
            op = runtime.op_id
            self.registry.observe("watermark_lag_s", op, lag)
            if lag > self._lag_max[op]:
                self._lag_max[op] = lag
        if outputs and self._is_join[gid] and self.tracer is not None:
            self.tracer.instant(
                "join.match",
                "window",
                now,
                parent_id=self._op_spans[gid],
                pid=runtime.node_id,
                tid=gid,
                batch=len(outputs),
            )

    def on_window_fire(self, runtime, now: float, count: int) -> None:
        """A window operator's timer emitted ``count`` results."""
        self.tuples_out[runtime.gid] += count
        self.registry.inc("window_fires", runtime.op_id)
        if self.tracer is not None:
            self.tracer.instant(
                "window.fire",
                "window",
                now,
                parent_id=self._op_spans[runtime.gid],
                pid=runtime.node_id,
                tid=runtime.gid,
                results=count,
            )

    def on_flush(self, runtime, now: float, count: int) -> None:
        """End-of-stream flush forced ``count`` buffered results out."""
        self.tuples_out[runtime.gid] += count
        self.registry.inc("flush_emits", runtime.op_id, count)

    def on_stall(self, runtime, now: float, duration: float) -> None:
        """An injected stall froze a subtask for ``duration`` seconds."""
        self.stall_s[runtime.gid] += duration
        self.registry.inc("stall_s", runtime.op_id, duration)
        if self.tracer is not None:
            self.tracer.complete(
                "stall",
                "stall",
                now,
                duration,
                parent_id=self._op_spans[runtime.gid],
                pid=runtime.node_id,
                tid=runtime.gid,
            )

    def on_rescale(
        self,
        engine,
        now: float,
        op_id: str,
        old_gids: list[int],
        new_gids: list[int],
        migrated_keys: int,
        pause_s: float,
    ) -> None:
        """A rescale swapped ``op_id``'s subtask generation.

        Grows the per-gid arrays by the new generation's gids. Retired
        gids keep their counters — the summary's totals span the whole
        run.
        """
        from repro.sps.logical_kinds import OperatorKind

        runtimes = engine._runtimes
        grow = len(runtimes) - len(self.tuples_in)
        if grow > 0:
            self.tuples_in.extend([0] * grow)
            self.tuples_out.extend([0] * grow)
            self.shuffle_bytes.extend([0.0] * grow)
            self.stall_s.extend([0.0] * grow)
            self._op_spans.extend([0] * grow)
            is_join = (
                engine.logical.operator(op_id).kind
                is OperatorKind.WINDOW_JOIN
            )
            self._is_join.extend([is_join] * grow)
        gids = self._ops.setdefault(op_id, [])
        for gid in new_gids:
            if gid not in gids:
                gids.append(gid)
        registry = self.registry
        registry.inc("rescales", op_id)
        registry.inc("migrated_keys", op_id, migrated_keys)
        registry.set_gauge("parallelism", op_id, len(new_gids))
        tracer = self.tracer
        if tracer is not None:
            for gid in old_gids:
                if gid not in self._closed_spans:
                    tracer.end(self._op_spans[gid], now)
                    self._closed_spans.add(gid)
            for gid in new_gids:
                runtime = runtimes[gid]
                self._op_spans[gid] = tracer.begin(
                    f"{runtime.op_id}[{runtime.index}]@e{runtime.epoch}",
                    "operator",
                    now,
                    parent_id=self._run_span,
                    pid=runtime.node_id,
                    tid=gid,
                )
            tracer.complete(
                f"rescale {op_id} "
                f"{len(old_gids)}->{len(new_gids)}",
                "rescale",
                now,
                pause_s,
                parent_id=self._run_span,
                keys=migrated_keys,
            )

    def on_checkpoint(self, engine, record) -> None:
        """An aligned checkpoint completed (DESIGN.md §13)."""
        self.checkpoints += 1
        self.checkpoint_duration_s += record.duration_s
        self.checkpoint_state_bytes = record.state_bytes
        registry = self.registry
        registry.inc("checkpoints", "engine")
        registry.observe("checkpoint_duration_s", "engine", record.duration_s)
        if self.tracer is not None:
            self.tracer.complete(
                f"checkpoint #{record.ckpt_id}",
                "ft",
                record.triggered_at,
                record.duration_s,
                parent_id=self._run_span,
                state_items=record.state_items,
                state_bytes=record.state_bytes,
            )

    def on_recovery(
        self, engine, node_id: int, pause_s: float, replayed: int, ckpt_id
    ) -> None:
        """A node failure triggered checkpoint recovery."""
        self.recoveries += 1
        self.recovery_time_s += pause_s
        self.replayed_events += replayed
        registry = self.registry
        registry.inc("recoveries", "engine")
        registry.observe("recovery_time_s", "engine", pause_s)
        if self.tracer is not None:
            self.tracer.complete(
                f"recovery node={node_id} ckpt={ckpt_id}",
                "ft",
                engine._k.now,
                pause_s,
                parent_id=self._run_span,
                replayed=replayed,
            )

    def on_backpressure(self, runtime, now: float, engaged: bool) -> None:
        """A subtask engaged (True) or released (False) flow control."""
        name = "backpressure.engage" if engaged else "backpressure.release"
        self.registry.inc(name, runtime.op_id)
        if self.tracer is not None:
            self.tracer.instant(
                name,
                "flow",
                now,
                parent_id=self._op_spans[runtime.gid],
                pid=runtime.node_id,
                tid=runtime.gid,
            )

    # ------------------------------------------------------------ readers

    def op_ids(self) -> list[str]:
        """Operator ids in plan order of first subtask."""
        return list(self._ops)

    def process_names(self) -> dict[int, str]:
        """Chrome-export process labels: cluster nodes."""
        return {
            runtime.node_id: f"node {runtime.node_id}"
            for runtime in self._runtimes
        }

    def thread_names(self) -> dict[tuple[int, int], str]:
        """Chrome-export thread labels: subtasks."""
        return {
            (runtime.node_id, runtime.gid): (
                f"{runtime.op_id}[{runtime.index}]"
            )
            for runtime in self._runtimes
        }

    def summary(self) -> dict[str, Any]:
        """Per-operator totals plus run-wide aggregates.

        Plain floats/ints only, so the summary travels through
        ``RunMetrics.extras`` and the document store unchanged.
        """
        ops: dict[str, dict[str, Any]] = {}
        totals = {
            "tuples_in": 0,
            "tuples_out": 0,
            "busy_s": 0.0,
            "shuffle_bytes": 0.0,
            "stall_s": 0.0,
        }
        registry = self.registry
        for op, gids in self._ops.items():
            runtimes = [self._runtimes[gid] for gid in gids]
            entry: dict[str, Any] = {
                "subtasks": len(gids),
                "tuples_in": sum(self.tuples_in[gid] for gid in gids),
                "tuples_out": sum(self.tuples_out[gid] for gid in gids),
                "busy_s": sum(r.busy_time for r in runtimes),
                "shuffle_bytes": sum(self.shuffle_bytes[gid] for gid in gids),
                "stall_s": sum(self.stall_s[gid] for gid in gids),
                "queue_peak": max(r.queue_peak for r in runtimes),
            }
            service = registry.histogram("service_s", op)
            if service is not None:
                entry["service_mean_s"] = service.mean
                entry["service_p95_s"] = service.quantile(0.95)
            lag = registry.histogram("watermark_lag_s", op)
            if lag is not None:
                entry["watermark_lag_max_s"] = lag.maximum
            window = _window_counters(runtimes)
            if window:
                entry.update(window)
            ops[op] = entry
            totals["tuples_in"] += entry["tuples_in"]
            totals["tuples_out"] += entry["tuples_out"]
            totals["busy_s"] += entry["busy_s"]
            totals["shuffle_bytes"] += entry["shuffle_bytes"]
            totals["stall_s"] += entry["stall_s"]
        out: dict[str, Any] = {
            "sample_interval": self.sample_interval,
            "duration_s": self._end_time,
            "samples": len(registry.series),
            "ops": ops,
            "totals": totals,
        }
        if self.checkpoints or self.recoveries:
            out["ft"] = {
                "checkpoints": self.checkpoints,
                "checkpoint_duration_mean_s": (
                    self.checkpoint_duration_s / self.checkpoints
                    if self.checkpoints
                    else 0.0
                ),
                "state_bytes": self.checkpoint_state_bytes,
                "recoveries": self.recoveries,
                "recovery_time_s": self.recovery_time_s,
                "replayed_events": self.replayed_events,
            }
        return out


#: Window-operator counters surfaced per op when any subtask's logic
#: (or chained member) exposes them: fire/match totals plus the live
#: slice-state footprint of the slice-based window operators.
_WINDOW_COUNTERS = (
    "windows_fired",
    "matches_emitted",
    "late_dropped",
    "live_slices",
    "pending_windows",
)


def _window_counters(runtimes: list) -> dict[str, int]:
    """Sum window counters over subtask logics (incl. chained members)."""
    out: dict[str, int] = {}
    for runtime in runtimes:
        logic = runtime.logic
        members = getattr(logic, "logics", None) or (logic,)
        for member in members:
            for name in _WINDOW_COUNTERS:
                value = getattr(member, name, None)
                if value is not None:
                    out[name] = out.get(name, 0) + int(value)
    return out


def merge_summaries(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """Mean per-operator summary over repeated runs of one configuration.

    Numeric fields average across the repeats that report the operator;
    ``subtasks`` (structural, identical across repeats) passes through.
    """
    if not summaries:
        return {}
    merged_ops: dict[str, dict[str, Any]] = {}
    for summary in summaries:
        for op, entry in summary.get("ops", {}).items():
            bucket = merged_ops.setdefault(op, {"_n": 0})
            bucket["_n"] += 1
            for key, value in entry.items():
                if key == "subtasks":
                    bucket[key] = value
                else:
                    bucket[key] = bucket.get(key, 0.0) + float(value)
    ops: dict[str, dict[str, Any]] = {}
    for op, bucket in merged_ops.items():
        n = bucket.pop("_n")
        ops[op] = {
            key: (value / n if key != "subtasks" else value)
            for key, value in bucket.items()
        }
    return {
        "repeats": len(summaries),
        "sample_interval": summaries[0].get("sample_interval"),
        "ops": ops,
    }
