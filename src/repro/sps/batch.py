"""The columnar micro-batch executor (``SimulationConfig.batch_size``).

The scalar engine (:mod:`repro.sps.engine`) interprets one heap event per
tuple per hop; its Python dispatch cost bounds throughput far below what
the simulated workloads need for large sweeps.  Batch mode replaces the
event loop with a **stage-at-a-time columnar executor**: operators are
visited once in topological order and consume their whole input stream as
fixed-size :class:`~repro.sps.columnar.TupleBatch` micro-batches, with
vectorized kernels for filters, column-wise maps, columnar flat-map
expansion and the slice-based window aggregations, and an automatic
per-tuple scalar fallback for everything else (UDOs, joins, count
windows, ragged streams).

Batch mode simulates with **two clocks**:

- The *data plane* runs on ideal time: every tuple carries the timestamp
  ``now`` at which the unloaded pipeline would process it (its source
  arrival time, propagated downstream) plus a global emission sequence
  ``seq``.  All window assignment, watermarking, firing and merge
  ordering use ``(now, seq)`` only — so the simulated *results* (sink
  values, window fires, counters) are invariant to the batch size, and
  the property suite pins them against the scalar engine.
- The *timing plane* runs per micro-batch: each subtask is a single
  server obeying the Lindley recursion ``start_b = max(ready_b,
  free_{b-1})``, ``done_b = start_b + base_service * work_b`` (one
  lognormal noise factor per batch, from the dedicated
  ``("engine", "batch-noise")`` stream), plus the scalar path's exact
  serde/coordination overhead per routed output and the affine network
  delay charged once per transferred sub-batch (``latency +
  total_bytes / bandwidth`` — batches travel as units).  End-to-end
  latency is ``sink-batch done − origin`` per result.

Known deviations from the scalar event loop, all deliberate and pinned
in ``DESIGN.md``: service noise is drawn per batch from one stream
(arrival times are the scalar loop's: both read the sources' private
``…/arrivals`` streams), timer ticks stop at the stream drain time
(later fires surface through the end-of-stream flush),
queue-depth/wait metrics are batch-granular estimates, throughput is
measured over the full simulated span (batch-granular sink arrivals can
collapse the scalar first-arrival-to-end window), and stall injection
is not modelled (rejected at configuration time).
With ``batch_size=1``, zero cost noise and forward exchanges the two
engines produce bit-identical sink samples (``tests/test_batch_engine``).
"""

from __future__ import annotations

from repro.kernel.core import BudgetExceededError
from repro.sps.columnar import TupleBatch, require_numpy
from repro.sps.engine import _static_work
from repro.sps.operators.aggregate import (
    RESULT_SIZE_BYTES,
    WindowAggregateLogic,
)
from repro.sps.operators.event_aggregate import EventTimeWindowAggregateLogic
from repro.sps.operators.filter_op import FilterLogic
from repro.sps.operators.join import WindowJoinLogic
from repro.sps.operators.map_op import FlatMapLogic, MapLogic
from repro.sps.operators.sink import SinkLogic
from repro.sps.partitioning import (
    HashPartitioner,
    RebalancePartitioner,
    _memo_hash,
)
from repro.sps.windows import ordered_sum

try:  # pragma: no cover - numpy is present in every supported env
    import numpy as np
except ImportError:  # pragma: no cover - guarded by require_numpy()
    np = None  # type: ignore[assignment]

__all__ = ["ColumnarExecutor", "static_kernel"]

#: Arrival gaps drawn per RNG call; bounds the block when a time-cut run
#: carries a tuple budget it will never reach.
_GAP_BLOCK = 1 << 16

_NUMERIC = (int, float, bool)

_NO_VECTOR_FN = "no vector_fn; pass one to builders.{}(..., vector_fn=...)"


def static_kernel(logic) -> tuple[str | None, str | None]:
    """``(kernel, None)`` if the logic's class has a vectorized kernel,
    else ``(None, why not)``: the half of the executor's dispatch that
    needs no data. :meth:`ColumnarExecutor._kernel_mode` adds the checks
    on the input it actually meets; the ``BAT702`` lint reports the
    reason (:mod:`repro.analysis.rules`)."""
    if isinstance(logic, FlatMapLogic):
        # Fan-out work is dynamic but mirrored exactly by expand_batch,
        # so the vectorized form needs no static work factor.
        if logic.has_vector_fn:
            return "flatmap", None
        return None, _NO_VECTOR_FN.format("flat_map")
    if isinstance(logic, WindowJoinLogic):
        return None, "window joins keep per-key scalar join state"
    if _static_work(logic) is not None:  # else dynamic work: custom logic
        if isinstance(
            logic, (WindowAggregateLogic, EventTimeWindowAggregateLogic)
        ):
            if logic.supports_batch():
                return "window", None
            return None, "count-based windows keep scalar ring-buffer state"
        if isinstance(logic, FilterLogic):
            return "filter", None
        if isinstance(logic, MapLogic):
            if logic.has_vector_fn:
                return "map", None
            return None, _NO_VECTOR_FN.format("map_values")
    return None, "user-defined operators run custom per-tuple logic"


class ColumnarExecutor:
    """Runs one built :class:`~repro.sps.engine.StreamEngine` in batch mode.

    The engine constructs runtimes, routing tables and RNG streams
    exactly as for a scalar run; the executor replaces only the event
    loop, then fills the same runtime counters and delegates to the
    engine's ``_collect_metrics`` so :class:`RunMetrics` comes from one
    code path.
    """

    def __init__(self, engine) -> None:
        require_numpy()
        self.engine = engine
        self.batch_size = int(engine.config.batch_size)

    # ------------------------------------------------------------------ run

    def run(self):
        """Execute the whole plan stage-at-a-time in topological order.

        Drives every source to exhaustion, pushes micro-batches through
        each subtask's kernel (or scalar fallback), fires the
        end-of-stream window flush, and leaves results/metrics state on
        the wrapped :class:`StreamEngine` exactly where the scalar event
        loop would.
        """
        eng = self.engine
        kernel = eng._k
        kernel.events_processed = 0
        kernel.now = 0.0
        eng._flush_time = None
        eng._last_source_time = 0.0
        self._obs = eng._obs
        self._events = 0
        self._final_now = 0.0
        self._next_seq = 0
        self._max_events = eng.config.max_events
        # One noise factor per batch, whichever subtask serves it, from
        # a stream of batch mode's own.
        self._rng_noise = eng._rngs.fresh("engine", "batch-noise")
        #: per-gid, per-port delivery buffers: list of (batch, avail)
        self._inbox: list[dict[int, list]] = [{} for _ in eng._runtimes]
        if self._obs is not None:
            self._obs.on_run_start(eng)
        race = eng.race_detector
        if race is not None:
            race.on_run_start(eng)

        arrivals = self._replay_arrivals()
        self._drain = (
            eng._last_source_time if self._n_arrivals > 0 else None
        )

        runtimes = eng._runtimes
        for op_id in eng.logical.topological_order():
            gids = eng.physical.op_subtasks.get(op_id)
            if not gids:
                continue  # fused chain tails run inside their head
            for gid in gids:
                runtime = runtimes[gid]
                if runtime.is_source:
                    self._run_source(runtime, arrivals[gid])
                else:
                    self._run_instance(runtime)
                if self._events > self._max_events:
                    kernel.events_processed = self._events
                    raise BudgetExceededError(self._max_events)

        if self._drain is not None:
            eng._flush_time = self._drain
            if self._drain > self._final_now:
                self._final_now = self._drain
        kernel.now = self._final_now
        kernel.events_processed = self._events
        if self._obs is not None:
            self._obs.on_run_end(kernel.now)
        if race is not None:
            race.on_run_end()
        return eng._collect_metrics()

    # ------------------------------------------------------------- arrivals

    def _replay_arrivals(self):
        """Every source's ideal arrival times, without generating tuples:
        the scalar loop's chain (:meth:`_arrival_times`), so scalar,
        batch and sharded runs agree on every arrival time. Tuple values
        come from the source's own logic stream, so generation is
        deferred to :meth:`_run_source` (per micro-batch) where it can
        be vectorized."""
        eng = self.engine
        per: dict = {}
        last = 0.0
        for runtime in eng._runtimes:
            if runtime.is_source:
                times = per[runtime.gid] = self._arrival_times(runtime)
                if len(times) and times[-1] > last:
                    last = float(times[-1])
        eng._last_source_time = last
        self._n_arrivals = sum(len(times) for times in per.values())
        return per

    def _arrival_times(self, runtime):
        """One source's arrival times up to its budget or max_sim_time:
        the scalar chain (``StreamEngine._arrival_block``), read in
        ``_GAP_BLOCK``-instant requests. A short block met the cut."""
        chunks = [np.empty(0)]
        left = runtime.arrival_budget
        at = 0.0
        while left > 0:
            block = min(left, _GAP_BLOCK)
            left -= block
            times = self.engine._arrival_block(runtime, at, block)
            chunks.append(times)
            if len(times) < block:
                break
            at = float(times[-1])
        return np.concatenate(chunks)

    # ------------------------------------------------------------- plumbing

    def _new_seqs(self, n: int):
        start = self._next_seq
        self._next_seq += n
        return np.arange(start, start + n, dtype=np.int64)

    def _tick_times(self, interval) -> list:
        """This instance's ideal timer schedule (scalar tick times)."""
        if not interval:
            return []
        drain = self._drain
        if drain is None:
            horizon = self.engine.config.max_sim_time + 10.0 * interval
        else:
            horizon = drain
        out = []
        t = interval
        # Repeated addition, matching the scalar loop's now + interval
        # chain bit-for-bit.
        while t <= horizon:
            out.append(t)
            t += interval
        return out

    def _merge(self, entries):
        """Merge deliveries into one (now, seq)-ordered batch.

        Returns ``(batch, avail, ports)`` with per-row timing-plane
        availability and input port.
        """
        batches = [entry[0] for entry in entries]
        avail = np.concatenate(
            [
                np.full(len(batch), when, dtype=np.float64)
                for batch, when, _ in entries
            ]
        )
        ports = np.concatenate(
            [
                np.full(len(batch), port, dtype=np.int64)
                for batch, _, port in entries
            ]
        )
        merged = TupleBatch.concat(batches)
        if len(entries) > 1:
            order = np.lexsort((merged.seq, merged.now))
            merged = merged.take(order)
            avail = avail[order]
            ports = ports[order]
        return merged, avail, ports

    def _serve(
        self, runtime, work, chunk_avail, sorted_avail, served_before, free
    ) -> float:
        """Serve one micro-batch and book it; returns its completion.

        The Lindley step — ``start = max(ready, free)`` with ``ready``
        the batch's last availability, ``done = start + service`` under
        one noise factor — then waits, the batch-granular queue depth
        (rows of the instance's whole input available by ``start`` and
        not served before this batch) and one event-equivalent."""
        ready = float(np.max(chunk_avail))
        start = ready if ready > free else free
        service = runtime.base_service * work
        sigma = runtime.noise_sigma
        if sigma > 0:
            service *= self._rng_noise.lognormal(runtime.noise_mu, sigma)
        done = start + service
        runtime.busy_time += service
        n = len(chunk_avail)
        runtime.served += n
        runtime.wait_time += float(np.sum(start - chunk_avail))
        depth = (
            int(np.searchsorted(sorted_avail, start, side="right"))
            - served_before
        )
        if depth < 1:
            depth = 1
        if depth > runtime.queue_peak:
            runtime.queue_peak = depth
        obs = self._obs
        if obs is not None:
            obs.tuples_in[runtime.gid] += n
            wait = float(np.mean(start - chunk_avail)) if n else 0.0
            obs.on_serve(runtime, start, service, wait)
        self._events += 1
        self._track(done)
        return done

    def _track(self, time: float) -> None:
        if time > self._final_now:
            self._final_now = time

    # -------------------------------------------------------------- routing

    def _route_batch(self, runtime, batch, emit: float) -> float:
        """Deliver one emission downstream; returns sender serde overhead.

        Mirrors the scalar ``_route`` accounting: serde/coordination
        overhead accumulates per channel group in plan order and offsets
        every delivery of that group and later ones; network delay is
        affine in the *transferred* payload — here the whole sub-batch,
        since batch mode ships batches, not tuples.
        """
        n = len(batch)
        if n == 0:
            return 0.0
        table = runtime.route_table
        if not table:
            return 0.0
        obs = self._obs
        offset = 0.0
        for (
            channel,
            fixed,
            key_field,
            consumers,
            num_channels,
            latencies,
            bandwidths,
            port,
            shuffle_cost,
            _,
            _,
        ) in table:
            out = batch
            if key_field is not None:
                out = batch.with_key(self._key_column(batch, key_field))
            if fixed is not None:
                if shuffle_cost:
                    offset += shuffle_cost * len(fixed) * n
                    if obs is not None:
                        obs.shuffle_bytes[runtime.gid] += (
                            float(out.size_bytes.sum()) * len(fixed)
                        )
                for idx in fixed:
                    self._deliver(
                        out,
                        consumers[idx],
                        idx,
                        port,
                        emit,
                        offset,
                        latencies,
                        bandwidths,
                    )
                continue
            partitioner = channel.__self__
            idx_arr = self._select_indices(partitioner, out, num_channels)
            if idx_arr is not None:
                if shuffle_cost:
                    offset += shuffle_cost * n
                    if obs is not None:
                        obs.shuffle_bytes[runtime.gid] += float(
                            out.size_bytes.sum()
                        )
                order = np.argsort(idx_arr, kind="stable")
                sorted_idx = idx_arr[order]
                bounds = np.flatnonzero(sorted_idx[1:] != sorted_idx[:-1])
                starts = np.concatenate(([0], bounds + 1)).tolist()
                stops = np.concatenate((bounds + 1, [n])).tolist()
                for a, b in zip(starts, stops):
                    rows = order[a:b]
                    self._deliver(
                        out.take(rows),
                        consumers[int(sorted_idx[a])],
                        int(sorted_idx[a]),
                        port,
                        emit,
                        offset,
                        latencies,
                        bandwidths,
                    )
                continue
            # Generic path: per-row channel for custom partitioners (or
            # hash exchanges whose keys need the scalar error message).
            tuples = out.to_tuples()
            buckets: dict[int, list[int]] = {}
            sizes = out.size_bytes
            nbytes = 0.0
            for i, tup in enumerate(tuples):
                nbytes += float(sizes[i])
                buckets.setdefault(channel(tup, num_channels), []).append(i)
            if shuffle_cost:
                offset += shuffle_cost * len(tuples)
                if obs is not None:
                    obs.shuffle_bytes[runtime.gid] += nbytes
            for idx in sorted(buckets):
                rows = np.asarray(buckets[idx], dtype=np.int64)
                self._deliver(
                    out.take(rows),
                    consumers[idx],
                    idx,
                    port,
                    emit,
                    offset,
                    latencies,
                    bandwidths,
                )
        return offset

    def _deliver(
        self,
        sub,
        consumer_gid: int,
        idx: int,
        port: int,
        emit: float,
        offset: float,
        latencies,
        bandwidths,
    ) -> None:
        total_bytes = float(sub.size_bytes.sum())
        delay = latencies[idx] + total_bytes / bandwidths[idx]
        avail = emit + delay + offset
        self._track(avail)
        self._inbox[consumer_gid].setdefault(port, []).append((sub, avail))

    @staticmethod
    def _key_column(batch, key_field: int):
        if batch.columns is not None:
            return batch.columns[key_field]
        out = np.empty(len(batch), dtype=object)
        out[:] = [row[key_field] for row in batch.rows]
        return out

    def _select_indices(self, partitioner, batch, num_channels: int):
        """Vectorized per-row consumer index, or None for the slow path."""
        n = len(batch)
        if isinstance(partitioner, RebalancePartitioner):
            if num_channels <= 0:
                return None  # channel() raises the PlanError
            idx = (
                partitioner._next + np.arange(n, dtype=np.int64)
            ) % num_channels
            partitioner._next += n
            return idx
        if isinstance(partitioner, HashPartitioner):
            if num_channels <= 0:
                return None
            if partitioner.key_field is not None:
                keys = self._key_column(batch, partitioner.key_field)
            else:
                keys = batch.key
                if keys is None:
                    return None  # channel() raises the "needs a key" error
            kind = keys.dtype.kind
            if kind in "bui" or kind == "i":
                # int(key) % 2**64 is exactly the uint64 wrap.
                wrapped = keys.astype(np.uint64)
                return (wrapped % np.uint64(num_channels)).astype(np.int64)
            if kind in "SU":
                # Fixed-width strings cannot hold None and group at C
                # speed: hash each distinct key once, map back through
                # the inverse index.
                keys, inverse = np.unique(keys, return_inverse=True)
            items = keys.tolist()
            if any(item is None for item in items):
                return None
            cache, key_field = partitioner._hash_cache, partitioner.key_field
            out = np.empty(len(items), dtype=np.int64)
            for i, key in enumerate(items):
                out[i] = _memo_hash(cache, key, key_field) % num_channels
            return out[inverse] if kind in "SU" else out
        return None

    # ------------------------------------------------------------ emissions

    def _emit_pass(self, runtime, batch, emit: float) -> float:
        """Route a pass-through emission (counts as served output rows)."""
        n = len(batch)
        batch.seq = self._new_seqs(n)
        if self._obs is not None:
            self._obs.tuples_out[runtime.gid] += n
        self._track(emit)
        return self._route_batch(runtime, batch, emit)

    def _emit_fires(self, runtime, fires, tick_base: float, tuple_emit):
        """Route fired windows, given as the window kernels' columns.

        ``fires`` is five parallel lists — fire time, tick-triggered
        flag, key, aggregate, earliest origin — in emission order.
        Tick-triggered outputs become available at ``max(fire_time,
        tick_base)`` (the previous batch's completion — the server was
        free when the timer fired); tuple-triggered ones at the firing
        batch's own completion time.  Consecutive outputs sharing an
        availability are routed as one sub-batch.
        """
        times, flags, keys, aggregates, origins = fires
        obs = self._obs
        overhead = 0.0
        total = len(times)
        i = 0
        while i < total:
            is_tick = flags[i]
            emit = max(times[i], tick_base) if is_tick else tuple_emit
            j = i + 1
            while (
                j < total
                and flags[j] == is_tick
                and (not is_tick or max(times[j], tick_base) == emit)
            ):
                j += 1
            batch = TupleBatch.from_lists(
                (keys[i:j], aggregates[i:j]),
                0,
                origins[i:j],
                RESULT_SIZE_BYTES,
                times[i:j],
                self._new_seqs(j - i),
            )
            if obs is not None:
                if is_tick:
                    obs.on_window_fire(runtime, times[i], j - i)
                else:
                    obs.tuples_out[runtime.gid] += j - i
            self._track(emit)
            overhead += self._route_batch(runtime, batch, emit)
            i = j
        return overhead

    def _emit_flush(self, runtime, outputs, free: float) -> None:
        """Route end-of-stream flush outputs at the drain time."""
        if not outputs:
            return
        drain = self._drain
        emit = drain if drain > free else free
        nows = np.full(len(outputs), drain, dtype=np.float64)
        batch = TupleBatch.from_tuples(outputs, nows, np.zeros(len(outputs)))
        batch.seq = self._new_seqs(len(outputs))
        if self._obs is not None:
            self._obs.on_flush(runtime, drain, len(outputs))
        self._track(emit)
        self._route_batch(runtime, batch, emit)

    # ------------------------------------------------------------ operators

    def _run_source(self, runtime, arrival) -> None:
        n = len(arrival)
        if not n:
            return
        self._events += n  # one arrival per tuple, as the scalar step pops
        runtime.emitted += n  # feeds RunMetrics.source_events
        logic = runtime.logic
        vector = logic.has_vector_generator
        generate = logic.generate
        size = self.batch_size
        work_per = runtime.static_work
        free = 0.0
        for a in range(0, n, size):
            b = min(a + size, n)
            t_arr = arrival[a:b]
            rows = b - a
            if vector:
                columns, sizes = logic.generate_columns(t_arr)
                columns = tuple(np.asarray(col) for col in columns)
                if np.ndim(sizes) == 0:
                    sizes = np.full(rows, float(sizes))
                else:
                    sizes = np.asarray(sizes, dtype=np.float64)
                batch = TupleBatch(
                    columns, None, t_arr, t_arr, None, sizes, t_arr, None
                )
            else:
                tuples = [generate(t) for t in t_arr.tolist()]
                batch = TupleBatch.from_tuples(tuples, t_arr, t_arr)
            done = self._serve(
                runtime, work_per * rows, t_arr, arrival, a, free
            )
            free = done + self._emit_pass(runtime, batch, done)

    def _run_sink(self, runtime, entries) -> None:
        if not entries:
            return
        merged, avail, _ = self._merge(entries)
        logic = runtime.logic
        n = len(merged)
        self._events += n  # one delivery per row
        size = self.batch_size
        work_per = runtime.static_work
        sorted_avail = np.sort(avail)
        free = 0.0
        for a in range(0, n, size):
            b = min(a + size, n)
            chunk = merged.slice(a, b)
            chunk_avail = avail[a:b]
            rows = b - a
            work = (
                work_per * rows
                if work_per is not None
                else ordered_sum(
                    (logic.work_units(t) for t in chunk.to_tuples()), 0
                )
            )
            free = done = self._serve(
                runtime, work, chunk_avail, sorted_avail, a, free
            )
            logic.absorb_batch(
                chunk,
                np.full(rows, done, dtype=np.float64),
                done - chunk.origin_time,
            )

    def _run_instance(self, runtime) -> None:
        ports_map = self._inbox[runtime.gid]
        entries = []
        for port in sorted(ports_map):
            entries.extend(
                (batch, when, port) for batch, when in ports_map[port]
            )
        ports_map.clear()
        logic = runtime.logic
        if isinstance(logic, SinkLogic):
            self._run_sink(runtime, entries)
            return
        merged = avail = None
        if entries:
            merged, avail, _ports = self._merge(entries)
        kernel = self._kernel_mode(logic, merged)
        if kernel is None:
            self._run_fallback(runtime, entries)
        elif kernel == "window":
            self._run_window_kernel(runtime, logic, merged, avail)
        else:
            self._run_stateless_kernel(runtime, logic, merged, avail, kernel)

    def _kernel_mode(self, logic, merged):
        """Which vectorized path fits this instance and its input, if
        any: :func:`static_kernel`, then what the data allows.

        Stateful kernels are decided once per instance over the *whole*
        input (never per batch): a window operator must fold every tuple
        through the same representation or its accumulators would mix.
        """
        kernel = static_kernel(logic)[0]
        if kernel == "window":
            if merged is None:
                return "window"  # tick/flush only
            if merged.columns is None:
                return None
            value_field = logic.value_field
            if value_field >= len(merged.columns):
                return None  # fallback raises the scalar IndexError
            if merged.columns[value_field].dtype.kind not in "bif":
                return None
            key_field = logic.key_field
            if key_field is not None:
                if key_field >= len(merged.columns):
                    return None
                keys = merged.columns[key_field]
            else:
                keys = merged.key
                if keys is None:
                    return "window"  # global aggregation
            return "window" if _orderable(keys) else None
        if merged is None or merged.columns is None:
            return None
        if (
            kernel == "filter"
            and logic.predicate.field_index >= len(merged.columns)
        ):
            return None  # fallback raises the scalar IndexError
        return kernel

    def _run_stateless_kernel(
        self, runtime, logic, merged, avail, kind: str
    ) -> None:
        """Filter, map and the columnar 1-to-N expansion: each
        micro-batch in, at most one batch out."""
        n = len(merged)
        self._events += n  # one delivery per row
        size = self.batch_size
        expand = kind == "flatmap"
        sorted_avail = np.sort(avail)
        free = 0.0
        for a in range(0, n, size):
            b = min(a + size, n)
            chunk = merged.slice(a, b)
            if expand:
                # The fan-out is the work, so the expansion runs first.
                out, work = logic.expand_batch(chunk)
            else:
                work = runtime.static_work * (b - a)
            free = done = self._serve(
                runtime, work, avail[a:b], sorted_avail, a, free
            )
            if not expand:
                out = logic.process_batch(chunk, done)
            if out is not None and len(out):
                free += self._emit_pass(runtime, out, done)

    def _run_window_kernel(self, runtime, logic, merged, avail) -> None:
        event_time = isinstance(logic, EventTimeWindowAggregateLogic)
        ticks = self._tick_times(getattr(logic, "timer_interval", None))
        self._events += len(ticks)
        if event_time:  # consumes its ticks as per-batch array spans
            ticks = np.asarray(ticks, dtype=np.float64)
        key_field = logic.key_field
        value_field = logic.value_field
        size = self.batch_size
        work_per = runtime.static_work
        free = 0.0
        prev_done = 0.0
        cursor = 0  # event-time kernels consume ticks per batch span
        if merged is not None:
            n = len(merged)
            self._events += n  # one delivery per row
            sorted_avail = np.sort(avail)
            for a in range(0, n, size):
                b = min(a + size, n)
                chunk = merged.slice(a, b)
                chunk_avail = avail[a:b]
                done = self._serve(
                    runtime,
                    work_per * (b - a),
                    chunk_avail,
                    sorted_avail,
                    a,
                    free,
                )
                if key_field is not None:
                    keys = chunk.columns[key_field]
                else:
                    keys = chunk.key  # None -> global aggregation
                values = chunk.columns[value_field].astype(
                    np.float64, copy=False
                )
                if event_time:
                    upto = int(
                        np.searchsorted(
                            ticks, float(chunk.now[-1]), side="right"
                        )
                    )
                    span_ticks = ticks[cursor:upto]
                    cursor = upto
                    fires = logic.process_event_batch(
                        keys,
                        values,
                        chunk.event_time,
                        chunk.origin_time,
                        chunk.now,
                        span_ticks,
                    )
                else:
                    fires = logic.process_time_batch(
                        keys, values, chunk.now, chunk.origin_time, ticks
                    )
                free = done + self._emit_fires(runtime, fires, prev_done, done)
                prev_done = done
        # Trailing ticks past the last batch still fire ready windows.
        if event_time:
            empty = np.empty(0, dtype=np.float64)
            fires = logic.process_event_batch(
                None, empty, empty, empty, empty, ticks[cursor:]
            )
        else:
            fires = logic.finalize_time_batch(ticks)
        free += self._emit_fires(runtime, fires, prev_done, prev_done)
        if self._drain is not None:
            self._emit_flush(runtime, logic.flush(self._drain), free)

    def _run_fallback(self, runtime, entries) -> None:
        """Per-tuple scalar fallback with interleaved timer ticks.

        Drives ``logic.process``/``on_time``/``flush`` on the ideal
        clock in exactly the scalar order (ticks before the first tuple
        at or past them), while the timing plane stays batch-granular.
        """
        logic = runtime.logic
        rows: list = []
        for batch, when, port in entries:
            tuples = batch.to_tuples()
            nows = batch.now.tolist()
            seqs = batch.seq.tolist()
            rows.extend(
                (nows[i], seqs[i], port, when, tuples[i])
                for i in range(len(tuples))
            )
        rows.sort(key=_row_order)
        tick_list = self._tick_times(getattr(logic, "timer_interval", None))
        n_ticks = len(tick_list)
        self._events += n_ticks + len(rows)
        cursor = 0
        size = self.batch_size
        work_per = runtime.static_work
        work_units = logic.work_units
        process = logic.process
        on_time = logic.on_time
        avail_sorted = (
            np.sort(np.asarray([row[3] for row in rows], dtype=np.float64))
            if rows
            else None
        )
        free = 0.0
        prev_done = 0.0
        n = len(rows)
        for a in range(0, n, size):
            b = min(a + size, n)
            chunk = rows[a:b]
            work_sum = 0.0
            emissions: list = []  # (data_now, tick_triggered, outputs)
            for now, _seq, port, _when, tup in chunk:
                while cursor < n_ticks and tick_list[cursor] <= now:
                    t = tick_list[cursor]
                    cursor += 1
                    fired = on_time(t)
                    if fired:
                        emissions.append((t, True, fired))
                work_sum += (
                    work_per if work_per is not None else work_units(tup)
                )
                outputs = process(tup, now, port)
                if outputs:
                    emissions.append((now, False, outputs))
            chunk_avail = np.asarray(
                [row[3] for row in chunk], dtype=np.float64
            )
            done = self._serve(
                runtime, work_sum, chunk_avail, avail_sorted, a, free
            )
            overhead = 0.0
            # Coalesce consecutive tuple-triggered outputs (they all
            # become available at done_b) into one routed batch; a tick
            # group flushes the run so relative order — and therefore
            # round-robin routing state — is preserved.
            pend_out: list = []
            pend_now: list = []
            for data_now, tick_triggered, outputs in emissions:
                if tick_triggered:
                    if pend_out:
                        overhead += self._emit_fallback_rows(
                            runtime, pend_out, pend_now, done
                        )
                        pend_out = []
                        pend_now = []
                    overhead += self._emit_fallback_fire(
                        runtime, data_now, outputs, prev_done
                    )
                else:
                    pend_out.extend(outputs)
                    pend_now.extend([data_now] * len(outputs))
            if pend_out:
                overhead += self._emit_fallback_rows(
                    runtime, pend_out, pend_now, done
                )
            prev_done = done
            free = done + overhead
        while cursor < n_ticks:
            t = tick_list[cursor]
            cursor += 1
            fired = on_time(t)
            if fired:
                free += self._emit_fallback_fire(
                    runtime, t, fired, prev_done
                )
        if self._drain is not None:
            self._emit_flush(runtime, logic.flush(self._drain), free)

    def _emit_fallback_fire(
        self, runtime, fire_time, outputs, tick_base
    ) -> float:
        emit = fire_time if fire_time > tick_base else tick_base
        nows = np.full(len(outputs), fire_time, dtype=np.float64)
        batch = TupleBatch.from_tuples(outputs, nows, np.zeros(len(outputs)))
        batch.seq = self._new_seqs(len(outputs))
        if self._obs is not None:
            self._obs.on_window_fire(runtime, fire_time, len(outputs))
        self._track(emit)
        return self._route_batch(runtime, batch, emit)

    def _emit_fallback_rows(self, runtime, outputs, nows, done) -> float:
        batch = TupleBatch.from_tuples(
            outputs, np.asarray(nows, dtype=np.float64), np.zeros(len(outputs))
        )
        return self._emit_pass(runtime, batch, done)


def _row_order(row):
    return (row[0], row[1])


def _orderable(keys) -> bool:
    """Whether a key column sorts deterministically under np.unique."""
    kind = keys.dtype.kind
    if kind in "biufSU":
        return True
    if kind != "O":
        return False
    items = keys.tolist()
    if all(isinstance(item, str) for item in items):
        return True
    return all(isinstance(item, _NUMERIC) for item in items)
