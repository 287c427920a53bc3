"""Event-time windowed aggregation with watermarks.

The processing-time aggregate (:mod:`repro.sps.operators.aggregate`)
windows tuples by *arrival* time, as Flink does by default. Real
deployments frequently window by *event* time instead, tolerating network
and queueing reorder via watermarks. This operator implements the
bounded-out-of-orderness model:

- tuples join the window(s) covering their ``event_time``;
- the operator's watermark trails the maximum event time seen by
  ``max_out_of_orderness`` seconds;
- a window fires when the watermark passes its end (plus
  ``allowed_lateness``);
- tuples arriving behind the watermark for an already-fired window are
  *late* and dropped (counted in :attr:`late_dropped`).

In the simulator, event time is stamped at the source, so queueing delay
and cross-node network transfer are exactly the disorder the watermark
must absorb — the same trade-off (latency vs completeness) operators face
in production.

State is incremental: each (key, window) pair keeps scalar accumulators
(count/sum/min/max and the earliest origin) updated in arrival order, so
firing never rescans buffered values — the arrival-order running sum is
bit-identical to summing a buffered value list, because tuples are
folded into exactly the same windows in exactly the same order.  Ready
windows are discovered through a min-heap of window ends instead of an
all-keys scan, and emitted in the pinned (key-first-seen, window-start)
order.  Window membership is computed once per tuple through the
assigner's index-range API rather than materialising ``Window`` objects.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps.columnar import segment_reduce
from repro.sps.operators.aggregate import (
    ACCUMULATED,
    empty_fires,
    result_tuple,
)
from repro.sps.operators.base import OperatorLogic, clone_slots
from repro.sps.tuples import StreamTuple
from repro.sps.windows import (
    AggregateFunction,
    WindowAssigner,
    index_range_arrays,
    ordered_sum,
    window_end_arrays,
)

__all__ = ["EventTimeWindowAggregateLogic"]

_GLOBAL_KEY = "__global__"

_INF = float("inf")


class _WindowState:
    """Incremental accumulators of one (key, window) pair."""

    __slots__ = ("count", "vsum", "vmin", "vmax", "min_origin")

    def __init__(self) -> None:
        self.count = 0
        self.vsum = 0.0
        self.vmin = _INF
        self.vmax = -_INF
        self.min_origin = _INF


def _detach(items) -> list:
    """Migration payloads with every window accumulator copied: any live
    window can still be written, so a checkpoint shares none of them."""
    return [
        (key, ({w: clone_slots(ws) for w, ws in wins.items()}, max_et, hor))
        for key, (wins, max_et, hor) in items
    ]


class _KeyState:
    """Per-key window map plus the key's pinned emission rank."""

    __slots__ = ("rank", "windows")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.windows: dict[int, _WindowState] = {}


class EventTimeWindowAggregateLogic(OperatorLogic):
    """Keyed event-time window aggregation under a bounded-disorder
    watermark."""

    #: per-key window maps migrate wholesale; the instance-global
    #: watermark rides along in every payload and imports as a max, so
    #: replacement instances never regress the fired horizon
    rescale_supported = True

    def __init__(
        self,
        assigner: WindowAssigner,
        function: AggregateFunction,
        value_field: int,
        key_field: int | None = None,
        max_out_of_orderness: float = 0.05,
        allowed_lateness: float = 0.0,
    ) -> None:
        if not assigner.is_time_based:
            raise ConfigurationError(
                "event-time aggregation requires time-based windows"
            )
        if max_out_of_orderness < 0 or allowed_lateness < 0:
            raise ConfigurationError(
                "out-of-orderness and lateness bounds must be >= 0"
            )
        self.assigner = assigner
        self.function = function
        self.value_field = value_field
        self.key_field = key_field
        self.max_out_of_orderness = max_out_of_orderness
        self.allowed_lateness = allowed_lateness
        self._max_event_time = float("-inf")
        self._fired_horizon = float("-inf")
        self._state: dict[object, _KeyState] = {}
        self._keys_by_rank: list[object] = []
        # min-heap of (window end, key rank, window index), one entry
        # per live (key, window) pair, pushed at state creation
        self._fire_heap: list[tuple[float, int, int]] = []
        self.late_dropped = 0
        self.windows_fired = 0
        self._accumulated = ACCUMULATED[function]
        self.timer_interval = float(
            getattr(assigner, "slide", None) or assigner.duration
        )

    @property
    def watermark(self) -> float:
        """Current watermark: max event time seen minus the bound."""
        return self._max_event_time - self.max_out_of_orderness

    def _key_of(self, tup: StreamTuple) -> object:
        if self.key_field is not None:
            return tup.values[self.key_field]
        if tup.key is not None:
            return tup.key
        return _GLOBAL_KEY

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        event_time = tup.event_time
        if event_time > self._max_event_time:
            self._max_event_time = event_time
        assigner = self.assigner
        lo, hi = assigner.assign_index_range(event_time)
        if lo > hi:  # rounding left no containing window
            return self._fire_ready(now)
        lateness = self.allowed_lateness
        horizon = self._fired_horizon
        # Late: every window this tuple belongs to has already fired.
        if assigner.window_end(hi) + lateness <= horizon:
            self.late_dropped += 1
            return self._fire_ready(now)
        key = self._key_of(tup)
        value = float(tup.values[self.value_field])
        kst = self._state.get(key)
        if kst is None:
            kst = self._get_key_state(key)
        windows = kst.windows
        origin = tup.origin_time
        for w in range(lo, hi + 1):
            end = assigner.window_end(w)
            if end + lateness <= horizon:
                continue  # this overlap already fired; count the rest
            state = windows.get(w)
            if state is None:
                state = windows[w] = _WindowState()
                heappush(self._fire_heap, (end, kst.rank, w))
            if state.count:
                if value < state.vmin:
                    state.vmin = value
                if value > state.vmax:
                    state.vmax = value
            else:
                state.vmin = value
                state.vmax = value
            state.count += 1
            state.vsum += value
            if origin < state.min_origin:
                state.min_origin = origin
        return self._fire_ready(now)

    def _fire_ready(self, now: float) -> list[StreamTuple]:
        watermark = self.watermark
        heap = self._fire_heap
        lateness = self.allowed_lateness
        outputs: list[StreamTuple] = []
        if heap and heap[0][0] + lateness <= watermark:
            states = self._state
            keys_by_rank = self._keys_by_rank
            ready: list[tuple[int, int]] = []
            while heap and heap[0][0] + lateness <= watermark:
                _end, rank, w = heappop(heap)
                if w in states[keys_by_rank[rank]].windows:
                    ready.append((rank, w))
            # Pinned emission order: key-first-seen major, window minor.
            ready.sort()
            for rank, w in ready:
                key = keys_by_rank[rank]
                state = states[key].windows.pop(w)
                outputs.append(self._emit(key, state, now))
        if watermark > self._fired_horizon:
            self._fired_horizon = watermark
        return outputs

    def on_time(self, now: float) -> list[StreamTuple]:
        # Idle-source advancement: in the absence of new input the
        # watermark may still advance with the simulation clock, as
        # Flink's idleness timeout does.
        if self._max_event_time > float("-inf"):
            idle_watermark = now - 2.0 * self.max_out_of_orderness
            if idle_watermark > self._max_event_time:
                self._max_event_time = idle_watermark
        return self._fire_ready(now)

    def flush(self, now: float) -> list[StreamTuple]:
        outputs: list[StreamTuple] = []
        for key, kst in self._state.items():
            windows = kst.windows
            for w in sorted(windows):
                outputs.append(self._emit(key, windows[w], now))
        self._state.clear()
        self._keys_by_rank.clear()
        self._fire_heap.clear()
        return outputs

    # ---------------------------------------------- migration, checkpoints

    def export_keyed_state(self):
        """Move every key's window accumulators out for a rescale.

        The watermark pair (max event time, fired horizon) is global to
        the instance, not keyed; it is attached to every payload and
        folded with ``max`` on import, the only merge that never
        un-fires a window a predecessor already emitted.
        """
        items: list[tuple[object, tuple]] = []
        max_et = self._max_event_time
        horizon = self._fired_horizon
        for key in self._keys_by_rank:
            kst = self._state[key]
            items.append((key, (kst.windows, max_et, horizon)))
        self._state = {}
        self._keys_by_rank = []
        self._fire_heap = []
        return items

    def import_keyed_state(self, items) -> None:
        window_end = self.assigner.window_end
        for key, (windows, max_et, horizon) in items:
            kst = self._get_key_state(key)
            kst.windows = windows
            for w in sorted(windows):
                heappush(self._fire_heap, (window_end(w), kst.rank, w))
            if max_et > self._max_event_time:
                self._max_event_time = max_et
            if horizon > self._fired_horizon:
                self._fired_horizon = horizon

    def snapshot_state(self):
        """Every key's payload in the migration format, taken in place."""
        marks = (self._max_event_time, self._fired_horizon)
        return _detach(
            (key, (kst.windows, *marks)) for key, kst in self._state.items()
        )

    def restore_state(self, snapshot) -> None:
        self.import_keyed_state(_detach(snapshot or ()))

    def state_items(self) -> int:
        return len(self._state)

    # --------------------------------------------------------- batch kernel

    def supports_batch(self) -> bool:
        return True

    def process_event_batch(
        self, keys, values, event_times, origins, nows, tick_times
    ):
        """Vectorized fold + watermark advance over one micro-batch.

        ``keys`` is the per-row key list (``None`` when all rows are
        global); ``values``/``event_times``/``origins``/``nows`` float64
        arrays with ``nows`` non-decreasing; ``tick_times`` the timer
        ticks falling inside this batch's span (sorted).  Tuples and
        ticks are merged into the scalar path's *opportunity sequence*
        (ties go to tuples first — measure-zero under the continuous
        arrival distributions): the running max event time, the
        watermark, and the pre-opportunity fired-horizon become prefix
        scans, late drops and per-(key, window) folds become masked
        grouped reductions over the same ``_WindowState`` accumulators
        the scalar path mutates, and each ready window fires at the
        first opportunity whose watermark passes its end, stamped with
        that opportunity's processing time, exactly as ``_fire_ready``
        would.  Returns the fired windows as columns (see
        :meth:`_fire_event_batch`).
        """
        n = len(values)
        n_ticks = len(tick_times)
        total = n + n_ticks
        if total == 0:
            return empty_fires()
        ooo = self.max_out_of_orderness
        lateness = self.allowed_lateness
        carry_max = self._max_event_time
        carry_hor = self._fired_horizon
        neg_inf = float("-inf")
        # ---- merged opportunity sequence (tuples + in-span ticks)
        if n_ticks:
            slots = np.searchsorted(nows, tick_times, side="right")
            tick_slots = slots + np.arange(n_ticks)
            m_is_tick = np.zeros(total, dtype=bool)
            m_is_tick[tick_slots] = True
            tuple_slots = np.flatnonzero(~m_is_tick)
            m_now = np.empty(total, dtype=np.float64)
            m_now[tuple_slots] = nows
            m_now[tick_slots] = tick_times
            contrib = np.empty(total, dtype=np.float64)
            contrib[tuple_slots] = event_times
            # Idle-source advancement: a tick proposes now - 2*ooo, but
            # only once some tuple has set a real max event time.
            contrib[tick_slots] = tick_times - 2.0 * ooo
            if carry_max == neg_inf:
                if n:
                    early = tick_slots[tick_slots < tuple_slots[0]]
                else:
                    early = tick_slots
                contrib[early] = neg_inf
        else:
            m_is_tick = np.zeros(total, dtype=bool)
            tuple_slots = np.arange(total)
            m_now = nows
            contrib = event_times
        runmax = np.maximum.accumulate(
            np.concatenate(((carry_max,), contrib))
        )[1:]
        wm = runmax - ooo
        hor = np.empty(total, dtype=np.float64)
        hor[0] = carry_hor
        np.maximum(wm[:-1], carry_hor, out=hor[1:])
        # ---- late filtering and per-(key, window) folds
        if n:
            self._fold_event_rows(
                keys, values, event_times, origins, hor[tuple_slots]
            )
        # ---- fires, attributed to their exact opportunity
        outputs = self._fire_event_batch(wm, m_now, m_is_tick, lateness)
        self._max_event_time = float(runmax[-1])
        self._fired_horizon = max(carry_hor, float(wm[-1]))
        return outputs

    def _fold_event_rows(
        self, keys, values, event_times, origins, hor_tuples
    ) -> None:
        assigner = self.assigner
        lateness = self.allowed_lateness
        lo, hi = index_range_arrays(assigner, event_times)
        valid = lo <= hi
        end_hi = window_end_arrays(assigner, hi)
        full_late = valid & (end_hi + lateness <= hor_tuples)
        self.late_dropped += int(np.count_nonzero(full_late))
        crows = np.flatnonzero(valid & ~full_late)
        if len(crows) == 0:
            return
        # Key states exist for every non-late row's key (scalar creates
        # them before the per-window loop), ranked by first occurrence.
        if keys is None:
            code_c = np.zeros(len(crows), dtype=np.int64)
            states = [self._get_key_state(_GLOBAL_KEY)]
        else:
            keys_c = keys[crows]
            uniques, code_c = np.unique(keys_c, return_inverse=True)
            order_k = np.argsort(code_c, kind="stable")
            bounds_k = np.flatnonzero(np.diff(code_c[order_k]))
            firsts = order_k[np.append(0, bounds_k + 1)]
            key_list = uniques.tolist()
            states = [None] * len(key_list)
            for gi in np.argsort(firsts, kind="stable").tolist():
                states[gi] = self._get_key_state(key_list[gi])
        # Expand rows into (row, window) pairs, drop fired overlaps.
        lo_c = lo[crows]
        span = (hi[crows] - lo_c + 1).astype(np.int64)
        pair_total = int(span.sum())
        rep = np.repeat(np.arange(len(crows)), span)
        offsets = np.arange(pair_total) - np.repeat(
            np.cumsum(span) - span, span
        )
        pair_w = lo_c[rep] + offsets
        pair_end = window_end_arrays(assigner, pair_w)
        pair_hor = hor_tuples[crows][rep]
        keep = pair_end + lateness > pair_hor
        if not keep.any():
            return
        pr = rep[keep]
        pw = pair_w[keep]
        p_end = pair_end[keep]
        p_code = code_c[pr]
        p_vals = values[crows][pr]
        p_orgs = origins[crows][pr]
        # Stable (key, window) grouping preserves arrival order inside
        # each group — the order the scalar accumulators folded in.
        order = np.lexsort((pw, p_code))
        code_o = p_code[order]
        w_o = pw[order]
        heads, bounds, seg_min, seg_max, seg_org, vals = segment_reduce(
            (np.diff(code_o) != 0) | (np.diff(w_o) != 0),
            p_vals[order],
            p_orgs[order],
        )
        seg_code = code_o[heads].tolist()
        seg_w = w_o[heads].tolist()
        seg_end = p_end[order[heads]].tolist()
        heap = self._fire_heap
        for si, code in enumerate(seg_code):
            kst = states[code]
            w = seg_w[si]
            windows = kst.windows
            state = windows.get(w)
            if state is None:
                state = windows[w] = _WindowState()
                heappush(heap, (seg_end[si], kst.rank, w))
            smin = seg_min[si]
            smax = seg_max[si]
            if state.count:
                if smin < state.vmin:
                    state.vmin = smin
                if smax > state.vmax:
                    state.vmax = smax
            else:
                state.vmin = smin
                state.vmax = smax
            run = vals[bounds[si] : bounds[si + 1]]
            state.count += len(run)
            state.vsum = ordered_sum(run, state.vsum)
            if seg_org[si] < state.min_origin:
                state.min_origin = seg_org[si]

    def _get_key_state(self, key) -> _KeyState:
        kst = self._state.get(key)
        if kst is None:
            kst = self._state[key] = _KeyState(len(self._keys_by_rank))
            self._keys_by_rank.append(key)
        return kst

    def _fire_event_batch(self, wm, m_now, m_is_tick, lateness):
        """Fired windows as five parallel lists: fire time, tick-triggered
        flag, output key, aggregate, earliest origin — in emission order."""
        fires = empty_fires()
        heap = self._fire_heap
        final_wm = wm[-1]
        if not heap or heap[0][0] + lateness > final_wm:
            return fires
        states = self._state
        keys_by_rank = self._keys_by_rank
        wm = wm.tolist()
        popped: list[tuple[int, int, int]] = []
        while heap and heap[0][0] + lateness <= final_wm:
            end, rank, w = heappop(heap)
            if w in states[keys_by_rank[rank]].windows:
                # First opportunity whose watermark reaches the window.
                popped.append((bisect_left(wm, end + lateness), rank, w))
        # One opportunity is one scalar ``_fire_ready`` call: its pinned
        # (rank, window) order is the sort's minor key.
        popped.sort()
        m_now = m_now.tolist()
        m_is_tick = m_is_tick.tolist()
        times, flags, out_keys, aggregates, min_origins = fires
        for p, rank, w in popped:
            key = keys_by_rank[rank]
            state = states[key].windows.pop(w)
            times.append(m_now[p])
            flags.append(m_is_tick[p])
            out_keys.append(None if key is _GLOBAL_KEY else key)
            aggregates.append(self._aggregate(state))
            min_origins.append(state.min_origin)
        return fires

    def _aggregate(self, state: _WindowState) -> float:
        self.windows_fired += 1
        return self._accumulated(state)

    def _emit(
        self, key: object, state: _WindowState, now: float
    ) -> StreamTuple:
        return result_tuple(key, self._aggregate(state), state.min_origin, now)
