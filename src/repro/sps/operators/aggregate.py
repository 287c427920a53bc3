"""Windowed aggregation logic (slice-based, incremental).

Supports all four window combinations of Table 3 (tumbling/sliding x
time/count) and the aggregate functions min/max/avg/mean/sum/count, keyed or
global. Time windows use processing-time semantics (Flink's default): a
tuple joins the window(s) covering its arrival time at the operator, and a
window fires once the subtask's clock passes its end — either on the next
arrival or on the operator's recurring timer, whichever comes first.

**Slicing.** Instead of appending every tuple into each of its
``duration/slide`` overlapping windows, processing time is partitioned
into non-overlapping *slices*: maximal runs of tuples sharing the same
covering window-index interval ``[lo, hi]`` (see
:meth:`~repro.sps.windows.SlidingTimeWindows.assign_index_range`).  Each
tuple updates exactly one slice accumulator (count/sum/min/max plus the
running earliest origin), so per-tuple cost is O(1) regardless of window
overlap — the Scotty / Cutty stream-slicing idea.  A firing window ``w``
is assembled by combining the (few) slices whose interval contains ``w``,
in slice-creation order, which equals tuple-arrival order because the
subtask clock is non-decreasing.

**Heap-scheduled firing.** Pending windows are tracked in a global
min-heap of ``(end, key_rank, window_index)`` entries, so firing pops
exactly the ready windows instead of scanning every key's state dict.
Ready windows are emitted in ``(key-first-seen, window_start)`` order —
bit-identical to the order the previous scan-based implementation
produced.

**Float exactness.** ``min``/``max``/``count`` combine across slices
exactly (order-insensitive).  Float ``sum``/``avg`` are only
reproducible when folded in arrival order, so on genuinely overlapping
sliding windows each slice also keeps its raw value list and a window's
sum is folded as *first slice's running sum, then the later slices'
individual values in order* — bit-identical to summing the window's
value list.

Output tuples carry ``(key, aggregate)`` values and inherit the *earliest*
origin time of the window's contributors, matching the paper's end-to-end
latency definition (window time counts toward latency).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from operator import attrgetter

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps.columnar import run_heads, segment_reduce
from repro.sps.operators.base import OperatorLogic, clone_slots
from repro.sps.tuples import StreamTuple
from repro.sps.windows import (
    AggregateFunction,
    SlidingCountWindows,
    SlidingTimeWindows,
    TumblingCountWindows,
    WindowAssigner,
    index_range_arrays as _index_range_arrays,
    ordered_sum,
)

__all__ = [
    "ACCUMULATED",
    "RESULT_SIZE_BYTES",
    "WindowAggregateLogic",
    "empty_fires",
    "result_tuple",
]

#: Payload size of every window-result tuple.
RESULT_SIZE_BYTES = 40.0

_GLOBAL_KEY = "__global__"

_INF = float("inf")

#: each function's value from one scalar accumulator (a slice, a count
#: window, an event-time window: the same five fields)
ACCUMULATED = {
    AggregateFunction.MIN: attrgetter("vmin"),
    AggregateFunction.MAX: attrgetter("vmax"),
    AggregateFunction.SUM: attrgetter("vsum"),
    AggregateFunction.COUNT: lambda acc: float(acc.count),
    AggregateFunction.AVG: lambda acc: acc.vsum / acc.count,
    AggregateFunction.MEAN: lambda acc: acc.vsum / acc.count,
}


def result_tuple(key, aggregate, min_origin, now) -> StreamTuple:
    """The ``(key, aggregate)`` tuple a fired window emits at ``now``."""
    out_key = None if key is _GLOBAL_KEY else key
    return StreamTuple(
        values=(out_key, aggregate),
        event_time=now,
        origin_time=min_origin,
        key=out_key,
        size_bytes=RESULT_SIZE_BYTES,
    )


def _detach(kind: str, *parts) -> tuple:
    """A key's migration payload, writable without touching the state it
    was taken from: sealed slices are shared (only ``slices[-1]`` is ever
    written); the slice deque, the open slice with its value list and the
    pending set — or the count accumulator and its deques — are copied."""
    if kind == "time":
        slices, pending, next_mark = parts
        slices = deque(slices)
        if slices:
            sl = slices[-1] = clone_slots(slices[-1])
            if sl.values is not None:
                sl.values = list(sl.values)
        return ("time", slices, set(pending), next_mark)
    st, since_fire = parts
    st = clone_slots(st)
    for name in ("values", "origins", "minq", "maxq"):
        queue = getattr(st, name)
        if queue is not None:
            setattr(st, name, deque(queue))
    return ("count", st, since_fire)


class _Slice:
    """Accumulator over one run of tuples sharing a window interval.

    ``values`` is only populated when the exact arrival-order fold is
    required (float sum/avg on overlapping sliding windows); otherwise
    the four scalar accumulators fully describe the slice.
    """

    __slots__ = (
        "lo",
        "hi",
        "count",
        "vsum",
        "vmin",
        "vmax",
        "min_origin",
        "values",
    )

    def __init__(self, lo: int, hi: int, keep_values: bool) -> None:
        self.lo = lo
        self.hi = hi
        self.count = 0
        self.vsum = 0.0
        self.vmin = _INF
        self.vmax = -_INF
        self.min_origin = _INF
        self.values: list[float] | None = [] if keep_values else None


class _KeyTimeState:
    """Per-key slice deque plus pending-window bookkeeping."""

    __slots__ = ("rank", "slices", "pending", "next_mark")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.slices: deque[_Slice] = deque()
        self.pending: set[int] = set()
        # Window indices below this are already marked (or fired);
        # marking only ever moves forward because the clock does.
        self.next_mark: int | None = None


class _KeyCountState:
    """Per-key count-window accumulator.

    Tumbling count windows reset the scalar accumulators on every fire,
    so no buffer is kept at all.  Sliding count windows keep the value
    deque (the window's contents) plus monotonic front-min/front-max
    deques so every fire is O(1) for min/max/count/origin instead of the
    former ``list(buffer)`` copy and O(n) ``min`` scans; only float
    sum/avg still fold the deque in order (exactness — see module doc).
    """

    __slots__ = (
        "count",
        "vsum",
        "vmin",
        "vmax",
        "min_origin",
        "values",
        "origins",
        "minq",
        "maxq",
        "seq",
    )

    def __init__(self, sliding: bool, track_min: bool, track_max: bool):
        self.count = 0
        self.vsum = 0.0
        self.vmin = _INF
        self.vmax = -_INF
        self.min_origin = _INF
        self.values: deque[float] | None = deque() if sliding else None
        # (arrival index, origin) with non-decreasing origins: front is
        # the earliest-arriving minimum of the live window.
        self.origins: deque[tuple[int, float]] = deque()
        self.minq: deque[tuple[int, float]] | None = (
            deque() if (sliding and track_min) else None
        )
        self.maxq: deque[tuple[int, float]] | None = (
            deque() if (sliding and track_max) else None
        )
        self.seq = 0


class WindowAggregateLogic(OperatorLogic):
    """Aggregates ``value_field`` over windows, grouped by ``key_field``.

    ``key_field=None`` groups by the tuple's pre-assigned key (set by an
    upstream keyBy/hash exchange) or globally when the tuple has no key.
    """

    #: slice accumulators migrate wholesale per key (export/import below)
    rescale_supported = True

    def __init__(
        self,
        assigner: WindowAssigner,
        function: AggregateFunction,
        value_field: int,
        key_field: int | None = None,
    ) -> None:
        if value_field < 0:
            raise ConfigurationError("value_field must be non-negative")
        self.assigner = assigner
        self.function = function
        self.value_field = value_field
        self.key_field = key_field
        # time-window state: key -> _KeyTimeState, in key-first-seen
        # order (dict insertion order doubles as the rank order)
        self._time_state: dict[object, _KeyTimeState] = {}
        self._keys_by_rank: list[object] = []
        # min-heap of (window end, key rank, window index): only keys
        # with a ready window are touched at fire time
        self._fire_heap: list[tuple[float, int, int]] = []
        # count-window state: key -> _KeyCountState
        self._count_state: dict[object, _KeyCountState] = {}
        self._count_since_fire: dict[object, int] = {}
        self.windows_fired = 0
        # Resolved once: these decide the per-tuple branch.
        self._time_based = assigner.is_time_based
        self._count_tumbling = isinstance(assigner, TumblingCountWindows)
        self._count_sliding = isinstance(assigner, SlidingCountWindows)
        self._accumulated = ACCUMULATED[function]
        self._is_min = function is AggregateFunction.MIN
        self._is_max = function is AggregateFunction.MAX
        self._is_count = function is AggregateFunction.COUNT
        self._is_sum = function is AggregateFunction.SUM
        # Raw values are only needed for the exact cross-slice sum fold:
        # float sum/avg, and only when windows can actually span more
        # than one slice (genuinely overlapping sliding time windows).
        sum_shaped = not (self._is_min or self._is_max or self._is_count)
        self._keep_values = (
            sum_shaped
            and isinstance(assigner, SlidingTimeWindows)
            and assigner.slide < assigner.duration
        )
        if assigner.is_time_based:
            self.timer_interval = float(
                getattr(assigner, "slide", None) or assigner.duration
            )

    # ---------------------------------------------------------------- keys

    def _key_of(self, tup: StreamTuple) -> object:
        if self.key_field is not None:
            return tup.values[self.key_field]
        if tup.key is not None:
            return tup.key
        return _GLOBAL_KEY

    # ------------------------------------------------------------- process

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        key = self._key_of(tup)
        value = float(tup.values[self.value_field])
        if self._time_based:
            st = self._time_state.get(key)
            if st is None:
                st = self._get_time_state(key)
            lo, hi = self.assigner.assign_index_range(now)
            if lo <= hi:
                slices = st.slices
                # The clock is non-decreasing, so (lo, hi) intervals are
                # too: a tuple either extends the newest slice or opens
                # the next one.
                sl = slices[-1] if slices else None
                if sl is None or sl.lo != lo or sl.hi != hi:
                    sl = _Slice(lo, hi, self._keep_values)
                    slices.append(sl)
                if sl.count:
                    if value < sl.vmin:
                        sl.vmin = value
                    if value > sl.vmax:
                        sl.vmax = value
                else:
                    sl.vmin = value
                    sl.vmax = value
                sl.count += 1
                sl.vsum += value
                origin = tup.origin_time
                if origin < sl.min_origin:
                    sl.min_origin = origin
                if sl.values is not None:
                    sl.values.append(value)
                mark = st.next_mark
                if mark is None or mark <= hi:
                    self._mark_pending(st, lo, hi)
            return self._fire_time_windows(now)
        return self._process_count(key, value, tup.origin_time, now)

    def _mark_pending(self, st: _KeyTimeState, lo: int, hi: int) -> None:
        """Put the windows of ``lo..hi`` not yet marked on the fire heap."""
        mark = st.next_mark
        w = lo if (mark is None or mark < lo) else mark
        pending = st.pending
        heap = self._fire_heap
        rank = st.rank
        window_end = self.assigner.window_end
        while w <= hi:
            pending.add(w)
            heappush(heap, (window_end(w), rank, w))
            w += 1
        st.next_mark = hi + 1

    # ------------------------------------------------------- count windows

    def _process_count(
        self, key: object, value: float, origin: float, now: float
    ) -> list[StreamTuple]:
        st = self._count_state.get(key)
        if st is None:
            st = self._count_state[key] = _KeyCountState(
                self._count_sliding, self._is_min, self._is_max
            )
        assigner = self.assigner
        if self._count_tumbling:
            if st.count:
                if value < st.vmin:
                    st.vmin = value
                if value > st.vmax:
                    st.vmax = value
            else:
                st.vmin = value
                st.vmax = value
            st.count += 1
            st.vsum += value
            if origin < st.min_origin:
                st.min_origin = origin
            if st.count >= assigner.length:
                out = self._emit_tumbling_count(key, st, now)
                st.count = 0
                st.vsum = 0.0
                st.min_origin = _INF
                return [out]
            return []
        if self._count_sliding:
            values = st.values
            i = st.seq
            st.seq = i + 1
            values.append(value)
            origins = st.origins
            while origins and origins[-1][1] > origin:
                origins.pop()
            origins.append((i, origin))
            minq = st.minq
            if minq is not None:
                while minq and minq[-1][1] > value:
                    minq.pop()
                minq.append((i, value))
            maxq = st.maxq
            if maxq is not None:
                while maxq and maxq[-1][1] < value:
                    maxq.pop()
                maxq.append((i, value))
            while len(values) > assigner.length:
                values.popleft()
            head = st.seq - len(values)
            while origins[0][0] < head:
                origins.popleft()
            if minq is not None:
                while minq[0][0] < head:
                    minq.popleft()
            if maxq is not None:
                while maxq[0][0] < head:
                    maxq.popleft()
            count = self._count_since_fire.get(key, 0) + 1
            if len(values) >= assigner.length and count >= assigner.slide:
                self._count_since_fire[key] = 0
                return [self._emit_sliding_count(key, st, now)]
            self._count_since_fire[key] = count
            return []
        raise ConfigurationError(
            f"unsupported count assigner {type(assigner).__name__}"
        )

    # ---------------------------------------------------------- time firing

    def _fire_time_windows(self, now: float) -> list[StreamTuple]:
        heap = self._fire_heap
        if not heap or heap[0][0] > now:
            return []  # nothing ready: the common case on every tuple
        states = self._time_state
        keys_by_rank = self._keys_by_rank
        ready: list[tuple[int, int]] = []
        while heap and heap[0][0] <= now:
            _end, rank, w = heappop(heap)
            st = states[keys_by_rank[rank]]
            if w in st.pending:
                st.pending.discard(w)
                ready.append((rank, w))
        if not ready:
            return []
        # Emission order is pinned: key-first-seen major, window minor —
        # exactly what the former all-keys scan produced.
        ready.sort()
        outputs: list[StreamTuple] = []
        for rank, w in ready:
            key = keys_by_rank[rank]
            fired = self._window_result(states[key], w)
            outputs.append(result_tuple(key, *fired, now))
        return outputs

    def on_time(self, now: float) -> list[StreamTuple]:
        return self._fire_time_windows(now)  # count windows: empty heap

    def flush(self, now: float) -> list[StreamTuple]:
        outputs: list[StreamTuple] = []
        if self._time_based:
            for key, st in self._time_state.items():
                for w in sorted(st.pending):
                    st.pending.discard(w)
                    fired = self._window_result(st, w)
                    outputs.append(result_tuple(key, *fired, now))
            self._time_state.clear()
            self._keys_by_rank.clear()
            self._fire_heap.clear()
        else:
            for key, st in self._count_state.items():
                if st.values is not None:
                    if st.values:
                        outputs.append(self._emit_sliding_count(key, st, now))
                elif st.count:
                    outputs.append(self._emit_tumbling_count(key, st, now))
            self._count_state.clear()
        return outputs

    # ---------------------------------------------- migration, checkpoints

    def export_keyed_state(self):
        """Move every key's live accumulators out for a rescale.

        Slices make the handoff cheap: each key's payload is its slice
        deque, pending-window set and watermark — moved by reference,
        never rescanned. Keys leave in rank (first-seen) order, and this
        instance is left empty.
        """
        items: list[tuple[object, tuple]] = []
        if self._time_based:
            for key in self._keys_by_rank:
                st = self._time_state[key]
                state = ("time", st.slices, sorted(st.pending), st.next_mark)
                items.append((key, state))
            self._time_state = {}
            self._keys_by_rank = []
            self._fire_heap = []
        else:
            for key, st in self._count_state.items():
                items.append(
                    (key, ("count", st, self._count_since_fire.get(key, 0)))
                )
            self._count_state = {}
            self._count_since_fire = {}
        return items

    def import_keyed_state(self, items) -> None:
        """Adopt migrated keys, pinning their ranks in arrival order."""
        for key, payload in items:
            if payload[0] == "time":
                _, slices, pending, next_mark = payload
                st = self._get_time_state(key)
                st.slices = slices
                st.pending = set(pending)
                st.next_mark = next_mark
                window_end = self.assigner.window_end
                for w in pending:
                    heappush(
                        self._fire_heap, (window_end(w), st.rank, w)
                    )
            else:
                _, st, since_fire = payload
                self._count_state[key] = st
                if since_fire:
                    self._count_since_fire[key] = since_fire

    def snapshot_state(self):
        """Every key's payload in the migration format, taken in place:
        sealed slices shared, open accumulators copied (see base.py)."""
        if self._time_based:
            return [
                (key, _detach("time", st.slices, st.pending, st.next_mark))
                for key, st in self._time_state.items()
            ]
        since_fire = self._count_since_fire.get
        return [
            (key, _detach("count", st, since_fire(key, 0)))
            for key, st in self._count_state.items()
        ]

    def restore_state(self, snapshot) -> None:
        self.import_keyed_state(
            [(key, _detach(*payload)) for key, payload in snapshot or ()]
        )

    def state_items(self) -> int:
        return len(self._time_state) + len(self._count_state)

    # -------------------------------------------------------------- emission

    def _window_result(self, st: _KeyTimeState, w: int) -> tuple[float, float]:
        """Window ``w``'s aggregate and earliest origin, from its slices."""
        slices = st.slices
        # Slices wholly before the oldest pending window are dead; the
        # fire order (ascending per key) makes this safe to pop eagerly.
        while slices and slices[0].hi < w:
            slices.popleft()
        first = slices[0]
        total = first.count
        min_origin = first.min_origin
        is_min = self._is_min
        is_max = self._is_max
        acc = first.vmin if is_min else first.vmax if is_max else first.vsum
        for sl in slices:
            if sl is first:
                continue
            if sl.lo > w:
                break
            total += sl.count
            if sl.min_origin < min_origin:
                min_origin = sl.min_origin
            if is_min:
                if sl.vmin < acc:
                    acc = sl.vmin
            elif is_max:
                if sl.vmax > acc:
                    acc = sl.vmax
            elif sl.values is not None:
                # exact fold: replay this slice's values in order
                for v in sl.values:
                    acc += v
            else:
                acc += sl.vsum
        if self._is_count:
            aggregate = float(total)
        elif is_min or is_max or self._is_sum:
            aggregate = acc
        else:
            aggregate = acc / total  # AVG and MEAN
        self.windows_fired += 1
        return aggregate, min_origin

    def _emit_tumbling_count(
        self, key: object, st: _KeyCountState, now: float
    ) -> StreamTuple:
        self.windows_fired += 1
        return result_tuple(key, self._accumulated(st), st.min_origin, now)

    def _emit_sliding_count(
        self, key: object, st: _KeyCountState, now: float
    ) -> StreamTuple:
        values = st.values
        if self._is_min:
            aggregate = st.minq[0][1]
        elif self._is_max:
            aggregate = st.maxq[0][1]
        elif self._is_count:
            aggregate = float(len(values))
        else:
            # Ordered fold over the live window keeps float sums
            # bit-identical to the reference (see module docstring).
            total = ordered_sum(values)
            aggregate = total if self._is_sum else total / len(values)
        self.windows_fired += 1
        return result_tuple(key, aggregate, st.origins[0][1], now)

    # --------------------------------------------------------- batch kernel

    def supports_batch(self) -> bool:
        # Count windows fire on per-key arrival counts with ring-buffer
        # state; they stay on the scalar fallback (see repro.sps.batch).
        return self._time_based

    def process_time_batch(self, keys, values, nows, origins, ticks):
        """Fold one micro-batch into the slice state, then fire.

        ``keys`` is the per-row group-key array (or ``None`` when every
        row is global), ``values``/``nows``/``origins`` float64 arrays
        with ``nows`` non-decreasing, and ``ticks`` this instance's full
        timer-tick schedule (sorted list) used to attribute fire times.

        Updates the *same* per-key slice/pending/heap state the scalar
        path uses, in one segmented pass: rows are sorted by key once,
        cut into runs sharing a (key, lo, hi) triple — the slices — and
        every run's min/max/earliest origin comes out of three
        ``reduceat`` calls over the whole batch; what is left per run is
        slice bookkeeping and the order-exact ``acc += v`` sum over a
        list slice.  Then every window whose end the batch's clock
        passed fires at the earliest tuple-or-tick opportunity ``>=`` its
        end, exactly where the scalar event loop would have fired it.
        Returns the fired windows as columns (see :meth:`_fire_ready`).
        """
        if not len(values):
            return empty_fires()
        lo, hi = _index_range_arrays(self.assigner, nows)
        valid = lo <= hi
        if keys is None:
            self._get_time_state(_GLOBAL_KEY)
            order = np.flatnonzero(valid)
            key_o = None
        else:
            order = np.argsort(keys, kind="stable")
            key_o = keys[order]
            self._rank_new_keys(order, key_o)
            if not valid.all():
                keep = valid[order]
                order = order[keep]
                key_o = key_o[keep]
        if len(order):
            self._fold_rows(
                key_o, lo[order], hi[order], values[order], origins[order]
            )
        nows = nows.tolist()
        return self._fire_ready(nows, ticks, nows[-1])

    def _get_time_state(self, key) -> _KeyTimeState:
        st = self._time_state.get(key)
        if st is None:
            st = self._time_state[key] = _KeyTimeState(
                len(self._keys_by_rank)
            )
            self._keys_by_rank.append(key)
        return st

    def _rank_new_keys(self, order, key_o) -> None:
        """Create the state of every key this batch sees first.

        Ranks follow arrival order (scalar creates the key state on its
        first tuple even when rounding leaves that tuple without a
        window); ``order`` is a stable sort, so each key run's head is
        that key's earliest row.
        """
        heads = run_heads(key_o[1:] != key_o[:-1])
        states = self._time_state
        fresh = [
            (first, key)
            for first, key in zip(order[heads].tolist(), key_o[heads].tolist())
            if key not in states
        ]
        fresh.sort()
        for _first, key in fresh:
            self._get_time_state(key)

    def _fold_rows(self, key_o, lo_o, hi_o, vals_o, orgs_o) -> None:
        """Fold key-sorted rows (arrival order within a key) into slices."""
        breaks = lo_o[1:] != lo_o[:-1]
        breaks |= hi_o[1:] != hi_o[:-1]
        if key_o is not None:
            breaks |= key_o[1:] != key_o[:-1]
        heads, bounds, seg_min, seg_max, seg_org, vals = segment_reduce(
            breaks, vals_o, orgs_o
        )
        seg_lo = lo_o[heads].tolist()
        seg_hi = hi_o[heads].tolist()
        states = self._time_state
        if key_o is None:
            seg_key = [_GLOBAL_KEY] * len(seg_lo)
        else:
            seg_key = key_o[heads].tolist()
        keep_values = self._keep_values
        for si, key in enumerate(seg_key):
            st = states[key]
            s_lo = seg_lo[si]
            s_hi = seg_hi[si]
            slices = st.slices
            sl = slices[-1] if slices else None
            if sl is None or sl.lo != s_lo or sl.hi != s_hi:
                sl = _Slice(s_lo, s_hi, keep_values)
                slices.append(sl)
            smin = seg_min[si]
            smax = seg_max[si]
            if sl.count:
                if smin < sl.vmin:
                    sl.vmin = smin
                if smax > sl.vmax:
                    sl.vmax = smax
            else:
                sl.vmin = smin
                sl.vmax = smax
            run = vals[bounds[si] : bounds[si + 1]]
            sl.count += len(run)
            sl.vsum = ordered_sum(run, sl.vsum)
            if seg_org[si] < sl.min_origin:
                sl.min_origin = seg_org[si]
            if sl.values is not None:
                sl.values.extend(run)
            mark = st.next_mark
            if mark is None or mark <= s_hi:
                self._mark_pending(st, s_lo, s_hi)

    def _fire_ready(self, nows: list, ticks: list, horizon: float):
        """Pop and emit every pending window ending by ``horizon``.

        A window fires at the first tuple time in ``nows`` or timer tick
        in ``ticks`` at or past its end, the tick winning only when
        strictly earlier.  Pops arrive end-ascending, hence fire-time
        non-decreasing, and every window of one fire time shares one
        tick flag — so sorting the pops reproduces, per fire
        opportunity, the scalar ``_fire_time_windows`` call and its
        ``ready.sort()`` (rank, window) order.  Returns five parallel
        lists: fire time, tick-triggered flag, output key, aggregate and
        earliest origin.
        """
        fires = empty_fires()
        heap = self._fire_heap
        if not heap or heap[0][0] > horizon:
            return fires
        states = self._time_state
        keys_by_rank = self._keys_by_rank
        n_nows = len(nows)
        n_ticks = len(ticks)
        popped: list[tuple[float, bool, int, int]] = []
        while heap and heap[0][0] <= horizon:
            end, rank, w = heappop(heap)
            pending = states[keys_by_rank[rank]].pending
            if w in pending:
                pending.discard(w)
                ti = bisect_left(nows, end)
                t_tuple = nows[ti] if ti < n_nows else _INF
                tk = bisect_left(ticks, end)
                if tk < n_ticks and ticks[tk] < t_tuple:
                    popped.append((ticks[tk], True, rank, w))
                else:
                    popped.append((t_tuple, False, rank, w))
        popped.sort()
        times, flags, out_keys, aggregates, min_origins = fires
        for fire_time, is_tick, rank, w in popped:
            key = keys_by_rank[rank]
            aggregate, min_origin = self._window_result(states[key], w)
            times.append(fire_time)
            flags.append(is_tick)
            out_keys.append(None if key is _GLOBAL_KEY else key)
            aggregates.append(aggregate)
            min_origins.append(min_origin)
        return fires

    def finalize_time_batch(self, ticks: list):
        """Fire the windows the remaining timer ticks would still reach.

        Called once after the last micro-batch; anything left after this
        is end-of-stream state for :meth:`flush`.
        """
        if not ticks:
            return empty_fires()
        return self._fire_ready([], ticks, ticks[-1])

    # ------------------------------------------------------------- obs hooks

    @property
    def live_slices(self) -> int:
        """Total live slice accumulators (observability)."""
        return sum(len(st.slices) for st in self._time_state.values())

    @property
    def pending_windows(self) -> int:
        """Windows marked but not yet fired (observability)."""
        return sum(len(st.pending) for st in self._time_state.values())


def empty_fires():
    """Fired-window columns with no rows (see ``_fire_ready``)."""
    return [], [], [], [], []
