"""Windowed equi-join logic (slice-buffered).

A symmetric hash join over processing-time windows: each arriving tuple
is buffered once in the *slice* shared by all tuples with the same
covering window-index interval (see
:meth:`~repro.sps.windows.SlidingTimeWindows.assign_index_range`), not
once per overlapping window. Its probe walks the live slices once and
gathers the opposite side's bucket for its key from each covering
slice; a probe that gathers none (most do) returns with no further
work. The matches are then emitted window-major from the gathered
buckets — windows ascending, buckets in slice order, each bucket in
arrival order — the exact sequence per-window buffering produced (a
pair sharing k windows matches k times). Expired slices are popped
from the front of the slice deque on arrivals and on the recurring
timer; no full-state rescan is needed because the slice deque is
ordered by creation time.
Multi-way joins in the workload are cascades of these 2-way joins, as in
Flink.

Work units grow with the number of matches produced, so join cost is
data-dependent — a key ingredient of the paper's observation that join
parallelism has a tipping point (O2). ``work_units`` reads the match
count of the *previous* probe (the engine bills service time before
running the logic); it is maintained on every return path, including
raising ones.
"""

from __future__ import annotations

from collections import deque

from repro.common.errors import ConfigurationError
from repro.sps.operators.base import OperatorLogic, clone_slots
from repro.sps.tuples import StreamTuple
from repro.sps.windows import WindowAssigner

__all__ = ["WindowJoinLogic"]


class _JoinSlice:
    """Both sides' buffers for one run of same-interval tuples."""

    __slots__ = ("lo", "hi", "end_hi", "sides")

    def __init__(self, lo: int, hi: int, end_hi: float) -> None:
        self.lo = lo
        self.hi = hi
        #: end of the newest covered window: once the clock passes it,
        #: every window of this slice has expired
        self.end_hi = end_hi
        #: per side: key -> list[StreamTuple], in arrival order
        self.sides: tuple[dict, dict] = ({}, {})


def _detach(slices) -> list[_JoinSlice]:
    """``slices`` as a list that can be appended to and probed without
    touching the original: only the newest slice is ever written, so it
    alone is copied (its two key -> bucket dicts and their lists); the
    sealed slices and every buffered tuple are shared."""
    slices = list(slices)
    if slices:
        sl = slices[-1] = clone_slots(slices[-1])
        sl.sides = tuple(
            {key: list(bucket) for key, bucket in side.items()}
            for side in sl.sides
        )
    return slices


class WindowJoinLogic(OperatorLogic):
    """Two-input windowed equi-join on per-side key fields.

    ``left_key_field``/``right_key_field`` index into the values of the
    respective input (port 0 = left, port 1 = right). ``None`` uses the
    tuple's pre-assigned key, which is how the physical plan's hash
    exchanges deliver co-partitioned inputs.
    """

    #: joins buffer both sides per (key, slice); migrating that state
    #: would also have to split in-flight probe order across two input
    #: ports, which the drain barrier does not order — not supported
    rescale_supported = False

    def __init__(
        self,
        assigner: WindowAssigner,
        left_key_field: int | None = None,
        right_key_field: int | None = None,
        max_matches_per_probe: int = 64,
    ) -> None:
        if not assigner.is_time_based:
            raise ConfigurationError(
                "window joins require time-based windows (Table 3 joins are "
                "time-windowed)"
            )
        self.assigner = assigner
        self.key_fields = (left_key_field, right_key_field)
        self.max_matches_per_probe = max_matches_per_probe
        # live slices, ordered by creation time (== by (lo, hi))
        self._slices: deque[_JoinSlice] = deque()
        # smallest window index that has not expired yet; None until the
        # first slice exists.  Windows below it are dead.
        self._cut: int | None = None
        # earliest future window end: expiry work is skipped entirely
        # until the clock reaches it (not on every probe)
        self._next_expire = float("inf")
        self.matches_emitted = 0
        self._last_matches = 0
        self.timer_interval = float(
            getattr(assigner, "slide", None) or assigner.duration
        )

    def _key_of(self, tup: StreamTuple) -> object:
        """The pre-assigned key of a tuple on a port without key field."""
        if tup.key is None:
            raise ConfigurationError(
                "join input has no key; set key fields or key upstream"
            )
        return tup.key

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        matches = 0
        try:
            if port not in (0, 1):
                raise ConfigurationError(
                    f"join port must be 0 or 1, got {port}"
                )
            if now >= self._next_expire:
                self._expire(now)
            key_field = self.key_fields[port]
            if key_field is None:
                key = self._key_of(tup)
            else:
                key = tup.values[key_field]
            assigner = self.assigner
            lo, hi = assigner.assign_index_range(now)
            if lo > hi:  # rounding left no containing window
                return []
            slices = self._slices
            # The clock is non-decreasing, so a tuple extends the newest
            # slice or opens the next one.
            if slices:
                sl = slices[-1]
                if sl.lo != lo or sl.hi != hi:
                    sl = _JoinSlice(lo, hi, assigner.window_end(hi))
                    slices.append(sl)
            else:
                sl = _JoinSlice(lo, hi, assigner.window_end(hi))
                slices.append(sl)
                if self._cut is None:
                    self._cut = lo
                    self._next_expire = assigner.window_end(lo)
            side = sl.sides[port]
            bucket = side.get(key)
            if bucket is None:
                bucket = side[key] = []
            bucket.append(tup)
            # Gather the opposite side's bucket of every covering slice;
            # most probes find none and stop here.
            opposite = 1 - port
            hits = []
            for s in slices:
                if s.lo > hi:
                    break
                if s.hi >= lo:
                    candidates = s.sides[opposite].get(key)
                    if candidates:
                        hits.append((s.lo, s.hi, candidates))
            if not hits:
                return hits  # the probe's (empty) result
            outputs = self._emit(tup, port, now, key, lo, hi, hits)
            matches = len(outputs)
            return outputs
        finally:
            # Billed by work_units on the *next* probe; maintained on
            # raising paths too so cost accounting never reads a stale
            # match count.
            self._last_matches = matches
            self.matches_emitted += matches

    def _emit(self, probe, port, now, key, lo, hi, hits):
        """The matches of ``probe`` against the gathered ``(lo, hi,
        bucket)`` hits: windows ascending, then hits in slice order,
        then each bucket in arrival order, cut at the probe cap."""
        cap = self.max_matches_per_probe
        outputs: list[StreamTuple] = []
        append = outputs.append
        new = StreamTuple.__new__
        for w in range(lo, hi + 1):
            for s_lo, s_hi, bucket in hits:
                if s_lo > w or s_hi < w:
                    continue
                room = cap - len(outputs)
                if room <= 0:
                    return outputs
                if len(bucket) > room:
                    bucket = bucket[:room]
                for build in bucket:
                    left, right = (build, probe) if port else (probe, build)
                    match = new(StreamTuple)
                    match.values = left.values + right.values
                    match.key = key
                    match.event_time = now
                    # the earliest contributor's origin, left's on a tie
                    origin = left.origin_time
                    other = right.origin_time
                    match.origin_time = other if other < origin else origin
                    match.size_bytes = left.size_bytes + right.size_bytes
                    match.prov = None
                    append(match)
        return outputs

    def _expire(self, now: float) -> None:
        if now < self._next_expire:
            return  # no live window has ended yet: skip entirely
        assigner = self.assigner
        cut = self._cut
        # Advance the expiry cut to the first window still open.  The
        # cut only ever moves forward, so this is amortised O(1).
        while assigner.window_end(cut) <= now:
            cut += 1
        self._cut = cut
        self._next_expire = assigner.window_end(cut)
        slices = self._slices
        while slices and slices[0].hi < cut:
            slices.popleft()

    def on_time(self, now: float) -> list[StreamTuple]:
        self._expire(now)
        return []

    def flush(self, now: float) -> list[StreamTuple]:
        self._slices.clear()
        self._cut = None
        self._next_expire = float("inf")
        return []

    def work_units(self, tup: StreamTuple) -> float:
        # Probing and emitting matches dominates join cost.
        return 1.0 + 0.5 * self._last_matches

    # Join state is buffered per (slice, side, key), not exported by the
    # keyed-migration pair (rescale_supported stays False), so checkpoints
    # take the slice deque and cursors wholesale.
    def snapshot_state(self):
        """Live slices (see ``_detach``), expiry cursors, match counters."""
        if not self._slices and self._cut is None:
            return None
        return (
            _detach(self._slices),
            self._cut,
            self._next_expire,
            self.matches_emitted,
            self._last_matches,
        )

    def restore_state(self, snapshot) -> None:
        if snapshot is None:
            return
        slices, cut, next_expire, emitted, last = snapshot
        self._slices = deque(_detach(slices))
        self._cut = cut
        self._next_expire = next_expire
        self.matches_emitted = emitted
        self._last_matches = last

    def state_items(self) -> int:
        if not self._slices and self._cut is None:
            return 0
        return max(len(self._slices), 1)

    @property
    def buffered_windows(self) -> int:
        """Number of live (non-expired) windows holding buffered tuples."""
        total = 0
        floor = self._cut if self._cut is not None else -(1 << 62)
        for s in self._slices:
            lo = s.lo if s.lo > floor else floor
            if s.hi >= lo:
                total += s.hi - lo + 1
                floor = s.hi + 1
        return total

    @property
    def live_slices(self) -> int:
        """Live slice buffers held in state (observability)."""
        return len(self._slices)
