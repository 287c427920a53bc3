"""Property tests: slice-based window operators ≡ naive references.

PR 5 replaced per-window value buffering with slice-based incremental
aggregation and heap-scheduled firing. The contract is *bit-identical*
behaviour, so every property here drives the production logic and a
straightforward per-window reference implementation (the shape of the
pre-slicing code: buffer every value into every overlapping window,
scan-fire in key-insertion order) through the same randomized schedule
of arrivals, timer ticks and a final flush, and requires the emitted
tuple sequences to agree exactly — float-for-float, order included.

Schedules mix arrival-driven fires (a tuple lands after a window end)
with timer-driven fires (``on_time`` between arrivals), random
durations, slide ratios, key skew and value signs, per the PR's
acceptance criteria (≥200 examples per property).
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sps.operators.aggregate import WindowAggregateLogic
from repro.sps.operators.event_aggregate import EventTimeWindowAggregateLogic
from repro.sps.operators.join import WindowJoinLogic
from repro.sps.tuples import StreamTuple
from repro.sps.windows import (
    AggregateFunction,
    SlidingCountWindows,
    SlidingTimeWindows,
    TumblingCountWindows,
    TumblingTimeWindows,
)

# ------------------------------------------------------------ references


class _NaiveTimeAgg:
    """Per-window buffering processing-time aggregate (pre-slicing)."""

    def __init__(self, assigner, function):
        self.assigner = assigner
        self.function = function
        # key -> {window_start -> [values, min_origin, end]}
        self._state: dict[object, dict[float, list]] = {}

    def process(self, tup, now):
        key = tup.values[0]
        value = float(tup.values[1])
        per_key = self._state.setdefault(key, {})
        for window in self.assigner.assign(now):
            state = per_key.get(window.start)
            if state is None:
                state = per_key[window.start] = [[], math.inf, window.end]
            state[0].append(value)
            if tup.origin_time < state[1]:
                state[1] = tup.origin_time
        return self.on_time(now)

    def on_time(self, now):
        outputs = []
        for key, per_key in self._state.items():
            ready = [s for s, st_ in per_key.items() if st_[2] <= now]
            for start in sorted(ready):
                outputs.append(self._emit(key, per_key.pop(start), now))
        return outputs

    def flush(self, now):
        outputs = []
        for key, per_key in self._state.items():
            for start in sorted(per_key):
                outputs.append(self._emit(key, per_key[start], now))
        self._state.clear()
        return outputs

    def _emit(self, key, state, fire_time):
        return StreamTuple(
            values=(key, self.function.apply(state[0])),
            event_time=fire_time,
            origin_time=state[1],
            key=key,
            size_bytes=40.0,
        )


class _NaiveCountAgg:
    """Per-key deque count-window aggregate (pre-accumulator shape)."""

    def __init__(self, assigner, function):
        self.assigner = assigner
        self.function = function
        self._buffers: dict[object, deque] = {}
        self._since_fire: dict[object, int] = {}

    def process(self, tup, now):
        key = tup.values[0]
        value = float(tup.values[1])
        buffer = self._buffers.setdefault(key, deque())
        buffer.append((value, tup.origin_time))
        assigner = self.assigner
        if isinstance(assigner, TumblingCountWindows):
            if len(buffer) >= assigner.length:
                out = self._emit(key, list(buffer), now)
                buffer.clear()
                return [out]
            return []
        while len(buffer) > assigner.length:
            buffer.popleft()
        count = self._since_fire.get(key, 0) + 1
        if len(buffer) >= assigner.length and count >= assigner.slide:
            self._since_fire[key] = 0
            return [self._emit(key, list(buffer), now)]
        self._since_fire[key] = count
        return []

    def flush(self, now):
        outputs = []
        for key, buffer in self._buffers.items():
            if buffer:
                outputs.append(self._emit(key, list(buffer), now))
        self._buffers.clear()
        return outputs

    def _emit(self, key, items, now):
        values = [v for v, _ in items]
        return StreamTuple(
            values=(key, self.function.apply(values)),
            event_time=now,
            origin_time=min(origin for _, origin in items),
            key=key,
            size_bytes=40.0,
        )


class _NaiveEventAgg:
    """Per-window buffering event-time aggregate (pre-accumulator)."""

    def __init__(self, assigner, function, max_ooo, lateness):
        self.assigner = assigner
        self.function = function
        self.max_ooo = max_ooo
        self.lateness = lateness
        self._max_event_time = -math.inf
        self._fired_horizon = -math.inf
        self._state: dict[object, dict[float, list]] = {}
        self.late_dropped = 0

    def process(self, tup, now):
        if tup.event_time > self._max_event_time:
            self._max_event_time = tup.event_time
        windows = self.assigner.assign(tup.event_time)
        if not windows:
            return self._fire_ready(now)
        newest_end = max(w.end for w in windows)
        if newest_end + self.lateness <= self._fired_horizon:
            self.late_dropped += 1
            return self._fire_ready(now)
        key = tup.values[0]
        value = float(tup.values[1])
        per_key = self._state.setdefault(key, {})
        for window in windows:
            if window.end + self.lateness <= self._fired_horizon:
                continue
            state = per_key.get(window.start)
            if state is None:
                state = per_key[window.start] = [[], math.inf, window.end]
            state[0].append(value)
            if tup.origin_time < state[1]:
                state[1] = tup.origin_time
        return self._fire_ready(now)

    def _fire_ready(self, now):
        watermark = self._max_event_time - self.max_ooo
        outputs = []
        for key, per_key in self._state.items():
            ready = [
                s
                for s, st_ in per_key.items()
                if st_[2] + self.lateness <= watermark
            ]
            for start in sorted(ready):
                outputs.append(self._emit(key, per_key.pop(start), now))
        if watermark > self._fired_horizon:
            self._fired_horizon = watermark
        return outputs

    def on_time(self, now):
        if self._max_event_time > -math.inf:
            idle = now - 2.0 * self.max_ooo
            if idle > self._max_event_time:
                self._max_event_time = idle
        return self._fire_ready(now)

    def flush(self, now):
        outputs = []
        for key, per_key in self._state.items():
            for start in sorted(per_key):
                outputs.append(self._emit(key, per_key[start], now))
        self._state.clear()
        return outputs

    def _emit(self, key, state, now):
        return StreamTuple(
            values=(key, self.function.apply(state[0])),
            event_time=now,
            origin_time=state[1],
            key=key,
            size_bytes=40.0,
        )


class _NaiveJoin:
    """Per-(window, key) buffering symmetric hash join (pre-slicing)."""

    def __init__(self, assigner, cap, key_fields=(0, 0)):
        self.assigner = assigner
        self.cap = cap
        self.key_fields = key_fields
        self._windows: dict[float, tuple[float, list]] = {}
        self.matches_emitted = 0

    def process(self, tup, now, port):
        self._expire(now)
        field = self.key_fields[port]
        key = tup.key if field is None else tup.values[field]
        outputs = []
        matches = 0
        for window in self.assigner.assign(now):
            entry = self._windows.get(window.start)
            if entry is None:
                entry = self._windows[window.start] = (window.end, [{}, {}])
            _, buffers = entry
            buffers[port].setdefault(key, []).append(tup)
            for candidate in buffers[1 - port].get(key, ()):
                if matches >= self.cap:
                    break
                left, right = (
                    (candidate, tup) if port == 1 else (tup, candidate)
                )
                outputs.append(
                    StreamTuple(
                        values=left.values + right.values,
                        event_time=now,
                        # min() keeps its first argument on a tie
                        origin_time=min(left.origin_time, right.origin_time),
                        key=key,
                        size_bytes=left.size_bytes + right.size_bytes,
                    )
                )
                matches += 1
        self.matches_emitted += matches
        return outputs

    def _expire(self, now):
        for start in [
            s for s, (end, _) in self._windows.items() if end <= now
        ]:
            del self._windows[start]

    def on_time(self, now):
        self._expire(now)
        return []

    @property
    def buffered_windows(self):
        return len(self._windows)


# ------------------------------------------------------------ strategies

_RATIOS = (0.1, 0.125, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0)

_VALUES = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, width=64
)


@st.composite
def _schedule(draw, max_steps=60, timers=True):
    """Monotone (now, step) schedule of arrivals and timer ticks.

    Steps are ('tuple', now, key, value, origin) or ('timer', now).
    Zero deltas are allowed (bursts at one instant), and key choice is
    skewed by drawing from a small alphabet of non-uniform weight.
    """
    num_keys = draw(st.integers(min_value=1, max_value=4))
    skew = draw(st.integers(min_value=0, max_value=2))
    steps = []
    now = 0.0
    n = draw(st.integers(min_value=1, max_value=max_steps))
    for _ in range(n):
        now += draw(
            st.sampled_from((0.0, 0.001, 0.0133, 0.05, 0.11, 0.24))
        )
        if timers and draw(st.booleans()) and draw(st.booleans()):
            steps.append(("timer", now))
            continue
        key = draw(st.integers(min_value=0, max_value=num_keys - 1))
        if skew and key > 0 and draw(st.booleans()):
            key = 0  # pile extra mass on one hot key
        value = draw(_VALUES)
        origin = now - draw(st.sampled_from((0.0, 0.002, 0.05)))
        steps.append(("tuple", now, key, value, origin))
    return steps


def _time_assigner(draw):
    duration = draw(
        st.sampled_from((0.02, 0.05, 0.1, 0.13, 0.25, 0.4))
    )
    ratio = draw(st.sampled_from(_RATIOS))
    if ratio >= 1.0:
        return draw(
            st.sampled_from(
                (
                    TumblingTimeWindows(duration),
                    SlidingTimeWindows(duration, duration),
                )
            )
        )
    return SlidingTimeWindows(duration, duration * ratio)


_time_assigners = st.composite(_time_assigner)()

_functions = st.sampled_from(list(AggregateFunction))


def _tuple_of(step):
    _, now, key, value, origin = step
    return StreamTuple(
        values=(key, value),
        event_time=now,
        origin_time=origin,
        key=key,
        size_bytes=24.0,
    )


def _assert_same(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.values == want.values
        assert got.event_time == want.event_time
        assert got.origin_time == want.origin_time
        # a tie between 0.0 and -0.0 shows which side's origin was kept
        assert math.copysign(1.0, got.origin_time) == math.copysign(
            1.0, want.origin_time
        )
        assert got.key == want.key
        assert got.size_bytes == want.size_bytes


# ------------------------------------------------------------ properties


class TestAssignIndexRange:
    @given(
        assigner=_time_assigners,
        times=st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_assign(self, assigner, times):
        """The index interval covers exactly assign()'s windows,

        including both boundary directions of the fp rounding."""
        for t in times:
            lo, hi = assigner.assign_index_range(t)
            spans = [
                (assigner.window_start(i), assigner.window_end(i))
                for i in range(lo, hi + 1)
            ]
            assert spans == [
                (w.start, w.end) for w in assigner.assign(t)
            ]


class TestSlicedTimeAggEquivalence:
    @given(
        assigner=_time_assigners,
        function=_functions,
        steps=_schedule(),
    )
    @settings(max_examples=250, deadline=None)
    def test_equals_naive_per_window(self, assigner, function, steps):
        """Slice-based aggregation emits bit-identical tuples, in the

        same order, as buffering every value into every window —
        across timer-driven and arrival-driven fires and the flush."""
        sliced = WindowAggregateLogic(
            assigner, function, value_field=1, key_field=0
        )
        naive = _NaiveTimeAgg(assigner, function)
        now = 0.0
        for step in steps:
            now = step[1]
            if step[0] == "timer":
                _assert_same(sliced.on_time(now), naive.on_time(now))
            else:
                tup = _tuple_of(step)
                _assert_same(
                    sliced.process(tup, now), naive.process(tup, now)
                )
        _assert_same(sliced.flush(now + 1.0), naive.flush(now + 1.0))


class TestCountAggEquivalence:
    @given(
        length=st.integers(min_value=1, max_value=8),
        ratio=st.floats(min_value=0.1, max_value=1.0),
        tumbling=st.booleans(),
        function=_functions,
        steps=_schedule(timers=False),
    )
    @settings(max_examples=250, deadline=None)
    def test_equals_naive_buffering(
        self, length, ratio, tumbling, function, steps
    ):
        """Accumulator/monotonic-deque count windows reproduce the

        list-buffering reference exactly, including flush of partial
        buffers and the running min-origin."""
        if tumbling:
            assigner = TumblingCountWindows(length)
        else:
            slide = max(1, min(length, round(length * ratio)))
            assigner = SlidingCountWindows(length, slide)
        incremental = WindowAggregateLogic(
            assigner, function, value_field=1, key_field=0
        )
        naive = _NaiveCountAgg(assigner, function)
        now = 0.0
        for step in steps:
            now = step[1]
            tup = _tuple_of(step)
            _assert_same(
                incremental.process(tup, now), naive.process(tup, now)
            )
        _assert_same(
            incremental.flush(now + 1.0), naive.flush(now + 1.0)
        )


class TestEventTimeAggEquivalence:
    @given(
        assigner=_time_assigners,
        function=_functions,
        max_ooo=st.sampled_from((0.0, 0.01, 0.05, 0.2)),
        lateness=st.sampled_from((0.0, 0.02)),
        steps=_schedule(),
        disorder=st.lists(
            st.sampled_from((0.0, 0.005, 0.04, 0.15)),
            min_size=60,
            max_size=60,
        ),
    )
    @settings(max_examples=250, deadline=None)
    def test_equals_naive_per_window(
        self, assigner, function, max_ooo, lateness, steps, disorder
    ):
        """Accumulator state + heap firing reproduces the buffering

        reference under out-of-order event times, late drops, idle
        watermark advancement and flush."""
        incremental = EventTimeWindowAggregateLogic(
            assigner,
            function,
            value_field=1,
            key_field=0,
            max_out_of_orderness=max_ooo,
            allowed_lateness=lateness,
        )
        naive = _NaiveEventAgg(assigner, function, max_ooo, lateness)
        now = 0.0
        i = 0
        for step in steps:
            now = step[1]
            if step[0] == "timer":
                _assert_same(
                    incremental.on_time(now), naive.on_time(now)
                )
                continue
            _, _, key, value, origin = step
            event_time = max(now - disorder[i % len(disorder)], 0.0)
            i += 1
            tup = StreamTuple(
                values=(key, value),
                event_time=event_time,
                origin_time=origin,
                key=key,
                size_bytes=24.0,
            )
            _assert_same(
                incremental.process(tup, now), naive.process(tup, now)
            )
            assert incremental.late_dropped == naive.late_dropped
        _assert_same(
            incremental.flush(now + 1.0), naive.flush(now + 1.0)
        )


#: where each join side carries its key: both in field 0, both only in
#: the pre-assigned ``key`` (how hash exchanges deliver a join's
#: inputs), or left in field 0 and right in field 1
_JOIN_KEY_FIELDS = {"fields": (0, 0), "keyed": (None, None), "split": (0, 1)}


def _join_tuple(step, port, layout, origin):
    _, now, key, value, _ = step
    if layout == "keyed":
        values = (value,)
    elif layout == "split" and port == 1:
        values = (value, key)
    else:
        values = (key, value)
    return StreamTuple(
        values=values,
        event_time=now,
        origin_time=origin,
        key=key,
        size_bytes=24.0,
    )


class TestJoinEquivalence:
    @given(
        assigner=_time_assigners,
        cap=st.sampled_from((1, 3, 64)),
        steps=_schedule(timers=False),
        ports=st.lists(
            st.integers(min_value=0, max_value=1),
            min_size=60,
            max_size=60,
        ),
        timer_every=st.integers(min_value=0, max_value=7),
        layout=st.sampled_from(sorted(_JOIN_KEY_FIELDS)),
        ties=st.booleans(),
    )
    @settings(max_examples=250, deadline=None)
    def test_equals_naive_per_window(
        self, assigner, cap, steps, ports, timer_every, layout, ties
    ):
        """Slice-buffered probing emits the exact per-window match

        sequence (duplicates per shared window included), honours the
        probe cap identically, and tracks the same live-window count —
        for key fields, pre-keyed input and per-side key fields, and
        with every origin a signed zero (``ties``), so every match is
        an origin tie that only the left side's zero resolves."""
        left_field, right_field = _JOIN_KEY_FIELDS[layout]
        sliced = WindowJoinLogic(
            assigner,
            left_key_field=left_field,
            right_key_field=right_field,
            max_matches_per_probe=cap,
        )
        naive = _NaiveJoin(assigner, cap, _JOIN_KEY_FIELDS[layout])
        i = 0
        for step in steps:
            now = step[1]
            port = ports[i % len(ports)]
            origin = (-0.0 if i % 2 else 0.0) if ties else step[4]
            tup = _join_tuple(step, port, layout, origin)
            i += 1
            if timer_every and i % timer_every == 0:
                sliced.on_time(now)
                naive.on_time(now)
                assert sliced.buffered_windows == naive.buffered_windows
            _assert_same(
                sliced.process(tup, now, port),
                naive.process(tup, now, port),
            )
            assert sliced.matches_emitted == naive.matches_emitted
            assert sliced.buffered_windows == naive.buffered_windows

    def test_cap_cuts_a_window_fed_by_two_slices(self):
        """Windows 1 and 2 of length 1.0 and slide 0.5 cover a probe at

        1.2; window 1 also covers an older slice. Its matches come
        from both slices, and the cap cuts inside it: the older slice's
        two, then the newer slice's first."""
        assigner = SlidingTimeWindows(1.0, 0.5)
        sliced = WindowJoinLogic(
            assigner, left_key_field=0, right_key_field=0,
            max_matches_per_probe=3,
        )
        naive = _NaiveJoin(assigner, 3)
        for now, value in ((0.6, 1.0), (0.7, 2.0), (1.1, 3.0), (1.15, 4.0)):
            tup = StreamTuple(values=("k", value), event_time=now)
            assert sliced.process(tup, now, 0) == []
            naive.process(tup, now, 0)
        assert assigner.assign_index_range(0.7) == (0, 1)
        assert assigner.assign_index_range(1.2) == (1, 2)
        probe = StreamTuple(values=("k", 9.0), event_time=1.2)
        out = sliced.process(probe, 1.2, 1)
        _assert_same(out, naive.process(probe, 1.2, 1))
        assert [m.values for m in out] == [
            ("k", value, "k", 9.0) for value in (1.0, 2.0, 3.0)
        ]
        assert sliced.live_slices == 2
        assert sliced.matches_emitted == 3
