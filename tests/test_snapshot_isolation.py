"""Snapshot isolation of the checkpoint protocol (hypothesis).

The invariant stated in ``repro/sps/operators/base.py``: nothing
reachable from a ``snapshot_state`` result is ever mutated — not by the
live instance that took it, not by any instance restored from it. The
built-in logics rely on it to *share* sealed structure with their
snapshots instead of deep-copying, so it is checked here for every one
of them: feed a prefix, snapshot, keep feeding the live instance; restore
the same snapshot into two fresh instances and feed each the suffix. All
three must emit exactly what a never-snapshotted twin emits (values,
fire times, origins, order), a canonical rendering of the snapshot must
not change while they do, and the snapshot must render like the payload
the deep-copying implementation it replaced would have produced.
"""

from __future__ import annotations

import copy
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ft import estimate_items
from repro.sps.operators.aggregate import WindowAggregateLogic
from repro.sps.operators.base import OperatorLogic
from repro.sps.operators.event_aggregate import EventTimeWindowAggregateLogic
from repro.sps.operators.join import WindowJoinLogic
from repro.sps.operators.udo import FunctionUDO
from repro.sps.tuples import StreamTuple
from repro.sps.windows import (
    AggregateFunction,
    SlidingCountWindows,
    SlidingTimeWindows,
    TumblingCountWindows,
)
from tests.test_window_slicing_properties import (
    _assert_same,
    _functions,
    _schedule,
    _time_assigners,
)

_DISORDER = (0.0, 0.005, 0.04, 0.15)


def _render(obj):
    """Canonical rendering of a snapshot: slotted accumulators and tuples
    by field, sets sorted (the fire heap is rebuilt from the pending
    *set*; its iteration order carries no meaning), sequences as lists."""
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        fields = [(name, _render(getattr(obj, name))) for name in slots]
        return (type(obj).__name__, fields)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, dict):
        return [(_render(k), _render(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple, deque)):
        return [_render(item) for item in obj]
    return obj


def _feed(logic, steps):
    """Drive ``logic`` through ``steps``; one output batch per step.

    Event-time disorder and the join port are derived from the drawn
    value, so one schedule serves every logic."""
    batches = []
    for step in steps:
        if step[0] == "timer":
            batches.append(logic.on_time(step[1]))
            continue
        _, now, key, value, origin = step
        salt = int(abs(value))
        tup = StreamTuple(
            values=(key, value),
            event_time=max(now - _DISORDER[salt % 4], 0.0),
            origin_time=origin,
            key=key,
            size_bytes=24.0,
        )
        batches.append(logic.process(tup, now, salt % 2))
    return batches


def _exported(logic):
    """What ``OperatorLogic.snapshot_state`` used to store for a logic
    with the migration pair: a deep copy of everything exported."""
    return copy.deepcopy(logic.export_keyed_state())


def _check_isolation(make, steps, cut, reference):
    cut %= len(steps) + 1
    prefix, suffix = steps[:cut], steps[cut:]
    end = steps[-1][1] + 1.0
    twin, live, old = make(), make(), make()
    for logic in (twin, live, old):
        _feed(logic, prefix)
    snapshot = live.snapshot_state()
    before = _render(snapshot)
    if reference is not None:
        assert before == _render(reference(old))
    assert live.state_items() == estimate_items(snapshot)
    expected = _feed(twin, suffix) + [twin.flush(end)]
    restored = [make(), make()]
    for logic in restored:
        logic.restore_state(snapshot)
    for logic in (live, *restored):
        got = _feed(logic, suffix) + [logic.flush(end)]
        assert len(got) == len(expected)
        for batch, want in zip(got, expected):
            _assert_same(batch, want)
        assert _render(snapshot) == before


class TestSnapshotIsolation:
    @given(
        assigner=_time_assigners,
        function=_functions,
        steps=_schedule(),
        cut=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_time_windows(self, assigner, function, steps, cut):
        """Tumbling and sliding time windows, all six functions — the
        sliding float sums exercise the per-slice value lists."""

        def make():
            return WindowAggregateLogic(
                assigner, function, value_field=1, key_field=0
            )

        _check_isolation(make, steps, cut, _exported)

    @given(
        length=st.integers(min_value=1, max_value=8),
        ratio=st.floats(min_value=0.1, max_value=1.0),
        tumbling=st.booleans(),
        function=_functions,
        steps=_schedule(timers=False),
        cut=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_count_windows(
        self, length, ratio, tumbling, function, steps, cut
    ):
        if tumbling:
            assigner = TumblingCountWindows(length)
        else:
            assigner = SlidingCountWindows(length, max(1, int(length * ratio)))

        def make():
            return WindowAggregateLogic(
                assigner, function, value_field=1, key_field=0
            )

        _check_isolation(make, steps, cut, _exported)

    @given(
        assigner=_time_assigners,
        function=_functions,
        max_ooo=st.sampled_from((0.0, 0.01, 0.05, 0.2)),
        lateness=st.sampled_from((0.0, 0.02)),
        steps=_schedule(),
        cut=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_event_time_windows(
        self, assigner, function, max_ooo, lateness, steps, cut
    ):
        def make():
            return EventTimeWindowAggregateLogic(
                assigner,
                function,
                value_field=1,
                key_field=0,
                max_out_of_orderness=max_ooo,
                allowed_lateness=lateness,
            )

        _check_isolation(make, steps, cut, _exported)

    @given(
        assigner=_time_assigners,
        cap=st.sampled_from((1, 3, 64)),
        steps=_schedule(),
        cut=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_window_join(self, assigner, cap, steps, cut):
        def make():
            return WindowJoinLogic(
                assigner,
                left_key_field=0,
                right_key_field=0,
                max_matches_per_probe=cap,
            )

        def deep_copied(logic):
            if not logic._slices and logic._cut is None:
                return None
            return copy.deepcopy(
                (
                    list(logic._slices),
                    logic._cut,
                    logic._next_expire,
                    logic.matches_emitted,
                    logic._last_matches,
                )
            )

        _check_isolation(make, steps, cut, deep_copied)

    @given(
        steps=_schedule(),
        cut=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_function_udo(self, steps, cut):
        """The opaque state dict is the one built-in deep copy left."""

        def fn(state, tup, now):
            key, value = tup.values
            bucket = state.setdefault("seen", {}).setdefault(key, [])
            bucket.append(value)
            state["n"] = state.get("n", 0) + 1
            if len(bucket) % 3:
                return []
            return [
                StreamTuple(
                    values=(key, bucket[-3], state["n"]),
                    event_time=now,
                    origin_time=tup.origin_time,
                    key=key,
                    size_bytes=24.0,
                )
            ]

        _check_isolation(lambda: FunctionUDO(fn), steps, cut, None)


def _tuple(key, value, now):
    return StreamTuple(values=(key, value), event_time=now, key=key)


class TestStructureSharing:
    """The snapshots are views, not copies: what is sealed is shared,
    what is open is private, and ``copy.deepcopy`` is not involved."""

    @pytest.fixture(autouse=True)
    def _no_deepcopy(self, monkeypatch):
        def refuse(_obj, _memo=None):
            raise AssertionError("deepcopy on a built-in checkpoint path")

        monkeypatch.setattr(copy, "deepcopy", refuse)

    def test_time_aggregate_shares_sealed_slices(self):
        live = WindowAggregateLogic(
            SlidingTimeWindows(0.4, 0.1),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
        )
        for i in range(4):
            live.process(_tuple("k", float(i), 0.1 * i), 0.1 * i)
        slices = live._time_state["k"].slices
        assert len(slices) == 4
        [(key, (_, snap, pending, _mark))] = live.snapshot_state()
        assert key == "k" and pending == live._time_state["k"].pending
        assert pending is not live._time_state["k"].pending
        assert all(a is b for a, b in zip(list(snap)[:-1], slices))
        assert snap[-1] is not slices[-1]
        assert snap[-1].values == slices[-1].values
        assert snap[-1].values is not slices[-1].values
        fresh = WindowAggregateLogic(
            live.assigner, live.function, value_field=1, key_field=0
        )
        fresh.restore_state([(key, ("time", snap, pending, _mark))])
        restored = fresh._time_state["k"].slices
        assert all(a is b for a, b in zip(list(restored)[:-1], snap))
        assert restored[-1] is not snap[-1]

    def test_join_shares_buffered_tuples(self):
        live = WindowJoinLogic(
            SlidingTimeWindows(0.4, 0.1),
            left_key_field=0,
            right_key_field=0,
        )
        for i in range(4):
            live.process(_tuple("k", float(i), 0.1 * i), 0.1 * i, i % 2)
        snap = live.snapshot_state()[0]
        assert len(snap) == len(live._slices) == 4
        assert all(a is b for a, b in zip(snap[:-1], live._slices))
        open_snap, open_live = snap[-1], live._slices[-1]
        assert open_snap is not open_live
        for side_snap, side_live in zip(open_snap.sides, open_live.sides):
            assert side_snap == side_live and side_snap is not side_live
            for bucket_key, bucket in side_snap.items():
                assert bucket is not side_live[bucket_key]
                assert all(
                    a is b for a, b in zip(bucket, side_live[bucket_key])
                )

    def test_event_and_count_windows_copy_their_accumulators(self):
        event = EventTimeWindowAggregateLogic(
            SlidingTimeWindows(0.4, 0.1),
            AggregateFunction.MAX,
            value_field=1,
            key_field=0,
        )
        count = WindowAggregateLogic(
            SlidingCountWindows(4, 2),
            AggregateFunction.MIN,
            value_field=1,
            key_field=0,
        )
        for i in range(3):
            event.process(_tuple("k", float(i), 0.1 * i), 0.1 * i)
            count.process(_tuple("k", float(i), 0.1 * i), 0.1 * i)
        [(_, (windows, _max_et, _horizon))] = event.snapshot_state()
        live_windows = event._state["k"].windows
        assert windows.keys() == live_windows.keys()
        assert all(windows[w] is not live_windows[w] for w in windows)
        [(_, (_, acc, _since))] = count.snapshot_state()
        live_acc = count._count_state["k"]
        assert acc is not live_acc and acc.values is not live_acc.values
        assert _render(acc) == _render(live_acc)

    def test_default_for_migration_only_logics_still_deep_copies(self):
        class Keyed(OperatorLogic):
            def __init__(self):
                self.state = {"k": [1.0]}

            def export_keyed_state(self):
                items, self.state = list(self.state.items()), {}
                return items

            def import_keyed_state(self, items):
                self.state.update(items)

        with pytest.raises(AssertionError, match="deepcopy"):
            Keyed().snapshot_state()
        with pytest.raises(AssertionError, match="deepcopy"):
            Keyed().restore_state([("k", [1.0])])
        with pytest.raises(AssertionError, match="deepcopy"):
            FunctionUDO(lambda state, tup, now: []).restore_state({"a": 1})
