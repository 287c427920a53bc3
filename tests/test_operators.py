"""Unit tests for operator logics: filter, map, windows, join, UDO, sink."""

import math

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.sps.operators.aggregate import WindowAggregateLogic
from repro.sps.operators.base import OperatorContext
from repro.sps.operators.filter_op import FilterLogic
from repro.sps.operators.join import WindowJoinLogic
from repro.sps.operators.map_op import FlatMapLogic, MapLogic
from repro.sps.operators.sink import SinkLogic
from repro.sps.operators.source import SourceLogic
from repro.sps.operators.udo import FunctionUDO
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.tuples import StreamTuple
from repro.sps.windows import (
    AggregateFunction,
    SlidingCountWindows,
    SlidingTimeWindows,
    TumblingCountWindows,
    TumblingTimeWindows,
)


def ctx(index=0, parallelism=1):
    return OperatorContext(
        op_id="op",
        subtask_index=index,
        parallelism=parallelism,
        rng=np.random.default_rng(0),
    )


def tup(*values, t=0.0, key=None, origin=None):
    return StreamTuple(
        values=values, event_time=t, origin_time=origin, key=key
    )


class TestFilterLogic:
    def test_pass_and_drop(self):
        logic = FilterLogic(Predicate(0, FilterFunction.GT, 5))
        logic.setup(ctx())
        assert logic.process(tup(9), 0.0) == [tup(9).values] or True
        assert len(logic.process(tup(9), 0.0)) == 1
        assert logic.process(tup(3), 0.0) == []

    def test_observed_selectivity(self):
        logic = FilterLogic(Predicate(0, FilterFunction.GT, 5))
        logic.setup(ctx())
        for value in [1, 6, 7, 2]:
            logic.process(tup(value), 0.0)
        assert logic.observed_selectivity == pytest.approx(0.5)

    def test_selectivity_before_input(self):
        logic = FilterLogic(Predicate(0, FilterFunction.GT, 5))
        assert logic.observed_selectivity == 1.0


class TestMapLogics:
    def test_map_transforms_values(self):
        logic = MapLogic(lambda values: (values[0] * 2,))
        logic.setup(ctx())
        out = logic.process(tup(21, origin=1.5), 9.0)
        assert out[0].values == (42,)
        assert out[0].origin_time == 1.5

    def test_flatmap_fanout(self):
        logic = FlatMapLogic(
            lambda values: [(w,) for w in values[0].split()],
            expected_fanout=2.0,
        )
        logic.setup(ctx())
        out = logic.process(tup("a b c"), 0.0)
        assert [o.values for o in out] == [("a",), ("b",), ("c",)]
        # work units reflect last fan-out relative to expectation
        assert logic.work_units(tup("x")) == pytest.approx(1.5)

    def test_flatmap_empty_output(self):
        logic = FlatMapLogic(lambda values: [], expected_fanout=1.0)
        logic.setup(ctx())
        assert logic.process(tup("x"), 0.0) == []


class TestSourceLogic:
    def test_generate_stamps_times(self):
        logic = SourceLogic(
            lambda rng, now: StreamTuple(values=(1,), event_time=-1.0)
        )
        logic.setup(ctx())
        out = logic.generate(7.5)
        assert out.event_time == 7.5
        assert out.origin_time == 7.5
        assert logic.emitted == 1

    def test_process_forbidden(self):
        logic = SourceLogic(lambda rng, now: tup(1))
        logic.setup(ctx())
        with pytest.raises(RuntimeError):
            logic.process(tup(1), 0.0)


class TestTumblingTimeAggregate:
    def _logic(self, function=AggregateFunction.SUM):
        logic = WindowAggregateLogic(
            TumblingTimeWindows(1.0), function, value_field=1, key_field=0
        )
        logic.setup(ctx())
        return logic

    def test_fires_when_window_passes(self):
        logic = self._logic()
        assert logic.process(tup("a", 1.0), now=0.2) == []
        assert logic.process(tup("a", 2.0), now=0.7) == []
        out = logic.process(tup("a", 5.0), now=1.1)
        assert len(out) == 1
        assert out[0].values == ("a", 3.0)  # sum of first window only

    def test_origin_is_earliest_contributor(self):
        logic = self._logic()
        logic.process(tup("a", 1.0, origin=0.2), now=0.2)
        logic.process(tup("a", 1.0, origin=0.9), now=0.9)
        out = logic.on_time(now=1.0)
        assert out[0].origin_time == pytest.approx(0.2)

    def test_keys_are_independent(self):
        logic = self._logic()
        logic.process(tup("a", 1.0), now=0.1)
        logic.process(tup("b", 10.0), now=0.2)
        out = logic.on_time(now=1.0)
        values = {o.values[0]: o.values[1] for o in out}
        assert values == {"a": 1.0, "b": 10.0}

    def test_flush_emits_incomplete_windows(self):
        logic = self._logic()
        logic.process(tup("a", 4.0), now=0.3)
        out = logic.flush(now=0.5)
        assert len(out) == 1
        assert out[0].values == ("a", 4.0)
        assert logic.flush(now=0.6) == []  # idempotent

    def test_timer_interval_set(self):
        assert self._logic().timer_interval == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "function,expected",
        [
            (AggregateFunction.MIN, 1.0),
            (AggregateFunction.MAX, 3.0),
            (AggregateFunction.AVG, 2.0),
            (AggregateFunction.COUNT, 3.0),
        ],
    )
    def test_aggregate_functions(self, function, expected):
        logic = self._logic(function)
        for value in (1.0, 2.0, 3.0):
            logic.process(tup("k", value), now=0.1)
        out = logic.on_time(now=1.5)
        assert out[0].values[1] == pytest.approx(expected)

    def test_global_window_without_key(self):
        logic = WindowAggregateLogic(
            TumblingTimeWindows(1.0), AggregateFunction.SUM, value_field=0
        )
        logic.setup(ctx())
        logic.process(tup(1.0), now=0.1)
        logic.process(tup(2.0), now=0.2)
        out = logic.on_time(now=1.0)
        assert out[0].values == (None, 3.0)


class TestSlidingTimeAggregate:
    def test_value_counted_in_overlapping_windows(self):
        logic = WindowAggregateLogic(
            SlidingTimeWindows(1.0, 0.5),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
        )
        logic.setup(ctx())
        logic.process(tup("a", 1.0), now=0.75)  # windows [0,1) and [0.5,1.5)
        out = logic.on_time(now=1.6)
        assert len(out) == 2
        assert all(o.values == ("a", 1.0) for o in out)


class TestCountAggregates:
    def test_tumbling_count_fires_exactly_at_length(self):
        logic = WindowAggregateLogic(
            TumblingCountWindows(3),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
        )
        logic.setup(ctx())
        assert logic.process(tup("a", 1.0), 0.0) == []
        assert logic.process(tup("a", 2.0), 0.1) == []
        out = logic.process(tup("a", 3.0), 0.2)
        assert out[0].values == ("a", 6.0)
        # counter reset: the next window starts fresh
        assert logic.process(tup("a", 9.0), 0.3) == []

    def test_sliding_count_slide(self):
        logic = WindowAggregateLogic(
            SlidingCountWindows(3, 2),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
        )
        logic.setup(ctx())
        outs = []
        for i, value in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]):
            outs.extend(logic.process(tup("a", value), float(i)))
        # Only full windows fire: the first once the buffer holds 3
        # values, then every 2 tuples over the last 3 values.
        assert [o.values[1] for o in outs] == [6.0, 12.0, 18.0]

    def test_count_flush(self):
        logic = WindowAggregateLogic(
            TumblingCountWindows(5),
            AggregateFunction.COUNT,
            value_field=1,
            key_field=0,
        )
        logic.setup(ctx())
        logic.process(tup("a", 1.0), 0.0)
        logic.process(tup("a", 1.0), 0.1)
        out = logic.flush(1.0)
        assert out[0].values == ("a", 2.0)


class TestWindowJoin:
    def _logic(self):
        logic = WindowJoinLogic(
            TumblingTimeWindows(1.0), left_key_field=0, right_key_field=0
        )
        logic.setup(ctx())
        return logic

    def test_matching_keys_join(self):
        logic = self._logic()
        assert logic.process(tup("k", 1.0), now=0.1, port=0) == []
        out = logic.process(tup("k", 2.0), now=0.2, port=1)
        assert len(out) == 1
        assert out[0].values == ("k", 1.0, "k", 2.0)

    def test_left_right_order_preserved(self):
        logic = self._logic()
        logic.process(tup("k", "right"), now=0.1, port=1)
        out = logic.process(tup("k", "left"), now=0.2, port=0)
        assert out[0].values == ("k", "left", "k", "right")

    def test_non_matching_keys_do_not_join(self):
        logic = self._logic()
        logic.process(tup("a", 1.0), now=0.1, port=0)
        assert logic.process(tup("b", 2.0), now=0.2, port=1) == []

    def test_window_expiry_prevents_joins(self):
        logic = self._logic()
        logic.process(tup("k", 1.0), now=0.1, port=0)
        # Second tuple arrives in the next window: no match.
        assert logic.process(tup("k", 2.0), now=1.5, port=1) == []
        assert logic.buffered_windows == 1  # old window evicted

    def test_origin_is_earliest_of_pair(self):
        logic = self._logic()
        logic.process(tup("k", 1.0, origin=0.05), now=0.1, port=0)
        out = logic.process(tup("k", 2.0, origin=0.2), now=0.2, port=1)
        assert out[0].origin_time == pytest.approx(0.05)

    def test_origin_is_earliest_with_left_on_tie(self):
        """A match carries the earlier origin of its pair, from either
        side; on a tie the left side's (a 0.0/-0.0 tie shows which)."""
        for left, right, want in (
            (1.0, 9.0, 1.0),
            (9.0, 1.0, 1.0),
            (0.0, -0.0, 0.0),
            (-0.0, 0.0, -0.0),
        ):
            for probe_port in (0, 1):
                logic = self._logic()
                origins = (left, right)
                build = tup("k", 1.0, origin=origins[1 - probe_port])
                logic.process(build, now=0.1, port=1 - probe_port)
                probe = tup("k", 2.0, origin=origins[probe_port])
                (out,) = logic.process(probe, now=0.2, port=probe_port)
                assert out.origin_time == want
                assert math.copysign(1.0, out.origin_time) == (
                    math.copysign(1.0, want)
                )

    def test_multiple_matches(self):
        logic = self._logic()
        logic.process(tup("k", 1.0), now=0.1, port=0)
        logic.process(tup("k", 2.0), now=0.15, port=0)
        out = logic.process(tup("k", 9.0), now=0.2, port=1)
        assert len(out) == 2

    def test_match_cap(self):
        logic = WindowJoinLogic(
            TumblingTimeWindows(1.0),
            left_key_field=0,
            right_key_field=0,
            max_matches_per_probe=3,
        )
        logic.setup(ctx())
        for _ in range(10):
            logic.process(tup("k", 1.0), now=0.1, port=0)
        out = logic.process(tup("k", 2.0), now=0.2, port=1)
        assert len(out) == 3

    def test_match_cap_feeds_cost_accounting(self):
        """A capped probe bills exactly the capped match count.

        ``work_units`` reads the previous probe's matches, so the cap
        must flow into the next billing, and a subsequent zero-match
        probe must drop the cost back to the base unit.
        """
        logic = WindowJoinLogic(
            TumblingTimeWindows(1.0),
            left_key_field=0,
            right_key_field=0,
            max_matches_per_probe=3,
        )
        logic.setup(ctx())
        for _ in range(10):
            logic.process(tup("k", 1.0), now=0.1, port=0)
        out = logic.process(tup("k", 2.0), now=0.2, port=1)
        assert len(out) == 3
        assert logic.matches_emitted == 3
        assert logic.work_units(tup("k", 0.0)) == pytest.approx(2.5)
        assert logic.process(tup("miss", 0.0), now=0.3, port=1) == []
        assert logic.work_units(tup("k", 0.0)) == pytest.approx(1.0)

    def test_raising_probe_resets_cost_accounting(self):
        """A probe that raises must not leave ``work_units`` reading the

        previous successful probe's match count (stale-cost regression:
        raising paths used to skip the ``_last_matches`` update)."""
        logic = self._logic()
        for _ in range(4):
            logic.process(tup("k", 1.0), now=0.1, port=0)
        assert len(logic.process(tup("k", 2.0), now=0.2, port=1)) == 4
        assert logic.work_units(tup("k", 0.0)) == pytest.approx(3.0)
        with pytest.raises(ConfigurationError):
            logic.process(tup("k", 3.0), now=0.3, port=2)
        assert logic.work_units(tup("k", 0.0)) == pytest.approx(1.0)
        assert logic.matches_emitted == 4  # raising probe emitted nothing

    def test_invalid_port(self):
        with pytest.raises(ConfigurationError):
            self._logic().process(tup("k", 1.0), now=0.1, port=2)

    def test_count_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            WindowJoinLogic(TumblingCountWindows(10))

    def test_reference_nested_loop_equivalence(self):
        """Symmetric hash join == reference nested-loop join per window."""
        rng = np.random.default_rng(3)
        logic = self._logic()
        left = [
            tup(int(rng.integers(4)), i, t=float(rng.uniform(0, 1)))
            for i in range(30)
        ]
        right = [
            tup(int(rng.integers(4)), 100 + i, t=float(rng.uniform(0, 1)))
            for i in range(30)
        ]
        events = sorted(
            [(t.event_time, 0, t) for t in left]
            + [(t.event_time, 1, t) for t in right]
        )
        joined = []
        for when, port, tuple_ in events:
            joined.extend(
                o.values for o in logic.process(tuple_, when, port)
            )
        # Reference: all-pairs within the single [0, 1) window.
        expected = {
            (lt.values[0], lt.values[1], rt.values[0], rt.values[1])
            for lt in left
            for rt in right
            if lt.values[0] == rt.values[0]
        }
        assert set(joined) == expected


class TestFunctionUDO:
    def test_state_persists(self):
        def count(state, tuple_, now):
            state["n"] = state.get("n", 0) + 1
            return [tuple_.with_values((state["n"],))]

        logic = FunctionUDO(count)
        logic.setup(ctx())
        logic.process(tup(0), 0.0)
        out = logic.process(tup(0), 0.1)
        assert out[0].values == (2,)

    def test_work_profile(self):
        logic = FunctionUDO(
            lambda state, t, now: [], work_profile=lambda t: 7.0
        )
        assert logic.work_units(tup(1)) == 7.0

    def test_timer_fn(self):
        def on_timer(state, now):
            return [StreamTuple(values=("tick",), event_time=now)]

        logic = FunctionUDO(
            lambda state, t, now: [],
            timer_fn=on_timer,
            timer_interval=0.5,
        )
        logic.setup(ctx())
        assert logic.timer_interval == 0.5
        assert logic.on_time(1.0)[0].values == ("tick",)


class TestSink:
    def test_latency_recorded(self):
        sink = SinkLogic()
        sink.setup(ctx())
        sink.process(tup(1, origin=1.0), now=3.5)
        assert sink.latencies == [pytest.approx(2.5)]
        assert sink.received == 1

    def test_keeps_values_when_asked(self):
        sink = SinkLogic(keep_values=True, max_kept=2)
        sink.setup(ctx())
        for i in range(5):
            sink.process(tup(i), now=float(i))
        assert sink.results == [(0,), (1,)]
        assert sink.received == 5
