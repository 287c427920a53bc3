"""Tests for recorded-trace replay (the Kafka producer stand-in)."""

import numpy as np
import pytest

from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.types import DataType, Field, Schema
from repro.storage import DocumentStore
from repro.workload.replay import (
    RecordedTrace,
    diurnal_rate_profile,
    replay_generator,
)

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])
ROWS = [(1, 0.1), (2, 0.2), (3, 0.3)]


class TestRecordedTrace:
    def test_basic_construction(self):
        trace = RecordedTrace("t", SCHEMA, ROWS)
        assert len(trace) == 3
        assert trace.rows[1] == (2, 0.2)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="values"):
            RecordedTrace("t", SCHEMA, [(1, 2, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordedTrace("t", SCHEMA, [])

    def test_record_from_sampler(self):
        rng = np.random.default_rng(0)
        trace = RecordedTrace.record(
            "sampled",
            SCHEMA,
            lambda r: (int(r.integers(5)), float(r.random())),
            count=40,
            rng=rng,
        )
        assert len(trace) == 40

    def test_store_roundtrip(self):
        store = DocumentStore()
        RecordedTrace("grid", SCHEMA, ROWS).save(store["traces"])
        loaded = RecordedTrace.load(store["traces"], "grid")
        assert loaded.rows == [tuple(r) for r in ROWS]
        assert loaded.schema == SCHEMA

    def test_load_missing(self):
        store = DocumentStore()
        with pytest.raises(ConfigurationError, match="no recorded"):
            RecordedTrace.load(store["traces"], "ghost")


class TestReplayGenerator:
    def test_cycles_infinitely(self):
        trace = RecordedTrace("t", SCHEMA, ROWS)
        generate = replay_generator(trace)
        rng = np.random.default_rng(7)
        values = [generate(rng, float(i)).values for i in range(7)]
        # After the random start offset, consecutive reads walk the
        # trace in order, wrapping around.
        start = ROWS.index(values[0])
        expected = [
            tuple(ROWS[(start + i) % len(ROWS)]) for i in range(7)
        ]
        assert values == expected

    def test_distinct_instances_get_distinct_offsets(self):
        trace = RecordedTrace("t", SCHEMA, list(range_rows(50)))
        starts = set()
        for seed in range(8):
            generate = replay_generator(trace)
            rng = np.random.default_rng(seed)
            starts.add(generate(rng, 0.0).values[0])
        assert len(starts) > 3

    def test_end_to_end_replay_source(self):
        trace = RecordedTrace("t", SCHEMA, list(range_rows(10)))
        plan = LogicalPlan("replay")
        plan.add_operator(
            builders.source(
                "src",
                replay_generator(trace),
                SCHEMA,
                event_rate=1000.0,
                parallelism=2,
            )
        )
        plan.add_operator(builders.sink("sink", keep_values=True))
        plan.connect("src", "sink")
        engine = StreamEngine(
            plan,
            homogeneous_cluster(num_nodes=2),
            config=SimulationConfig(
                max_tuples_per_source=200,
                max_sim_time=2.0,
                warmup_fraction=0.0,
                keep_sink_values=True,
            ),
            rng_factory=RngFactory(3),
        )
        metrics = engine.run()
        assert metrics.results == 200
        from repro.sps.operators.sink import SinkLogic

        seen_keys = {
            values[0]
            for rt in engine._runtimes
            if isinstance(rt.logic, SinkLogic)
            for values in rt.logic.results
        }
        # 200 reads over a 10-row trace: every row replayed many times.
        assert seen_keys == set(range(10))


class TestReplayCursorPerSubtask:
    """The cursor belongs to the subtask, not to the plan's closure."""

    def _plan(self, rows):
        trace = RecordedTrace("t", SCHEMA, list(range_rows(rows)))
        plan = LogicalPlan("replay")
        plan.add_operator(
            builders.source(
                "src",
                replay_generator(trace),
                SCHEMA,
                event_rate=1000.0,
                parallelism=2,
            )
        )
        plan.add_operator(builders.sink("sink", keep_values=True))
        plan.connect("src", "sink")
        return plan

    def _sink_values(self, plan, tuples, shards=None, force_inline=True):
        engine = StreamEngine(
            plan,
            homogeneous_cluster(num_nodes=2),
            config=SimulationConfig(
                max_tuples_per_source=tuples,
                max_sim_time=2.0,
                warmup_fraction=0.0,
                keep_sink_values=True,
                shards=shards,
            ),
            rng_factory=RngFactory(3),
        )
        engine.shard_force_inline = force_inline
        engine.run()
        from repro.sps.operators.sink import SinkLogic

        return [
            values
            for rt in engine._runtimes
            if isinstance(rt.logic, SinkLogic)
            for values in rt.logic.results
        ]

    def test_same_plan_runs_twice_identically(self):
        plan = self._plan(7)
        first = self._sink_values(plan, 40)
        assert len(first) == 40
        assert self._sink_values(plan, 40) == first

    def test_subtasks_walk_the_trace_from_their_own_offsets(self):
        from repro.sps.operators.base import OperatorContext

        rows = 50
        source = self._plan(rows).operator("src")
        starts = []
        for index in range(8):
            logic = source.logic_factory()
            rng = RngFactory(3).fresh("engine", "src", str(index))
            logic.setup(OperatorContext("src", index, 8, rng))
            keys = [logic.generate(float(i)).values[0] for i in range(60)]
            assert keys == [(keys[0] + i) % rows for i in range(60)]
            starts.append(keys[0])
        assert len(set(starts)) > 3

    def test_forked_shards_match_inline(self):
        plan = self._plan(11)
        inline = self._sink_values(plan, 30, shards=1)
        forked = self._sink_values(plan, 30, shards=2, force_inline=False)
        assert len(inline) == 30
        assert sorted(forked) == sorted(inline)


def range_rows(n):
    for i in range(n):
        yield (i, float(i) / 10.0)


class TestProfileArrival:
    def _run(self, rate_profile, tuples=600):
        plan = LogicalPlan("profile-arrivals")
        source = builders.source(
            "src",
            replay_generator(RecordedTrace("t", SCHEMA, ROWS)),
            SCHEMA,
            event_rate=1000.0,
            arrival="profile",
        )
        source.metadata["rate_profile"] = rate_profile
        plan.add_operator(source)
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "sink")
        engine = StreamEngine(
            plan,
            homogeneous_cluster(num_nodes=2),
            config=SimulationConfig(
                max_tuples_per_source=tuples,
                max_sim_time=30.0,
                warmup_fraction=0.0,
            ),
            rng_factory=RngFactory(8),
        )
        return engine.run()

    def test_profile_modulates_rate(self):
        # A profile twice the flat rate should finish the budget in
        # roughly half the simulated time.
        fast = self._run(lambda now: 2000.0)
        slow = self._run(lambda now: 500.0)
        assert fast.sim_duration < slow.sim_duration / 2.5

    def test_diurnal_profile_runs_end_to_end(self):
        metrics = self._run(
            diurnal_rate_profile(1000.0, 2.0, day_length_s=0.5)
        )
        assert metrics.results == 600

    def test_missing_profile_rejected(self):
        plan = LogicalPlan("missing-profile")
        source = builders.source(
            "src",
            replay_generator(RecordedTrace("t", SCHEMA, ROWS)),
            SCHEMA,
            event_rate=1000.0,
            arrival="profile",
        )
        plan.add_operator(source)
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "sink")
        engine = StreamEngine(
            plan,
            homogeneous_cluster(num_nodes=1),
            config=SimulationConfig(max_tuples_per_source=10),
            rng_factory=RngFactory(1),
        )
        with pytest.raises(ConfigurationError, match="rate_profile"):
            engine.run()


class TestDiurnalProfile:
    def test_swings_between_bounds(self):
        rate_at = diurnal_rate_profile(
            1000.0, peak_factor=2.0, day_length_s=10.0
        )
        samples = [rate_at(t / 10.0) for t in range(100)]
        assert min(samples) == pytest.approx(500.0, rel=0.05)
        assert max(samples) == pytest.approx(2000.0, rel=0.05)

    def test_periodic(self):
        rate_at = diurnal_rate_profile(100.0, day_length_s=5.0)
        assert rate_at(1.0) == pytest.approx(rate_at(6.0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            diurnal_rate_profile(0.0)
        with pytest.raises(ConfigurationError):
            diurnal_rate_profile(10.0, peak_factor=0.5)
        with pytest.raises(ConfigurationError):
            diurnal_rate_profile(10.0, day_length_s=0.0)

    @pytest.mark.parametrize(
        "knob", ["base_rate", "peak_factor", "day_length_s"]
    )
    def test_nan_is_refused(self, knob):
        """NaN passed the ``<= 0`` and ``< 1.0`` checks."""
        knobs = dict(base_rate=10.0, peak_factor=2.0, day_length_s=5.0)
        knobs[knob] = float("nan")
        with pytest.raises(ConfigurationError, match=knob):
            diurnal_rate_profile(**knobs)
