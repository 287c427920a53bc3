"""Tests for the discrete-event engine: correctness and queueing behaviour."""

import pytest

from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RngFactory
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows
from tests.conftest import kv_generator

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def run_plan(plan, cluster=None, tuples=600, seed=3, **cfg):
    cluster = cluster or homogeneous_cluster(num_nodes=2)
    cfg.setdefault("max_sim_time", 5.0)
    config = SimulationConfig(max_tuples_per_source=tuples, **cfg)
    engine = StreamEngine(
        plan, cluster, config=config, rng_factory=RngFactory(seed)
    )
    return engine.run()


def passthrough_plan(rate=1000.0, parallelism=1):
    plan = LogicalPlan("pass")
    plan.add_operator(
        builders.source(
            "src", kv_generator(), SCHEMA, event_rate=rate,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "sink")
    return plan


class TestBasicExecution:
    def test_all_tuples_reach_sink(self):
        metrics = run_plan(passthrough_plan(), tuples=500,
                           warmup_fraction=0.0)
        assert metrics.results == 500
        assert metrics.source_events == 500

    def test_latencies_positive(self):
        metrics = run_plan(passthrough_plan())
        assert metrics.latency.minimum > 0
        assert metrics.latency.p50 >= metrics.latency.minimum
        assert metrics.latency.p95 >= metrics.latency.p50

    def test_parallel_source_splits_budget(self):
        metrics = run_plan(
            passthrough_plan(parallelism=4), tuples=400,
            warmup_fraction=0.0,
        )
        assert metrics.source_events == 400

    def test_deterministic_given_seed(self):
        a = run_plan(passthrough_plan(), seed=11)
        b = run_plan(passthrough_plan(), seed=11)
        assert a.latency.p50 == b.latency.p50
        assert a.results == b.results

    def test_seeds_differ(self):
        a = run_plan(passthrough_plan(), seed=11)
        b = run_plan(passthrough_plan(), seed=12)
        assert a.latency.p50 != b.latency.p50

    def test_warmup_drops_samples(self):
        full = run_plan(passthrough_plan(), warmup_fraction=0.0)
        trimmed = run_plan(passthrough_plan(), warmup_fraction=0.5)
        assert trimmed.latency.count < full.latency.count

    def test_filter_selectivity_realized(self):
        plan = LogicalPlan("filtered")
        plan.add_operator(
            builders.source("src", kv_generator(), SCHEMA,
                            event_rate=1000.0)
        )
        plan.add_operator(
            builders.filter_op(
                "flt",
                Predicate(1, FilterFunction.GT, 0.5,
                          selectivity_hint=0.5),
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "flt")
        plan.connect("flt", "sink")
        metrics = run_plan(plan, tuples=2000, warmup_fraction=0.0)
        # ~50% of uniform [0,1) values pass the > 0.5 filter.
        assert 0.4 < metrics.results / metrics.source_events < 0.6

    def test_windowed_aggregation_end_to_end(self, simple_plan):
        metrics = run_plan(simple_plan, tuples=2000, warmup_fraction=0.0)
        assert metrics.results > 10
        # Window time (100ms) is part of end-to-end latency.
        assert metrics.latency.p50 > 0.02

    def test_utilization_reported_per_operator(self, simple_plan):
        metrics = run_plan(simple_plan, tuples=800)
        assert set(metrics.operator_utilization) == {
            "src", "flt", "agg", "sink",
        }
        assert all(
            0 <= u <= 1.5 for u in metrics.operator_utilization.values()
        )

    def test_queue_peaks_reported(self, simple_plan):
        metrics = run_plan(simple_plan, tuples=800)
        assert all(v >= 0 for v in metrics.operator_queue_peak.values())


class TestQueueingBehaviour:
    def _heavy_plan(self, rate, parallelism):
        plan = LogicalPlan("heavy")
        plan.add_operator(
            builders.source("src", kv_generator(), SCHEMA,
                            event_rate=rate)
        )
        heavy = builders.udo(
            "udo",
            lambda: __import__(
                "repro.sps.operators.udo", fromlist=["FunctionUDO"]
            ).FunctionUDO(lambda state, t, now: [t]),
            parallelism=parallelism,
            cost_scale=10.0,  # 400us/tuple: saturates 1 core at 2.5k/s
        )
        plan.add_operator(heavy)
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "udo")
        plan.connect("udo", "sink")
        return plan

    def test_saturation_raises_latency(self):
        light = run_plan(self._heavy_plan(rate=1000, parallelism=1),
                         tuples=1500)
        saturated = run_plan(self._heavy_plan(rate=6000, parallelism=1),
                             tuples=1500)
        assert saturated.latency.p50 > 5 * light.latency.p50

    def test_parallelism_relieves_saturation(self):
        slow = run_plan(self._heavy_plan(rate=6000, parallelism=1),
                        tuples=1500)
        fast = run_plan(self._heavy_plan(rate=6000, parallelism=4),
                        tuples=1500)
        assert fast.latency.p50 < slow.latency.p50 / 2

    def test_arrival_processes(self):
        for arrival in ("poisson", "constant", "bursty"):
            plan = LogicalPlan(f"arrivals-{arrival}")
            plan.add_operator(
                builders.source(
                    "src", kv_generator(), SCHEMA, event_rate=2000.0,
                    arrival=arrival,
                )
            )
            plan.add_operator(builders.sink("sink"))
            plan.connect("src", "sink")
            metrics = run_plan(plan, tuples=500, warmup_fraction=0.0)
            assert metrics.results == 500

    def test_unknown_arrival_rejected(self):
        plan = LogicalPlan("bad-arrival")
        plan.add_operator(
            builders.source(
                "src", kv_generator(), SCHEMA, event_rate=100.0,
                arrival="fractal",
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "sink")
        with pytest.raises(ConfigurationError, match="arrival"):
            run_plan(plan, tuples=10)


class TestTermination:
    def test_time_windows_flush_at_end(self):
        plan = LogicalPlan("flush")
        plan.add_operator(
            builders.source("src", kv_generator(), SCHEMA,
                            event_rate=100.0)
        )
        # 10s windows never complete within the run: only flush emits.
        plan.add_operator(
            builders.window_agg(
                "agg",
                TumblingTimeWindows(10.0),
                AggregateFunction.COUNT,
                value_field=1,
                key_field=0,
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "agg")
        plan.connect("agg", "sink")
        metrics = run_plan(plan, tuples=100, warmup_fraction=0.0)
        assert metrics.results > 0

    def test_sim_time_horizon_caps_run(self):
        plan = passthrough_plan(rate=10.0)  # 1000 tuples would need 100s
        metrics = run_plan(
            plan, tuples=1000, max_sim_time=1.0, warmup_fraction=0.0
        )
        assert metrics.source_events < 1000
        assert metrics.sim_duration <= 1.5

    def test_event_budget_guard(self):
        plan = passthrough_plan(rate=5000.0)
        config = SimulationConfig(
            max_tuples_per_source=5000, max_events=100
        )
        engine = StreamEngine(
            plan,
            homogeneous_cluster(num_nodes=1),
            config=config,
            rng_factory=RngFactory(0),
        )
        with pytest.raises(SimulationError, match="budget"):
            engine.run()

    @pytest.mark.parametrize(
        "mode", [{"batch_size": 64}, {"shards": 1}], ids=str
    )
    def test_every_executor_ends_in_the_one_budget_message(self, mode):
        engine = StreamEngine(
            passthrough_plan(rate=5000.0),
            homogeneous_cluster(num_nodes=1),
            config=SimulationConfig(
                max_tuples_per_source=5000, max_events=100, **mode
            ),
            rng_factory=RngFactory(0),
        )
        with pytest.raises(
            SimulationError, match=r"budget exceeded \(100\); the conf"
        ):
            engine.run()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_tuples_per_source=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_sim_time=0.0)
