"""Elastic runtime: live rescaling, policies, scenarios, the exp4 grid.

Covers the drain-barrier rescale protocol end to end (explicit
:class:`RescaleEvent`, refusal validation, state migration accounting),
the autoscaling policy plugins as pure strategy objects, the chaos
scenario spec parser and each injection type's determinism, the SLO
metric, sanitizer compatibility, and the exp4 policy-comparison grid.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest

from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RngFactory
from repro.core.experiments.exp4 import (
    elastic_workload_plan,
    policy_comparison,
)
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.elastic import (
    LoadSpike,
    NoAutoscale,
    OpSnapshot,
    PredictiveCostPolicy,
    ReactiveQueuePolicy,
    Scenario,
    make_policy,
    make_scenario,
)
from repro.sps.engine import RescaleEvent, SimulationConfig, StreamEngine
from repro.sps.operators.sink import SinkLogic

#: budget 3000 tuples at 3000 ev/s -> the run spans ~1 simulated second,
#: so rescales and injections land at 0.2-0.5 to fire before the end.
_TUPLES = 3000


def _double(values):
    """Stateless transform used by the chaining refusal test."""
    return (values[0], values[1] * 2.0)


def _run(rescales=(), seed=7, parallelism=2, **cfg_kwargs):
    plan = elastic_workload_plan(parallelism=parallelism)
    config = SimulationConfig(
        max_tuples_per_source=_TUPLES,
        max_sim_time=3.0,
        warmup_fraction=0.0,
        keep_sink_values=True,
        rescales=tuple(rescales),
        **cfg_kwargs,
    )
    engine = StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=4),
        config=config,
        rng_factory=RngFactory(seed),
    )
    metrics = engine.run()
    values = sorted(
        v
        for rt in engine._runtimes
        if isinstance(rt.logic, SinkLogic)
        for v in rt.logic.results
    )
    return metrics, values


def _per_key_totals(values) -> Counter:
    totals: Counter = Counter()
    for key, count in values:
        totals[key] += count
    return totals


class TestExplicitRescale:
    def test_rescale_up_preserves_keyed_totals(self):
        base, v_base = _run()
        up, v_up = _run(rescales=(RescaleEvent(0.3, "agg", 4),))
        elastic = up.extras["elastic"]
        assert elastic["rescales"] == 1
        assert elastic["migrated_keys"] > 0
        entry = elastic["log"][0]
        assert (entry["op"], entry["from"], entry["to"]) == ("agg", 2, 4)
        # No tuple is lost or duplicated across the migration: per-key
        # window totals and total conservation match the fixed run.
        assert _per_key_totals(v_up) == _per_key_totals(v_base)
        assert sum(c for _, c in v_up) == up.source_events
        assert "elastic" not in base.extras

    def test_rescale_down_preserves_keyed_totals(self):
        base, v_base = _run(parallelism=4)
        down, v_down = _run(
            parallelism=4, rescales=(RescaleEvent(0.3, "agg", 1),)
        )
        assert down.extras["elastic"]["rescales"] == 1
        assert _per_key_totals(v_down) == _per_key_totals(v_base)

    def test_rescale_run_twice_is_bit_identical(self):
        m1, v1 = _run(rescales=(RescaleEvent(0.3, "agg", 4),))
        m2, v2 = _run(rescales=(RescaleEvent(0.3, "agg", 4),))
        assert v1 == v2
        assert m1.latency.p50 == m2.latency.p50
        assert m1.extras["elastic"] == m2.extras["elastic"]

    def test_resource_seconds_grow_with_scale_up(self):
        base, _ = _run(rescales=(RescaleEvent(0.9, "agg", 3),))
        up, _ = _run(rescales=(RescaleEvent(0.2, "agg", 6),))
        assert (
            up.extras["elastic"]["resource_seconds"]
            > base.extras["elastic"]["resource_seconds"]
        )

    def test_a_retired_subtask_fires_no_timer(self):
        """The swap sets a retired subtask's next tick to ``inf``, so its
        pending ``TIMER`` lapses; the new generation ticks its own."""
        fired = []

        class TickLog(StreamEngine):
            def _fire(self, runtime):
                fired.append((runtime.epoch, runtime.retired))
                super()._fire(runtime)

        TickLog(
            elastic_workload_plan(parallelism=2),
            homogeneous_cluster(num_nodes=4),
            config=SimulationConfig(
                max_tuples_per_source=_TUPLES,
                max_sim_time=3.0,
                rescales=(RescaleEvent(0.3, "agg", 4),),
            ),
            rng_factory=RngFactory(7),
        ).run()
        assert set(fired) == {(0, False), (1, False)}

    def test_noop_rescale_to_same_parallelism(self):
        same, values = _run(rescales=(RescaleEvent(0.3, "agg", 2),))
        assert same.extras["elastic"]["rescales"] == 0
        base, v_base = _run()
        assert values == v_base


class TestRescaleRefusal:
    def test_source_is_refused(self):
        with pytest.raises(SimulationError, match="arrival process"):
            _run(rescales=(RescaleEvent(0.3, "src", 4),))

    def test_sink_is_refused(self):
        with pytest.raises(SimulationError, match="sink"):
            _run(rescales=(RescaleEvent(0.3, "sink", 4),))

    def test_unknown_operator_is_refused(self):
        with pytest.raises(SimulationError, match="unknown operator"):
            _run(rescales=(RescaleEvent(0.3, "nope", 4),))

    def test_forward_edge_pins_parallelism(self, simple_plan):
        # simple_plan wires src -> flt forward (equal parallelism,
        # stateless), which pins flt's degree.
        config = SimulationConfig(
            max_tuples_per_source=500,
            max_sim_time=2.0,
            rescales=(RescaleEvent(0.2, "flt", 4),),
        )
        engine = StreamEngine(
            simple_plan,
            homogeneous_cluster(num_nodes=4),
            config=config,
            rng_factory=RngFactory(1),
        )
        with pytest.raises(SimulationError, match="forward input"):
            engine.run()

    def test_chaining_is_incompatible_with_elastic(self, kv_schema):
        # flt -> dbl is a forward edge between equal-parallelism
        # stateless operators, so chaining=True fuses them.
        from repro.sps import builders
        from repro.sps.logical import LogicalPlan
        from repro.sps.predicates import FilterFunction, Predicate
        from repro.sps.windows import (
            AggregateFunction,
            TumblingTimeWindows,
        )
        from tests.conftest import kv_generator

        plan = LogicalPlan("chained")
        plan.add_operator(
            builders.source(
                "src", kv_generator(), kv_schema, event_rate=2000.0,
                parallelism=2,
            )
        )
        plan.add_operator(
            builders.filter_op(
                "flt",
                Predicate(1, FilterFunction.GT, 0.5),
                parallelism=2,
            )
        )
        plan.add_operator(
            builders.map_op("dbl", _double, parallelism=2)
        )
        plan.add_operator(
            builders.window_agg(
                "agg",
                TumblingTimeWindows(0.1),
                AggregateFunction.SUM,
                value_field=1,
                key_field=0,
                parallelism=2,
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "flt")
        plan.connect("flt", "dbl")
        plan.connect("dbl", "agg")
        plan.connect("agg", "sink")
        config = SimulationConfig(
            max_tuples_per_source=500,
            rescales=(RescaleEvent(0.2, "agg", 4),),
        )
        with pytest.raises(ConfigurationError, match="chaining"):
            StreamEngine(
                plan,
                homogeneous_cluster(num_nodes=4),
                config=config,
                rng_factory=RngFactory(1),
                chaining=True,
            )

    def test_invalid_rescale_event(self):
        with pytest.raises(ConfigurationError):
            RescaleEvent(-1.0, "agg", 2)
        with pytest.raises(ConfigurationError):
            RescaleEvent(0.5, "agg", 0)


class TestScenarios:
    @pytest.mark.parametrize(
        "spec",
        [
            "spike:at=0.3,factor=3,duration=0.4",
            "straggler:at=0.3,factor=10,duration=0.5",
            "netdeg:at=0.3,latency_factor=8,duration=0.4",
            "failure:at=0.3,duration=0.2",
        ],
    )
    def test_each_injection_runs_and_is_deterministic(self, spec):
        m1, v1 = _run(scenario=spec)
        m2, v2 = _run(scenario=spec)
        assert m1.source_events == _TUPLES
        assert v1 == v2
        assert m1.latency.p50 == m2.latency.p50

    def test_straggler_inflates_latency(self):
        calm, _ = _run()
        slow, _ = _run(
            scenario="straggler:at=0.2,factor=30,duration=0.8"
        )
        assert slow.latency.p95 > calm.latency.p95

    def test_composed_injections(self):
        spec = "spike:at=0.2,factor=2,duration=0.3+failure:at=0.6,duration=0.2"
        metrics, _ = _run(scenario=spec)
        assert metrics.source_events == _TUPLES

    def test_make_scenario_parsing(self):
        assert make_scenario("none").injections == ()
        scenario = make_scenario("spike:at=0.5,factor=3,duration=1.0")
        (spike,) = scenario.injections
        assert isinstance(spike, LoadSpike)
        assert spike.at == 0.5
        assert spike.factor == 3.0
        wrapped = make_scenario(
            LoadSpike(at=1.0, factor=2.0, duration=1.0)
        )
        assert wrapped.injections[0].factor == 2.0
        ready = Scenario(name="x", injections=())
        assert make_scenario(ready) is ready
        with pytest.raises(ConfigurationError, match="unknown injection"):
            make_scenario("meteor:at=1")
        with pytest.raises(ConfigurationError, match="needs a number"):
            make_scenario("spike:at=soon")


def _route_links(engine) -> dict:
    """Every live producer's ``(latencies, bandwidths)``, copied."""
    return {
        rt.gid: [(list(e[5]), list(e[6])) for e in rt.route_table]
        for rt in engine._runtimes
        if rt.route_table and not rt.retired
    }


def test_netdeg_scales_each_producers_route_lists_once():
    """Producers placed on one node share one consumer group, so their
    route lists are built from one resolution: each must still hold its
    own lists, scaled once in the window and restored bit for bit
    after it."""
    plan = elastic_workload_plan()
    plan.set_uniform_parallelism(4)
    engine = StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=_TUPLES,
            scenario="netdeg:at=0.2,duration=0.3,latency_factor=3,"
            "bandwidth_factor=0.25",
        ),
        rng_factory=RngFactory(7),
    )
    sources = [rt for rt in engine._runtimes if rt.op_id == "src"]
    nodes = [rt.node_id for rt in sources]
    assert len(set(nodes)) < len(nodes)  # two producers share a node
    base = _route_links(engine)
    assert any(math.isfinite(b) for lists in base.values()
               for _, bandwidths in lists for b in bandwidths)
    seen = []
    scale_net = engine._scale_net

    def observe(lists, token):
        scale_net(lists, token)
        seen.append(_route_links(engine))

    engine._scale_net = observe
    engine.run()
    during, after = seen
    assert after == base
    for gid, lists in base.items():
        for (lat, bw), (lat2, bw2) in zip(lists, during[gid]):
            assert lat2 == [value * 3 for value in lat]
            assert bw2 == [value * 0.25 for value in bw]


class TestPolicies:
    def test_make_policy_parsing(self):
        assert isinstance(make_policy("none"), NoAutoscale)
        assert isinstance(make_policy("static"), NoAutoscale)
        reactive = make_policy("reactive:high=32,low=2,max=8,cooldown=1")
        assert isinstance(reactive, ReactiveQueuePolicy)
        assert reactive.high == 32.0
        assert reactive.max_parallelism == 8
        predictive = make_policy("predictive:util=0.6,min=2")
        assert isinstance(predictive, PredictiveCostPolicy)
        assert predictive.target_util == 0.6
        ready = ReactiveQueuePolicy()
        assert make_policy(ready) is ready
        with pytest.raises(ConfigurationError, match="unknown"):
            make_policy("magic")
        with pytest.raises(ConfigurationError, match="key=value"):
            make_policy("reactive:high")
        with pytest.raises(ConfigurationError, match="rejected"):
            make_policy("reactive:bogus=3")
        with pytest.raises(ConfigurationError, match="hysteresis"):
            make_policy("reactive:high=1,low=2")

    @staticmethod
    def _snap(queue_depth, parallelism=2, utilization=0.9, rate=100.0):
        return OpSnapshot(
            op_id="agg",
            parallelism=parallelism,
            queue_depth=queue_depth,
            utilization=utilization,
            service_rate=rate,
            base_service_s=0.001,
        )

    def test_reactive_hysteresis_band(self):
        policy = ReactiveQueuePolicy(high=10, low=1, cooldown=0.0)
        assert policy.decide(0.0, [self._snap(40)]) == {"agg": 3}
        # Inside the band: no move either way.
        assert policy.decide(1.0, [self._snap(10)]) == {}
        # Below `low` but still busy: no scale-down.
        assert policy.decide(2.0, [self._snap(0, utilization=0.9)]) == {}
        assert policy.decide(3.0, [self._snap(0, utilization=0.1)]) == {
            "agg": 1
        }

    def test_reactive_cooldown_suppresses_oscillation(self):
        policy = ReactiveQueuePolicy(high=10, low=1, cooldown=0.5)
        assert policy.decide(0.0, [self._snap(40)]) == {"agg": 3}
        assert policy.decide(0.2, [self._snap(40)]) == {}
        assert policy.decide(0.6, [self._snap(40)]) == {"agg": 3}

    def test_predictive_sizes_from_cost_model(self):
        policy = PredictiveCostPolicy(
            target_util=0.5, cooldown=1.0, max_parallelism=16
        )
        # demand = 2000 served + 1000 backlog/1s = 3000 tup/s; at 1 ms
        # per tuple and 50% target utilization that needs 6 subtasks.
        snap = self._snap(1000, parallelism=2, rate=2000.0)
        assert policy.decide(0.0, [snap]) == {"agg": 6}

    def test_predictive_scale_down_needs_slack(self):
        policy = PredictiveCostPolicy(target_util=0.5, cooldown=1.0)
        busy = self._snap(0, parallelism=4, rate=100.0, utilization=0.9)
        assert policy.decide(0.0, [busy]) == {}
        idle = self._snap(0, parallelism=4, rate=100.0, utilization=0.1)
        assert policy.decide(0.0, [idle]) == {"agg": 1}

    def test_none_policy_never_moves(self):
        policy = NoAutoscale()
        assert policy.decide(0.0, [self._snap(10_000)]) == {}


class TestAutoscaleLoop:
    def test_reactive_policy_rescales_under_spike(self):
        metrics, _ = _run(
            autoscale="reactive:high=4,low=0.5,cooldown=0.3,max=6",
            autoscale_interval=0.2,
            scenario="spike:at=0.3,factor=3,duration=0.6",
        )
        elastic = metrics.extras["elastic"]
        assert elastic["rescales"] >= 1
        assert elastic["log"]

    def test_none_policy_still_reports_accounting(self):
        metrics, _ = _run(autoscale="none")
        elastic = metrics.extras["elastic"]
        assert elastic["rescales"] == 0
        assert elastic["resource_seconds"] > 0.0


class TestSloMetric:
    def test_slo_violation_seconds_reported(self):
        strained, _ = _run(
            slo_latency=0.05,
            scenario="straggler:at=0.2,factor=30,duration=0.8",
        )
        assert strained.extras["slo_violations"] > 0
        assert strained.extras["slo_violation_s"] > 0.0

    def test_generous_slo_has_zero_violations(self):
        calm, _ = _run(slo_latency=60.0)
        assert calm.extras["slo_violations"] == 0
        assert calm.extras["slo_violation_s"] == 0.0

    def test_no_slo_no_extras(self):
        metrics, _ = _run()
        assert "slo_violation_s" not in metrics.extras


class TestSanitizedRescale:
    def test_race_detector_passes_with_rescaling(self):
        runner = BenchmarkRunner(
            homogeneous_cluster(num_nodes=4),
            RunnerConfig(
                repeats=1,
                max_tuples_per_source=_TUPLES,
                max_sim_time=3.0,
                warmup_fraction=0.0,
                sanitize=True,
                autoscale="reactive:high=4,low=0.5,cooldown=0.3,max=6",
                autoscale_interval=0.2,
                scenario="spike:at=0.3,factor=3,duration=0.6",
                slo_latency=0.15,
            ),
        )
        runs = runner.run_plan(elastic_workload_plan())
        race = runs[0].extras["race"]
        assert race["findings"] == []
        assert any(
            stream.startswith("engine/rescale")
            for stream in race["rng_ledger"]
        )


class TestExp4Grid:
    _POLICIES = ("none", "reactive:high=4,low=0.5,cooldown=0.3,max=6")
    _SCENARIOS = (
        ("baseline", "none"),
        ("spike", "spike:at=0.5,factor=3,duration=1.0"),
    )

    def test_quick_grid_runs_and_is_deterministic(self):
        kwargs = dict(
            policies=self._POLICIES,
            scenarios=self._SCENARIOS,
            quick=True,
        )
        report = policy_comparison(**kwargs)
        again = policy_comparison(**kwargs)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        assert len(report["cells"]) == 4
        assert all(
            cell["determinism_error"] is None for cell in report["cells"]
        )
        by_cell = {
            (cell["policy"], cell["scenario"]): cell
            for cell in report["cells"]
        }
        assert by_cell[("none", "spike")]["rescales"] == 0
        assert by_cell[("reactive", "spike")]["rescales"] >= 1
        assert all(
            cell["resource_hours"] > 0 for cell in report["cells"]
        )
