"""Property suite: sharded execution ≡ serial (DESIGN.md §14).

The shard universe (``SimulationConfig(shards=K)``) must be invariant
in K and in the transport: for generated plans, ``K ∈ {2, 4}`` runs —
in-process and forked — produce bit-identical metrics, sink statistics,
``extras`` schemas and DET609 RNG ledgers to the ``K=1`` single-kernel
reference. The legacy ``shards=None`` path is pinned separately by the
byte-identical goldens in ``test_golden_determinism.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.cluster.network import NetworkSpec
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.kernel import Kernel
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows
from tests.conftest import kv_generator

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


class DrawingLogic(OperatorLogic):
    """A clean stochastic UDO: draws from its own subtask stream."""

    def process(self, tup, now, port=0):
        if self.ctx.rng.random() < 0.9:
            return [tup]
        return []


def generated_plan(parallelism, num_keys, windowed, with_udo):
    plan = LogicalPlan("shard-prop")
    plan.add_operator(
        builders.source(
            "src", kv_generator(num_keys), SCHEMA, event_rate=400.0,
            parallelism=parallelism,
        )
    )
    upstream = "src"
    if with_udo:
        plan.add_operator(
            builders.udo(
                "udo", DrawingLogic, parallelism=parallelism,
                output_schema=SCHEMA,
            )
        )
        plan.connect("src", "udo")
        upstream = "udo"
    if windowed:
        plan.add_operator(
            builders.window_agg(
                "agg",
                TumblingTimeWindows(0.25),
                AggregateFunction.SUM,
                value_field=1,
                key_field=0,
                parallelism=parallelism,
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect(upstream, "agg")
        plan.connect("agg", "sink")
    else:
        plan.add_operator(builders.sink("sink"))
        plan.connect(upstream, "sink")
    return plan


def run_sharded(
    plan,
    nodes,
    shards,
    seed,
    force_inline=True,
    tuples=150,
    keep_values=False,
    network_spec=None,
):
    config = SimulationConfig(
        max_tuples_per_source=tuples,
        max_sim_time=2.0,
        shards=shards,
        keep_sink_values=keep_values,
    )
    engine = StreamEngine(
        plan,
        homogeneous_cluster("m510", nodes, network_spec),
        config=config,
        rng_factory=RngFactory(seed),
    )
    engine.shard_force_inline = force_inline
    metrics = engine.run()
    return metrics, engine


def signature(metrics, engine):
    """Everything that must be invariant across K and transports."""
    sinks = []
    for runtime in engine._runtimes:
        logic = runtime.logic
        if hasattr(logic, "latencies") and hasattr(logic, "received"):
            sinks.append(
                (
                    logic.received,
                    tuple(logic.latencies),
                    tuple(logic.arrival_times),
                    tuple(map(repr, logic.results)),
                )
            )
    return (
        metrics.results,
        metrics.source_events,
        metrics.throughput,
        metrics.sim_duration,
        metrics.latency.mean,
        metrics.latency.p50,
        metrics.latency.p99,
        metrics.extras["events_processed"],
        metrics.extras["shards"]["epochs"],
        metrics.extras["shards"]["flush_rounds"],
        tuple(sorted(metrics.operator_utilization.items())),
        tuple(sorted(metrics.operator_queue_peak.items())),
        tuple(sorted(metrics.operator_avg_wait.items())),
        tuple(sorted(engine._shard_ledger.items())),
        tuple(sinks),
    )


class TestShardCountInvariance:
    @given(
        parallelism=st.integers(min_value=1, max_value=3),
        num_keys=st.integers(min_value=1, max_value=8),
        windowed=st.booleans(),
        with_udo=st.booleans(),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=8, deadline=None)
    def test_two_shards_inline_match_single(
        self, parallelism, num_keys, windowed, with_udo, seed
    ):
        plan = generated_plan(parallelism, num_keys, windowed, with_udo)
        reference = signature(*run_sharded(plan, 2, 1, seed))
        assert signature(*run_sharded(plan, 2, 2, seed)) == reference

    @given(
        num_keys=st.integers(min_value=1, max_value=8),
        windowed=st.booleans(),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=4, deadline=None)
    def test_four_shards_inline_match_single(
        self, num_keys, windowed, seed
    ):
        plan = generated_plan(4, num_keys, windowed, True)
        reference = signature(*run_sharded(plan, 4, 1, seed))
        assert signature(*run_sharded(plan, 4, 4, seed)) == reference

    def test_extras_schema_differs_only_in_shard_count(self):
        plan = generated_plan(2, 4, True, False)
        m1, _ = run_sharded(plan, 2, 1, seed=3)
        m2, _ = run_sharded(plan, 2, 2, seed=3)
        s1, s2 = m1.extras["shards"], m2.extras["shards"]
        assert set(s1) == set(s2) == {"shards", "epochs", "flush_rounds"}
        assert s1["shards"] == 1 and s2["shards"] == 2
        assert s1["epochs"] == s2["epochs"]
        assert s1["flush_rounds"] == s2["flush_rounds"]


class TestForkedTransport:
    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=3, deadline=None)
    def test_forked_matches_inline(self, seed):
        plan = generated_plan(3, 6, True, True)
        inline = signature(*run_sharded(plan, 2, 2, seed, True))
        forked = signature(*run_sharded(plan, 2, 2, seed, False))
        assert forked == inline

    def test_forked_four_shards(self):
        plan = generated_plan(4, 5, True, False)
        inline = signature(*run_sharded(plan, 4, 4, 9, True))
        forked = signature(*run_sharded(plan, 4, 4, 9, False))
        assert forked == inline

    def test_shard_shaped_hotpath(self):
        """The shape sharding is for: ``hotpath`` at 800k ev/s on a 2 ms
        cluster, so an epoch holds thousands of events. Two shards,
        inline and forked, equal one — metrics, sinks and RNG ledger."""
        plan = perf.hotpath_plan(event_rate=800_000.0)
        shape = {
            "tuples": 2000,
            "network_spec": NetworkSpec(base_latency_s=2e-3),
        }
        reference = signature(*run_sharded(plan, 4, 1, 17, **shape))
        assert reference[0] > 0 and reference[8] > 1  # results, epochs
        for inline in (True, False):
            candidate = run_sharded(plan, 4, 2, 17, inline, **shape)
            assert signature(*candidate) == reference, inline


class TestKernelExtractionPins:
    def test_engine_runs_on_the_extracted_kernel(self):
        """The stream runtime is a client of repro.kernel, not a fork
        of it (the byte-identical goldens in
        test_golden_determinism.py pin the extraction's results)."""
        plan = generated_plan(2, 4, True, False)
        config = SimulationConfig(max_tuples_per_source=50)
        engine = StreamEngine(
            plan,
            homogeneous_cluster("m510", 2),
            config=config,
            rng_factory=RngFactory(0),
        )
        assert isinstance(engine._k, Kernel)
        metrics = engine.run()
        assert engine._k.events_processed > 0
        assert metrics.extras["events_processed"] == engine._k.events_processed


#: ``extras["race"]["rng_ledger"]`` of the sanitized run below. The
#: logic streams (``op[i]``) were recorded while ``ShardExecutor`` still
#: had an event loop of its own with no observer hooks in it: the shared
#: step must not start calling the ``RaceDetector`` a ``sanitize=True``
#: engine carries. The ``/arrivals`` and ``/noise`` entries were
#: re-captured when those streams began to be drawn in blocks — a
#: stream now rests at a block boundary past its last used draw.
SANITIZED_LEDGER = {
    "agg[0]": "088f1245b8dafc5e",
    "agg[0]/noise": "701c1c27b43a0636",
    "agg[1]": "03ad2cf1c569fdff",
    "agg[1]/noise": "ac616bbe4d17c772",
    "sink[0]": "ecb66ea1a2563f2e",
    "sink[0]/noise": "7a8eb76bc7869eb5",
    "src[0]": "37970241c54b6152",
    "src[0]/arrivals": "3803d6f967dc5408",
    "src[0]/noise": "1a50993622e31ffd",
    "src[1]": "88e810849646ab31",
    "src[1]/arrivals": "b8b7b46b62888c0c",
    "src[1]/noise": "92d3e9d4cb4d1d37",
    "udo[0]": "98a9aa88d90b16cb",
    "udo[0]/noise": "c65ec62e4e917267",
    "udo[1]": "c2bc9e7b37fc7501",
    "udo[1]/noise": "76c4fafb8af8eef9",
}


class TestRunnerIntegration:
    def test_runner_shards_with_sanitize_det609(self):
        """The DET609 cross-check path: a forked sharded run's ledger
        is compared against the in-process reference rerun."""
        plan = generated_plan(2, 4, True, True)
        runner = BenchmarkRunner(
            homogeneous_cluster("m510", 2),
            RunnerConfig(
                repeats=1,
                max_tuples_per_source=120,
                max_sim_time=2.0,
                seed=5,
                shards=2,
                sanitize=True,
            ),
        )
        runs = runner.run_plan(plan)
        assert runs[0].extras["race"] == {
            "findings": [],
            "rng_ledger": SANITIZED_LEDGER,
        }
        assert runs[0].extras["shards"]["shards"] == 2

    def test_runner_config_rejects_shards_with_workers(self):
        with pytest.raises(ConfigurationError):
            RunnerConfig(shards=2, workers=2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"observe": True},
            {"batch_size": 64},
            {"autoscale": "reactive:high=4"},
            {"scenario": "spike:at=0.5"},
            {"checkpoint_ms": 50.0},
        ],
    )
    def test_runner_config_rejects_incompatible_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunnerConfig(shards=2, **kwargs)

    def test_runner_config_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            RunnerConfig(shards=0)

    def test_engine_rejects_more_shards_than_nodes(self):
        plan = generated_plan(2, 4, False, False)
        with pytest.raises(ConfigurationError):
            run_sharded(plan, 2, 4, seed=0)


class TestSinkMultisets:
    def test_sink_results_multiset_equal_across_transports(self):
        plan = generated_plan(3, 8, True, False)
        _, inline_engine = run_sharded(
            plan, 2, 2, 11, True, keep_values=True
        )
        _, forked_engine = run_sharded(
            plan, 2, 2, 11, False, keep_values=True
        )

        def multiset(engine):
            items = []
            for runtime in engine._runtimes:
                logic = runtime.logic
                if hasattr(logic, "results"):
                    items.extend(map(repr, logic.results))
            return sorted(items)

        assert multiset(inline_engine) == multiset(forked_engine)
        assert multiset(inline_engine)  # non-vacuous
