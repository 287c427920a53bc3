"""Tests for the analytic estimator and the metrics layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.common.errors import SimulationError
from repro.sps import builders
from repro.sps.analytic import AnalyticEstimator
from repro.sps.logical import LogicalPlan
from repro.sps.metrics import LatencyStats, RunMetrics, aggregate_runs
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows
from repro.workload.enumeration import (
    RandomEnumeration,
    RuleBasedEnumeration,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.querygen import QueryStructure
from tests.conftest import kv_generator

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def pipeline_plan(rate, filter_p=1, agg_p=1, window_s=0.1):
    plan = LogicalPlan("pipe")
    plan.add_operator(
        builders.source("src", kv_generator(), SCHEMA, event_rate=rate)
    )
    plan.add_operator(
        builders.filter_op(
            "flt",
            Predicate(1, FilterFunction.GT, 0.5, selectivity_hint=0.5),
            parallelism=filter_p,
        )
    )
    agg = builders.window_agg(
        "agg",
        TumblingTimeWindows(window_s),
        AggregateFunction.SUM,
        value_field=1,
        key_field=0,
        parallelism=agg_p,
    )
    agg.metadata["key_cardinality"] = 10
    plan.add_operator(agg)
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "flt")
    plan.connect("flt", "agg")
    plan.connect("agg", "sink")
    return plan


class TestAnalyticEstimator:
    def setup_method(self):
        self.cluster = homogeneous_cluster(num_nodes=4)
        self.estimator = AnalyticEstimator(self.cluster)

    def test_latency_positive_and_includes_window(self):
        estimate = self.estimator.estimate(pipeline_plan(1000, window_s=0.2))
        assert estimate.latency_s > 0.2  # window residence dominates

    def test_latency_increases_with_rate(self):
        low = self.estimator.estimate(pipeline_plan(1_000))
        high = self.estimator.estimate(pipeline_plan(400_000))
        assert high.latency_s > low.latency_s

    def test_saturation_detected_in_bottleneck(self):
        estimate = self.estimator.estimate(pipeline_plan(2_000_000))
        assert estimate.bottleneck_utilization > 1.0
        assert estimate.bottleneck_op in ("flt", "agg", "src", "sink")

    def test_parallelism_reduces_saturated_latency(self):
        slow = self.estimator.estimate(
            pipeline_plan(800_000, filter_p=1, agg_p=1)
        )
        fast = self.estimator.estimate(
            pipeline_plan(800_000, filter_p=8, agg_p=8)
        )
        assert fast.latency_s < slow.latency_s

    def test_utilization_per_operator(self):
        estimate = self.estimator.estimate(pipeline_plan(10_000))
        assert set(estimate.operator_utilization) == {
            "src", "flt", "agg", "sink",
        }

    def test_throughput_is_sink_rate(self):
        estimate = self.estimator.estimate(pipeline_plan(10_000))
        # sink input = rate * filter selectivity * agg selectivity
        assert 0 < estimate.throughput < 10_000

    def test_noisy_latency_close_to_estimate(self):
        plan = pipeline_plan(10_000)
        base = self.estimator.estimate(plan).latency_s
        rng = np.random.default_rng(0)
        samples = [
            self.estimator.noisy_latency(plan, rng, cv=0.05)
            for _ in range(200)
        ]
        assert np.median(samples) == pytest.approx(base, rel=0.1)
        assert np.std(samples) > 0

    def test_latency_ms_property(self):
        estimate = self.estimator.estimate(pipeline_plan(1_000))
        assert estimate.latency_ms == pytest.approx(
            estimate.latency_s * 1e3
        )


class TestSaturationBand:
    """0.98 <= rho < 1 is neither the M/G/1 branch nor a growing
    backlog: the wait there is zero, never negative."""

    @pytest.mark.parametrize("rho", [0.98, 0.99, 0.999999, 1.0, 1.5])
    def test_sojourn_is_at_least_the_service(self, rho):
        est = AnalyticEstimator(homogeneous_cluster("m510", 2))
        service = 1e-4
        sojourn, got = est._sojourn(rho / service, 1, service)
        assert got == pytest.approx(rho)
        assert service <= sojourn < math.inf

    @settings(max_examples=40, deadline=None)
    @given(
        structure=st.sampled_from(list(QueryStructure)),
        seed=st.integers(0, 2**31 - 1),
        rule_based=st.booleans(),
    )
    def test_every_generated_plan_has_a_positive_finite_latency(
        self, structure, seed, rule_based
    ):
        cluster = homogeneous_cluster("m510", 10)
        strategy = (
            RuleBasedEnumeration() if rule_based else RandomEnumeration()
        )
        (query,) = WorkloadGenerator(seed=seed).generate(
            cluster, count=1, structures=[structure], strategy=strategy
        )
        latency = AnalyticEstimator(cluster).estimate(query.plan).latency_s
        assert 0.0 < latency < math.inf

    def test_the_seed_8_corpus_labels_are_positive(self):
        """Figure 5's corpus at seed 8 had operators in the band and a
        negative label; building it raised ``TrainingError``."""
        from repro.core.experiments.exp3 import build_labelled_corpus

        corpus = build_labelled_corpus(
            homogeneous_cluster("m510", 10),
            450,
            structures=list(QueryStructure),
            strategy=RuleBasedEnumeration(),
            seed=8,
        )
        assert len(corpus) == 450
        assert all(r.latency_s > 0 for r in corpus.records)


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.count == 5
        assert stats.mean == pytest.approx(3.0)
        assert stats.p50 == pytest.approx(3.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0

    def test_empty_rejected(self):
        with pytest.raises(SimulationError, match="no latency samples"):
            LatencyStats.from_samples([])

    def test_to_dict_roundtrip_fields(self):
        stats = LatencyStats.from_samples([1.0, 2.0])
        d = stats.to_dict()
        assert d["count"] == 2
        assert set(d) == {"count", "mean", "p50", "p95", "p99", "min",
                          "max"}


class TestAggregateRuns:
    def _metrics(self, p50):
        return RunMetrics(
            latency=LatencyStats(
                count=10, mean=p50, p50=p50, p95=p50, p99=p50,
                minimum=p50, maximum=p50,
            ),
            throughput=100.0,
            results=10,
            source_events=10,
            sim_duration=1.0,
        )

    def test_mean_of_medians(self):
        aggregate = aggregate_runs(
            [self._metrics(0.1), self._metrics(0.2), self._metrics(0.3)]
        )
        assert aggregate["mean_median_latency_s"] == pytest.approx(0.2)
        assert aggregate["mean_median_latency_ms"] == pytest.approx(200.0)
        assert aggregate["runs"] == 3

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            aggregate_runs([])

    def test_median_latency_ms_property(self):
        assert self._metrics(0.25).median_latency_ms == pytest.approx(250)
