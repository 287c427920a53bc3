"""Failure injection: latency under transient stalls.

Benchmarking systems must characterise behaviour under perturbation, not
just steady state. This bench injects a 200ms stall (GC pause / noisy
neighbour) into a moderately loaded operator and reports the latency
distribution against an unperturbed baseline: the median barely moves
(recovery), while the tail absorbs the full pause.
"""

from benchmarks.conftest import emit
from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.report import render_table
from repro.sps import builders
from repro.sps.engine import (
    SimulationConfig,
    StallInjection,
    StreamEngine,
)
from repro.sps.logical import LogicalPlan
from repro.sps.operators.udo import FunctionUDO
from repro.sps.types import DataType, Field, Schema
from repro.workload.datagen import kv_block

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def _plan(rate: float) -> LogicalPlan:
    plan = LogicalPlan("stall-bench")
    plan.add_operator(
        builders.source(
            "src", None, SCHEMA, rate, vector_generator=kv_block(50)
        )
    )
    plan.add_operator(
        builders.udo(
            "work",
            lambda: FunctionUDO(lambda state, t, now: [t]),
            cost_scale=4.0,  # ~60% utilisation at the chosen rate
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "work")
    plan.connect("work", "sink")
    return plan


def _measure():
    results = {}
    for label, stalls in (
        ("baseline", ()),
        (
            "200ms stall @ t=0.5s",
            (StallInjection(at_time=0.5, op_id="work", duration=0.2),),
        ),
    ):
        engine = StreamEngine(
            _plan(rate=4000.0),
            homogeneous_cluster(num_nodes=4),
            config=SimulationConfig(
                max_tuples_per_source=6000,
                max_sim_time=4.0,
                warmup_fraction=0.0,
                stalls=stalls,
            ),
            rng_factory=RngFactory(23),
        )
        metrics = engine.run()
        results[label] = metrics
    return results


def test_failure_injection_latency_profile(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [
        [
            label,
            metrics.latency.p50 * 1e3,
            metrics.latency.p95 * 1e3,
            metrics.latency.maximum * 1e3,
            metrics.results,
        ]
        for label, metrics in results.items()
    ]
    emit(
        render_table(
            ["scenario", "p50 (ms)", "p95 (ms)", "max (ms)", "results"],
            rows,
            title="Failure injection: 200ms operator stall "
            "(4k ev/s, ~60% utilisation)",
        )
    )
    baseline = results["baseline"]
    stalled = results["200ms stall @ t=0.5s"]
    # Nothing is lost, the tail absorbs the pause, the median recovers.
    assert stalled.results == baseline.results
    assert stalled.latency.maximum > 0.15
    assert stalled.latency.p50 < 4 * max(baseline.latency.p50, 1e-4)