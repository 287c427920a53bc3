"""Partitioning strategies under key skew (Table 3's partitioning row).

PDSP-Bench enumerates data partitioning strategies (forward, rebalance,
hashing) as a workload dimension. This bench quantifies why: with
Zipf-skewed keys, hash partitioning concentrates load on hot instances of
an expensive operator while rebalance spreads it; for *stateless*
operators the choice changes latency dramatically.
"""

import numpy as np

from benchmarks.conftest import bench_runner_config, emit
from repro.cluster import homogeneous_cluster
from repro.core.runner import BenchmarkRunner
from repro.report import render_table
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.udo import FunctionUDO
from repro.sps.partitioning import HashPartitioner, RebalancePartitioner
from repro.sps.types import DataType, Field, Schema
from repro.workload.distributions import ZipfInt

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])
SIZE = float(SCHEMA.tuple_size_bytes())
ZIPF = ZipfInt(n=64, s=1.4)  # heavily skewed keys


def _plan(partitioner, rate):
    def sample(rng, n):
        return (ZIPF.sample_block(rng, n), rng.random(n)), SIZE

    plan = LogicalPlan(f"skew-{partitioner.name}")
    plan.add_operator(
        builders.source(
            "src", None, SCHEMA, rate, parallelism=2,
            vector_generator=sample,
        )
    )
    plan.add_operator(
        builders.udo(
            "heavy",
            lambda: FunctionUDO(lambda state, t, now: [t]),
            parallelism=8,
            # Calibrated so the *balanced* load sits at ~60% utilisation
            # while the Zipf head key alone (~36% of traffic) overloads
            # a single hash-target instance.
            cost_scale=1.0,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "heavy", partitioner=partitioner)
    plan.connect("heavy", "sink")
    return plan


def _measure():
    config = bench_runner_config()
    runner = BenchmarkRunner(homogeneous_cluster("m510", 10), config)
    rate = 120_000.0 / config.dilation
    results = {}
    for partitioner in (
        HashPartitioner(key_field=0),
        RebalancePartitioner(),
    ):
        plan = _plan(partitioner, rate)
        from repro.workload.generator import scale_plan_costs

        scale_plan_costs(plan, config.dilation)
        runs = runner.run_plan(plan)
        latency = float(
            np.mean([run.latency.p50 for run in runs]) * 1e3
        )
        peak = max(run.operator_queue_peak["heavy"] for run in runs)
        results[partitioner.name] = (latency, peak)
    return results


def test_partitioning_under_skew(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = [
        [name, latency, peak]
        for name, (latency, peak) in results.items()
    ]
    emit(
        render_table(
            ["partitioning", "median latency (ms)", "peak queue depth"],
            rows,
            title="Partitioning under Zipf key skew "
            "(stateless heavy operator, 120k ev/s)",
        )
    )
    hash_latency, hash_peak = results["hash"]
    rebalance_latency, rebalance_peak = results["rebalance"]
    # The hot hash instance saturates: worse latency, deeper queues.
    assert hash_latency > 3.0 * rebalance_latency
    assert hash_peak > rebalance_peak
