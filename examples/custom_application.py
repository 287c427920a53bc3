"""Extending the suite with a custom application.

PDSP-Bench "can be easily extended by integrating new jobs from other
benchmarks". This example builds a new application from scratch — a
Nexmark-style auction monitor with a custom winning-bid operator — runs it
through the engine, and compares placement strategies on a heterogeneous
cluster.

Run:  python examples/custom_application.py
"""

import numpy as np

from repro import RunnerConfig, heterogeneous_cluster
from repro.apps.base import block_source
from repro.core.runner import BenchmarkRunner
from repro.report import render_table
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.placement import (
    PackedPlacement,
    RoundRobinPlacement,
    SpeedAwarePlacement,
)
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.workload.generator import scale_plan_costs

NUM_AUCTIONS = 1_000

BID_SCHEMA = Schema(
    [
        Field("auction", DataType.INT),
        Field("bidder", DataType.INT),
        Field("price", DataType.DOUBLE),
    ]
)


def bid_block(rng: np.random.Generator, n: int) -> tuple:
    """A source is a stateless block sampler: ``n`` rows as one array
    per field (INT -> int64, DOUBLE -> float64, STRING -> object).
    Every executor reads it through the same per-subtask chunk buffer,
    and the operators still receive Python ``int``/``float`` rows."""
    return (
        rng.integers(NUM_AUCTIONS, size=n),
        rng.integers(50_000, size=n),
        rng.lognormal(3.0, 1.0, size=n),
    )


class WinningBidLogic(OperatorLogic):
    """Tracks the highest bid per auction; emits on every new leader."""

    def __init__(self) -> None:
        self._best: dict[int, float] = {}

    def process(self, tup: StreamTuple, now: float, port: int = 0):
        auction, bidder, price = tup.values
        if price > self._best.get(auction, 0.0):
            self._best[auction] = price
            return [tup.with_values((auction, bidder, price))]
        return []


def build_auction_monitor(event_rate: float) -> LogicalPlan:
    plan = LogicalPlan("auction-monitor")
    plan.add_operator(block_source("bids", bid_block, BID_SCHEMA, event_rate))
    plan.add_operator(
        builders.filter_op(
            "serious_bids",
            Predicate(2, FilterFunction.GT, 5.0, selectivity_hint=0.85),
        )
    )
    leader = builders.udo(
        "winning_bid",
        WinningBidLogic,
        selectivity=0.3,
        cost_scale=2.0,
        name="winning-bid tracker",
    )
    leader.metadata["key_field"] = 0
    leader.metadata["key_cardinality"] = NUM_AUCTIONS
    plan.add_operator(leader)
    plan.add_operator(builders.sink("sink"))
    plan.connect("bids", "serious_bids")
    plan.connect("serious_bids", "winning_bid")
    plan.connect("winning_bid", "sink")
    return plan


def main() -> None:
    cluster = heterogeneous_cluster(("c6525_25g", "c6320"), 10)
    config = RunnerConfig(
        repeats=2, dilation=25.0, max_tuples_per_source=2500
    )
    plan = build_auction_monitor(100_000.0 / config.dilation)
    scale_plan_costs(plan, config.dilation)
    plan.set_uniform_parallelism(8)
    print(plan.describe())
    print()

    rows = []
    for strategy in (
        RoundRobinPlacement(),
        PackedPlacement(),
        SpeedAwarePlacement(),
    ):
        runner = BenchmarkRunner(cluster, config, placement=strategy)
        result = runner.measure(plan)
        rows.append(
            [strategy.name, result["mean_median_latency_ms"],
             result["mean_throughput"]]
        )
    print(
        render_table(
            ["placement", "median latency (ms)", "throughput (res/s)"],
            rows,
            title="Custom auction monitor @ 100k ev/s on "
            + cluster.describe(),
        )
    )


if __name__ == "__main__":
    main()
