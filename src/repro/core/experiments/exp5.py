"""Exp. 5: fault tolerance — checkpoint/recovery under node failures.

PDSP-Bench's operational axis is not just elasticity (exp4) but
*robustness*: what a failure costs under a given checkpointing cadence
and delivery guarantee. This grid crosses aligned-barrier checkpoint
intervals (:mod:`repro.ft`) with reproducible node-failure scenarios and
both delivery modes, and scores every cell on the axes an operator of a
fault-tolerant deployment actually trades off:

- **recovery time** — the simulated pause a failure causes
  (``extras["ft"]["recovery_time_s"]``), which grows with the state
  restored and shrinks with tighter checkpoint intervals;
- **replay volume** — source tuples re-read from the durable log
  (``replayed_events``), the work a stale checkpoint re-buys;
- **result correctness** — the sink multiset compared against a
  failure-free oracle run: ``exactly_once`` must match it exactly,
  ``at_least_once`` may only *add* duplicates, never lose results.

Every cell is a single seeded engine run with the race detector
attached (``sanitize=True``); determinism findings are reported per
cell rather than aborting the grid, so the CI recovery-smoke lane can
assert "zero errors, zero exactly-once divergence" over the whole
report. The report is bit-identical across invocations with the same
arguments.

The workload is deliberately shaped so the correctness comparison is
exact (DESIGN.md §13): the source is single-instance (every stateful
subtask then has one input channel, so replayed input arrives in the
original order), windows are count-based (results depend on values and
order, never on timing), and the source budget is small enough that
generation completes *before* the failure fires (replay then re-reads
logged tuples instead of re-drawing arrival randomness).
"""

from __future__ import annotations

from collections import Counter

from repro.cluster.cluster import Cluster, homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core.parallel import ParallelRunner
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.operators.sink import SinkLogic
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingCountWindows
from repro.workload.datagen import kv_block

__all__ = [
    "DEFAULT_INTERVALS_MS",
    "DEFAULT_SCENARIOS",
    "DEFAULT_DELIVERIES",
    "ft_workload_plan",
    "run_ft_cell",
    "recovery_grid",
]

#: Checkpoint cadences compared by default, in milliseconds. 50 ms
#: keeps a fresh checkpoint available ahead of either failure; 200 ms
#: usually leaves the first aligned checkpoint still in flight when the
#: early failure hits, forcing a replay-from-zero recovery — the grid's
#: cost contrast.
DEFAULT_INTERVALS_MS = (50.0, 100.0, 200.0)

#: Failure cells crossed with every interval. Both fire after source
#: generation has completed (~0.1 s simulated) and while the keyed
#: aggregation still holds a backlog, so recovery has state to lose.
DEFAULT_SCENARIOS = (
    ("early-failure", "failure:at=0.3,duration=0.1"),
    ("late-failure", "failure:at=0.45,duration=0.1"),
)

DEFAULT_DELIVERIES = ("exactly_once", "at_least_once")

_SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def ft_workload_plan(
    event_rate: float = 3000.0,
    parallelism: int = 2,
    num_keys: int = 8,
    window_length: int = 10,
    agg_cost_scale: float = 600.0,
) -> LogicalPlan:
    """The grid's workload: 1 source -> keyed count-window SUM -> sink.

    ``agg_cost_scale`` sizes the aggregation's service time so its
    backlog outlives the failure injections (the run spans ~0.55 s
    simulated while arrivals finish by ~0.1 s); the single source
    instance and count windows make recovered results comparable to the
    oracle as exact multisets (see the module docstring).
    """
    plan = LogicalPlan("ft-workload")
    plan.add_operator(
        builders.source(
            "src",
            None,
            _SCHEMA,
            event_rate=event_rate,
            parallelism=1,
            vector_generator=kv_block(num_keys),
        )
    )
    plan.add_operator(
        builders.window_agg(
            "agg",
            TumblingCountWindows(window_length),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink", keep_values=True))
    plan.connect("src", "agg")
    plan.connect("agg", "sink")
    if agg_cost_scale != 1.0:
        agg = plan.operator("agg")
        agg.cost = agg.cost.scaled(agg_cost_scale)
    return plan


def _sink_values(engine: StreamEngine) -> list:
    return sorted(
        v
        for rt in engine._runtimes
        if isinstance(rt.logic, SinkLogic)
        for v in rt.logic.results
    )


def run_ft_cell(
    cluster: Cluster,
    scenario: str | None,
    checkpoint_interval: float | None,
    delivery: str,
    seed: int,
    max_tuples: int = 300,
    plan_kwargs: dict | None = None,
) -> tuple[dict, list]:
    """One seeded, race-detected engine run; returns (ft stats, sink values).

    Builds the plan inside the cell so pooled cells share nothing
    mutable. The first element is ``extras["ft"]`` without its per-
    checkpoint log plus the determinism verdict; the second is the
    sorted sink-value multiset the grid compares against the oracle.
    """
    plan = ft_workload_plan(**(plan_kwargs or {}))
    config = SimulationConfig(
        max_tuples_per_source=max_tuples,
        max_sim_time=3.0,
        warmup_fraction=0.0,
        keep_sink_values=True,
        scenario=scenario,
        checkpoint_interval=checkpoint_interval,
        delivery=delivery,
    )
    engine = StreamEngine(
        plan,
        cluster,
        config=config,
        rng_factory=RngFactory(seed),
        sanitize=True,
    )
    metrics = engine.run()
    ft = dict(metrics.extras.get("ft", {}))
    ft.pop("log", None)
    from repro.analysis.diagnostics import Severity

    detector = engine.race_detector
    ft["determinism_errors"] = sum(
        1 for d in detector.findings if d.severity is Severity.ERROR
    )
    return ft, _sink_values(engine)


def recovery_grid(
    cluster: Cluster | None = None,
    intervals_ms=DEFAULT_INTERVALS_MS,
    scenarios=DEFAULT_SCENARIOS,
    deliveries=DEFAULT_DELIVERIES,
    quick: bool = False,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """The exp5 grid: checkpoint interval x failure x delivery, scored.

    Returns a JSON-ready report::

        {"experiment": "exp5", "quick": ..., "seed": ..., "cells": [
            {"interval_ms": 50.0, "scenario": "early-failure",
             "delivery": "exactly_once", "checkpoints": ...,
             "recoveries": ..., "recovery_time_s": ...,
             "replayed_events": ..., "duplicate_results": ...,
             "duplicates_dropped": ..., "lost_results": ...,
             "missing_vs_oracle": 0, "extra_vs_oracle": 0,
             "determinism_errors": 0},
            ...]}

    ``missing_vs_oracle`` / ``extra_vs_oracle`` compare each cell's
    sink multiset against a failure-free, checkpoint-free oracle run of
    the same seed: exactly-once cells must report 0/0, at-least-once
    cells 0/duplicates. ``quick=True`` shrinks the grid to one interval
    and one failure per delivery mode — the CI recovery-smoke shape.
    """
    cluster = cluster or homogeneous_cluster(num_nodes=4)
    if quick:
        intervals_ms = intervals_ms[:1]
        scenarios = scenarios[-1:]
    # The oracle: same seed and workload, no checkpointing, no failure.
    # Checkpoint barriers never change results, so one oracle serves
    # every interval.
    _, oracle_values = run_ft_cell(cluster, None, None, "exactly_once", seed)
    oracle_counts = Counter(oracle_values)

    cells = [
        (interval_ms, name, spec, delivery)
        for interval_ms in intervals_ms
        for name, spec in scenarios
        for delivery in deliveries
    ]

    def cell(item):
        interval_ms, name, spec, delivery = item
        ft, values = run_ft_cell(
            cluster, spec, interval_ms / 1000.0, delivery, seed
        )
        counts = Counter(values)
        row = {
            "interval_ms": interval_ms,
            "scenario": name,
            "scenario_spec": spec,
            "delivery": delivery,
            "checkpoints": ft.get("checkpoints_completed", 0),
            "recoveries": ft.get("recoveries", 0),
            "recovery_time_s": ft.get("recovery_time_s", 0.0),
            "replayed_events": ft.get("replayed_events", 0),
            "duplicates_dropped": ft.get("duplicates_dropped", 0),
            "duplicate_results": ft.get("duplicate_results", 0),
            "lost_results": ft.get("lost_results", 0),
            "missing_vs_oracle": sum((oracle_counts - counts).values()),
            "extra_vs_oracle": sum((counts - oracle_counts).values()),
            "determinism_errors": ft.get("determinism_errors", 0),
        }
        return row

    rows = ParallelRunner(workers=workers).map(cell, cells)
    return {
        "experiment": "exp5",
        "quick": quick,
        "seed": seed,
        "intervals_ms": list(intervals_ms),
        "scenarios": [list(pair) for pair in scenarios],
        "deliveries": list(deliveries),
        "oracle_results": len(oracle_values),
        "cells": rows,
    }
