"""Exp. 4: elastic runtime — autoscaling policies under chaos scenarios.

The demonstration paper positions PDSP-Bench as a harness for studying
parallel and distributed stream processing under *operational* variance,
not just static parallelism sweeps (Figures 3-6). This experiment grid
crosses autoscaling policies (:mod:`repro.elastic.policy`) with
reproducible disturbance scenarios (:mod:`repro.elastic.scenarios`) on a
keyed windowed workload and scores each cell on the two axes an operator
of an elastic deployment actually trades off:

- **SLO-violation-seconds** — steady-state time spent above the latency
  SLO (``extras["slo_violation_s"]``, see DESIGN.md §12);
- **resource-hours** — the integral of total subtask count over
  simulated time (``extras["elastic"]["resource_seconds"]`` / 3600),
  which a static over-provisioned baseline pays in full and a reactive
  policy tries to shrink.

Every cell is a full :class:`~repro.core.runner.BenchmarkRunner`
measurement: seeded, repeatable, bit-identical run-to-run, and safe to
fan out to a process pool (policies and scenarios travel as spec
strings). Determinism failures are *reported per cell* rather than
aborting the grid, so the CI chaos lane can assert "zero determinism
errors" over the whole report.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.cluster import Cluster, homogeneous_cluster
from repro.core.parallel import ParallelRunner
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows
from repro.workload.datagen import kv_block

__all__ = [
    "DEFAULT_POLICIES",
    "DEFAULT_SCENARIOS",
    "elastic_workload_plan",
    "policy_comparison",
]

#: Policy specs compared by default: the static baseline (which still
#: reports resource-hours, giving the grid its cost reference), queue
#: hysteresis, and cost-model sizing. Tuned to the workload below: the
#: load spike drives per-subtask backlog well past ``high`` within one
#: control interval.
DEFAULT_POLICIES = (
    "none",
    "reactive:high=4,low=0.5,cooldown=0.3,max=6",
    "predictive:util=0.6,cooldown=0.3,max=6",
)

#: Scenario specs crossed with every policy. ``baseline`` (no injection)
#: measures pure policy overhead; the rest disturb load, compute and the
#: network in reproducible, seed-independent ways.
DEFAULT_SCENARIOS = (
    ("baseline", "none"),
    ("spike", "spike:at=0.5,factor=3,duration=1.0"),
    ("straggler", "straggler:at=0.5,factor=12,duration=1.2"),
    ("failure", "failure:at=0.5,duration=0.4"),
)

_SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def elastic_workload_plan(
    event_rate: float = 3000.0,
    parallelism: int = 2,
    agg_cost_scale: float = 25.0,
    num_keys: int = 16,
) -> LogicalPlan:
    """The grid's workload: source -> keyed tumbling COUNT -> sink.

    The aggregation is hash-partitioned on the key field and its logic
    supports state migration, so it is exactly the shape the rescale
    validation admits; ``agg_cost_scale`` sizes its service time so the
    initial parallelism saturates under the spike scenario (backlog
    forms, the reactive and predictive policies have something to do).
    """
    plan = LogicalPlan("elastic-workload")
    plan.add_operator(
        builders.source(
            "src",
            None,
            _SCHEMA,
            event_rate=event_rate,
            vector_generator=kv_block(num_keys),
        )
    )
    plan.add_operator(
        builders.window_agg(
            "agg",
            TumblingTimeWindows(0.1),
            AggregateFunction.COUNT,
            value_field=1,
            key_field=0,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "agg")
    plan.connect("agg", "sink")
    if agg_cost_scale != 1.0:
        agg = plan.operator("agg")
        agg.cost = agg.cost.scaled(agg_cost_scale)
    return plan


def _run_cell(
    cluster: Cluster,
    base_config: RunnerConfig,
    policy: str,
    scenario_spec: str,
    plan_kwargs: dict,
) -> dict:
    """One (policy, scenario) measurement; never raises on determinism.

    Builds the plan *inside* the cell so pooled cells share nothing
    mutable; a :class:`~repro.common.errors.DeterminismError` becomes a
    field of the cell instead of killing the grid.
    """
    from repro.common.errors import DeterminismError

    config = replace(
        base_config,
        autoscale=policy,
        scenario=scenario_spec if scenario_spec != "none" else None,
    )
    runner = BenchmarkRunner(cluster, config)
    plan = elastic_workload_plan(**plan_kwargs)
    try:
        runs = runner.run_plan(plan)
    except DeterminismError as exc:
        return {"determinism_error": f"{exc}"}
    n = len(runs)
    elastic = [run.extras.get("elastic", {}) for run in runs]
    return {
        "determinism_error": None,
        "slo_violation_s": sum(
            run.extras.get("slo_violation_s", 0.0) for run in runs
        )
        / n,
        "resource_hours": sum(
            e.get("resource_seconds", 0.0) for e in elastic
        )
        / n
        / 3600.0,
        "rescales": sum(e.get("rescales", 0) for e in elastic) / n,
        "migrated_keys": sum(e.get("migrated_keys", 0) for e in elastic)
        / n,
        "p50_latency_ms": sum(run.latency.p50 for run in runs) / n * 1e3,
        "results": sum(run.results for run in runs) / n,
    }


def policy_comparison(
    cluster: Cluster | None = None,
    runner_config: RunnerConfig | None = None,
    policies=DEFAULT_POLICIES,
    scenarios=DEFAULT_SCENARIOS,
    slo_latency: float = 0.15,
    quick: bool = False,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """The exp4 grid: every policy under every scenario, scored.

    Returns a JSON-ready report::

        {"experiment": "exp4", "slo_latency_s": ..., "cells": [
            {"policy": "reactive", "scenario": "spike",
             "slo_violation_s": ..., "resource_hours": ...,
             "rescales": ..., "migrated_keys": ...,
             "p50_latency_ms": ..., "results": ...,
             "determinism_error": None},
            ...]}

    ``quick=True`` shrinks each cell to one short repeat — the CI
    chaos-smoke shape. The report is bit-identical across invocations
    with the same arguments (cells derive all randomness from the
    runner seed; nothing reads the wall clock).
    """
    cluster = cluster or homogeneous_cluster(num_nodes=4)
    base = runner_config or RunnerConfig(
        repeats=1 if quick else 3,
        max_tuples_per_source=6000 if quick else 12000,
        max_sim_time=2.5 if quick else 4.0,
        warmup_fraction=0.0,
        autoscale_interval=0.2,
        sanitize=True,
        seed=seed,
        workers=workers,
    )
    base = replace(base, slo_latency=slo_latency)
    plan_kwargs = {"event_rate": 3000.0, "parallelism": 2}
    cells = [
        (policy, name, spec)
        for policy in policies
        for name, spec in scenarios
    ]

    def cell(item):
        policy, name, spec = item
        row = _run_cell(cluster, base, policy, spec, plan_kwargs)
        row["policy"] = policy.partition(":")[0]
        row["policy_spec"] = policy
        row["scenario"] = name
        row["scenario_spec"] = spec
        return row

    rows = ParallelRunner(workers=base.workers).map(cell, cells)
    return {
        "experiment": "exp4",
        "slo_latency_s": slo_latency,
        "quick": quick,
        "seed": base.seed,
        "policies": list(policies),
        "scenarios": [list(pair) for pair in scenarios],
        "cells": rows,
    }
