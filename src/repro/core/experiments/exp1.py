"""Exp. 1: impact of PQP complexity on performance (Figure 3).

Both figures sweep parallelism-degree categories on the homogeneous
10 x m510 cluster (grown to fit Figure 3 bottom's extended categories)
at the paper's headline event rate of 100k events/s:

- **Figure 3 (top)** — synthetic query structures from a linear filter
  query up to 5-way joins;
- **Figure 3 (bottom)** — real-world applications, standard-operator apps
  (WC, LR) against data-intensive UDO apps (SA, SG, SD) and the
  coordination-heavy AD.

Expected shapes (paper observations): filters-only queries stay flat while
multi-way joins first gain from parallelism then hit the parallelism
paradox (O1, O2); UDO apps gain hugely at high degrees while AD stalls
(O2, O3); the overall relationship is non-linear (O4).
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster, homogeneous_cluster
from repro.cluster.hardware import get_hardware
from repro.core.experiments.persist import persist_cell
from repro.core.parallel import ParallelRunner
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.report.figures import FigureData, Series
from repro.workload.enumeration import ParameterBasedEnumeration
from repro.workload.generator import WorkloadGenerator, scale_plan_costs
from repro.workload.parameter_space import (
    PARALLELISM_CATEGORIES,
    ParameterSpace,
)
from repro.workload.querygen import QueryStructure

__all__ = [
    "DEFAULT_SYNTHETIC_STRUCTURES",
    "DEFAULT_APPS",
    "EXTENDED_CATEGORIES",
    "figure3_top",
    "figure3_bottom",
]

#: Structures of Figure 3 (top), ordered by complexity.
DEFAULT_SYNTHETIC_STRUCTURES = (
    QueryStructure.LINEAR,
    QueryStructure.TWO_FILTER_CHAIN,
    QueryStructure.THREE_FILTER_CHAIN,
    QueryStructure.TWO_WAY_JOIN,
    QueryStructure.THREE_WAY_JOIN,
    QueryStructure.FOUR_WAY_JOIN,
)

#: Applications of Figure 3 (bottom).
DEFAULT_APPS = ("WC", "LR", "MO", "SA", "SG", "SD", "CA", "AD")

#: Figure 3 (bottom) extends the categories to the degrees where the
#: paper reports data-intensive apps still improving (64, 128).
EXTENDED_CATEGORIES: dict[str, int] = {
    **PARALLELISM_CATEGORIES,
    "3XL": 64,
    "4XL": 128,
}


def _fixed_space() -> ParameterSpace:
    """A parameter space with one window setting, reducing run variance so

    the parallelism effect is isolated (the paper fixes workload parameters
    per figure as well)."""
    return ParameterSpace(
        window_durations_ms=(500,),
        sliding_ratios=(0.5,),
        window_lengths=(100,),
    )


def figure3_top(
    cluster: Cluster | None = None,
    runner_config: RunnerConfig | None = None,
    structures=DEFAULT_SYNTHETIC_STRUCTURES,
    categories: dict[str, int] | None = None,
    event_rate: float = 100_000.0,
    seed: int = 7,
    store=None,
) -> FigureData:
    """Median end-to-end latency vs parallelism category, synthetic PQPs.

    With a ``store`` (a document store or collection), every sweep cell
    persists a :class:`~repro.core.records.RunRecord` — including the
    per-operator observability summary when the runner config sets
    ``observe=True`` — for the ML dataset builder.
    """
    cluster = cluster or homogeneous_cluster("m510", 10)
    runner = BenchmarkRunner(cluster, runner_config)
    categories = categories or PARALLELISM_CATEGORIES
    dilation = runner.config.dilation
    generator = WorkloadGenerator(_fixed_space(), seed=seed)
    labels = list(categories)
    # Queries come from one sequential generator (its RNG stream must not
    # be reordered); the measurement cells are independent and fan out.
    # Each forked worker mutates its copy-on-write plan copy, so setting
    # parallelism per cell cannot race.
    pool = ParallelRunner(workers=runner.config.workers)
    series = []
    for structure in structures:
        query = generator.generate_one(
            cluster,
            structure,
            strategy=ParameterBasedEnumeration(1, _fixed_space()),
            event_rate=event_rate / dilation,
        )
        if dilation != 1.0:
            scale_plan_costs(query.plan, dilation)

        def cell(label, query=query):
            query.plan.set_uniform_parallelism(categories[label])
            return runner.measure(query.plan)

        measured = pool.map(cell, labels)
        if store is not None:
            for label, metrics in zip(labels, measured):
                query.plan.set_uniform_parallelism(categories[label])
                persist_cell(
                    store,
                    query.plan,
                    cluster,
                    metrics,
                    workload_kind="synthetic",
                    event_rate=event_rate,
                    figure="fig3-top",
                    structure=structure.value,
                    category=label,
                )
        latencies = [m["mean_median_latency_ms"] for m in measured]
        series.append(Series(structure.value, list(labels), latencies))
    return FigureData(
        figure_id="fig3-top",
        title="Exp 1: synthetic PQP complexity vs parallelism "
        f"({cluster.describe()}, {event_rate:g} ev/s)",
        x_label="parallelism category",
        y_label="mean median e2e latency (ms)",
        series=series,
    )


def figure3_bottom(
    cluster: Cluster | None = None,
    runner_config: RunnerConfig | None = None,
    apps=DEFAULT_APPS,
    categories: dict[str, int] | None = None,
    event_rate: float = 100_000.0,
    store=None,
) -> FigureData:
    """Median end-to-end latency vs parallelism, real-world applications.

    ``store`` persists one :class:`~repro.core.records.RunRecord` per
    (app, category) cell, observability summary included when observing.
    """
    categories = categories or EXTENDED_CATEGORIES
    if cluster is None:
        # The paper's 10 nodes hold degrees up to 80; the extended
        # categories need one task slot per instance of the widest
        # operator (128 -> 16 x m510), or pre-flight rejects the cell.
        slots = get_hardware("m510").cores
        nodes = max(10, -(-max(categories.values()) // slots))
        cluster = homogeneous_cluster("m510", nodes)
    runner = BenchmarkRunner(cluster, runner_config)
    labels = list(categories)
    # Every (app, category) cell builds its own plan: the full grid fans
    # out at once, keeping the pool busy even when one app is slow.
    cells = [(abbrev, label) for abbrev in apps for label in labels]

    def cell(pair):
        abbrev, label = pair
        return runner.measure_app(abbrev, categories[label], event_rate)

    values = ParallelRunner(workers=runner.config.workers).map(cell, cells)
    if store is not None:
        for (abbrev, label), metrics in zip(cells, values):
            query = runner.prepare_app(
                abbrev, categories[label], event_rate
            )
            persist_cell(
                store,
                query.plan,
                cluster,
                metrics,
                workload_kind="real-world",
                event_rate=event_rate,
                figure="fig3-bottom",
                app=abbrev,
                category=label,
            )
    series = []
    for i, abbrev in enumerate(apps):
        chunk = values[i * len(labels) : (i + 1) * len(labels)]
        latencies = [m["mean_median_latency_ms"] for m in chunk]
        series.append(Series(abbrev, list(labels), latencies))
    return FigureData(
        figure_id="fig3-bottom",
        title="Exp 1: real-world apps vs parallelism "
        f"({cluster.describe()}, {event_rate:g} ev/s)",
        x_label="parallelism category",
        y_label="mean median e2e latency (ms)",
        series=series,
    )
