"""Exp. 3: integration of ML models in PDSP-Bench (Figures 5 and 6).

- **Figure 5** — q-error of the four learned cost models (LR, MLP, RF,
  GNN) across synthetic query structures of increasing complexity.
  Expected shape (O8): the GNN's graph encoding wins consistently.
- **Figure 6a** — GNN q-error vs number of training queries for the
  rule-based and random parallelism enumeration strategies, evaluated on
  *seen* structures (linear, 2-way, 3-way join — the training
  distribution) and *unseen* ones (the remaining structures).
- **Figure 6b** — total training cost (data collection + model training)
  for each strategy to reach a target accuracy. Expected shape (O9):
  rule-based reaches the target with roughly 3x less total time.

Corpus labels come from the analytic evaluator with measurement noise;
collection cost is accounted at the paper's protocol of three 5-minute
runs per query configuration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.cluster import Cluster, homogeneous_cluster
from repro.common.errors import TrainingError
from repro.common.rng import RngFactory
from repro.core.parallel import ParallelRunner
from repro.ml.dataset import Dataset, encode_query
from repro.ml.manager import MLManager
from repro.ml.models import GNNCostModel
from repro.report.figures import FigureData, Series
from repro.sps.analytic import AnalyticEstimator
from repro.workload.enumeration import (
    EnumerationStrategy,
    RandomEnumeration,
    RuleBasedEnumeration,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.querygen import QueryStructure

__all__ = [
    "build_labelled_corpus",
    "corpus_from_run_records",
    "figure5",
    "figure6",
    "COLLECTION_SECONDS_PER_QUERY",
]

#: The paper's measurement protocol: 3 runs x 5 minutes per query config.
COLLECTION_SECONDS_PER_QUERY = 3 * 5 * 60.0

_SEEN = {s.value for s in QueryStructure if s.is_seen}
_UNSEEN = {s.value for s in QueryStructure if not s.is_seen}


def build_labelled_corpus(
    cluster: Cluster,
    count: int,
    structures: list[QueryStructure],
    strategy: EnumerationStrategy,
    seed: int,
    label_noise_cv: float = 0.08,
) -> Dataset:
    """Generate `count` queries and label them with noisy latencies."""
    generator = WorkloadGenerator(seed=seed)
    estimator = AnalyticEstimator(cluster)
    rng = RngFactory(seed).get("labels")
    records = []
    for query in generator.generate(
        cluster, count=count, structures=structures, strategy=strategy
    ):
        latency = estimator.noisy_latency(query.plan, rng, cv=label_noise_cv)
        records.append(
            encode_query(
                query.plan,
                cluster,
                latency,
                structure=query.structure.value,
            )
        )
    return Dataset(records)


def corpus_from_run_records(
    records,
    cluster: Cluster,
    plan_builder=None,
) -> Dataset:
    """Build a labelled dataset from persisted sweep records.

    This closes the loop the paper's ML Manager implements: exp1/exp2
    sweeps persist one :class:`~repro.core.records.RunRecord` per cell
    (``store=...``), and this function turns those measured cells —
    latency label plus observability summary — into training examples.

    ``plan_builder(record)`` must rebuild the record's logical plan;
    the default handles application records (``workload_name`` is the
    Table 2 abbreviation) by rebuilding the app and re-applying the
    persisted parallelism degrees. Records whose plan cannot be rebuilt
    raise :class:`~repro.common.errors.TrainingError`.
    """
    from repro.apps import REGISTRY, build_app

    def default_builder(record):
        if record.workload_name not in REGISTRY:
            raise TrainingError(
                f"cannot rebuild plan for {record.workload_name!r}; "
                "pass plan_builder= for non-application records"
            )
        query = build_app(
            record.workload_name, event_rate=record.event_rate
        )
        query.plan.set_parallelism(record.degrees)
        return query.plan

    builder = plan_builder or default_builder
    examples = []
    for record in records:
        latency_s = record.metrics.get("mean_median_latency_s")
        if not latency_s or latency_s <= 0:
            raise TrainingError(
                f"record {record.workload_name!r} has no positive "
                "'mean_median_latency_s' label"
            )
        examples.append(
            encode_query(
                builder(record),
                cluster,
                latency_s,
                structure=record.params.get(
                    "structure", record.workload_name
                ),
                observability=record.observability,
            )
        )
    return Dataset(examples)


def figure5(
    cluster: Cluster | None = None,
    corpus_size: int = 450,
    seed: int = 5,
) -> FigureData:
    """Per-structure median q-error of all four cost models."""
    cluster = cluster or homogeneous_cluster("m510", 10)
    corpus = build_labelled_corpus(
        cluster,
        corpus_size,
        structures=list(QueryStructure),
        strategy=RuleBasedEnumeration(),
        seed=seed,
    )
    manager = MLManager(seed=seed)
    reports = manager.train_and_evaluate(corpus)
    structures = sorted(
        (s for s in QueryStructure),
        key=lambda s: s.complexity_rank,
    )
    labels = [s.value for s in structures]
    series = []
    for name, report in reports.items():
        values = []
        for label in labels:
            entry = report.per_structure.get(label)
            values.append(entry["median"] if entry else float("nan"))
        series.append(Series(name, list(labels), values))
    return FigureData(
        figure_id="fig5",
        title="Exp 3(1): learned cost model accuracy across synthetic "
        f"query structures ({corpus_size} queries)",
        x_label="query structure (complexity increasing)",
        y_label="median q-error (lower is better, 1 = perfect)",
        series=series,
        notes="test split of a shared corpus; uniform early stopping",
    )


def _gnn_qerror(
    train_corpus: Dataset,
    test_seen: Dataset,
    test_unseen: Dataset,
    seed: int,
) -> tuple[float, float, float]:
    """(median q seen, median q unseen, train wall seconds)."""
    rng = np.random.default_rng(seed)
    train, val, _ = train_corpus.split(rng, test_fraction=0.02)
    model = GNNCostModel()
    result = model.fit(train, val, seed=seed)
    seen_q = model.evaluate(test_seen)["median"]
    unseen_q = model.evaluate(test_unseen)["median"]
    return seen_q, unseen_q, result.train_time_s


def figure6(
    cluster: Cluster | None = None,
    training_sizes: tuple[int, ...] = (25, 50, 100, 200, 400),
    test_size: int = 180,
    target_q: float = 1.6,
    seed: int = 9,
    workers: int = 1,
) -> tuple[FigureData, FigureData]:
    """(Figure 6a: q-error vs training size, Figure 6b: time to target).

    ``workers > 1`` fans the (strategy, size) training cells out to a
    process pool; every cell builds its corpus from its own seeded
    generator, so results are independent of how the grid is executed.
    """
    cluster = cluster or homogeneous_cluster("m510", 10)
    seen_structures = [s for s in QueryStructure if s.is_seen]
    test_corpus = build_labelled_corpus(
        cluster,
        test_size,
        structures=list(QueryStructure),
        strategy=RuleBasedEnumeration(),
        seed=seed + 1000,
    )
    test_seen = test_corpus.filter_structure(_SEEN)
    test_unseen = test_corpus.filter_structure(_UNSEEN)
    strategies: dict[str, EnumerationStrategy] = {
        "rule-based": RuleBasedEnumeration(),
        "random": RandomEnumeration(),
    }
    sizes = list(training_sizes)
    cells = [
        (strategy_name, size)
        for strategy_name in strategies
        for size in sizes
    ]

    def cell(pair):
        strategy_name, size = pair
        corpus = build_labelled_corpus(
            cluster,
            size,
            structures=seen_structures,
            strategy=strategies[strategy_name],
            seed=seed,
        )
        return _gnn_qerror(corpus, test_seen, test_unseen, seed)

    results = ParallelRunner(workers=workers).map(cell, cells)
    curves: dict[str, list[float]] = {}
    train_times: dict[str, list[float]] = {}
    for i, strategy_name in enumerate(strategies):
        chunk = results[i * len(sizes) : (i + 1) * len(sizes)]
        curves[f"{strategy_name} (seen)"] = [q for q, _, _ in chunk]
        curves[f"{strategy_name} (unseen)"] = [q for _, q, _ in chunk]
        train_times[strategy_name] = [w for _, _, w in chunk]
    fig6a = FigureData(
        figure_id="fig6a",
        title="Exp 3(2): GNN accuracy vs number of training queries per "
        "enumeration strategy",
        x_label="training queries",
        y_label="median q-error",
        series=[
            Series(label, list(sizes), values)
            for label, values in curves.items()
        ],
    )
    # Figure 6b: total time (collection at the paper's 3 x 5 min protocol
    # + training) to reach the target accuracy on seen structures. A
    # strategy that never reaches it has no such time: NaN, and a note.
    time_series = []
    missed = []
    for strategy_name in strategies:
        curve = curves[f"{strategy_name} (seen)"]
        queries_needed = None
        train_time = train_times[strategy_name][-1]
        for size, q, wall in zip(
            sizes, curve, train_times[strategy_name]
        ):
            if q <= target_q:
                queries_needed = size
                train_time = wall
                break
        if queries_needed is None:
            missed.append(
                f"{strategy_name} did not converge within {sizes[-1]} queries"
            )
            queries_needed = total_hours = math.nan
        else:
            total_hours = (
                queries_needed * COLLECTION_SECONDS_PER_QUERY + train_time
            ) / 3600.0
        time_series.append(
            Series(
                strategy_name,
                ["queries to target", "total hours"],
                [float(queries_needed), total_hours],
            )
        )
    fig6b = FigureData(
        figure_id="fig6b",
        title="Exp 3(2): training cost to reach target accuracy "
        f"(median q <= {target_q})",
        x_label="metric",
        y_label="value",
        series=time_series,
        notes="; ".join(
            ["collection accounted at 3 runs x 5 min per query (paper "
             "protocol); training wall time added"] + missed
        ),
    )
    if not fig6a.series:
        raise TrainingError("figure 6a produced no series")
    return fig6a, fig6b
