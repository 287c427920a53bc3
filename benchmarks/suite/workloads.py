"""The six workloads of the benchmark suite.

A workload is one fixed job list (a *pass*). Its constructor is the
workload's set-up — clusters, plans, queries, the first
``StreamEngine``/``MLManager`` — and is what ``setup_s`` times. The
program under test only ever receives the generated plans and inputs,
never the workload's name.

**What the seed drives.** Plan *shapes* (which queries, tuple widths,
predicates; the corpus' query mix) come from the fixed
:data:`CATALOG_SEED`: a different shape is a different amount of work
(the Fig. 3 sweep varies 2x between generator seeds), i.e. a different
workload. The run seed drives every random stream *inside* the jobs —
arrival processes, tuple values, service-time noise, label noise, the
train/val/test split and model initialisation. Training epochs are
pinned (``patience = max_epochs``) for the same reason: early stopping
would make the work of a pass a function of the seed.

Every job has an untraced form that goes through the entry points users
call (``StreamEngine.run``, ``BenchmarkRunner.measure``,
``PDSPBench.build_corpus``/``train_models``,
``exp4.policy_comparison``) and a traced form the harness drives step
by step with a span around each call into a layer; both must yield the
same ``sim_digest``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import shutil
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from tracing import Tracer, timed_method

from repro.analysis.analyzer import preflight
from repro.cluster.cluster import homogeneous_cluster
from repro.cluster.network import NetworkSpec
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.controller import PDSPBench
from repro.core.experiments import exp4, exp5
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.ml.dataset import Dataset, encode_query
from repro.ml.manager import MLManager
from repro.ml.models import (
    GNNCostModel,
    LinearRegressionModel,
    MLPCostModel,
    RandomForestModel,
)
from repro.sps.analytic import AnalyticEstimator
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import OperatorKind
from repro.sps.metrics import aggregate_runs
from repro.sps.operators.source import SourceLogic
from repro.sps.physical import PhysicalPlan
from repro.sps.placement import RoundRobinPlacement
from repro.sps.tuples import StreamTuple
from repro.workload.enumeration import ParameterBasedEnumeration
from repro.workload.generator import WorkloadGenerator, scale_plan_costs
from repro.workload.parameter_space import (
    PARALLELISM_CATEGORIES,
    ParameterSpace,
)
from repro.workload.querygen import QueryStructure

__all__ = [
    "CATALOG_SEED",
    "QERROR_BOUND",
    "WORKLOADS",
    "Job",
    "Outcome",
    "build",
    "sim_digest",
    "reference_window_sums",
]

#: Seed of everything that decides how much work a pass is.
CATALOG_SEED = 17

#: Accuracy guard: every model's median q-error on the held-out split
#: must stay under this (a faster fit that predicts worse must show).
QERROR_BOUND = 3.0

#: Scratch space for the cost-model store; inside the checkout.
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Logic methods the engine, the shard executor and the batch executor
#: call; the traced run wraps whichever of them an instance has.
_SOURCE_METHODS = ("generate", "generate_columns")
_OPERATOR_METHODS = (
    "process",
    "process_batch",
    "process_time_batch",
    "process_event_batch",
    "absorb_batch",
    "on_time",
    "flush",
)


def sim_digest(*parts) -> str:
    """Hash of simulated statistics; floats by ``repr``, so exact."""
    payload = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _metrics_signature(metrics) -> dict:
    latency = metrics.latency
    return {
        "results": metrics.results,
        "source_events": metrics.source_events,
        "throughput": metrics.throughput,
        "latency": [latency.mean, latency.p50, latency.p95, latency.p99],
        "sim_duration": metrics.sim_duration,
        "events": metrics.extras["events_processed"],
    }


@dataclass
class Outcome:
    """What one job produced: digest, exact counts, check inputs."""

    digest: str
    counts: dict = field(default_factory=dict)
    keep: dict = field(default_factory=dict)


@dataclass
class Job:
    """One guarded unit of a pass (or one correctness check).

    ``ops`` is how many operations (engine runs, sweep cells, model
    fits, store round-trips, checks) the job stands for in
    ``fail_share``. ``run(tracer)`` returns an :class:`Outcome` or
    raises; a check raises ``AssertionError`` with the evidence.
    """

    name: str
    run: object
    ops: int = 1


@dataclass
class EngineJob:
    """One seeded ``StreamEngine`` run of a prepared plan."""

    name: str
    plan: object
    cluster: object
    config: SimulationConfig
    seed: int
    force_inline: bool = False


# ------------------------------------------------------------ engine jobs


def _instrument(plan):
    """Time the plan's source and operator logic from outside.

    Replaces every operator's ``logic_factory`` with one whose
    instances carry timing wrappers on the methods the executors call.
    Returns ``(datagen_cell, operators_cell, restore)``; cells are
    ``[seconds, calls]``.
    """
    datagen = [0.0, 0]
    operators = [0.0, 0]
    originals = {}

    def wrap(factory, cell, names):
        def make():
            logic = factory()
            for name in names:
                method = getattr(logic, name, None)
                if method is not None:
                    setattr(logic, name, timed_method(method, cell))
            return logic

        return make

    for op in plan.operators.values():
        originals[op.op_id] = op.logic_factory
        if op.kind is OperatorKind.SOURCE:
            op.logic_factory = wrap(op.logic_factory, datagen, _SOURCE_METHODS)
        else:
            op.logic_factory = wrap(
                op.logic_factory, operators, _OPERATOR_METHODS
            )

    def restore():
        for op_id, factory in originals.items():
            plan.operator(op_id).logic_factory = factory

    return datagen, operators, restore


def _capture_sinks(plan):
    """Record the sink logic instances an engine builds for ``plan``."""
    sinks: list = []
    originals = {}
    for op in plan.sinks():
        originals[op.op_id] = factory = op.logic_factory

        def make(factory=factory):
            logic = factory()
            sinks.append(logic)
            return logic

        op.logic_factory = make

    def restore():
        for op_id, factory in originals.items():
            plan.operator(op_id).logic_factory = factory

    return sinks, restore


def run_engine(job: EngineJob, tracer: Tracer | None = None):
    """Build and run one engine; returns its ``RunMetrics``.

    Traced, the harness first calls the layers the constructor goes
    through — pre-flight analysis, physical expansion, placement — on
    their own so each gets a span (the constructor offers no seam; it
    repeats the last two inside ``sps.engine.init``), then brackets
    construction and the run, with source and operator logic time
    attributed through :func:`_instrument`.
    """
    rngs = RngFactory(job.seed)
    if tracer is None:
        engine = StreamEngine(
            job.plan, job.cluster, config=job.config, rng_factory=rngs
        )
        engine.shard_force_inline = job.force_inline
        return engine.run()
    jid = job.name
    with tracer.span("analysis.preflight", jid):
        preflight(job.plan, cluster=job.cluster)
    with tracer.span("sps.physical.from_logical", jid) as span:
        physical = PhysicalPlan.from_logical(job.plan)
        span.counts["subtasks"] = physical.num_subtasks
    with tracer.span("sps.placement.place", jid):
        RoundRobinPlacement().place(physical, job.cluster)
    datagen, operators, restore = _instrument(job.plan)
    try:
        with tracer.span("sps.engine.init", jid):
            engine = StreamEngine(
                job.plan,
                job.cluster,
                config=job.config,
                rng_factory=rngs,
                preflight=False,
            )
            engine.shard_force_inline = job.force_inline
        with tracer.span("sps.engine.run", jid) as run:
            metrics = engine.run()
            run.counts["events"] = metrics.extras["events_processed"]
            run.counts["source_tuples"] = metrics.source_events
            run.counts["results"] = metrics.results
    finally:
        restore()
    offset = 0.0
    # Forked shards time their logic in the children; nothing to add.
    if datagen[1]:
        offset = tracer.add_aggregate(
            "workload.datagen", run, offset, datagen[0], datagen[1]
        )
    if operators[1]:
        tracer.add_aggregate(
            "sps.operators", run, offset, operators[0], operators[1]
        )
    return metrics


def _engine_outcome(metrics) -> Outcome:
    signature = _metrics_signature(metrics)
    counts = {
        "events": signature["events"],
        "source_events": signature["source_events"],
        "results": signature["results"],
    }
    return Outcome(sim_digest(signature), counts)


def _span(tracer, name: str, job: str, **counts):
    """``tracer.span(...)``, or nothing when the pass is untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, job, **counts)


class Workload:
    """Base: engine-job workloads only list their jobs."""

    name = ""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.engine_jobs: list[EngineJob] = []

    def _budget(self, tuples: int, floor: int = 200) -> int:
        return max(int(tuples * self.scale), floor)

    def _engine_job(self, name, plan, cluster, **config) -> EngineJob:
        job = EngineJob(
            name, plan, cluster, SimulationConfig(**config), self.seed
        )
        self.engine_jobs.append(job)
        return job

    def _first_engine(self) -> None:
        """The last step of set-up: construct (not run) one engine."""
        job = self.engine_jobs[0]
        StreamEngine(
            job.plan,
            job.cluster,
            config=job.config,
            rng_factory=RngFactory(job.seed),
        )

    def _run_engine_job(self, job: EngineJob, tracer) -> Outcome:
        with _span(tracer, "harness", job.name):
            return _engine_outcome(run_engine(job, tracer))

    def jobs(self) -> list[Job]:
        return [
            Job(job.name, partial(self._run_engine_job, job))
            for job in self.engine_jobs
        ]

    def checks(self, last: dict[str, Outcome]) -> list[Job]:
        """Workload-specific correctness checks over the last pass."""
        return []

    def pass_sizes(self) -> dict:
        """Manifest entry: what one pass consists of."""
        return {
            job.name: job.config.max_tuples_per_source
            for job in self.engine_jobs
        }

    def close(self) -> None:
        """Release anything the workload holds outside the process."""


def _app_plan(cluster, abbrev: str, dilation: float, event_rate: float):
    runner = BenchmarkRunner(
        cluster, RunnerConfig(repeats=1, dilation=dilation)
    )
    return runner.prepare_app(abbrev, 4, event_rate=event_rate).plan


# -------------------------------------------------------------- apps-scalar


class AppsScalar(Workload):
    """WC, SG, AD, slide8, join8 at parallelism 4, scalar event loop."""

    name = "apps-scalar"

    #: tuple budgets balancing the five jobs to ~0.2-0.3 s each
    BUDGETS = {
        "WC": 5000,
        "SG": 10000,
        "AD": 5000,
        "slide8": 15000,
        "join8": 2500,
    }

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        cluster = homogeneous_cluster("m510", 4)
        plans = {
            "WC": _app_plan(cluster, "WC", 25.0, 100_000.0),
            "SG": _app_plan(cluster, "SG", 25.0, 100_000.0),
            "AD": _app_plan(cluster, "AD", 25.0, 100_000.0),
            "slide8": perf.slide8_plan(),
            "join8": perf.join8_plan(),
        }
        for name, plan in plans.items():
            self._engine_job(
                name,
                plan,
                cluster,
                # under ~750 tuples WC's windows may never fire
                max_tuples_per_source=self._budget(
                    self.BUDGETS[name], floor=750
                ),
                max_sim_time=8.0,
            )
        self._first_engine()


# -------------------------------------------------------------- synth-sweep


def fig3_space() -> ParameterSpace:
    """Fig. 3's parameter space: one window setting, as exp1 fixes it."""
    return ParameterSpace(
        window_durations_ms=(500,),
        sliding_ratios=(0.5,),
        window_lengths=(100,),
    )


class SynthSweep(Workload):
    """Fig. 3 (top) shape: generated PQPs x parallelism categories."""

    name = "synth-sweep"

    STRUCTURES = (
        QueryStructure.LINEAR,
        QueryStructure.TWO_FILTER_CHAIN,
        QueryStructure.TWO_WAY_JOIN,
        QueryStructure.THREE_WAY_JOIN,
    )
    DILATION = 20.0
    EVENT_RATE = 100_000.0
    #: Not scaled: under ~500 tuples per source the three-way join
    #: matches nothing on some seeds and the cell fails with "no
    #: latency samples". A scaled-down pass drops categories instead.
    TUPLES = 600

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.cluster = homogeneous_cluster("m510", 10)
        self.categories = dict(PARALLELISM_CATEGORIES)
        if scale < 1.0:
            self.categories = {
                label: self.categories[label] for label in ("XS", "XXL")
            }
        self.config = RunnerConfig(
            repeats=1,
            dilation=self.DILATION,
            max_tuples_per_source=self.TUPLES,
            max_sim_time=6.0,
            seed=seed,
        )
        self.runner = BenchmarkRunner(self.cluster, self.config)
        self.rejected = 0
        self.queries = self._generate()
        plan = self.queries[0].plan
        plan.set_uniform_parallelism(1)
        StreamEngine(
            plan,
            self.cluster,
            config=self._sim_config(),
            rng_factory=RngFactory(seed * 1000),
        )

    def _generate(self) -> list:
        space = fig3_space()
        generator = WorkloadGenerator(space, seed=CATALOG_SEED)
        queries = []
        for structure in self.STRUCTURES:
            query = generator.generate_one(
                self.cluster,
                structure,
                strategy=ParameterBasedEnumeration(1, space),
                event_rate=self.EVENT_RATE / self.DILATION,
            )
            scale_plan_costs(query.plan, self.DILATION)
            queries.append(query)
        self.rejected = generator.rejected_total
        return queries

    def _sim_config(self) -> SimulationConfig:
        """What ``BenchmarkRunner.run_plan`` builds from the config."""
        return SimulationConfig(
            max_tuples_per_source=self.config.max_tuples_per_source,
            max_sim_time=self.config.max_sim_time,
            warmup_fraction=self.config.warmup_fraction,
        )

    def _generate_job(self, tracer) -> Outcome:
        with _span(tracer, "harness", "generate"), _span(
            tracer,
            "workload.generate",
            "generate",
            queries=len(self.STRUCTURES),
        ):
            self.queries = self._generate()
        shapes = [
            [
                (op.op_id, op.kind.value, op.selectivity)
                for op in query.plan.operators.values()
            ]
            for query in self.queries
        ]
        return Outcome(sim_digest(shapes), {"rejected": self.rejected})

    def _cell(self, index: int, degree: int, name: str, tracer) -> Outcome:
        plan = self.queries[index].plan
        plan.set_uniform_parallelism(degree)
        if tracer is None:
            return Outcome(sim_digest(self.runner.measure(plan)))
        with tracer.span("harness", name):
            runs = []
            for repeat in range(self.config.repeats):
                job = EngineJob(
                    name,
                    plan,
                    self.cluster,
                    self._sim_config(),
                    self.config.seed * 1000 + repeat,
                )
                runs.append(run_engine(job, tracer))
            with tracer.span("sps.metrics.aggregate", name, cells=1):
                return Outcome(sim_digest(aggregate_runs(runs)))

    def jobs(self) -> list[Job]:
        jobs = [Job("generate", self._generate_job)]
        for index, structure in enumerate(self.STRUCTURES):
            for label, degree in self.categories.items():
                name = f"{structure.value}.{label}"
                jobs.append(
                    Job(name, partial(self._cell, index, degree, name))
                )
        return jobs

    def pass_sizes(self) -> dict:
        return {
            "cells": len(self.STRUCTURES) * len(self.categories),
            "repeats": self.config.repeats,
            "max_tuples_per_source": self.config.max_tuples_per_source,
        }


# ------------------------------------------------------------ columnar-b256


def _sink_rows(sinks) -> list:
    return sorted(
        (row for sink in sinks for row in sink.results), key=repr
    )


class ColumnarB256(Workload):
    """hotpath and WC under the columnar micro-batch executor."""

    name = "columnar-b256"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.cluster = homogeneous_cluster("m510", 4)
        self.plans = {
            "hotpath": perf.hotpath_plan(),
            "WC": _app_plan(self.cluster, "WC", 25.0, 100_000.0),
        }
        budgets = {"hotpath": 100_000, "WC": 30_000}
        for name, plan in self.plans.items():
            self._engine_job(
                f"{name}-b256",
                plan,
                self.cluster,
                max_tuples_per_source=self._budget(budgets[name]),
                max_sim_time=60.0,
                batch_size=256,
            )
        self._first_engine()

    def _invariance(self, name: str) -> Outcome:
        """b256 and b64 agree on the batch-size-invariant outputs.

        DESIGN.md §11: the data plane runs on ideal time, so sink
        values, result count and source count do not depend on how
        tuples are chunked; timing-plane numbers legitimately do.
        """
        plan = self.plans[name]
        seen = {}
        for batch_size in (256, 64):
            sinks, restore = _capture_sinks(plan)
            try:
                job = EngineJob(
                    f"{name}-b{batch_size}",
                    plan,
                    self.cluster,
                    SimulationConfig(
                        max_tuples_per_source=self._budget(6000),
                        max_sim_time=60.0,
                        batch_size=batch_size,
                        keep_sink_values=True,
                    ),
                    self.seed,
                )
                metrics = run_engine(job)
            finally:
                restore()
            seen[batch_size] = (
                metrics.results,
                metrics.source_events,
                _sink_rows(sinks),
            )
        assert seen[256] == seen[64], (
            f"{name}: batch 256 and 64 disagree on sink outputs "
            f"({seen[256][:2]} vs {seen[64][:2]})"
        )
        return Outcome(sim_digest(seen[256]), {"rows": len(seen[256][2])})

    def checks(self, last) -> list[Job]:
        return [
            Job(
                f"check.batch-invariant.{name}",
                lambda tracer, name=name: self._invariance(name),
            )
            for name in self.plans
        ]


# --------------------------------------------------------------- sharded-k2


class ShardedK2(Workload):
    """hotpath and WC on the 2 ms cluster, two forked shards."""

    name = "sharded-k2"

    RATE = 800_000.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        cluster = homogeneous_cluster(
            "m510", 4, network_spec=NetworkSpec(base_latency_s=2e-3)
        )
        plans = {
            "hotpath": perf.hotpath_plan(event_rate=self.RATE),
            "WC": _app_plan(cluster, "WC", 1.0, self.RATE),
        }
        budgets = {"hotpath": 30_000, "WC": 12_000}
        for name, plan in plans.items():
            self._engine_job(
                f"{name}-s2",
                plan,
                cluster,
                max_tuples_per_source=self._budget(budgets[name]),
                max_sim_time=8.0,
                shards=2,
            )
        self._first_engine()

    def _run_engine_job(self, job: EngineJob, tracer) -> Outcome:
        with _span(tracer, "harness", job.name):
            metrics = run_engine(job, tracer)
        outcome = _engine_outcome(metrics)
        outcome.counts["epochs"] = metrics.extras["shards"]["epochs"]
        return outcome

    def _matches_inline(self, job: EngineJob, forked: Outcome) -> Outcome:
        """The forked K=2 run equals the shard universe run inline, K=1."""
        reference = EngineJob(
            job.name.replace("-s2", "-s1-inline"),
            job.plan,
            job.cluster,
            SimulationConfig(
                max_tuples_per_source=job.config.max_tuples_per_source,
                max_sim_time=job.config.max_sim_time,
                shards=1,
            ),
            job.seed,
            force_inline=True,
        )
        outcome = _engine_outcome(run_engine(reference))
        assert outcome.digest == forked.digest, (
            f"{job.name}: forked shards=2 digest {forked.digest} != "
            f"inline shards=1 digest {outcome.digest}"
        )
        return outcome

    def _no_orphans(self) -> Outcome:
        alive = multiprocessing.active_children()
        assert not alive, f"shard children still alive: {alive}"
        return Outcome(sim_digest(0))

    def checks(self, last) -> list[Job]:
        jobs = [
            Job(
                f"check.fork-equals-inline.{job.name}",
                lambda tracer, job=job: self._matches_inline(
                    job, last[job.name]
                ),
            )
            for job in self.engine_jobs
            if job.name in last
        ]
        jobs.append(
            Job("check.no-orphans", lambda tracer: self._no_orphans())
        )
        return jobs


# --------------------------------------------------------------- ft-elastic


class LoggedKeyedSource:
    """The harness's own FT source: keyed doubles, every emission logged.

    The log is the input of the independent reference
    (:func:`reference_window_sums`); recovery replays the engine's
    durable source log, so the generator runs once per tuple.
    """

    def __init__(self, num_keys: int = 8) -> None:
        self.num_keys = num_keys
        self.log: list[tuple[int, float]] = []

    def __call__(self, rng, now: float) -> StreamTuple:
        key = int(rng.integers(self.num_keys))
        value = float(rng.random())
        self.log.append((key, value))
        return StreamTuple(
            values=(key, value), event_time=now, size_bytes=24.0
        )


def reference_window_sums(log, length: int = 10):
    """Naive evaluator of ``ft_workload_plan``: no engine involved.

    Per key, in emission order, every ``length`` values form a count
    window whose result is their left-to-right sum. Returns the
    complete windows and the partial tails (``WindowAggregateLogic``
    documents that ``flush`` emits a key's open count window as is).
    """
    per_key: dict[int, list[float]] = {}
    for key, value in log:
        per_key.setdefault(key, []).append(value)
    complete, partial = [], []
    for key, values in per_key.items():
        for begin in range(0, len(values), length):
            window = values[begin : begin + length]
            total = 0.0
            for value in window:
                total += value
            (complete if len(window) == length else partial).append(
                (key, total)
            )
    return complete, partial


class FtElastic(Workload):
    """Checkpointed, recovering and rescaling uses of the same engine."""

    name = "ft-elastic"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.cluster = homogeneous_cluster("m510", 4)
        self._engine_job(
            "hotpath-ckpt",
            perf.hotpath_plan(),
            self.cluster,
            max_tuples_per_source=self._budget(20_000),
            max_sim_time=8.0,
            checkpoint_interval=0.05,
        )
        # Arrivals (3000/s) must end before the failure and well before
        # max_sim_time: a truncated run legitimately differs from its
        # oracle. run_ft_cell hard-codes 3.0 s, hence StreamEngine here.
        tuples = self._budget(3000, floor=300)
        failure = f"failure:at={tuples / 1000.0:g},duration=0.1"
        self.source = LoggedKeyedSource()
        self.ft_plan = exp5.ft_workload_plan()
        self.ft_plan.operator("src").logic_factory = lambda: SourceLogic(
            self.source
        )
        common = {
            "max_tuples_per_source": tuples,
            "max_sim_time": 30.0,
            "warmup_fraction": 0.0,
            "keep_sink_values": True,
        }
        self._engine_job("ft-oracle", self.ft_plan, self.cluster, **common)
        for delivery in ("exactly_once", "at_least_once"):
            self._engine_job(
                f"ft-{delivery.replace('_', '-')}",
                self.ft_plan,
                self.cluster,
                scenario=failure,
                checkpoint_interval=0.05,
                delivery=delivery,
                **common,
            )
        # Not scaled: the spike (0.5-1.5 s simulated) must fall inside
        # the arrivals or the reactive policy has nothing to react to.
        self.grid_config = RunnerConfig(
            repeats=1,
            max_tuples_per_source=6000,
            max_sim_time=2.5,
            warmup_fraction=0.0,
            autoscale_interval=0.2,
            sanitize=True,
            seed=seed,
        )
        self._first_engine()

    def _run_engine_job(self, job: EngineJob, tracer) -> Outcome:
        if job.plan is not self.ft_plan:
            return super()._run_engine_job(job, tracer)
        self.source.log = []
        sinks, restore = _capture_sinks(job.plan)
        try:
            with _span(tracer, "harness", job.name):
                metrics = run_engine(job, tracer)
        finally:
            restore()
        outcome = _engine_outcome(metrics)
        outcome.keep["sink"] = Counter(
            row for sink in sinks for row in sink.results
        )
        outcome.keep["log"] = list(self.source.log)
        ft = metrics.extras.get("ft", {})
        outcome.keep["ft"] = ft
        for key in ("checkpoints_completed", "replayed_events"):
            if key in ft:
                outcome.counts[key] = ft[key]
        return outcome

    def _grid(self, tracer) -> Outcome:
        with _span(tracer, "harness", "elastic-grid"), _span(
            tracer, "elastic.policy_comparison", "elastic-grid", cells=4
        ):
            report = exp4.policy_comparison(
                self.cluster,
                runner_config=self.grid_config,
                policies=exp4.DEFAULT_POLICIES[:2],
                scenarios=exp4.DEFAULT_SCENARIOS[:2],
            )
        cells = report["cells"]
        counts = {
            "rescales": sum(cell.get("rescales", 0) for cell in cells),
            "migrated_keys": sum(
                cell.get("migrated_keys", 0) for cell in cells
            ),
        }
        return Outcome(sim_digest(cells), counts, {"cells": cells})

    def jobs(self) -> list[Job]:
        return super().jobs() + [Job("elastic-grid", self._grid, ops=4)]

    def pass_sizes(self) -> dict:
        sizes = super().pass_sizes()
        sizes["elastic-grid"] = {
            "cells": 4,
            "max_tuples_per_source": self.grid_config.max_tuples_per_source,
        }
        return sizes

    # ----------------------------------------------------------- checks

    @staticmethod
    def _exactly_once(last) -> Outcome:
        oracle = last["ft-oracle"].keep["sink"]
        got = last["ft-exactly-once"].keep["sink"]
        missing = sum((oracle - got).values())
        extra = sum((got - oracle).values())
        assert missing == 0 and extra == 0, (
            f"exactly-once sink differs from the failure-free oracle: "
            f"missing {missing}, extra {extra}"
        )
        recoveries = last["ft-exactly-once"].keep["ft"].get("recoveries")
        assert recoveries, "the failure scenario triggered no recovery"
        return Outcome(sim_digest(sorted(got.items(), key=repr)))

    @staticmethod
    def _at_least_once(last) -> Outcome:
        oracle = last["ft-oracle"].keep["sink"]
        got = last["ft-at-least-once"].keep["sink"]
        missing = sum((oracle - got).values())
        extra = sum((got - oracle).values())
        duplicates = last["ft-at-least-once"].keep["ft"].get(
            "duplicate_results"
        )
        assert missing == 0 and extra == duplicates, (
            f"at-least-once: missing {missing} (want 0), extra {extra} "
            f"(want duplicate_results = {duplicates})"
        )
        return Outcome(sim_digest(missing, extra))

    @staticmethod
    def _independent_reference(last) -> Outcome:
        oracle = last["ft-oracle"]
        complete, partial = reference_window_sums(oracle.keep["log"])
        want = Counter(complete) + Counter(partial)
        got = oracle.keep["sink"]
        assert got == want, (
            f"sink multiset differs from the naive evaluator: "
            f"{sum((want - got).values())} missing, "
            f"{sum((got - want).values())} unexpected "
            f"({len(complete)} complete + {len(partial)} flushed windows)"
        )
        assert complete, "reference formed no complete window"
        return Outcome(
            sim_digest(sorted(want.items(), key=repr)),
            {"complete_windows": len(complete), "flushed": len(partial)},
        )

    @staticmethod
    def _reactive_spike(last) -> Outcome:
        cell = next(
            cell
            for cell in last["elastic-grid"].keep["cells"]
            if cell["policy"] == "reactive" and cell["scenario"] == "spike"
        )
        assert cell["determinism_error"] is None, cell["determinism_error"]
        assert cell["rescales"] >= 1, "reactive x spike never rescaled"
        return Outcome(sim_digest(cell["rescales"]))

    def checks(self, last) -> list[Job]:
        wanted = {
            "check.exactly-once-equals-oracle": (
                self._exactly_once,
                ("ft-oracle", "ft-exactly-once"),
            ),
            "check.at-least-once-duplicates": (
                self._at_least_once,
                ("ft-oracle", "ft-at-least-once"),
            ),
            "check.independent-reference": (
                self._independent_reference,
                ("ft-oracle",),
            ),
            "check.reactive-spike-rescales": (
                self._reactive_spike,
                ("elastic-grid",),
            ),
        }
        jobs = []
        for name, (check, needs) in wanted.items():

            def run(tracer, check=check, needs=needs):
                absent = [n for n in needs if n not in last]
                assert not absent, f"jobs {absent} produced no outcome"
                return check(last)

            jobs.append(Job(name, run))
        return jobs


# --------------------------------------------------------------- cost-model


#: The GNN's pinned epoch count; its fit is ~75 % of a pass.
GNN_EPOCHS = 60


def pinned_models() -> list:
    """The four model families with their epoch budgets pinned."""
    return [
        LinearRegressionModel(),
        MLPCostModel(max_epochs=40, patience=40),
        RandomForestModel(max_trees=30, patience=30),
        GNNCostModel(max_epochs=GNN_EPOCHS, patience=GNN_EPOCHS),
    ]


class CostModel(Workload):
    """Corpus generation, store round-trip and model training; no DES."""

    name = "cost-model"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.count = self._budget(150, floor=60)
        WORK_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=WORK_DIR))
        self.passes = 0
        self.bench = self._bench()
        self.dataset = None
        self.loaded = None

    def _bench(self) -> PDSPBench:
        self.passes += 1
        #: where the current pass's document store lives
        self.store_dir = str(self.root / f"pass-{self.passes}")
        bench = PDSPBench.homogeneous(
            storage_dir=self.store_dir, seed=self.seed
        )
        bench.workload_generator = WorkloadGenerator(
            bench.space, seed=CATALOG_SEED
        )
        bench.ml_manager = MLManager(models=pinned_models(), seed=self.seed)
        return bench

    # ---------------------------------------------------------- the jobs

    def _build(self, tracer) -> Outcome:
        # A fresh store per pass: the corpus collection appends.
        self.bench = bench = self._bench()
        self.dataset = self.loaded = None
        if tracer is None:
            self.dataset = bench.build_corpus(self.count)
        else:
            with tracer.span("harness", "build-corpus"):
                self.dataset = self._build_traced(bench, tracer)
        labels = [record.latency_s for record in self.dataset.records]
        flat = float(sum(r.flat.sum() for r in self.dataset.records))
        return Outcome(sim_digest(labels, flat), {"docs": len(labels)})

    def _build_traced(self, bench: PDSPBench, tracer) -> Dataset:
        """``PDSPBench.build_corpus``, one layer call at a time."""
        jid = "build-corpus"
        with tracer.span("workload.generate", jid, queries=self.count):
            queries = bench.workload_generator.generate(
                bench.cluster, count=self.count
            )
        estimator = AnalyticEstimator(bench.cluster)
        rng = RngFactory(self.seed).get("corpus-labels")
        records = []
        for query in queries:
            with tracer.span("sps.analytic.estimate", jid):
                latency = estimator.noisy_latency(query.plan, rng, cv=0.08)
            with tracer.span("ml.encode", jid):
                records.append(
                    encode_query(
                        query.plan,
                        bench.cluster,
                        latency,
                        structure=query.structure.value,
                        meta={
                            "strategy": query.params.get("strategy", "")
                        },
                    )
                )
        dataset = Dataset(records)
        with tracer.span("storage.insert", jid, docs=len(records)):
            dataset.save(bench.store["corpus"])
        return dataset

    def _load(self, tracer) -> Outcome:
        assert self.dataset is not None, "build-corpus produced no corpus"
        with _span(tracer, "harness", "load-corpus"), _span(
            tracer, "storage.find", "load-corpus", docs=self.count
        ):
            self.loaded = self.bench.load_corpus()
        return Outcome(
            sim_digest([r.latency_s for r in self.loaded.records]),
            {"docs": len(self.loaded)},
        )

    def _train(self, tracer) -> Outcome:
        assert self.loaded is not None, "load-corpus produced no corpus"
        if tracer is None:
            reports = self.bench.train_models(self.loaded)
            summary = {
                name: (report.training.epochs, report.q_error)
                for name, report in reports.items()
            }
        else:
            with tracer.span("harness", "train-models"):
                summary = self._train_traced(tracer)
        medians = {name: q["median"] for name, (_, q) in summary.items()}
        epochs = {
            f"epochs.{name}": epochs for name, (epochs, _) in summary.items()
        }
        return Outcome(sim_digest(summary), epochs, {"qerror": medians})

    def _train_traced(self, tracer) -> dict:
        """``MLManager.train_and_evaluate``, one model call at a time."""
        jid = "train-models"
        manager = self.bench.ml_manager
        rng = np.random.default_rng(manager.seed)
        train, val, test = self.loaded.split(
            rng, val_fraction=0.15, test_fraction=0.15
        )
        summary = {}
        documents = []
        for model in manager.models:
            with tracer.span(f"ml.fit.{model.name}", jid) as span:
                result = model.fit(train, val, seed=manager.seed)
                span.counts["epochs"] = result.epochs
            with tracer.span("ml.evaluate", jid, queries=len(test)):
                q_error = model.evaluate(test)
            summary[model.name] = (result.epochs, q_error)
            documents.append(
                {"model": model.name, "q_error": dict(q_error)}
            )
        with tracer.span("storage.insert", jid, docs=len(documents)):
            self.bench.store["model_reports"].insert_many(documents)
        return summary

    def jobs(self) -> list[Job]:
        return [
            Job("build-corpus", self._build),
            Job("load-corpus", self._load),
            Job("train-models", self._train, ops=len(pinned_models())),
        ]

    def pass_sizes(self) -> dict:
        return {"corpus_queries": self.count, "gnn_epochs": GNN_EPOCHS}

    # ----------------------------------------------------------- checks

    def _round_trip(self) -> Outcome:
        assert self.dataset is not None and self.loaded is not None
        saved = [record.to_document() for record in self.dataset.records]
        loaded = [record.to_document() for record in self.loaded.records]
        assert saved == loaded, "store round-trip changed the corpus"
        return Outcome(sim_digest(len(saved)), {"docs": len(saved)})

    @staticmethod
    def _qerror(last, model: str) -> Outcome:
        assert "train-models" in last, "train-models produced no outcome"
        median = last["train-models"].keep["qerror"][model]
        assert median < QERROR_BOUND, (
            f"{model} median q-error {median:.3f} >= {QERROR_BOUND}"
        )
        return Outcome(sim_digest(median))

    def checks(self, last) -> list[Job]:
        jobs = [
            Job("check.store-round-trip", lambda tracer: self._round_trip())
        ]
        for model in pinned_models():
            jobs.append(
                Job(
                    f"check.qerror.{model.name}",
                    lambda tracer, name=model.name: self._qerror(last, name),
                )
            )
        return jobs

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still has a store there


WORKLOADS = {
    cls.name: cls
    for cls in (
        AppsScalar,
        SynthSweep,
        ColumnarB256,
        ShardedK2,
        FtElastic,
        CostModel,
    )
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Set a workload up; this call is what ``setup_s`` brackets."""
    return WORKLOADS[name](seed, scale)
