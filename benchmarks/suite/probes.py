"""Per-layer probes: each layer measured from outside.

Every probe times calls into a layer's public functions on fixed,
seeded inputs, or takes the difference of two runs that differ in one
thing. No probe reads a workload's name; the engine-level ones reuse
the workloads' own job lists at reduced size so that a layer is probed
on the traffic it serves in its home workload. All timings are host
time; the ``obs.sim.*``, ``*.epochs``, ``*.rescales`` style counts are
simulated and repeat exactly per seed.

A probe that raises is recorded as a failed operation and its metrics
are left out, which fails the run — the per-layer list is a contract.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import workloads
from measure import cpu_seconds, guarded
from tracing import Tracer, layers_table

from repro.analysis.analyzer import preflight
from repro.apps import build_app
from repro.cluster.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.experiments import exp4
from repro.core.parallel import ParallelRunner
from repro.kernel.core import Kernel
from repro.kernel.wire import decode_batch, encode_batch
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.columnar import TupleBatch
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan, OperatorKind
from repro.sps.metrics import LatencyStats
from repro.sps.operators.base import OperatorContext
from repro.sps.partitioning import HashPartitioner, RebalancePartitioner
from repro.sps.physical import PhysicalPlan
from repro.sps.placement import RoundRobinPlacement
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import (
    AggregateFunction,
    SlidingTimeWindows,
    TumblingTimeWindows,
)
from repro.storage.docstore import DocumentStore
from repro.workload.datagen import random_stream_spec
from repro.workload.generator import WorkloadGenerator
from repro.workload.parameter_space import ParameterSpace

__all__ = ["run_probes", "PROBES"]

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

_KV_SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def _kv(rng, now: float) -> StreamTuple:
    """64-key (int, double) tuples, the hotpath plan's traffic."""
    return StreamTuple(
        values=(int(rng.integers(64)), float(rng.random())),
        event_time=now,
        size_bytes=24.0,
    )


def _kv_tuples(n: int, seed: int) -> list[StreamTuple]:
    rng = np.random.default_rng(seed)
    tuples = [_kv(rng, i * 2.5e-4) for i in range(n)]
    for tup in tuples:
        tup.origin_time = tup.event_time
    return tuples


def _median_of(fn, reps: int = 3) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    walls = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def _timed_run(plan, cluster, seed, observer=None, sanitize=False, **config):
    """One engine run; returns ``(wall_s, metrics)`` incl. construction."""
    start = time.perf_counter()
    engine = StreamEngine(
        plan,
        cluster,
        config=SimulationConfig(**config),
        rng_factory=RngFactory(seed),
        observer=observer,
        sanitize=sanitize,
    )
    metrics = engine.run()
    return time.perf_counter() - start, metrics


# ------------------------------------------------------------------ kernel


def probe_kernel(seed: int, scale: float) -> dict:
    """Null-handler event loop at heap depth ~1000, and the wire codec."""
    events = max(int(200_000 * scale), 20_000)
    depth = 1000
    gaps = np.random.default_rng(seed).random(events + depth).tolist()
    kernel = Kernel((True,))
    left = [events]

    def handler(gid, payload, port):
        if left[0] > 0:
            left[0] -= 1
            kernel.push(kernel.now + gaps[left[0]], 0, 0, None, 0)

    for i in range(depth):
        kernel.push(gaps[events + i], 0, 0, None, 0)
    start = time.perf_counter()
    kernel.run([handler], max_events=events + depth + 1)
    wall = time.perf_counter() - start
    out = {"kernel.core.ns_per_event": wall / kernel.events_processed * 1e9}

    tuples = _kv_tuples(2000, seed)
    messages = [
        (tup.event_time + 2e-3, i % 13, i, i % 7, 0, tup)
        for i, tup in enumerate(tuples)
    ]
    blob = encode_batch(messages)
    encode = _median_of(lambda: encode_batch(messages), 5)
    decode = _median_of(lambda: decode_batch(blob), 5)
    assert [m[:5] for m in decode_batch(blob)] == [m[:5] for m in messages]
    out["kernel.wire.encode_us_per_msg"] = encode / len(messages) * 1e6
    out["kernel.wire.decode_us_per_msg"] = decode / len(messages) * 1e6
    out["kernel.wire.bytes_per_msg"] = len(blob) / len(messages)
    return out


# -------------------------------------------------------------- sps.engine


def _ladder_plan(rungs: int) -> LogicalPlan:
    """The hotpath shape cut after ``rungs`` operators past the source."""
    plan = LogicalPlan(f"ladder-{rungs}")
    plan.add_operator(
        builders.source(
            "src", _kv, _KV_SCHEMA, event_rate=4000.0, parallelism=4
        )
    )
    last = "src"
    if rungs >= 1:
        plan.add_operator(
            builders.filter_op(
                "flt",
                Predicate(1, FilterFunction.GT, 0.5, selectivity_hint=0.5),
                parallelism=4,
            )
        )
        plan.connect(last, "flt")
        last = "flt"
    if rungs >= 2:
        plan.add_operator(
            builders.window_agg(
                "agg",
                TumblingTimeWindows(0.05),
                AggregateFunction.SUM,
                value_field=1,
                key_field=0,
                parallelism=4,
            )
        )
        plan.connect(last, "agg")
        last = "agg"
    plan.add_operator(builders.sink("sink"))
    plan.connect(last, "sink")
    return plan


def probe_engine(seed: int, scale: float) -> dict:
    """The scalar loop on its home traffic, observed and unobserved.

    Runs the ``apps-scalar`` job list at reduced budgets; also yields
    ``kernel.core.share`` (needs these runs' event counts) and the
    ``obs`` metrics (the same runs again with an observer attached).
    """
    out = {}
    apps = workloads.AppsScalar(seed, 0.3 * scale)
    plain_wall = 0.0
    events = 0
    for job in apps.engine_jobs:
        wall, metrics = _timed_job(job)
        plain_wall += wall
        events += metrics.extras["events_processed"]
        key = job.name
        out[f"sps.engine.events_per_s.{key}"] = (
            metrics.extras["events_processed"] / wall
        )
        out[f"sps.engine.us_per_source_tuple.{key}"] = (
            wall / metrics.source_events * 1e6
        )
    out["_engine_events"] = events
    out["_engine_wall"] = plain_wall

    observed_wall = 0.0
    totals = {"tuples_in": 0, "tuples_out": 0, "busy_s": 0.0,
              "shuffle_bytes": 0.0}
    queue_peak = 0
    for job in apps.engine_jobs:
        observer = EngineObserver(sample_interval=0.25, serve_spans=False)
        wall, _ = _timed_run(
            job.plan, job.cluster, job.seed, observer=observer,
            max_tuples_per_source=job.config.max_tuples_per_source,
            max_sim_time=job.config.max_sim_time,
        )
        observed_wall += wall
        summary = observer.summary()
        for key in totals:
            totals[key] += summary["totals"][key]
        queue_peak = max(
            [queue_peak]
            + [op["queue_peak"] for op in summary["ops"].values()]
        )
    out["obs.observer_overhead_ratio"] = observed_wall / plain_wall
    for key, value in totals.items():
        out[f"obs.sim.{key}"] = value
    out["obs.sim.queue_peak_max"] = queue_peak

    cluster = homogeneous_cluster("m510", 4)
    tuples = max(int(5000 * scale), 1000)
    for rungs, name in enumerate(
        ("src_sink", "src_filter_sink", "src_filter_agg_sink")
    ):
        wall, metrics = _timed_run(
            _ladder_plan(rungs), cluster, seed,
            max_tuples_per_source=tuples, max_sim_time=8.0,
        )
        out[f"sps.engine.ladder.{name}"] = (
            wall / metrics.source_events * 1e6
        )

    big = homogeneous_cluster("m510", 10)
    for degree in (4, 32):
        plan = perf.hotpath_plan(parallelism=degree)
        out[f"sps.engine.init_ms.p{degree}"] = (
            _median_of(lambda plan=plan: StreamEngine(plan, big), 5) * 1e3
        )
    plan = perf.hotpath_plan(parallelism=4)
    out["analysis.preflight_ms_per_plan"] = (
        _median_of(lambda: preflight(plan, cluster=big), 5) * 1e3
    )
    physical = PhysicalPlan.from_logical(perf.hotpath_plan(parallelism=32))
    out["sps.placement.place_ms.p32"] = (
        _median_of(lambda: RoundRobinPlacement().place(physical, big), 5)
        * 1e3
    )
    return out


def _timed_job(job):
    """``(wall, metrics)`` of one workload engine job."""
    start = time.perf_counter()
    metrics = workloads.run_engine(job)
    return time.perf_counter() - start, metrics


# --------------------------------------- operators, partitioning, windows


def _logic(op, seed: int = 0):
    logic = op.logic_factory()
    logic.setup(
        OperatorContext(
            op_id=op.op_id,
            subtask_index=0,
            parallelism=1,
            rng=np.random.default_rng(seed),
        )
    )
    return logic


def _process_ns(op, tuples, two_ports: bool = False) -> float:
    """ns per ``process`` call of a fresh logic over prepared tuples."""
    logic = _logic(op)
    process = logic.process
    start = time.perf_counter()
    if two_ports:
        for i, tup in enumerate(tuples):
            process(tup, tup.event_time, i & 1)
    else:
        for tup in tuples:
            process(tup, tup.event_time, 0)
    return (time.perf_counter() - start) / len(tuples) * 1e9


def probe_operators(seed: int, scale: float) -> dict:
    n = max(int(20_000 * scale), 4000)
    tuples = _kv_tuples(n, seed)
    out = {}
    ops = {
        "filter": builders.filter_op(
            "f", Predicate(1, FilterFunction.GT, 0.5, selectivity_hint=0.5)
        ),
        "map": builders.map_op("m", lambda v: (v[0], v[1] * 2.0)),
        "agg_tumbling": builders.window_agg(
            "a", TumblingTimeWindows(0.05), AggregateFunction.SUM,
            value_field=1, key_field=0,
        ),
        "agg_sliding8": builders.window_agg(
            "s", SlidingTimeWindows(0.4, 0.05), AggregateFunction.SUM,
            value_field=1, key_field=0,
        ),
    }
    for name, op in ops.items():
        out[f"sps.operators.{name}.ns_per_tuple"] = _process_ns(op, tuples)
    join = builders.window_join(
        "j", SlidingTimeWindows(0.2, 0.05),
        left_key_field=0, right_key_field=0,
    )
    out["sps.operators.join_sliding4.ns_per_tuple"] = _process_ns(
        join, tuples[: n // 4], two_ports=True
    )
    smart_grid = build_app("SG", event_rate=4000.0).plan
    source = _logic(smart_grid.operator("plugs"), seed)
    readings = [source.generate(i * 2.5e-4) for i in range(n // 4)]
    out["sps.operators.udo_sg.ns_per_tuple"] = _process_ns(
        smart_grid.operator("plug_median"), readings
    )

    hash_select = HashPartitioner(key_field=0).select
    rebalance_select = RebalancePartitioner().select

    def route(select):
        def loop():
            for tup in tuples:
                select(tup, 4)

        return loop

    out["sps.partitioning.hash.ns_per_tuple"] = (
        _median_of(route(hash_select)) / n * 1e9
    )
    out["sps.partitioning.rebalance.ns_per_tuple"] = (
        _median_of(route(rebalance_select)) / n * 1e9
    )
    assign = SlidingTimeWindows(0.4, 0.05).assign_index_range

    def assign_all():
        for tup in tuples:
            assign(tup.event_time)

    out["sps.windows.sliding8_assign_ns"] = (
        _median_of(assign_all) / n * 1e9
    )
    samples = np.random.default_rng(seed).random(100_000)
    out["sps.metrics.from_samples_ms_per_100k"] = (
        _median_of(lambda: LatencyStats.from_samples(samples), 5) * 1e3
    )
    return out


# ------------------------------------------------------ sps.batch/columnar


def probe_batch(seed: int, scale: float) -> dict:
    out = {}
    columnar = workloads.ColumnarB256(seed, 0.1 * scale)
    fallback = 0
    operators = 0
    for job in columnar.engine_jobs:
        name = job.name.removesuffix("-b256")
        config = {
            "max_tuples_per_source": job.config.max_tuples_per_source,
            "max_sim_time": job.config.max_sim_time,
        }
        batch_wall, metrics = _timed_run(
            job.plan, job.cluster, seed, batch_size=256, **config
        )
        scalar_wall, _ = _timed_run(job.plan, job.cluster, seed, **config)
        out[f"sps.batch.events_per_s.{name}"] = (
            metrics.extras["events_processed"] / batch_wall
        )
        out[f"sps.batch.speedup_vs_scalar.{name}"] = (
            scalar_wall / batch_wall
        )
        for op in job.plan.operators.values():
            logic = op.logic_factory()
            operators += 1
            if op.kind is OperatorKind.SOURCE:
                fallback += not logic.has_vector_generator
            else:
                fallback += not logic.supports_batch()
    out["sps.batch.scalar_fallback_op_share"] = fallback / operators

    n = max(int(10_000 * scale), 2000)
    tuples = _kv_tuples(n, seed)
    now = np.arange(n, dtype=np.float64)
    seq = np.arange(n, dtype=np.int64)
    batch = TupleBatch.from_tuples(tuples, now, seq)
    indices = np.random.default_rng(seed).permutation(n)
    quarters = [batch.slice(i * n // 4, (i + 1) * n // 4) for i in range(4)]
    for name, fn in {
        "from_tuples": lambda: TupleBatch.from_tuples(tuples, now, seq),
        "take": lambda: batch.take(indices),
        "concat": lambda: TupleBatch.concat(quarters),
        "to_tuples": batch.to_tuples,
    }.items():
        out[f"sps.columnar.{name}_ns_per_row"] = (
            _median_of(fn, 5) / n * 1e9
        )
    return out


# ---------------------------------------------------------- sps.shard_exec


def probe_shards(seed: int, scale: float) -> dict:
    """Forked K=2 and inline K=2 against inline K=1, same universe."""
    out = {}
    # Near the workload's own size: below ~10k tuples the fork itself
    # (~0.15 s) dominates and the ratios say nothing about the protocol.
    sharded = workloads.ShardedK2(seed, 0.7 * scale)
    fork_wall = 0.0
    fork_cpu = 0.0
    for job in sharded.engine_jobs:
        name = job.name.removesuffix("-s2")
        walls = {}
        for label, shards, inline in (
            ("k1", 1, True),
            ("k2-inline", 2, True),
            ("k2-fork", 2, False),
        ):
            variant = workloads.EngineJob(
                f"{name}-{label}",
                job.plan,
                job.cluster,
                SimulationConfig(
                    max_tuples_per_source=job.config.max_tuples_per_source,
                    max_sim_time=job.config.max_sim_time,
                    shards=shards,
                ),
                seed,
                force_inline=inline,
            )
            cpu = cpu_seconds()
            walls[label], metrics = _timed_job(variant)
            if label == "k2-fork":
                fork_cpu += cpu_seconds() - cpu
                fork_wall += walls[label]
                if name == "hotpath":
                    epochs = metrics.extras["shards"]["epochs"]
                    out["kernel.sharded.epochs"] = epochs
                    out["kernel.sharded.events_per_epoch"] = (
                        metrics.extras["events_processed"] / epochs
                    )
        out[f"sps.shard_exec.speedup_fork_k2.{name}"] = (
            walls["k1"] / walls["k2-fork"]
        )
        out[f"sps.shard_exec.inline_k2_over_k1.{name}"] = (
            walls["k2-inline"] / walls["k1"]
        )
    out["sps.shard_exec.cpu_over_wall"] = fork_cpu / fork_wall
    out["host.cores"] = len(os.sched_getaffinity(0))
    return out


# ------------------------------------------------- ft, elastic, racecheck


def probe_ft(seed: int, scale: float) -> dict:
    out = {}
    cluster = homogeneous_cluster("m510", 4)
    plan = perf.hotpath_plan()
    small = {"max_tuples_per_source": max(int(5000 * scale), 1000),
             "max_sim_time": 8.0}
    off_wall, _ = _timed_run(plan, cluster, seed, **small)
    on_wall, on = _timed_run(
        plan, cluster, seed, checkpoint_interval=0.05, **small
    )
    out["ft.ckpt_overhead_ratio"] = on_wall / off_wall
    out["ft.events_per_s.t5k"] = on.extras["events_processed"] / on_wall
    out["ft.checkpoints_completed"] = on.extras["ft"][
        "checkpoints_completed"
    ]
    long_wall, long = _timed_run(
        plan, cluster, seed, checkpoint_interval=0.05,
        max_tuples_per_source=max(int(30_000 * scale), 3000),
        max_sim_time=10.0,
    )
    out["ft.events_per_s.t30k"] = (
        long.extras["events_processed"] / long_wall
    )
    sane_wall, _ = _timed_run(plan, cluster, seed, sanitize=True, **small)
    out["analysis.racecheck.overhead_ratio"] = sane_wall / off_wall

    ft = workloads.FtElastic(seed, 0.5 * scale)
    jobs = {job.name: job for job in ft.engine_jobs}
    failing = jobs["ft-exactly-once"]
    calm = workloads.EngineJob(
        "ft-calm",
        failing.plan,
        failing.cluster,
        SimulationConfig(
            max_tuples_per_source=failing.config.max_tuples_per_source,
            max_sim_time=failing.config.max_sim_time,
            warmup_fraction=0.0,
            checkpoint_interval=0.05,
        ),
        seed,
    )
    deltas = []
    for _ in range(3):
        calm_wall, _ = _timed_job(calm)
        fail_wall, metrics = _timed_job(failing)
        deltas.append(fail_wall - calm_wall)
    out["ft.recovery_wall_ms"] = statistics.median(deltas) * 1e3
    out["ft.replayed_events"] = metrics.extras["ft"]["replayed_events"]

    cells = []
    rescales = 0
    migrated = 0
    for policy in exp4.DEFAULT_POLICIES[:2]:
        for scenario in exp4.DEFAULT_SCENARIOS[:2]:
            start = time.perf_counter()
            report = exp4.policy_comparison(
                cluster,
                runner_config=ft.grid_config,
                policies=(policy,),
                scenarios=(scenario,),
            )
            cells.append(time.perf_counter() - start)
            rescales += report["cells"][0]["rescales"]
            migrated += report["cells"][0]["migrated_keys"]
    out["elastic.cell_ms_p50"] = statistics.median(cells) * 1e3
    out["elastic.rescales"] = rescales
    out["elastic.migrated_keys"] = migrated
    return out


# ------------------------------------------------------- workload and core


def _noop(item):
    return item


def probe_sweep(seed: int, scale: float) -> dict:
    """Datagen, querygen, the runner's cells and the process pool."""
    out = {}
    rng = np.random.default_rng(workloads.CATALOG_SEED)
    per_width = {}
    for width in (3, 15):
        spec = random_stream_spec(
            f"w{width}", rng, ParameterSpace(tuple_widths=(width,)),
            event_rate=1000.0,
        )
        generate = spec.generator()
        draws = np.random.default_rng(seed)
        n = max(int(60_000 * scale / width), 1000)
        start = time.perf_counter()
        for i in range(n):
            generate(draws, i * 1e-3)
        per_width[width] = (time.perf_counter() - start) / n * 1e9
        out[f"workload.datagen.ns_per_tuple.w{width}"] = per_width[width]

    cluster = homogeneous_cluster("m510", 10)
    generator = WorkloadGenerator(seed=workloads.CATALOG_SEED)
    count = max(int(40 * scale), 9)
    start = time.perf_counter()
    generator.generate(cluster, count)
    out["workload.querygen.ms_per_query"] = (
        (time.perf_counter() - start) / count * 1e3
    )
    out["workload.generator.rejected_share"] = generator.rejected_total / (
        count + generator.rejected_total
    )

    sweep = workloads.SynthSweep(seed, scale)
    tracer = Tracer()
    records = [guarded(job, tracer) for job in sweep.jobs()]
    failed = [rec["error"] for rec in records if not rec["ok"]]
    assert not failed, failed
    roots = [
        span.duration
        for span in tracer.spans
        if span.name == "harness" and span.job != "generate"
    ]
    out["core.runner.cell_ms_p50"] = statistics.median(roots) * 1e3
    layers = layers_table(tracer.spans)
    # The stepwise cell calls from_logical and place once more than
    # measure() does; leave that out of both sides.
    extra = (
        layers["sps.physical.from_logical"]["self_s"]
        + layers["sps.placement.place"]["self_s"]
    )
    wall = sum(roots) - extra
    running = sum(
        span.duration
        for span in tracer.spans
        if span.name == "sps.engine.run"
    )
    out["core.runner.overhead_share"] = (wall - running) / wall

    def slope(width: int) -> float:
        return per_width[3] + (per_width[15] - per_width[3]) * (
            width - 3
        ) / 12.0

    cells = len(sweep.categories) * sweep.config.repeats
    datagen_s = sum(
        sweep.TUPLES * cells * slope(stream.tuple_width) * 1e-9
        for query in sweep.queries
        for stream in query.streams
    )
    out["workload.datagen.share"] = datagen_s / sum(roots)

    out["core.parallel.map_overhead_ms"] = (
        _median_of(
            lambda: ParallelRunner(workers=2).map(_noop, list(range(8)))
        )
        * 1e3
    )
    plans = [query.plan for query in sweep.queries[:2]]
    items = [
        (plan, degree) for plan in plans for degree in (1, 2, 4, 8)
    ]

    def cell(item):
        plan, degree = item
        plan.set_uniform_parallelism(degree)
        return sweep.runner.measure(plan)["mean_median_latency_s"]

    walls = {}
    results = {}
    for workers in (1, 2):
        start = time.perf_counter()
        results[workers] = ParallelRunner(workers=workers).map(cell, items)
        walls[workers] = time.perf_counter() - start
    assert results[1] == results[2], "workers=2 changed the sweep results"
    out["core.parallel.sweep_speedup_w2"] = walls[1] / walls[2]
    return out


# ------------------------------------------------- storage, analytic, ml


def probe_ml(seed: int, scale: float) -> dict:
    """One traced cost-model pass at reduced size, read per layer."""
    out = {}
    model = workloads.CostModel(seed, 0.4 * scale)
    tracer = Tracer()
    try:
        records = {
            job.name: guarded(job, tracer) for job in model.jobs()
        }
        failed = [r["error"] for r in records.values() if not r["ok"]]
        assert not failed, failed
        layers = layers_table(tracer.spans)
        inserted = next(
            span
            for span in tracer.spans
            if span.name == "storage.insert"
            and span.job == "build-corpus"
        )
        docs = inserted.counts["docs"]
        out["storage.insert_us_per_doc"] = inserted.duration / docs * 1e6
        out["storage.find_us_per_doc"] = (
            layers["storage.find"]["self_s"] / docs * 1e6
        )
        start = time.perf_counter()
        reloaded = DocumentStore(model.store_dir)["corpus"].count()
        assert reloaded == docs, (reloaded, docs)
        out["storage.reload_ms_per_1k"] = (
            (time.perf_counter() - start) / docs * 1e6
        )
        out["sps.analytic.us_per_estimate"] = (
            layers["sps.analytic.estimate"]["self_s"] / docs * 1e6
        )
        out["ml.encoding.us_per_query"] = (
            layers["ml.encode"]["self_s"] / docs * 1e6
        )
        for name in ("LR", "MLP", "RF", "GNN"):
            out[f"ml.fit_s.{name}"] = layers[f"ml.fit.{name}"]["self_s"]
        out["ml.gnn.ms_per_epoch"] = (
            layers["ml.fit.GNN"]["self_s"]
            / layers["ml.fit.GNN"]["epochs"]
            * 1e3
        )
        gnn = model.bench.ml_manager.model("GNN")
        out["ml.predict_us_per_query.GNN"] = (
            _median_of(lambda: gnn.predict(model.loaded))
            / len(model.loaded)
            * 1e6
        )
        medians = records["train-models"]["outcome"].keep["qerror"]
        for name, median in medians.items():
            out[f"ml.qerror_median.{name}"] = median
    finally:
        model.close()
    return out


# -------------------------------------------------------------- cli, repo


def probe_cli(seed: int, scale: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)

    def launch(*args):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, *args],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=60,
        )
        return time.perf_counter() - start

    return {
        "cli.import_s": launch("-c", "import repro.cli"),
        "cli.list_apps_s": launch("-m", "repro", "list-apps"),
        "repo.src_loc": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in SRC_ROOT.rglob("*.py")
        ),
    }


PROBES = {
    "kernel": probe_kernel,
    "sps.engine": probe_engine,
    "sps.operators": probe_operators,
    "sps.batch": probe_batch,
    "sps.shard_exec": probe_shards,
    "ft": probe_ft,
    "core": probe_sweep,
    "ml": probe_ml,
    "cli": probe_cli,
}


def run_probes(seed: int, scale: float = 1.0) -> dict:
    """Run every probe group under the job guard.

    Returns ``{"metrics", "seconds", "attempted", "failed",
    "failures"}``; a group that fails contributes no metrics.
    """
    metrics: dict[str, float] = {}
    seconds = {}
    failures = []
    for name, probe in PROBES.items():
        job = workloads.Job(
            f"probe.{name}",
            lambda tracer, probe=probe: probe(seed, scale),
        )
        rec = guarded(job, deadline=60.0)
        seconds[name] = rec["seconds"]
        if rec["ok"]:
            metrics.update(rec["outcome"])
        else:
            failures.append({"job": rec["name"], "error": rec["error"]})
    if "_engine_events" in metrics and "kernel.core.ns_per_event" in metrics:
        metrics["kernel.core.share"] = (
            metrics["kernel.core.ns_per_event"]
            * 1e-9
            * metrics.pop("_engine_events")
            / metrics.pop("_engine_wall")
        )
    return {
        "metrics": metrics,
        "seconds": seconds,
        "attempted": len(PROBES),
        "failed": len(failures),
        "failures": failures,
    }
