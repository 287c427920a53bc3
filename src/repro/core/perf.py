"""Tracked performance harness for the simulation engine.

The discrete-event engine is the hot path of every benchmark campaign, so
its throughput (simulator events per wall-clock second) is tracked like
any other regression surface:

- ``repro bench`` (or ``benchmarks/bench_engine_hotpath.py``) measures a
  fixed set of workloads on fixed seeds and prints events/sec;
- ``--write`` records the numbers in ``BENCH_engine.json`` at the repo
  root (the file also keeps the pre-optimization baseline for context);
- ``--check`` compares a fresh measurement against the committed numbers
  and fails when throughput drops more than ``TOLERANCE`` below them —
  the CI perf smoke job runs ``repro bench --quick --check``.

**Cross-machine scaling.** Absolute events/sec depends on the host, so
the committed file stores a *calibration score* — the throughput of a
fixed pure-Python heap workload measured on the machine that wrote the
file. At check time the score is re-measured and the committed reference
is scaled by the ratio, which keeps the 30% gate meaningful on hosts
slower or faster than the one that produced the baseline.

Workloads: ``hotpath`` is a synthetic engine-dominated plan (cheap
operator logic, keyed shuffle, windowed aggregation) that isolates the
event loop itself; ``slide8`` stresses sliding-window aggregation with
an 8x overlap (every tuple belongs to 8 windows — the case slice-based
aggregation turns from O(overlap) into O(1) per tuple); ``join8`` is a
match-heavy sliding-window join (4x overlap on both probe sides);
``WC``/``SG``/``AD`` exercise the real applications (word count, smart
grid, ad analytics) whose operator logic shares the budget with the
engine; ``hotpath-b256``/``WC-b256`` run the first and fourth of those
under the columnar micro-batch executor (``SimulationConfig.batch_size``,
see :mod:`repro.sps.batch`) — the ≥1M events/sec fast path, gated by the
same tolerance.  :func:`run_batch_sweep` additionally captures the batch
size × throughput/latency trade-off
(``benchmarks/bench_batch_sweep.py``).
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from pathlib import Path

from repro.cluster.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core.parallel import default_workers
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import (
    AggregateFunction,
    SlidingTimeWindows,
    TumblingTimeWindows,
)
from repro.workload.datagen import kv_block

__all__ = [
    "ENGINE_WORKLOADS",
    "TOLERANCE",
    "WorkloadTimeout",
    "hotpath_plan",
    "slide8_plan",
    "join8_plan",
    "run_engine_bench",
    "run_batch_sweep",
    "run_sweep_bench",
    "calibration_score",
    "calibration_details",
    "run_shard_identity",
    "run_bench",
]

#: Default location of the committed numbers, relative to the repo root.
DEFAULT_REPORT = "BENCH_engine.json"

#: Relative throughput drop that fails ``--check``.
TOLERANCE = 0.30

#: Workloads of the engine benchmark, in report order.  The ``-b<N>``
#: suffixed entries run the same plan under the columnar micro-batch
#: executor with that batch size (the ≥1M ev/s tentpole targets); the
#: ``-ckpt`` suffix runs the plan with aligned-barrier checkpointing on
#: (interval ``_CKPT_INTERVAL``), so the gate also covers the
#: fault-tolerance control plane's simulator overhead.
ENGINE_WORKLOADS = (
    "hotpath",
    "slide8",
    "join8",
    "WC",
    "SG",
    "AD",
    "hotpath-b256",
    "WC-b256",
    "hotpath-ckpt",
    "hotpath-s4",
    "WC-s4",
)

_BENCH_SEED = 17
_BENCH_PARALLELISM = 4
_BENCH_DILATION = 25.0

#: Sharded ``-s<K>`` workload shape (DESIGN.md §14): a cloud-style
#: network whose base latency is the conservative lookahead — wide
#: enough that each epoch holds thousands of events — a source rate
#: that saturates those epochs, and a larger tuple budget so the run
#: spans enough epochs to amortise per-epoch synchronisation.
_SHARD_RATE = 800_000.0
_SHARD_LATENCY_S = 2e-3
_SHARD_TUPLES_SCALE = 4

#: Checkpoint cadence of the ``-ckpt`` workloads: short enough that a
#: quick run completes several checkpoints, long enough that barriers
#: finish aligning between triggers on the trivial-cost hotpath plan.
_CKPT_INTERVAL = 0.05

_KV_SCHEMA = Schema(
    [Field("k", DataType.INT), Field("v", DataType.DOUBLE)]
)


def hotpath_plan(
    parallelism: int = _BENCH_PARALLELISM,
    event_rate: float = 4000.0,
) -> LogicalPlan:
    """A synthetic engine-stress plan: source -> filter -> keyed agg -> sink.

    Operator logic is deliberately trivial, so nearly all wall-clock goes
    to the engine itself — arrival scheduling, queueing, routing (one
    forward and one hash exchange) and window bookkeeping.  The sharded
    ``-s<K>`` workloads raise ``event_rate`` so conservative epochs (one
    network base latency wide) each contain thousands of events.
    """
    plan = LogicalPlan("bench-hotpath")
    plan.add_operator(
        builders.source(
            "src", None, _KV_SCHEMA, event_rate=event_rate,
            parallelism=parallelism, vector_generator=kv_block(64),
        )
    )
    plan.add_operator(
        builders.filter_op(
            "flt",
            Predicate(1, FilterFunction.GT, 0.5, selectivity_hint=0.5),
            parallelism=parallelism,
        )
    )
    plan.add_operator(
        builders.window_agg(
            "agg",
            TumblingTimeWindows(0.05),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "flt")
    plan.connect("flt", "agg")
    plan.connect("agg", "sink")
    return plan


def slide8_plan(parallelism: int = _BENCH_PARALLELISM) -> LogicalPlan:
    """Sliding-window-heavy plan: every tuple lands in 8 windows.

    400ms windows sliding by 50ms — the overlap the slice-based
    aggregate collapses to one accumulator update per tuple.
    """
    plan = LogicalPlan("bench-sliding")
    plan.add_operator(
        builders.source(
            "src", None, _KV_SCHEMA, event_rate=4000.0,
            parallelism=parallelism, vector_generator=kv_block(64),
        )
    )
    plan.add_operator(
        builders.window_agg(
            "agg",
            SlidingTimeWindows(0.4, 0.05),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "agg")
    plan.connect("agg", "sink")
    return plan


def join8_plan(parallelism: int = _BENCH_PARALLELISM) -> LogicalPlan:
    """Join-heavy plan: sliding windows overlap 4x on both probe sides."""
    plan = LogicalPlan("bench-join")
    plan.add_operator(
        builders.source(
            "lhs", None, _KV_SCHEMA, event_rate=2000.0,
            parallelism=parallelism, vector_generator=kv_block(64),
        )
    )
    plan.add_operator(
        builders.source(
            "rhs", None, _KV_SCHEMA, event_rate=2000.0,
            parallelism=parallelism, vector_generator=kv_block(64),
        )
    )
    plan.add_operator(
        builders.window_join(
            "join",
            SlidingTimeWindows(0.2, 0.05),
            left_key_field=0,
            right_key_field=0,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("lhs", "join", port=0)
    plan.connect("rhs", "join", port=1)
    plan.connect("join", "sink")
    return plan


class WorkloadTimeout(RuntimeError):
    """A benchmark workload exceeded its wall-clock budget.

    Raised by :func:`_deadline`; the message names the workload so a CI
    log shows *which* plan hung rather than just a job-level timeout.
    """


@contextmanager
def _deadline(name: str, seconds: float | None):
    """Per-workload wall-clock guard; fails with the workload's name.

    Implemented with ``SIGALRM`` (main thread, POSIX); where the signal
    is unavailable — or ``seconds`` is ``None`` — the guard is a no-op,
    so the bench still runs everywhere the engine does.
    """
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _expired(signum, frame):
        raise WorkloadTimeout(
            f"workload {name!r} exceeded {seconds:g}s wall-clock"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _measure(
    plan,
    cluster,
    tuples: int,
    rounds: int,
    batch_size: int | None = None,
    checkpoint_interval: float | None = None,
    shards: int | None = None,
) -> dict:
    """Best-of-``rounds`` events/sec of one plan on fixed seeds."""
    sim = SimulationConfig(
        max_tuples_per_source=tuples,
        max_sim_time=8.0,
        batch_size=batch_size,
        checkpoint_interval=checkpoint_interval,
        shards=shards,
    )
    best = 0.0
    events = 0
    for _ in range(rounds):
        engine = StreamEngine(
            plan, cluster, config=sim,
            rng_factory=RngFactory(_BENCH_SEED),
        )
        start = time.perf_counter()
        metrics = engine.run()
        elapsed = time.perf_counter() - start
        events = metrics.extras["events_processed"]
        best = max(best, events / elapsed)
    return {
        "events_per_sec": round(best, 1),
        "events": int(events),
        # which step popped them: a computed run pops one event per
        # delivered tuple-hop, an evented run two (None: batch)
        "step": engine.step,
    }


def _parse_workload(
    name: str,
) -> tuple[str, int | None, float | None, int | None]:
    """Split a workload name into (base, batch, checkpoint, shards).

    ``"WC-b256"`` becomes ``("WC", 256, None, None)``,
    ``"hotpath-ckpt"`` becomes ``("hotpath", None, _CKPT_INTERVAL,
    None)``, ``"hotpath-s4"`` becomes ``("hotpath", None, None, 4)``;
    plain names pass through unchanged.
    """
    checkpoint = None
    if name.endswith("-ckpt"):
        name = name[: -len("-ckpt")]
        checkpoint = _CKPT_INTERVAL
    base, sep, suffix = name.rpartition("-s")
    if sep and suffix.isdigit():
        return base, None, checkpoint, int(suffix)
    base, sep, suffix = name.rpartition("-b")
    if sep and suffix.isdigit():
        return base, int(suffix), checkpoint, None
    return name, None, checkpoint, None


def _shard_cluster():
    """The cluster of the ``-s<K>`` workloads: cloud-style latency."""
    from repro.cluster.network import NetworkSpec

    return homogeneous_cluster(
        "m510",
        _BENCH_PARALLELISM,
        network_spec=NetworkSpec(base_latency_s=_SHARD_LATENCY_S),
    )


def _build_workload(
    name: str,
    cluster,
    tuples: int,
    event_rate: float | None = None,
    dilation: float = _BENCH_DILATION,
):
    if name == "hotpath":
        if event_rate is not None:
            return hotpath_plan(event_rate=event_rate)
        return hotpath_plan()
    if name == "slide8":
        return slide8_plan()
    if name == "join8":
        return join8_plan()
    runner = BenchmarkRunner(
        cluster,
        RunnerConfig(
            repeats=1,
            dilation=dilation,
            max_tuples_per_source=tuples,
            max_sim_time=8.0,
            seed=_BENCH_SEED,
        ),
    )
    return runner.prepare_app(
        name, _BENCH_PARALLELISM, event_rate=event_rate or 100_000.0
    ).plan


def _available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def run_engine_bench(
    quick: bool = False,
    workloads=ENGINE_WORKLOADS,
    timeout: float | None = None,
) -> dict[str, dict]:
    """events/sec per workload; quick mode shrinks budgets for CI.

    ``timeout`` bounds each workload's wall-clock; exceeding it raises
    :class:`WorkloadTimeout` naming the offender.

    Sharded ``-s<K>`` workloads run the plan on the cloud-latency
    :func:`_shard_cluster` under ``SimulationConfig(shards=K)`` with
    forked shard processes, and additionally measure the identical
    plan/cluster serially, recording ``speedup_vs_serial`` and the
    host's usable core count — on a host with fewer than ``K`` cores
    the fork buys nothing by construction, so only the events/sec
    number (relative to this machine's committed baseline) gates.
    """
    tuples = 1500 if quick else 5000
    rounds = 2 if quick else 3
    cluster = homogeneous_cluster("m510", 4)
    results: dict[str, dict] = {}
    for name in workloads:
        with _deadline(name, timeout):
            base, batch_size, checkpoint, shards = _parse_workload(name)
            if shards is not None:
                w_cluster = _shard_cluster()
                w_tuples = tuples * _SHARD_TUPLES_SCALE
                plan = _build_workload(
                    base,
                    w_cluster,
                    w_tuples,
                    event_rate=_SHARD_RATE,
                    dilation=1.0,
                )
                result = _measure(
                    plan, w_cluster, w_tuples, rounds, shards=shards
                )
                serial = _measure(plan, w_cluster, w_tuples, rounds)
                # A ratio of wall-clock, not of events/sec: the serial
                # run computes its completions and pops half the events.
                result["speedup_vs_serial"] = round(
                    (serial["events"] / serial["events_per_sec"])
                    / (result["events"] / result["events_per_sec"]),
                    2,
                )
                result["cores"] = _available_cores()
                results[name] = result
                continue
            plan = _build_workload(base, cluster, tuples)
            results[name] = _measure(
                plan,
                cluster,
                tuples,
                rounds,
                batch_size=batch_size,
                checkpoint_interval=checkpoint,
            )
    return results


def run_batch_sweep(
    quick: bool = False,
    workloads: tuple[str, ...] = ("hotpath", "WC"),
    batch_sizes: tuple[int, ...] = (1, 16, 64, 256, 1024),
    timeout: float | None = None,
) -> dict[str, list[dict]]:
    """The batch-size × throughput/latency trade-off, per workload.

    For each workload the scalar engine (``batch=None``) and each batch
    size are measured on the same plan and seeds; rows report simulator
    events/sec (wall-clock cost) and the simulated mean end-to-end
    latency (batching adds simulated latency — tuples wait for their
    micro-batch — which is exactly the trade-off this sweep captures).
    """
    tuples = 1500 if quick else 5000
    rounds = 1 if quick else 2
    cluster = homogeneous_cluster("m510", 4)
    sweep: dict[str, list[dict]] = {}
    for name in workloads:
        with _deadline(f"batch-sweep:{name}", timeout):
            plan = _build_workload(name, cluster, tuples)
            rows: list[dict] = []
            for batch_size in (None, *batch_sizes):
                sim = SimulationConfig(
                    max_tuples_per_source=tuples,
                    max_sim_time=8.0,
                    batch_size=batch_size,
                )
                best = 0.0
                latency = 0.0
                for _ in range(rounds):
                    engine = StreamEngine(
                        plan, cluster, config=sim,
                        rng_factory=RngFactory(_BENCH_SEED),
                    )
                    start = time.perf_counter()
                    metrics = engine.run()
                    elapsed = time.perf_counter() - start
                    events = metrics.extras["events_processed"]
                    best = max(best, events / elapsed)
                    latency = metrics.latency.mean
                rows.append(
                    {
                        "batch_size": batch_size,
                        "events_per_sec": round(best, 1),
                        "latency_mean_ms": round(latency * 1000.0, 3),
                    }
                )
            sweep[name] = rows
    return sweep


def run_sweep_bench(
    quick: bool = False,
    workers: int | None = None,
    timeout: float | None = None,
) -> dict:
    """Wall-clock of a small app sweep, serial vs. fanned out.

    ``timeout`` bounds each of the two sweeps (serial, fanned-out)
    separately, like the per-workload guard in
    :func:`run_engine_bench`.  With one worker there is nothing to fan
    out: the sweep runs once and ``parallel_s``/``speedup`` are ``None``,
    not a second serial run's noise dressed up as a speedup.
    """
    workers = workers or default_workers()
    apps = ("WC",) if quick else ("WC", "SG")
    categories = (1, 2, 4)
    tuples = 600 if quick else 1500

    def sweep(num_workers: int) -> float:
        runner = BenchmarkRunner(
            homogeneous_cluster("m510", 4),
            RunnerConfig(
                repeats=2,
                dilation=_BENCH_DILATION,
                max_tuples_per_source=tuples,
                max_sim_time=6.0,
                seed=_BENCH_SEED,
                workers=num_workers,
            ),
        )
        start = time.perf_counter()
        for abbrev in apps:
            for parallelism in categories:
                runner.measure_app(abbrev, parallelism)
        return time.perf_counter() - start

    with _deadline("sweep-serial", timeout):
        serial_s = sweep(1)
    parallel_s = speedup = None
    if workers > 1:
        with _deadline("sweep-parallel", timeout):
            parallel_s = sweep(workers)
        speedup = round(serial_s / max(parallel_s, 1e-9), 2)
        parallel_s = round(parallel_s, 3)
    return {
        "cells": len(apps) * len(categories),
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": parallel_s,
        "speedup": speedup,
    }


def _calibration_probe(iterations: int) -> float:
    """One kops/s sample of the fixed heap workload."""
    heap: list = []
    start = time.perf_counter()
    for i in range(iterations):
        heappush(heap, ((i * 2654435761) & 1023, i))
        if i & 1:
            heappop(heap)
    elapsed = time.perf_counter() - start
    return round(iterations / elapsed / 1000.0, 1)


def calibration_score(
    iterations: int = 300_000, probes: int = 3
) -> float:
    """Median kops/s of ``probes`` heap-workload runs — host speed proxy.

    Used to scale the committed reference before comparing, so the
    regression gate transfers across machines of different speeds. The
    median of three probes (rather than a single one) keeps a scheduler
    hiccup during the probe from shifting every workload's floor.
    """
    return calibration_details(iterations, probes)["kops"]


def calibration_details(
    iterations: int = 300_000, probes: int = 3
) -> dict:
    """Median and spread of the calibration probes.

    The spread (max - min across probes) is recorded next to the score
    in the bench report; a wide spread flags a noisy host whose check
    results deserve suspicion.
    """
    scores = sorted(_calibration_probe(iterations) for _ in range(probes))
    return {
        "kops": scores[len(scores) // 2],
        "spread_kops": round(scores[-1] - scores[0], 1),
        "probes": scores,
    }


def run_shard_identity(
    shards: int = 2, quick: bool = True
) -> list[str]:
    """Bit-identity failure messages for sharded vs. serial execution.

    Runs the shard-shaped hotpath plan three ways — in a single
    in-process kernel (``shards=1``, the serial reference),
    in-process with ``shards=K``, and with ``K`` forked shard processes
    — and compares results, throughput, latency quantiles, event counts
    and the merged per-stream RNG ledgers. Any difference is a protocol
    or codec bug; CI runs this as part of the perf smoke lane.
    """
    cluster = _shard_cluster()
    plan = hotpath_plan(event_rate=_SHARD_RATE)
    tuples = 2000 if quick else 8000

    def signature(shard_count: int, force_inline: bool):
        sim = SimulationConfig(
            max_tuples_per_source=tuples,
            max_sim_time=8.0,
            shards=shard_count,
        )
        engine = StreamEngine(
            plan, cluster, config=sim,
            rng_factory=RngFactory(_BENCH_SEED),
        )
        engine.shard_force_inline = force_inline
        metrics = engine.run()
        return {
            "results": metrics.results,
            "source_events": metrics.source_events,
            "throughput": metrics.throughput,
            "latency_mean": metrics.latency.mean,
            "latency_p99": metrics.latency.p99,
            "sim_duration": metrics.sim_duration,
            "events": metrics.extras["events_processed"],
            "epochs": metrics.extras["shards"]["epochs"],
            "ledger": tuple(sorted(engine._shard_ledger.items())),
        }

    reference = signature(1, True)
    failures: list[str] = []
    for label, candidate in (
        (f"inline shards={shards}", signature(shards, True)),
        (f"forked shards={shards}", signature(shards, False)),
    ):
        for key, expected in reference.items():
            got = candidate[key]
            if got != expected:
                failures.append(
                    f"{label}: {key} diverged from the serial "
                    f"reference ({got!r} != {expected!r})"
                )
    return failures


def check_report(
    report: dict,
    results: dict[str, dict],
    mode: str,
    tolerance: float = TOLERANCE,
) -> list[str]:
    """Regression messages (empty = pass) vs. the committed numbers.

    Throughput may drop by ``tolerance``; the event count may not move
    at all — every workload is fixed-seed, so a different count means
    the simulated results drifted, whatever the speed.
    """
    committed = report.get(mode, {}).get("current")
    if not committed:
        return [f"no committed '{mode}' numbers to check against"]
    scale = 1.0
    recorded = report.get("calibration_kops")
    if recorded:
        scale = calibration_score() / float(recorded)
    failures = []
    for name, result in results.items():
        reference = committed.get(name)
        if reference is None:
            continue
        if result["events"] != reference["events"]:
            failures.append(
                f"{name}: processed {result['events']} events, the "
                f"committed {mode} run {reference['events']} — results "
                "drifted (fixed seed)"
            )
        expected = reference["events_per_sec"] * scale
        floor = expected * (1.0 - tolerance)
        if result["events_per_sec"] < floor:
            failures.append(
                f"{name}: {result['events_per_sec']:,.0f} ev/s is "
                f"{100 * (1 - result['events_per_sec'] / expected):.0f}% "
                f"below the committed {reference['events_per_sec']:,.0f} "
                f"(scaled to {expected:,.0f} for this host; "
                f"floor {floor:,.0f})"
            )
    return failures


def run_bench(
    quick: bool = False,
    check: bool = False,
    write: bool = False,
    report_path: str | Path = DEFAULT_REPORT,
    with_sweep: bool = True,
    timeout: float | None = None,
) -> int:
    """Measure, print, and optionally check or record. Returns exit code.

    ``timeout`` (seconds) arms a per-workload wall-clock guard; a
    workload exceeding it fails the bench, naming the workload.
    """
    mode = "quick" if quick else "full"
    try:
        results = run_engine_bench(quick=quick, timeout=timeout)
        print(f"engine benchmark ({mode}, seed {_BENCH_SEED}):")
        for name, result in results.items():
            extra = ""
            if "speedup_vs_serial" in result:
                extra = (
                    f"  [{result['speedup_vs_serial']}x vs serial, "
                    f"{result['cores']} core(s)]"
                )
            print(
                f"  {name:8s} {result['events_per_sec']:>12,.0f} ev/s"
                f"  ({result['events']} events, "
                f"{result['step'] or 'batch'}){extra}"
            )
        sweep = None
        if with_sweep:
            sweep = run_sweep_bench(quick=quick, timeout=timeout)
            fanned = (
                "n/a (1 worker)"
                if sweep["speedup"] is None
                else f"{sweep['workers']} workers {sweep['parallel_s']}s "
                f"({sweep['speedup']}x)"
            )
            print(
                f"sweep: {sweep['cells']} cells, "
                f"serial {sweep['serial_s']}s, {fanned}"
            )
    except WorkloadTimeout as exc:
        print(f"PERF CHECK FAILED: {exc}")
        return 1
    path = Path(report_path)
    report = {}
    report_error = None
    if path.exists():
        try:
            report = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            report_error = (
                f"benchmark report {path} is not valid JSON ({exc}); "
                "restore it from git or regenerate it with "
                "'repro bench --write'"
            )
        if not isinstance(report, dict):
            report_error = (
                f"benchmark report {path} must contain a JSON object, "
                f"got {type(report).__name__}; regenerate it with "
                "'repro bench --write'"
            )
            report = {}
    else:
        report_error = (
            f"benchmark report {path} does not exist; run "
            "'repro bench --write' to create it"
        )
    if check:
        if report_error is not None:
            print(f"PERF CHECK FAILED: {report_error}")
            return 1
        failures = check_report(report, results, mode)
        if failures:
            for message in failures:
                print(f"PERF REGRESSION: {message}")
            return 1
        print(f"perf check passed (tolerance {TOLERANCE:.0%})")
    if write:
        section = report.setdefault(mode, {})
        section["current"] = results
        calibration = calibration_details()
        report["calibration_kops"] = calibration["kops"]
        report["calibration_spread_kops"] = calibration["spread_kops"]
        if sweep is not None:
            report["sweep"] = sweep
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0
