#!/usr/bin/env python
"""Batch-size × throughput/latency sweep — standalone entry point.

Runs the ``hotpath`` and ``WC`` engine workloads under the scalar event
loop and under the columnar micro-batch executor at a ladder of batch
sizes, printing simulator events/sec (wall-clock cost of simulating)
against the simulated mean end-to-end latency (micro-batching trades
latency for throughput: tuples wait for their batch).

    python benchmarks/bench_batch_sweep.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import homogeneous_cluster  # noqa: E402
from repro.common.rng import RngFactory  # noqa: E402
from repro.core.perf import hotpath_plan  # noqa: E402
from repro.core.runner import BenchmarkRunner, RunnerConfig  # noqa: E402
from repro.sps.engine import SimulationConfig, StreamEngine  # noqa: E402

SEED = 17


def run_batch_sweep(
    quick: bool = False,
    workloads: tuple[str, ...] = ("hotpath", "WC"),
    batch_sizes: tuple[int, ...] = (1, 16, 64, 256, 1024),
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
    runner = BenchmarkRunner(cluster, RunnerConfig(dilation=25.0))
    sweep: dict[str, list[dict]] = {}
    for name in workloads:
        if name == "hotpath":
            plan = hotpath_plan()
        else:
            plan = runner.prepare_app(name, 4).plan
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
                    plan, cluster, config=sim, rng_factory=RngFactory(SEED)
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    sweep = run_batch_sweep(quick=args.quick)
    for name, rows in sweep.items():
        print(f"{name}: batch size vs throughput / simulated latency")
        for row in rows:
            label = (
                "scalar"
                if row["batch_size"] is None
                else f"b={row['batch_size']}"
            )
            print(
                f"  {label:>7s}  {row['events_per_sec']:>12,.0f} ev/s"
                f"  latency {row['latency_mean_ms']:>9.3f} ms"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
