#!/usr/bin/env python
"""Checkpointing-overhead sweep — standalone entry point.

Runs the ``hotpath`` engine workload with aligned-barrier checkpointing
at a ladder of checkpoint intervals (plus a checkpointing-off baseline)
and prints simulator events/sec and the host wall-clock as a ratio of
the plain (checkpointing-off) run of the same job — the number the
suite records as ``ft.ckpt_overhead_ratio`` — next to the checkpoint
accounting from ``extras["ft"]``: how many checkpoints completed, the
snapshotted state size and the mean barrier round-trip.  Shorter
intervals mean more barrier traffic, more snapshots and more alignment
stalls, so throughput decays as the interval shrinks; this sweep makes
that control-plane cost visible (``benchmarks/suite`` times one point of
it as the ``ft-elastic`` workload's ``hotpath-ckpt`` job).

    python benchmarks/bench_ft_overhead.py [--quick]
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
from repro.sps.engine import SimulationConfig, StreamEngine  # noqa: E402

SEED = 17

#: Checkpoint intervals swept, seconds; ``None`` is the FT-off baseline.
INTERVALS: tuple[float | None, ...] = (None, 1.0, 0.5, 0.25, 0.1, 0.05)


def run_ft_overhead_sweep(quick: bool = False) -> list[dict]:
    """events/sec, wall-clock and checkpoint accounting per interval."""
    tuples = 1500 if quick else 5000
    rounds = 1 if quick else 2
    cluster = homogeneous_cluster("m510", 4)
    rows: list[dict] = []
    for interval in INTERVALS:
        sim = SimulationConfig(
            max_tuples_per_source=tuples,
            max_sim_time=8.0,
            checkpoint_interval=interval,
        )
        wall = float("inf")
        ft: dict = {}
        for _ in range(rounds):
            engine = StreamEngine(
                hotpath_plan(),
                cluster,
                config=sim,
                rng_factory=RngFactory(SEED),
            )
            start = time.perf_counter()
            metrics = engine.run()
            elapsed = time.perf_counter() - start
            events = metrics.extras["events_processed"]  # same each round
            wall = min(wall, elapsed)
            ft = metrics.extras.get("ft", {})
        rows.append(
            {
                "checkpoint_interval": interval,
                "events_per_sec": round(events / wall, 1),
                "wall_s": wall,
                "checkpoints_completed": ft.get("checkpoints_completed", 0),
                "state_bytes": ft.get("state_bytes", 0.0),
                "checkpoint_duration_mean_s": ft.get(
                    "checkpoint_duration_mean_s", 0.0
                ),
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    rows = run_ft_overhead_sweep(quick=args.quick)
    baseline = rows[0]["events_per_sec"]
    plain_wall = rows[0]["wall_s"]
    print("checkpoint interval vs simulator throughput (hotpath):")
    for row in rows:
        label = (
            "off"
            if row["checkpoint_interval"] is None
            else f"{1000.0 * row['checkpoint_interval']:.0f}ms"
        )
        print(
            f"  {label:>6s}  {row['events_per_sec']:>12,.0f} ev/s"
            f"  ({100.0 * row['events_per_sec'] / baseline:5.1f}%)"
            f"  wall {row['wall_s'] / plain_wall:4.2f}x plain"
            f"  ckpts {row['checkpoints_completed']:>3d}"
            f"  state {row['state_bytes']:>8,.0f} B"
            f"  rtt {1000.0 * row['checkpoint_duration_mean_s']:7.3f} ms"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
