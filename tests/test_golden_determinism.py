"""Golden determinism tests for the simulation engine.

The hot-path optimizations in :mod:`repro.sps.engine` (precompiled
routing tables, precomputed arrival state, the idle-server fast path)
must not change any simulated result. These tests pin that down three
ways:

1. running the same configuration twice yields *identical* metrics
   dictionaries (no hidden global state, no iteration-order dependence);
2. a set of hardcoded golden values still comes out, to 1e-9 relative
   precision (``GOLDEN`` was re-captured at the universe merge, and both
   sets when the applications' sources became block samplers);
3. the parallel fan-out returns exactly what the serial loop returns.

If an intentional semantic change (e.g. a new cost term) breaks the
golden values, re-capture them with the recipe in the comments below —
but never to paper over an unintended drift.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import NetworkSpec, homogeneous_cluster
from repro.core.runner import BenchmarkRunner, RunnerConfig

#: The apps pinned by the goldens: WC exercises keyed aggregation over a
#: hash shuffle, SG a UDO pipeline, AD a windowed join with broadcast.
GOLDEN_APPS = ("WC", "SG", "AD")

#: Recipe: runner config of the golden capture. Any change here
#: invalidates the GOLDEN fixture below.
GOLDEN_CONFIG = dict(
    repeats=2,
    dilation=25.0,
    max_tuples_per_source=1200,
    max_sim_time=3.0,
    seed=11,
)
GOLDEN_PARALLELISM = 2

#: Per-app, per-repeat (events_processed, results, mean latency s) at
#: the config above on a 4-node m510 cluster. Re-captured twice: when
#: the default path adopted per-subtask arrival/noise streams and
#: producer-local tie-breaks (DESIGN.md §14, "what moved and why"), and
#: when the applications' sources became block samplers (DESIGN.md §1,
#: "chunk layout of an application stream") — the tuples' values are
#: drawn in another order from the same distributions, so results and
#: latencies moved and event counts stayed within 2 %; arrival times,
#: service noise and tie-breaks did not move. The event counts alone
#: were re-captured a third time when these runs — plain, so eligible —
#: began computing completions instead of scheduling them (DESIGN.md
#: §14, "Completions are computed"): a hop is one event, not two. And a
#: fourth when their sources began emitting ``SOURCE_CHUNK`` arrivals per
#: event ("Arrivals are computed"): 1 162 fewer per 1 200-tuple source.
GOLDEN = {
    "WC": [
        (9131, 26, 0.3294078433096102),
        (9096, 26, 0.3000898370455181),
    ],
    "SG": [
        (1909, 275, 5.327464791665105),
        (1949, 295, 5.36150175574493),
    ],
    "AD": [
        (2971, 41, 0.2610701539584149),
        (2999, 42, 0.2638424031585989),
    ],
}

#: The same recipe under ``shards=K`` on the 2 ms cluster the ``-s<K>``
#: bench workloads use (a wide lookahead keeps the epoch count small).
#: Per-app, per-repeat (events_processed, results, mean latency s,
#: epochs), re-captured with ``GOLDEN`` when the sources became block
#: samplers (until then the results and latencies were those of the
#: pre-unification ``ShardExecutor``). The K-invariance suite compares
#: sharded runs only with each other, so without these a refactor that
#: shifts every K alike would pass.
SHARD_GOLDEN = {
    "WC": [
        (20582, 26, 0.33692417342333997, 166),
        (20512, 26, 0.30616274977135344, 151),
    ],
    "SG": [
        (6140, 275, 5.333164791665106, 1786),
        (6220, 295, 5.36720175574493, 1792),
    ],
    "AD": [
        (10580, 41, 0.2833085753493516, 434),
        (10634, 42, 0.2657424031585989, 418),
    ],
}


def _run_all(
    workers: int = 1, shards: int | None = None
) -> dict[str, list[dict]]:
    network = None if shards is None else NetworkSpec(base_latency_s=2e-3)
    cluster = homogeneous_cluster("m510", 4, network_spec=network)
    runner = BenchmarkRunner(
        cluster,
        RunnerConfig(**GOLDEN_CONFIG, workers=workers, shards=shards),
    )
    out = {}
    for abbrev in GOLDEN_APPS:
        query = runner.prepare_app(abbrev, GOLDEN_PARALLELISM)
        out[abbrev] = [run.to_dict() for run in runner.run_plan(query.plan)]
    return out


def test_run_twice_is_bit_identical():
    first = _run_all()
    second = _run_all()
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_golden_values_hold():
    results = _run_all()
    for abbrev, repeats in GOLDEN.items():
        for i, (events, num_results, mean_latency) in enumerate(repeats):
            run = results[abbrev][i]
            assert run["extras"]["events_processed"] == events, (
                abbrev,
                i,
            )
            assert run["results"] == num_results, (abbrev, i)
            assert run["latency"]["mean"] == pytest.approx(
                mean_latency, rel=1e-9
            ), (abbrev, i)


@pytest.mark.parametrize("shards", [1, 2])
def test_shard_universe_golden_values_hold(shards):
    """``shards=1`` (one in-process kernel) and forked ``shards=2``
    both reproduce the recorded values."""
    results = _run_all(shards=shards)
    for abbrev, repeats in SHARD_GOLDEN.items():
        for i, (events, num_results, mean_latency, epochs) in enumerate(
            repeats
        ):
            run = results[abbrev][i]
            where = (abbrev, i, shards)
            assert run["extras"]["events_processed"] == events, where
            assert run["results"] == num_results, where
            assert run["latency"]["mean"] == pytest.approx(
                mean_latency, rel=1e-9
            ), where
            assert run["extras"]["shards"]["epochs"] == epochs, where


def test_parallel_fanout_matches_serial():
    serial = _run_all(workers=1)
    parallel = _run_all(workers=4)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )


#: The contract of ``extras["ft"]`` for checkpointed runs: exactly
#: these keys, in any order. Downstream consumers (exp5, the CI
#: recovery-smoke assertions, bench_ft_overhead) index into this dict,
#: so renaming or dropping a key is a breaking change this test pins.
FT_EXTRAS_KEYS = {
    "delivery",
    "checkpoint_interval",
    "checkpoints_completed",
    "checkpoints_skipped",
    "checkpoint_duration_mean_s",
    "state_items",
    "state_bytes",
    "recoveries",
    "recovery_time_s",
    "replayed_events",
    "duplicates_dropped",
    "duplicate_results",
    "lost_results",
    "log",
}

FT_LOG_ENTRY_KEYS = {
    "ckpt_id",
    "triggered_at",
    "duration_s",
    "state_items",
    "state_bytes",
}


def test_checkpointed_run_pins_ft_extras_schema():
    """A checkpointed golden-config run carries the pinned ft extras."""
    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(
        cluster,
        RunnerConfig(**{**GOLDEN_CONFIG, "repeats": 1}, checkpoint_ms=250.0),
    )
    query = runner.prepare_app("WC", GOLDEN_PARALLELISM)
    first = runner.run_plan(query.plan)[0].to_dict()
    second = runner.run_plan(query.plan)[0].to_dict()
    ft = first["extras"]["ft"]
    assert set(ft) == FT_EXTRAS_KEYS
    assert ft["delivery"] == "exactly_once"
    assert ft["checkpoints_completed"] >= 1
    assert ft["recoveries"] == 0
    for entry in ft["log"]:
        assert set(entry) == FT_LOG_ENTRY_KEYS
    assert json.dumps(first, sort_keys=True) == json.dumps(
        second, sort_keys=True
    )


def test_checkpointing_off_keeps_golden_values():
    """``checkpoint_ms=None`` must leave the golden runs bit-identical
    (the FT code paths are attribute-indirected away when off)."""
    cluster = homogeneous_cluster("m510", 4)
    baseline = BenchmarkRunner(cluster, RunnerConfig(**GOLDEN_CONFIG))
    explicit = BenchmarkRunner(
        cluster,
        RunnerConfig(
            **GOLDEN_CONFIG, checkpoint_ms=None, delivery="exactly_once"
        ),
    )
    query_a = baseline.prepare_app("WC", GOLDEN_PARALLELISM)
    query_b = explicit.prepare_app("WC", GOLDEN_PARALLELISM)
    runs_a = [r.to_dict() for r in baseline.run_plan(query_a.plan)]
    runs_b = [r.to_dict() for r in explicit.run_plan(query_b.plan)]
    assert json.dumps(runs_a, sort_keys=True) == json.dumps(
        runs_b, sort_keys=True
    )
