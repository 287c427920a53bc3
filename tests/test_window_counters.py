"""Pinned per-app window counters across the full app registry.

PR 5 rewrote the window operators around slice-based incremental
aggregation and heap-scheduled firing with a *bit-identical* contract:
every application plan must fire exactly the same windows and emit
exactly the same join matches as the per-window buffering
implementation it replaced. This pins ``windows_fired`` /
``matches_emitted`` (plus events and results) for all 14 registered
apps at a fixed configuration, so any semantic drift in windowing shows
up as a counter change even in apps the golden suite does not cover.

Recapture recipe (only for *intentional* semantic changes): run each
app through ``BenchmarkRunner.prepare_app(abbrev, 2)`` on a 4-node m510
cluster and a ``StreamEngine`` with ``SimulationConfig(1200, 3.0)`` and
``RngFactory(11)``, then sum the counters over all runtimes (including
chained ``.logics`` members).

Note: the SA pin reflects the deterministic word-table fix in
:mod:`repro.apps.sentiment` (sorted sentiment vocabularies); before it,
SA's tweet stream varied with ``PYTHONHASHSEED``.

Recaptured for the universe merge (DESIGN.md §14): arrival times now
come from per-subtask streams, so which tuples share a window moved for
some apps, and event counts fell everywhere (no BEGIN events). And again
when the applications' sources became block samplers (DESIGN.md §1):
the same distributions drawn in another order, so every app's tuples —
not their arrival times — changed; event counts moved by under 1 %, the
rare-event apps' result counts (FD, MO, SD) by their sampling noise.
And in the event counts alone when these runs began computing
completions instead of scheduling them (DESIGN.md §14, "Completions are
computed"): one event per tuple-hop, the other three columns untouched.
And again, event counts alone, when their sources began emitting
``SOURCE_CHUNK`` arrivals per event ("Arrivals are computed"): 1 162
fewer per source operator (two subtasks of 600 tuples, 19 events each).
"""

from __future__ import annotations

import repro.apps as apps
from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.sps.engine import SimulationConfig, StreamEngine

#: abbrev -> (events_processed, results, windows_fired, matches_emitted)
PINNED = {
    "AD": (2977, 42, 42, 431),
    "BI": (5030, 841, 307, 1400),
    "CA": (2652, 202, 202, 0),
    "FD": (2023, 38, 0, 0),
    "LP": (3398, 6, 6, 0),
    "LR": (1661, 45, 376, 0),
    "MO": (2440, 1, 0, 0),
    "SA": (2860, 406, 406, 0),
    "SD": (1250, 11, 0, 0),
    "SG": (1971, 306, 0, 0),
    "TM": (4389, 60, 1288, 0),
    "TPCH": (3080, 4, 4, 0),
    "TQ": (4868, 40, 2374, 0),
    "WC": (9081, 26, 26, 0),
}


def _logic_counters(engine: StreamEngine) -> tuple[int, int]:
    fired = 0
    matched = 0
    for runtime in engine._runtimes:
        logic = runtime.logic
        members = getattr(logic, "logics", None) or (logic,)
        for member in members:
            fired += getattr(member, "windows_fired", 0)
            matched += getattr(member, "matches_emitted", 0)
    return fired, matched


def test_registry_is_fully_pinned():
    assert sorted(apps.REGISTRY) == sorted(PINNED)


def test_window_counters_match_pins():
    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(
        cluster,
        RunnerConfig(
            repeats=1,
            dilation=25.0,
            max_tuples_per_source=1200,
            max_sim_time=3.0,
            seed=11,
        ),
    )
    mismatches = []
    for abbrev in sorted(PINNED):
        query = runner.prepare_app(abbrev, 2)
        engine = StreamEngine(
            query.plan,
            cluster,
            config=SimulationConfig(
                max_tuples_per_source=1200, max_sim_time=3.0
            ),
            rng_factory=RngFactory(11),
        )
        metrics = engine.run()
        fired, matched = _logic_counters(engine)
        got = (
            metrics.extras["events_processed"],
            metrics.results,
            fired,
            matched,
        )
        if got != PINNED[abbrev]:
            mismatches.append((abbrev, got, PINNED[abbrev]))
    assert not mismatches, mismatches
