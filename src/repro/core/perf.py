"""Engine-stress plans and the host-speed probe of the repo benchmark.

``benchmarks/suite`` (the one perf ruler, see its README) builds its
engine workloads from these plans and stamps every result file with
:func:`calibration_details`; the tier-1 tests pin the plans' event
counts and results (``tests/test_engine_counts.py``).

Plans: ``hotpath`` is a synthetic engine-dominated plan (cheap operator
logic, keyed shuffle, windowed aggregation) that isolates the event
loop itself; ``slide8`` stresses sliding-window aggregation with an 8x
overlap (every tuple belongs to 8 windows — the case slice-based
aggregation turns from O(overlap) into O(1) per tuple); ``join8`` is a
match-heavy sliding-window join (4x overlap on both probe sides).
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

from repro.sps import builders
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
    "hotpath_plan",
    "slide8_plan",
    "join8_plan",
    "calibration_details",
]

_BENCH_PARALLELISM = 4

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
    forward and one hash exchange) and window bookkeeping.  Sharded runs
    raise ``event_rate`` so conservative epochs (one network base latency
    wide) each contain thousands of events.
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


def calibration_details(
    iterations: int = 300_000, probes: int = 3
) -> dict:
    """Median and spread of a fixed pure-Python heap workload, kops/s.

    A host-speed proxy recorded beside every benchmark result. The
    median of three probes keeps a scheduler hiccup during one probe
    from moving the score; the spread (max - min) flags a noisy host
    whose numbers deserve suspicion.
    """
    scores = sorted(_calibration_probe(iterations) for _ in range(probes))
    return {
        "kops": scores[len(scores) // 2],
        "spread_kops": round(scores[-1] - scores[0], 1),
        "probes": scores,
    }
