"""Event-time windows with watermarks — production streaming semantics.

Results are computed over source timestamps, tolerating the reorder
introduced by queueing and the network. The example measures how the
watermark bound trades completeness (late drops) against result
latency.

Run:  python examples/event_time.py
"""

from repro import SimulationConfig, StreamEngine, homogeneous_cluster
from repro.common.rng import RngFactory
from repro.report import render_table
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.event_aggregate import (
    EventTimeWindowAggregateLogic,
)
from repro.sps.operators.udo import FunctionUDO
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows
from repro.workload.datagen import kv_block

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def source(rate: float):
    """20 keys, uniform values, drawn a block at a time."""
    return builders.source(
        "src", None, SCHEMA, rate, vector_generator=kv_block(20)
    )


def event_time_demo() -> None:
    print("Event-time windows: watermark bound vs late drops\n")
    rows = []
    for bound_ms in (1.0, 5.0, 25.0):
        plan = LogicalPlan("event-time-demo")
        plan.add_operator(source(4000.0))
        # Disorder comes from parallelism: three loaded instances with
        # noisy service times reorder tuples at the merge into the
        # window operator (a single FIFO stage would preserve order).
        plan.add_operator(
            builders.udo(
                "work",
                lambda: FunctionUDO(lambda state, t, now: [t]),
                parallelism=3,
                cost_scale=16.5,
            )
        )
        plan.add_operator(
            builders.event_window_agg(
                "agg",
                TumblingTimeWindows(0.1),
                AggregateFunction.COUNT,
                value_field=1,
                key_field=0,
                max_out_of_orderness=bound_ms * 1e-3,
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "work")
        plan.connect("work", "agg")
        plan.connect("agg", "sink")
        engine = StreamEngine(
            plan,
            homogeneous_cluster(num_nodes=4),
            config=SimulationConfig(
                max_tuples_per_source=6000, max_sim_time=4.0
            ),
            rng_factory=RngFactory(11),
        )
        metrics = engine.run()
        late = sum(
            rt.logic.late_dropped
            for rt in engine._runtimes
            if isinstance(rt.logic, EventTimeWindowAggregateLogic)
        )
        rows.append(
            [bound_ms, metrics.median_latency_ms, late, metrics.results]
        )
    print(
        render_table(
            ["watermark bound (ms)", "median latency (ms)",
             "late drops", "results"],
            rows,
            title="tighter watermark = fresher results, more late drops",
        )
    )


if __name__ == "__main__":
    event_time_demo()
