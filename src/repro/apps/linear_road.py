"""Linear Road (LR) — the classic stream benchmark's toll pipeline.

Table 2: variable tolling on a simulated expressway [4]. We implement the
toll-notification core: per-segment average speeds over tumbling windows
feed a toll computation; congested segments (low average speed) produce
toll notifications. Dataflow::

    position reports -> map(segment key) ->
    window avg(speed) per (xway, segment) -> UDO(toll) -> sink

Operators are standard except the cheap toll formula — the paper groups LR
with WC as standard-operator apps with consistent performance (O1).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, block_source
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows

__all__ = ["INFO", "build", "TollLogic"]

INFO = AppInfo(
    abbrev="LR",
    name="Linear Road",
    area="Transportation",
    description="Variable tolling: per-segment average speeds trigger "
    "toll notifications for congested segments",
    uses_udo=True,
    data_intensity=DataIntensity.LOW,
    origin="Linear Road benchmark [4]",
)

_NUM_XWAYS = 4
_NUM_SEGMENTS = 100

_SCHEMA = Schema(
    [
        Field("segment_key", DataType.INT),
        Field("vehicle_id", DataType.INT),
        Field("speed", DataType.DOUBLE),
    ]
)


def _report_block(rng: np.random.Generator, n: int) -> tuple:
    xway = rng.integers(_NUM_XWAYS, size=n)
    segment = rng.integers(_NUM_SEGMENTS, size=n)
    vehicle = rng.integers(100_000, size=n)
    # A band of segments is chronically congested.
    congested = (40 <= segment) & (segment < 50)
    mean_speed = np.where(congested, 12.0, 28.0)
    speed = np.maximum(rng.normal(mean_speed, 5.0), 0.0)
    return (xway * _NUM_SEGMENTS + segment, vehicle, speed)


class TollLogic(OperatorLogic):
    """LR toll formula: ``toll = 2 * (40 - avg_speed)^2 / 100`` when the

    segment's average speed drops below 40 (here: below the congestion
    threshold scaled to our speed units). Consumes ``(segment, avg_speed)``
    window aggregates; emits ``(segment, toll)`` for congested segments.
    """

    threshold = 20.0

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        segment, avg_speed = tup.values
        if avg_speed >= self.threshold:
            return []
        toll = 2.0 * (self.threshold - avg_speed) ** 2 / 100.0
        return [tup.with_values((segment, toll))]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the LR dataflow at parallelism 1."""
    plan = LogicalPlan("LR")
    plan.add_operator(
        block_source("reports", _report_block, _SCHEMA, event_rate)
    )
    avg_speed = builders.window_agg(
        "segment_speed",
        TumblingTimeWindows(0.5),
        AggregateFunction.AVG,
        value_field=2,
        key_field=0,
        selectivity=0.02,
    )
    avg_speed.metadata["key_cardinality"] = _NUM_XWAYS * _NUM_SEGMENTS
    plan.add_operator(avg_speed)
    toll = builders.udo(
        "toll",
        TollLogic,
        selectivity=0.12,
        cost_scale=0.1,  # the toll formula is trivial arithmetic
        name="toll notification",
        output_schema=Schema(
            [
                Field("segment", DataType.INT),
                Field("toll", DataType.DOUBLE),
            ]
        ),
    )
    toll.metadata["key_cardinality"] = _NUM_XWAYS * _NUM_SEGMENTS
    plan.add_operator(toll)
    plan.add_operator(builders.sink("sink"))
    plan.connect("reports", "segment_speed")
    plan.connect("segment_speed", "toll")
    plan.connect("toll", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
