"""Spike Detection (SD) — IoT sensor spike alerts.

From DSPBench/RIoTBench lineage: alert when a sensor's reading exceeds a
multiple of its own moving average. Dataflow::

    sensor readings -> UDO(per-sensor moving average + spike test) -> sink

The moving-average UDO keeps a per-sensor value history; the paper groups
SD with SG and SA as data-intensive apps whose latency keeps improving up
to parallelism 128 (O2).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, block_source
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema

__all__ = ["INFO", "build", "SpikeLogic"]

INFO = AppInfo(
    abbrev="SD",
    name="Spike Detection",
    area="IoT sensing",
    description="Alerts when a sensor reading exceeds 1.8x its own "
    "moving average",
    uses_udo=True,
    data_intensity=DataIntensity.HIGH,
    origin="DSPBench [13] / RIoTBench [52]",
)

_NUM_SENSORS = 128

_SCHEMA = Schema(
    [Field("sensor", DataType.INT), Field("value", DataType.DOUBLE)]
)


def _reading_block(rng: np.random.Generator, n: int) -> tuple:
    sensor = rng.integers(_NUM_SENSORS, size=n)
    value = np.maximum(rng.normal(20.0 + sensor % 10, 3.0), 0.0)
    # Genuine spikes: 2% of the readings, scaled 2-4x.
    value = np.where(
        rng.random(n) < 0.02, value * rng.uniform(2.0, 4.0, size=n), value
    )
    return (sensor, value)


class SpikeLogic(OperatorLogic):
    """Per-sensor moving average over the last ``window`` readings.

    Emits ``(sensor, value, moving_avg)`` when
    ``value > threshold * moving_avg``.
    """

    def __init__(self, window: int = 64, threshold: float = 1.8) -> None:
        self._history: dict[int, deque] = {}
        self._sums: dict[int, float] = {}
        self.window = window
        self.threshold = threshold

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        sensor, value = tup.values
        history = self._history.setdefault(sensor, deque())
        total = self._sums.get(sensor, 0.0)
        history.append(value)
        total += value
        if len(history) > self.window:
            total -= history.popleft()
        self._sums[sensor] = total
        average = total / len(history)
        if len(history) >= 4 and value > self.threshold * average:
            return [tup.with_values((sensor, value, average))]
        return []


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the SD dataflow at parallelism 1."""
    plan = LogicalPlan("SD")
    plan.add_operator(
        block_source("sensors", _reading_block, _SCHEMA, event_rate)
    )
    spike = builders.udo(
        "spike",
        SpikeLogic,
        selectivity=0.02,
        cost_scale=9.0,  # history maintenance per reading, per sensor
        name="moving-average spike detector",
        output_schema=Schema(
            [
                Field("sensor", DataType.INT),
                Field("value", DataType.DOUBLE),
                Field("average", DataType.DOUBLE),
            ]
        ),
    )
    spike.metadata["key_field"] = 0
    spike.metadata["key_cardinality"] = _NUM_SENSORS
    plan.add_operator(spike)
    plan.add_operator(builders.sink("sink"))
    plan.connect("sensors", "spike")
    plan.connect("spike", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
