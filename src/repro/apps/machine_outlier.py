"""Machine Outlier (MO) — anomaly detection on machine metrics.

From the stream-outlier framework cited in Table 2: flag machines whose
resource usage deviates from their recent history. Dataflow::

    metrics -> UDO(per-machine z-score over a sliding history) ->
    filter(|z| > threshold) -> sink

The z-score UDO keeps per-machine running moments — a moderately
data-intensive user-defined operator.
"""

from __future__ import annotations

import math

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, block_source
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema

__all__ = ["INFO", "build", "ZScoreLogic"]

INFO = AppInfo(
    abbrev="MO",
    name="Machine Outlier",
    area="Datacenter monitoring",
    description="Flags machines whose CPU/memory usage is anomalous "
    "against their recent history (per-machine z-score)",
    uses_udo=True,
    data_intensity=DataIntensity.MEDIUM,
    origin="stream-outlier [34]",
)

_SCHEMA = Schema(
    [
        Field("machine_id", DataType.INT),
        Field("cpu", DataType.DOUBLE),
        Field("memory", DataType.DOUBLE),
    ]
)

_NUM_MACHINES = 200


def _metrics_block(rng: np.random.Generator, n: int) -> tuple:
    machine = rng.integers(_NUM_MACHINES, size=n)
    # A few machines run hot; occasionally any machine spikes.
    base_cpu = np.where(machine % 17 == 0, 0.7, 0.35)
    cpu = np.clip(rng.normal(base_cpu, 0.1), 0.0, 1.0)
    cpu = np.where(
        rng.random(n) < 0.01,
        np.clip(cpu + rng.uniform(0.3, 0.6, size=n), 0.0, 1.0),
        cpu,
    )
    memory = np.clip(rng.normal(0.5, 0.15, size=n), 0.0, 1.0)
    return (machine, cpu, memory)


class ZScoreLogic(OperatorLogic):
    """Per-machine streaming z-score of the CPU reading.

    Maintains exponentially-decayed mean/variance per machine and emits
    ``(machine_id, cpu, zscore)``.
    """

    def __init__(self, decay: float = 0.05) -> None:
        self.decay = decay
        self._mean: dict[int, float] = {}
        self._var: dict[int, float] = {}
        self._count: dict[int, int] = {}

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        machine = tup.values[0]
        cpu = tup.values[1]
        mean = self._mean.get(machine, cpu)
        var = self._var.get(machine, 0.01)
        seen = self._count.get(machine, 0) + 1
        delta = cpu - mean
        mean += self.decay * delta
        var = (1.0 - self.decay) * (var + self.decay * delta * delta)
        self._mean[machine] = mean
        self._var[machine] = var
        self._count[machine] = seen
        z = abs(delta) / math.sqrt(max(var, 1e-6)) if seen > 5 else 0.0
        return [tup.with_values((machine, cpu, z))]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the MO dataflow at parallelism 1."""
    plan = LogicalPlan("MO")
    plan.add_operator(
        block_source("metrics", _metrics_block, _SCHEMA, event_rate)
    )
    score = builders.udo(
        "zscore",
        ZScoreLogic,
        selectivity=1.0,
        cost_scale=1.5,
        name="per-machine z-score",
        output_schema=Schema(
            [
                Field("machine", DataType.INT),
                Field("cpu", DataType.DOUBLE),
                Field("z", DataType.DOUBLE),
            ]
        ),
    )
    score.metadata["key_field"] = 0  # keyed state: partition by machine
    score.metadata["key_cardinality"] = _NUM_MACHINES
    plan.add_operator(score)
    plan.add_operator(
        builders.filter_op(
            "anomalous",
            Predicate(2, FilterFunction.GT, 2.5, selectivity_hint=0.05),
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("metrics", "zscore")
    plan.connect("zscore", "anomalous")
    plan.connect("anomalous", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
