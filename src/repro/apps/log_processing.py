"""Log Processing (LP) — web-server log statistics.

From the click-topology lineage: parse access-log lines, drop health-check
noise, and count status codes per window. Dataflow::

    log lines -> map(parse) -> filter(real traffic) ->
    window count per status -> sink

Standard operators only; LP behaves like WC/LR in the paper's figures.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, block_source
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows

__all__ = ["INFO", "build"]

INFO = AppInfo(
    abbrev="LP",
    name="Log Processing",
    area="Web infrastructure",
    description="Parses access logs, filters health checks and counts "
    "status codes per window",
    uses_udo=False,
    data_intensity=DataIntensity.LOW,
    origin="click-topology [54]",
)

_STATUS_CODES = (200, 200, 200, 200, 301, 304, 404, 500, 502)
_PATHS = ("/", "/index", "/api/v1/items", "/static/app.js", "/healthz")

_SCHEMA = Schema([Field("line", DataType.STRING)])


def _log_line_block(rng: np.random.Generator, n: int) -> tuple:
    paths = rng.integers(len(_PATHS), size=n).tolist()
    statuses = rng.integers(len(_STATUS_CODES), size=n).tolist()
    sizes = rng.integers(200, 20_000, size=n).tolist()
    lines = [
        f"GET {_PATHS[path]} {_STATUS_CODES[status]} {size}"
        for path, status, size in zip(paths, statuses, sizes)
    ]
    return (np.array(lines, dtype=object),)


def _parse(values: tuple) -> tuple:
    method, path, status, size = values[0].split(" ")
    return (int(status), path, float(size))


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the LP dataflow at parallelism 1."""
    plan = LogicalPlan("LP")
    plan.add_operator(
        block_source("logs", _log_line_block, _SCHEMA, event_rate)
    )
    plan.add_operator(
        builders.map_op(
            "parse",
            _parse,
            output_schema=Schema(
                [
                    Field("status", DataType.INT),
                    Field("path", DataType.STRING),
                    Field("size", DataType.DOUBLE),
                ]
            ),
        )
    )
    plan.add_operator(
        builders.filter_op(
            "traffic",
            # Health checks are the /healthz fifth of paths.
            Predicate(1, FilterFunction.NE, "/healthz",
                      selectivity_hint=0.8),
        )
    )
    status_counts = builders.window_agg(
        "status_counts",
        TumblingTimeWindows(0.5),
        AggregateFunction.COUNT,
        value_field=2,
        key_field=0,
        selectivity=0.001,
    )
    status_counts.metadata["key_cardinality"] = len(set(_STATUS_CODES))
    plan.add_operator(status_counts)
    plan.add_operator(builders.sink("sink"))
    plan.connect("logs", "parse")
    plan.connect("parse", "traffic")
    plan.connect("traffic", "status_counts")
    plan.connect("status_counts", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
