"""TPC-H (TPCH) — streaming adaptation of the pricing summary query.

Table 2 lists TPC-H under e-commerce. We stream lineitem-like tuples and
run the Q1-style pricing summary: filter by ship-date horizon, then sum
discounted revenue per (returnflag, linestatus) group over tumbling
windows. Dataflow::

    lineitems -> filter(shipdate <= horizon) -> map(revenue) ->
    window sum(revenue) per group -> sink
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
    abbrev="TPCH",
    name="TPC-H Pricing Summary",
    area="E-commerce",
    description="Streaming TPC-H Q1: windowed revenue summary of "
    "lineitems grouped by return flag and line status",
    uses_udo=False,
    data_intensity=DataIntensity.LOW,
    origin="TPC-H [10]",
)

#: (returnflag, linestatus) combinations: R/F, N/F, N/O, A/F.
_NUM_GROUPS = 4
_SHIPDATE_HORIZON = 90  # days, filters ~75% of a 120-day spread

_SCHEMA = Schema(
    [
        Field("group_key", DataType.INT),
        Field("shipdate", DataType.INT),
        Field("quantity", DataType.DOUBLE),
        Field("extendedprice", DataType.DOUBLE),
        Field("discount", DataType.DOUBLE),
    ]
)


def _lineitem_block(rng: np.random.Generator, n: int) -> tuple:
    return (
        rng.integers(_NUM_GROUPS, size=n),
        rng.integers(120, size=n),
        rng.integers(1, 50, size=n).astype(np.float64),
        rng.uniform(900.0, 105_000.0, size=n),
        rng.uniform(0.0, 0.1, size=n),
    )


def _revenue(values: tuple) -> tuple:
    group_key, shipdate, quantity, price, discount = values
    return (group_key, price * (1.0 - discount))


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the TPCH dataflow at parallelism 1."""
    plan = LogicalPlan("TPCH")
    plan.add_operator(
        block_source("lineitems", _lineitem_block, _SCHEMA, event_rate)
    )
    plan.add_operator(
        builders.filter_op(
            "shipdate_filter",
            Predicate(
                1,
                FilterFunction.LE,
                _SHIPDATE_HORIZON,
                selectivity_hint=_SHIPDATE_HORIZON / 120.0,
            ),
        )
    )
    plan.add_operator(
        builders.map_op(
            "revenue",
            _revenue,
            output_schema=Schema(
                [
                    Field("group_key", DataType.INT),
                    Field("revenue", DataType.DOUBLE),
                ]
            ),
        )
    )
    summary = builders.window_agg(
        "pricing_summary",
        TumblingTimeWindows(0.5),
        AggregateFunction.SUM,
        value_field=1,
        key_field=0,
        selectivity=0.001,
    )
    summary.metadata["key_cardinality"] = _NUM_GROUPS
    plan.add_operator(summary)
    plan.add_operator(builders.sink("sink"))
    plan.connect("lineitems", "shipdate_filter")
    plan.connect("shipdate_filter", "revenue")
    plan.connect("revenue", "pricing_summary")
    plan.connect("pricing_summary", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
