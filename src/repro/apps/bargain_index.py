"""Bargain Index (BI) — stock quote bargain detection.

The classic IBM System S / DSPBench finance application: compute the
volume-weighted average price (VWAP) per symbol over windows and emit a
bargain index when the ask price dips below the VWAP. Dataflow::

    trades ----> window VWAP per symbol --\\
                                           join(symbol) -> UDO(bargain) -> sink
    quotes -------------------------------/
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import AppInfo, AppQuery, DataIntensity, block_source
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import (
    AggregateFunction,
    SlidingTimeWindows,
    TumblingTimeWindows,
)

__all__ = ["INFO", "build", "BargainLogic"]

INFO = AppInfo(
    abbrev="BI",
    name="Bargain Index",
    area="Finance",
    description="Joins per-symbol VWAP with ask quotes and emits a "
    "bargain index when asks dip below VWAP",
    uses_udo=True,
    data_intensity=DataIntensity.MEDIUM,
    origin="IBM System S / DSPBench [13]",
)

_NUM_SYMBOLS = 200

_TRADE_SCHEMA = Schema(
    [
        Field("symbol", DataType.INT),
        Field("price", DataType.DOUBLE),
        Field("volume", DataType.DOUBLE),
    ]
)
_QUOTE_SCHEMA = Schema(
    [
        Field("symbol", DataType.INT),
        Field("ask", DataType.DOUBLE),
        Field("ask_size", DataType.DOUBLE),
    ]
)


def _base_price(symbol: np.ndarray) -> np.ndarray:
    return 20.0 + (symbol % 50) * 3.0


def _trade_block(rng: np.random.Generator, n: int) -> tuple:
    symbol = rng.integers(_NUM_SYMBOLS, size=n)
    price = _base_price(symbol) * rng.uniform(0.97, 1.03, size=n)
    volume = rng.integers(100, 5_000, size=n).astype(np.float64)
    return (symbol, price, volume)


def _quote_block(rng: np.random.Generator, n: int) -> tuple:
    symbol = rng.integers(_NUM_SYMBOLS, size=n)
    ask = _base_price(symbol) * rng.uniform(0.94, 1.04, size=n)
    ask_size = rng.integers(100, 2_000, size=n).astype(np.float64)
    return (symbol, ask, ask_size)


class BargainLogic(OperatorLogic):
    """Computes the bargain index from joined (vwap, quote) pairs.

    Input values are ``(symbol, vwap, symbol, ask, ask_size)``; emits
    ``(symbol, bargain_index)`` when ask < vwap, where the index weights
    the discount by the available size.
    """

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        symbol, vwap, _symbol2, ask, ask_size = tup.values
        if ask >= vwap:
            return []
        index = (vwap - ask) * ask_size
        return [tup.with_values((symbol, index))]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the BI dataflow at parallelism 1 (rate split 50/50)."""
    trade_rate = event_rate / 2.0
    quote_rate = event_rate / 2.0
    plan = LogicalPlan("BI")
    plan.add_operator(
        block_source("trades", _trade_block, _TRADE_SCHEMA, trade_rate)
    )
    plan.add_operator(
        block_source("quotes", _quote_block, _QUOTE_SCHEMA, quote_rate)
    )
    # VWAP approximated as windowed mean of trade prices weighted upstream:
    # price*volume / volume needs two aggregates; we use AVG(price) as the
    # standard single-pass approximation used by DSPBench's implementation.
    vwap = builders.window_agg(
        "vwap",
        TumblingTimeWindows(0.5),
        AggregateFunction.AVG,
        value_field=1,
        key_field=0,
        selectivity=0.02,
    )
    vwap.metadata["key_cardinality"] = _NUM_SYMBOLS
    plan.add_operator(vwap)
    join = builders.window_join(
        "quote_join",
        SlidingTimeWindows(1.0, 0.5),
        left_key_field=0,
        right_key_field=0,
        selectivity=1.5,
    )
    plan.add_operator(join)
    bargain = builders.udo(
        "bargain",
        BargainLogic,
        selectivity=0.3,
        cost_scale=0.5,
        name="bargain index",
        output_schema=Schema(
            [
                Field("symbol", DataType.INT),
                Field("index", DataType.DOUBLE),
            ]
        ),
    )
    plan.add_operator(bargain)
    plan.add_operator(builders.sink("sink"))
    plan.connect("trades", "vwap")
    plan.connect("vwap", "quote_join", port=0)
    plan.connect("quotes", "quote_join", port=1)
    plan.connect("quote_join", "bargain")
    plan.connect("bargain", "sink")
    return AppQuery(
        plan=plan,
        info=INFO,
        event_rate=event_rate,
        params={"trade_rate": trade_rate, "quote_rate": quote_rate},
    )
