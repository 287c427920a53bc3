"""Click Analytics (CA) — web clickstream statistics.

From the click-topology project: sessionize page clicks per visitor and
aggregate visit statistics per geography. Dataflow::

    clicks -> UDO(repeat-visitor sessionizer, keyed by visitor) ->
    window count per geo -> sink

CA is among the apps the paper reports benefiting strongly from
heterogeneous clusters (O5: SA, CA, SD show "exponential decrease in
latency").
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

__all__ = ["INFO", "build", "SessionizerLogic"]

INFO = AppInfo(
    abbrev="CA",
    name="Click Analytics",
    area="Web analytics",
    description="Sessionizes page clicks per visitor and counts visits "
    "per geography over windows",
    uses_udo=True,
    data_intensity=DataIntensity.MEDIUM,
    origin="click-topology [54]",
)

_NUM_VISITORS = 50_000
_NUM_GEOS = 40
_NUM_PAGES = 2_000
_SESSION_GAP_S = 0.5

_SCHEMA = Schema(
    [
        Field("visitor", DataType.INT),
        Field("geo", DataType.INT),
        Field("page", DataType.INT),
    ]
)


def _click_block(rng: np.random.Generator, n: int) -> tuple:
    visitor = rng.integers(_NUM_VISITORS, size=n)
    page = rng.integers(_NUM_PAGES, size=n)
    return (visitor, visitor % _NUM_GEOS, page)


class SessionizerLogic(OperatorLogic):
    """Tracks per-visitor sessions (gap-based) and repeat visits.

    Emits ``(geo, session_clicks, is_repeat)`` on every click, where
    ``session_clicks`` counts clicks in the visitor's current session and
    ``is_repeat`` is 1.0 for returning visitors.
    """

    def __init__(self, session_gap_s: float = _SESSION_GAP_S) -> None:
        self._last_seen: dict[int, float] = {}
        self._session_clicks: dict[int, int] = {}
        self._sessions: dict[int, int] = {}
        self.session_gap_s = session_gap_s

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        visitor, geo, _page = tup.values
        last = self._last_seen.get(visitor)
        if last is None or now - last > self.session_gap_s:
            self._sessions[visitor] = self._sessions.get(visitor, 0) + 1
            self._session_clicks[visitor] = 0
        self._last_seen[visitor] = now
        self._session_clicks[visitor] += 1
        repeat = 1.0 if self._sessions.get(visitor, 1) > 1 else 0.0
        return [
            tup.with_values(
                (geo, float(self._session_clicks[visitor]), repeat)
            )
        ]


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the CA dataflow at parallelism 1."""
    plan = LogicalPlan("CA")
    plan.add_operator(
        block_source("clicks", _click_block, _SCHEMA, event_rate)
    )
    sessionizer = builders.udo(
        "sessionize",
        SessionizerLogic,
        selectivity=1.0,
        cost_scale=4.0,
        name="gap-based sessionizer",
        output_schema=Schema(
            [
                Field("geo", DataType.INT),
                Field("session_clicks", DataType.DOUBLE),
                Field("repeat", DataType.DOUBLE),
            ]
        ),
    )
    sessionizer.metadata["key_field"] = 0
    sessionizer.metadata["key_cardinality"] = _NUM_VISITORS
    plan.add_operator(sessionizer)
    geo_stats = builders.window_agg(
        "geo_visits",
        TumblingTimeWindows(0.5),
        AggregateFunction.SUM,
        value_field=1,
        key_field=0,
        selectivity=0.01,
    )
    geo_stats.metadata["key_cardinality"] = _NUM_GEOS
    plan.add_operator(geo_stats)
    plan.add_operator(builders.sink("sink"))
    plan.connect("clicks", "sessionize")
    plan.connect("sessionize", "geo_visits")
    plan.connect("geo_visits", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
