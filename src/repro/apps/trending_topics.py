"""Trending Topics (TM) — hashtag trend detection.

From TwitterMonitor: extract hashtags from tweets, count them over sliding
windows and keep a top-k. Dataflow::

    tweets -> flatMap(extract hashtags) ->
    window count per tag -> UDO(top-k tracker) -> sink
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.apps.base import (
    AppInfo,
    AppQuery,
    DataIntensity,
    block_source,
    cut_rows,
)
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, SlidingTimeWindows

__all__ = ["INFO", "build", "TopKLogic"]

INFO = AppInfo(
    abbrev="TM",
    name="Trending Topics",
    area="Social media",
    description="Counts hashtags over sliding windows and tracks the "
    "top-k trending tags",
    uses_udo=True,
    data_intensity=DataIntensity.MEDIUM,
    origin="TwitterMonitor [45]",
)

#: Zipf-profile tag popularity: low ids are far more frequent.
_NUM_TAGS = 1_000

_SCHEMA = Schema([Field("tags", DataType.STRING)])


def _tweet_tags_block(rng: np.random.Generator, n: int) -> tuple:
    # A block of tag counts, then every tweet's tags in one flat block,
    # approximately Zipf via the inverse-power trick.
    counts = rng.integers(0, 4, size=n)
    ids = (_NUM_TAGS * rng.random(counts.sum()) ** 3).astype(np.int64)
    tags = [f"#t{tag}" for tag in ids.tolist()]
    tweets = [" ".join(row) for row in cut_rows(tags, counts)]
    return (np.array(tweets, dtype=object),)


def _extract_tags(values: tuple) -> list[tuple]:
    if not values[0]:
        return []
    return [(tag, 1.0) for tag in values[0].split(" ")]


class TopKLogic(OperatorLogic):
    """Maintains the running top-k of (tag, windowed count) updates.

    Emits the changed ranking entry whenever a tag enters or moves within
    the top-k.
    """

    def __init__(self, k: int = 10) -> None:
        self.k = k
        self._counts: dict[str, float] = {}

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        tag, count = tup.values
        previous_top = self._top_k()
        self._counts[tag] = max(self._counts.get(tag, 0.0), count)
        if len(self._counts) > 4 * self.k:
            self._prune()
        current_top = self._top_k()
        if current_top != previous_top and tag in dict(current_top):
            rank = [t for t, _ in current_top].index(tag)
            return [tup.with_values((tag, count, float(rank)))]
        return []

    def _top_k(self) -> list[tuple[str, float]]:
        return heapq.nlargest(
            self.k, self._counts.items(), key=lambda item: item[1]
        )

    def _prune(self) -> None:
        keep = heapq.nlargest(
            2 * self.k, self._counts.items(), key=lambda item: item[1]
        )
        self._counts = dict(keep)


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the TM dataflow at parallelism 1."""
    plan = LogicalPlan("TM")
    plan.add_operator(
        block_source("tweets", _tweet_tags_block, _SCHEMA, event_rate)
    )
    plan.add_operator(
        builders.flat_map(
            "extract",
            _extract_tags,
            expected_fanout=1.5,
            output_schema=Schema(
                [
                    Field("tag", DataType.STRING),
                    Field("count", DataType.DOUBLE),
                ]
            ),
        )
    )
    tag_counts = builders.window_agg(
        "tag_counts",
        SlidingTimeWindows(1.0, 0.5),
        AggregateFunction.COUNT,
        value_field=1,
        key_field=0,
        selectivity=0.02,
    )
    tag_counts.metadata["key_cardinality"] = _NUM_TAGS
    plan.add_operator(tag_counts)
    topk = builders.udo(
        "topk",
        TopKLogic,
        selectivity=0.3,
        cost_scale=2.0,
        name="top-k tracker",
        output_schema=Schema(
            [
                Field("tag", DataType.STRING),
                Field("count", DataType.DOUBLE),
                Field("rank", DataType.DOUBLE),
            ]
        ),
    )
    plan.add_operator(topk)
    plan.add_operator(builders.sink("sink"))
    plan.connect("tweets", "extract")
    plan.connect("extract", "tag_counts")
    plan.connect("tag_counts", "topk")
    plan.connect("topk", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
