"""Sentiment Analysis (SA) — lexicon-based tweet scoring.

Table 2 cites the real-time-sentiment-analytic project: score social-media
posts against a sentiment lexicon and aggregate per topic. Dataflow::

    tweets -> UDO(lexicon scan + negation handling) ->
    window avg(sentiment) per topic -> sink

The scorer touches every token of every tweet, making SA one of the paper's
*data-intensive UDO* apps that benefit from very high parallelism (O1, O5).
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import (
    AppInfo,
    AppQuery,
    DataIntensity,
    block_source,
    cut_rows,
)
from repro.sps import builders
from repro.sps.costs import OperatorCost
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, SlidingTimeWindows

__all__ = ["INFO", "build", "SentimentLogic"]

INFO = AppInfo(
    abbrev="SA",
    name="Sentiment Analysis",
    area="Social media",
    description="Scores tweets against a sentiment lexicon and averages "
    "sentiment per topic over sliding windows",
    uses_udo=True,
    data_intensity=DataIntensity.HIGH,
    origin="real-time-sentiment-analytic [21]",
)

_POSITIVE = {
    "good", "great", "love", "happy", "awesome", "fast", "win", "best",
    "nice", "cool", "amazing", "super",
}
_NEGATIVE = {
    "bad", "slow", "hate", "sad", "awful", "bug", "fail", "worst",
    "broken", "angry", "crash", "lag",
}
_NEUTRAL = [
    "the", "a", "of", "is", "on", "at", "today", "stream", "game",
    "phone", "movie", "update", "release", "team", "city",
]
_TOPICS = 50

_SCHEMA = Schema(
    [Field("topic", DataType.INT), Field("text", DataType.STRING)]
)

# Sorted: set iteration order depends on PYTHONHASHSEED, and the word
# list feeds the tweet generator — unsorted, SA simulations would not
# reproduce bit-identically across processes.
_ALL_WORDS = sorted(_POSITIVE) + sorted(_NEGATIVE) + _NEUTRAL
_WORD_ARRAY = np.array(_ALL_WORDS)


def _tweet_block(rng: np.random.Generator, n: int) -> tuple:
    topic = rng.integers(_TOPICS, size=n)
    # A block of tweet lengths, every tweet's word indices in one flat
    # block, then a "not" for 15% of the tweets at a drawn position.
    lengths = rng.integers(6, 18, size=n)
    words = _WORD_ARRAY[rng.integers(len(_ALL_WORDS), size=lengths.sum())]
    negated = (rng.random(n) < 0.15).tolist()
    positions = rng.integers(0, lengths).tolist()
    rows = cut_rows(words.tolist(), lengths)
    for row, negate, position in zip(rows, negated, positions):
        if negate:
            row.insert(position, "not")
    texts = [" ".join(row) for row in rows]
    return (topic, np.array(texts, dtype=object))


class SentimentLogic(OperatorLogic):
    """Lexicon scoring with single-token negation flipping.

    Emits ``(topic, score)`` where score sums +1/-1 lexicon hits, flipped
    when preceded by "not", normalised by tweet length.
    """

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        topic, text = tup.values
        tokens = text.split(" ")
        score = 0.0
        negate = False
        for token in tokens:
            if token == "not":
                negate = True
                continue
            value = 0.0
            if token in _POSITIVE:
                value = 1.0
            elif token in _NEGATIVE:
                value = -1.0
            score += -value if negate else value
            negate = False
        return [tup.with_values((topic, score / max(len(tokens), 1)))]

    def work_units(self, tup: StreamTuple) -> float:
        # Cost scales with tweet length (full lexicon scan per token).
        return max(len(tup.values[1]) / 60.0, 0.25)


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the SA dataflow at parallelism 1."""
    plan = LogicalPlan("SA")
    plan.add_operator(
        block_source("tweets", _tweet_block, _SCHEMA, event_rate)
    )
    scorer = builders.udo(
        "score",
        SentimentLogic,
        selectivity=1.0,
        # Token-by-token lexicon scan: data-intensive but *stateless*, so
        # it scales to very high parallelism with little coordination
        # (the paper reports SA still improving at degree 128).
        cost=OperatorCost(
            base_cpu_s=40.0e-6 * 6.0,
            coord_kappa=0.0015,
            stateful=False,
            is_udo=True,
            cost_noise=0.25,
        ),
        name="lexicon sentiment scorer",
        output_schema=Schema(
            [
                Field("topic", DataType.INT),
                Field("score", DataType.DOUBLE),
            ]
        ),
    )
    plan.add_operator(scorer)
    topic_avg = builders.window_agg(
        "topic_sentiment",
        SlidingTimeWindows(1.0, 0.5),
        AggregateFunction.AVG,
        value_field=1,
        key_field=0,
        selectivity=0.01,
    )
    topic_avg.metadata["key_cardinality"] = _TOPICS
    plan.add_operator(topic_avg)
    plan.add_operator(builders.sink("sink"))
    plan.connect("tweets", "score")
    plan.connect("score", "topic_sentiment")
    plan.connect("topic_sentiment", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
