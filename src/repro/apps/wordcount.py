"""Word Count (WC) — the canonical streaming micro-benchmark.

Table 2 attributes it to Twitter Heron: count word frequencies in a stream
of sentences. Dataflow::

    sentences -> flatMap(tokenize) -> windowed count per word -> sink

All operators are standard, stateless or lightly stateful: the paper uses WC
as the example of near-linear, predictable scaling (O3: "a flatMap in a WC
application scales almost linearly").
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
from repro.sps.costs import default_cost
from repro.sps.logical import LogicalPlan, OperatorKind
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows

__all__ = ["INFO", "build"]

INFO = AppInfo(
    abbrev="WC",
    name="Word Count",
    area="Text analytics",
    description="Counts word frequencies over windows of a sentence stream",
    uses_udo=False,
    data_intensity=DataIntensity.LOW,
    origin="Twitter Heron [38]",
)

#: A small vocabulary with a Zipf-like frequency profile, approximating
#: natural-language word frequency.
_VOCABULARY = (
    ["the", "of", "and", "to", "in"] * 8
    + ["stream", "data", "query", "window", "state"] * 3
    + [
        "flink", "storm", "spark", "latency", "tuple", "operator",
        "parallel", "shuffle", "join", "filter", "source", "sink",
        "benchmark", "cluster", "node", "core",
    ]
)

_VOCAB_ARRAY = np.array(_VOCABULARY)

_SENTENCE_SCHEMA = Schema([Field("sentence", DataType.STRING)])


def _sentence_block(rng: np.random.Generator, n: int) -> tuple:
    # A block of sentence lengths, then every sentence's word indices in
    # one flat block, cut back into rows.
    lengths = rng.integers(4, 10, size=n)
    words = _VOCAB_ARRAY[rng.integers(len(_VOCABULARY), size=lengths.sum())]
    sentences = [" ".join(row) for row in cut_rows(words.tolist(), lengths)]
    return (np.array(sentences, dtype=object),)


def _tokenize(values: tuple) -> list[tuple]:
    # Emit (word, 1) pairs; the count aggregation sums field 1 per word.
    return [(word, 1.0) for word in values[0].split(" ")]


def _tokenize_vec(columns: tuple) -> tuple:
    # Columnar form of _tokenize: same words in the same order, expanded
    # row-by-row with per-row fan-out counts for batch mode.  The word
    # column uses NumPy's fixed-width string dtype so downstream key
    # grouping and hash routing sort/compare it at C speed.
    words: list[str] = []
    counts: list[int] = []
    for sentence in columns[0].tolist():
        parts = sentence.split(" ")
        words.extend(parts)
        counts.append(len(parts))
    return (np.array(words), np.ones(len(words))), np.asarray(counts)


def build(
    event_rate: float = 100_000.0, seed: int = 0, space=None
) -> AppQuery:
    """Build the WC dataflow at parallelism 1."""
    plan = LogicalPlan("WC")
    plan.add_operator(
        block_source(
            "sentences",
            _sentence_block,
            _SENTENCE_SCHEMA,
            event_rate,
        )
    )
    plan.add_operator(
        builders.flat_map(
            "tokenize",
            _tokenize,
            expected_fanout=6.5,
            vector_fn=_tokenize_vec,
            output_schema=Schema(
                [
                    Field("word", DataType.STRING),
                    Field("count", DataType.DOUBLE),
                ]
            ),
        )
    )
    counter = builders.window_agg(
        "count",
        TumblingTimeWindows(0.5),
        AggregateFunction.SUM,
        value_field=1,
        key_field=0,
        selectivity=0.02,
        # Counting is far cheaper than a generic aggregate: WC's hallmark
        # is near-linear, unsaturated scaling (paper O3).
        cost=default_cost(OperatorKind.WINDOW_AGG).scaled(0.2),
    )
    counter.metadata["key_cardinality"] = len(set(_VOCABULARY))
    plan.add_operator(counter)
    plan.add_operator(builders.sink("sink"))
    plan.connect("sentences", "tokenize")
    plan.connect("tokenize", "count")
    plan.connect("count", "sink")
    return AppQuery(plan=plan, info=INFO, event_rate=event_rate)
