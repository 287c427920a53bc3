"""Synthetic parallel query plan (PQP) structures.

The paper offers "an extensive range of PQP from an array of query
structures, including simple linear queries with one filter to complex
configurations involving multi-way joins and multiple chained filters"
(Section 3.1) and counts 9 synthetic applications in Table 1. The nine
structures here span that range; each build randomises window parameters,
aggregate functions and selectivity-checked filter literals over Table 3's
ranges.

For Exp 3, the paper trains cost models on *seen* structures (linear, 2-way
and 3-way joins) and evaluates on the remaining *unseen* ones;
:attr:`QueryStructure.is_seen` encodes that split.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps import builders
from repro.sps.logical import LogicalPlan
from repro.sps.predicates import Predicate
from repro.sps.windows import (
    AggregateFunction,
    SlidingTimeWindows,
    TumblingCountWindows,
    TumblingTimeWindows,
    WindowAssigner,
)
from repro.workload.datagen import StreamSpec, random_stream_spec
from repro.workload.parameter_space import ParameterSpace
from repro.workload.selectivity import draw_predicate

__all__ = ["QueryStructure", "GeneratedQuery", "build_structure"]


class QueryStructure(enum.Enum):
    """The nine synthetic PQP structures."""

    LINEAR = "linear"
    TWO_FILTER_CHAIN = "two_filter_chain"
    THREE_FILTER_CHAIN = "three_filter_chain"
    WINDOW_AGG = "window_agg"
    TWO_WAY_JOIN = "two_way_join"
    THREE_WAY_JOIN = "three_way_join"
    FOUR_WAY_JOIN = "four_way_join"
    FIVE_WAY_JOIN = "five_way_join"
    FILTER_JOIN_AGG = "filter_join_agg"

    @property
    def num_sources(self) -> int:
        """Number of input streams the structure consumes."""
        return {
            QueryStructure.TWO_WAY_JOIN: 2,
            QueryStructure.THREE_WAY_JOIN: 3,
            QueryStructure.FOUR_WAY_JOIN: 4,
            QueryStructure.FIVE_WAY_JOIN: 5,
            QueryStructure.FILTER_JOIN_AGG: 2,
        }.get(self, 1)

    @property
    def num_joins(self) -> int:
        """Number of (2-way) join operators in the cascade."""
        return max(self.num_sources - 1, 0)

    @property
    def is_seen(self) -> bool:
        """Whether Exp 3 uses this structure for training ('seen')."""
        return self in (
            QueryStructure.LINEAR,
            QueryStructure.TWO_WAY_JOIN,
            QueryStructure.THREE_WAY_JOIN,
        )

    @property
    def complexity_rank(self) -> int:
        """Ordering used on figure axes, simplest first."""
        order = [
            QueryStructure.LINEAR,
            QueryStructure.WINDOW_AGG,
            QueryStructure.TWO_FILTER_CHAIN,
            QueryStructure.THREE_FILTER_CHAIN,
            QueryStructure.TWO_WAY_JOIN,
            QueryStructure.FILTER_JOIN_AGG,
            QueryStructure.THREE_WAY_JOIN,
            QueryStructure.FOUR_WAY_JOIN,
            QueryStructure.FIVE_WAY_JOIN,
        ]
        return order.index(self)


@dataclass
class GeneratedQuery:
    """One generated PQP plus the streams and parameters that shaped it."""

    plan: LogicalPlan
    streams: list[StreamSpec]
    structure: QueryStructure
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def event_rate(self) -> float:
        """Total event rate across all sources."""
        return sum(s.event_rate for s in self.streams)


def _sample_time_assigner(
    rng: np.random.Generator, space: ParameterSpace
) -> WindowAssigner:
    duration = space.sample_window_duration_s(rng)
    if rng.random() < 0.5:
        return TumblingTimeWindows(duration)
    ratio = space.sample_sliding_ratio(rng)
    return SlidingTimeWindows(duration, duration * ratio)


def _sample_agg_assigner(
    rng: np.random.Generator, space: ParameterSpace
) -> WindowAssigner:
    if rng.random() < 0.3:
        return TumblingCountWindows(space.sample_window_length(rng))
    return _sample_time_assigner(rng, space)


def _numeric_agg_function(
    rng: np.random.Generator, space: ParameterSpace
) -> AggregateFunction:
    return space.sample_aggregate(rng)


def _agg_selectivity(
    assigner: WindowAssigner, input_rate: float, keys: int
) -> float:
    """Expected aggregate outputs per input tuple."""
    if not assigner.is_time_based:
        return 1.0 / assigner.feature_length
    duration = assigner.feature_length
    per_window_inputs = max(input_rate * duration, 1.0)
    active_keys = min(keys, per_window_inputs)
    slide_ratio = assigner.feature_slide_ratio
    return min(active_keys / (per_window_inputs * slide_ratio), 4.0)


def _join_selectivity(
    assigner: WindowAssigner, other_rate: float, keys: int
) -> float:
    """Expected join matches per input tuple (symmetric hash join)."""
    duration = assigner.feature_length
    windows_per_tuple = 1.0 / assigner.feature_slide_ratio
    matches = other_rate * duration / max(keys, 1)
    return min(matches * windows_per_tuple, 32.0)


def _conjunction_selectivity(
    distribution, predicates, rng: np.random.Generator, samples: int = 300
) -> float:
    """Monte-Carlo estimate of P(all predicates pass) on one field."""
    from repro.sps.tuples import StreamTuple

    # The probe tuple has one field, so the predicates are re-indexed to 0.
    shifted = [
        Predicate(0, p.function, p.literal, p.selectivity_hint)
        for p in predicates
    ]
    passed = 0
    for _ in range(samples):
        value = distribution.sample(rng)
        probe = StreamTuple(values=(value,), event_time=0.0)
        if all(p.evaluate(probe) for p in shifted):
            passed += 1
    return passed / samples


def _add_filter(
    plan: LogicalPlan,
    op_id: str,
    stream: StreamSpec,
    rng: np.random.Generator,
    space: ParameterSpace,
    existing: dict[int, list[Predicate]] | None = None,
) -> None:
    """Add one filter, keeping the *conjunction* with earlier filters on

    the same field non-degenerate (the paper's validity requirement: data
    must keep passing the generated filters). Filters prefer fields not
    yet filtered; when a field must be reused, the predicate is redrawn
    until at least ~5% of values survive the combined condition.
    """
    existing = existing if existing is not None else {}
    width = stream.tuple_width
    candidates = list(range(1, width)) if width > 1 else [0]
    unused = [i for i in candidates if i not in existing]
    pool = unused or candidates
    index = int(pool[int(rng.integers(len(pool)))])
    distribution = stream.fields[index].distribution
    predicate = draw_predicate(
        distribution, index, rng, band=space.selectivity_band
    )
    prior = existing.get(index, [])
    if prior:
        for _ in range(30):
            if (
                _conjunction_selectivity(
                    distribution, [*prior, predicate], rng
                )
                >= 0.05
            ):
                break
            predicate = draw_predicate(
                distribution, index, rng, band=space.selectivity_band
            )
    existing.setdefault(index, []).append(predicate)
    plan.add_operator(builders.filter_op(op_id, predicate))


def _value_field(stream: StreamSpec, rng: np.random.Generator) -> int:
    numeric = [i for i in stream.numeric_field_indices() if i != 0]
    if numeric:
        return int(numeric[int(rng.integers(len(numeric)))])
    return 0


def build_structure(
    structure: QueryStructure,
    rng: np.random.Generator,
    space: ParameterSpace | None = None,
    event_rate: float | None = None,
) -> GeneratedQuery:
    """Instantiate one synthetic PQP of the given structure.

    All operators start at parallelism 1; callers apply an enumeration
    strategy (:mod:`repro.workload.enumeration`) or
    :meth:`LogicalPlan.set_uniform_parallelism` afterwards.
    """
    space = space or ParameterSpace()
    if structure.num_joins > 0:
        return _build_join_query(structure, rng, space, event_rate)
    return _build_pipeline_query(structure, rng, space, event_rate)


def _build_pipeline_query(
    structure: QueryStructure,
    rng: np.random.Generator,
    space: ParameterSpace,
    event_rate: float | None,
) -> GeneratedQuery:
    num_filters = {
        QueryStructure.LINEAR: 1,
        QueryStructure.TWO_FILTER_CHAIN: 2,
        QueryStructure.THREE_FILTER_CHAIN: 3,
        QueryStructure.WINDOW_AGG: 0,
    }.get(structure)
    if num_filters is None:
        raise ConfigurationError(
            f"{structure} is not a pipeline structure"
        )
    stream = random_stream_spec("src0", rng, space, event_rate)
    plan = LogicalPlan(structure.value)
    plan.add_operator(
        builders.source(
            "src0",
            None,
            stream.schema(),
            stream.event_rate,
            arrival=stream.arrival,
            vector_generator=stream.block_generator(),
        )
    )
    previous = "src0"
    passthrough = 1.0
    chained: dict[int, list] = {}
    for i in range(num_filters):
        op_id = f"filter{i}"
        _add_filter(plan, op_id, stream, rng, space, existing=chained)
        plan.connect(previous, op_id)
        passthrough *= plan.operator(op_id).selectivity
        previous = op_id
    assigner = _sample_agg_assigner(rng, space)
    agg_input_rate = stream.event_rate * passthrough
    agg = builders.window_agg(
        "agg0",
        assigner,
        _numeric_agg_function(rng, space),
        value_field=_value_field(stream, rng),
        key_field=0,
        selectivity=_agg_selectivity(
            assigner, agg_input_rate, space.key_cardinality
        ),
    )
    agg.metadata["key_cardinality"] = space.key_cardinality
    plan.add_operator(agg)
    plan.connect(previous, "agg0")
    plan.add_operator(builders.sink("sink"))
    plan.connect("agg0", "sink")
    return GeneratedQuery(
        plan=plan,
        streams=[stream],
        structure=structure,
        params={
            "num_filters": num_filters,
            "window": assigner.describe(),
            "event_rate": stream.event_rate,
        },
    )


def _build_join_query(
    structure: QueryStructure,
    rng: np.random.Generator,
    space: ParameterSpace,
    event_rate: float | None,
) -> GeneratedQuery:
    num_sources = structure.num_sources
    with_filters = structure is QueryStructure.FILTER_JOIN_AGG
    # All sources share the event rate so the join is balanced, as in the
    # paper's 2-way join example (Figure 2 left).
    shared_rate = (
        float(event_rate)
        if event_rate is not None
        else space.sample_event_rate(rng)
    )
    assigner = _sample_time_assigner(rng, space)
    # Join-key cardinality scales with rate x window so each probe expects
    # roughly one match (as in impression/click-style joins); a fixed tiny
    # key domain at high rates would make every join a cross-product.
    join_keys = max(
        space.key_cardinality,
        int(shared_rate * assigner.feature_length),
    )
    streams = [
        random_stream_spec(
            f"src{i}", rng, space, shared_rate, key_cardinality=join_keys
        )
        for i in range(num_sources)
    ]
    plan = LogicalPlan(structure.value)
    for i, stream in enumerate(streams):
        plan.add_operator(
            builders.source(
                f"src{i}",
                None,
                stream.schema(),
                stream.event_rate,
                arrival=stream.arrival,
                vector_generator=stream.block_generator(),
            )
        )
    upstream_ids = []
    upstream_rates = []
    for i, stream in enumerate(streams):
        if with_filters:
            op_id = f"filter{i}"
            _add_filter(plan, op_id, stream, rng, space)
            plan.connect(f"src{i}", op_id)
            upstream_ids.append(op_id)
            upstream_rates.append(
                stream.event_rate * plan.operator(op_id).selectivity
            )
        else:
            upstream_ids.append(f"src{i}")
            upstream_rates.append(stream.event_rate)
    # Cascade of 2-way joins: ((s0 ⋈ s1) ⋈ s2) ⋈ ...
    # The join key is field 0 of every stream; join outputs concatenate
    # values, so the key stays at field 0 downstream.
    left_id = upstream_ids[0]
    left_rate = upstream_rates[0]
    left_key_field = 0
    for j in range(structure.num_joins):
        right_id = upstream_ids[j + 1]
        right_rate = upstream_rates[j + 1]
        join_id = f"join{j}"
        selectivity = _join_selectivity(
            assigner,
            other_rate=min(left_rate, right_rate),
            keys=join_keys,
        )
        plan.add_operator(
            builders.window_join(
                join_id,
                assigner,
                left_key_field=left_key_field,
                right_key_field=0,
                selectivity=selectivity,
            )
        )
        plan.connect(left_id, join_id, port=0)
        plan.connect(right_id, join_id, port=1)
        left_id = join_id
        left_rate = (left_rate + right_rate) * selectivity
        left_key_field = 0
    agg_assigner = _sample_time_assigner(rng, space)
    agg = builders.window_agg(
        "agg0",
        agg_assigner,
        _numeric_agg_function(rng, space),
        value_field=_agg_value_field_for_join(streams, rng),
        key_field=0,
        selectivity=_agg_selectivity(
            agg_assigner, max(left_rate, 1.0), join_keys
        ),
    )
    agg.metadata["key_cardinality"] = join_keys
    plan.add_operator(agg)
    plan.connect(left_id, "agg0")
    plan.add_operator(builders.sink("sink"))
    plan.connect("agg0", "sink")
    return GeneratedQuery(
        plan=plan,
        streams=streams,
        structure=structure,
        params={
            "num_joins": structure.num_joins,
            "window": assigner.describe(),
            "event_rate": shared_rate,
            "with_filters": with_filters,
        },
    )


def _agg_value_field_for_join(
    streams: list[StreamSpec], rng: np.random.Generator
) -> int:
    """A numeric field index valid in the concatenated join output."""
    first = streams[0]
    numeric = [i for i in first.numeric_field_indices()]
    return int(numeric[int(rng.integers(len(numeric)))]) if numeric else 0
