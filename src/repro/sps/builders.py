"""Convenience constructors for logical operators.

The workload generator and the application suite assemble PQPs from these;
each helper wires the right kind, cost profile, logic factory and ML-feature
metadata. ``logic_factory`` is called once per subtask, so state is always
per-instance.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.common.errors import ConfigurationError, check_time
from repro.sps.costs import OperatorCost, default_cost
from repro.sps.logical import LogicalOperator, OperatorKind
from repro.sps.operators.aggregate import WindowAggregateLogic
from repro.sps.operators.base import OperatorLogic
from repro.sps.operators.filter_op import FilterLogic
from repro.sps.operators.join import WindowJoinLogic
from repro.sps.operators.map_op import FlatMapLogic, MapLogic
from repro.sps.operators.sink import SinkLogic
from repro.sps.operators.source import SourceLogic, TupleGenerator
from repro.sps.predicates import Predicate
from repro.sps.types import Schema
from repro.sps.windows import AggregateFunction, WindowAssigner

__all__ = [
    "source",
    "filter_op",
    "map_op",
    "flat_map",
    "window_agg",
    "event_window_agg",
    "window_join",
    "udo",
    "sink",
]


def source(
    op_id: str,
    generator: TupleGenerator | None,
    schema: Schema,
    event_rate: float,
    parallelism: int = 1,
    arrival: str = "poisson",
    vector_generator=None,
    replayable: bool = True,
) -> LogicalOperator:
    """A parallel source emitting ``event_rate`` tuples/s in total.

    A source has exactly one form. ``vector_generator`` is the columnar
    form, ``(rng, n) -> (columns, sizes)`` (see
    :data:`~repro.sps.operators.source.VectorTupleGenerator`), given
    with ``generator=None``: it is the stream under every executor, read
    by each subtask in fixed ``SOURCE_CHUNK``-row chunks (generated
    queries and the application suite do this). ``generator`` is the row
    form, ``(rng, now) -> StreamTuple``, for callers that own a row
    generator (a replayed log); every executor calls it once per tuple.

    ``replayable`` declares whether the feed can be re-read from an
    offset after a failure (a durable log such as Kafka). The engine's
    simulated source log replays either way; the flag feeds the FT7xx
    lint rules, which warn when checkpointing is enabled over a feed
    that a real deployment could not rewind.
    """
    if (generator is None) == (vector_generator is None):
        raise ConfigurationError(
            f"source {op_id!r} needs a generator or a vector_generator, "
            "not both"
        )
    check_time("event_rate", event_rate)
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.SOURCE,
        logic_factory=lambda: SourceLogic(
            generator, vector_generator=vector_generator
        ),
        parallelism=parallelism,
        selectivity=1.0,
        output_schema=schema,
        metadata={
            "event_rate": float(event_rate),
            "arrival": arrival,
            "replayable": bool(replayable),
        },
    )


def filter_op(
    op_id: str,
    predicate: Predicate,
    parallelism: int = 1,
    cost: OperatorCost | None = None,
) -> LogicalOperator:
    """A filter; its expected selectivity comes from the predicate's hint."""
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.FILTER,
        logic_factory=lambda: FilterLogic(predicate),
        parallelism=parallelism,
        selectivity=predicate.selectivity_hint,
        cost=cost,
        metadata={
            "predicate": predicate.describe(),
            # primitive mirror of the predicate so the static analyzer
            # (SCH102/SCH105) can type-check it against the input schema
            "predicate_field": predicate.field_index,
            "predicate_function": predicate.function.value,
            "predicate_literal": predicate.literal,
        },
    )


def map_op(
    op_id: str,
    fn: Callable[[tuple[Any, ...]], tuple[Any, ...]],
    parallelism: int = 1,
    cost: OperatorCost | None = None,
    output_schema: Schema | None = None,
    vector_fn: Callable[[tuple], tuple] | None = None,
) -> LogicalOperator:
    """A 1-to-1 transformation.

    ``vector_fn`` optionally supplies the column-wise form used by batch
    mode (columns in, columns out); without it the map falls back to
    per-tuple ``fn`` calls there.
    """
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.MAP,
        logic_factory=lambda: MapLogic(fn, vector_fn=vector_fn),
        parallelism=parallelism,
        selectivity=1.0,
        cost=cost,
        output_schema=output_schema,
    )


def flat_map(
    op_id: str,
    fn: Callable[[tuple[Any, ...]], list[tuple[Any, ...]]],
    expected_fanout: float = 1.0,
    parallelism: int = 1,
    cost: OperatorCost | None = None,
    output_schema: Schema | None = None,
    vector_fn: Callable[[tuple], tuple] | None = None,
) -> LogicalOperator:
    """A 1-to-N transformation; selectivity is the expected fan-out.

    ``vector_fn`` optionally supplies the columnar expansion batch mode
    uses (columns in, ``(columns, counts)`` out); without it the
    flat-map falls back to per-tuple ``fn`` calls there.
    """
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.FLATMAP,
        logic_factory=lambda: FlatMapLogic(
            fn, expected_fanout, vector_fn=vector_fn
        ),
        parallelism=parallelism,
        selectivity=expected_fanout,
        cost=cost,
        output_schema=output_schema,
    )


def window_agg(
    op_id: str,
    assigner: WindowAssigner,
    function: AggregateFunction,
    value_field: int,
    key_field: int | None = None,
    parallelism: int = 1,
    selectivity: float | None = None,
    cost: OperatorCost | None = None,
) -> LogicalOperator:
    """A keyed/global windowed aggregation.

    Selectivity (output per input tuple) defaults to ``1 / window length``
    for count windows and is left at a conservative 0.1 for time windows,
    where it depends on the event rate.
    """
    if selectivity is None:
        if assigner.is_time_based:
            selectivity = 0.1
        else:
            selectivity = 1.0 / assigner.feature_length
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.WINDOW_AGG,
        logic_factory=lambda: WindowAggregateLogic(
            assigner, function, value_field, key_field
        ),
        parallelism=parallelism,
        selectivity=selectivity,
        cost=cost,
        window=assigner,
        metadata={
            "agg": function.value,
            "window": assigner.describe(),
            "key_field": key_field,
            "value_field": value_field,
        },
    )


def event_window_agg(
    op_id: str,
    assigner: WindowAssigner,
    function: AggregateFunction,
    value_field: int,
    key_field: int | None = None,
    max_out_of_orderness: float = 0.05,
    allowed_lateness: float = 0.0,
    parallelism: int = 1,
    selectivity: float = 0.1,
    cost: OperatorCost | None = None,
) -> LogicalOperator:
    """An *event-time* windowed aggregation with watermarks.

    Unlike :func:`window_agg` (processing time), tuples join the windows
    covering their source timestamps and firing is driven by a
    bounded-out-of-orderness watermark; late tuples are dropped and
    counted. See :mod:`repro.sps.operators.event_aggregate`.
    """
    from repro.sps.operators.event_aggregate import (
        EventTimeWindowAggregateLogic,
    )

    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.WINDOW_AGG,
        logic_factory=lambda: EventTimeWindowAggregateLogic(
            assigner,
            function,
            value_field,
            key_field,
            max_out_of_orderness,
            allowed_lateness,
        ),
        parallelism=parallelism,
        selectivity=selectivity,
        cost=cost,
        window=assigner,
        metadata={
            "agg": function.value,
            "window": assigner.describe(),
            "key_field": key_field,
            "value_field": value_field,
            "time_semantics": "event",
            "max_out_of_orderness": max_out_of_orderness,
        },
    )


def window_join(
    op_id: str,
    assigner: WindowAssigner,
    left_key_field: int | None = None,
    right_key_field: int | None = None,
    parallelism: int = 1,
    selectivity: float = 1.0,
    cost: OperatorCost | None = None,
) -> LogicalOperator:
    """A windowed equi-join (port 0 = left input, port 1 = right input)."""
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.WINDOW_JOIN,
        logic_factory=lambda: WindowJoinLogic(
            assigner, left_key_field, right_key_field
        ),
        parallelism=parallelism,
        selectivity=selectivity,
        window=assigner,
        cost=cost,
        metadata={
            "window": assigner.describe(),
            "key_fields": (left_key_field, right_key_field),
        },
    )


def udo(
    op_id: str,
    logic_factory: Callable[[], OperatorLogic],
    parallelism: int = 1,
    selectivity: float = 1.0,
    cost_scale: float = 1.0,
    cost: OperatorCost | None = None,
    name: str | None = None,
    output_schema: Schema | None = None,
    key_field: int | None = None,
) -> LogicalOperator:
    """A user-defined operator.

    ``cost_scale`` scales the default UDO cost profile: the application
    suite uses it to express how data-intensive each custom operator is
    (the paper's SG/SD/SA operators are far heavier than AD's parsers).
    ``key_field`` declares which value position keys the operator's state
    (used for default hash partitioning and the KEY2xx analysis rules);
    ``output_schema`` declares what the operator emits so downstream field
    references can be checked statically.
    """
    if cost is None:
        cost = default_cost(OperatorKind.UDO).scaled(cost_scale)
    metadata: dict[str, Any] = {"udo_name": name or op_id}
    if key_field is not None:
        metadata["key_field"] = key_field
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.UDO,
        logic_factory=logic_factory,
        parallelism=parallelism,
        selectivity=selectivity,
        cost=cost,
        output_schema=output_schema,
        metadata=metadata,
    )


def sink(
    op_id: str = "sink",
    parallelism: int = 1,
    keep_values: bool = False,
) -> LogicalOperator:
    """The measuring sink."""
    return LogicalOperator(
        op_id=op_id,
        kind=OperatorKind.SINK,
        logic_factory=lambda: SinkLogic(keep_values=keep_values),
        parallelism=parallelism,
        selectivity=1.0,
    )
