"""Synthetic data stream generation.

A :class:`StreamSpec` fixes a schema (tuple width + per-field types, per
Table 3's domain randomization), a value distribution per field, an event
rate and an arrival process. It compiles to the columnar block generator
that :func:`repro.sps.builders.source` wraps as ``vector_generator`` — one
definition of the stream for the scalar loop, the batch executor and the
shards alike — so the same spec drives both the simulated benchmark runs
and the ML feature encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.workload.distributions import (
    ValueDistribution,
    default_distribution,
)
from repro.workload.parameter_space import ParameterSpace

__all__ = ["FieldSpec", "StreamSpec", "kv_block", "random_stream_spec"]


def kv_block(num_keys: int):
    """Block sampler of a keyed ``(k: INT, v: DOUBLE)`` stream.

    ``k`` is uniform over ``num_keys`` keys, ``v`` uniform on [0, 1) —
    the source of the bench plans and of the elastic and FT workloads.
    Row ``i`` holds tuple ``i``'s two draws contiguously, so the stream
    is consumed in row order however it is split into calls.
    """

    def generate_block(rng: np.random.Generator, n: int) -> tuple:
        draws = rng.random((n, 2))
        keys = (draws[:, 0] * num_keys).astype(np.int64)
        return (keys, np.ascontiguousarray(draws[:, 1])), 24.0

    return generate_block


@dataclass(frozen=True)
class FieldSpec:
    """One field: a name plus the distribution its values are drawn from."""

    name: str
    distribution: ValueDistribution

    @property
    def dtype(self) -> DataType:
        """The field's data type, inherited from its distribution."""
        return self.distribution.dtype

    def to_field(self) -> Field:
        """The schema field this spec describes."""
        return Field(self.name, self.dtype)


@dataclass(frozen=True)
class StreamSpec:
    """A complete synthetic data stream description."""

    name: str
    fields: tuple[FieldSpec, ...]
    event_rate: float
    arrival: str = "poisson"

    def __post_init__(self) -> None:
        if not self.fields:
            raise ConfigurationError("stream needs at least one field")
        if self.event_rate <= 0:
            raise ConfigurationError("event rate must be positive")
        if self.arrival not in ("poisson", "constant", "bursty"):
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}"
            )

    def schema(self) -> Schema:
        """The stream's tuple schema."""
        return Schema([fs.to_field() for fs in self.fields])

    @property
    def tuple_width(self) -> int:
        """Number of data items per tuple."""
        return len(self.fields)

    def block_generator(self):
        """Compile to the columnar ``(rng, n) -> (columns, size)`` form.

        One call draws ``n`` rows **column-major**: field by field in
        schema order, ``n`` values from that field's own
        :meth:`~repro.workload.distributions.ValueDistribution.sample_block`.
        A source reads it in fixed
        :data:`~repro.sps.operators.source.SOURCE_CHUNK`-row chunks
        (DESIGN.md §1), which is what makes a generated stream's values
        the same under every executor and batch size. The closure holds
        no state: it is shared by every subtask of a source.
        """
        samplers = tuple(fs.distribution.sample_block for fs in self.fields)
        size = float(self.schema().tuple_size_bytes())

        def generate_block(rng: np.random.Generator, n: int) -> tuple:
            return tuple([draw(rng, n) for draw in samplers]), size

        return generate_block

    def generator(self):
        """Compile to a ``(rng, now) -> StreamTuple`` callable.

        The row-major form — one ``sample(rng)`` per field per tuple, the
        one-row chunk of :meth:`block_generator` — for callers that draw
        single tuples from a bare generator. The per-field samplers and
        the tuple size are bound once here; the closure is shared by
        every subtask of a source, so the samplers take ``rng`` per call.
        """
        samplers = tuple(fs.distribution.sample for fs in self.fields)
        size = float(self.schema().tuple_size_bytes())

        def generate(rng: np.random.Generator, now: float) -> StreamTuple:
            values = tuple([sample(rng) for sample in samplers])
            return StreamTuple(values=values, event_time=now, size_bytes=size)

        return generate

    def numeric_field_indices(self) -> list[int]:
        """Indices of all numeric (int/double) fields."""
        return [
            i
            for i, fs in enumerate(self.fields)
            if fs.dtype is not DataType.STRING
        ]

    def describe(self) -> str:
        """e.g. ``stream0(w=5, rate=100000/s)``."""
        return (
            f"{self.name}(w={self.tuple_width}, "
            f"rate={self.event_rate:g}/s, {self.arrival})"
        )


def random_stream_spec(
    name: str,
    rng: np.random.Generator,
    space: ParameterSpace | None = None,
    event_rate: float | None = None,
    ensure_numeric: bool = True,
    ensure_int_key: bool = True,
    key_cardinality: int | None = None,
) -> StreamSpec:
    """Domain-randomized stream: random width, types and distributions.

    ``ensure_numeric`` forces at least one numeric field (so aggregations
    have something to aggregate); ``ensure_int_key`` forces field 0 to be a
    bounded integer key (so joins and keyed windows have sane cardinality),
    mirroring how the paper's generated queries always have valid keys.
    """
    space = space or ParameterSpace()
    width = space.sample_tuple_width(rng)
    fields: list[FieldSpec] = []
    for i in range(width):
        dtype = space.sample_data_type(rng)
        fields.append(
            FieldSpec(f"f{i}", default_distribution(dtype, rng))
        )
    if ensure_int_key:
        from repro.workload.distributions import UniformInt

        cardinality = key_cardinality or space.key_cardinality
        fields[0] = FieldSpec("f0", UniformInt(0, cardinality - 1))
    if ensure_numeric and not any(
        fs.dtype is not DataType.STRING for fs in fields[1:]
    ):
        from repro.workload.distributions import UniformDouble

        if width == 1:
            fields.append(FieldSpec("f1", UniformDouble(0.0, 1.0)))
        else:
            fields[-1] = FieldSpec(
                fields[-1].name, UniformDouble(0.0, 1.0)
            )
    rate = (
        float(event_rate)
        if event_rate is not None
        else space.sample_event_rate(rng)
    )
    return StreamSpec(name=name, fields=tuple(fields), event_rate=rate)
