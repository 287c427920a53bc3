"""Recorded-trace replay: the Kafka data-producer stand-in.

For real-world applications the paper feeds the SUT from Kafka and
"repeat[s] the data stream read from the source to mimic infinite data
streams". This module provides the same facility for the simulator:

- :class:`RecordedTrace` — a finite sequence of value tuples (a
  "topic"), loadable from / savable to the document store;
- :func:`replay_generator` — wraps a trace into the engine's tuple
  generator, cycling it forever (each source subtask starts at a
  different offset so parallel sources don't emit in lock-step);
- :func:`diurnal_rate_profile` — a day-curve modulation for arrival
  rates, approximating the non-stationary load of traces like the
  DEBS 2014 smart-plug recordings.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.common.errors import ConfigurationError, check_time
from repro.sps.tuples import StreamTuple
from repro.sps.types import Schema

__all__ = ["RecordedTrace", "replay_generator", "diurnal_rate_profile"]


class RecordedTrace:
    """A finite recorded stream of value tuples with a schema."""

    def __init__(self, name: str, schema: Schema, rows: Sequence[tuple]):
        if not rows:
            raise ConfigurationError("a trace needs at least one row")
        width = schema.width
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ConfigurationError(
                    f"trace row {i} has {len(row)} values, schema "
                    f"expects {width}"
                )
        self.name = name
        self.schema = schema
        self.rows = [tuple(row) for row in rows]

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def record(
        cls,
        name: str,
        schema: Schema,
        sampler,
        count: int,
        rng: np.random.Generator,
    ) -> "RecordedTrace":
        """Record a trace by sampling a generator ``count`` times."""
        if count < 1:
            raise ConfigurationError("count must be >= 1")
        return cls(name, schema, [sampler(rng) for _ in range(count)])

    # --------------------------------------------------------- persistence

    def save(self, collection) -> int:
        """Persist the trace (schema + rows) in a document store."""
        return collection.insert_one(
            {
                "name": self.name,
                "fields": [
                    {"name": f.name, "dtype": f.dtype.value}
                    for f in self.schema.fields
                ],
                "rows": [list(row) for row in self.rows],
            }
        )

    @classmethod
    def load(cls, collection, name: str) -> "RecordedTrace":
        """Load a trace by name."""
        document = collection.find_one({"name": name})
        if document is None:
            raise ConfigurationError(f"no recorded trace named {name!r}")
        from repro.sps.types import DataType, Field

        schema = Schema(
            [
                Field(f["name"], DataType(f["dtype"]))
                for f in document["fields"]
            ]
        )
        return cls(
            name, schema, [tuple(row) for row in document["rows"]]
        )


class _ReplayCursor:
    """One reader of a trace: the rows it cycles and where it is."""

    def __init__(self, rows: list[tuple], size: float) -> None:
        self._rows = rows
        self._size = size
        self._cursor: int | None = None

    def per_subtask(self) -> "_ReplayCursor":
        """A reader of the same rows that has not started yet."""
        return _ReplayCursor(self._rows, self._size)

    def __call__(self, rng: np.random.Generator, now: float) -> StreamTuple:
        rows = self._rows
        if self._cursor is None:
            self._cursor = int(rng.integers(len(rows)))
        row = rows[self._cursor]
        self._cursor = (self._cursor + 1) % len(rows)
        return StreamTuple(values=row, event_time=now, size_bytes=self._size)


def replay_generator(trace: RecordedTrace):
    """A ``(rng, now) -> StreamTuple`` generator cycling the trace.

    The returned callable holds a cursor, so it is one reader; a source
    gives every subtask its own through the generator's ``per_subtask()``
    (see :data:`~repro.sps.operators.source.TupleGenerator`), which is
    what keeps a plan's runs repeatable and its shards independent. Each
    reader draws its starting offset from the first rng it is called
    with — the subtask's own — so parallel source instances do not
    replay in lock-step (the paper's Kafka consumers read distinct
    partitions).
    """
    return _ReplayCursor(trace.rows, float(trace.schema.tuple_size_bytes()))


def diurnal_rate_profile(
    base_rate: float,
    peak_factor: float = 2.0,
    day_length_s: float = 10.0,
):
    """A day-curve rate modulation function ``time -> rate``.

    Compresses a 24h load curve into ``day_length_s`` simulated seconds:
    the rate swings sinusoidally between ``base_rate / peak_factor``
    (night) and ``base_rate * peak_factor`` (evening peak), which is the
    non-stationarity pattern of smart-grid and traffic traces.
    """
    check_time("base_rate", base_rate)
    if not 1.0 <= peak_factor < np.inf:
        raise ConfigurationError("peak_factor must be >= 1, finite")
    check_time("day_length_s", day_length_s)
    log_peak = np.log(peak_factor)

    def rate_at(now: float) -> float:
        phase = 2.0 * np.pi * (now % day_length_s) / day_length_s
        return float(base_rate * np.exp(log_peak * np.sin(phase)))

    return rate_at
