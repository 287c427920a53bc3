"""Stream tuples.

A :class:`StreamTuple` carries real values — operators filter, join and
aggregate them for real — plus the timestamps the metrics layer needs:
``event_time`` (logical time of the event) and ``origin_time`` (simulation
time at which the *earliest contributing source tuple* was produced, which is
what the paper's end-to-end latency definition measures against).

``prov`` is the fault-tolerance provenance stamp: a ``(producer_gid,
emit_seq)`` pair assigned to sink-bound results when checkpointing is on
(DESIGN.md §13), which the engine's sink ledger dedupes against under
``delivery="exactly_once"``. It stays ``None`` on every other path.
"""

from __future__ import annotations

from typing import Any

__all__ = ["StreamTuple"]


class StreamTuple:
    """One data tuple flowing through the dataflow graph."""

    __slots__ = (
        "values",
        "key",
        "event_time",
        "origin_time",
        "size_bytes",
        "prov",
    )

    def __init__(
        self,
        values: tuple[Any, ...],
        event_time: float,
        origin_time: float | None = None,
        key: Any = None,
        size_bytes: float = 64.0,
    ) -> None:
        self.values = values
        self.key = key
        self.event_time = event_time
        self.origin_time = event_time if origin_time is None else origin_time
        self.size_bytes = size_bytes
        self.prov = None

    def with_values(
        self, values: tuple[Any, ...], size_bytes: float | None = None
    ) -> "StreamTuple":
        """Copy of this tuple with new values, preserving provenance times.

        Copies assign slots directly instead of going through
        ``__init__``: these run once per tuple per keyed exchange, which
        makes them one of the hottest allocation sites in the simulator.
        """
        clone = StreamTuple.__new__(StreamTuple)
        clone.values = values
        clone.key = self.key
        clone.event_time = self.event_time
        clone.origin_time = self.origin_time
        clone.size_bytes = (
            self.size_bytes if size_bytes is None else size_bytes
        )
        clone.prov = self.prov
        return clone

    def with_key(self, key: Any) -> "StreamTuple":
        """Copy of this tuple re-keyed for hash partitioning."""
        clone = StreamTuple.__new__(StreamTuple)
        clone.values = self.values
        clone.key = key
        clone.event_time = self.event_time
        clone.origin_time = self.origin_time
        clone.size_bytes = self.size_bytes
        clone.prov = self.prov
        return clone

    def with_prov(self, prov: tuple[int, int]) -> "StreamTuple":
        """Copy stamped with a ``(producer_gid, emit_seq)`` provenance id."""
        clone = StreamTuple.__new__(StreamTuple)
        clone.values = self.values
        clone.key = self.key
        clone.event_time = self.event_time
        clone.origin_time = self.origin_time
        clone.size_bytes = self.size_bytes
        clone.prov = prov
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamTuple(values={self.values!r}, key={self.key!r}, "
            f"event_time={self.event_time:.6f})"
        )

