"""Data partitioning strategies.

Table 3 lists the partitioning strategies PDSP-Bench exercises between
operator instances: **forward**, **rebalance** and **hashing**; broadcast is
included as well since several real-world applications (e.g. ad analytics)
need it. A partitioner maps each outgoing tuple of a producer subtask to one
or more consumer subtask indices.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ConfigurationError, PlanError
from repro.sps.tuples import StreamTuple

__all__ = [
    "Partitioner",
    "ForwardPartitioner",
    "RebalancePartitioner",
    "HashPartitioner",
    "BroadcastPartitioner",
]


def _stable_hash(key: Any) -> int:
    """Deterministic hash, stable across processes (unlike ``hash(str)``)."""
    if isinstance(key, str):
        value = 1469598103934665603  # FNV-1a 64-bit
        for char in key.encode("utf-8"):
            value ^= char
            value = (value * 1099511628211) % (1 << 64)
        return value
    if isinstance(key, float):
        key = int(key * 1e6)
    if isinstance(key, tuple):
        combined = 0
        for part in key:
            combined = (combined * 31 + _stable_hash(part)) % (1 << 64)
        return combined
    return int(key) % (1 << 64)


class Partitioner:
    """Chooses consumer subtask indices for each tuple of a channel group.

    One partitioner instance exists *per producer subtask* so stateful
    strategies (round-robin counters) do not share state across producers —
    matching how Flink instantiates channel selectors.
    """

    name: str = "abstract"

    #: Whether the strategy requires producer and consumer parallelism to
    #: match (Flink's constraint for forward exchanges).
    requires_equal_parallelism: bool = False

    #: Whether each tuple goes to every consumer.
    is_broadcast: bool = False

    def select(self, tup: StreamTuple, num_consumers: int) -> list[int]:
        """Consumer indices (in ``range(num_consumers)``) for this tuple."""
        raise NotImplementedError

    def constant_indices(self, num_consumers: int) -> list[int] | None:
        """Indices when ``select`` is tuple-independent, else None.

        Lets the engine resolve forward/broadcast fan-out once at build
        time instead of allocating an index list per tuple. Strategies
        whose choice depends on the tuple (hash) or on internal state
        (rebalance) return None. Returning None when the configuration
        is invalid preserves the original runtime error from ``select``.
        """
        return None

    def clone(self) -> "Partitioner":
        """Fresh instance with reset state, for a new producer subtask."""
        return type(self)()

    def describe(self) -> str:
        """Label used in plan dumps and ML features."""
        return self.name


class ForwardPartitioner(Partitioner):
    """Producer instance *i* sends only to consumer instance *i*.

    Valid only when both sides have equal parallelism; the physical planner
    enforces this, as Flink does.
    """

    name = "forward"
    requires_equal_parallelism = True

    def __init__(self, producer_index: int = 0) -> None:
        self._producer_index = producer_index

    def select(self, tup: StreamTuple, num_consumers: int) -> list[int]:
        if self._producer_index >= num_consumers:
            raise PlanError(
                f"forward channel from producer {self._producer_index} has "
                f"only {num_consumers} consumers; parallelism must match"
            )
        return [self._producer_index]

    def constant_indices(self, num_consumers: int) -> list[int] | None:
        if self._producer_index >= num_consumers:
            return None  # select() will raise the PlanError at runtime
        return [self._producer_index]

    def clone(self) -> "ForwardPartitioner":
        return ForwardPartitioner(self._producer_index)

    def for_producer(self, producer_index: int) -> "ForwardPartitioner":
        """Bind the partitioner to a producer subtask index."""
        return ForwardPartitioner(producer_index)


class RebalancePartitioner(Partitioner):
    """Round-robin distribution across all consumers."""

    name = "rebalance"

    def __init__(self) -> None:
        self._next = 0

    def select(self, tup: StreamTuple, num_consumers: int) -> list[int]:
        if num_consumers <= 0:
            raise PlanError("rebalance needs at least one consumer")
        index = self._next % num_consumers
        self._next += 1
        return [index]


class HashPartitioner(Partitioner):
    """Key-hash distribution: all tuples of a key reach the same consumer.

    ``key_field`` selects which value position provides the key when the
    tuple has no key set yet (the keyBy step of the dataflow).
    """

    name = "hash"

    def __init__(self, key_field: int | None = None) -> None:
        if key_field is not None and key_field < 0:
            raise ConfigurationError("key_field must be non-negative")
        self.key_field = key_field
        # _stable_hash is pure, and real key domains (words, sensor ids)
        # repeat heavily — memoize per producer instance.
        self._hash_cache: dict = {}

    def extract_key(self, tup: StreamTuple) -> Any:
        """The partitioning key for a tuple."""
        if self.key_field is not None:
            return tup.values[self.key_field]
        if tup.key is None:
            raise PlanError(
                "hash partitioning needs a key: set key_field or key tuples "
                "upstream"
            )
        return tup.key

    def select(self, tup: StreamTuple, num_consumers: int) -> list[int]:
        if num_consumers <= 0:
            raise PlanError("hash partitioning needs at least one consumer")
        key = self.extract_key(tup)
        try:
            value = self._hash_cache[key]
        except KeyError:
            value = self._hash_cache[key] = _stable_hash(key)
        except TypeError:  # unhashable key: compute without caching
            value = _stable_hash(key)
        return [value % num_consumers]

    def rekey_select(
        self, tup: StreamTuple, num_consumers: int
    ) -> tuple[StreamTuple, list[int]]:
        """The keyBy step and :meth:`select` of a ``key_field`` exchange
        in one: the tuple keyed by that field, and its channel.

        The engine's per-tuple route step; it reads the key once and
        repeats :meth:`select`'s lookup rather than calling it.
        """
        if num_consumers <= 0:
            raise PlanError("hash partitioning needs at least one consumer")
        key = tup.values[self.key_field]
        try:
            value = self._hash_cache[key]
        except KeyError:
            value = self._hash_cache[key] = _stable_hash(key)
        except TypeError:  # unhashable key: compute without caching
            value = _stable_hash(key)
        return tup.with_key(key), [value % num_consumers]

    def clone(self) -> "HashPartitioner":
        return HashPartitioner(self.key_field)

    def describe(self) -> str:
        if self.key_field is None:
            return "hash"
        return f"hash(f{self.key_field})"


class BroadcastPartitioner(Partitioner):
    """Every tuple is replicated to every consumer."""

    name = "broadcast"
    is_broadcast = True

    def select(self, tup: StreamTuple, num_consumers: int) -> list[int]:
        if num_consumers <= 0:
            raise PlanError("broadcast needs at least one consumer")
        return list(range(num_consumers))

    def constant_indices(self, num_consumers: int) -> list[int] | None:
        if num_consumers <= 0:
            return None  # select() will raise the PlanError at runtime
        return list(range(num_consumers))
