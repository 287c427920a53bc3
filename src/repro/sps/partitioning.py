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


def _memo_hash(memo: dict, key: Any, key_field: int | None) -> int:
    """``_stable_hash(key)``, memoised in ``memo`` for a str key only: an
    int, float or tuple key can equal a key of another type whose hash
    differs (``(1,) == (1.0,)``). A key it cannot hash — a list, dict or
    set (or a tuple holding one), a NaN or an infinite float — is a
    :class:`PlanError` naming the key and the value's type."""
    try:
        return memo[key]
    except (KeyError, TypeError):
        pass
    try:
        value = _stable_hash(key)
    except (TypeError, ValueError, OverflowError):
        where = "tuple key" if key_field is None else f"key field {key_field}"
        raise PlanError(
            f"hash partitioning cannot hash the {where}: a "
            f"{type(key).__name__} value {key!r}"
        ) from None
    if isinstance(key, str):
        memo[key] = value
    return value


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

    def channel(self, tup: StreamTuple, num_consumers: int) -> int:
        """The one consumer index (in ``range(num_consumers)``) this
        tuple takes: every strategy but broadcast picks exactly one."""
        raise NotImplementedError

    def select(self, tup: StreamTuple, num_consumers: int) -> list[int]:
        """Consumer indices (in ``range(num_consumers)``) for this tuple."""
        return [self.channel(tup, num_consumers)]

    def constant_indices(self, num_consumers: int) -> list[int] | None:
        """Indices when ``select`` is tuple-independent, else None.

        Lets the engine resolve forward/broadcast fan-out once at build
        time instead of calling the partitioner per tuple. Strategies
        whose choice depends on the tuple (hash) or on internal state
        (rebalance) return None. Returning None when the configuration
        is invalid preserves the runtime error from ``channel``.
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

    def channel(self, tup: StreamTuple, num_consumers: int) -> int:
        if self._producer_index >= num_consumers:
            raise PlanError(
                f"forward channel from producer {self._producer_index} has "
                f"only {num_consumers} consumers; parallelism must match"
            )
        return self._producer_index

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

    def channel(self, tup: StreamTuple, num_consumers: int) -> int:
        if num_consumers <= 0:
            raise PlanError("rebalance needs at least one consumer")
        index = self._next % num_consumers
        self._next += 1
        return index


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
        # A str key's _stable_hash is a loop over its bytes, and word
        # domains repeat: it is memoised per producer (_memo_hash). An
        # int key is one wrap, `key % 2**64`, and is never memoised:
        # fig4-bottom's int keys missed a memo keyed by every value
        # 319 191 times across its 2 304 producers.
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

    def channel(self, tup: StreamTuple, num_consumers: int) -> int:
        if num_consumers <= 0:
            raise PlanError("hash partitioning needs at least one consumer")
        key = self.extract_key(tup)
        if isinstance(key, int):
            return key % (1 << 64) % num_consumers
        value = _memo_hash(self._hash_cache, key, self.key_field)
        return value % num_consumers

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
