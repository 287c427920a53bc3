"""The in-simulation checkpoint state store.

One :class:`StateStore` lives inside one engine run. Checkpoints are
*aligned-barrier* snapshots (DESIGN.md §13): the engine injects a
barrier at the sources, every stateful subtask snapshots its keyed
state when the barrier has arrived on all of its input channels, and
the checkpoint completes when every participant has acknowledged. The
store keeps the completed :class:`CheckpointRecord` sequence plus the
accounting (durations, sizes, skips) that surfaces in
``RunMetrics.extras["ft"]`` and the obs summary.

The store is deliberately simulation-local: a snapshot is whatever
``OperatorLogic.snapshot_state`` returned — an immutable view that may
share sealed structure with the live operator (see the invariant in
``sps/operators/base.py``); the store only holds it and never looks
inside beyond :func:`estimate_items`. "Bytes" is a nominal per-item
cost — the benchmark measures protocol behaviour (alignment, recovery
time, delivery guarantees), not serialization throughput. Only the
newest completed record keeps its snapshots (it is the only one a
recovery restores); older records keep their accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CheckpointRecord",
    "StateStore",
    "DELIVERY_MODES",
    "STATE_BYTES_PER_ITEM",
    "estimate_items",
    "validate_delivery",
]

#: Accepted values of ``SimulationConfig.delivery``.
DELIVERY_MODES = ("exactly_once", "at_least_once")

#: Nominal serialized size of one state item (key + payload), used for
#: the state-size accounting. Deterministic and cheap by construction.
STATE_BYTES_PER_ITEM = 48.0


def validate_delivery(mode: str) -> str:
    """Return ``mode`` if it is a known delivery guarantee; raise else."""
    if mode not in DELIVERY_MODES:
        raise ValueError(
            f"unknown delivery mode {mode!r}; "
            f"use one of {', '.join(DELIVERY_MODES)}"
        )
    return mode


def estimate_items(snapshot) -> int:
    """Nominal item count of one subtask snapshot.

    Keyed snapshots are ``[(key, payload), ...]`` lists (one item per
    key); opaque snapshots (UDO dicts, join buffers) count their
    top-level entries; anything else counts as a single item.
    """
    if snapshot is None:
        return 0
    if isinstance(snapshot, (list, dict)):
        return len(snapshot)
    if isinstance(snapshot, tuple):
        total = 0
        for part in snapshot:
            if isinstance(part, (list, dict)):
                total += len(part)
        return max(total, 1)
    return 1


@dataclass
class CheckpointRecord:
    """One completed aligned checkpoint (the recovery restart point)."""

    ckpt_id: int
    triggered_at: float
    completed_at: float = 0.0
    #: source gid -> durable-log offset (tuples delivered downstream)
    source_offsets: dict = field(default_factory=dict)
    #: producer gid -> sink-bound emission sequence number at the barrier
    emit_seqs: dict = field(default_factory=dict)
    #: subtask gid -> operator state snapshot (None = stateless);
    #: emptied once a newer checkpoint completes
    snapshots: dict = field(default_factory=dict)
    state_items: int = 0
    state_bytes: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.completed_at - self.triggered_at


class StateStore:
    """Holds the in-progress checkpoint and the completed sequence."""

    def __init__(self) -> None:
        self.completed: list[CheckpointRecord] = []
        self.skipped = 0
        self._active: CheckpointRecord | None = None
        self._next_id = 1

    @property
    def active(self) -> CheckpointRecord | None:
        return self._active

    def begin(self, now: float) -> CheckpointRecord:
        """Open a new checkpoint; refuses to overlap an active one."""
        if self._active is not None:
            raise RuntimeError("a checkpoint is already in progress")
        record = CheckpointRecord(ckpt_id=self._next_id, triggered_at=now)
        self._next_id += 1
        self._active = record
        return record

    def skip(self) -> None:
        """A trigger fired while a checkpoint was still aligning."""
        self.skipped += 1

    def add_snapshot(self, gid: int, snapshot) -> None:
        """Record subtask ``gid``'s state snapshot into the active
        checkpoint, accruing its size accounting."""
        record = self._active
        if record is None:
            raise RuntimeError("no checkpoint in progress")
        record.snapshots[gid] = snapshot
        items = estimate_items(snapshot)
        record.state_items += items
        record.state_bytes += items * STATE_BYTES_PER_ITEM

    def complete(self, now: float) -> CheckpointRecord:
        """Close the active checkpoint (all participants acknowledged)."""
        record = self._active
        if record is None:
            raise RuntimeError("no checkpoint in progress")
        record.completed_at = now
        if self.completed:
            self.completed[-1].snapshots = {}  # superseded: never restored
        self.completed.append(record)
        self._active = None
        return record

    def abort(self) -> None:
        """Drop the in-progress checkpoint (a failure interrupted it)."""
        self._active = None

    def latest(self) -> CheckpointRecord | None:
        """The most recent *completed* checkpoint, or None."""
        if not self.completed:
            return None
        return self.completed[-1]

    def duration_mean_s(self) -> float:
        """Mean trigger-to-completion duration of completed checkpoints."""
        if not self.completed:
            return 0.0
        total = 0.0
        for record in self.completed:
            total += record.duration_s
        return total / len(self.completed)
