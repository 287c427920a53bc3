"""Operator logic interface.

One :class:`OperatorLogic` instance exists per *subtask* (parallel operator
instance); its state is therefore naturally partitioned, as in Flink. The
engine drives the instance through :meth:`process` for each delivered tuple,
:meth:`on_time` on its recurring timer (if it requests one via
:attr:`timer_interval`) and :meth:`flush` at end of stream.
"""

from __future__ import annotations

import copy
from functools import cached_property

import numpy as np

from repro.ft.store import estimate_items
from repro.sps.tuples import StreamTuple

__all__ = ["OperatorContext", "OperatorLogic", "clone_slots"]


def clone_slots(obj):
    """Shallow copy of a ``__slots__`` accumulator — the building block
    of the built-in logics' structure-sharing snapshots."""
    new = object.__new__(type(obj))
    for name in obj.__slots__:
        setattr(new, name, getattr(obj, name))
    return new


class OperatorContext:
    """Runtime information handed to a logic instance at setup. ``rng``
    is a generator or, from the engine, a zero-argument callable that
    opens one at the first read of ``ctx.rng``: a subtask that never
    draws opens no stream. Every read returns the same generator."""

    def __init__(
        self, op_id: str, subtask_index: int, parallelism: int, rng
    ) -> None:
        self.op_id = op_id
        self.subtask_index = subtask_index
        self.parallelism = parallelism
        self._rng = rng

    @cached_property
    def rng(self) -> np.random.Generator:
        rng = self._rng
        return rng if isinstance(rng, np.random.Generator) else rng()


class OperatorLogic:
    """Base class for all operator logics."""

    #: If set, the engine fires :meth:`on_time` every ``timer_interval``
    #: simulated seconds (used by time-window operators to emit results even
    #: when input pauses).
    timer_interval: float | None = None

    #: Relative per-tuple work factor; the engine multiplies the operator's
    #: base cost by this. Logics may override :meth:`work_units` for
    #: data-dependent costs instead.
    work_factor: float = 1.0

    #: Whether the engine may change this operator's parallelism mid-run.
    #: False by default: a logic must opt in, either because it holds no
    #: cross-tuple state or because it implements the keyed-state
    #: migration pair below. Opting in with hidden instance state would
    #: silently drop that state at a rescale, so the conservative default
    #: protects arbitrary user logics.
    rescale_supported: bool = False

    def setup(self, ctx: OperatorContext) -> None:
        """Bind the logic to its subtask. Default: store the context."""
        self.ctx = ctx

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        """Handle one input tuple; return output tuples (possibly empty)."""
        raise NotImplementedError

    def on_time(self, now: float) -> list[StreamTuple]:
        """Timer callback; return output tuples. Default: nothing."""
        return []

    def flush(self, now: float) -> list[StreamTuple]:
        """End-of-stream: emit whatever is still buffered. Default: nothing."""
        return []

    def work_units(self, tup: StreamTuple) -> float:
        """Per-tuple work multiplier (default: :attr:`work_factor`)."""
        return self.work_factor

    # --------------------------------------------------- rescale protocol
    #
    # Live rescaling (DESIGN.md §12) drains an operator's subtasks to a
    # barrier, exports every old instance's keyed state, re-partitions the
    # keys by the same stable hash the HashPartitioner routes with, and
    # imports each bucket into a fresh instance — moving state, replaying
    # nothing. Stateless logics keep the default no-op pair and simply set
    # ``rescale_supported = True``.

    def export_keyed_state(self):
        """Hand off per-key state for migration, clearing it locally.

        Returns ``[(key, payload), ...]`` in this instance's
        deterministic key order (first-seen rank), or ``None`` when the
        logic is stateless. Payloads are moved, never copied — after
        export this instance must hold no keyed state.
        """
        return None

    def import_keyed_state(self, items) -> None:
        """Adopt migrated ``(key, payload)`` pairs into a fresh instance.

        Called at most once, before the instance serves any tuple, with
        the keys hash-assigned to this subtask in old-subtask-major
        order (which pins the new first-seen ranks deterministically).
        """
        if items:
            raise NotImplementedError(
                f"{type(self).__name__} does not implement keyed-state "
                "import; it must not set rescale_supported"
            )

    # ---------------------------------------------------- checkpoint protocol
    #
    # Aligned-barrier checkpointing (DESIGN.md §13) snapshots a subtask's
    # state when a barrier has arrived on all of its input channels and
    # restores it after a failure. A snapshot is an *immutable view*:
    # nothing reachable from it is ever mutated — not by the live
    # instance that took it, not by any instance restored from it (one
    # checkpoint can seed several recoveries). The built-in stateful
    # logics therefore share everything they never write again (sealed
    # window slices, buffered tuples) with their snapshots and copy only
    # the open accumulators, in ``snapshot_state`` and again in
    # ``restore_state``. A logic that overrides ``snapshot_state`` must
    # return something it will not mutate afterwards. The defaults below
    # serve logics that implement only the (destructive) migration pair:
    # they cannot know what is sealed, so they deep-copy both ways.

    def snapshot_state(self):
        """This instance's state as an immutable snapshot (or None)."""
        exported = self.export_keyed_state()
        if exported is None:
            return None
        snapshot = copy.deepcopy(exported)
        self.import_keyed_state(exported)
        return snapshot

    def restore_state(self, snapshot) -> None:
        """Adopt a checkpoint snapshot into a fresh instance."""
        if snapshot:
            self.import_keyed_state(copy.deepcopy(snapshot))

    def state_items(self) -> int:
        """``estimate_items(self.snapshot_state())``, computed without
        taking the snapshot where the logic can (state-loss accounting)."""
        return estimate_items(self.snapshot_state())

    # ------------------------------------------------------- batch protocol
    #
    # Batch mode (repro.sps.batch) probes each logic for a vectorized form
    # via ``supports_batch``; instances answering True are driven through
    # ``process_batch`` with whole TupleBatch inputs, all others through the
    # automatic per-tuple scalar fallback (``process``/``on_time``/``flush``
    # exactly as the scalar engine calls them). The base class opts out, so
    # arbitrary UDOs are batch-safe by construction.

    def supports_batch(self) -> bool:
        """Whether this instance has a vectorized batch form."""
        return False
