"""The discrete-event kernel: heap, clock, tie-breaks, work accounting.

One :class:`Kernel` executes one totally ordered event sequence. Events
are 6-tuples ``(time, tiebreak, kind, gid, payload, port)``; the kernel
pops them in ``(time, tiebreak)`` order and dispatches on ``kind``
through a caller-supplied handler table. The tie-break is an int:
:meth:`push` assigns the kernel's own monotone counter (the classic
serial sequence number), while a host that numbers events per producer
passes :func:`pack_tiebreak` ``(origin, seq)`` to :meth:`push_tb`, so
the order of equal-time events is invariant under re-partitioning (see
:mod:`repro.kernel.sharded`). Heap entries have one shape either way.

**Work accounting.** ``work_mask[kind]`` marks the *data-plane* kinds:
pushing one increments :attr:`work`, popping one decrements it, and when
the counter hits zero the host's ``on_idle`` callback decides whether to
continue (it typically injects flush work) or stop. Control-plane kinds
(timers, reconfiguration ticks, sampling deadlines) never keep a
simulation alive; a host acts at its instants by pushing them, so the
loop tests nothing per event but the budget and the epoch bound.

The kernel draws no randomness of its own; hosts own their RNG streams.
Every floating-point expression and dispatch decision here keeps the
exact operand order of the pre-extraction engine loop, so committed
golden results are bit-identical (``tests/test_golden_determinism.py``).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

__all__ = [
    "TB_SEQ_BITS",
    "BudgetExceededError",
    "Kernel",
    "pack_tiebreak",
]

#: Width of the per-producer sequence field of a packed tie-break. With
#: ``seq < 2**TB_SEQ_BITS`` the packed int compares exactly as the pair
#: ``(origin, seq)`` does: the origin sits entirely above the sequence
#: bits, so it decides first and the sequence breaks origin ties.
TB_SEQ_BITS = 40


def pack_tiebreak(origin: int, seq: int) -> int:
    """One int ordered like ``(origin, seq)``; ``seq < 2**TB_SEQ_BITS``."""
    return (origin << TB_SEQ_BITS) | seq


class BudgetExceededError(RuntimeError):
    """Raised when a run pops more events than ``max_events`` allows.

    Domain-agnostic on purpose: hosts catch it and re-raise their own
    error type with context (the engine raises ``SimulationError``).
    """

    def __init__(self, max_events: int) -> None:
        super().__init__(f"event budget exceeded ({max_events})")
        self.max_events = max_events


class Kernel:
    """One event heap plus the simulated clock that drains it."""

    __slots__ = (
        "heap",
        "now",
        "seq",
        "work",
        "events_processed",
        "work_mask",
    )

    def __init__(self, work_mask: tuple[bool, ...]) -> None:
        #: which event kinds carry work accounting, indexed by kind
        self.work_mask = work_mask
        self.heap: list = []
        self.now = 0.0
        self.seq = 0
        self.work = 0
        self.events_processed = 0

    def reset(self) -> None:
        """Restore pristine pre-run state (heap empty, clock at zero)."""
        self.heap = []
        self.now = 0.0
        self.seq = 0
        self.work = 0
        self.events_processed = 0

    # -------------------------------------------------------------- schedule

    def push(self, time: float, kind: int, gid: int, payload, port: int):
        """Schedule an event with the next serial tie-break number."""
        self.seq += 1
        if self.work_mask[kind]:
            self.work += 1
        heappush(self.heap, (time, self.seq, kind, gid, payload, port))

    def push_tb(
        self, time: float, tb: int, kind: int, gid: int, payload, port
    ):
        """Schedule an event under a caller-supplied tie-break.

        Sharded execution packs ``(origin_gid, origin_seq)``
        (:func:`pack_tiebreak`): the tie-break then depends only on the
        event's producer, never on global pop order, so equal-time
        ordering is identical for every shard count.
        """
        if self.work_mask[kind]:
            self.work += 1
        heappush(self.heap, (time, tb, kind, gid, payload, port))

    def next_event_time(self) -> float:
        """Time of the earliest pending event (``inf`` when empty)."""
        return self.heap[0][0] if self.heap else math.inf

    # ------------------------------------------------------------------ run

    def run(
        self,
        handlers,
        *,
        max_events: int,
        until: float | None = None,
        on_idle=None,
    ) -> None:
        """Drain the heap, dispatching each event through ``handlers``.

        ``handlers[kind](gid, payload, port)`` runs for every popped
        event. ``until`` stops *before* popping the first event at
        ``time >= until`` (conservative epoch boundary; the event stays
        queued). ``on_idle`` runs whenever the work counter reaches
        zero: return True to keep draining (new work was injected),
        False to stop. Without ``on_idle`` the loop ignores idleness —
        a sharded worker's local quiescence says nothing global.

        Raises :class:`BudgetExceededError` once more than
        ``max_events`` events have been popped over the kernel's
        lifetime (the counter persists across epoch calls).
        """
        heap = self.heap
        work_mask = self.work_mask
        events = self.events_processed
        try:
            while heap:
                if events > max_events:
                    raise BudgetExceededError(max_events)
                if until is not None and heap[0][0] >= until:
                    break
                time, _, kind, gid, payload, port = heappop(heap)
                events += 1
                self.now = time
                if work_mask[kind]:
                    self.work -= 1
                    handlers[kind](gid, payload, port)
                    if (
                        self.work == 0
                        and on_idle is not None
                        and not on_idle()
                    ):
                        break
                else:
                    handlers[kind](gid, payload, port)
        finally:
            self.events_processed = events
