"""Host-speed reference: what a second is worth on this host right now.

The suite runs on a few cores of a shared host whose speed, for
single-threaded Python, moves by 30-60 % for seconds to minutes at a
time (neighbours on the sibling hyperthread and in the shared cache; no
steal time is reported, so CPU seconds move with wall seconds). Two runs
of the same code ten minutes apart differ by more than any change the
benchmark is meant to catch, whatever statistic of the raw timings is
taken.

So every timed job is bracketed by a *reference sample*: ~10 ms of fixed
work that uses only the standard library and numpy — never the program
under test — and mixes what the program's layers do: interpreter
arithmetic, a heap-and-dict event loop, small numpy draws. A job's
**calibrated** seconds are its measured seconds times
``REFERENCE_S / mean(sample before, sample after)``: the seconds it
would take on the nominal host, the one on which the reference takes
exactly :data:`REFERENCE_S`. A change to the program moves a job's
seconds and not the reference's, so it shows undiminished; a slow
stretch of the host moves both, and cancels.

Measured on this host (600 s of back-to-back passes, windows of ~10 s):
the spread of the median pass between windows falls from 11-25 % raw to
2-6 % calibrated.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

__all__ = ["REFERENCE_S", "reference", "sample", "calibrated"]

#: Duration of the reference on the nominal host. A constant of the
#: benchmark: changing it rescales every calibrated second ever
#: recorded. This host takes ~9 ms when its neighbours rest, so
#: calibrated seconds read a little above quiet-host seconds.
REFERENCE_S = 0.010


def _interpreter() -> int:
    """Bytecode dispatch and small-int arithmetic."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _event_loop() -> int:
    """Heap pops and pushes of tuples, dict updates, allocation."""
    rng = np.random.default_rng(1)
    heap = [(float(i), i, (i,)) for i in range(500)]
    heapq.heapify(heap)
    state: dict[int, float] = {}
    for n in range(3000):
        now, origin, _ = heapq.heappop(heap)
        key = origin % 300
        state[key] = state.get(key, 0.0) + now
        heapq.heappush(heap, (now + float(rng.random()), n, (n, origin)))
    return len(state)


def _small_numpy() -> float:
    """Per-call overhead of numpy on short arrays, as datagen pays it."""
    rng = np.random.default_rng(2)
    total = 0.0
    for _ in range(1000):
        total += float(rng.random(12).sum())
        rng.integers(100)
    return total


def reference() -> tuple:
    """Do the fixed work once; its results (the same on every call)."""
    return _interpreter(), _event_loop(), _small_numpy()


def sample() -> float:
    """Wall seconds one :func:`reference` takes right now.

    One go, not the faster of two: a job's seconds take in every
    interruption of the host, so the sample must too. (Tried: with the
    faster of two halves, runs in a slow stretch read 5-10 % high.)
    """
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two samples, on the nominal host."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
