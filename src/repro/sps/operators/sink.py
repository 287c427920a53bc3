"""Sink logic: terminates the dataflow and records result latencies."""

from __future__ import annotations

from repro.sps.operators.base import OperatorLogic
from repro.sps.tuples import StreamTuple

__all__ = ["SinkLogic"]


class SinkLogic(OperatorLogic):
    """Collects end-to-end latency samples.

    Latency of a result = sink arrival time - origin time of the earliest
    source tuple contributing to it (the paper's end-to-end definition).
    ``keep_values`` optionally retains result values for correctness tests.
    """

    def __init__(self, keep_values: bool = False, max_kept: int = 100_000):
        self.latencies: list[float] = []
        self.arrival_times: list[float] = []
        self.keep_values = keep_values
        self.max_kept = max_kept
        self.results: list[tuple] = []
        self.received = 0

    def process(
        self, tup: StreamTuple, now: float, port: int = 0
    ) -> list[StreamTuple]:
        self.received += 1
        self.latencies.append(now - tup.origin_time)
        self.arrival_times.append(now)
        if self.keep_values and len(self.results) < self.max_kept:
            self.results.append(tup.values)
        return []

    def absorb_hops(self, tuples, arrival_times, latencies) -> None:
        """Settled path: what :meth:`process` records for ``tuples``,
        reaching the sink at ``arrival_times`` with ``latencies`` (all
        lists, in arrival order)."""
        self.received += len(tuples)
        self.latencies += latencies
        self.arrival_times += arrival_times
        if self.keep_values and len(self.results) < self.max_kept:
            room = self.max_kept - len(self.results)
            self.results += [tup.values for tup in tuples[:room]]

    def supports_batch(self) -> bool:
        return True

    def absorb_batch(self, batch, arrival_times, latencies) -> None:
        """Vectorized path: record a whole batch of results at once.

        ``arrival_times``/``latencies`` are arrays computed by the batch
        executor (arrival = the batch's completion time at this sink
        instance, latency = arrival − origin per tuple).
        """
        n = len(batch)
        self.received += n
        self.latencies.extend(latencies.tolist())
        self.arrival_times.extend(arrival_times.tolist())
        if self.keep_values and len(self.results) < self.max_kept:
            room = self.max_kept - len(self.results)
            if batch.columns is not None:
                rows = list(zip(*[c.tolist() for c in batch.columns]))[:room]
            else:
                rows = list(batch.rows[:room])
            self.results.extend(rows)
