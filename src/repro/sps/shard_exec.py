"""Sharded execution: conservative parallel DES over the stream engine.

``SimulationConfig(shards=K)`` partitions the simulated cluster by
placement node (:mod:`repro.kernel.partition`), runs one
:class:`~repro.kernel.core.Kernel` per shard and advances them together
through conservative epochs (:mod:`repro.kernel.sharded`) whose
lookahead is the network's base latency. Two transports share the
controller and produce bit-identical results:

- **fork** (the default on platforms with ``fork``): one OS process per
  shard, inheriting the fully built engine copy-on-write so nothing is
  pickled at start-up. Cross-shard tuple batches travel as typed
  columns (:mod:`repro.kernel.wire`) under struct-packed control frames;
  the single final stats frame is the one documented pickle exception.
- **inline**: all shard executors in-process, driven by the same
  controller. This is the no-fork fallback and the serial reference the
  runner's DET609 cross-check compares a forked run against.

**One step, one universe.** A shard runs the stream engine's own
arrival → enqueue → serve → route step (:mod:`repro.sps.engine`), not a
copy of it, and sees the bits ``shards=None`` sees: every subtask draws
arrival gaps and service noise from its own named streams
(``engine/<op>/<i>/arrivals|noise``) and numbers the events it schedules
itself — tie-break ``pack_tiebreak(origin gid, origin seq)`` — on
whichever kernel hosts it. What a shard adds is the outbox for what it
does not own, and end-of-stream flushes at epoch boundaries instead of
at the last event (the one way results can differ from ``shards=None``).
Results are invariant in K — the property suite pins ``shards∈{1,2,4}``
plus both transports identical, and ``tests/test_golden_determinism.py``
pins the values themselves.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import struct
import traceback

from repro.analysis.racecheck import stream_ledger
from repro.common.errors import ConfigurationError, SimulationError
from repro.kernel.core import BudgetExceededError, Kernel, pack_tiebreak
from repro.kernel.partition import partition_nodes, shard_of_gids
from repro.kernel.sharded import ShardController
from repro.kernel.wire import decode_batch, encode_batch
from repro.sps.engine import _DELIVER, _WORK_MASK
from repro.sps.operators.sink import SinkLogic

__all__ = ["ShardExecutor", "run_sharded"]


class ShardExecutor:
    """Runs the engine's own subtask step for one shard's subtasks.

    The step is :class:`~repro.sps.engine.StreamEngine`'s, unchanged:
    the executor holds a shallow copy of the engine — same plan, same
    ``_SubtaskRuntime`` objects — on which ``_begin_run`` binds this
    shard's kernel, outbox, clocks and owned-gid filter. It never
    touches a runtime it doesn't own, so inline executors can share the
    runtimes of one engine safely. What remains here is the controller
    protocol: seed, inject, drain an epoch, flush, report.
    """

    def __init__(self, engine, owned, shard_of_gid) -> None:
        self.owned = list(owned)
        self.shard_of_gid = shard_of_gid
        self.kernel = Kernel(_WORK_MASK)
        self.engine = copy.copy(engine)
        self.handlers = self.engine._make_handlers()

    # ----------------------------------------------------- controller verbs

    def start(self):
        """Seed initial events for owned subtasks; report (0, work, next)."""
        kernel = self.kernel
        self.engine._begin_run(kernel, self.owned)
        return (0, kernel.work, kernel.next_event_time())

    def inject(self, messages) -> None:
        """Queue cross-shard arrivals, tie-broken by (origin, seq).

        The producer's tie-break (not local insertion order) is what
        keeps equal-time delivery order invariant in the shard count —
        see DESIGN.md §14.
        """
        push_tb = self.kernel.push_tb
        for at, origin, seq, dst, port, tup in messages:
            push_tb(at, pack_tiebreak(origin, seq), _DELIVER, dst, tup, port)

    def _collect_outbox(self) -> list:
        """Drain the outbox into per-destination-shard packets.

        Packets are ``(dst_shard, min_time, count, messages)`` — the
        controller forwards them by destination without opening the
        payload, so the (forked) transport can serialize each packet
        once inside the worker instead of per hop in the parent.
        """
        engine = self.engine
        outbox = engine._outbox
        if not outbox:
            return []
        engine._outbox = []
        shard_of = self.shard_of_gid
        groups: dict[int, list] = {}
        for message in outbox:
            groups.setdefault(shard_of[message[3]], []).append(message)
        return [
            (
                dst,
                min(message[0] for message in messages),
                len(messages),
                messages,
            )
            for dst, messages in sorted(groups.items())
        ]

    def run_epoch(self, boundary: float, inbox, budget: int):
        """Inject ``inbox``, drain strictly below ``boundary``, and
        return ``(events, work, next_time, outbox)`` for the
        controller — the outbox holding this epoch's cross-shard
        emissions as per-destination packets.
        """
        self.inject(inbox)
        kernel = self.kernel
        kernel.run(self.handlers, max_events=budget, until=boundary)
        return (
            kernel.events_processed,
            kernel.work,
            kernel.next_event_time(),
            self._collect_outbox(),
        )

    def flush_round(self, boundary: float):
        """Force remaining window state out at the epoch boundary.

        Unlike the serial engine (which flushes at the last work event's
        time), shard flushes happen at the boundary — a K-invariant
        float — so every shard count sees identical flush emissions.
        """
        kernel = self.kernel
        kernel.now = boundary
        return (
            self.engine._flush_all(),
            kernel.events_processed,
            kernel.work,
            kernel.next_event_time(),
            self._collect_outbox(),
        )

    def stats(self) -> dict:
        """Everything the parent needs to finish metrics collection."""
        engine = self.engine
        runtimes: dict = {}
        sinks: dict = {}
        for gid in self.owned:
            runtime = engine._runtimes[gid]
            runtimes[gid] = (
                runtime.busy_time,
                runtime.queue_peak,
                runtime.wait_time,
                runtime.served,
                runtime.emitted,
            )
            logic = runtime.logic
            if isinstance(logic, SinkLogic):
                sinks[gid] = (
                    logic.received,
                    logic.latencies,
                    logic.arrival_times,
                    logic.results,
                )
        return {
            "runtimes": runtimes,
            "sinks": sinks,
            "ledger": stream_ledger(
                engine._runtimes[gid] for gid in self.owned
            ),
            "last_source_time": engine._last_source_time,
            "flush_time": engine._flush_time,
            "step": engine.step,
        }


# ------------------------------------------------------------- transports


class _InlineHandle:
    """Controller handle over an in-process executor (serial reference)."""

    def __init__(self, executor: ShardExecutor) -> None:
        self.executor = executor
        self._reply = None

    def begin_start(self) -> None:
        self._reply = self.executor.start()

    def begin_epoch(self, boundary, packets, budget) -> None:
        inbox = [
            message for packet in packets for message in packet[3]
        ]
        self._reply = self.executor.run_epoch(boundary, inbox, budget)

    def begin_flush(self, boundary) -> None:
        self._reply = self.executor.flush_round(boundary)

    def collect(self):
        return self._reply

    def fetch_stats(self) -> dict:
        return self.executor.stats()

    def close(self) -> None:
        """Nothing to release: the executor lives in this process."""


# Control frames are struct-packed, tuple batches ride as wire columns;
# the single stats frame at the end is the documented pickle exception.
_EPOCH = struct.Struct("<dqI")  # boundary, budget, num inbound blobs
_FLUSH = struct.Struct("<d")  # boundary
_RUN_REPLY = struct.Struct("<qqdI")  # events, work, next, num packets
_FLUSH_REPLY = struct.Struct("<BqqdI")  # emitted, events, work, next, n
_PACKET = struct.Struct("<idqI")  # dst shard, min_time, count, blob len
_BLOB = struct.Struct("<I")  # blob length


def _pack_outbox(packets) -> bytes:
    """Wire-encode each per-destination packet (sender side, in-worker)."""
    parts: list[bytes] = []
    for dst, min_at, count, messages in packets:
        blob = encode_batch(messages)
        parts.append(_PACKET.pack(dst, min_at, count, len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _unpack_outbox(frame: bytes, pos: int, n: int) -> list:
    """Parent side: packets with *undecoded* blob payloads."""
    packets = []
    for _ in range(n):
        dst, min_at, count, blob_len = _PACKET.unpack_from(frame, pos)
        pos += _PACKET.size
        packets.append((dst, min_at, count, frame[pos : pos + blob_len]))
        pos += blob_len
    return packets


def _shard_child(conn, parent_conn, engine, owned, shard_of_gid):
    parent_conn.close()
    try:
        executor = ShardExecutor(engine, owned, shard_of_gid)
        while True:
            frame = conn.recv_bytes()
            op = frame[:1]
            if op == b"S":
                events, work, nxt = executor.start()
                conn.send_bytes(b"R" + _RUN_REPLY.pack(events, work, nxt, 0))
            elif op == b"E":
                boundary, budget, n_blobs = _EPOCH.unpack_from(frame, 1)
                pos = 1 + _EPOCH.size
                inbox: list = []
                for _ in range(n_blobs):
                    (blob_len,) = _BLOB.unpack_from(frame, pos)
                    pos += _BLOB.size
                    inbox.extend(decode_batch(frame[pos : pos + blob_len]))
                    pos += blob_len
                events, work, nxt, outbox = executor.run_epoch(
                    boundary, inbox, budget
                )
                conn.send_bytes(
                    b"R"
                    + _RUN_REPLY.pack(events, work, nxt, len(outbox))
                    + _pack_outbox(outbox)
                )
            elif op == b"F":
                (boundary,) = _FLUSH.unpack_from(frame, 1)
                emitted, events, work, nxt, outbox = executor.flush_round(
                    boundary
                )
                conn.send_bytes(
                    b"G"
                    + _FLUSH_REPLY.pack(
                        emitted, events, work, nxt, len(outbox)
                    )
                    + _pack_outbox(outbox)
                )
            elif op == b"T":
                conn.send_bytes(
                    b"X"
                    + pickle.dumps(
                        executor.stats(), protocol=pickle.HIGHEST_PROTOCOL
                    )
                )
            else:  # b"Q" or unknown: orderly shutdown
                break
    except BudgetExceededError as exc:
        try:
            conn.send_bytes(b"B" + struct.pack("<q", exc.max_events))
        except OSError:
            pass
    except BaseException:
        try:
            conn.send_bytes(b"!" + traceback.format_exc().encode("utf-8"))
        except OSError:
            pass
    finally:
        conn.close()
        # Skip the parent's inherited atexit/teardown machinery.
        os._exit(0)


class _ForkHandle:
    """Controller handle over one forked shard process."""

    def __init__(self, conn, process) -> None:
        self.conn = conn
        self.process = process
        self._pending = None

    def begin_start(self) -> None:
        self._pending = "start"
        self.conn.send_bytes(b"S")

    def begin_epoch(self, boundary, packets, budget) -> None:
        self._pending = "epoch"
        parts = [b"E", _EPOCH.pack(boundary, budget, len(packets))]
        for packet in packets:
            blob = packet[3]
            parts.append(_BLOB.pack(len(blob)))
            parts.append(blob)
        self.conn.send_bytes(b"".join(parts))

    def begin_flush(self, boundary) -> None:
        self._pending = "flush"
        self.conn.send_bytes(b"F" + _FLUSH.pack(boundary))

    def _recv(self) -> bytes:
        try:
            frame = self.conn.recv_bytes()
        except EOFError:
            raise SimulationError(
                "shard worker exited without a reply"
            ) from None
        op = frame[:1]
        if op == b"B":
            (max_events,) = struct.unpack_from("<q", frame, 1)
            raise BudgetExceededError(max_events)
        if op == b"!":
            raise SimulationError(
                "shard worker failed:\n" + frame[1:].decode("utf-8")
            )
        return frame

    def collect(self):
        frame = self._recv()
        pending, self._pending = self._pending, None
        if pending == "flush":
            emitted, events, work, nxt, n = _FLUSH_REPLY.unpack_from(
                frame, 1
            )
            outbox = _unpack_outbox(frame, 1 + _FLUSH_REPLY.size, n)
            return (bool(emitted), events, work, nxt, outbox)
        events, work, nxt, n = _RUN_REPLY.unpack_from(frame, 1)
        if pending == "start":
            return (events, work, nxt)
        outbox = _unpack_outbox(frame, 1 + _RUN_REPLY.size, n)
        return (events, work, nxt, outbox)

    def fetch_stats(self) -> dict:
        self.conn.send_bytes(b"T")
        frame = self._recv()
        return pickle.loads(frame[1:])

    def close(self) -> None:
        try:
            self.conn.send_bytes(b"Q")
        except OSError:
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=1.0)


# ------------------------------------------------------------- entry point


def _apply_stats(engine, stats, final_now, controller) -> None:
    """Install shard results on the parent engine for metric collection.

    All writes are absolute assignments, so applying inline-transport
    stats (where executors already mutated the engine's own objects) is
    idempotent and both transports land in identical states.
    """
    kernel = engine._k
    kernel.reset()
    kernel.now = final_now
    kernel.events_processed = controller.events_processed
    engine._throttled_arrivals = 0
    flush_times = [
        s["flush_time"] for s in stats if s["flush_time"] is not None
    ]
    engine._flush_time = min(flush_times) if flush_times else None
    engine._last_source_time = max(
        s["last_source_time"] for s in stats
    )
    engine._step = stats[0]["step"]
    runtimes = engine._runtimes
    ledger: dict = {}
    for shard_stats in stats:
        for gid, (busy, peak, wait, served, emitted) in shard_stats[
            "runtimes"
        ].items():
            runtime = runtimes[gid]
            runtime.busy_time = busy
            runtime.queue_peak = peak
            runtime.wait_time = wait
            runtime.served = served
            runtime.emitted = emitted
        for gid, (received, lats, arrivals, results) in shard_stats[
            "sinks"
        ].items():
            logic = runtimes[gid].logic
            logic.received = received
            logic.latencies = list(lats)
            logic.arrival_times = list(arrivals)
            logic.results = list(results)
        ledger.update(shard_stats["ledger"])
    #: merged per-stream fingerprints; the runner's DET609 cross-check
    #: compares a forked run's ledger against an inline reference rerun
    engine._shard_ledger = ledger
    detector = engine.race_detector
    if detector is not None:
        detector.rng_ledger = dict(ledger)


def run_sharded(engine):
    """Execute a built engine under ``config.shards`` and collect metrics."""
    config = engine.config
    shards = config.shards
    lookahead = engine._net_base_latency
    if lookahead <= 0.0:
        raise ConfigurationError(
            "sharded execution requires network base latency > 0; zero "
            "inter-node delay leaves no conservative time window"
        )
    node_of_gid = [runtime.node_id for runtime in engine._runtimes]
    shard_of_node = partition_nodes(node_of_gid, shards)
    shard_of_gid = shard_of_gids(node_of_gid, shard_of_node)
    owned: list[list[int]] = [[] for _ in range(shards)]
    for gid, shard in enumerate(shard_of_gid):
        owned[shard].append(gid)

    use_fork = (
        shards > 1
        and not engine.shard_force_inline
        and "fork" in multiprocessing.get_all_start_methods()
    )
    handles: list = []
    if use_fork:
        ctx = multiprocessing.get_context("fork")
        for i in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_child,
                args=(
                    child_conn,
                    parent_conn,
                    engine,
                    owned[i],
                    shard_of_gid,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            handles.append(_ForkHandle(parent_conn, process))
    else:
        for i in range(shards):
            handles.append(
                _InlineHandle(ShardExecutor(engine, owned[i], shard_of_gid))
            )

    controller = ShardController(
        handles,
        lookahead=lookahead,
        max_events=config.max_events,
        max_flush_rounds=engine._max_flush_rounds,
    )
    try:
        final_now = controller.run()
        stats = [handle.fetch_stats() for handle in handles]
    finally:
        for handle in handles:
            handle.close()

    _apply_stats(engine, stats, final_now, controller)
    metrics = engine._collect_metrics()
    metrics.extras["shards"] = {
        "shards": shards,
        "epochs": controller.epochs,
        "flush_rounds": controller.flush_rounds,
    }
    return metrics
