"""Unit tests for the extracted discrete-event kernel (repro.kernel).

The kernel knows nothing about streams: these tests drive it with
synthetic events, pinning the semantics the stream runtime (and the
sharded transports) were re-registered on top of — heap ordering,
tie-breaks, the strict ``until`` boundary, the event budget, the work
mask, and the lossless cross-shard wire codec.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError
from repro.kernel import (
    TB_SEQ_BITS,
    BudgetExceededError,
    Kernel,
    pack_tiebreak,
    partition_nodes,
)
from repro.kernel.wire import decode_batch, encode_batch
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.shard_exec import ShardExecutor
from repro.sps.tuples import StreamTuple
from tests.test_sharded_properties import generated_plan

# Two event kinds: kind 0 counts as work, kind 1 (a "timer") does not.
WORK_MASK = (True, False)


def make_kernel() -> Kernel:
    return Kernel(WORK_MASK)


def handlers(log, kernel):
    def on_work(gid, payload, port):
        log.append(("work", kernel.now, gid, payload, port))

    def on_timer(gid, payload, port):
        log.append(("timer", kernel.now, gid, payload, port))

    return [on_work, on_timer]


class TestKernelOrdering:
    def test_events_pop_in_time_order(self):
        k = make_kernel()
        log = []
        for t in (3.0, 1.0, 2.0):
            k.push(t, 0, 0, t, 0)
        k.run(handlers(log, k), max_events=10)
        assert [e[1] for e in log] == [1.0, 2.0, 3.0]
        assert k.now == 3.0
        assert k.events_processed == 3

    def test_equal_time_orders_by_insertion_seq(self):
        k = make_kernel()
        log = []
        for i in range(5):
            k.push(1.0, 0, i, None, 0)
        k.run(handlers(log, k), max_events=10)
        assert [e[2] for e in log] == [0, 1, 2, 3, 4]

    def test_push_tb_orders_by_caller_tiebreak(self):
        """(origin gid, origin seq) tie-breaks are what make the shard
        universe invariant in the shard count: insertion order differs
        across partitions, the tie-break does not."""
        k = make_kernel()
        log = []
        # Insert in an order scrambled relative to the tie-breaks.
        k.push_tb(1.0, pack_tiebreak(2, 0), 0, 0, "c", 0)
        k.push_tb(1.0, pack_tiebreak(1, 1), 0, 0, "b", 0)
        k.push_tb(1.0, pack_tiebreak(1, 0), 0, 0, "a", 0)
        k.run(handlers(log, k), max_events=10)
        assert [e[3] for e in log] == ["a", "b", "c"]

    def test_work_mask_counts_only_work_kinds(self):
        k = make_kernel()
        k.push(1.0, 0, 0, None, 0)  # work
        k.push(2.0, 1, 0, None, 0)  # timer
        assert k.work == 1
        log = []
        k.run(handlers(log, k), max_events=10)
        assert k.work == 0
        assert len(log) == 2

    def test_on_idle_fires_when_work_drains(self):
        k = make_kernel()
        idle_at = []
        k.push(1.0, 0, 0, None, 0)
        k.push(2.0, 1, 0, None, 0)  # timer remains after work drains

        def on_idle():
            idle_at.append(k.now)

        k.run(handlers([], k), max_events=10, on_idle=on_idle)
        # Idle fired when the last *work* event (t=1.0) completed.
        assert idle_at and idle_at[0] == 1.0


class TestKernelBoundaries:
    def test_until_is_strict(self):
        """Events at exactly the boundary stay for the next epoch —
        the conservative protocol drains strictly below it."""
        k = make_kernel()
        log = []
        k.push(1.0, 0, 0, None, 0)
        k.push(2.0, 0, 0, None, 0)
        k.run(handlers(log, k), max_events=10, until=2.0)
        assert [e[1] for e in log] == [1.0]
        assert k.next_event_time() == 2.0
        k.run(handlers(log, k), max_events=10, until=3.0)
        assert [e[1] for e in log] == [1.0, 2.0]

    def test_events_processed_accumulates_across_epochs(self):
        k = make_kernel()
        for t in (1.0, 2.0, 3.0):
            k.push(t, 0, 0, None, 0)
        k.run(handlers([], k), max_events=10, until=2.5)
        assert k.events_processed == 2
        k.run(handlers([], k), max_events=10)
        assert k.events_processed == 3

    def test_budget_exceeded_raises(self):
        k = make_kernel()
        for i in range(5):
            k.push(float(i), 0, 0, None, 0)
        with pytest.raises(BudgetExceededError):
            k.run(handlers([], k), max_events=3)

    def test_next_event_time_empty_is_inf(self):
        assert make_kernel().next_event_time() == math.inf

    def test_reset_clears_everything(self):
        k = make_kernel()
        k.push(1.0, 0, 0, None, 0)
        k.run(handlers([], k), max_events=10)
        k.reset()
        assert k.now == 0.0
        assert k.work == 0
        assert k.next_event_time() == math.inf


class TestPartitioning:
    def test_round_robin_over_sorted_nodes(self):
        assert partition_nodes([3, 1, 2, 1], 2) == {1: 0, 2: 1, 3: 0}

    def test_rejects_more_shards_than_nodes(self):
        with pytest.raises(ConfigurationError):
            partition_nodes([0, 1], 3)

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            partition_nodes([0, 1], 0)


def message(at, origin, oseq, dst, port, values, key):
    tup = StreamTuple(values=values, key=key, event_time=at - 0.5,
                      size_bytes=24.0)
    tup.origin_time = at - 1.0
    return (at, origin, oseq, dst, port, tup)


def shard_engine(**config):
    return StreamEngine(
        generated_plan(2, 4, False, False),
        homogeneous_cluster("m510", 2),
        config=SimulationConfig(max_tuples_per_source=20, **config),
    )


class TestTiebreakPacking:
    """The shard universe numbers events per producer and packs
    ``(origin gid, origin seq)`` into the kernel's int tie-break."""

    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(0, 2**20),
                st.integers(0, 2**TB_SEQ_BITS - 1),
            ),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_packed_ints_order_like_pairs_through_the_wire(self, pairs):
        packed = [pack_tiebreak(origin, seq) for origin, seq in pairs]
        for pair_a, tb_a in zip(pairs, packed):
            for pair_b, tb_b in zip(pairs, packed):
                assert (tb_a < tb_b) == (pair_a < pair_b)
        # As _route leaves them in the outbox, out through the codec,
        # and back onto another shard's heap.
        engine = shard_engine(shards=2)
        sender = ShardExecutor(engine, [0], [0, 1])
        receiver = ShardExecutor(engine, [1], [0, 1])
        tup = StreamTuple(values=(1, 2.0), key=1, event_time=0.5)
        sender.engine._outbox = [
            (1.0 + i, origin, seq, 1, 0, tup)
            for i, (origin, seq) in enumerate(pairs)
        ]
        ((dst_shard, _, count, messages),) = sender._collect_outbox()
        assert (dst_shard, count) == (1, len(pairs))
        receiver.inject(decode_batch(encode_batch(messages)))
        assert [e[1] for e in sorted(receiver.kernel.heap)] == packed

    def test_sharded_run_rejects_a_budget_that_could_overflow(self):
        """A subtask's counter may not reach the gid bits — on any
        kernel, so the configuration itself refuses the budget."""
        for shards in (None, 1):
            with pytest.raises(ConfigurationError, match="max_events"):
                shard_engine(shards=shards, max_events=2**TB_SEQ_BITS)
            assert shard_engine(
                shards=shards, max_events=2**TB_SEQ_BITS - 1
            ).run()


class TestWireCodec:
    def roundtrip(self, messages):
        decoded = decode_batch(encode_batch(messages))
        assert len(decoded) == len(messages)
        for orig, got in zip(messages, decoded):
            assert got[:5] == orig[:5]
            a, b = orig[5], got[5]
            assert b.values == a.values
            assert b.key == a.key
            assert b.event_time == a.event_time
            assert b.origin_time == a.origin_time
            assert b.size_bytes == a.size_bytes
            for x, y in zip(a.values + (a.key,), b.values + (b.key,)):
                assert type(x) is type(y)
        return decoded

    def test_numeric_roundtrip_bit_identical(self):
        msgs = [
            message(0.1 * i + 1e-9, i, i * 7, i % 3, 0,
                    (i, 0.1 * i, float(i) ** 0.5), i % 5)
            for i in range(20)
        ]
        self.roundtrip(msgs)

    def test_mixed_signatures_restore_original_order(self):
        msgs = [
            message(1.0, 0, 0, 1, 0, (1, 2.0), 7),
            message(1.1, 0, 1, 1, 0, ("word", 3), "word"),
            message(1.2, 0, 2, 1, 0, (4, 5.0), 8),
            message(1.3, 0, 3, 1, 0, ("other", 9), "other"),
        ]
        decoded = self.roundtrip(msgs)
        assert [m[2] for m in decoded] == [0, 1, 2, 3]

    def test_strings_with_embedded_separator(self):
        msgs = [
            message(1.0, 0, 0, 1, 0, ("a\x00b",), "k\x00"),
            message(1.1, 0, 1, 1, 0, ("plain",), "also\x00weird"),
        ]
        self.roundtrip(msgs)

    def test_bool_column_is_not_int(self):
        msgs = [
            message(1.0, 0, 0, 1, 0, (True, 1), 0),
            message(1.1, 0, 1, 1, 0, (False, 2), 0),
        ]
        decoded = self.roundtrip(msgs)
        assert decoded[0][5].values[0] is True
        assert decoded[1][5].values[0] is False

    def test_none_and_pickle_fallback(self):
        big = 2 ** 70  # outside int64: forces the object column
        msgs = [
            message(1.0, 0, 0, 1, 0, (None, big, (1, 2)), None),
            message(1.1, 0, 1, 1, 0, (None, -big, (3,)), None),
        ]
        self.roundtrip(msgs)

    def test_envelope_floats_bit_identical(self):
        at = 0.1 + 0.2  # a value with an inexact binary expansion
        msgs = [message(at, 5, 9, 2, 3, (1.0 / 3.0,), 0)]
        decoded = self.roundtrip(msgs)
        assert decoded[0][0].hex() == at.hex()
        assert decoded[0][5].values[0].hex() == (1.0 / 3.0).hex()

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_batch(b"XXXX" + b"\x00" * 8)

    def test_wire_blob_is_not_a_pickle_stream(self):
        """The fast path must stay pickle-free (the fallback column is
        the documented exception): the blob must not be loadable."""
        msgs = [message(1.0, 0, 0, 1, 0, (1, 2.0), 3)]
        blob = encode_batch(msgs)
        with pytest.raises(Exception):
            pickle.loads(blob)
