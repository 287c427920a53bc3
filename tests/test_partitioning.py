"""Unit tests for the data partitioning strategies."""

import math

import pytest

from repro.cluster import homogeneous_cluster
from repro.common.errors import PlanError
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.partitioning import (
    BroadcastPartitioner,
    ForwardPartitioner,
    HashPartitioner,
    RebalancePartitioner,
    _stable_hash,
)
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def tup(*values, key=None):
    return StreamTuple(values=values, event_time=0.0, key=key)


class TestForward:
    def test_routes_to_same_index(self):
        partitioner = ForwardPartitioner().for_producer(3)
        assert partitioner.select(tup(1), 8) == [3]

    def test_rejects_mismatched_parallelism(self):
        partitioner = ForwardPartitioner().for_producer(5)
        with pytest.raises(PlanError):
            partitioner.select(tup(1), 4)

    def test_clone_preserves_index(self):
        partitioner = ForwardPartitioner(2).clone()
        assert partitioner.select(tup(1), 4) == [2]

    def test_requires_equal_parallelism_flag(self):
        assert ForwardPartitioner.requires_equal_parallelism


class TestRebalance:
    def test_round_robin(self):
        partitioner = RebalancePartitioner()
        choices = [partitioner.select(tup(i), 3)[0] for i in range(7)]
        assert choices == [0, 1, 2, 0, 1, 2, 0]

    def test_clone_resets_counter(self):
        partitioner = RebalancePartitioner()
        partitioner.select(tup(1), 3)
        fresh = partitioner.clone()
        assert fresh.select(tup(1), 3) == [0]

    def test_rejects_zero_consumers(self):
        with pytest.raises(PlanError):
            RebalancePartitioner().select(tup(1), 0)


class TestHash:
    def test_same_key_same_consumer(self):
        partitioner = HashPartitioner(key_field=0)
        first = partitioner.select(tup(42, "x"), 7)
        second = partitioner.select(tup(42, "y"), 7)
        assert first == second

    def test_uses_tuple_key_when_no_field(self):
        partitioner = HashPartitioner()
        a = partitioner.select(tup(1, key="alpha"), 5)
        b = partitioner.select(tup(2, key="alpha"), 5)
        assert a == b

    def test_missing_key_raises(self):
        with pytest.raises(PlanError, match="needs a key"):
            HashPartitioner().select(tup(1), 5)

    def test_string_keys_spread(self):
        partitioner = HashPartitioner(key_field=0)
        targets = {
            partitioner.select(tup(f"key-{i}"), 16)[0] for i in range(200)
        }
        assert len(targets) >= 12  # most consumers hit

    def test_stable_across_instances(self):
        # The hash must not depend on process state (unlike hash(str)).
        one = HashPartitioner(key_field=0).select(tup("abc"), 64)
        two = HashPartitioner(key_field=0).clone().select(tup("abc"), 64)
        assert one == two

    def test_float_and_tuple_keys(self):
        partitioner = HashPartitioner(key_field=0)
        assert partitioner.select(tup(3.25), 8) == partitioner.select(
            tup(3.25), 8
        )
        assert partitioner.select(
            tup((1, "a")), 8
        ) == partitioner.select(tup((1, "a")), 8)

    def test_describe(self):
        assert HashPartitioner(2).describe() == "hash(f2)"
        assert HashPartitioner().describe() == "hash"


class TestBroadcast:
    def test_sends_to_all(self):
        partitioner = BroadcastPartitioner()
        assert partitioner.select(tup(1), 4) == [0, 1, 2, 3]
        assert partitioner.is_broadcast

    def test_rejects_zero_consumers(self):
        with pytest.raises(PlanError):
            BroadcastPartitioner().select(tup(1), 0)


def keyed(key, field):
    """A tuple carrying ``key`` in value 0 (``field``) or as its key."""
    if field:
        return tup(key, 1.0)
    return tup(1.0, key=key)


class TestChannelContract:
    """Every strategy but broadcast picks one channel: ``select`` is
    ``[channel(...)]``, and the engine routes through ``channel``."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ForwardPartitioner(2),
            RebalancePartitioner,
            lambda: HashPartitioner(key_field=0),
            HashPartitioner,
        ],
    )
    def test_channel_agrees_with_select(self, make):
        by_channel, by_select = make(), make()
        keys = ["a", 7, -3, 2**64 + 3, True, 2.5, ("x", 1), "a", 7]
        for n in (3, 5, 8):
            for key in keys:
                one = keyed(key, field=True)
                one.key = key
                assert [by_channel.channel(one, n)] == by_select.select(
                    one, n
                )

    @pytest.mark.parametrize("key", [0, -5, 2**64 + 3, True])
    def test_int_fast_path_is_the_stable_hash(self, key):
        for field in (True, False):
            partitioner = HashPartitioner(key_field=0 if field else None)
            for n in (1, 3, 7, 64):
                assert partitioner.channel(keyed(key, field), n) == (
                    _stable_hash(key) % n
                )

    def test_int_keys_skip_the_memo_and_str_keys_fill_it(self):
        partitioner = HashPartitioner(key_field=0)
        for key in (0, -5, 2**64 + 3, True, 12):
            partitioner.channel(tup(key), 5)
        assert partitioner._hash_cache == {}
        partitioner.channel(tup("alpha"), 5)
        partitioner.channel(tup("beta"), 5)
        assert partitioner._hash_cache == {
            "alpha": _stable_hash("alpha"),
            "beta": _stable_hash("beta"),
        }

    def test_equal_keys_of_other_types_keep_their_own_hash(self):
        # (1,) == (1.0,) and 1 == 1.0: a memo keyed by value would hand
        # the second the first one's hash.
        partitioner = HashPartitioner(key_field=0)
        for key in ((1,), (1.0,), 1, 1.0, True, (True,)):
            assert partitioner.channel(tup(key), 7) == _stable_hash(key) % 7

    def test_rebalance_state_is_the_same_through_either_call(self):
        by_channel, by_select = RebalancePartitioner(), RebalancePartitioner()
        for n in (3, 3, 5, 2, 3, 4):
            assert [by_channel.channel(tup(1), n)] == by_select.select(
                tup(1), n
            )
            assert by_channel._next == by_select._next

    def test_broadcast_has_no_single_channel(self):
        with pytest.raises(NotImplementedError):
            BroadcastPartitioner().channel(tup(1), 3)


BAD_KEYS = [
    ([1, 2], "list"),
    ({"a": 1}, "dict"),
    ({1, 2}, "set"),
    (math.nan, "float"),
    (math.inf, "float"),
    (-math.inf, "float"),
    ((1, [2]), "tuple"),
    (("a", math.nan), "tuple"),
]


class TestUnhashableKeys:
    """A key ``_stable_hash`` cannot hash is a PlanError naming where the
    key came from and its type, not a TypeError from inside the hash."""

    @pytest.mark.parametrize("key, kind", BAD_KEYS)
    def test_partitioner_names_field_and_type(self, key, kind):
        with pytest.raises(PlanError, match=f"key field 0: a {kind} value"):
            HashPartitioner(key_field=0).channel(tup(key), 4)
        with pytest.raises(PlanError, match=f"tuple key: a {kind} value"):
            HashPartitioner().select(tup(1, key=key), 4)

    @pytest.mark.parametrize("key, kind", BAD_KEYS)
    @pytest.mark.parametrize("field", [True, False])
    def test_engine_run_names_field_and_type(self, key, kind, field):
        plan = LogicalPlan("bad-key")
        plan.add_operator(
            builders.source(
                "src",
                lambda rng, now: keyed(key, field),
                SCHEMA,
                1e3,
            )
        )
        plan.add_operator(builders.sink("sink", parallelism=3))
        plan.connect(
            "src", "sink", HashPartitioner(key_field=0 if field else None)
        )
        engine = StreamEngine(
            plan,
            homogeneous_cluster(num_nodes=2),
            config=SimulationConfig(max_tuples_per_source=4),
            preflight=False,
        )
        where = "key field 0" if field else "tuple key"
        with pytest.raises(PlanError, match=f"{where}: a {kind} value"):
            engine.run()
