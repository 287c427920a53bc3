"""The one-pass route against a two-pass reference (DESIGN.md §7).

``StreamEngine._route`` picks each tuple's channel and delivers it in
the same step, and pays a group's serde overhead before its first
tuple departs. The reference below is the accounting §7 states, written
the long way: every channel of a group is selected first (a list of
indices per tuple), the group's overhead is summed from those lists,
and only then does the buffered group depart. It never calls
``_route``, and it hashes keys with ``_stable_hash`` itself, not
through a partitioner or its memo.

Hypothesis drives both over real engines in every mode ``_route``
serves: plain (heap deliveries and logged sinks), checkpointed (FIFO
channel clocks and sink provenance), observed (``shuffle_bytes``) and
sharded (the outbox), and compares delivery for delivery ``(where, at,
seq, dst, values, key, port, prov)``, the returned overhead, the
counters and the bytes shuffled.

Mutants it kills (each checked by hand on a copy of the engine):
adding a group's overhead per tuple as it departs instead of up front
(later tuples of a group leave later than the first); delivering at
``now + offset`` before the network delay (``at`` rounds differently);
and hashing an int key without the 2**64 wrap (a negative or a
``>= 2**64`` key takes another channel).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.kernel.core import pack_tiebreak
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.costs import COORD_LOG_COST_S, SERDE_COST_S
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
KINDS = ("forward", "broadcast", "rebalance", "hash_field", "hash_key")
MODES = ("plain", "checkpointed", "observed", "sharded")

KEYS = st.one_of(
    st.text(max_size=3),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**64, 2**64 + 3, -(2**64) - 1]),
    st.booleans(),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.tuples(
        st.one_of(st.integers(-3, 3), st.text(max_size=2), st.floats(-3, 3))
    ),
)
SIZES = st.sampled_from([24.0, 64.0, 100.5, 1000.0 / 3.0, 7e3])


def _generate(rng, now):
    return StreamTuple(values=(0, 0.0), event_time=now, size_bytes=24.0)


def _partitioner(kind: str):
    return {
        "forward": ForwardPartitioner,
        "broadcast": BroadcastPartitioner,
        "rebalance": RebalancePartitioner,
        "hash_field": lambda: HashPartitioner(key_field=0),
        "hash_key": HashPartitioner,
    }[kind]()


def build(groups, sources: int, mode: str) -> StreamEngine:
    """A source of ``sources`` subtasks with one out-edge per group
    ``(kind, parallelism, to_sink)``, placed over three nodes."""
    plan = LogicalPlan("route")
    plan.add_operator(
        builders.source("src", _generate, SCHEMA, 1e3, parallelism=sources)
    )
    if not all(to_sink for _, _, to_sink in groups):
        plan.add_operator(builders.sink("end"))
    for i, (kind, parallelism, to_sink) in enumerate(groups):
        if kind == "forward":
            parallelism = sources
        name = f"g{i}"
        if to_sink:
            plan.add_operator(builders.sink(name, parallelism=parallelism))
        else:
            plan.add_operator(
                builders.map_op(name, lambda v: v, parallelism=parallelism)
            )
            plan.connect(name, "end", RebalancePartitioner())
        plan.connect("src", name, _partitioner(kind))
    config = SimulationConfig(
        max_tuples_per_source=8,
        checkpoint_interval=1.0 if mode == "checkpointed" else None,
        shards=2 if mode == "sharded" else None,
    )
    return StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=3),
        config=config,
        preflight=False,
        observer=EngineObserver() if mode == "observed" else None,
    )


def reference(engine, runtime, outputs, now, clocks, logs, owned):
    """Deliveries, overhead, hop count pushed, bytes shuffled and the
    final ``seq``/``ft_emit_seq``: the two-pass route of §7."""
    gid = runtime.gid
    groups = engine._out_channels[gid]
    network = engine.cluster.network
    # Checkpointed runs number channels densely, producer-major.
    first = {}
    channels = 1
    for rt in engine._runtimes:
        for g, group in enumerate(engine._out_channels.get(rt.gid, [])):
            first[rt.gid, g] = channels
            channels += group.num_channels
    seq, emit = runtime.seq, runtime.ft_emit_seq
    deliveries, pushed, shuffled, offset = [], 0, 0.0, 0.0
    for g, group in enumerate(groups):
        part = group.partitioner
        consumers = list(group.consumer_gids)
        n = len(consumers)
        group_cost = 0.0
        if group.is_shuffle:  # the group's own serde, per channel hop
            group_cost = SERDE_COST_S + COORD_LOG_COST_S * math.log2(
                max(group.num_channels, 2)
            )
        routed = []
        group_overhead = 0.0
        for i, tup in enumerate(outputs):
            out = tup
            if isinstance(part, ForwardPartitioner):
                indices = [runtime.index]
            elif isinstance(part, BroadcastPartitioner):
                indices = list(range(n))
            elif isinstance(part, RebalancePartitioner):
                indices = [i % n]
            else:
                if part.key_field is not None:
                    out = tup.with_key(tup.values[part.key_field])
                indices = [_stable_hash(out.key) % n]
            group_overhead += group_cost * len(indices)
            routed.append((out, indices))
        offset += group_overhead
        if group_cost:
            total = 0.0
            for out, _ in routed:
                total += out.size_bytes
            shuffled += total * len(routed[0][1])
        for out, indices in routed:
            for idx in indices:
                dst = consumers[idx]
                src_node = runtime.node_id
                dst_node = engine._runtimes[dst].node_id
                latency, bandwidth = 0.0, math.inf
                if src_node != dst_node:
                    latency = network.spec.base_latency_s
                    bandwidth = network.link_bandwidth(src_node, dst_node)
                at = now + (latency + out.size_bytes / bandwidth) + offset
                seq += 1
                port, prov, where = group.port, None, "heap"
                if clocks is not None:
                    port = first[gid, g] + idx
                    at = max(at, clocks[port])
                    clocks[port] = at
                    if engine._runtimes[dst].is_sink:
                        emit += 1
                        prov = (gid, emit)
                elif dst in logs:
                    where = "log"
                elif owned is not None and dst not in owned:
                    where = "outbox"
                pushed += where == "heap"
                deliveries.append(
                    (where, at, seq, dst, out.values, out.key, port, prov)
                )
    return deliveries, offset, pushed, shuffled, seq, emit


def observed(engine, base):
    """What one ``_route`` call left in the heap, the logs and the
    outbox, in the reference's record form, by ``seq``."""
    found = []
    for at, seq, _, dst, tup, port in engine._k.heap:
        found.append(("heap", at, seq, dst, tup, port))
    for dst, entries in engine._logs.items():
        for at, seq, tup, port in entries:
            found.append(("log", at, seq, dst, tup, port))
    for at, origin, rel, dst, port, tup in engine._outbox:
        found.append(("outbox", at, rel + base, dst, tup, port))
    found.sort(key=lambda rec: rec[2])
    return [
        (where, at, seq, dst, tup.values, tup.key, port, tup.prov)
        for where, at, seq, dst, tup, port in found
    ]


GROUP = st.tuples(
    st.sampled_from(KINDS), st.integers(1, 8), st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(
    groups=st.lists(GROUP, min_size=1, max_size=2),
    sources=st.integers(1, 3),
    mode=st.sampled_from(MODES),
    now=st.floats(0.0, 5.0),
    data=st.data(),
)
def test_one_pass_route_matches_the_two_pass_reference(
    groups, sources, mode, now, data
):
    engine = build(groups, sources, mode)
    producers = engine.physical.op_subtasks["src"]
    runtime = engine._runtimes[data.draw(st.sampled_from(producers))]
    owned = None
    if mode == "sharded":
        others = [g for g in range(len(engine._runtimes)) if g != runtime.gid]
        mine = data.draw(st.lists(st.sampled_from(others), unique=True))
        owned = sorted({runtime.gid, *mine})
    engine._begin_run(engine._k, owned)
    if mode == "observed":
        engine._obs.on_run_start(engine)
    engine._k.heap.clear()
    engine._k.now = now
    for entries in engine._logs.values():
        entries.clear()
    clocks = engine._ft_clocks
    if clocks is not None:
        clocks[:] = data.draw(
            st.lists(
                st.floats(0.0, now + 1e-3),
                min_size=len(clocks),
                max_size=len(clocks),
            )
        )
        clocks = list(clocks)
    runtime.seq = data.draw(st.integers(0, 1000))
    outputs = [
        StreamTuple(
            values=(key, 1.5),
            event_time=0.0,
            key=tuple_key,
            size_bytes=size,
        )
        for key, tuple_key, size in data.draw(
            st.lists(st.tuples(KEYS, KEYS, SIZES), min_size=1, max_size=8)
        )
    ]
    want, overhead, pushed, shuffled, seq, emit = reference(
        engine, runtime, outputs, now, clocks, engine._logs, owned
    )
    work = engine._k.work
    got = engine._route(runtime, outputs)
    assert got == overhead
    assert observed(engine, pack_tiebreak(runtime.gid, 0)) == want
    assert engine._k.work - work == pushed
    assert (runtime.seq, runtime.ft_emit_seq) == (seq, emit)
    if clocks is not None:
        assert engine._ft_clocks == clocks
    if mode == "observed":
        assert engine._obs.shuffle_bytes[runtime.gid] == shuffled


def test_each_mode_binds_the_state_it_is_named_for():
    """The property's modes each reach the branch they are named for."""
    groups = [("hash_field", 3, True), ("broadcast", 2, False)]
    plain = build(groups, 2, "plain")
    plain._begin_run(plain._k)
    assert plain._logs and plain._ft_clocks is None
    ckpt = build(groups, 2, "checkpointed")
    ckpt._begin_run(ckpt._k)
    assert ckpt._ft_clocks is not None and not ckpt._logs
    seen = build(groups, 2, "observed")
    seen._begin_run(seen._k)
    assert seen._obs is not None and not seen._logs


def test_each_shuffle_group_pays_its_own_serde():
    """A source feeding two hash-partitioned consumers (2 and 4
    channels): group 1's deliveries are offset by its own serde, group
    2's by both groups' (DESIGN.md §7), not each by the sum of both."""
    engine = build([("hash_field", 2, False), ("hash_field", 4, False)], 1,
                   "plain")
    (gid,) = engine.physical.op_subtasks["src"]
    runtime = engine._runtimes[gid]
    engine._begin_run(engine._k)
    engine._k.heap.clear()
    engine._k.now = now = 1.0
    outputs = [
        StreamTuple(values=(k, 1.5), event_time=0.0, size_bytes=24.0)
        for k in range(5)
    ]
    costs = [SERDE_COST_S + COORD_LOG_COST_S * math.log2(n) for n in (2, 4)]
    offsets = [5 * costs[0], 5 * (costs[0] + costs[1])]
    assert engine._route(runtime, outputs) == pytest.approx(offsets[1])
    link = {}
    for g, entry in enumerate(runtime.route_table):
        for idx, dst in enumerate(entry[3]):
            link[dst] = (g, entry[5][idx], entry[6][idx])
    groups = []
    for at, _, _, dst, tup, _ in engine._k.heap:
        g, latency, bandwidth = link[dst]
        groups.append(g)
        delay = now + (latency + tup.size_bytes / bandwidth)
        assert at - delay == pytest.approx(offsets[g], abs=1e-12)
    assert sorted(groups) == [0] * 5 + [1] * 5
