"""Checkpointed runs on the plain steps (DESIGN.md §13, §14).

A checkpointed run executes the engine's plain step: the computed
step, whose barriers are decided when they are delivered, as of their
dequeue instant, and whose node failures, recoveries and replays act at
control instants; as its reference (``tests.conftest.evented``), the
same step with its horizon pinned, where a barrier whose dequeue lies
ahead of the clock waits at the head of its queue for a ``BEGIN``. Deliveries carry a
dense channel id where a plain run carries the port. None of that may
move a simulated number. Pinned here:

- goldens recorded before either step carried checkpoints (the ``_ft_*``
  twin step, one ``BEGIN`` per overhead-paying ``DONE``):
  ``RunMetrics.to_dict()`` minus the event counter holds bit for bit,
  and the event counts are pinned beside it;
- the Lindley oracle of ``tests/test_universe.py`` extended to
  barriers, on both steps: a barrier triggered or delivered inside a
  ``free_at`` window is dequeued at ``free_at``, and every counter
  equals the ``BEGIN``-event engine's;
- per-channel FIFO on delivery order: a small late tuple never
  overtakes a large early one, a barrier never overtakes data;
- the source log is bounded by one checkpoint interval;
- an observer, with and without the race detector beside it, sees the
  hook sequence the parent recorded.

Re-recording (only for a deliberate change of simulated behaviour)::

    PYTHONPATH=src:. python tests/test_ft_step.py

prints ``GOLDEN`` and ``HOOKS``; the event counts are the second
element of each ``GOLDEN`` entry.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import repro.sps.engine as engine_module
from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.experiments.exp5 import ft_workload_plan
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.partitioning import HashPartitioner
from repro.sps.tuples import StreamTuple
from tests.conftest import evented, sender_overhead
from tests.test_universe import (
    GAP,
    SCHEMA,
    TUPLES,
    oracle,
    tandem_engine,
)

SEEDS = (3, 11)
FAILURE = "failure:at=0.3,duration=0.1"


def _hotpath(seed, **config):
    return StreamEngine(
        perf.hotpath_plan(),
        homogeneous_cluster("m510", 4),
        config=SimulationConfig(
            max_tuples_per_source=4000,
            max_sim_time=8.0,
            checkpoint_interval=0.05,
            **config,
        ),
        rng_factory=RngFactory(seed),
    )


def _loaded(seed):
    """Utilisation ~0.8 and a barrier every millisecond: most barriers
    meet a backlog, many a sender-overhead window."""
    return StreamEngine(
        perf.hotpath_plan(parallelism=2, event_rate=600_000.0),
        homogeneous_cluster("m510", 4),
        config=SimulationConfig(
            max_tuples_per_source=6000,
            max_sim_time=8.0,
            checkpoint_interval=0.001,
        ),
        rng_factory=RngFactory(seed),
    )


def _exp5(seed, observer=None, sanitize=False, **config):
    return StreamEngine(
        ft_workload_plan(),
        homogeneous_cluster(num_nodes=4),
        config=SimulationConfig(
            max_tuples_per_source=300,
            max_sim_time=3.0,
            warmup_fraction=0.0,
            checkpoint_interval=0.05,
            **config,
        ),
        rng_factory=RngFactory(seed),
        observer=observer,
        sanitize=sanitize,
    )


def _join(seed):
    """Two inputs per join subtask: alignment buffers fill, and the
    failure lands while both sources are still generating."""
    return StreamEngine(
        perf.join8_plan(parallelism=2),
        homogeneous_cluster("m510", 4),
        config=SimulationConfig(
            max_tuples_per_source=1500,
            max_sim_time=8.0,
            checkpoint_interval=0.05,
            scenario=FAILURE,
        ),
        rng_factory=RngFactory(seed),
    )


CASES = {
    "hotpath-ckpt": _hotpath,
    "hotpath-loaded": _loaded,
    "exp5-failure-free": _exp5,
    "exp5-exactly-once": lambda seed: _exp5(seed, scenario=FAILURE),
    "exp5-at-least-once": lambda seed: _exp5(
        seed, scenario=FAILURE, delivery="at_least_once"
    ),
    "join-two-inputs": _join,
}


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def simulated(metrics):
    """``(digest of to_dict() minus the event counter, events)``."""
    record = metrics.to_dict()
    events = record["extras"].pop("events_processed")
    del record["extras"]["step"]
    return _sha(record), events


#: ``{case: {seed: (digest, events)}}``. The digests are the ``_ft_*``
#: twin step's. Every case runs computed: the event counts are that
#: step's, the twin step's beside them (one ``BEGIN`` per
#: overhead-paying ``DONE`` more, in DESIGN.md §13) and, for the three
#: recovering cases, the evented step's they ran before node failures
#: became control instants.
GOLDEN = {
    "hotpath-ckpt": {
        3: ("e7f996fdbb1338fa", 7858),  # 22722
        11: ("22e6bdc8aa77f6ee", 7770),  # 22548
    },
    "hotpath-loaded": {
        3: ("e603f400be7c9e7a", 9331),  # 30126
        11: ("b4790c8b269f2216", 9326),  # 30118
    },
    "exp5-failure-free": {
        3: ("d9e7ccd3db8c779f", 366),  # 1287
        11: ("0461935b65c32b7d", 365),  # 1286
    },
    "exp5-exactly-once": {
        3: ("cabfc8c0b72969a1", 695),  # 2286; evented 1798
        11: ("a445461f9895ee0d", 689),  # 2277; evented 1791
    },
    "exp5-at-least-once": {
        3: ("c8e5f31c53a2c8ce", 695),  # 2289; evented 1801
        11: ("df125036694aec8d", 689),  # 2278; evented 1792
    },
    "join-two-inputs": {
        3: ("25636a483989d59b", 43791),  # 95351; evented 89211
        11: ("ea1210dd1a869e68", 44288),  # 95932; evented 89664
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_simulated_numbers_are_the_parents(case, seed):
    engine = CASES[case](seed)
    assert simulated(engine.run()) == GOLDEN[case][seed]
    assert engine.step == "computed"


# ----------------------------------------------------------- hook sequence


class HookLog(EngineObserver):
    """Every serve, checkpoint and recovery an observer is told of."""

    def __init__(self):
        super().__init__(serve_spans=False)
        self.serves = {}
        self.lifecycle = []

    def on_serve(self, runtime, now, service, wait):
        super().on_serve(runtime, now, service, wait)
        self.serves.setdefault(runtime.gid, []).append((now, service, wait))

    def on_checkpoint(self, engine, record):
        super().on_checkpoint(engine, record)
        self.lifecycle.append(
            ("checkpoint", record.ckpt_id, record.completed_at)
        )

    def on_recovery(self, engine, node_id, pause_s, replayed, ckpt_id):
        super().on_recovery(engine, node_id, pause_s, replayed, ckpt_id)
        self.lifecycle.append(
            ("recovery", node_id, pause_s, replayed, ckpt_id)
        )

    def digest(self):
        """Serves per subtask (a ``DONE`` that starts the next service
        reports it ahead of the clock, so only the per-subtask order is
        the parent's), lifecycle hooks in call order, and the counters
        the engine bumps directly."""
        return _sha(
            [
                sorted(self.serves.items()),
                self.lifecycle,
                self.tuples_in,
                self.tuples_out,
                self.shuffle_bytes,
            ]
        )


#: ``HookLog.digest()`` of the exp5 exactly-once recovery, seed 3.
HOOKS = "7a16a5b93611d1dc"


@pytest.mark.parametrize("sanitize", [False, True])
def test_observers_see_the_parents_hook_sequence(sanitize):
    observer = HookLog()
    engine = _exp5(3, observer=observer, sanitize=sanitize, scenario=FAILURE)
    engine.run()
    assert observer.digest() == HOOKS
    kinds = [entry[0] for entry in observer.lifecycle]
    assert "recovery" in kinds and kinds.count("checkpoint") > 2
    if sanitize:
        # A detector without an observer beside it reaches the same
        # verdict.
        alone = _exp5(3, sanitize=True, scenario=FAILURE)
        alone.run()
        beside = engine.race_detector
        assert alone.race_detector.findings == beside.findings == []
        assert alone.race_detector.rng_ledger == beside.rng_ledger
        assert "engine/ft" in beside.rng_ledger


# ------------------------------------------- barriers and free_at windows


class Recording(StreamEngine):
    """Notes the instant every subtask dequeues every barrier — the one
    the step passes in, which on the computed step is ahead of the
    clock — and counts the ``BEGIN`` events."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dequeues = []
        self.begins = 0

    def _ft_barrier_dequeued(self, runtime, barrier, chan, now):
        self.dequeues.append((barrier.ckpt_id, runtime.op_id, now))
        super()._ft_barrier_dequeued(runtime, barrier, chan, now)

    def _make_handlers(self):
        handlers = super()._make_handlers()
        begin = handlers[engine_module._BEGIN]

        def counted(gid, payload, port):
            self.begins += 1
            begin(gid, payload, port)

        handlers[engine_module._BEGIN] = counted
        return handlers


class BeginEvents(Recording):
    """The reference: sender overhead ends in a ``BEGIN`` event, always
    — the evented step checkpointed runs had before it was fused."""

    def _begin_run(self, kernel, owned=None):
        super()._begin_run(kernel, owned)
        self._fused = False


def births():
    out, t = [], 0.0
    for _ in range(TUPLES):
        t += GAP
        out.append(t)
    return out


def barrier_oracle(engine, trigger):
    """When each operator of the tandem dequeues a barrier triggered at
    ``trigger``, by hand: behind the last tuple generated before it, so
    never before that tuple is done *and its sender overhead is paid* —
    ``max(barrier arrives, done_i + o)``, a Lindley step of its own."""
    _, _, dones = oracle(engine)
    last = sum(1 for born in births() if born <= trigger) - 1
    at = trigger
    out = {}
    for rt in engine._runtimes:
        if last >= 0:
            at = max(at, dones[rt.op_id][last] + sender_overhead(rt))
        out[rt.op_id] = at  # same node: the barrier arrives when sent
    return out


@pytest.mark.parametrize("stages", [1, 2])
def test_a_barrier_inside_a_free_at_window_waits_for_free_at(stages):
    for step in ("computed", "evented"):
        barriers_wait_for_free_at(stages, step)


def barriers_wait_for_free_at(stages, step):
    # The source serves a tuple for 1 us and pays 1.45 us of sender
    # overhead, every 5 us: the first trigger lands 0.7 us into the
    # overhead of tuple 9, later ones in service, in overhead and idle.
    interval = births()[9] + 1.7e-6
    engine = tandem_engine(
        stages, engine=Recording, checkpoint_interval=interval
    )
    if step == "evented":
        evented(engine)
    metrics = engine.run()
    reference = evented(
        tandem_engine(stages, engine=BeginEvents, checkpoint_interval=interval)
    )
    begin_metrics = reference.run()
    assert (engine.step, reference.step) == (step, "evented")

    records = engine._ft_store.completed
    assert len(records) >= 5
    for record in records:
        want = barrier_oracle(engine, record.triggered_at)
        got = {
            op_id: at
            for ckpt_id, op_id, at in engine.dequeues
            if ckpt_id == record.ckpt_id
        }
        assert got == want
        assert record.completed_at == want["sink"]
    _, _, dones = oracle(engine)
    src = engine._runtimes[0]
    first = barrier_oracle(engine, interval)
    assert first["src"] == dones["src"][9] + sender_overhead(src)
    assert dones["src"][9] < interval < first["src"]
    waited = [
        barrier_oracle(engine, record.triggered_at)["src"]
        > record.triggered_at
        for record in records
    ]
    assert True in waited and False in waited

    # The BEGIN-event engine sees the same instants and counters ...
    assert engine.dequeues == reference.dequeues
    assert [vars(record) for record in records] == [
        vars(record) for record in reference._ft_store.completed
    ]
    for rt, ref in zip(engine._runtimes, reference._runtimes):
        assert (rt.wait_time, rt.busy_time, rt.served, rt.queue_peak) == (
            ref.wait_time,
            ref.busy_time,
            ref.served,
            ref.queue_peak,
        ), rt.op_id
    assert simulated(metrics)[0] == simulated(begin_metrics)[0]
    # ... through one BEGIN per overhead-paying DONE; evented, only a
    # barrier met inside a window costs one, and computed none does.
    hops = stages + 1
    assert reference.begins == TUPLES * hops
    if step == "evented":
        assert 0 < engine.begins <= len(engine.dequeues)
        assert (
            begin_metrics.extras["events_processed"]
            - metrics.extras["events_processed"]
            == reference.begins - engine.begins
        )
    else:
        assert engine.begins == 0
    # And barriers cost the data nothing: the plain oracle still holds.
    counters, latencies, _ = oracle(engine)
    assert engine._sinks[0].latencies == latencies
    for rt in engine._runtimes:
        assert (rt.wait_time, rt.busy_time, rt.served) == counters[rt.op_id][
            :3
        ]


# ------------------------------------------------------- per-channel FIFO

BIG, SMALL = 200_000.0, 10.0


def sized_generator():
    """Counts up: two large tuples, two tiny ones, and so on, so each
    of two hash channels alternates between the sizes."""
    count = 0

    def generate(rng, now):
        nonlocal count
        count += 1
        size = BIG if (count - 1) % 4 < 2 else SMALL
        return StreamTuple(
            values=(count - 1, 0.5), event_time=now, size_bytes=size
        )

    return generate


class PassThrough(OperatorLogic):
    def process(self, tup, now, port=0):
        return [tup]


class Tapped(StreamEngine):
    """Records every delivery in pop order: ``(time, gid, chan, item)``."""

    def _make_handlers(self):
        handlers = super()._make_handlers()
        deliver = handlers[engine_module._DELIVER]
        self.deliveries = []

        def tap(gid, payload, chan):
            self.deliveries.append((self._k.now, gid, chan, payload))
            deliver(gid, payload, chan)

        handlers[engine_module._DELIVER] = tap
        return handlers


def test_channels_are_fifo_whatever_the_payload_sizes():
    """160 us on the wire for a large tuple, 20 us between tuples: sent
    as computed, every small tuple would overtake the large one before
    it, and barriers (no payload) everything in flight."""
    plan = LogicalPlan("fifo")
    plan.add_operator(
        builders.source(
            "src", sized_generator(), SCHEMA, 50_000.0, arrival="constant"
        )
    )
    plan.add_operator(
        builders.udo(
            "relay", PassThrough, parallelism=2, output_schema=SCHEMA
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "relay", HashPartitioner(key_field=0))
    plan.connect("relay", "sink", HashPartitioner(key_field=0))
    engine = Tapped(
        plan,
        homogeneous_cluster("m510", 4),
        config=SimulationConfig(
            max_tuples_per_source=400, checkpoint_interval=1e-3
        ),
    )
    metrics = engine.run()
    assert metrics.results == 400
    assert len({rt.node_id for rt in engine._runtimes}) == 4
    records = engine._ft_store.completed
    assert len(records) > 5 and engine._ft_store.skipped == 0

    channels = {}
    for at, gid, chan, item in engine.deliveries:
        channels.setdefault((gid, chan), []).append((at, item))
    assert len(channels) == 2 + 2  # src -> 2 relays, 2 relays -> sink
    clamped = 0
    for (gid, chan), arrivals in channels.items():
        data = [
            item.values[0]
            for _, item in arrivals
            if item.__class__ is StreamTuple
        ]
        assert data == sorted(data) and len(data) > 50
        # Held back to the delivery ahead of it: a tie, in sent order.
        times = [at for at, _ in arrivals]
        clamped += sum(at == ahead for at, ahead in zip(times[1:], times))
        if engine._runtimes[gid].op_id != "relay":
            continue
        # A barrier never overtakes data: on a source channel, what
        # arrives ahead of checkpoint k's barrier is exactly what the
        # source had sent when it recorded its replay offset.
        seen = 0
        cuts = iter(records)
        for _, item in arrivals:
            if item.__class__ is StreamTuple:
                seen = item.values[0] + 1
            else:
                record = next(cuts)
                assert item.ckpt_id == record.ckpt_id
                assert seen <= record.source_offsets[0]
                later = [index for index in data if index >= seen]
                assert not later or later[0] >= record.source_offsets[0]
        assert next(cuts, None) is None
    assert clamped > 100


# --------------------------------------------------------------- log bound


class LogBound(EngineObserver):
    """At every completed checkpoint, a source's log holds exactly the
    tuples generated since the checkpoint's offset."""

    def __init__(self):
        super().__init__(serve_spans=False)
        self.lengths = []

    def on_checkpoint(self, engine, record):
        super().on_checkpoint(engine, record)
        for rt in engine._runtimes:
            if rt.is_source:
                offset = record.source_offsets[rt.gid]
                assert rt.ft_base == offset
                assert len(rt.ft_log) == rt.emitted - offset
                self.lengths.append(len(rt.ft_log))


def test_the_source_log_is_bounded_by_a_checkpoint_interval():
    observer = LogBound()
    engine = StreamEngine(
        perf.hotpath_plan(),
        homogeneous_cluster("m510", 4),
        config=SimulationConfig(
            max_tuples_per_source=8000,
            max_sim_time=8.0,
            checkpoint_interval=0.05,
            scenario="failure:at=1.02,duration=0.1",
        ),
        rng_factory=RngFactory(5),
        observer=observer,
    )
    metrics = engine.run()
    ft = metrics.extras["ft"]
    assert ft["recoveries"] == 1 and ft["replayed_events"] > 0
    assert ft["checkpoints_completed"] == len(observer.lengths) // 4 > 25
    # 1000 tuples/s per source instance, a checkpoint every 50 ms: ~50
    # tuples, and after the outage the ~150 generated during it — never
    # the 2000 of the run.
    assert max(observer.lengths) < 400
    assert sorted(observer.lengths)[len(observer.lengths) // 2] < 100
    for rt in engine._runtimes:
        if rt.is_source:
            assert rt.emitted == 2000
            assert rt.ft_base + len(rt.ft_log) == 2000


if __name__ == "__main__":  # the re-recording recipe
    print("GOLDEN = {")
    for name in CASES:
        row = {seed: simulated(CASES[name](seed).run()) for seed in SEEDS}
        print(f"    {name!r}: {row!r},")
    print("}")
    log = HookLog()
    _exp5(3, observer=log, scenario=FAILURE).run()
    print(f"HOOKS = {log.digest()!r}")
