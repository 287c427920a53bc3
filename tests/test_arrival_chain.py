"""The arrival chain, one definition read three ways (DESIGN.md §14).

A source's timeline depends on nothing but its own ``…/arrivals``
stream and on what holds the source back. The engine draws the chain as
*instants*, a ``SOURCE_CHUNK`` block at a time
(``StreamEngine._arrival_block``), and the scalar step reads the blocks
through ``_arrive``: a block per ``ARRIVAL`` event, or with its horizon
pinned one instant per event; the batch executor reads whole
``_GAP_BLOCK`` blocks through the same method. Backpressure holds a
source, and the rest of its block is re-chained from the instant the
held tuple is emitted; a failed source drops what it generates during
its downtime and a logged source replays it, and neither moves the
chain. Held here:

1. *three-way* — per source, the origin times a computed run delivers
   equal the evented run's (``tests.conftest.evented``), the
   batch replay's and a per-call ``exponential(mean)`` reference, for
   every arrival kind, budgets around the block size and a
   ``max_sim_time`` that cuts mid-block, on a block's last instant and
   before the first arrival;
2. *splits* — ``_arrival_block`` does not depend on how a request for
   instants is cut into calls;
3. *errors* — a missing ``rate_profile`` is reported by ``run()``, an
   event rate that is not positive and finite where it is given, and a
   profile rate that is NaN, negative or infinite at its instant;
4. *row generators* — one with ``per_subtask()`` is called in its own
   subtask's arrival order, ``event_time`` the arrival instant;
5. *budgets* — ``max_tuples_per_source`` below the parallelism is not
   exceeded, in any mode;
6. *heap* — a source runs at most a block ahead of the clock;
7. *held clocks* — against the per-call reference, extended here and
   independent of the engine: a throttled source retries every 1 ms
   while the observer's ``on_backpressure`` calls say a subtask is
   congested, and its next gap is drawn from the emission; a failed
   source drops exactly the per-call instants inside its downtime; a
   checkpointed source's replayed log carries the per-call origin
   times.

Mutations, each run against this file when it was written. Cutting a
block with ``side="left"`` fails the 20 on-instant cases of (1) and
nothing else. Seeding the next block from ``instants[0]`` instead of
``instants[-1]`` fails 28 of the 32 cases of (1) with a budget above
``SOURCE_CHUNK`` (the rest are cut inside their first block), (4) and
(6). Retrying a throttled arrival with its block's stale instants
instead of re-chaining them fails the four throttled cases of (7).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest

import repro.sps.engine as engine_module
from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.batch import ColumnarExecutor
from repro.sps.costs import OperatorCost
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.operators.sink import SinkLogic
from repro.sps.operators.source import SOURCE_CHUNK
from repro.sps.tuples import StreamTuple
from tests.conftest import evented
from tests.test_universe import SCHEMA, arrivals_engine
from tests.test_window_kernel import per_call_arrivals

KINDS = ("poisson", "constant", "bursty", "profile")
RATE = 1000.0


def rate_profile(t):
    return RATE + 600.0 * math.sin(90.0 * t)


BUDGETS = (1, SOURCE_CHUNK - 1, SOURCE_CHUNK, SOURCE_CHUNK + 1, 65)
CLUSTER = homogeneous_cluster(num_nodes=2)

#: the scalar steps (``evented`` runs the reference) and the batch
#: executor
MODES = ("computed", "evented", "batch")


def engine_of(plan, mode, seed=23, cluster=CLUSTER, **config):
    if mode == "batch":
        config["batch_size"] = 64
    engine = StreamEngine(
        plan,
        cluster,
        config=SimulationConfig(**config),
        rng_factory=RngFactory(seed),
    )
    return evented(engine) if mode == "evented" else engine


# -------------------------------------------------------------- 1. three-way


class CapturingSink(SinkLogic):
    """Also keeps, per stamped source, the origin times and the event
    times it is handed."""

    def __init__(self):
        super().__init__()
        self.origins = {}
        self.event_times = {}

    def process(self, tup, now, port=0):
        self.origins.setdefault(tup.values[0], []).append(tup.origin_time)
        self.event_times.setdefault(tup.values[0], []).append(tup.event_time)
        return super().process(tup, now, port)


def stamped(stamp):
    def generate(rng, now):
        return StreamTuple(
            values=(stamp, 0.5), event_time=now, size_bytes=24.0
        )

    return generate


#: ``chain_plan``'s sources; a tuple's stamp is its source's index here
OPS = KINDS + ("pacer",)


def chain_plan(relay=None):
    """One source per arrival kind, each stamping its tuples, and a
    fast constant one so that a run cut before a kind's first arrival
    still has results; one sink, behind ``relay`` if one is given."""
    plan = LogicalPlan("chain")
    plan.add_operator(builders.sink("sink"))
    plan.operator("sink").logic_factory = CapturingSink
    target = "sink"
    if relay is not None:
        plan.add_operator(relay)
        plan.connect(relay.op_id, "sink")
        target = relay.op_id
    for stamp, op_id in enumerate(OPS):
        fast = op_id == "pacer"
        op = builders.source(
            op_id,
            stamped(stamp),
            SCHEMA,
            event_rate=RATE * (64.0 if fast else 1.0),
            arrival="constant" if fast else op_id,
        )
        if op_id == "profile":
            op.metadata["rate_profile"] = rate_profile
        plan.add_operator(op)
        plan.connect(op_id, target)
    return plan


def chain_engine(mode, budget, max_sim_time=60.0):
    return engine_of(
        chain_plan(),
        mode,
        max_tuples_per_source=budget,
        max_sim_time=max_sim_time,
        warmup_fraction=0.0,
    )


def by_source(engine, per_gid):
    return {
        engine._runtimes[gid].op_id: list(times)
        for gid, times in per_gid.items()
    }


def sunk(engine):
    """Per source, the origin times its tuples reached the sink with."""
    origins = engine._sinks[0].origins
    return {op: origins.get(stamp, []) for stamp, op in enumerate(OPS)}


def delivered(mode, budget, max_sim_time):
    """Per source, the origin times the mode emitted — checked against
    the per-call chain of ``tests/test_window_kernel``."""
    engine = chain_engine(mode, budget, max_sim_time)
    if mode == "batch":
        got = by_source(engine, ColumnarExecutor(engine)._replay_arrivals())
    else:
        engine.run()
        assert engine.step == mode
        got = sunk(engine)
    assert got == by_source(engine, per_call_arrivals(engine))
    return got


def cut_at(where, chain):
    """A ``max_sim_time`` placed against one source's uncut chain."""
    if where == "none":
        return 60.0
    if where == "before the first arrival":
        return chain[0] / 2
    if where == "on a block's last instant":
        return chain[min(len(chain), SOURCE_CHUNK) - 1]
    # mid-block: between two arrivals three quarters of the way along
    # (24 or 48 kept, never a whole block); after the only one of a
    # budget of one
    keep = len(chain) * 3 // 4
    if not keep:
        return chain[0] * 1.5
    return (chain[keep - 1] + chain[keep]) / 2


@pytest.mark.parametrize(
    "where",
    [
        "none",
        "mid-block",
        "on a block's last instant",
        "before the first arrival",
    ],
)
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("kind", KINDS)
def test_three_modes_emit_the_same_instants(kind, budget, where):
    unrun = chain_engine("computed", budget)
    uncut = by_source(unrun, per_call_arrivals(unrun))[kind]
    assert len(uncut) == budget
    max_sim_time = cut_at(where, uncut)
    kept = [at for at in uncut if at <= max_sim_time]
    runs = [delivered(mode, budget, max_sim_time) for mode in MODES]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][kind] == kept
    if where == "on a block's last instant":
        assert kept and kept[-1] == max_sim_time
        assert len(kept) == min(budget, SOURCE_CHUNK)
    elif where == "before the first arrival":
        assert not kept and runs[0]["pacer"]
    elif where == "mid-block" and budget > 1:
        assert 0 < len(kept) < budget
        assert len(kept) % SOURCE_CHUNK
    else:
        assert len(kept) == budget


# ----------------------------------------------------------------- 2. splits


@pytest.mark.parametrize(
    "split", [(1, 31), (31, 1), (7, 25), (32, 32), (1, 63), (33, 31)]
)
def test_a_block_does_not_depend_on_how_it_is_requested(split):
    whole, parts = arrivals_engine(1), arrivals_engine(1)
    sources = [rt.gid for rt in whole._runtimes if rt.is_source]
    assert len(sources) == len(KINDS)
    for gid in sources:
        want = whole._arrival_block(whole._runtimes[gid], 0.0, sum(split))
        runtime = parts._runtimes[gid]
        first = parts._arrival_block(runtime, 0.0, split[0])
        rest = parts._arrival_block(runtime, float(first[-1]), split[1])
        assert np.concatenate([first, rest]).tolist() == want.tolist()
        assert len(want) == sum(split)


# ----------------------------------------------------------------- 3. errors


def one_source_plan(arrival="profile", profile=None):
    plan = LogicalPlan("one-source")
    op = builders.source("src", stamped(0), SCHEMA, RATE, arrival=arrival)
    if profile is not None:
        op.metadata["rate_profile"] = profile
    plan.add_operator(op)
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "sink")
    return plan


@pytest.mark.parametrize("mode", MODES)
def test_a_missing_rate_profile_is_reported_by_run(mode):
    engine = engine_of(one_source_plan(), mode, max_tuples_per_source=10)
    with pytest.raises(ConfigurationError, match="rate_profile"):
        engine.run()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0, 0.0])
def test_an_event_rate_that_is_not_positive_and_finite_is_refused(
    rate, mode
):
    """NaN used to pass both checks and end in ``no latency samples``,
    or on the evented step in an untyped ``ValueError``."""
    with pytest.raises(ConfigurationError, match="event_rate must be"):
        builders.source("src", stamped(0), SCHEMA, rate)
    plan = one_source_plan("poisson")
    plan.operator("src").metadata["event_rate"] = rate
    with pytest.raises(ConfigurationError, match="src: event rate must"):
        engine_of(plan, mode, max_tuples_per_source=10).run()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", [math.nan, -5.0, math.inf])
def test_a_rate_profile_that_leaves_the_rates_is_refused(bad, mode):
    """From 0.5 s the profile gives ``bad``: a NaN used to stop the
    source silently mid-run, a negative rate to be clamped to 1e-9."""
    engine = engine_of(
        one_source_plan(profile=lambda t: RATE if t < 0.5 else bad),
        mode,
        max_tuples_per_source=2000,
    )
    with pytest.raises(
        ConfigurationError, match=rf"src: rate_profile gave {bad} at t=0\.5"
    ):
        engine.run()


@pytest.mark.parametrize("mode", MODES)
def test_a_rate_profile_of_zero_pauses_its_source(mode):
    """A zero rate keeps the clamp: the next gap outlasts the run."""
    engine = engine_of(
        one_source_plan(profile=lambda t: RATE if t < 0.5 else 0.0),
        mode,
        max_tuples_per_source=2000,
    )
    metrics = engine.run()
    assert 400 < metrics.source_events < 600


# --------------------------------------------------------- 4. row generators


class Cursor:
    """A row generator with state: each subtask takes its own cursor,
    which stamps its tuples and records the instants it is called
    with. It leaves ``event_time`` for the source to set."""

    def __init__(self, cursors):
        self.cursors = cursors
        self.stamp = len(cursors)
        self.seen = []

    def per_subtask(self):
        cursor = Cursor(self.cursors)
        self.cursors.append(cursor)
        return cursor

    def __call__(self, rng, now):
        self.seen.append(now)
        return StreamTuple(
            values=(self.stamp, 0.5), event_time=-1.0, size_bytes=24.0
        )


@pytest.mark.parametrize("kind", KINDS)
def test_a_row_generator_sees_its_own_subtasks_instants_in_order(kind):
    cursors = []
    plan = LogicalPlan("cursor")
    op = builders.source(
        "src", Cursor(cursors), SCHEMA, RATE, parallelism=3, arrival=kind
    )
    op.metadata["rate_profile"] = rate_profile
    plan.add_operator(op)
    plan.add_operator(builders.sink("sink"))
    plan.operator("sink").logic_factory = CapturingSink
    plan.connect("src", "sink")
    engine = engine_of(
        plan, "computed", max_tuples_per_source=3 * 70, warmup_fraction=0.0
    )
    engine.run()
    assert engine.step == "computed"
    used = [cursor for cursor in cursors if cursor.seen]
    assert len(used) == 3
    chains = per_call_arrivals(engine)
    assert sorted(c.seen for c in used) == sorted(chains.values())
    sink = engine._sinks[0]
    for cursor in used:
        assert len(cursor.seen) == 70
        assert cursor.seen == sorted(cursor.seen)
        assert sink.origins[cursor.stamp] == cursor.seen
        assert sink.event_times[cursor.stamp] == cursor.seen


# ---------------------------------------------------------------- 5. budgets


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 9])
def test_a_budget_below_the_parallelism_is_not_exceeded(mode, budget):
    """The p4 hot-path plan: budgets 1..3 used to emit 4 source events,
    a floor of one tuple per subtask. The first ``budget`` subtasks get
    one each; from the parallelism up, the truncating split as ever."""
    engine = engine_of(
        perf.hotpath_plan(),
        mode,
        cluster=homogeneous_cluster("m510", 4),
        max_tuples_per_source=budget,
    )
    budgets = [rt.arrival_budget for rt in engine._runtimes if rt.is_source]
    assert len(budgets) == 4
    if budget < 4:
        assert budgets == [1] * budget + [0] * (4 - budget)
    else:
        assert budgets == [budget // 4] * 4
    metrics = engine.run()
    assert metrics.source_events == sum(budgets) <= budget
    emitted = [rt.emitted for rt in engine._runtimes if rt.is_source]
    assert emitted == budgets


# ------------------------------------------------------------------- 6. heap


def heap_high_water(engine):
    """The deepest heap any handler of the run was entered with."""
    depths = [0]
    make = engine._make_handlers

    def wrapped():
        def sizing(handler):
            def handle(gid, payload, port):
                depths[0] = max(depths[0], len(engine._k.heap))
                handler(gid, payload, port)

            return handle

        return [sizing(h) if h is not None else None for h in make()]

    engine._make_handlers = wrapped
    engine.run()
    return depths[0]


def wc_engine():
    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(cluster, RunnerConfig(repeats=1, dilation=25.0))
    return StreamEngine(
        runner.prepare_app("WC", 2).plan,
        cluster,
        config=SimulationConfig(max_tuples_per_source=1200, max_sim_time=3.0),
        rng_factory=RngFactory(11),
    )


def test_a_source_runs_at_most_a_block_ahead_of_the_clock():
    """With ``SOURCE_CHUNK`` patched to 1 a source schedules one
    arrival per event, as it did before blocks: the heap of the blocked
    run is deeper by at most a block of each source subtask's
    deliveries, and the same simulation comes out."""
    blocked = wc_engine()
    deep = heap_high_water(blocked)
    with mock.patch.object(engine_module, "SOURCE_CHUNK", 1):
        single = wc_engine()
        flat = heap_high_water(single)
    sources = [rt for rt in blocked._runtimes if rt.is_source]
    fan_out = max(
        len(entry[1]) if entry[1] is not None else 1
        for rt in sources
        for entry in rt.route_table
    )
    assert fan_out == 1 and len(sources) == 2
    assert flat < deep <= flat + SOURCE_CHUNK * fan_out * len(sources)
    assert blocked.step == single.step == "computed"
    assert [s.latencies for s in blocked._sinks] == [
        s.latencies for s in single._sinks
    ]


# ------------------------------------------------------------ 7. held clocks


class FlowLog(EngineObserver):
    """Records the engagements and releases of backpressure, nothing
    else."""

    def __init__(self):
        super().__init__()
        self.flow = []

    def on_backpressure(self, runtime, now, engaged):
        self.flow.append((now, runtime.gid, engaged))


def held_by(flow, max_time):
    """``per_call_arrivals``'s ``held`` for a run whose backpressure
    engaged and released as ``flow`` says: while any subtask is
    congested, an arrival is throttled and retried 1 ms later. Returns
    it and a one-element list that counts the throttled arrivals."""
    instants, congested, live = [], [], set()
    for now, gid, engaged in flow:
        (live.add if engaged else live.discard)(gid)
        instants.append(now)
        congested.append(bool(live))
    throttled = [0]

    def held(at):
        while at <= max_time:
            i = bisect_left(instants, at)  # what changed before ``at``
            if not (i and congested[i - 1]):
                break
            throttled[0] += 1
            at += 1e-3
        return at

    return held, throttled


@pytest.mark.parametrize("seed", [23, 5])
@pytest.mark.parametrize("max_sim_time", [60.0, 0.04])
def test_a_throttled_source_resumes_its_chain_where_it_emits(
    seed, max_sim_time
):
    """Every source feeds one slow relay that backs up. The next gap of
    a held arrival is drawn from its emission, the same stream's next
    ``exponential(mean)``; a retry past ``max_sim_time`` ends the
    source."""
    relay = builders.map_op(
        "relay", lambda values: values, cost=OperatorCost(base_cpu_s=2e-4)
    )
    observer = FlowLog()
    engine = StreamEngine(
        chain_plan(relay),
        CLUSTER,
        config=SimulationConfig(
            max_tuples_per_source=65,
            max_sim_time=max_sim_time,
            warmup_fraction=0.0,
            backpressure_queue_limit=2,
        ),
        rng_factory=RngFactory(seed),
        observer=observer,
    )
    metrics = engine.run()
    held, throttled = held_by(observer.flow, max_sim_time)
    assert sunk(engine) == by_source(engine, per_call_arrivals(engine, held))
    assert metrics.extras["throttled_arrivals"] == throttled[0] > 0


#: ``(transitions, engagements, sha256(repr(flow))[:16])`` of the
#: ``(now, gid, engaged)`` sequence a ``FlowLog`` sees on the
#: ``WC-throttled`` shape of ``tests/test_engine_counts.py``, recorded
#: on the clock-ordered step before a backpressured run became the
#: computed step with its horizon pinned: each engagement at the
#: enqueue instant its depth reached the limit, each release at the
#: dequeue instant that left half of it (or at an idle server).
THROTTLED_FLOW = (816, 408, "c62e47a377dc2cea")


def test_backpressure_engages_and_releases_where_it_did():
    """Results and ``throttled_arrivals`` would not notice a release
    that moved off its dequeue instant by less than a retry; the flow
    does."""
    cluster = homogeneous_cluster("m510", 4)
    runner = BenchmarkRunner(cluster, RunnerConfig(dilation=25.0))
    observer = FlowLog()
    engine = StreamEngine(
        runner.prepare_app("WC", 4).plan,
        cluster,
        config=SimulationConfig(
            max_tuples_per_source=1500,
            max_sim_time=8.0,
            backpressure_queue_limit=4,
        ),
        rng_factory=RngFactory(17),
        observer=observer,
    )
    metrics = engine.run()
    flow = observer.flow
    digest = hashlib.sha256(repr(flow).encode()).hexdigest()[:16]
    engaged = sum(entry[2] for entry in flow)
    assert (len(flow), engaged, digest) == THROTTLED_FLOW
    assert engine.step == "evented"
    assert metrics.extras["throttled_arrivals"] == 112


@pytest.mark.parametrize("node", [0, 1])
def test_a_failed_source_drops_the_instants_of_its_downtime(node):
    """The chain runs on through the downtime: what a failed source
    drops is exactly its per-call instants in ``[at, at + duration)``,
    and the rest reach the sink."""
    at, duration = 0.02, 0.03
    engine = engine_of(
        chain_plan(),
        "computed",
        max_tuples_per_source=65,
        warmup_fraction=0.0,
        scenario=f"failure:at={at},duration={duration},node={node}",
    )
    metrics = engine.run()
    until = at + duration
    want, dropped = {}, 0
    for gid, chain in per_call_arrivals(engine).items():
        down = engine._runtimes[gid].node_id == node
        kept = [t for t in chain if not (down and at <= t < until)]
        dropped += len(chain) - len(kept)
        want[gid] = kept
    assert sunk(engine) == by_source(engine, want)
    loss = metrics.extras["elastic"]["state_loss"]
    assert loss["lost_source_tuples"] == dropped > 0


@pytest.mark.parametrize("delivery", ["exactly_once", "at_least_once"])
def test_a_replayed_log_carries_the_chains_origin_times(delivery):
    """Checkpointed through a failure, the sources replay their logs:
    the sink sees every per-call instant, and under exactly-once each
    once."""
    engine = engine_of(
        chain_plan(),
        "computed",
        max_tuples_per_source=65,
        warmup_fraction=0.0,
        checkpoint_interval=0.01,
        delivery=delivery,
        scenario="failure:at=0.03,duration=0.01,node=0",
    )
    metrics = engine.run()
    assert metrics.extras["ft"]["replayed_events"] > 0
    want = by_source(engine, per_call_arrivals(engine))
    got = sunk(engine)
    assert {op: sorted(set(t)) for op, t in got.items()} == want
    if delivery == "exactly_once":
        assert {op: sorted(t) for op, t in got.items()} == want
