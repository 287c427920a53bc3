"""The computed step against its pinned horizon (DESIGN.md §14).

A plain run computes each completion when the tuple arrives
(``StreamEngine._complete``); a run whose horizon is pinned
(``"evented"``) completes every hop as a ``DONE`` event and hands its
queue back from there (``_handle_done`` → ``_hand_back``). The two
schedule the same draws differently, so the pinned run is the
reference: ``tests.conftest.evented`` runs the same plan pinned, and
``tests/test_universe.py``'s DAG oracle, written by hand, holds both.
Held here:

1. *differential* — the 14 applications, one plan per generated
   structure and a hypothesis property agree bit for bit on everything
   simulated: ``to_dict()`` minus the event count, every sink's
   latencies and arrival times, every subtask's counters;
2. *ties* — noise-free constant-rate tandems on a power-of-two grid, so
   that deliveries, service starts, completions and timer ticks coincide
   to the bit;
3. *shape* — an eligible run pops one event per tuple-hop delivered
   short of a sink, one per ``SOURCE_CHUNK`` source tuples and no
   ``DONE`` or ``BEGIN`` but the quiescence event, and counts the sink
   hops it settles;
4. *flush instant* — the run ends, and open windows flush, where the
   last ``DONE`` would have popped;
5. *eligibility* — which runs compute, one row per excluding feature;
6. *checkpoints* — failure-free checkpointed plans agree on everything
   above plus the sink values and the checkpoint log, across skipped
   triggers, alignment buffers and a tick that falls between a
   barrier's delivery and its dequeue instant;
7. *control instants* — rescales up and down, the three autoscaling
   policies, each injection and two at once, ``sanitize`` alone and
   with the autoscaler, and checkpoint + spike or straggler agree, the
   race detector's findings too; a power-of-two tie puts a control
   instant on an arrival, a delivery and a completion at once;
8. *settled sinks* — a sink slow enough to queue (the scalar
   recursion), a sink that overrides ``process``, the log's bound and
   an event budget only the settled hops cross;
9. *faults* — stalls and node failures, checkpointed or not, act at
   control instants: stalls of a source, an operator and a sink, two
   overlapping, one on a tick, one in a sender-overhead window and one
   past the last arrival, stall + checkpoint or rescale, a failure of a
   source's node, failure + spike or autoscaler, checkpointed failures
   under both delivery modes, two, and one landing mid-alignment agree,
   queue peaks and every hold included; overlapping outages hold a
   subtask for their union on both steps.

Mutations, each run against this file and against the five
``apps-scalar`` jobs of ``benchmarks/suite`` at seed 3 when the step
was written. Without the timer catch-up in ``_complete`` the WC and
slide8 jobs move (SG, AD and join8 hold: no tick separates a delivery
from its completion there); here 16 tests fail — four applications
(BI, CA, SA), the property, the ten tick ties and the flush instant.
Quiescing at the last pop instead of at the latest completion moves all
five jobs; here every differential and the flush instant fail (83).
Firing a tick that lands on a completion always, or never, ahead of it
fails the tick ties. Of the barrier rules: completing a checkpoint at
the last ack decided instead of the latest ack instant fails
``two-sinks``; snapshotting before the ticks due by the dequeue instant
fails ``tick-in-window``; not cutting a source's arrival block at a
trigger fails every checkpointed case here and every failure-free
golden of ``tests/test_ft_step.py``.

Of the horizon's rules (section 7, run against it when the horizon was
written): no re-pacing of a block after a spike fails the five spiked
cases, the re-pacing check and the tie; computing a hop done exactly
at the horizon (``done > _h`` for ``done >= _h``) fails the tie only;
no hand-back at a straddler's ``DONE`` — the server stays evented
until its queue drains — fails checkpoint + straggler, whose queued
barriers only the computed rules decide: without a barrier in play the
drained backlog simulates the same, only slower.

Of the faults (section 9, run against it when they were written): no
horizon at a stall's instant fails the stalled source and the tick;
holding an idle server from ``free_at`` without the evented step's
extra queued one fails the overhead window; not booking a purged
queue's depths fails the checkpointed exp5 failures at seed 3; reading
a replaying source's arrivals a block ahead fails two failures and the
mid-alignment one; firing a straddler's tick at its instant whatever
armed it fails the tick (forward edges); summing overlapping outages
fails the union. Serving a failed sink's buffer unsorted, or keeping a
purged subtask's ``starts`` and ``done_at``, fails nothing here: the
first takes diversions out of order at a sink, the second a recovery
shorter than a service.

Of the settled sinks (section 8, run when they were written): settling
a log unsorted, or counting a waiting hop's depth from the batch
instead of the earlier starts, fails ``AD``; settling every log at the
threshold, past the clock, moves ``join8``'s pinned engine count;
settling every log at quiescence fails the tick due before a logged
hop; bounding quiescence by the tick alone, not by its subtask's next
event number, fails the tick tie where a service spans two ticks;
logging on after quiescence put a log's rest back on the heap fails
the tick due before a logged hop (its sink's depth).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.apps as apps
import repro.sps.engine as engine_module
from repro.cluster import NetworkSpec, homogeneous_cluster
from repro.common.errors import SimulationError
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.experiments import exp4
from repro.core.experiments.exp5 import ft_workload_plan
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.costs import OperatorCost
from repro.sps.engine import (
    RescaleEvent,
    SimulationConfig,
    StallInjection,
    StreamEngine,
)
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.operators.sink import SinkLogic
from repro.sps.operators.source import SOURCE_CHUNK
from repro.sps.partitioning import ForwardPartitioner, HashPartitioner
from repro.sps.tuples import StreamTuple
from repro.sps.windows import AggregateFunction, SlidingTimeWindows
from repro.workload.parameter_space import ParameterSpace
from repro.workload.querygen import QueryStructure, build_structure
from tests.conftest import evented, kv_generator, sender_overhead
from tests.test_universe import SCHEMA, counting_generator

CLUSTER = homogeneous_cluster("m510", 4)
CONFIG = dict(max_tuples_per_source=1200, max_sim_time=3.0)


def simulated(engine):
    """Everything a run simulated, the event count aside."""
    metrics = engine.run().to_dict()
    events = metrics["extras"].pop("events_processed")
    assert metrics["extras"].pop("step") == engine.step
    sinks = [(sink.latencies, sink.arrival_times) for sink in engine._sinks]
    counters = [
        (rt.op_id, rt.wait_time, rt.busy_time, rt.served, rt.queue_peak)
        for rt in engine._runtimes
    ]
    return (metrics, sinks, counters), events


def without_depths(simulation):
    """``simulated()[0]`` less the queue peaks (see the handover tie)."""
    metrics, sinks, counters = simulation
    metrics = dict(metrics, operator_queue_peak=None)
    return metrics, sinks, [counter[:4] for counter in counters]


def both_steps(build, seed=3, cluster=CLUSTER, engine=StreamEngine, **config):
    """Run ``build()``'s plan computed and evented; the two engines."""
    engines = [
        engine(
            build(),
            cluster,
            config=SimulationConfig(**{**CONFIG, **config}),
            rng_factory=RngFactory(seed),
        )
        for _ in range(2)
    ]
    return [engines[0], evented(engines[1])]


def assert_same_simulation(computed, evented):
    got, fewer = simulated(computed)
    want, events = simulated(evented)
    assert (computed.step, evented.step) == ("computed", "evented")
    assert got == want
    assert fewer < events
    return fewer, events


def app_plan(abbrev, parallelism):
    runner = BenchmarkRunner(CLUSTER, RunnerConfig(repeats=1, dilation=25.0))
    return runner.prepare_app(abbrev, parallelism).plan


def structure_plan(structure):
    query = build_structure(
        structure,
        np.random.default_rng(17),
        ParameterSpace(
            window_durations_ms=(500,),
            sliding_ratios=(0.5,),
            window_lengths=(100,),
        ),
        event_rate=5000.0,
    )
    query.plan.set_uniform_parallelism(2)
    return query.plan


# ---------------------------------------------------------- 1. differential


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("abbrev", sorted(apps.REGISTRY))
def test_applications_simulate_the_same_on_both_steps(
    abbrev, parallelism, seed
):
    fewer, events = assert_same_simulation(
        *both_steps(lambda: app_plan(abbrev, parallelism), seed=seed)
    )
    # DELIVER + DONE became one event, a block of arrivals one; ticks
    # stayed.
    assert fewer < 0.6 * events


@pytest.mark.parametrize("structure", list(QueryStructure))
def test_generated_structures_simulate_the_same_on_both_steps(structure):
    assert_same_simulation(*both_steps(lambda: structure_plan(structure)))


def windowed_plan(rate, parallelism, duration, slide, arrival="poisson"):
    """source → hash → sliding window sum (timer = slide) → sink."""
    plan = LogicalPlan("windowed")
    plan.add_operator(
        builders.source(
            "src",
            kv_generator(),
            SCHEMA,
            event_rate=rate,
            parallelism=parallelism,
            arrival=arrival,
        )
    )
    plan.add_operator(
        builders.window_agg(
            "agg",
            SlidingTimeWindows(duration, slide),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "agg")
    plan.connect("agg", "sink")
    return plan


@given(
    rate=st.sampled_from([500.0, 4000.0, 60_000.0]),
    parallelism=st.integers(1, 4),
    slides=st.integers(1, 4),
    slide=st.sampled_from([0.002, 0.01, 0.05, 0.3]),
    arrival=st.sampled_from(["poisson", "constant", "bursty"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_windowed_plans_simulate_the_same_on_both_steps(
    rate, parallelism, slides, slide, arrival, seed
):
    """Rate against service time decides how deep queues get, the slide
    how many ticks fall between a delivery and its completion."""
    assert_same_simulation(
        *both_steps(
            lambda: windowed_plan(
                rate, parallelism, slides * slide, slide, arrival
            ),
            seed=seed,
            max_tuples_per_source=400,
            max_sim_time=2.0,
        )
    )


# ------------------------------------------------------------------ 2. ties

#: Every instant of a tie run is a sum of powers of two well inside a
#: double's 53 bits, so equal instants are equal floats.
GAP = 2.0**-14
ONE_NODE = homogeneous_cluster(num_nodes=1)


class Ticker(OperatorLogic):
    """Pass-through that also reports, at every tick, how many tuples it
    had processed by then — so the order of a tick and a completion at
    one instant shows in the sink's values. No interval, no timer."""

    def __init__(self, interval):
        self.timer_interval = interval
        self.count = 0

    def process(self, tup, now, port=0):
        self.count += 1
        return [tup]

    def on_time(self, now):
        return [
            StreamTuple(
                values=(-1, float(self.count)), event_time=now, size_bytes=24.0
            )
        ]


def tandem(costs, partitioner, interval=None, sources=1, gap=GAP):
    """``sources`` constant sources → one stage per middle cost → sink,
    one subtask each, no noise: ``costs`` = (source, *stages, sink)."""

    def build():
        plan = LogicalPlan("ties")
        chain = []
        for i, cost in enumerate(costs[1:-1]):
            chain.append(f"stage{i}")
            plan.add_operator(
                builders.udo(
                    chain[-1],
                    lambda: Ticker(interval),
                    cost=OperatorCost(cost, cost_noise=0.0),
                    output_schema=SCHEMA,
                )
            )
        chain.append("sink")
        plan.add_operator(builders.sink("sink"))
        plan.operator("sink").cost = OperatorCost(costs[-1], cost_noise=0.0)
        for src, dst in zip(chain, chain[1:]):
            plan.connect(src, dst, partitioner())
        for i in range(sources):
            plan.add_operator(
                builders.source(
                    f"src{i}",
                    counting_generator(),
                    SCHEMA,
                    1.0 / gap,
                    arrival="constant",
                )
            )
            plan.operator(f"src{i}").cost = OperatorCost(
                costs[0], cost_noise=0.0
            )
            plan.connect(f"src{i}", chain[0], partitioner())
        return plan

    return build


def hashed():
    return HashPartitioner(key_field=0)


def tie_steps(build, tuples=41):
    return both_steps(
        build,
        cluster=ONE_NODE,
        max_tuples_per_source=tuples,
        warmup_fraction=0.0,
        keep_sink_values=True,
    )


def pop_log(engine):
    """Every event the run pops, as ``(kind, now, gid)``, through a
    wrapped handler table."""
    pops = []
    make = engine._make_handlers

    def wrapped():
        def logging(kind, handler):
            def handle(gid, payload, port):
                pops.append((kind, engine._k.now, gid))
                handler(gid, payload, port)

            return handle

        return [
            logging(kind, handler) if handler is not None else None
            for kind, handler in enumerate(make())
        ]

    engine._make_handlers = wrapped
    return pops


def instants(pops, kind):
    return {(now, gid) for popped, now, gid in pops if popped == kind}


@pytest.mark.parametrize("tuples", [40, 41])
def test_a_delivery_landing_on_a_service_start(tuples):
    """Stage 0 serves at half the arrival rate, so every other delivery
    lands on the instant a completion hands the server to the next
    queued tuple. Latencies, waits and busy times agree to the bit.

    The queue depth is the one place the steps differ, by design. The
    delivery pops before the ``DONE`` of its instant (gids follow the
    plan's topological order, so a producer's is the lower), and the
    pinned run still finds the tuple about to start queued; the
    computed step counts a tuple whose service starts *now* as in
    service — the timing oracle's ``1 + #{earlier starts > now}``
    (``tests/test_universe.py``). Depths differ only at such
    instants, so peaks differ only when the deepest queue is seen at
    one: an odd tuple count here. It takes a sender that pays no
    overhead (a forward edge) and a noise-free grid: behind a shuffle
    the server's cycle is ``service + overhead``, off any grid."""
    computed, evented = tie_steps(
        tandem((2.0**-15, 2.0**-13, 2.0**-16), ForwardPartitioner),
        tuples=tuples,
    )
    pops = pop_log(evented)
    got, _ = simulated(computed)
    want, _ = simulated(evented)
    assert (computed.step, evented.step) == ("computed", "evented")
    assert without_depths(got) == without_depths(want)
    stage = evented._op_gids["stage0"][0]
    landed = instants(pops, engine_module._DELIVER) & instants(
        pops, engine_module._DONE
    )
    assert len(landed) > 15 and {gid for _, gid in landed} == {stage}
    peaks, peaks_e = (
        sim[0]["operator_queue_peak"] for sim in (got, want)
    )
    assert peaks["stage0"] > 15
    assert peaks_e.pop("stage0") - peaks.pop("stage0") == tuples % 2
    assert peaks == peaks_e


#: arrival gap, (source, *stages, sink) costs, the stages' timer interval
TICK_TIES = {
    "idle server, tick armed long before": (
        2.0**-14,
        (2.0**-15, 2.0**-15, 2.0**-16),
        2.0**-12,
    ),
    "service spans two ticks, the second armed by the first": (
        2.0**-12,
        (2.0**-14, 2.0**-13, 2.0**-16),
        2.0**-14,
    ),
    "saturated stage, a tick on every completion": (
        2.0**-14,
        (2.0**-14, 2.0**-14, 2.0**-16),
        2.0**-14,
    ),
    "backlog, service started by the previous completion": (
        2.0**-14,
        (2.0**-15, 2.0**-13, 2.0**-17),
        2.0**-15,
    ),
    "two timed stages in a row": (
        2.0**-14,
        (2.0**-14, 2.0**-14, 2.0**-14, 2.0**-16),
        2.0**-13,
    ),
}


@pytest.mark.parametrize("case", TICK_TIES)
@pytest.mark.parametrize("partitioner", [ForwardPartitioner, hashed])
def test_a_tick_landing_on_a_completion(case, partitioner):
    """What a tick reports — the tuples processed before it — and where
    the report sits in the sink's sequence show the order of a tick and
    a completion at one instant: the heap's, by which of the two the
    subtask scheduled first. The queue depth is left out: on forward
    edges it meets the handover tie of the test above."""
    gap, costs, interval = TICK_TIES[case]
    computed, evented = tie_steps(
        tandem(costs, partitioner, interval, gap=gap)
    )
    pops = pop_log(evented)
    got, _ = simulated(computed)
    want, _ = simulated(evented)
    assert (computed.step, evented.step) == ("computed", "evented")
    assert without_depths(got) == without_depths(want)
    values = computed._sinks[0].results
    assert values == evented._sinks[0].results
    assert sum(1 for v in values if v[0] == -1) > 4
    if partitioner is ForwardPartitioner:
        # Without sender overhead every instant is on the grid.
        ties = instants(pops, engine_module._TIMER) & instants(
            pops, engine_module._DONE
        )
        assert ties, "no tick landed on a completion"


def test_two_producers_delivering_at_one_instant():
    """Equal-rate sources reach the stage at the same instants; the
    producer-local tie-break serves the lower gid first on both steps."""
    computed, evented = tie_steps(
        tandem((2.0**-15, 2.0**-16, 2.0**-17), hashed, sources=2)
    )
    assert_same_simulation(computed, evented)
    order = [v[0] for v in computed._sinks[0].results]
    assert order == [i // 2 for i in range(82)]
    assert order == [v[0] for v in evented._sinks[0].results]


# ----------------------------------------------------------------- 3. shape


@pytest.mark.parametrize("stages", [1, 2])
def test_an_eligible_run_pops_one_event_per_hop(stages):
    tuples = 41
    costs = (2.0**-16,) + (2.0**-15,) * stages + (2.0**-16,)
    computed, evented = tie_steps(tandem(costs, hashed), tuples=tuples)
    pops, reference = pop_log(computed), pop_log(evented)
    metrics = computed.run()
    evented.run()
    hops = stages + 1
    counts = [0] * 11
    for kind, _, _ in pops:
        counts[kind] += 1
    blocks = sum(
        -(-rt.emitted // SOURCE_CHUNK)
        for rt in computed._runtimes
        if rt.is_source
    )
    assert counts[engine_module._ARRIVAL] == blocks == 2
    # The sink hops are settled, not popped, and still counted.
    assert counts[engine_module._DELIVER] == tuples * (hops - 1)
    assert computed._settled == tuples
    assert counts[engine_module._BEGIN] == 0
    assert counts[engine_module._DONE] == 1  # the quiescence event
    assert len(pops) + tuples == metrics.extras["events_processed"]
    assert metrics.extras["events_processed"] == tuples * hops + blocks + 1
    assert not computed._logs[computed._op_gids["sink"][0]]
    assert len(instants(reference, engine_module._DONE)) == tuples * (
        1 + hops
    )
    for rt in computed._runtimes:
        assert not rt.queue and not rt.busy


# --------------------------------------------------------- 4. flush instant


def slow_window_plan(slide):
    """A window aggregate slow enough that its last completions come
    well after the last delivery, under windows still open when the
    stream ends."""
    plan = windowed_plan(40_000.0, 1, 64 * slide, slide, "constant")
    plan.operator("agg").cost = OperatorCost(2e-4, cost_noise=0.1)
    return plan


@pytest.mark.parametrize("slide", [0.5, 0.004])
def test_the_run_ends_where_the_last_done_would_have_popped(slide):
    """With the long slide no tick separates the aggregate's last
    delivery from its last completion; with the short one several do —
    most run ahead of the completions they precede, and the ``TIMER``
    still pending pops before the quiescence event, as it did before
    the last ``DONE``."""
    computed, evented = both_steps(
        lambda: slow_window_plan(slide), max_tuples_per_source=300
    )
    pops = pop_log(computed)
    assert_same_simulation(computed, evented)
    assert computed._flush_time == evented._flush_time
    # Windows were open at end of stream: the flush emitted them.
    assert computed._sinks[0].arrival_times[-1] > computed._flush_time
    kinds = [kind for kind, _, _ in pops]
    quiescence = kinds.index(engine_module._DONE)
    horizon = pops[quiescence][1]
    assert horizon == computed._flush_time
    agg = computed._op_gids["agg"][0]
    assert horizon == computed._runtimes[agg].done_at
    last_delivery = max(
        at
        for kind, at, gid in pops
        if kind == engine_module._DELIVER and gid == agg
    )
    ticks = [
        at
        for kind, at, gid in pops
        if kind == engine_module._TIMER and gid == agg
    ]
    assert last_delivery < horizon / 4
    assert any(last_delivery < at < horizon for at in ticks) == (slide < 0.1)


# ------------------------------------------------------------ 5. eligibility


def kv_plan():
    return windowed_plan(4000.0, 2, 0.1, 0.1)


def begun(plan, cluster=CLUSTER, observer=None, sanitize=False, **config):
    engine = StreamEngine(
        plan,
        cluster,
        config=SimulationConfig(**{**CONFIG, **config}),
        observer=observer,
        sanitize=sanitize,
    )
    assert engine.step is None
    engine._begin_run(engine._k)
    return engine


@pytest.mark.parametrize("abbrev", sorted(apps.REGISTRY))
def test_every_application_is_computed_by_default(abbrev):
    assert begun(app_plan(abbrev, 2)).step == "computed"


@pytest.mark.parametrize("structure", list(QueryStructure))
def test_every_generated_structure_is_computed_by_default(structure):
    assert begun(structure_plan(structure)).step == "computed"


@pytest.mark.parametrize(
    "feature",
    [
        dict(rescales=(RescaleEvent(0.1, "agg", 3),)),
        dict(autoscale="reactive:high=4,low=0.5,cooldown=0.3,max=6"),
        dict(scenario="spike+straggler+netdeg"),
        dict(sanitize=True),
        dict(observer=EngineObserver()),
        dict(stalls=(StallInjection(0.1, "agg", 0.01),)),
        pytest.param(
            dict(scenario="failure:at=0.3,duration=0.1"), id="failure"
        ),
    ],
    ids=lambda feature: next(iter(feature)),
)
def test_each_control_feature_alone_takes_the_computed_step(feature):
    assert begun(kv_plan(), **feature).step == "computed"


def test_a_checkpointed_run_is_computed_through_its_failures():
    """A node failure is a control instant: recovery, replay and the
    source logs run on the computed step too."""
    ckpt = dict(checkpoint_interval=0.25)
    assert begun(kv_plan(), **ckpt).step == "computed"
    failing = begun(kv_plan(), scenario="failure:at=0.3,duration=0.1", **ckpt)
    assert failing.step == "computed"
    sources = [rt for rt in failing._runtimes if rt.is_source]
    assert sources and all(rt.ft_log == [] for rt in sources)


def test_a_sharded_run_is_evented_and_a_batch_run_is_neither():
    cloud = homogeneous_cluster(
        "m510", 4, network_spec=NetworkSpec(base_latency_s=2e-3)
    )
    steps = []
    for mode in ({}, {"shards": 1}, {"batch_size": 64}):
        engine = StreamEngine(
            kv_plan(), cloud, config=SimulationConfig(**CONFIG, **mode)
        )
        assert engine.run().results > 0
        steps.append(engine.step)
    assert steps == ["computed", "evented", None]


@pytest.mark.parametrize(
    "mode, step",
    [
        pytest.param(dict(), "computed", id="mode0-computed"),
        pytest.param(dict(shards=1), "evented", id="mode2-evented"),
        pytest.param(dict(batch_size=64), "batch", id="mode3-batch"),
        pytest.param(dict(observer=True), "computed", id="mode4-computed"),
    ],
)
def test_a_run_names_its_step_in_its_metrics(mode, step):
    """Provenance: ``extras["step"]`` is the step that executed."""
    mode = dict(mode)
    observer = EngineObserver() if mode.pop("observer", False) else None
    engine = StreamEngine(
        kv_plan(),
        homogeneous_cluster(
            "m510", 4, network_spec=NetworkSpec(base_latency_s=2e-3)
        ),
        config=SimulationConfig(**CONFIG, **mode),
        observer=observer,
    )
    assert engine.run().extras["step"] == step
    assert engine.step == (None if step == "batch" else step)


# ------------------------------------------------------------ 6. checkpoints


class Checkpointed(StreamEngine):
    """Counts what the computed step's barrier rules act on: ticks a
    barrier runs ahead of the clock, tuples an alignment held, and
    checkpoints whose last ack is not their latest."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ticks_ahead = self.held = self.late_acks = 0

    def _ft_barrier_dequeued(self, runtime, barrier, chan, now):
        self.ticks_ahead += runtime.tick < now
        active = self._ft_store.active
        super()._ft_barrier_dequeued(runtime, barrier, chan, now)
        if active is not None and self._ft_store.active is None:
            self.late_acks += now < self._ft_acked

    def _ft_release(self, gid, payload=None, port=0):
        if not payload:  # a release, not the end of a wait
            self.held += len(self._runtimes[gid].ft_buffer)
        super()._ft_release(gid, payload, port)


def join_plan(rate, keys, duration, slide, parallelism=2):
    """Two sources → sliding-window join → sink: a join subtask aligns
    four channels, and every probe's matches pay sender overhead."""
    plan = LogicalPlan("join")
    for side in ("lhs", "rhs"):
        plan.add_operator(
            builders.source(
                side,
                kv_generator(keys),
                SCHEMA,
                event_rate=rate,
                parallelism=parallelism,
            )
        )
    plan.add_operator(
        builders.window_join(
            "join",
            SlidingTimeWindows(duration, slide),
            left_key_field=0,
            right_key_field=0,
            parallelism=parallelism,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("lhs", "join", port=0)
    plan.connect("rhs", "join", port=1)
    plan.connect("join", "sink")
    return plan


def checkpoint_log(engine):
    """Every completed checkpoint, its snapshots aside."""
    return [
        {k: v for k, v in vars(record).items() if k != "snapshots"}
        for record in engine._ft_store.completed
    ]


def two_sinks_plan():
    """Two sources → hash → two slow sink subtasks: the sink subtask
    that acks a checkpoint last is often not the one that acks latest."""
    plan = LogicalPlan("two-sinks")
    plan.add_operator(
        builders.source(
            "src", kv_generator(3), SCHEMA, event_rate=40_000.0, parallelism=2
        )
    )
    plan.add_operator(builders.sink("sink", parallelism=2))
    plan.operator("sink").cost = OperatorCost(4e-5, cost_noise=0.3)
    plan.connect("src", "sink", hashed())
    return plan


#: plan, cluster, config, seed: failure-free checkpointed runs
CHECKPOINTED = {
    "hotpath": (
        perf.hotpath_plan,
        CLUSTER,
        dict(max_tuples_per_source=3000, checkpoint_interval=0.05),
        3,
    ),
    "hotpath-loaded": (
        # Overloaded: barriers wait out a backlog longer than the
        # interval, so triggers find the last checkpoint still aligning.
        lambda: perf.hotpath_plan(parallelism=2, event_rate=800_000.0),
        CLUSTER,
        dict(max_tuples_per_source=6000, checkpoint_interval=0.001),
        11,
    ),
    "exp5": (
        ft_workload_plan,
        homogeneous_cluster(num_nodes=4),
        dict(
            max_tuples_per_source=300,
            warmup_fraction=0.0,
            checkpoint_interval=0.05,
        ),
        3,
    ),
    "join8": (
        lambda: perf.join8_plan(parallelism=2),
        CLUSTER,
        dict(max_tuples_per_source=1500, checkpoint_interval=0.003),
        3,
    ),
    "two-sinks": (
        two_sinks_plan,
        CLUSTER,
        dict(max_tuples_per_source=1000, checkpoint_interval=0.002),
        3,
    ),
    "tick-in-window": (
        lambda: join_plan(2000.0, 2, 0.02, 0.005),
        CLUSTER,
        dict(max_tuples_per_source=400, checkpoint_interval=0.0005),
        11,
    ),
}


#: the computed barrier rule a case exercises, by the counter it moves
SHOWS = {
    "hotpath-loaded": "skipped",
    "join8": "held",
    "two-sinks": "late_acks",
    "tick-in-window": "ticks_ahead",
}


@pytest.mark.parametrize("case", CHECKPOINTED)
def test_checkpointed_plans_simulate_the_same_on_both_steps(case):
    build, cluster, config, seed = CHECKPOINTED[case]
    computed, evented = both_steps(
        build,
        seed=seed,
        cluster=cluster,
        engine=Checkpointed,
        keep_sink_values=True,
        **{**CONFIG, "max_sim_time": 8.0, **config},
    )
    fewer, events = assert_same_simulation(computed, evented)
    assert fewer < 0.6 * events
    sinks = [sink.results for sink in computed._sinks]
    assert sinks == [sink.results for sink in evented._sinks]
    assert sum(len(values) for values in sinks) > 30
    log = checkpoint_log(computed)
    assert log == checkpoint_log(evented) and len(log) > 1
    skipped = computed._ft_store.skipped
    assert skipped == evented._ft_store.skipped
    # What the case is here for.
    shown = {
        "skipped": skipped,
        "held": computed.held,
        "ticks_ahead": computed.ticks_ahead,
        "late_acks": computed.late_acks,
    }
    assert shown[SHOWS.get(case, "skipped")] > 0 or case not in SHOWS


def test_a_delivery_landing_on_a_barriers_dequeue():
    """The handover tie, for a barrier: on the noise-free grid a delivery
    lands on the instant a queued barrier is dequeued, and pops first.
    Pinned, the barrier waits at the head of the queue for a ``BEGIN``
    at that instant, and the delivery to the busy server is counted when
    it is handed back, behind the barrier that left — as the computed
    step counts it. (The clock-ordered step this replaced still counted
    the barrier there: a depth one deeper.) Everything agrees, the
    checkpoint log and the depths included."""
    gap, costs, interval = TICK_TIES[
        "saturated stage, a tick on every completion"
    ]
    computed, evented = both_steps(
        tandem(costs, hashed, interval, gap=gap),
        cluster=ONE_NODE,
        max_tuples_per_source=41,
        warmup_fraction=0.0,
        keep_sink_values=True,
        checkpoint_interval=2.0**-10,
    )
    got, _ = simulated(computed)
    want, _ = simulated(evented)
    assert (computed.step, evented.step) == ("computed", "evented")
    assert got == want
    assert len(got[0]["extras"]["ft"]["log"]) > 1
    assert got[0]["operator_queue_peak"]["stage0"] == 1


# -------------------------------------------------------- 7. control instants

#: the exp4 workload, long enough for every control below to act
ELASTIC = dict(
    max_tuples_per_source=3000,
    max_sim_time=2.5,
    warmup_fraction=0.0,
    autoscale_interval=0.2,
)
SPIKE = "spike:at=0.3,factor=3,duration=0.5"
STRAGGLER = "straggler:at=0.3,factor=8,duration=0.5"
NETDEG = "netdeg:at=0.3,duration=0.5"
REACTIVE = "reactive:high=4,low=0.5,cooldown=0.3,max=6"
PREDICTIVE = "predictive:util=0.6,cooldown=0.3,max=6"

#: each feature the horizon moved onto the computed step, alone and in
#: the pairs the exp4 grid and the checkpointed runs use
CONTROLLED = {
    "rescale-up": dict(rescales=(RescaleEvent(0.3, "agg", 4),)),
    "rescale-down": dict(rescales=(RescaleEvent(0.3, "agg", 1),)),
    "autoscale-none": dict(autoscale="none"),
    "autoscale-reactive": dict(autoscale=REACTIVE, scenario=SPIKE),
    "autoscale-predictive": dict(autoscale=PREDICTIVE, scenario=STRAGGLER),
    "spike": dict(scenario=SPIKE),
    "straggler": dict(scenario=STRAGGLER),
    "netdeg": dict(scenario=NETDEG),
    "spike+netdeg": dict(
        scenario="spike:at=0.3,duration=0.5+netdeg:at=0.5,duration=0.5"
    ),
    "sanitize": dict(sanitize=True),
    "sanitize+autoscale": dict(
        sanitize=True, autoscale=REACTIVE, scenario=SPIKE
    ),
    "checkpoint+spike": dict(scenario=SPIKE, checkpoint_interval=0.05),
    "checkpoint+straggler": dict(scenario=STRAGGLER, checkpoint_interval=0.05),
}


class Straddling(StreamEngine):
    """Counts the straddlers' completions and the tuples handed back."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.straddlers = self.handed_back = 0

    def _handle_done(self, gid, hop, port):
        self.straddlers += hop is not None
        super()._handle_done(gid, hop, port)

    def _hand_back(self, runtime, at):
        self.handed_back += len(runtime.queue) - runtime.queue_head
        super()._hand_back(runtime, at)


@pytest.mark.parametrize("case", CONTROLLED)
def test_controlled_runs_simulate_the_same_on_both_steps(case):
    """Rescales, the autoscaler, injections and the race detector act
    at control instants; the computed step stops short of each and the
    hops that straddle one complete as events."""
    config = dict(CONTROLLED[case])
    sanitize = config.pop("sanitize", False)
    engines = [
        Straddling(
            exp4.elastic_workload_plan(),
            CLUSTER,
            config=SimulationConfig(**{**ELASTIC, **config}),
            rng_factory=RngFactory(1),
            sanitize=sanitize,
        )
        for _ in range(2)
    ]
    evented(engines[1])
    fewer, events = assert_same_simulation(*engines)
    assert fewer < 0.4 * events
    computed = engines[0]
    # A spike acts on arrivals only, and no hop spans the degradation's
    # instants at this load; the rest meet a busy server.
    if case not in ("spike", "netdeg", "sanitize", "checkpoint+spike"):
        assert computed.straddlers + computed.handed_back > 0
    if sanitize:
        findings = [e.race_detector.findings for e in engines]
        assert findings[0] == findings[1]
    if "rescale" in case or "reactive" in case:
        assert computed._rescale_count > 0


def test_a_spike_re_paces_what_is_left_of_a_block():
    """The gaps after the first arrival past a spike's start are drawn
    under the new mean: a block drawn before it is re-paced."""
    computed, evented = both_steps(
        exp4.elastic_workload_plan,
        seed=1,
        **{**ELASTIC, "scenario": SPIKE, "max_tuples_per_source": 6000},
    )
    assert_same_simulation(computed, evented)
    source = computed._runtimes[computed._op_gids["src"][0]]
    assert computed._pacing == 2 and source.paced == 2


def test_a_control_instant_landing_on_an_arrival_a_delivery_and_a_done():
    """On the noise-free grid a straggler and a spike both start at an
    instant where a source arrival, a delivery to the stage and the
    stage's completion coincide: the control goes first on both steps,
    so the straddler is the stage's hop done there, and the arrival
    there is the first drawn under the spike."""
    at = 22 * GAP
    spec = "+".join(
        f"{kind}:at={at!r},duration={20 * GAP!r},factor=2{extra}"
        for kind, extra in (("straggler", ",op=stage0"), ("spike", ""))
    )
    computed, evented = both_steps(
        tandem((GAP, 2 * GAP, 2.0**-16), ForwardPartitioner),
        cluster=ONE_NODE,
        max_tuples_per_source=61,
        warmup_fraction=0.0,
        keep_sink_values=True,
        scenario=spec,
    )
    pops = pop_log(evented)
    got, _ = simulated(computed)
    want, _ = simulated(evented)
    assert (computed.step, evented.step) == ("computed", "evented")
    assert without_depths(got) == without_depths(want)
    assert computed._sinks[0].results == evented._sinks[0].results
    source, stage = (evented._op_gids[op][0] for op in ("src0", "stage0"))
    for kind, gid in (
        (engine_module._ARRIVAL, source),
        (engine_module._DELIVER, stage),
        (engine_module._DONE, stage),
    ):
        assert (at, gid) in instants(pops, kind)


# ---------------------------------------------------------- 8. settled sinks


def slow_sink_tandem():
    """The tie tandem with a noisy sink twice as slow as the arrivals:
    nearly every hop finds the sink busy."""
    plan = tandem((2.0**-16, 2.0**-15, 2.0**-13), hashed)()
    plan.operator("sink").cost = OperatorCost(2.0**-13, cost_noise=0.3)
    return plan


def test_a_sink_that_queues_is_settled_bit_for_bit(monkeypatch):
    """Waits, depths and completions of a backlogged noisy sink,
    computed a settled batch at a time, equal the evented step's."""
    served = []
    serve = StreamEngine._serve

    def spy(engine, runtime, hops):
        served.append(len(hops))
        return serve(engine, runtime, hops)

    monkeypatch.setattr(StreamEngine, "_serve", spy)
    computed, evented = both_steps(
        slow_sink_tandem, cluster=ONE_NODE, max_tuples_per_source=300
    )
    assert_same_simulation(computed, evented)
    sink = computed._runtimes[computed._op_gids["sink"][0]]
    assert sum(served) == sink.served == 300
    assert sink.queue_peak > 100 and sink.wait_time > 0


def test_a_tick_due_before_a_logged_hop_reaches_the_sink_first():
    """A slow stage's hops are computed far ahead and logged when the
    stream ends; a fast stage's ticks still due before them report to
    the same sink. Quiescence settles only the hops before the next
    tick and puts the rest back on the heap as ``DELIVER`` events; the
    ticks' own sink hops are pushed from then on."""

    def build():
        plan = LogicalPlan("fork")
        plan.add_operator(
            builders.udo(
                "slow",
                lambda: Ticker(None),
                cost=OperatorCost(2.0**-11, cost_noise=0.0),
                output_schema=SCHEMA,
            )
        )
        plan.add_operator(
            builders.udo(
                "ticking",
                lambda: Ticker(2.0**-10),
                cost=OperatorCost(2.0**-16, cost_noise=0.0),
                output_schema=SCHEMA,
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.add_operator(
            builders.source(
                "src",
                counting_generator(),
                SCHEMA,
                event_rate=2.0**13,
                arrival="constant",
            )
        )
        for stage in ("slow", "ticking"):
            plan.connect("src", stage, ForwardPartitioner())
            plan.connect(stage, "sink", ForwardPartitioner())
        return plan

    computed, evented = tie_steps(build, tuples=64)
    pops = pop_log(computed)
    assert_same_simulation(computed, evented)
    assert computed._sinks[0].results == evented._sinks[0].results
    sink = computed._op_gids["sink"][0]
    put_back = [
        pop
        for pop in pops
        if pop[0] == engine_module._DELIVER and pop[2] == sink
    ]
    served = computed._runtimes[sink].served
    assert put_back and computed._settled + len(put_back) == served


class Recorder(SinkLogic):
    """A sink that overrides ``process``: it keeps every hop it is
    handed, with its instant."""

    def __init__(self):
        super().__init__()
        self.hops = []

    def process(self, tup, now, port=0):
        self.hops.append((now, tup.values))
        return super().process(tup, now, port)


def test_a_sink_that_overrides_process_sees_every_hop_in_order():
    def build():
        plan = slow_sink_tandem()
        plan.operator("sink").logic_factory = Recorder
        return plan

    computed, evented = both_steps(
        build, cluster=ONE_NODE, max_tuples_per_source=300
    )
    assert_same_simulation(computed, evented)
    assert computed._settled == 0
    hops = computed._sinks[0].hops
    assert hops == evented._sinks[0].hops
    assert [values[0] for _, values in hops] == list(range(300))


def test_a_sink_log_never_holds_more_than_the_settle_threshold():
    engine = StreamEngine(
        perf.join8_plan(),
        CLUSTER,
        config=SimulationConfig(max_tuples_per_source=800, max_sim_time=8.0),
        rng_factory=RngFactory(3),
    )
    sizes = []
    settle = engine._settle

    def spy(gid, *until):
        sizes.append(len(engine._logs[gid]))
        settle(gid, *until)

    engine._settle = spy
    metrics = engine.run()
    assert metrics.results > 4 * engine_module._SETTLE
    assert max(sizes) == engine_module._SETTLE
    assert sizes.count(engine_module._SETTLE) >= 4


def test_an_event_budget_only_the_settled_hops_cross_still_raises():
    def engine(budget):
        return StreamEngine(
            slow_sink_tandem(),
            ONE_NODE,
            config=SimulationConfig(
                max_tuples_per_source=300, max_events=budget
            ),
            rng_factory=RngFactory(3),
        )

    probe = engine(10_000)
    pops = pop_log(probe)
    events = probe.run().extras["events_processed"]
    budget = (len(pops) + events) // 2
    assert len(pops) < budget < events
    with pytest.raises(SimulationError, match="event budget exceeded"):
        engine(budget).run()


# ---------------------------------------------------------------- 9. faults


class Faulted(StreamEngine):
    """Also records every hold a stall or an outage puts on a server,
    as ``(op, index, from, to)``, and whether each checkpointed failure
    met a checkpoint still aligning."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.holds, self.aligning = [], []

    def _hold(self, runtime, at):
        end = at + runtime.held
        self.holds.append((runtime.op_id, runtime.index, at, end))
        super()._hold(runtime, at)

    def _ft_failure(self, node_id, duration):
        self.aligning.append(self._ft_store.active is not None)
        super()._ft_failure(node_id, duration)


#: the recovery grid's workload: an overloaded keyed aggregate, whose
#: results replay after a recovery
EXP5 = dict(
    max_tuples_per_source=300, max_sim_time=3.0, warmup_fraction=0.0
)


def faulted(seed=1, **config):
    """The exp4 workload with ``config`` — the exp5 one under
    ``exp5=True`` — computed and evented."""
    plan, cluster, shape = exp4.elastic_workload_plan, CLUSTER, ELASTIC
    if config.pop("exp5", False):
        plan, shape = ft_workload_plan, EXP5
        cluster = homogeneous_cluster(num_nodes=4)
    engines = [
        Faulted(
            plan(),
            cluster,
            config=SimulationConfig(**{**shape, **config}),
            rng_factory=RngFactory(seed),
        )
        for _ in range(2)
    ]
    return [engines[0], evented(engines[1])]


def stalls(*specs):
    return tuple(StallInjection(at, op, span) for op, at, span in specs)


FAILURE = "failure:at=0.3,duration=0.2"
CKPT = dict(checkpoint_interval=0.05, keep_sink_values=True)

#: each fault the computed step now executes, alone and in the pairs
#: the chaos and recovery grids use: config, and the operator a hold
#: must have reached (None: no hold)
FAULTS = {
    "stall-source": (dict(stalls=stalls(("src", 0.3, 0.1))), "src"),
    "stall-operator": (dict(stalls=stalls(("agg", 0.3, 0.1))), "agg"),
    "stall-sink": (dict(stalls=stalls(("sink", 0.3, 0.1))), "sink"),
    "overlapping-stalls": (
        dict(stalls=stalls(("agg", 0.3, 0.1), ("agg", 0.35, 0.1))),
        "agg",
    ),
    "stall+checkpoint": (
        dict(stalls=stalls(("agg", 0.3, 0.1)), **CKPT),
        "agg",
    ),
    "stall+rescale": (
        dict(
            stalls=stalls(("agg", 0.3, 0.1)),
            rescales=(RescaleEvent(0.32, "agg", 4),),
        ),
        "agg",
    ),
    "failure-of-a-source-node": (
        dict(scenario="failure:at=0.3,duration=0.2,node=0"),
        None,
    ),
    "failure+spike": (dict(scenario=f"{FAILURE}+{SPIKE}"), "agg"),
    "failure+autoscale": (dict(scenario=FAILURE, autoscale=REACTIVE), "agg"),
    "checkpointed-failure": (dict(scenario=FAILURE, exp5=True, **CKPT), None),
    "checkpointed-failure-at-least-once": (
        dict(scenario=FAILURE, exp5=True, delivery="at_least_once", **CKPT),
        None,
    ),
    "two-checkpointed-failures": (
        dict(scenario=f"{FAILURE}+failure:at=0.9,duration=0.1", **CKPT),
        None,
    ),
    "failure-while-aligning": (
        dict(scenario="failure:at=0.3001,duration=0.1", **CKPT),
        None,
    ),
}


@pytest.mark.parametrize("seed", [1, 3])
@pytest.mark.parametrize("case", FAULTS)
def test_faulted_runs_simulate_the_same_on_both_steps(case, seed):
    """Stalls and node failures act at control instants: the computed
    step stops short of each, and what a fault holds, purges, restores
    or replays is the evented step's, queue peaks included."""
    config, held = FAULTS[case]
    computed, evented = faulted(seed, **config)
    fewer, events = assert_same_simulation(computed, evented)
    assert fewer < 0.6 * events
    assert computed.holds == evented.holds
    if held is not None:
        assert held in {op for op, *_ in computed.holds}
    if "checkpoint_interval" in config:
        assert [s.results for s in computed._sinks] == [
            s.results for s in evented._sinks
        ]
        assert checkpoint_log(computed) == checkpoint_log(evented)
        assert checkpoint_log(computed)
    if "failure" in case and "checkpoint" in case:
        assert computed._ft_recoveries == case.count("two") + 1
        assert computed._ft_replayed > 0
        assert (computed._ft_dup_results > 0) == ("least" in case)
    if case == "failure-of-a-source-node":
        assert computed._state_loss["lost_source_tuples"] > 0
    if case == "failure-while-aligning":
        assert computed.aligning == evented.aligning == [True]


@pytest.mark.parametrize("partitioner", [ForwardPartitioner, hashed])
def test_a_stall_landing_on_a_timer_tick(partitioner):
    """On the noise-free grid a stall of the timed stage starts exactly
    at one of its ticks: the stall, scheduled first, holds the server
    before the tick runs, on both steps."""
    gap, costs, interval = TICK_TIES[
        "saturated stage, a tick on every completion"
    ]
    at = 12 * interval
    computed, evented = both_steps(
        tandem(costs, partitioner, interval, gap=gap),
        cluster=ONE_NODE,
        max_tuples_per_source=41,
        warmup_fraction=0.0,
        keep_sink_values=True,
        stalls=(StallInjection(at, "stage0", 5 * interval),),
    )
    pops = pop_log(evented)
    assert_same_simulation(computed, evented)
    assert computed._sinks[0].results == evented._sinks[0].results
    stage = evented._op_gids["stage0"][0]
    for kind in (engine_module._STALL, engine_module._TIMER):
        assert (at, stage) in instants(pops, kind)


def test_a_stall_past_the_last_arrival_ends_the_run_with_it():
    """Work is done long before the stall; its hold is the run's last
    event, so both steps end, and flush, where the hold ends."""
    at, duration = 2.4, 0.05
    computed, evented = faulted(stalls=stalls(("agg", at, duration)))
    assert_same_simulation(computed, evented)
    assert computed._sinks[0].arrival_times[-1] < at
    assert max(rt.done_at for rt in computed._runtimes) < at
    for engine in (computed, evented):
        assert engine.holds == [("agg", i, at, at + duration) for i in (0, 1)]
        assert engine._k.now == engine._flush_time == at + duration


def test_overlapping_failures_of_one_node_hold_it_for_their_union():
    """Outages at 0.3 and 0.4, each 0.2 long: a processing subtask on the
    failed node is down from 0.3 to 0.6 — the second outage extends the
    hold by the 0.1 the first does not cover — as a source there drops
    its arrivals until 0.6; both steps alike."""
    scenario = "failure:at=0.3,duration=0.2+failure:at=0.4,duration=0.2"
    engines = faulted(scenario=scenario)
    assert_same_simulation(*engines)
    for engine in engines:
        holds = [hold[2:] for hold in engine.holds if hold[:2] == ("agg", 0)]
        assert holds == [(0.3, 0.5), (0.5, 0.4 + 0.2)]
        agg = engine._runtimes[engine._op_gids["agg"][0]]
        assert agg.node_id == 1 and agg.fail_until == 0.4 + 0.2


def test_a_stall_inside_a_sender_overhead_window():
    """The stage serves in 2^-14 - 2^-20 and pays 1.45 us of sender
    overhead, with a tuple every 2^-14: its first completion leaves it
    idle until ``free_at``, past the next delivery. A stall landing in
    between holds it from ``free_at``, and the delivery before then
    meets the evented step's depth rule — one queued plus the one that
    ``free_at`` stands for — which the computed step keeps in
    ``starts``."""
    build = tandem((2.0**-16, 2.0**-14 - 2.0**-20, 2.0**-16), hashed)
    probe = evented(
        StreamEngine(build(), ONE_NODE, config=SimulationConfig(**CONFIG))
    )
    pops = pop_log(probe)
    probe.run()
    stage = probe._op_gids["stage0"][0]
    done = min(at for at, gid in instants(pops, engine_module._DONE)
               if gid == stage)
    arrival = min(at for at, gid in instants(pops, engine_module._DELIVER)
                  if gid == stage and at > done)
    free_at = done + sender_overhead(probe._runtimes[stage])
    assert done < arrival < free_at
    computed, reference = both_steps(
        build,
        cluster=ONE_NODE,
        max_tuples_per_source=41,
        stalls=(StallInjection((done + arrival) / 2, "stage0", 2.0**-16),),
    )
    assert_same_simulation(computed, reference)
    assert computed._runtimes[stage].queue_peak == 2
