"""One universe, drawn in blocks (DESIGN.md §14).

Every execution mode reads the same per-subtask ``…/arrivals`` and
``…/noise`` streams, in blocks, and a straddler's ``DONE`` that paid
sender overhead hands its queue back from the overhead's end instead of
through a ``BEGIN`` event (a plain run has neither event;
``tests/test_computed_step.py`` holds it equal to the pinned horizon).
Pinned here:

- block ≡ call: whatever the noise block lengths, a subtask sees the
  gaps and noise factors per-call ``exponential(mean)`` /
  ``lognormal(mu, σ)`` would have drawn from its stream;
- ``shards=None`` ≡ ``shards=1`` ≡ forked ``shards=2``;
- scalar and batch mode see the same arrival times;
- a timing oracle written by hand — the Lindley recursion ``start_i =
  max(arrive_i, done_{i-1} + o)`` — for the ``BEGIN``-free step, and a
  stall and a rescale drain landing inside a ``free_at`` window;
- that recursion over a forward + hash DAG of noisy stateless subtasks
  on two nodes, from the logged arrivals and the noise streams, held
  per tuple on the plain, control-instant and pinned horizons;
- rescale generations and recovery incarnations get streams of their
  own.
"""

from __future__ import annotations

import gc
import math
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sps.engine as engine_module
from repro.analysis.racecheck import stream_ledger
from repro.cluster import NetworkSpec, homogeneous_cluster
from repro.common.errors import SimulationError
from repro.common.rng import RngFactory, state_fingerprint
from repro.core.experiments.exp5 import ft_workload_plan
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.costs import COORD_LOG_COST_S, SERDE_COST_S, OperatorCost
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
from repro.sps.types import DataType, Field, Schema
from tests.conftest import evented, kv_generator, sender_overhead
from tests.test_golden_determinism import (
    GOLDEN_APPS,
    GOLDEN_CONFIG,
    GOLDEN_PARALLELISM,
)
from tests.test_window_kernel import per_call_arrivals

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])

ARRIVALS = ("poisson", "constant", "bursty", "profile")


# ----------------------------------------------------------- block ≡ call


def arrivals_engine(parallelism, seed=23, max_sim_time=60.0, **config):
    """One source per arrival kind, unequal rates, a noisy map, a sink."""
    plan = LogicalPlan("universe")
    plan.add_operator(builders.map_op("map", lambda t: t, parallelism=2))
    plan.add_operator(builders.sink("sink"))
    plan.connect("map", "sink")
    rates = (900.0, 400.0, 1500.0, 700.0)
    for arrival, rate in zip(ARRIVALS, rates):
        op = builders.source(
            arrival,
            kv_generator(),
            SCHEMA,
            event_rate=rate,
            parallelism=parallelism,
            arrival=arrival,
        )
        if arrival == "profile":
            op.metadata["rate_profile"] = lambda t: 700.0 + 600.0 * math.sin(
                9.0 * t
            )
        plan.add_operator(op)
        plan.connect(arrival, "map")
    return StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=240, max_sim_time=max_sim_time, **config
        ),
        rng_factory=RngFactory(seed),
    )


def record_arrivals(engine):
    """Per-source lists of the times ``generate`` is called with."""
    log = {}
    for rt in engine._runtimes:
        if rt.is_source:
            times = log[rt.gid] = []

            def generate(now, inner=rt.logic.generate, times=times):
                times.append(now)
                return inner(now)

            rt.logic.generate = generate
    return log


class ServeLog(EngineObserver):
    """Records ``(start, service, wait)`` per subtask, stalls by time."""

    def __init__(self):
        super().__init__(serve_spans=False)
        self.serves = {}
        self.stalls = []

    def on_serve(self, runtime, now, service, wait):
        self.serves.setdefault(runtime.gid, []).append((now, service, wait))

    def on_stall(self, runtime, now, duration):
        self.stalls.append(now)


@given(
    first=st.integers(1, 9),
    later=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_blocks_pop_the_per_call_draws(first, later, seed):
    """Any noise refill schedule: gaps are per-call
    ``exponential(mean)`` for all four arrival kinds, noise per-call
    ``lognormal(mu, sigma)``. The block lengths patched here size the
    noise blocks only; arrivals come in ``SOURCE_CHUNK`` blocks."""
    with (
        mock.patch.object(engine_module, "_FIRST_BLOCK", first),
        mock.patch.object(engine_module, "_BLOCK", later),
    ):
        engine = arrivals_engine(2, seed=seed)
        observer = engine.observer = engine._obs = ServeLog()
        arrivals = record_arrivals(engine)
        engine.run()
    assert arrivals == per_call_arrivals(engine)
    assert sum(map(len, arrivals.values())) == 4 * 240
    noisy = 0
    for rt in engine._runtimes:
        assert rt.noise_sigma > 0
        rng = engine._rngs.fresh("engine", rt.op_id, str(rt.index), "noise")
        base = rt.base_service * rt.static_work
        want = [
            base * rng.lognormal(rt.noise_mu, rt.noise_sigma)
            for _ in range(rt.served)
        ]
        assert [s for _, s, _ in observer.serves[rt.gid]] == want
        noisy += rt.served
    assert noisy == 3 * 4 * 240


def test_idle_subtasks_open_no_stream():
    engine = arrivals_engine(1)
    engine._begin_run(engine._k)
    assert all(rt.noise_rng is None for rt in engine._runtimes)
    drawn = {rt.op_id for rt in engine._runtimes if rt.gaps_rng is not None}
    assert drawn == {"poisson", "bursty", "profile"}  # constant never draws


# ----------------------------------------------- scalar ≡ batch arrivals


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("max_sim_time", [60.0, 0.2])
def test_scalar_and_batch_see_the_same_arrival_times(
    parallelism, max_sim_time
):
    """Fails before the merge: the scalar loop interleaved noise draws
    on the one arrival generator, the batch replay did not. Three ways
    since a computed run's sources emit blocks of instants: the evented
    step (``tests.conftest.evented``) reads the same blocks, one instant
    per event."""
    runs = {}
    for mode in ("computed", "evented", 64, 256):
        engine = arrivals_engine(
            parallelism,
            max_sim_time=max_sim_time,
            batch_size=mode if isinstance(mode, int) else None,
        )
        if mode == "evented":
            evented(engine)
        runs[mode] = record_arrivals(engine)
        engine.run()
        assert engine.step == (None if isinstance(mode, int) else mode)
        assert engine._last_source_time == max(
            times[-1] for times in runs[mode].values()
        )
    scalar = runs["computed"]
    assert scalar == runs["evented"] == runs[64] == runs[256]
    assert len(scalar) == 4 * parallelism
    cut = any(len(t) < 240 // parallelism for t in scalar.values())
    assert cut == (max_sim_time < 1.0)


# ---------------------------------------------------------- one universe


def golden_runs(shards):
    cluster = homogeneous_cluster(
        "m510", 4, network_spec=NetworkSpec(base_latency_s=2e-3)
    )
    runner = BenchmarkRunner(
        cluster, RunnerConfig(**GOLDEN_CONFIG, shards=shards)
    )
    out = {}
    for abbrev in GOLDEN_APPS:
        plan = runner.prepare_app(abbrev, GOLDEN_PARALLELISM).plan
        out[abbrev] = [
            (
                run.extras["events_processed"],
                run.results,
                run.latency.to_dict(),
            )
            for run in runner.run_plan(plan)
        ]
    return out


def test_unsharded_single_shard_and_forked_shards_agree():
    """On ``SHARD_GOLDEN``'s 2 ms cluster. Two residual differences: a
    sharded run flushes end-of-stream windows at the epoch boundary,
    not at the last event, which only WC's latencies can see; and its
    horizon is pinned where the plain run computes its completions
    ahead, so event counts are compared between shard counts."""
    plain, one, two = golden_runs(None), golden_runs(1), golden_runs(2)
    assert one == two
    for abbrev in ("SG", "AD"):
        assert [run[1:] for run in plain[abbrev]] == [
            run[1:] for run in one[abbrev]
        ]
    for a, b in zip(plain["WC"], one["WC"]):
        assert a[1] == b[1]
        assert a[2]["count"] == b[2]["count"]
        assert abs(a[2]["mean"] - b[2]["mean"]) <= 2e-3


# --------------------------------------------------------- timing oracle

WORKS = (0.3, 1.7, 0.6, 2.9, 0.2, 0.2, 1.1)
GAP = 5e-6  # 200k tuples/s, the scale of the serde overhead
TUPLES = 60


class PacedLogic(OperatorLogic):
    """Pass-through whose work cycles through ``WORKS`` by tuple index."""

    rescale_supported = True

    def work_units(self, tup):
        return WORKS[tup.values[0] % len(WORKS)]

    def process(self, tup, now, port=0):
        return [tup]


def counting_generator():
    count = 0

    def generate(rng, now):
        nonlocal count
        count += 1
        return StreamTuple(
            values=(count - 1, 0.5), event_time=now, size_bytes=24.0
        )

    return generate


def tandem_engine(stages, observer=None, engine=StreamEngine, **config):
    """const source → hash → ``stages`` paced servers → hash → sink,
    one subtask each on one node, no service noise anywhere."""
    plan = LogicalPlan("oracle")
    plan.add_operator(
        builders.source(
            "src", counting_generator(), SCHEMA, 1.0 / GAP, arrival="constant"
        )
    )
    plan.operator("src").cost = OperatorCost(1e-6, cost_noise=0.0)
    chain = ["src"]
    for i in range(stages):
        chain.append(f"stage{i}")
        plan.add_operator(
            builders.udo(
                chain[-1],
                PacedLogic,
                cost=OperatorCost((4e-6, 3e-6)[i], cost_noise=0.0),
                output_schema=SCHEMA,
            )
        )
    chain.append("sink")
    plan.add_operator(builders.sink("sink"))
    plan.operator("sink").cost = OperatorCost(1e-6, cost_noise=0.0)
    for src, dst in zip(chain, chain[1:]):
        plan.connect(src, dst, HashPartitioner(key_field=0))
    return engine(
        plan,
        homogeneous_cluster(num_nodes=1),
        config=SimulationConfig(
            max_tuples_per_source=TUPLES, warmup_fraction=0.0, **config
        ),
        observer=observer,
    )


def lindley(arrive, services, overhead):
    """One FIFO server by hand: ``start_i = max(arrive_i, done_{i-1} +
    o)``. Returns per-tuple starts and dones and the server's counters."""
    free = wait = busy = 0.0
    starts, dones = [], []
    for a, s in zip(arrive, services):
        start = max(a, free)
        wait += start - a
        busy += s
        done = start + s
        busy += overhead
        free = done + overhead
        starts.append(start)
        dones.append(done)
    peak = max(
        1 + sum(1 for s in starts[:i] if s > a) for i, a in enumerate(arrive)
    )
    return starts, dones, (wait, busy, len(arrive), peak)


def oracle(engine):
    """The whole tandem by hand; per-op counters and sink latencies."""
    births = []
    t = 0.0
    for _ in range(TUPLES):
        t += GAP
        births.append(t)
    arrive = births
    counters = {}
    dones_by_op = {}
    for rt in engine._runtimes:
        if rt.op_id.startswith("stage"):
            services = [
                rt.base_service * WORKS[i % len(WORKS)] for i in range(TUPLES)
            ]
        else:
            services = [rt.base_service * 1.0] * TUPLES
        overhead = sender_overhead(rt)
        assert (overhead > 0) == (not rt.is_sink)
        _, dones, counters[rt.op_id] = lindley(arrive, services, overhead)
        dones_by_op[rt.op_id] = dones
        # Same node: latency 0.0, infinite bandwidth.
        arrive = [done + (0.0 + 24.0 / math.inf) + overhead for done in dones]
    latencies = [done - born for done, born in zip(dones, births)]
    return counters, latencies, dones_by_op


@pytest.mark.parametrize("stages", [1, 2])
def test_begin_free_step_is_the_lindley_recursion(stages):
    engine = tandem_engine(stages)
    metrics = engine.run()
    counters, latencies, _ = oracle(engine)
    (sink,) = [
        rt.logic for rt in engine._runtimes if isinstance(rt.logic, SinkLogic)
    ]
    assert sink.latencies == latencies
    for rt in engine._runtimes:
        got = (rt.wait_time, rt.busy_time, rt.served, rt.queue_peak)
        assert got == counters[rt.op_id], rt.op_id
    # A queue built up and drained, or the recursion was not exercised.
    assert counters["stage0"][3] > 2 and counters["stage0"][0] > 0
    # An ARRIVAL per block of SOURCE_CHUNK tuples, a DELIVER per hop and
    # the quiescence event: the recursion is computed at each of them,
    # so no DONE, and no BEGIN though every hop but the last pays
    # sender overhead.
    hops = stages + 1
    blocks = -(-TUPLES // SOURCE_CHUNK)
    assert engine.step == "computed"
    assert metrics.extras["events_processed"] == TUPLES * hops + blocks + 1


def last_window(engine):
    """``(done, free_at)`` of stage0's last tuple: the server is idle
    from ``done`` on, and paying sender overhead until ``free_at``."""
    _, _, dones = oracle(engine)
    rt = engine._runtimes[1]
    assert rt.op_id == "stage0"
    done = dones["stage0"][-1]
    return done, done + sender_overhead(rt)


def test_stall_inside_a_free_at_window_waits_like_a_busy_server():
    done, free_at = last_window(tandem_engine(1))
    inside = done + (free_at - done) / 2
    for at_time in (inside, free_at):
        observer = ServeLog()
        tandem_engine(
            1,
            observer=observer,
            stalls=(StallInjection(at_time, "stage0", 2e-5),),
        ).run()
        assert observer.stalls == [free_at]


def test_drain_inside_a_free_at_window_waits_like_a_busy_server():
    done, free_at = last_window(tandem_engine(1))
    inside = done + (free_at - done) / 2
    for at_time, swaps_at in ((inside, free_at), (free_at, free_at)):
        engine = tandem_engine(
            1, rescales=(RescaleEvent(at_time, "stage0", 2),)
        )
        metrics = engine.run()
        (swap,) = metrics.extras["elastic"]["log"]
        assert swap["t"] == swaps_at
        assert metrics.results == TUPLES


def test_serve_spans_of_a_subtask_never_overlap():
    observer = ServeLog()
    tandem_engine(2, observer=observer).run()
    for serves in observer.serves.values():
        assert len(serves) == TUPLES
        for (start, service, _), (nxt, _, _) in zip(serves, serves[1:]):
            assert start + service <= nxt


# ----------------------------------------------- timing oracle on a DAG


class Relay(OperatorLogic):
    """Stateless pass-through."""

    def process(self, tup, now, port=0):
        return [tup]


class Sieve(OperatorLogic):
    """Stateless filter: passes even keys only."""

    def process(self, tup, now, port=0):
        return [tup] if tup.values[0] % 2 == 0 else []


#: the DAG's stateless operators and what each emits for a tuple
LOGICS = {"relay": Relay, "sieve": Sieve}


def dag_engine(observer=None, **config):
    """Two sources → hash and forward → relay, which fans out forward to
    a sieve and by hash to the sink, and the sieve by hash to the sink:
    single-server stateless subtasks, noisy service everywhere, on two
    nodes, so channels cross the network."""
    plan = LogicalPlan("dag")
    for name, rate, parallelism in (("left", 9000.0, 2), ("right", 6000.0, 3)):
        plan.add_operator(
            builders.source(
                name, kv_generator(40), SCHEMA, rate, parallelism=parallelism
            )
        )
        plan.operator(name).cost = OperatorCost(2e-5, cost_noise=0.4)
    for name, cpu in (("relay", 9e-5), ("sieve", 6e-5)):
        plan.add_operator(
            builders.udo(
                name,
                LOGICS[name],
                parallelism=3,
                cost=OperatorCost(cpu, cost_noise=0.5),
                output_schema=SCHEMA,
            )
        )
    plan.add_operator(builders.sink("sink", parallelism=2))
    plan.operator("sink").cost = OperatorCost(3e-5, cost_noise=0.3)
    plan.connect("left", "relay", HashPartitioner(key_field=0))
    plan.connect("right", "relay", ForwardPartitioner())
    plan.connect("relay", "sieve", ForwardPartitioner())
    plan.connect("relay", "sink", HashPartitioner(key_field=0))
    plan.connect("sieve", "sink", HashPartitioner(key_field=0))
    return StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=600, warmup_fraction=0.0, **config
        ),
        rng_factory=RngFactory(19),
        observer=observer,
    )


def record_births(engine):
    """Per-source ``(instant, tuple)`` of every generated tuple."""
    log = {}
    for rt in engine._runtimes:
        if rt.is_source:
            born = log[rt.gid] = []

            def generate(now, inner=rt.logic.generate, born=born):
                tup = inner(now)
                born.append((now, tup))
                return tup

            rt.logic.generate = generate
    return log


def dag_oracle(engine, births):
    """The DAG by hand, from DESIGN.md §14's definition of a hop.

    Each subtask is a FIFO single server fed, in ``(instant, producer
    gid, emission)`` order, by its sources' logged arrivals or its
    producers' deliveries: ``start = max(now, free_at)``, ``service =
    base_service · work · noise`` with the subtask's own ``…/noise``
    stream drawn per served tuple, ``done = start + service``. Each
    output crosses the producer's channel groups in plan order, each
    group's serde (``SERDE_COST_S + COORD_LOG_COST_S · log2(channels)``
    per output on a shuffle, none on forward) paid before any of its
    tuples depart: a delivery of group *g* arrives ``done + (latency +
    size / bandwidth) + overhead of groups 1..g``, latency and bandwidth
    those of the node pair (none on one node). The server is free at
    ``done`` plus all of it. Returns per-gid ``(wait, busy, served)``
    and, per sink gid, ``(latencies, arrival times)``."""
    plan = engine.logical
    network = engine.cluster.network
    subtasks = engine.physical.op_subtasks
    inbox = {gid: [] for gid in range(len(engine._runtimes))}
    for gid, born in births.items():
        inbox[gid] = [(at, -1, i, tup) for i, (at, tup) in enumerate(born)]
    counters, sinks = {}, {}
    for op_id in plan.topological_order():
        op = plan.operator(op_id)
        cv = op.cost.cost_noise
        sigma = math.sqrt(math.log(1.0 + cv * cv))
        edges = plan.out_edges(op_id)
        for gid in subtasks[op_id]:
            rt = engine._runtimes[gid]
            noise = engine._rngs.fresh("engine", op_id, str(rt.index), "noise")
            free = wait = busy = 0.0
            sent = 0
            latencies, arrivals = [], []
            for now, _, _, tup in sorted(inbox[gid], key=lambda a: a[:3]):
                start = max(now, free)
                wait += start - now
                service = rt.base_service * 1.0
                service *= noise.lognormal(-0.5 * sigma * sigma, sigma)
                busy += service
                done = free = start + service
                if op_id == "sink":
                    latencies.append(done - tup.origin_time)
                    arrivals.append(done)
                    continue
                outputs = [tup]
                if op_id in LOGICS:
                    outputs = LOGICS[op_id]().process(tup, done)
                if not outputs:
                    continue
                offset = 0.0
                for edge in edges:
                    consumers = subtasks[edge.dst]
                    hashed = isinstance(edge.partitioner, HashPartitioner)
                    assert hashed or isinstance(
                        edge.partitioner, ForwardPartitioner
                    )
                    if hashed:
                        offset += SERDE_COST_S + COORD_LOG_COST_S * math.log2(
                            max(len(consumers), 2)
                        )
                    for out in outputs:
                        index = rt.index
                        if hashed:
                            index = edge.partitioner.channel(
                                out, len(consumers)
                            )
                        dst = consumers[index]
                        pair = (rt.node_id, engine._runtimes[dst].node_id)
                        latency, bandwidth = 0.0, math.inf
                        if pair[0] != pair[1]:
                            latency = network.spec.base_latency_s
                            bandwidth = network.link_bandwidth(*pair)
                        at = done + (latency + out.size_bytes / bandwidth)
                        sent += 1
                        inbox[dst].append((at + offset, gid, sent, out))
                busy += offset
                free = done + offset
            counters[gid] = (wait, busy, len(inbox[gid]))
            if op_id == "sink":
                sinks[gid] = (latencies, arrivals)
    return counters, sinks


HORIZONS = {
    "computed": dict(),
    "control-instants": dict(scenario="spike:at=0.02,factor=2,duration=0.02"),
    "sampled": dict(sample_interval=1e-3),
    "pinned": dict(),
}


@pytest.mark.parametrize("horizon", HORIZONS)
def test_the_dag_oracle_holds_on_every_horizon(horizon):
    """Per tuple at the sinks and per subtask, bit for bit: the plain
    run (no horizon, sinks settled), a run bounded by control instants
    (a spike's start and end, or an observer's sampling deadlines) and
    the pinned run, whose every hop straddles."""
    config = dict(HORIZONS[horizon])
    interval = config.pop("sample_interval", None)
    observer = interval and EngineObserver(sample_interval=interval)
    engine = dag_engine(observer, **config)
    if horizon == "pinned":
        evented(engine)
    births = record_births(engine)
    metrics = engine.run()
    assert engine.step == ("evented" if horizon == "pinned" else "computed")
    counters, sinks = dag_oracle(engine, births)
    for rt in engine._runtimes:
        got = (rt.wait_time, rt.busy_time, rt.served)
        assert got == counters[rt.gid], (rt.op_id, rt.index)
        if rt.is_sink:
            latencies, arrivals = sinks[rt.gid]
            assert rt.logic.latencies == latencies
            assert rt.logic.arrival_times == arrivals
    # The oracle was exercised: queues formed, channels crossed nodes,
    # and the sieve dropped tuples.
    assert sum(rt.wait_time > 0 for rt in engine._runtimes) > 5
    assert len({rt.node_id for rt in engine._runtimes}) == 2
    served = {op: 0 for op in engine.physical.op_subtasks}
    for rt in engine._runtimes:
        served[rt.op_id] += rt.served
    assert served["left"] + served["right"] == 1200
    assert served["sink"] < served["relay"] + served["sieve"]
    assert metrics.results == served["sink"]


# ------------------------------------------- generations and incarnations


def test_rescale_generations_draw_from_their_own_streams():
    plan = LogicalPlan("gen")
    plan.add_operator(
        builders.source("src", kv_generator(), SCHEMA, event_rate=2000.0)
    )
    plan.add_operator(builders.map_op("map", lambda t: t, parallelism=2))
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "map", HashPartitioner(key_field=0))
    plan.connect("map", "sink", HashPartitioner(key_field=0))
    engine = StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=400,
            rescales=(RescaleEvent(0.05, "map", 3),),
        ),
        sanitize=True,
    )
    engine.run()
    ledger = engine.race_detector.rng_ledger
    born = [rt for rt in engine._runtimes if rt.epoch == 1]
    assert [rt.index for rt in born] == [0, 1, 2]
    seen = set()
    for rt in engine._runtimes:
        if rt.op_id == "map":
            assert rt.served > 0
            suffix = "@e1" if rt.epoch else ""
            assert f"map[{rt.index}]{suffix}/noise" in ledger
            seen.add(state_fingerprint(engine._open_stream(rt, "noise")))
            # its events are numbered from its own counter
            assert rt.seq >> engine_module.TB_SEQ_BITS == rt.gid
    assert len(seen) == 5


def test_recovery_incarnations_draw_from_their_own_streams():
    engine = StreamEngine(
        ft_workload_plan(),
        homogeneous_cluster(num_nodes=4),
        config=SimulationConfig(
            max_tuples_per_source=300,
            max_sim_time=3.0,
            scenario="failure:at=0.3,duration=0.1",
            checkpoint_interval=0.05,
        ),
        rng_factory=RngFactory(7),
    )
    engine.run()
    restarted = [rt for rt in engine._runtimes if rt.ft_incarnation]
    assert restarted
    ledger = stream_ledger(restarted)
    for rt in restarted:
        assert rt.ft_incarnation == 1 and not rt.is_source
        label = f"{rt.op_id}[{rt.index}]@r1"
        # A logic stream is in the ledger iff the incarnation opened it.
        assert (label in ledger) == ("rng" in vars(rt.logic.ctx))
        if rt.noise_rng is not None:
            assert label + "/noise" in ledger
        first = engine._rngs.fresh(
            "engine", rt.op_id, str(rt.index), "noise"
        )
        assert state_fingerprint(first) != state_fingerprint(
            engine._open_stream(rt, "noise")
        )
    assert any(rt.noise_rng is not None for rt in restarted)


class Jitter(OperatorLogic):
    """Rescalable and stateless, but its output is drawn from
    ``ctx.rng``: the one kind of logic for which the *name* of a
    restarted subtask's stream decides a simulated value."""

    rescale_supported = True

    def process(self, tup, now, port=0):
        return [tup.with_values((tup.values[0], self.ctx.rng.random()))]


class NamedStreams(RngFactory):
    """Notes the name of every stream the run opens."""

    def __init__(self, seed):
        super().__init__(seed)
        self.opened = []

    def fresh(self, *names):
        self.opened.append(names)
        return super().fresh(*names)


def test_a_restart_in_a_later_generation_opens_a_stream_of_its_own():
    """``udo[0]`` fails, is rescaled away, and its successor ``udo[0]``
    of generation 1 fails too: two first restarts of an index-0 subtask.
    Named without the generation, both logics read ``engine/udo/0/r1``
    — the same draws twice — while the ledger tells them apart."""
    plan = LogicalPlan("restarts")
    plan.add_operator(
        builders.source("src", kv_generator(), SCHEMA, event_rate=2000.0)
    )
    plan.add_operator(
        builders.udo(
            "udo", Jitter, parallelism=2, output_schema=SCHEMA, key_field=0
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "udo")
    plan.connect("udo", "sink")
    rngs = NamedStreams(5)
    engine = StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=1600,
            rescales=(RescaleEvent(0.3, "udo", 3),),
            scenario=(
                "failure:at=0.1,duration=0.02+failure:at=0.6,duration=0.02"
            ),
        ),
        rng_factory=rngs,
    )
    metrics = engine.run()
    assert metrics.extras["elastic"]["rescales"] == 1
    assert len(set(rngs.opened)) == len(rngs.opened)
    twice = [rt for rt in engine._runtimes if rt.ft_incarnation]
    assert {(rt.index, rt.epoch) for rt in twice} >= {(0, 0), (0, 1)}
    # Every subtask's streams are named by the parts of its ledger
    # label, ``op[i]@e<generation>@r<incarnation>``.
    for label in stream_ledger(engine._runtimes):
        head, _, kind = label.partition("/")
        op_index, *marks = head.split("@")
        op_id, _, index = op_index.rstrip("]").partition("[")
        name = ("engine", op_id, index, *marks) + ((kind,) if kind else ())
        assert name in rngs.opened, label


# ---------------------------------------------------- lazy logic streams


class Drawing(OperatorLogic):
    """A stateless UDO that draws one ``ctx.rng.random()`` per tuple and
    keeps the draws."""

    def setup(self, ctx):
        super().setup(ctx)
        self.draws = []

    def process(self, tup, now, port=0):
        self.draws.append(self.ctx.rng.random())
        return [tup]


def test_only_subtasks_that_draw_open_their_logic_streams(simple_plan):
    """src → filter → agg → sink at parallelism 4: the sources draw
    their tuples from ``ctx.rng``, and no other logic opens its stream
    — not at build, not in the run."""
    simple_plan.set_uniform_parallelism(4, sink_parallelism=4)
    rngs = NamedStreams(11)
    engine = StreamEngine(
        simple_plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(max_tuples_per_source=800),
        rng_factory=rngs,
    )
    assert rngs.opened == []
    assert engine.run().results > 0
    logic_streams = [name for name in rngs.opened if len(name) == 3]
    want = [("engine", "src", str(i)) for i in range(4)]
    assert sorted(logic_streams) == want


def test_a_udo_draws_the_stream_of_its_subtask_name():
    """Opened at the first draw, a logic's stream is the one its name
    gives: ``RngFactory(seed).fresh("engine", op, str(i))``."""
    plan = LogicalPlan("drawing")
    plan.add_operator(
        builders.source(
            "src", kv_generator(), SCHEMA, event_rate=2000.0, parallelism=2
        )
    )
    plan.add_operator(
        builders.udo("udo", Drawing, parallelism=3, output_schema=SCHEMA)
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "udo")
    plan.connect("udo", "sink")
    engine = StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(max_tuples_per_source=600),
        rng_factory=RngFactory(17),
    )
    engine.run()
    udos = [rt for rt in engine._runtimes if rt.op_id == "udo"]
    assert sum(len(rt.logic.draws) for rt in udos) == 600
    for rt in udos:
        stream = RngFactory(17).fresh("engine", "udo", str(rt.index))
        assert rt.logic.draws == [stream.random() for _ in rt.logic.draws]
        assert rt.logic.ctx.rng is rt.logic.ctx.rng


@pytest.mark.parametrize("shards", [None, 1])
def test_a_ledger_read_opens_no_stream(simple_plan, shards):
    """``stream_ledger`` fingerprints what a run drew from; reading a
    never-drawn logic stream's ``ctx.rng`` would open it. A sharded run
    reads the ledger in each shard's stats, into ``_shard_ledger``."""
    rngs = NamedStreams(11)
    engine = StreamEngine(
        simple_plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(max_tuples_per_source=400, shards=shards),
        rng_factory=rngs,
    )
    engine.shard_force_inline = True
    engine.run()
    opened = list(rngs.opened)
    ledger = stream_ledger(engine._runtimes)
    assert rngs.opened == opened
    if shards is not None:
        assert engine._shard_ledger == ledger
    logic = {label for label in ledger if "/" not in label}
    assert logic == {"src[0]", "src[1]"}  # only the sources draw
    assert len(ledger) == 2 + 2 + 7  # their logic, arrivals, all noise
    assert len(opened) == len(ledger)


# ------------------------------------------------------- engine lifetime


@pytest.mark.parametrize(
    "config",
    [
        {},
        {"batch_size": 64},
        {"shards": 1},
        {"checkpoint_interval": 0.05},
        {"scenario": "spike:at=0.1,duration=50"},
    ],
    ids=str,
)
def test_a_finished_engine_is_freed_by_refcount(config):
    """No cycle through the engine once ``run`` returns — including the
    per-shard copy an in-process sharded run makes, which shares the
    engine's physical plan, and the control-plane events a run leaves
    unpopped, whose payloads are bound methods of the engine."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        engine = arrivals_engine(1, **config)
        engine.run()
        refs = [weakref.ref(engine), weakref.ref(engine.physical)]
        del engine
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "config",
    [{}, {"batch_size": 64}, {"shards": 1}, {"checkpoint_interval": 0.05}],
    ids=str,
)
def test_an_engine_runs_once(config):
    """A second ``run()`` used to return the first run's results after
    a no-op pass over exhausted sources."""
    engine = arrivals_engine(1, **config)
    first = engine.run().to_dict()
    with pytest.raises(SimulationError, match="runs once"):
        engine.run()
    assert arrivals_engine(1, **config).run().to_dict() == first
