"""The discrete-event stream processing engine.

This is the simulated System Under Test. Every subtask is a single-core
server with a FIFO input queue; sources emit tuples following an arrival
process (Poisson by default, as the paper models its data); tuples pay a
CPU service time scaled by the hosting core's speed and contention, plus
serialization and channel-management overhead on shuffle exchanges and
network latency/bandwidth on cross-node channels. End-to-end latency and
throughput therefore *emerge* from queueing dynamics rather than being
postulated — which is what lets the simulator reproduce the paper's
observations (speedup from parallelism, its paradox, non-linearity).

Event kinds: ``ARRIVAL`` (a source emits one tuple, or on a computed
run a block of ``SOURCE_CHUNK``), ``DELIVER`` (a tuple or a checkpoint
barrier reaches a subtask), ``BEGIN`` (a server starts the head of its
queue; computed, an alignment buffer is released), ``DONE`` (a service
completes; a computed run's only ``DONE`` ends it), ``TIMER`` (a window
tick), ``STALL`` (an injected pause), ``REPLAY`` (a logged source tuple
is redelivered after a recovery, DESIGN.md §13) and the control-plane
``RESCALE`` (drain, migrate, rewire), ``CONTROL`` (the autoscaler's
tick), ``SCENARIO`` (a chaos action) and ``FT`` (a checkpoint trigger,
or a recovery's end). Like ``TIMER``, control-plane events carry no work
accounting, so a pending one never keeps a finished run alive. The
elastic (§12) and checkpointing (§13) machinery only activates when the
config asks for it.

Termination: when all sources are exhausted and no work events remain
(and, on a computed run, the clock has reached the latest completion),
the engine flushes stateful operators in rounds (remaining windows
fire), then stops once a flush round produces nothing.

**Hot-path design.** Everything constant for an engine's lifetime is
resolved at build time: a source's arrival process and budget; one
precompiled route entry per channel group — bound ``select``, re-key,
consumer gids and per-channel ``(latency, bandwidth)``, which evaluate
``Network.transfer_delay`` bit for bit as it is affine in payload size;
and the constant work factor of a logic that keeps ``work_units``.
Window logics keep min-heaps of pending window ends, so a tick that
fires nothing is O(1) and ``_fire`` skips routing. And (DESIGN.md §14):

- *One universe, drawn in blocks*: every subtask draws
  arrival gaps and service noise from its own named streams and numbers
  the events it schedules from its own counter, so a sharded run
  (:mod:`repro.sps.shard_exec`) drives this same step over one kernel
  per shard and sees the same bits. Private streams can be drawn ahead
  of use: gaps and noise factors are popped from per-subtask blocks
  (``_refill_gaps``/``_refill_noise``), value for value what per-call
  ``exponential(mean)``/``lognormal(mu, sigma)`` would return.
- *Completions are computed, not scheduled*: where
  nothing but a subtask's own tuples and timers can touch it —
  ``StreamEngine.step == "computed"``, resolved in ``_begin_run`` from
  what the run is — a hop is one event: ``_complete`` runs the FIFO
  server's recursion at the ``DELIVER``, with no queue, ``busy`` flag
  or ``DONE``. Every other run executes the evented step, the
  reference the computed one is tested against; its ``DONE`` starts the
  next queued service at ``now + overhead`` itself, without a ``BEGIN``.
- *So are arrivals*: nothing can move such a run's source clocks, so
  the gap chain is drawn as instants (``_arrival_block``) and one
  ``ARRIVAL`` emits ``SOURCE_CHUNK`` of them, up to a block ahead of
  the clock: a heap event per delivered tuple-hop, 1/32 per source
  tuple. Where a source can be throttled, failed or logged the chain
  is ``last actual emission + gap``, so the evented step keeps gaps.
- *Barriers too*: a checkpointed run (DESIGN.md §13) executes a plain
  step — computed when failure-free — and deliveries carry a dense
  channel id where the port would be, so FIFO clocks are a flat list.
  A computed barrier is decided at its ``DELIVER``, as of its dequeue
  instant ``max(now, free_at)``; an evented one is a queue item.

None of this changes any simulated result: every floating-point
expression keeps the exact operand order of the straightforward
implementation. The golden determinism tests
(``tests/test_golden_determinism.py``) pin this down.

**Observability.** Passing an :class:`repro.obs.EngineObserver` lets the
run be traced and metered without perturbing it: every hook only *reads*
simulation state (no RNG draws, no heap pushes), sampling is lazy (the
loop checks ``now`` against the next sampling deadline instead of
scheduling sampler events), and with no observer each hook site is a
single ``is not None`` test. ``sanitize=True`` holds a
:class:`repro.analysis.racecheck.RaceDetector` beside the observer,
called at four points of its own: run start and end, a rescale, and the
``DONE`` of a keyed subtask (DESIGN.md §10). An observed or sanitized
run executes the evented step; ``tests/test_obs.py`` pins the on/off
identity of everything simulated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappush
from itertools import repeat
from operator import itemgetter

import numpy as np

from repro.cluster.cluster import Cluster
from repro.common.errors import (
    ConfigurationError,
    SimulationError,
    check_count,
    check_time,
)
from repro.common.rng import RngFactory
from repro.kernel.core import (
    TB_SEQ_BITS,
    BudgetExceededError,
    Kernel,
    pack_tiebreak,
)
from repro.ft.store import StateStore, estimate_items, validate_delivery
from repro.sps.capabilities import check, features_of, step_of
from repro.sps.costs import COORD_LOG_COST_S, SERDE_COST_S
from repro.sps.logical import LogicalPlan, OperatorKind
from repro.sps.metrics import LatencyStats, RunMetrics
from repro.sps.operators.base import OperatorContext, OperatorLogic
from repro.sps.operators.sink import SinkLogic
from repro.sps.operators.source import SOURCE_CHUNK
from repro.sps.partitioning import (
    ForwardPartitioner,
    HashPartitioner,
    _stable_hash,
)
from repro.sps.physical import ChannelGroup, PhysicalPlan
from repro.sps.placement import PlacementStrategy, RoundRobinPlacement
from repro.sps.tuples import StreamTuple

__all__ = [
    "RescaleEvent",
    "SimulationConfig",
    "StallInjection",
    "StreamEngine",
]

(
    _ARRIVAL,
    _DELIVER,
    _BEGIN,
    _DONE,
    _TIMER,
    _STALL,
    _REPLAY,
    _RESCALE,
    _CONTROL,
    _SCENARIO,
    _FT,
) = range(11)

#: Data-plane kinds for the kernel's work accounting: everything except
#: TIMER and the control-plane kinds at RESCALE and above keeps the run
#: alive (REPLAY redelivers real tuples, so it counts).
_WORK_MASK = tuple(
    kind != _TIMER and kind < _RESCALE for kind in range(11)
)

# Recovery pause model (DESIGN.md §13): restoring from a checkpoint pays
# a coordination handshake plus per-item state rehydration, with mild
# lognormal noise drawn from the dedicated ("engine", "ft") stream.
_RECOVERY_BASE_S = 2e-3
_RECOVERY_PER_ITEM_S = 2e-6
#: pacing of post-recovery source replay relative to the source's mean
#: inter-arrival gap (replay is faster than live generation, as a real
#: source re-reads its durable log without waiting on the clock)
_REPLAY_GAP_FRACTION = 0.25

# Migration pause model: a fixed coordination handshake plus per-key
# state transfer and per-tuple queue re-delivery costs, with mild
# lognormal noise drawn from the dedicated ("engine", "rescale") stream.
_MIGRATION_BASE_S = 1e-3
_MIGRATION_PER_KEY_S = 2e-6
_MIGRATION_PER_TUPLE_S = 1e-6

# Arrival-process kinds, resolved once at build time.
_ARR_POISSON, _ARR_CONSTANT, _ARR_BURSTY, _ARR_PROFILE = range(4)

_ARRIVAL_KINDS = {
    "poisson": _ARR_POISSON,
    "constant": _ARR_CONSTANT,
    "bursty": _ARR_BURSTY,
    "profile": _ARR_PROFILE,
}

#: Lengths of a subtask's first and later draw blocks, by measurement
#: (DESIGN.md §14): a sized draw costs ~4 us whatever its length, so 64
#: values amortise it; longer blocks were no faster, and a short first
#: block keeps the briefly active subtasks of a 130-subtask engine cheap.
_FIRST_BLOCK = 32
_BLOCK = 64


class _Barrier:
    """A checkpoint barrier riding the data channels (DESIGN.md §13).

    Barriers are enqueued like tuples but consumed at zero service
    cost; a subtask snapshots when it has dequeued the barrier of the
    same checkpoint from every input channel (alignment).
    """

    __slots__ = ("ckpt_id",)

    def __init__(self, ckpt_id: int) -> None:
        self.ckpt_id = ckpt_id


@dataclass(frozen=True)
class StallInjection:
    """A transient fault: one operator's subtasks freeze for a while.

    Models GC pauses, noisy neighbours or brief node hiccups — the
    perturbations distributed SPS deployments absorb routinely. All
    subtasks of ``op_id`` stop serving at ``at_time`` for ``duration``
    simulated seconds; queued tuples wait and drain afterwards, so the
    latency distribution shows the spike and the recovery.
    """

    at_time: float
    op_id: str
    duration: float

    def __post_init__(self) -> None:
        check_time("stall at_time", self.at_time, instant=True)
        check_time("stall duration", self.duration)


@dataclass(frozen=True)
class RescaleEvent:
    """A planned reconfiguration: ``op_id`` runs at ``parallelism``

    from ``at_time`` on. The engine drains the operator's subtasks to a
    barrier, migrates keyed state onto fresh instances and rewires the
    channels — in-flight tuples are re-routed, nothing is replayed."""

    at_time: float
    op_id: str
    parallelism: int

    def __post_init__(self) -> None:
        check_time("rescale at_time", self.at_time, instant=True)
        check_count("rescale parallelism", self.parallelism)


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulated run.

    ``max_tuples_per_source`` bounds the run (the paper bounds runs by wall
    time; a tuple budget keeps simulated work proportional across event
    rates). ``warmup_fraction`` of the earliest sink samples is discarded,
    as the paper's measurements skip ramp-up.

    ``backpressure_queue_limit`` enables credit-style flow control: once
    any subtask's input queue exceeds the limit, sources pause until the
    congested queue drains below half the limit (hysteresis), as Flink's
    bounded network buffers throttle sources. With backpressure, latency
    is bounded and overload shows up as reduced source throughput
    instead; without it (None, the default), queues grow unboundedly and
    overload shows up as growing latency.

    ``batch_size`` switches the run to the columnar micro-batch executor
    (:mod:`repro.sps.batch`): operators consume fixed-size tuple batches
    through vectorized kernels where available, which is roughly an
    order of magnitude faster to simulate.  Results stay deterministic
    and batch-size invariant on the data plane; timing becomes
    batch-granular.  Requires numpy.

    ``checkpoint_interval`` turns on aligned-barrier checkpointing
    (DESIGN.md §13): barriers injected at the sources every interval
    flow through the DAG with input-channel alignment, stateful
    subtasks snapshot into an in-simulation state store, and a chaos
    node failure triggers actual recovery — restart from the last
    completed checkpoint and replay source offsets. ``delivery``
    selects the guarantee: ``"exactly_once"`` dedupes replayed results
    at the sinks by ``(producer, seq)`` provenance; ``"at_least_once"``
    delivers duplicates and accounts them. A checkpointed run executes
    the plain step — the computed one unless a scenario can fail it
    (or an observer or ``sanitize`` is attached), the evented one,
    whose sources keep a replay log, otherwise — so it differs from the
    same run without checkpointing only by what barriers do.

    Which of these features may share a run is decided in one place,
    :mod:`repro.sps.capabilities` (DESIGN.md §4, "What composes"); an
    unsupported pair is a ``ConfigurationError`` here, or in
    :class:`StreamEngine` where it involves an observer or chaining.
    """

    max_tuples_per_source: int = 4000
    max_sim_time: float = 120.0
    warmup_fraction: float = 0.1
    keep_sink_values: bool = False
    #: budget of popped events; a computed run (``StreamEngine.step``)
    #: pops one per delivered tuple-hop, an evented run two
    max_events: int = 30_000_000
    backpressure_queue_limit: int | None = None
    stalls: tuple[StallInjection, ...] = ()
    batch_size: int | None = None
    #: planned mid-run reconfigurations (DESIGN.md §12)
    rescales: tuple[RescaleEvent, ...] = ()
    #: autoscaling policy spec ("none", "reactive:...", "predictive:...")
    #: or an AutoscalePolicy instance; None disables the control loop
    autoscale: object | None = None
    #: cadence of the autoscaler's control tick, simulated seconds
    autoscale_interval: float = 0.5
    #: chaos scenario spec string or repro.elastic.Scenario; None = calm
    scenario: object | None = None
    #: end-to-end latency SLO in simulated seconds; when set, metrics
    #: report SLO-violation-seconds in extras["slo_violation_s"]
    slo_latency: float | None = None
    #: aligned-barrier checkpoint cadence in simulated seconds
    #: (DESIGN.md §13); None disables fault tolerance entirely
    checkpoint_interval: float | None = None
    #: delivery guarantee under recovery: "exactly_once" (sink dedupe by
    #: provenance) or "at_least_once" (duplicates delivered + accounted)
    delivery: str = "exactly_once"
    #: conservative parallel execution (DESIGN.md §14): partition the
    #: simulated cluster by placement node into this many shards, one
    #: kernel per shard, synchronized by epoch windows whose width is
    #: the inter-node network latency (the lookahead). ``None`` (the
    #: default) runs the single-kernel loop. Every run draws from
    #: per-subtask arrival/noise streams and numbers events per
    #: producer, so results are identical for every shard count; they
    #: differ from ``shards=None`` only in the end-of-stream flush
    #: instant (the epoch boundary, not the last event).
    shards: int | None = None

    def __post_init__(self) -> None:
        check_count("max_tuples_per_source", self.max_tuples_per_source)
        check_time("max_sim_time", self.max_sim_time)
        check_count("max_events", self.max_events)
        if self.max_events >= 1 << TB_SEQ_BITS:
            raise ConfigurationError(
                f"max_events must be < 2**{TB_SEQ_BITS}: a subtask's event "
                "counter shares its tie-break int with the gid"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        counts = (
            ("backpressure_queue_limit", 2),
            ("batch_size", 1),
            ("shards", 1),
        )
        for name, minimum in counts:
            if getattr(self, name) is not None:
                check_count(name, getattr(self, name), minimum)
        names = ("autoscale_interval", "slo_latency", "checkpoint_interval")
        for name in names:
            if getattr(self, name) is not None:
                check_time(name, getattr(self, name))
        validate_delivery(self.delivery)
        check(features_of(self))


@dataclass(slots=True)
class _SubtaskRuntime:
    """Mutable per-subtask simulation state plus precomputed constants."""

    gid: int
    op_id: str
    index: int
    logic: object
    node_id: int
    base_service: float
    noise_sigma: float
    is_source: bool
    is_sink: bool
    #: sender CPU per routed output (serde + channel management of every
    #: shuffle group); set with the route table
    shuffle_cost_per_output: float = 0.0
    #: constant work multiplier when the logic keeps the base
    #: ``work_units`` implementation; None forces the dynamic call
    static_work: float | None = None
    #: arrival process (sources only), resolved from metadata at build
    arrival_kind: int = _ARR_POISSON
    arrival_budget: int = 0
    mean_gap: float = 0.0
    burst_fast_gap: float = 0.0
    burst_slow_gap: float = 0.0
    rate_profile: object | None = None
    profile_divisor: float = 1.0
    #: precomputed lognormal location parameter (-sigma^2/2)
    noise_mu: float = 0.0
    #: slot contention multiplier from placement, carried on the runtime
    #: so rescale generations (whose gids the placement never saw) can
    #: inherit it from their donor subtask
    slot_load: float = 1.0
    #: precompiled routing, one entry per outgoing channel group:
    #: (select, fixed_indices, rekey, consumer_gids, num_channels,
    #:  latencies, bandwidths, port, shuffle_cost, to_sink) — fixed_indices
    #: replaces the select call for forward/broadcast exchanges whose
    #: fan-out is constant; rekey replaces it on a ``key_field`` hash
    #: exchange (``HashPartitioner.rekey_select``: the key is read
    #: once)
    route_table: list = field(default_factory=list)
    queue: list = field(default_factory=list)
    queue_head: int = 0
    busy: bool = False
    busy_time: float = 0.0
    queue_peak: int = 0
    emitted: int = 0
    wait_time: float = 0.0
    served: int = 0
    #: rescale lifecycle (DESIGN.md §12): ``draining`` while the subtask
    #: runs toward the drain barrier, ``retired`` once replaced — a
    #: retired runtime is a forwarding tombstone for in-flight tuples
    draining: bool = False
    retired: bool = False
    #: which reconfiguration generation built this runtime (0 = initial);
    #: disambiguates RNG streams and race-ledger labels across rescales
    epoch: int = 0
    #: chaos node failure without FT: sources drop generated tuples
    #: (counted as lost) until the clock passes this mark
    fail_until: float = 0.0
    #: fault-tolerance lifecycle (DESIGN.md §13). ``ft_incarnation``
    #: counts restarts of this subtask (labels recovery RNG streams and
    #: race-ledger entries); sources keep a durable log of the tuples
    #: generated since the last completed checkpoint's offset
    #: (``ft_log``, whose first entry is tuple number ``ft_base`` of the
    #: run) with ``ft_head`` the log index to deliver next;
    #: ``ft_emit_seq`` numbers sink-bound emissions for provenance;
    #: ``ft_ckpt``/``ft_aligned``/``ft_buffer`` track barrier alignment
    #: (``ft_aligned`` maps channel ids to their barrier's dequeue
    #: instant); on the computed step ``ft_behind`` counts the buffered
    #: deliveries queued behind the last barrier (``_ft_hold``).
    ft_incarnation: int = 0
    ft_log: list | None = None
    ft_base: int = 0
    ft_head: int = 0
    ft_emit_seq: int = 0
    ft_ckpt: int | None = None
    ft_aligned: dict | None = None
    ft_buffer: list | None = None
    ft_behind: int = 0
    #: the subtask's private randomness (DESIGN.md §14): unit-mean
    #: arrival gaps (scaled at use) and service-noise factors wait in
    #: reversed blocks, popped from the end and refilled from the
    #: subtask's own ``…/arrivals`` and ``…/noise`` streams, which are
    #: opened at the first refill
    gaps: list | None = None
    gaps_rng: object = None
    noise: list | None = None
    noise_rng: object = None
    #: numbers the events this subtask schedules; starts one below
    #: ``pack_tiebreak(gid, 0)``, so its tie-breaks are
    #: ``pack_tiebreak(gid, 0), (gid, 1), …`` on any kernel
    seq: int = 0
    #: when the sender overhead paid at the last DONE ends: no service
    #: starts, and no stall or drain takes hold, before it
    free_at: float = 0.0
    #: stall seconds waiting for the service in flight to end
    held: float = 0.0
    #: the computed step (DESIGN.md §14): the latest completion
    #: instant, the instants at which what waited leaves the queue —
    #: service starts, barrier dequeues (those ahead of ``now`` are the
    #: queue) — and the next timer instant
    #: ``on_time`` has not run for (``inf``: none)
    done_at: float = 0.0
    starts: deque | None = None
    tick: float = math.inf


def _paced_mean_gap(runtime: _SubtaskRuntime, now: float) -> float:
    """Mean of a bursty or profile source's next arrival gap at ``now``."""
    if runtime.arrival_kind == _ARR_BURSTY:
        # On/off: bursts at 4x rate for 50ms, then silence balancing it.
        if (now * 10.0) % 1.0 < 0.25:
            return runtime.burst_fast_gap
        return runtime.burst_slow_gap
    # Non-stationary Poisson: the instantaneous rate comes from a time
    # profile (e.g. a diurnal curve replaying a recorded trace's load).
    profile = runtime.rate_profile
    if profile is None:
        raise ConfigurationError(
            f"{runtime.op_id}: arrival 'profile' needs a "
            "'rate_profile' callable in the source metadata"
        )
    return 1.0 / max(float(profile(now)) / runtime.profile_divisor, 1e-9)


def _static_work(logic) -> float | None:
    """The constant work multiplier of a logic that keeps the base
    ``work_units``; None forces the dynamic call."""
    if type(logic).work_units is OperatorLogic.work_units:
        return logic.work_factor
    return None


class StreamEngine:
    """Runs one physical plan on one cluster and returns metrics."""

    def __init__(
        self,
        plan: LogicalPlan,
        cluster: Cluster,
        placement: PlacementStrategy | None = None,
        config: SimulationConfig | None = None,
        rng_factory: RngFactory | None = None,
        chaining: bool = False,
        preflight: bool = True,
        observer=None,
        sanitize: bool = False,
    ) -> None:
        self.logical = plan
        self.cluster = cluster
        self.config = config or SimulationConfig()
        #: optional EngineObserver; hooks fire only when not None
        self.observer = self._obs = observer
        #: RaceDetector when sanitize=True, else None: called beside
        #: the observer, not through it, and like it only reads —
        #: sanitize=False runs stay bit-identical
        #: (tests/test_racecheck.py pins this).
        self.race_detector = None
        if sanitize:
            from repro.analysis.racecheck import RaceDetector

            self.race_detector = RaceDetector()
        if preflight:
            # Static analysis gate: refuse plans with ERROR diagnostics
            # before building anything. Tests that intentionally build
            # broken plans opt out with preflight=False.
            from repro.analysis.analyzer import preflight as run_preflight

            self.preflight_report = run_preflight(plan, cluster=cluster)
        else:
            self.preflight_report = None
        self.physical = PhysicalPlan.from_logical(plan, chaining=chaining)
        strategy = placement or RoundRobinPlacement()
        self.placement = strategy.place(self.physical, cluster)
        self._rngs = rng_factory or RngFactory(seed=0)
        self._runtimes: list[_SubtaskRuntime] = []
        self._sinks: list[SinkLogic] = []
        # Elastic-runtime state. The live-gid map and channel dict are
        # maintained even on the default path (they start as copies of
        # the physical plan's and are only mutated by rescales), so the
        # hot path never branches on whether elasticity is on.
        self._op_gids: dict[str, list[int]] = {}
        self._out_channels: dict[int, list[ChannelGroup]] = {}
        self._op_epoch: dict[str, int] = {}
        self._op_forwarders: dict[str, dict[int, object]] = {}
        self._rescale_refusals: dict[str, str | None] = {}
        self._pending_rescale: dict[str, list] = {}
        self._rescale_count = 0
        self._migrated_keys_total = 0
        self._rescale_log: list[dict] = []
        features = features_of(
            self.config, observer, sanitize, self.physical.chains
        )
        check(features)
        self._elastic = not features.isdisjoint(("rescale", "scenario"))
        self._ft = "checkpoint" in features
        #: force the sharded controller onto in-process workers even
        #: where fork is available (the serial reference of the DET609
        #: cross-check, and the property tests' fast path)
        self.shard_force_inline = False
        #: the discrete-event kernel: owns the clock and the event
        #: counter; written by the batch executor and the sharded run's
        #: stats merge
        self._k = Kernel(_WORK_MASK)
        self._ran = False
        self._step: str | None = None
        #: end-of-stream flush rounds any executor runs at most: a
        #: flushed result crosses at most every operator once
        self._max_flush_rounds = len(plan.operators) + 2
        self._build_runtimes()

    @property
    def step(self) -> str | None:
        """Which scalar step the run executes, ``"computed"`` or
        ``"evented"``: resolved by :meth:`_begin_run` from what the run
        is; ``None`` before it, and under the batch executor."""
        return self._step

    # ----------------------------------------------------------- build-time

    def _build_runtimes(self) -> None:
        for subtask in self.physical.subtasks:
            runtime = self._new_runtime(
                subtask.op_id,
                subtask.index,
                subtask.parallelism,
                self.placement.node_of(subtask.gid),
                self.placement.load_of(subtask.gid),
            )
            if runtime.is_source:
                op = self.logical.operator(subtask.op_id)
                self._build_arrival_state(runtime, op)
            logic = runtime.logic
            if isinstance(logic, SinkLogic):
                logic.keep_values = self.config.keep_sink_values
                self._sinks.append(logic)
        if not self._sinks:
            raise SimulationError(
                "plan has no SinkLogic sink; use builders.sink()"
            )
        self._op_gids = {
            op_id: list(gids)
            for op_id, gids in self.physical.op_subtasks.items()
        }
        self._out_channels = {
            gid: list(groups)
            for gid, groups in self.physical.out_channels.items()
        }
        self._build_route_tables()

    def _new_runtime(
        self,
        op_id: str,
        index: int,
        parallelism: int,
        node_id: int,
        load: float,
        epoch: int = 0,
    ) -> _SubtaskRuntime:
        """Append subtask ``index`` of ``op_id``, one of ``parallelism``,
        at the next gid: the cost model's service time on ``node_id``
        under slot contention ``load``, and a fresh logic."""
        op = self.logical.operator(op_id)
        cost = self.physical.effective_cost(op_id)
        coord = cost.coordination_factor(parallelism)
        speed = self.cluster.node(node_id).speed_factor
        cv = cost.cost_noise
        sigma = math.sqrt(math.log(1.0 + cv * cv)) if cv > 0 else 0.0
        gid = len(self._runtimes)
        runtime = _SubtaskRuntime(
            gid=gid,
            op_id=op_id,
            index=index,
            logic=None,
            node_id=node_id,
            base_service=cost.base_cpu_s * coord * load / speed,
            noise_sigma=sigma,
            is_source=op.kind is OperatorKind.SOURCE,
            is_sink=op.kind is OperatorKind.SINK,
            noise_mu=-0.5 * sigma * sigma,
            slot_load=load,
            epoch=epoch,
            seq=pack_tiebreak(gid, 0) - 1,
        )
        self._new_logic(runtime, parallelism)
        self._runtimes.append(runtime)
        return runtime

    def _new_logic(
        self, runtime: _SubtaskRuntime, parallelism: int
    ) -> OperatorLogic:
        """Give the subtask a fresh logic, set up on the stream of the
        subtask's current name."""
        logic = self.physical.effective_factory(runtime.op_id)()
        logic.setup(
            OperatorContext(
                op_id=runtime.op_id,
                subtask_index=runtime.index,
                parallelism=parallelism,
                rng=self._rngs.fresh(*self._stream_name(runtime)),
            )
        )
        runtime.logic = logic
        runtime.static_work = _static_work(logic)
        return logic

    def _build_arrival_state(self, runtime: _SubtaskRuntime, op) -> None:
        """Resolve a source's arrival process once, not per arrival."""
        rate = float(op.metadata.get("event_rate", 1000.0))
        per_instance = rate / max(op.parallelism, 1)
        if per_instance <= 0:
            raise SimulationError(f"{runtime.op_id}: event rate must be > 0")
        process = op.metadata.get("arrival", "poisson")
        kind = _ARRIVAL_KINDS.get(process)
        if kind is None:
            raise ConfigurationError(
                f"unknown arrival process {process!r} "
                "(use poisson, constant, bursty or profile)"
            )
        runtime.arrival_kind = kind
        runtime.mean_gap = 1.0 / per_instance
        # On/off bursts: 4x rate for a quarter phase, silence balancing it.
        runtime.burst_fast_gap = 1.0 / (per_instance * 4.0)
        runtime.burst_slow_gap = 1.0 / (per_instance * 0.25)
        # A missing rate_profile stays a *run-time* error (the engine can
        # be constructed; scheduling the first arrival reports it).
        runtime.rate_profile = op.metadata.get("rate_profile")
        runtime.profile_divisor = float(max(op.parallelism, 1))
        tuples = self.config.max_tuples_per_source
        # The truncating split; below one tuple each, the first get one.
        budget = int(tuples / max(op.parallelism, 1))
        runtime.arrival_budget = budget or int(runtime.index < tuples)

    def _build_route_tables(self) -> None:
        """Precompile per-channel-group routing state.

        Resolves, once per channel group: the bound partitioner ``select``,
        the keyBy-and-select of a ``key_field`` hash exchange (or None),
        consumer gids, and per-channel network delay terms.
        ``Network.transfer_delay`` is affine in the
        payload size — ``base_latency + size / bandwidth``, zero for
        same-node channels — so the table stores ``(latency, bandwidth)``
        per channel and the hot path evaluates the identical expression
        without node lookups.
        """
        self._net_base_latency = self.cluster.network.spec.base_latency_s
        for runtime in self._runtimes:
            self._compile_route_table(runtime)

    def _compile_route_table(self, runtime: _SubtaskRuntime) -> None:
        """(Re)compile one runtime's routing table, and the sender CPU
        it pays per routed output, from its channel groups.

        Called at build time for every runtime and again by
        :meth:`_perform_rescale` for producers whose consumer set
        changed."""
        shuffle_cost = 0.0
        for group in self._out_channels[runtime.gid]:
            if group.is_shuffle:
                shuffle_cost += SERDE_COST_S + COORD_LOG_COST_S * math.log2(
                    max(group.num_channels, 2)
                )
        runtime.shuffle_cost_per_output = shuffle_cost
        network = self.cluster.network
        base_latency = self._net_base_latency
        inf = float("inf")
        src_node = runtime.node_id
        table = []
        for group in self._out_channels[runtime.gid]:
            partitioner = group.partitioner
            rekey = (
                partitioner.rekey_select
                if isinstance(partitioner, HashPartitioner)
                and partitioner.key_field is not None
                else None
            )
            consumers = list(group.consumer_gids)
            latencies = []
            bandwidths = []
            for gid in consumers:
                dst_node = self._runtimes[gid].node_id
                if dst_node == src_node:
                    latencies.append(0.0)
                    bandwidths.append(inf)
                else:
                    latencies.append(base_latency)
                    bandwidths.append(
                        network.link_bandwidth(src_node, dst_node)
                    )
            table.append(
                (
                    partitioner.select,
                    partitioner.constant_indices(len(consumers)),
                    rekey,
                    consumers,
                    len(consumers),
                    latencies,
                    bandwidths,
                    group.port,
                    (
                        runtime.shuffle_cost_per_output
                        if group.is_shuffle
                        else 0.0
                    ),
                    self._runtimes[consumers[0]].is_sink,
                )
            )
        runtime.route_table = table

    # ------------------------------------------------------------- run-time

    def run(self) -> RunMetrics:
        """Execute the simulation and compute metrics.

        An engine runs once: its sinks, source budgets and operator
        state are the run's, so a second call would report the first
        run again."""
        if self._ran:
            raise SimulationError(
                "a StreamEngine runs once; build a new engine per run"
            )
        self._ran = True
        try:
            if self.config.batch_size is not None:
                from repro.sps.batch import ColumnarExecutor

                return ColumnarExecutor(self).run()
            if self.config.shards is not None:
                from repro.sps.shard_exec import run_sharded

                return run_sharded(self)
            k = self._k
            self._begin_run(k)
            if self._elastic:
                self._start_elastic()

            obs = self._obs
            if obs is not None:
                obs.on_run_start(self)
                k.sampler = obs.sample
                k.sample_next = obs.next_sample
            race = self.race_detector
            if race is not None:
                race.on_run_start(self)
            k.run(
                self._make_handlers(),
                max_events=self.config.max_events,
                on_idle=(
                    self._quiesce
                    if self._step == "computed"
                    else self._on_idle
                ),
            )
            # What is still scheduled never happens. A control-plane
            # payload is a bound method: left on the heap it would be a
            # cycle through the engine, which is freed by refcount.
            k.heap.clear()
            if obs is not None:
                obs.on_run_end(k.now)
            if race is not None:
                race.on_run_end()
            return self._collect_metrics()
        except BudgetExceededError as exc:
            # Whichever executor ran out: the scalar kernel, the batch
            # executor's event-equivalents or a shard's epoch budget.
            raise SimulationError(
                f"event budget exceeded ({exc.max_events}); "
                "the configuration likely diverged"
            ) from None

    def _begin_run(self, kernel: Kernel, owned=None) -> None:
        """Bind one kernel's run state on this object, then seed it.

        :meth:`run` calls this once, for every subtask. Sharded
        execution calls it once per shard on a shallow copy of the
        engine (:class:`repro.sps.shard_exec.ShardExecutor`) with
        ``owned``, that shard's gids in ascending order: the copy shares
        the plan and the runtimes, and what is bound here — kernel,
        clocks, outbox, owned-gid filter — is the copy's own. A subtask
        draws and numbers its events the same way on any kernel, so
        ``owned`` only decides which subtasks are seeded here.
        """
        config = self.config
        runtimes = self._runtimes
        mine = runtimes if owned is None else [runtimes[g] for g in owned]
        self._k = kernel
        #: None: every consumer is local. Else deliveries to a gid
        #: outside the set leave through ``_outbox`` as wire messages
        #: ``(at, origin gid, origin seq, dst gid, port, tuple)``.
        self._owned = None if owned is None else frozenset(owned)
        self._outbox: list = []
        self._flush_rounds = 0
        self._flush_time: float | None = None
        self._last_source_time = 0.0
        self._congested: set[int] = set()
        self._throttled_arrivals = 0
        self._bp_limit = config.backpressure_queue_limit
        #: a DONE that paid sender overhead starts the next service
        #: itself instead of pushing a BEGIN. Backpressure keeps the
        #: event: its hysteresis release is defined at dequeue time.
        self._fused = self._bp_limit is None
        #: checkpointed runs only (``_ft_init``): per-channel FIFO clocks
        #: and the channel -> port map, both indexed by channel id
        self._ft_clocks = self._ft_ports = None
        #: control-plane events (RESCALE/CONTROL/SCENARIO/FT) belong to
        #: no subtask: origin -1 numbers them ahead of every subtask's
        #: events at an equal instant
        self._control_seq = pack_tiebreak(-1, 0) - 1
        self._state_loss: dict | None = None
        if owned is not None:
            # The detector reads a whole run on one kernel; a sanitized
            # sharded run takes its ledger from the shards' stats.
            self.race_detector = None
        #: completions are computed when nothing but a subtask's own
        #: tuples and timers can touch it: ``capabilities.EVENTED`` has
        #: what still acts on the queue, ``busy`` or the DONE event
        self._step = step_of(
            features_of(config, self._obs, self.race_detector is not None)
        )
        self._computed = computed = self._step == "computed"
        #: the next pending checkpoint trigger, where a computed run's
        #: sources cut their arrival blocks (``_arrive``)
        self._ft_next = math.inf
        for runtime in mine:
            runtime.seq = pack_tiebreak(runtime.gid, 0) - 1
        if self._ft:
            self._ft_init()

        seed = self._push_arrivals if computed else self._schedule_next_arrival
        for runtime in mine:
            if runtime.is_source:
                seed(runtime, 0.0)
            interval = getattr(runtime.logic, "timer_interval", None)
            if interval:
                runtime.tick = interval
                self._push(interval, _TIMER, runtime.gid, None, 0)
            if computed:
                runtime.starts = deque()

        for stall in config.stalls:
            if stall.op_id not in self.physical.op_subtasks:
                raise SimulationError(
                    f"stall targets unknown operator {stall.op_id!r}"
                )
            if stall.at_time > config.max_sim_time:
                continue
            for gid in self.physical.op_subtasks[stall.op_id]:
                if owned is None or gid in self._owned:
                    self._push(stall.at_time, _STALL, gid, stall.duration, 0)

    def _make_handlers(self) -> list:
        """The kernel's dispatch table, one entry per event kind."""
        handlers: list = [None] * 11
        handlers[_ARRIVAL] = self._handle_arrival
        handlers[_DELIVER] = self._ft_deliver if self._ft else self._enqueue
        handlers[_BEGIN] = self._begin_service
        handlers[_DONE] = self._handle_done
        handlers[_TIMER] = self._tick
        handlers[_STALL] = self._handle_stall
        handlers[_REPLAY] = self._handle_replay
        for kind in (_RESCALE, _CONTROL, _SCENARIO, _FT):
            handlers[kind] = self._apply
        if self._step == "computed":
            handlers[_ARRIVAL] = self._arrive
            if self._ft:
                handlers[_BEGIN] = self._ft_release
            else:
                handlers[_DELIVER] = self._complete
            # Only the quiescence event: it moves the clock.
            handlers[_DONE] = lambda gid, payload, port: None
        return handlers

    def _on_idle(self) -> bool:
        """Work counter hit zero: flush rounds, recovery, or stop."""
        if self._ft and self._ft_recovering:
            # A recovery pause drained the last in-flight work; the
            # scheduled ``_ft_restored`` control event will re-arm the
            # source replay, so neither flush nor terminate yet.
            return True
        if self._flush_rounds < self._max_flush_rounds and self._flush_all():
            self._flush_rounds += 1
            return True
        return False

    # -------------------------------------------------------------- events

    def _push(
        self, time: float, kind: int, gid: int, payload, port: int
    ) -> None:
        """Subtask ``gid`` schedules an event for itself, numbered from
        its own counter."""
        runtime = self._runtimes[gid]
        runtime.seq += 1
        self._k.push_tb(time, runtime.seq, kind, gid, payload, port)

    def _push_control(self, time: float, kind: int, *call) -> None:
        """Schedule a control-plane event — ``call`` is a bound method
        and its arguments — numbered from the engine's own counter."""
        self._control_seq += 1
        self._k.push_tb(time, self._control_seq, kind, 0, call, 0)

    def _apply(self, gid: int, call, port: int) -> None:
        """A control-plane event fires: make the call it carries."""
        call[0](*call[1:])

    @staticmethod
    def _stream_name(runtime: _SubtaskRuntime) -> list[str]:
        """The subtask's stable name, ``engine/<op>/<i>[/e<generation>]
        [/r<incarnation>]``: its logic's stream, and the prefix of its
        ``arrivals`` and ``noise`` streams. Streams derive purely from
        the factory seed and this name, so every executor, transport
        and shard count builds identical ones."""
        name = ["engine", runtime.op_id, str(runtime.index)]
        if runtime.epoch:
            name.append(f"e{runtime.epoch}")
        if runtime.ft_incarnation:
            name.append(f"r{runtime.ft_incarnation}")
        return name

    def _open_stream(self, runtime: _SubtaskRuntime, kind: str):
        """The subtask's private ``arrivals`` or ``noise`` generator."""
        return self._rngs.fresh(*self._stream_name(runtime), kind)

    def _refill_gaps(self, runtime: _SubtaskRuntime) -> list:
        """The next block of unit-mean arrival gaps, in pop order."""
        rng = runtime.gaps_rng
        size = _BLOCK
        if rng is None:
            rng = runtime.gaps_rng = self._open_stream(runtime, "arrivals")
            size = _FIRST_BLOCK
        runtime.gaps = rng.standard_exponential(size)[::-1].tolist()
        return runtime.gaps

    def _refill_noise(self, runtime: _SubtaskRuntime) -> list:
        """The next block of service-noise factors, in pop order."""
        rng = runtime.noise_rng
        size = _BLOCK
        if rng is None:
            rng = runtime.noise_rng = self._open_stream(runtime, "noise")
            size = _FIRST_BLOCK
        block = rng.lognormal(runtime.noise_mu, runtime.noise_sigma, size)
        runtime.noise = block[::-1].tolist()
        return runtime.noise

    def _schedule_next_arrival(
        self, runtime: _SubtaskRuntime, now: float
    ) -> None:
        if runtime.emitted >= runtime.arrival_budget:
            return
        kind = runtime.arrival_kind
        if kind == _ARR_CONSTANT:
            gap = runtime.mean_gap
        else:
            # ``mean * E`` with E a unit-mean draw is what
            # ``Generator.exponential(mean)`` computes, bit for bit.
            gaps = runtime.gaps or self._refill_gaps(runtime)
            if kind == _ARR_POISSON:
                gap = runtime.mean_gap * gaps.pop()
            else:
                gap = gaps.pop() * _paced_mean_gap(runtime, now)
        at = now + gap
        if at > self.config.max_sim_time:
            return
        self._push(at, _ARRIVAL, runtime.gid, None, 0)

    def _handle_arrival(self, gid: int, payload, port: int) -> None:
        runtime = self._runtimes[gid]
        now = self._k.now
        if self._congested:
            # Backpressure: hold the arrival without emitting; retry
            # shortly. The event stays "work" so the run cannot end
            # while sources are merely paused.
            self._throttled_arrivals += 1
            retry = now + 1e-3
            if retry <= self.config.max_sim_time:
                self._push(retry, _ARRIVAL, gid, None, 0)
            return
        tup = runtime.logic.generate(now)
        runtime.emitted += 1
        if now < runtime.fail_until:
            # Failed source (chaos, FT off): the tuple is generated for
            # RNG parity but never delivered — an explicit data loss.
            self._state_loss["lost_source_tuples"] += 1
            self._schedule_next_arrival(runtime, now)
            return
        if now > self._last_source_time:
            self._last_source_time = now
        if self._ft:
            # Durable source log (DESIGN.md §13): every generated tuple
            # is appended; delivery advances ft_head, and recovery
            # rewinds ft_head to the checkpoint offset and replays. A
            # source's own tuples ride the reserved channel 0.
            log = runtime.ft_log
            log.append(tup)
            if not self._ft_recovering and runtime.ft_head == len(log) - 1:
                runtime.ft_head = len(log)
                self._enqueue(gid, tup, 0)
        else:
            self._enqueue(gid, tup, 0)
        self._schedule_next_arrival(runtime, now)

    def _enqueue(self, gid: int, tup: StreamTuple, port: int) -> None:
        runtime = self._runtimes[gid]
        if runtime.retired:
            # Forwarding tombstone: a tuple was in flight toward a
            # subtask that a rescale replaced. Re-partition it across
            # the operator's live subtasks (chaining correctly across
            # multiple rescales, since the live set is looked up fresh).
            runtime = self._runtimes[self._forward_gid(runtime, tup, port)]
        obs = self._obs
        k = self._k
        now = k.now
        if obs is not None:
            obs.tuples_in[runtime.gid] += 1
        queue = runtime.queue
        if not runtime.busy and runtime.queue_head == len(queue):
            # Idle server, empty queue: start service directly, skipping
            # the append/pop round-trip. Bookkeeping stays equivalent —
            # the depth would be 1 (peak), and an empty queue always
            # clears this subtask's congestion flag. The wait is exactly
            # 0.0 unless the server is still paying the last tuple's
            # sender overhead: service then starts when that ends.
            if runtime.queue_peak < 1:
                runtime.queue_peak = 1
            if self._bp_limit is not None:
                if obs is not None and runtime.gid in self._congested:
                    obs.on_backpressure(runtime, now, False)
                self._congested.discard(runtime.gid)
            start = now
            if runtime.free_at > now:
                start = runtime.free_at
                runtime.wait_time += start - now
            runtime.served += 1
            runtime.busy = True
            work = runtime.static_work
            if work is None:
                work = runtime.logic.work_units(tup)
            service = runtime.base_service * work
            if runtime.noise_sigma > 0:
                noise = runtime.noise or self._refill_noise(runtime)
                service *= noise.pop()
            runtime.busy_time += service
            if obs is not None:
                obs.on_serve(runtime, start, service, start - now)
            if self._ft_ports is not None:
                port = self._ft_ports[port]
            runtime.seq += 1
            k.work += 1
            heappush(
                k.heap,
                (
                    start + service,
                    runtime.seq,
                    _DONE,
                    runtime.gid,
                    tup,
                    port,
                ),
            )
            return
        queue.append((tup, port, now))
        depth = len(queue) - runtime.queue_head
        if now < runtime.free_at:
            # The tuple whose service starts at free_at left the queue
            # early; until then it still counts as waiting.
            depth += 1
        if depth > runtime.queue_peak:
            runtime.queue_peak = depth
        limit = self._bp_limit
        if limit is not None and depth >= limit:
            if obs is not None and runtime.gid not in self._congested:
                obs.on_backpressure(runtime, now, True)
            self._congested.add(runtime.gid)
        if not runtime.busy:
            self._begin_service_now(runtime, now)

    def _begin_service(self, gid: int, payload, port: int) -> None:
        runtime = self._runtimes[gid]
        if runtime.draining or runtime.retired:
            self._drain_step(runtime)
            return
        if runtime.held:
            self._hold(runtime, self._k.now)
            return
        runtime.busy = False
        if len(runtime.queue) > runtime.queue_head:
            self._begin_service_now(runtime, self._k.now)

    def _begin_service_now(
        self, runtime: _SubtaskRuntime, now: float
    ) -> None:
        """Start serving the head of the queue at ``now`` — the clock,
        or the end of the sender overhead a DONE just paid."""
        queue = runtime.queue
        head = runtime.queue_head
        tup, port, enqueued_at = queue[head]
        ports = self._ft_ports
        if ports is not None:
            # Checkpointed run: the slot holds a channel id, and the
            # head may be a barrier or data of an aligned channel.
            if tup.__class__ is _Barrier or runtime.ft_ckpt is not None:
                if not self._ft_dequeue(runtime, now):
                    return
                head = runtime.queue_head
                tup, port, enqueued_at = queue[head]
            port = ports[port]
        wait = now - enqueued_at
        runtime.wait_time += wait
        runtime.served += 1
        head += 1
        runtime.queue_head = head
        if head > 256 and head * 2 >= len(queue):
            del queue[:head]
            runtime.queue_head = 0
        limit = self._bp_limit
        if limit is not None and runtime.gid in self._congested:
            depth = len(queue) - runtime.queue_head
            if depth <= limit // 2:
                if self._obs is not None:
                    self._obs.on_backpressure(runtime, now, False)
                self._congested.discard(runtime.gid)
        runtime.busy = True
        work = runtime.static_work
        if work is None:
            work = runtime.logic.work_units(tup)
        service = runtime.base_service * work
        if runtime.noise_sigma > 0:
            noise = runtime.noise or self._refill_noise(runtime)
            service *= noise.pop()
        runtime.busy_time += service
        if self._obs is not None:
            self._obs.on_serve(runtime, now, service, wait)
        k = self._k
        runtime.seq += 1
        k.work += 1
        heappush(
            k.heap,
            (now + service, runtime.seq, _DONE, runtime.gid, tup, port),
        )

    def _handle_done(self, gid: int, tup: StreamTuple, port: int) -> None:
        runtime = self._runtimes[gid]
        now = self._k.now
        if runtime.is_source:
            outputs = [tup]
        else:
            outputs = runtime.logic.process(tup, now, port)
        if self._obs is not None:
            self._obs.on_done(runtime, now, tup, outputs)
        race = self.race_detector
        if race is not None and gid in race.keyed:
            race.on_done(runtime, now, tup, outputs)
        overhead = self._route(runtime, outputs)
        runtime.busy_time += overhead
        if runtime.draining:
            # The in-flight tuple this drain was waiting on is done;
            # once its routing overhead is paid, step the barrier. The
            # subtask stays busy so no further service starts.
            if overhead > 0:
                self._push(now + overhead, _BEGIN, gid, None, 0)
            else:
                self._drain_step(runtime)
            return
        if runtime.held:
            # A stall waited for this service: it takes the server once
            # the sender overhead is paid, ahead of the queue.
            self._hold(runtime, now + overhead)
            return
        if overhead > 0:
            if not self._fused:
                self._push(now + overhead, _BEGIN, gid, None, 0)
                return
            # Nothing is decided when the overhead ends, so its end is
            # not an event: the next service starts there directly —
            # ``now`` below is the time a BEGIN would have popped at.
            now += overhead
            runtime.free_at = now
        runtime.busy = False
        if len(runtime.queue) > runtime.queue_head:
            self._begin_service_now(runtime, now)

    def _handle_stall(self, gid: int, duration: float, port: int) -> None:
        runtime = self._runtimes[gid]
        if runtime.retired:
            # The targeted subtask was replaced by a rescale; its
            # successors were built fresh, so the fault evaporates.
            return
        # An idle server is held at once — from the end of the sender
        # overhead it may still be paying. A busy one is held when the
        # service in flight is done and its overhead paid
        # (``_handle_done``, ``_begin_service``, ``_ft_restored``).
        runtime.held += duration
        if not runtime.busy:
            self._hold(runtime, max(self._k.now, runtime.free_at))

    def _hold(self, runtime: _SubtaskRuntime, at: float) -> None:
        """The pending stalls hold the free server from ``at``; queued
        tuples wait behind them."""
        duration = runtime.held
        runtime.held = 0.0
        runtime.busy = True
        if self._obs is not None:
            self._obs.on_stall(runtime, at, duration)
        self._push(at + duration, _BEGIN, runtime.gid, None, 0)

    # ---------------------------------------------------- the computed step

    def _arrival_block(self, runtime: _SubtaskRuntime, at: float, n: int):
        """The ``n`` arrival instants after a source's arrival at ``at``,
        less those past ``max_sim_time``: the chain ``at += gap`` of
        :meth:`_schedule_next_arrival`, a block at a time. Unit gaps
        from the subtask's ``…/arrivals`` stream, ``mean * E`` and a
        ``cumsum``, which accumulates left to right. Nothing else reads
        the stream, so the draws past a cut change no result; a block
        that comes back short is the source's last."""
        kind = runtime.arrival_kind
        max_time = self.config.max_sim_time
        if kind == _ARR_CONSTANT:
            gaps = np.ones(n)
        else:
            rng = runtime.gaps_rng
            if rng is None:
                rng = runtime.gaps_rng = self._open_stream(runtime, "arrivals")
            gaps = rng.standard_exponential(n)
        if kind == _ARR_CONSTANT or kind == _ARR_POISSON:
            gaps *= runtime.mean_gap
            gaps[0] += at
            times = np.cumsum(gaps)
        else:
            # Bursty/profile: a gap's mean depends on the time reached
            # so far, so the chain stays a loop.
            times = gaps.tolist()
            for i, unit in enumerate(times):
                times[i] = at = at + unit * _paced_mean_gap(runtime, at)
                if at > max_time:
                    break
            times = np.asarray(times[: i + 1])
        return times[: np.searchsorted(times, max_time, side="right")]

    def _push_arrivals(self, runtime: _SubtaskRuntime, at: float) -> None:
        """Schedule the source's next block of arrivals, those after the
        one at ``at``, as one ``ARRIVAL`` at the block's first instant."""
        n = min(runtime.arrival_budget - runtime.emitted, SOURCE_CHUNK)
        if n > 0:
            instants = self._arrival_block(runtime, at, n).tolist()
            if instants:
                self._push(instants[0], _ARRIVAL, runtime.gid, instants, 0)

    def _arrive(self, gid: int, instants: list, done: int) -> None:
        """``ARRIVAL``: a block of a source's arrivals (DESIGN.md §14).

        Nothing can throttle, fail or log this source, so its instants
        were decided before the run began: each tuple is generated and
        completed at its own, up to a block ahead of the clock — but not
        past a pending checkpoint trigger, whose barrier is dequeued
        behind exactly the arrivals before it: the instants from the
        trigger on arrive as an ``ARRIVAL`` of their own, carrying in
        ``done`` how many of the block came before them. A block short
        of ``SOURCE_CHUNK`` met the budget or the ``max_sim_time`` cut:
        nothing follows it."""
        runtime = self._runtimes[gid]
        full = done + len(instants) == SOURCE_CHUNK
        if instants[-1] >= self._ft_next:
            i = bisect_left(instants, self._ft_next)
            self._push(instants[i], _ARRIVAL, gid, instants[i:], i + done)
            instants = instants[:i]
            full = False
        generate = runtime.logic.generate
        for now in instants:
            self._complete(gid, generate(now), 0, now)
        runtime.emitted += len(instants)
        if now > self._last_source_time:
            self._last_source_time = now
        if full:
            self._push_arrivals(runtime, now)

    def _complete(
        self, gid: int, tup: StreamTuple, port: int, now: float | None = None
    ) -> None:
        """``DELIVER``: the whole hop, at arrival (DESIGN.md §14).

        A FIFO single server's completion is decided when the tuple
        arrives — ``start = max(now, free_at)``, ``done = start +
        service``, ``free_at = done + overhead`` — and service order is
        arrival order, so each noise draw, ``process`` call and routed
        event is the evented step's, in its order. ``now`` is the
        arrival instant: the clock, or one :meth:`_arrive` runs ahead."""
        runtime = self._runtimes[gid]
        if now is None:
            now = self._k.now
        start = runtime.free_at
        if start > now:
            # Queued behind every earlier tuple yet to start.
            runtime.wait_time += start - now
            starts = runtime.starts
            while starts and starts[0] <= now:
                starts.popleft()
            starts.append(start)
            if len(starts) > runtime.queue_peak:
                runtime.queue_peak = len(starts)
        else:
            start = now
            if runtime.queue_peak < 1:
                runtime.queue_peak = 1
        runtime.served += 1
        work = runtime.static_work
        if work is None:
            work = runtime.logic.work_units(tup)
        service = runtime.base_service * work
        if runtime.noise_sigma > 0:
            noise = runtime.noise or self._refill_noise(runtime)
            service *= noise.pop()
        runtime.busy_time += service
        runtime.done_at = done = start + service
        if runtime.tick <= done:
            # Ticks the heap has not popped yet run first. One exactly
            # at ``done`` does only if it was armed before this arrival:
            # the heap would order the two by which was scheduled first.
            self._fire(runtime)
            while runtime.tick < done:
                self._fire(runtime)
        if runtime.is_source:
            outputs = [tup]
        else:
            outputs = runtime.logic.process(tup, done, port)
        if outputs:
            overhead = self._route(runtime, outputs, done)
            runtime.busy_time += overhead
            done += overhead
        runtime.free_at = done

    def _fire(self, runtime: _SubtaskRuntime) -> None:
        """Run the subtask's next timer tick — at the clock, or ahead of
        it for a completion it precedes — and arm the one after."""
        at = runtime.tick
        logic = runtime.logic
        outputs = logic.on_time(at)
        if outputs:
            if self._obs is not None:
                self._obs.on_window_fire(runtime, at, len(outputs))
            runtime.busy_time += self._route(runtime, outputs, at)
        interval = logic.timer_interval
        at += interval
        if at > self.config.max_sim_time + 10.0 * interval:
            at = math.inf
        runtime.tick = at

    def _tick(self, gid: int, payload, port: int) -> None:
        """``TIMER``: a tick must fire when no tuple comes, so it stays
        an event; one a completion already ran ahead only re-arms, and
        a retired subtask's (``tick = inf``) lapses."""
        runtime = self._runtimes[gid]
        if runtime.tick == self._k.now:
            self._fire(runtime)
        if runtime.tick < math.inf:
            self._push(runtime.tick, _TIMER, gid, None, 0)

    def _quiesce(self) -> bool:
        """Work hit zero, but the run ends where its last ``DONE`` would
        have popped: one work event takes the clock to the latest
        completion (timers due before it pop first); from there on,
        :meth:`_on_idle`."""
        last = max(self._runtimes, key=lambda rt: (rt.done_at, rt.gid))
        if last.done_at <= self._k.now:
            return self._on_idle()
        self._push(last.done_at, _DONE, last.gid, None, 0)
        return True

    # ------------------------------------------------------ elastic runtime

    def _start_elastic(self) -> None:
        """Arm the elastic machinery for this run.

        The dedicated ``("engine", "rescale")`` stream exists so
        migration-pause noise never touches the arrival or operator
        streams: a run with rescales draws exactly the same arrival and
        service sequence (modulo queueing order) as one without.
        """
        from repro.elastic.policy import OpSnapshot, make_policy

        self._snapshot_cls = OpSnapshot
        self._rng_rescale = self._rngs.fresh("engine", "rescale")
        for event in self.config.rescales:
            reason = self._rescale_refusal(event.op_id)
            if reason is not None:
                raise SimulationError(
                    f"cannot rescale {event.op_id!r}: {reason}"
                )
            if event.at_time <= self.config.max_sim_time:
                self._push_control(
                    event.at_time,
                    _RESCALE,
                    self._handle_rescale,
                    event.op_id,
                    event.parallelism,
                )
        if self.config.autoscale:
            self._policy = make_policy(self.config.autoscale)
            self._autoscale_ops = [
                op_id
                for op_id in self.logical.topological_order()
                if self._rescale_refusal(op_id) is None
            ]
            self._control_prev: dict[str, tuple[float, int]] = {}
            interval = self.config.autoscale_interval
            if interval <= self.config.max_sim_time:
                self._push_control(interval, _CONTROL, self._handle_control)
        if self.config.scenario:
            self._schedule_scenario()

    def _schedule_scenario(self) -> None:
        """Compile the scenario's injections onto the event heap."""
        from repro.elastic.scenarios import (
            LoadSpike,
            NetworkDegradation,
            NodeFailure,
            Straggler,
            make_scenario,
        )

        horizon = self.config.max_sim_time
        for injection in make_scenario(self.config.scenario).injections:
            if injection.at > horizon:
                continue
            if isinstance(injection, NodeFailure):
                node = injection.node
                if node is None:
                    node = self._default_failure_node()
                if all(rt.node_id != node for rt in self._runtimes):
                    raise SimulationError(
                        f"node failure targets node {node}, "
                        "which hosts no subtasks"
                    )
                call = (
                    self._ft_failure if self._ft else self._fail_node_now,
                    node,
                    injection.duration,
                )
            elif isinstance(injection, LoadSpike):
                call = (self._spike, injection.factor, injection.duration)
            elif isinstance(injection, Straggler):
                op_id = injection.op or self._default_straggler_op()
                if op_id not in self._op_gids:
                    raise SimulationError(
                        f"straggler targets unknown operator {op_id!r}"
                    )
                call = (
                    self._straggle,
                    op_id,
                    injection.subtask,
                    injection.factor,
                    injection.duration,
                )
            elif isinstance(injection, NetworkDegradation):
                call = (
                    self._degrade,
                    injection.latency_factor,
                    injection.bandwidth_factor,
                    injection.duration,
                )
            else:
                raise SimulationError(
                    f"unknown injection type {type(injection).__name__}"
                )
            self._push_control(injection.at, _SCENARIO, *call)

    def _default_failure_node(self) -> int:
        """The node hosting the first processing subtask (deterministic)."""
        for runtime in self._runtimes:
            if not runtime.is_source and not runtime.is_sink:
                return runtime.node_id
        return self._runtimes[0].node_id

    def _default_straggler_op(self) -> str:
        """The plan's bottleneck: highest cost-model service time."""
        best_op = None
        best = -1.0
        for op_id in self.logical.topological_order():
            gids = self._op_gids.get(op_id)
            if not gids:
                continue
            runtime = self._runtimes[gids[0]]
            if runtime.is_source or runtime.is_sink:
                continue
            if runtime.base_service > best:
                best = runtime.base_service
                best_op = op_id
        if best_op is None:
            raise SimulationError(
                "plan has no processing operator to straggle"
            )
        return best_op

    def _spike(self, factor: float, duration: float) -> None:
        """Load spike: every source emits ``factor`` times faster."""
        saved = []
        for runtime in self._runtimes:
            if runtime.is_source:
                saved.append(
                    (
                        runtime,
                        runtime.mean_gap,
                        runtime.burst_fast_gap,
                        runtime.burst_slow_gap,
                    )
                )
                runtime.mean_gap /= factor
                runtime.burst_fast_gap /= factor
                runtime.burst_slow_gap /= factor
        self._push_control(
            self._k.now + duration, _SCENARIO, self._spike_end, saved
        )

    def _spike_end(self, saved: list) -> None:
        """Restore the exact pre-spike gaps (saved, not re-derived)."""
        for runtime, mean_gap, fast_gap, slow_gap in saved:
            runtime.mean_gap = mean_gap
            runtime.burst_fast_gap = fast_gap
            runtime.burst_slow_gap = slow_gap

    def _straggle(
        self, op_id: str, index: int, factor: float, duration: float
    ) -> None:
        """Straggler: one subtask serves ``factor`` times slower."""
        gids = self._op_gids[op_id]
        runtime = self._runtimes[gids[index % len(gids)]]
        original = runtime.base_service
        runtime.base_service = original * factor
        self._push_control(
            self._k.now + duration,
            _SCENARIO,
            self._unstraggle,
            runtime,
            original,
        )

    def _unstraggle(self, runtime: _SubtaskRuntime, original: float) -> None:
        """Float-exact recovery: the saved value, not a division. A
        runtime retired in between was already replaced by clean
        cost-model instances — rescaling repaired the straggler."""
        if not runtime.retired:
            runtime.base_service = original

    def _degrade(
        self, latency_factor: float, bandwidth_factor: float, duration: float
    ) -> None:
        """Network degradation: every cross-node channel slows down."""
        saved = []
        for runtime in self._runtimes:
            if runtime.retired:
                continue
            for entry in runtime.route_table:
                latencies = entry[5]
                bandwidths = entry[6]
                saved.append(
                    (
                        latencies,
                        tuple(latencies),
                        bandwidths,
                        tuple(bandwidths),
                    )
                )
                for i, latency in enumerate(latencies):
                    if latency > 0.0:  # same-node channels stay free
                        latencies[i] = latency * latency_factor
                for i, bandwidth in enumerate(bandwidths):
                    bandwidths[i] = bandwidth * bandwidth_factor
        self._push_control(
            self._k.now + duration, _SCENARIO, self._restore_net, saved
        )

    def _restore_net(self, saved: list) -> None:
        """Lists mutate in place, so tables recompiled by a rescale
        mid-degradation simply drop out (they were rebuilt clean)."""
        for latencies, lat0, bandwidths, bw0 in saved:
            latencies[:] = lat0
            bandwidths[:] = bw0

    def _fail_node_now(self, node_id: int, duration: float) -> None:
        """Chaos node failure with checkpointing OFF: state is lost.

        Every processing subtask on the node loses its operator state
        and its queued input (both counted in
        ``extras["elastic"]["state_loss"]``) and restarts as a fresh
        logic instance after ``duration`` of downtime; failed sources
        generate-and-drop for the downtime so the loss is explicit.
        Sinks model transactional external systems and do not fail —
        matching the FT path, so the two are comparable. A tuple
        in service at the instant of failure completes into the fresh
        logic (the simulator has no mid-service abort).
        """
        if self._state_loss is None:
            self._state_loss = {
                "failed_subtasks": 0,
                "lost_keys": 0,
                "lost_tuples": 0,
                "lost_source_tuples": 0,
            }
        loss = self._state_loss
        for runtime in self._runtimes:
            if runtime.retired or runtime.node_id != node_id:
                continue
            if runtime.is_sink:
                continue
            loss["failed_subtasks"] += 1
            if runtime.is_source:
                mark = self._k.now + duration
                if mark > runtime.fail_until:
                    runtime.fail_until = mark
                continue
            loss["lost_keys"] += runtime.logic.state_items()
            loss["lost_tuples"] += len(runtime.queue) - runtime.queue_head
            self._restart(runtime)
            # Downtime enforcement reuses the stall machinery: it waits
            # for any in-flight tuple, fires on_stall, and wakes the
            # subtask with a BEGIN after the outage.
            self._handle_stall(runtime.gid, duration, 0)

    def _restart(self, runtime: _SubtaskRuntime) -> OperatorLogic:
        """Replace a failed subtask's logic and queue with fresh ones.

        The new incarnation draws from streams of its own: the logic's
        is opened here, the service-noise one at its first refill."""
        runtime.ft_incarnation += 1
        runtime.noise = runtime.noise_rng = None
        runtime.queue = []
        runtime.queue_head = 0
        return self._new_logic(runtime, len(self._op_gids[runtime.op_id]))

    def _rescale_refusal(self, op_id: str) -> str | None:
        """Why ``op_id`` cannot rescale, or None when it can (cached —

        the answer depends only on the plan and the logic classes)."""
        if op_id in self._rescale_refusals:
            return self._rescale_refusals[op_id]
        reason = self._compute_rescale_refusal(op_id)
        self._rescale_refusals[op_id] = reason
        return reason

    def _compute_rescale_refusal(self, op_id: str) -> str | None:
        from repro.analysis.rules import _is_keyed_stateful

        if op_id not in self.logical.operators:
            return "unknown operator"
        if op_id not in self._op_gids:
            return "operator is fused into a chain"
        op = self.logical.operator(op_id)
        if op.kind is OperatorKind.SOURCE:
            return "sources own the arrival process"
        if op.kind is OperatorKind.SINK:
            return "sinks accumulate the run's result samples"
        for edge in self.logical.in_edges(op_id):
            if isinstance(edge.partitioner, ForwardPartitioner):
                return f"forward input from {edge.src!r} pins parallelism"
            if edge.partitioner.is_broadcast:
                return (
                    f"broadcast input from {edge.src!r}: replicated "
                    "deliveries cannot be re-routed"
                )
        for edge in self.logical.out_edges(op_id):
            if isinstance(edge.partitioner, ForwardPartitioner):
                return f"forward output to {edge.dst!r} pins parallelism"
        sample = self._runtimes[self._op_gids[op_id][0]].logic
        if not getattr(sample, "rescale_supported", False):
            return (
                f"{type(sample).__name__} does not support state "
                "migration (rescale_supported is False)"
            )
        stateful = op.cost.stateful or op.kind is OperatorKind.WINDOW_AGG
        if stateful:
            if not _is_keyed_stateful(op):
                return (
                    "stateful but not keyed: state cannot be "
                    "re-partitioned"
                )
            for edge in self.logical.in_edges(op_id):
                if not isinstance(edge.partitioner, HashPartitioner):
                    return (
                        "keyed state needs hash-partitioned input, got "
                        f"{edge.partitioner.name!r} from {edge.src!r}"
                    )
        return None

    def _handle_rescale(self, op_id: str, new_parallelism: int) -> None:
        """Initiate the drain barrier toward a new parallelism.

        Busy subtasks finish their in-flight tuple and are then locked;
        idle subtasks lock immediately (``busy = True`` keeps tuples
        delivered before the swap queued behind the barrier) — unless
        still paying sender overhead, which they finish like a busy one.
        The swap itself (:meth:`_perform_rescale`) runs when the last
        busy subtask completes — synchronously here when all are idle.
        """
        reason = self._rescale_refusal(op_id)
        if reason is not None:
            raise SimulationError(f"cannot rescale {op_id!r}: {reason}")
        if op_id in self._pending_rescale:
            return  # already draining toward an earlier target
        live = self._op_gids[op_id]
        if new_parallelism < 1 or new_parallelism == len(live):
            return
        pending = 0
        for gid in live:
            runtime = self._runtimes[gid]
            runtime.draining = True
            if runtime.busy:
                pending += 1
            else:
                runtime.busy = True
                if self._k.now < runtime.free_at:
                    pending += 1
                    self._push(runtime.free_at, _BEGIN, gid, None, 0)
        if pending == 0:
            self._perform_rescale(op_id, new_parallelism)
        else:
            self._pending_rescale[op_id] = [new_parallelism, pending]

    def _drain_step(self, runtime: _SubtaskRuntime) -> None:
        """One draining subtask reached quiescence; swap at the last."""
        if runtime.retired:
            return  # stray BEGIN scheduled before the swap
        runtime.busy = True  # hold the server through the swap
        entry = self._pending_rescale.get(runtime.op_id)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] == 0:
            del self._pending_rescale[runtime.op_id]
            self._perform_rescale(runtime.op_id, entry[0])

    def _perform_rescale(self, op_id: str, new_parallelism: int) -> None:
        """Swap an operator's drained generation for a fresh one.

        Runs synchronously at the drain barrier: every old subtask is
        quiescent (locked busy), so the only events still referencing
        them are in-flight ``DELIVER``s — which the retired runtimes
        forward — and stale timers/stalls, which are dropped.

        Invariants (pinned by tests/test_elastic_properties.py):

        - keyed state moves exactly once, in old-subtask-major key-rank
          order, re-bucketed by the same stable hash the partitioners
          route with — so post-swap deliveries land on the subtask that
          now owns their key;
        - queued tuples are re-delivered FIFO with their original
          enqueue timestamps (waiting time is preserved, not reset);
        - new subtasks stay busy for a migration pause whose noise comes
          from the dedicated rescale stream, then drain their queues.
        """
        now = self._k.now
        old_gids = self._op_gids[op_id]
        old_runtimes = [self._runtimes[gid] for gid in old_gids]
        epoch = self._op_epoch.get(op_id, 0) + 1
        self._op_epoch[op_id] = epoch

        new_runtimes: list[_SubtaskRuntime] = []
        for index in range(new_parallelism):
            # Nodes are reused cyclically from the drained generation:
            # the cluster stays fixed, only the degree changes.
            donor = old_runtimes[index % len(old_runtimes)]
            new_runtimes.append(
                self._new_runtime(
                    op_id,
                    index,
                    new_parallelism,
                    donor.node_id,
                    donor.slot_load,
                    epoch,
                )
            )
        new_gids = [runtime.gid for runtime in new_runtimes]

        # Outgoing channels: same logical edges, fresh partitioner
        # clones, consumers looked up from the current live sets.
        for runtime in new_runtimes:
            self._out_channels[runtime.gid] = [
                ChannelGroup(
                    edge=edge,
                    producer_gid=runtime.gid,
                    partitioner=edge.partitioner.clone(),
                    consumer_gids=list(self._op_gids[edge.dst]),
                    port=edge.port,
                    is_shuffle=True,  # forward out-edges refuse rescale
                )
                for edge in self.logical.out_edges(op_id)
            ]
            self._compile_route_table(runtime)

        # In-flight forwarding state: one partitioner clone per input
        # port, consulted by retired tombstones and queue re-delivery.
        forwarders = {
            edge.port: edge.partitioner.clone()
            for edge in self.logical.in_edges(op_id)
        }
        self._op_forwarders[op_id] = forwarders

        # Keyed-state migration, old-subtask-major, hash re-bucketed.
        exported: list = []
        for runtime in old_runtimes:
            items = runtime.logic.export_keyed_state()
            if items:
                exported.extend(items)
        migrated_keys = len(exported)
        if exported:
            buckets: list[list] = [[] for _ in range(new_parallelism)]
            for key, payload in exported:
                buckets[_stable_hash(key) % new_parallelism].append(
                    (key, payload)
                )
            for index, bucket in enumerate(buckets):
                if bucket:
                    new_runtimes[index].logic.import_keyed_state(bucket)

        # Queue re-delivery: FIFO per old subtask, original timestamps.
        moved_tuples = 0
        for runtime in old_runtimes:
            queue = runtime.queue
            for tup, port, enqueued_at in queue[runtime.queue_head :]:
                part = forwarders.get(port)
                index = (
                    part.select(tup, new_parallelism)[0]
                    if part is not None
                    else 0
                )
                new_runtimes[index].queue.append((tup, port, enqueued_at))
                moved_tuples += 1
            runtime.queue = []
            runtime.queue_head = 0
            runtime.retired = True
            runtime.draining = False
            runtime.busy = True
            runtime.tick = math.inf  # its pending TIMER lapses

        self._op_gids[op_id] = new_gids

        # Rewire every live producer feeding this operator: mutate the
        # channel groups in place (preserving partitioner instances and
        # their round-robin/hash-cache state) and recompile.
        for producer in self._runtimes:
            if producer.retired or producer.op_id == op_id:
                continue
            changed = False
            for group in self._out_channels[producer.gid]:
                if group.edge.dst == op_id:
                    group.consumer_gids = list(new_gids)
                    changed = True
            if changed:
                self._compile_route_table(producer)

        if self._bp_limit is not None:
            for gid in old_gids:
                self._congested.discard(gid)
            for runtime in new_runtimes:
                if len(runtime.queue) >= self._bp_limit:
                    self._congested.add(runtime.gid)

        # Migration pause: fixed handshake + per-key and per-tuple
        # transfer costs, noised from the dedicated rescale stream. New
        # subtasks activate via BEGIN (a work event, so the run cannot
        # end with migrated tuples stranded) and re-arm their timers.
        pause = (
            _MIGRATION_BASE_S
            + _MIGRATION_PER_KEY_S * migrated_keys
            + _MIGRATION_PER_TUPLE_S * moved_tuples
        )
        pause *= self._rng_rescale.lognormal(-0.02, 0.2)
        for runtime in new_runtimes:
            runtime.busy = True
            self._push(now + pause, _BEGIN, runtime.gid, None, 0)
            interval = getattr(runtime.logic, "timer_interval", None)
            if interval:
                runtime.tick = now + pause + interval
                self._push(runtime.tick, _TIMER, runtime.gid, None, 0)

        if self.config.autoscale:
            self._control_prev.pop(op_id, None)
        self._rescale_count += 1
        self._migrated_keys_total += migrated_keys
        self._rescale_log.append(
            {
                "t": now,
                "op": op_id,
                "from": len(old_gids),
                "to": new_parallelism,
                "keys": migrated_keys,
                "tuples": moved_tuples,
                "pause_s": pause,
            }
        )
        if self._obs is not None:
            self._obs.on_rescale(
                self, now, op_id, old_gids, new_gids, migrated_keys, pause
            )
        if self.race_detector is not None:
            self.race_detector.on_rescale(self, op_id, old_gids, new_gids)

    def _forward_gid(
        self, runtime: _SubtaskRuntime, tup: StreamTuple, port: int
    ) -> int:
        """Where a tuple in flight toward a retired subtask goes now."""
        live = self._op_gids[runtime.op_id]
        part = self._op_forwarders[runtime.op_id].get(port)
        if part is None:
            return live[0]
        return live[part.select(tup, len(live))[0]]

    def _handle_control(self) -> None:
        """One autoscaler tick: snapshot, decide, emit rescales."""
        now = self._k.now
        interval = self.config.autoscale_interval
        make_snapshot = self._snapshot_cls
        snapshots = []
        for op_id in self._autoscale_ops:
            if op_id in self._pending_rescale:
                continue  # mid-drain: skip until the swap lands
            gids = self._op_gids[op_id]
            depth = 0
            busy = 0.0
            served = 0
            for gid in gids:
                runtime = self._runtimes[gid]
                depth += len(runtime.queue) - runtime.queue_head
                busy += runtime.busy_time
                served += runtime.served
            prev_busy, prev_served = self._control_prev.get(op_id, (0.0, 0))
            self._control_prev[op_id] = (busy, served)
            parallelism = len(gids)
            snapshots.append(
                make_snapshot(
                    op_id=op_id,
                    parallelism=parallelism,
                    queue_depth=depth,
                    utilization=(
                        (busy - prev_busy) / (interval * parallelism)
                    ),
                    service_rate=(served - prev_served) / interval,
                    base_service_s=self._runtimes[gids[0]].base_service,
                )
            )
        targets = self._policy.decide(now, snapshots)
        for op_id in sorted(targets):
            target = int(targets[op_id])
            if (
                target >= 1
                and op_id not in self._pending_rescale
                and target != len(self._op_gids[op_id])
                and self._rescale_refusal(op_id) is None
            ):
                self._push_control(
                    now, _RESCALE, self._handle_rescale, op_id, target
                )
        next_tick = now + interval
        if next_tick <= self.config.max_sim_time:
            self._push_control(next_tick, _CONTROL, self._handle_control)

    def _resource_seconds(self, span: float) -> float:
        """∫ total subtask count dt — the resource-cost numerator."""
        current = {
            op_id: len(gids)
            for op_id, gids in self.physical.op_subtasks.items()
        }
        total = 0.0
        prev_t = 0.0
        for event in self._rescale_log:
            t = min(event["t"], span)
            total += sum(current.values()) * (t - prev_t)
            current[event["op"]] = event["to"]
            prev_t = t
        total += sum(current.values()) * (span - prev_t)
        return total

    # ------------------------------------------------ fault tolerance (§13)

    def _ft_init(self) -> None:
        """Arm checkpointing for this run.

        The dedicated ``("engine", "ft")`` stream keeps recovery noise
        off the arrival/service streams, and every FT data structure is
        built here so checkpoint-off runs carry none of it.

        Channels are compiled from the route tables: every (producer,
        group, consumer index) gets a dense id, ``group's first id +
        index``, and the group's table entry carries that first id in
        its port slot — a ``DELIVER`` and a queue item of a checkpointed
        run hold the channel where a plain run's hold the port, which
        ``_ft_ports`` gives back at service start. Channel 0 is every
        source's own queue.
        """
        self._rng_ft = self._rngs.fresh("engine", "ft")
        self._ft_store = StateStore()
        self._ft_interval = self.config.checkpoint_interval
        self._ft_exactly_once = self.config.delivery == "exactly_once"
        #: (producer_gid, emit_seq) provenance ids admitted at the sinks
        self._ft_seen: set[tuple[int, int]] = set()
        self._ft_recovering = False
        self._ft_restore_token = 0
        self._ft_pending = 0
        self._ft_recoveries = 0
        self._ft_recovery_time = 0.0
        self._ft_replayed = 0
        self._ft_dupes_dropped = 0
        self._ft_dup_results = 0
        # Expected barrier count per consumer = its live input channels.
        expected = [0] * len(self._runtimes)
        ports = [0]
        for runtime in self._runtimes:
            table = runtime.route_table
            for i, entry in enumerate(table):
                fixed = entry[1]
                consumers = entry[3]
                indices = fixed if fixed is not None else range(entry[4])
                for idx in indices:
                    expected[consumers[idx]] += 1
                table[i] = entry[:7] + (len(ports),) + entry[8:]
                ports.extend([entry[7]] * entry[4])
            if runtime.is_source and not self._computed:
                # A computed run has no failure to replay for.
                runtime.ft_log = []
        self._ft_expected = expected
        self._ft_num_acks = sum(
            1
            for runtime in self._runtimes
            if runtime.is_source or expected[runtime.gid] > 0
        )
        self._ft_ports = ports
        #: last scheduled delivery time per channel: clamping to it
        #: keeps a channel FIFO, so barriers stay ordered with the data
        #: around them whatever the payload sizes
        self._ft_clocks = [0.0] * len(ports)
        #: the latest ack instant of the newest checkpoint: it completes
        #: there, and is still aligning until then
        self._ft_acked = 0.0
        self._ft_schedule_trigger(self._ft_interval)

    def _ft_schedule_trigger(self, at: float) -> None:
        """Arm the checkpoint trigger at ``at``, unless past the run."""
        self._ft_next = math.inf
        if at <= self.config.max_sim_time:
            self._ft_next = at
            self._push_control(at, _FT, self._ft_trigger)

    def _ft_trigger(self) -> None:
        """Start a checkpoint: a barrier enters every source's queue."""
        now = self._k.now
        self._ft_schedule_trigger(now + self._ft_interval)
        store = self._ft_store
        if (
            self._ft_recovering
            or store.active is not None
            or self._ft_acked >= now
        ):
            # The last checkpoint is still aligning (computed: until its
            # latest ack instant), or a recovery is in flight.
            store.skip()
            return
        if self._ft_num_acks == 0:
            return
        barrier = _Barrier(store.begin(now).ckpt_id)
        self._ft_pending = self._ft_num_acks
        self._ft_acked = now
        for runtime in self._runtimes:
            if runtime.is_source:
                # The barrier rides the source's own queue, behind
                # any generated-but-unrouted tuples: the replay
                # offset is recorded when the source dequeues it,
                # so the snapshot cut and the offset agree even
                # when the source has a service backlog.
                self._ft_deliver(runtime.gid, barrier, 0)

    def _ft_deliver(self, gid: int, item, chan: int) -> None:
        """What checkpointing puts in front of :meth:`_enqueue` or, on
        the computed step, :meth:`_complete`. A barrier joins the queue,
        at no cost — or, computed, is decided now, as of its dequeue
        instant. A sink delivery passes the provenance ledger first;
        data on an already-aligned channel is diverted to the alignment
        buffer. Everything else takes the shared step."""
        runtime = self._runtimes[gid]
        if item.__class__ is _Barrier:
            now = self._k.now
            if self._computed:
                at = runtime.free_at
                if at > now:
                    # Queued until then, it counts toward the depth.
                    runtime.starts.append(at)
                else:
                    at = runtime.free_at = now
                self._ft_barrier_dequeued(runtime, item, chan, at)
                return
            runtime.queue.append((item, chan, now))
            if not runtime.busy:
                self._begin_service_now(runtime, max(now, runtime.free_at))
            return
        if runtime.is_sink:
            prov = item.prov
            if prov is not None:
                seen = self._ft_seen
                if prov in seen:
                    if self._ft_exactly_once:
                        self._ft_dupes_dropped += 1
                        return
                    self._ft_dup_results += 1
                else:
                    seen.add(prov)
        if runtime.ft_buffer is not None and chan in runtime.ft_aligned:
            if self._computed:
                self._ft_hold(runtime, item, chan)
                return
            if self._obs is not None:
                self._obs.tuples_in[runtime.gid] += 1
            runtime.ft_buffer.append((item, chan, self._k.now))
            return
        if self._computed:
            self._complete(gid, item, self._ft_ports[chan])
        else:
            self._enqueue(gid, item, chan)

    def _ft_hold(self, runtime: _SubtaskRuntime, item, chan: int) -> None:
        """Computed: a delivery behind its channel's barrier joins the
        buffer, keyed by the instant the evented step diverts it at —
        its arrival, or, if that barrier is still queued, the
        ``free_at`` it reaches the head at (counted in the depth until
        then). Aligned but short of the last barrier's instant
        (``ft_ckpt`` None), one queued behind a barrier is served
        after the buffer."""
        now = self._k.now
        diverted = now
        if now < runtime.ft_aligned[chan]:
            starts = runtime.starts
            while starts and starts[0] <= now:
                starts.popleft()
            if runtime.ft_ckpt is not None:
                diverted = runtime.free_at
                starts.append(diverted)
                depth = len(starts)
            else:
                diverted = math.inf
                runtime.ft_behind += 1
                depth = len(starts) + runtime.ft_behind
            if depth > runtime.queue_peak:
                runtime.queue_peak = depth
        runtime.ft_buffer.append((item, chan, now, diverted))

    def _ft_release(self, gid: int, payload=None, port: int = 0) -> None:
        """Computed: serve what alignment held from ``free_at``, the last
        barrier's dequeue instant — diverted tuples in diversion order,
        then those queued behind that barrier — each queued until it
        starts. A ``BEGIN`` at that instant calls it if deliveries can
        still come before it."""
        runtime = self._runtimes[gid]
        buffer = runtime.ft_buffer
        runtime.ft_aligned = runtime.ft_buffer = None
        runtime.ft_behind = 0
        buffer.sort(key=itemgetter(3))
        starts = runtime.starts
        ports = self._ft_ports
        for item, chan, at, _ in buffer:
            start = runtime.free_at
            runtime.wait_time += start - at
            starts.append(start)
            self._complete(gid, item, ports[chan], start)

    def _ft_dequeue(self, runtime: _SubtaskRuntime, now: float) -> bool:
        """Evented: consume the barriers and aligned-channel data at the
        head of the queue, at zero cost; True if a servable tuple is
        left there. Between a ``DONE`` and the end of its overhead a
        node may fail, so, like a drain, this waits for the clock: asked
        to dequeue at a ``free_at`` still to come, the subtask stays
        busy and a ``BEGIN`` brings it back at that instant."""
        if now > self._k.now:
            runtime.busy = True
            runtime.free_at = 0.0
            self._push(now, _BEGIN, runtime.gid, None, 0)
            return False
        queue = runtime.queue
        head = runtime.queue_head
        while head < len(queue):
            entry = queue[head]
            if entry[0].__class__ is _Barrier:
                runtime.queue_head = head = head + 1
                self._ft_barrier_dequeued(runtime, entry[0], entry[1], now)
            elif (
                runtime.ft_ckpt is not None
                and entry[1] in runtime.ft_aligned
            ):
                runtime.queue_head = head = head + 1
                runtime.ft_buffer.append(entry)
            else:
                return True
        return False

    def _ft_barrier_dequeued(self, runtime, barrier, chan, now) -> None:
        """The subtask dequeues ``barrier`` from ``chan`` at ``now``: the
        clock on the evented step, ahead of it on the computed one —
        which first runs the ticks due by then (evented, they popped)."""
        while runtime.tick < now:
            self._fire(runtime)
        if runtime.ft_ckpt is None:
            runtime.ft_ckpt = barrier.ckpt_id
            runtime.ft_aligned = {}
            runtime.ft_buffer = []
        runtime.ft_aligned[chan] = now
        if len(runtime.ft_aligned) < self._ft_expected[runtime.gid]:
            return
        # Aligned on every input channel: snapshot, forward, acknowledge
        # (unless a failure aborted this checkpoint mid-alignment).
        store = self._ft_store
        record = store.active
        if record is not None and record.ckpt_id == runtime.ft_ckpt:
            if runtime.is_source:
                # Everything still queued behind the barrier was
                # generated (or replayed) after it, so the replay
                # offset is the log cursor minus that backlog; a
                # computed source has completed exactly the arrivals
                # before the trigger.
                backlog = len(runtime.queue) - runtime.queue_head
                record.source_offsets[runtime.gid] = (
                    runtime.emitted
                    if self._computed
                    else runtime.ft_base + runtime.ft_head - backlog
                )
            elif not runtime.is_sink:
                store.add_snapshot(
                    runtime.gid, runtime.logic.snapshot_state()
                )
            if not runtime.is_sink:
                record.emit_seqs[runtime.gid] = runtime.ft_emit_seq
                self._ft_forward_barrier(runtime, barrier, now)
            if now > self._ft_acked:
                self._ft_acked = now
            self._ft_pending -= 1
            if self._ft_pending == 0:
                completed = store.complete(self._ft_acked)
                # Log retention: a recovery restarts from the newest
                # completed checkpoint, so nothing before its offset
                # is ever replayed again.
                for gid, offset in completed.source_offsets.items():
                    source = self._runtimes[gid]
                    if source.ft_log is None:
                        continue
                    cut = offset - source.ft_base
                    del source.ft_log[:cut]
                    source.ft_base = offset
                    source.ft_head -= cut
                if self._obs is not None:
                    self._obs.on_checkpoint(self, completed)
        # Release input buffered during alignment, ahead of the rest.
        runtime.ft_ckpt = None
        if self._computed:
            if now > self._k.now and self._ft_expected[runtime.gid] > 1:
                # Until ``now`` deliveries still divert or queue.
                self._push(now, _BEGIN, runtime.gid, None, 0)
            else:
                self._ft_release(runtime.gid)
            return
        buffer = runtime.ft_buffer
        if buffer:
            queue = runtime.queue
            head = runtime.queue_head
            queue[head:head] = buffer
        runtime.ft_aligned = None
        runtime.ft_buffer = None

    def _ft_forward_barrier(
        self, runtime: _SubtaskRuntime, barrier: _Barrier, now: float
    ) -> None:
        """Send the barrier down every outgoing channel at ``now``,
        FIFO-clamped like the data :meth:`_route` sends."""
        k = self._k
        heap = k.heap
        seq = runtime.seq
        clocks = self._ft_clocks
        pushed = 0
        for entry in runtime.route_table:
            fixed = entry[1]
            consumers = entry[3]
            latencies = entry[5]
            indices = fixed if fixed is not None else range(entry[4])
            for idx in indices:
                dst = consumers[idx]
                at = now + latencies[idx]
                chan = entry[7] + idx
                if at < clocks[chan]:
                    at = clocks[chan]
                else:
                    clocks[chan] = at
                seq += 1
                pushed += 1
                heappush(heap, (at, seq, _DELIVER, dst, barrier, chan))
        runtime.seq = seq
        k.work += pushed

    def _handle_replay(self, gid: int, payload, port: int) -> None:
        """Redeliver the next logged source tuple after a recovery."""
        runtime = self._runtimes[gid]
        log = runtime.ft_log
        head = runtime.ft_head
        if log is None or head >= len(log):
            return
        tup = log[head]
        runtime.ft_head = head + 1
        self._enqueue(gid, tup, 0)
        if runtime.ft_head < len(log):
            gap = runtime.mean_gap * _REPLAY_GAP_FRACTION
            self._push(self._k.now + gap, _REPLAY, gid, None, 0)

    def _ft_failure(self, node_id: int, duration: float) -> None:
        """Chaos node failure with checkpointing ON: actual recovery.

        Global-restart model (Flink's default failover for connected
        regions): every processing subtask restarts from the last
        completed checkpoint, sources rewind their durable-log offsets
        to it and replay, and sinks — transactional external systems —
        keep running, with the delivery guarantee deciding what their
        ledger does with replayed results.
        """
        store = self._ft_store
        if store.active is not None:
            store.abort()
            self._ft_pending = 0
        record = store.latest()
        emit_seqs = record.emit_seqs if record is not None else {}
        snapshots = record.snapshots if record is not None else {}
        now = self._k.now
        runtimes = self._runtimes
        heap = self._k.heap
        # Purge in-flight work. Sink-bound events survive (their
        # deliveries and services complete; dedupe absorbs replays), as
        # do arrivals (sources keep generating into their logs), timers
        # and control events.
        kept = []
        for ev in heap:
            kind = ev[2]
            if (
                kind != _ARRIVAL
                and kind != _TIMER
                and kind <= _REPLAY
                and not runtimes[ev[3]].is_sink
            ):
                continue
            if (
                kind == _DELIVER
                and runtimes[ev[3]].is_sink
                and ev[4].__class__ is _Barrier
            ):
                # An in-flight barrier of the aborted checkpoint; were
                # it delivered it would re-arm alignment on an epoch
                # that can never pair again.
                continue
            kept.append(ev)
        heap[:] = kept
        heapify(heap)
        self._k.work = sum(_WORK_MASK[ev[2]] for ev in heap)
        restored_items = 0
        replayed = 0
        for runtime in runtimes:
            if runtime.is_sink:
                # The sink survives, but a checkpoint it was aligning
                # is aborted: release the diverted buffer ahead of the
                # queue (those results already passed the provenance
                # ledger, so replay would drop them as duplicates) and
                # purge queued barriers of the dead epoch, or the next
                # checkpoint's barriers pair against stale state and
                # no checkpoint ever completes again.
                queue = runtime.queue
                head = runtime.queue_head
                if runtime.ft_buffer:
                    queue[head:head] = runtime.ft_buffer
                tail = [
                    entry
                    for entry in queue[head:]
                    if entry[0].__class__ is not _Barrier
                ]
                if len(tail) != len(queue) - head:
                    queue[head:] = tail
                runtime.ft_ckpt = None
                runtime.ft_aligned = None
                runtime.ft_buffer = None
                if not runtime.busy and len(queue) > runtime.queue_head:
                    self._begin_service_now(runtime, now)
                continue
            runtime.busy = True  # paused until the recovery completes
            runtime.free_at = 0.0  # whatever it was starting is purged
            runtime.ft_ckpt = None
            runtime.ft_aligned = None
            runtime.ft_buffer = None
            runtime.ft_emit_seq = emit_seqs.get(runtime.gid, 0)
            if runtime.is_source:
                # The log starts at the newest completed checkpoint's
                # offset (at the first tuple when there is none).
                replayed += runtime.ft_head
                runtime.ft_head = 0
                runtime.queue = []
                runtime.queue_head = 0
                continue
            snapshot = snapshots.get(runtime.gid)
            self._restart(runtime).restore_state(snapshot)
            restored_items += estimate_items(snapshot)
        pause = (
            duration
            + _RECOVERY_BASE_S
            + _RECOVERY_PER_ITEM_S * restored_items
        )
        pause *= float(self._rng_ft.lognormal(-0.02, 0.2))
        self._ft_recoveries += 1
        self._ft_recovery_time += pause
        self._ft_replayed += replayed
        self._ft_restore_token += 1
        self._ft_recovering = True
        self._push_control(
            now + pause, _FT, self._ft_restored, self._ft_restore_token
        )
        if self._obs is not None:
            self._obs.on_recovery(
                self,
                node_id,
                pause,
                replayed,
                record.ckpt_id if record is not None else None,
            )

    def _ft_restored(self, token: int) -> None:
        """The recovery pause is over: un-pause and start the replay."""
        if token != self._ft_restore_token:
            return  # a later failure superseded this recovery
        self._ft_recovering = False
        for runtime in self._runtimes:
            if runtime.is_sink:
                continue
            runtime.busy = False
            if runtime.held:
                self._hold(runtime, self._k.now)
            if runtime.is_source:
                log = runtime.ft_log
                if log and runtime.ft_head < len(log):
                    self._push(self._k.now, _REPLAY, runtime.gid, None, 0)
            elif not runtime.busy and len(runtime.queue) > runtime.queue_head:
                self._begin_service_now(runtime, self._k.now)
        if self._k.work == 0:
            # The purge may have consumed the last work event without
            # the main loop seeing work hit zero; run the end-of-stream
            # flush rounds it would have run.
            while (
                self._k.work == 0
                and self._flush_rounds < self._max_flush_rounds
                and self._flush_all()
            ):
                self._flush_rounds += 1

    # -------------------------------------------------------------- routing

    def _route(
        self,
        runtime: _SubtaskRuntime,
        outputs: list[StreamTuple],
        now: float | None = None,
    ) -> float:
        """Send outputs downstream; return sender CPU overhead (serde).

        ``now`` is the emission instant: the clock, unless the computed
        step passes a completion or timer instant it runs ahead of.

        **Overhead accounting.** The sender serializes its channel groups
        in plan order; all serde work of a group is paid before any of
        that group's tuples depart, so every delivery of group *g* is
        offset by the cumulative overhead of groups ``1..g`` (including
        *g*'s own total). Within a group the offset is identical for all
        tuples — a tuple's delivery time never depends on its position in
        the output batch, only on the (deterministic) group order. The
        precompiled routing tables reproduce exactly this accounting.

        **Local or outbox.** A sharded run's kernel holds only the
        subtasks in ``_owned``; a delivery to any other gid is appended
        to ``_outbox`` as the wire message ``(at, origin, seq, dst,
        port, tuple)`` — the tie-break it would have carried on the
        heap is ``pack_tiebreak(origin, seq)`` — for the shard executor
        to ship. The producer's counter advances identically either
        way, so tie-breaks do not depend on the partition.

        **Checkpointed or not.** With ``_ft_clocks`` bound (DESIGN.md
        §13) a group's port slot holds its first channel id: a delivery
        is clamped to its channel's FIFO clock, so a barrier stays
        ordered with the data around it, travels under its channel id,
        and, when bound for a sink, carries ``(producer, emit seq)``
        provenance for the delivery guarantee's ledger.
        """
        if not outputs:
            return 0.0
        table = runtime.route_table
        if not table:
            return 0.0
        k = self._k
        if now is None:
            now = k.now
        heap = k.heap
        seq = runtime.seq
        obs = self._obs
        owned = self._owned
        if owned is not None:
            outbox = self._outbox
            origin = runtime.gid
            base = pack_tiebreak(origin, 0)
        clocks = self._ft_clocks
        pushed = 0
        offset = 0.0
        for (
            select,
            fixed,
            rekey,
            consumers,
            num_channels,
            latencies,
            bandwidths,
            port,
            shuffle_cost,
            to_sink,
        ) in table:
            if fixed is not None:
                # Constant fan-out (forward/broadcast): no per-tuple
                # select call or index-list allocation. The overhead sum
                # keeps the original one-addition-per-output order so it
                # stays bit-identical to the dynamic path.
                if shuffle_cost:
                    per_output = shuffle_cost * len(fixed)
                    group_overhead = 0.0
                    for _ in outputs:
                        group_overhead += per_output
                    offset += group_overhead
                    if obs is not None:
                        nbytes = 0.0
                        for out in outputs:
                            nbytes += out.size_bytes
                        obs.shuffle_bytes[runtime.gid] += nbytes * len(fixed)
                if clocks is None:
                    # The common case, spelled out: nothing to pair up.
                    for out in outputs:
                        size = out.size_bytes
                        for idx in fixed:
                            dst = consumers[idx]
                            delay = latencies[idx] + size / bandwidths[idx]
                            at = now + delay + offset
                            seq += 1
                            if owned is None or dst in owned:
                                pushed += 1
                                heappush(
                                    heap, (at, seq, _DELIVER, dst, out, port)
                                )
                            else:
                                outbox.append(
                                    (at, origin, seq - base, dst, port, out)
                                )
                    continue
                routed = zip(outputs, repeat(fixed))
            else:
                # Dynamic fan-out (always a shuffle — only a forward
                # edge is overhead-free, and its fan-out is constant):
                # all selects of the group run first so the full group
                # overhead offsets every delivery, then the buffered
                # batch departs.
                routed = []
                group_overhead = 0.0
                for tup in outputs:
                    if rekey is not None:
                        out, indices = rekey(tup, num_channels)
                    else:
                        out = tup
                        indices = select(out, num_channels)
                    group_overhead += shuffle_cost * len(indices)
                    routed.append((out, indices))
                offset += group_overhead
                if obs is not None:
                    nbytes = 0.0
                    for out, indices in routed:
                        nbytes += out.size_bytes * len(indices)
                    obs.shuffle_bytes[runtime.gid] += nbytes
            for out, indices in routed:
                size = out.size_bytes
                for idx in indices:
                    dst = consumers[idx]
                    delay = latencies[idx] + size / bandwidths[idx]
                    at = now + delay + offset
                    seq += 1
                    if clocks is not None:
                        chan = port + idx
                        if at < clocks[chan]:
                            at = clocks[chan]
                        else:
                            clocks[chan] = at
                        sent = out
                        if to_sink:
                            runtime.ft_emit_seq += 1
                            sent = out.with_prov(
                                (runtime.gid, runtime.ft_emit_seq)
                            )
                        pushed += 1
                        heappush(heap, (at, seq, _DELIVER, dst, sent, chan))
                    elif owned is None or dst in owned:
                        pushed += 1
                        heappush(heap, (at, seq, _DELIVER, dst, out, port))
                    else:
                        outbox.append(
                            (at, origin, seq - base, dst, port, out)
                        )
        runtime.seq = seq
        k.work += pushed
        return offset

    # ---------------------------------------------------------------- flush

    def _flush_all(self) -> bool:
        """Flush stateful logics once; True if anything was emitted."""
        now = self._k.now
        if self._flush_time is None:
            self._flush_time = now
        emitted = False
        owned = self._owned
        for op_id in self.logical.topological_order():
            # Fused chain tails have no subtasks of their own; their
            # flush runs inside the chain head's ChainedLogic. The live
            # gid map excludes retired runtimes, whose state migrated
            # to their replacements at the rescale.
            if op_id not in self._op_gids:
                continue
            for gid in self._op_gids[op_id]:
                if owned is not None and gid not in owned:
                    continue
                runtime = self._runtimes[gid]
                outputs = runtime.logic.flush(now)
                if outputs:
                    emitted = True
                    if self._obs is not None:
                        self._obs.on_flush(runtime, now, len(outputs))
                    self._route(runtime, outputs)
        return emitted

    # -------------------------------------------------------------- metrics

    def _collect_metrics(self) -> RunMetrics:
        # Per-sink samples arrive in simulation-time order; merge the
        # sinks and sort lexicographically by (arrival, latency) in one
        # vectorized pass — the same ordering the result list had when it
        # was built as sorted (arrival, latency) tuples.
        arrays = [
            (
                np.asarray(sink.arrival_times, dtype=float),
                np.asarray(sink.latencies, dtype=float),
            )
            for sink in self._sinks
        ]
        if len(arrays) == 1:
            arrival_times, latencies = arrays[0]
        else:
            arrival_times = np.concatenate([a for a, _ in arrays])
            latencies = np.concatenate([b for _, b in arrays])
        order = np.lexsort((latencies, arrival_times))
        arrival_times = arrival_times[order]
        latencies = latencies[order]
        total_results = int(arrival_times.size)
        # Results forced out by the end-of-stream flush carry artificially
        # short window residence; exclude them from latency stats unless
        # they are all we have (e.g. windows longer than the whole run).
        if self._flush_time is not None and total_results:
            steady = int(
                np.searchsorted(
                    arrival_times, self._flush_time, side="right"
                )
            )
            if steady > 0:
                arrival_times = arrival_times[:steady]
                latencies = latencies[:steady]
        skip = int(arrival_times.size * self.config.warmup_fraction)
        latency = LatencyStats.from_samples(latencies[skip:])
        slo = self.config.slo_latency
        slo_violations = 0
        slo_violation_s = 0.0
        if slo is not None and arrival_times.size > skip:
            lat_steady = latencies[skip:]
            arr_steady = arrival_times[skip:]
            violating = lat_steady > slo
            slo_violations = int(np.count_nonzero(violating))
            if arr_steady.size > 1:
                # Each inter-arrival gap is charged to the sample that
                # closes it: time spent past the SLO, not a raw count.
                slo_violation_s = float(
                    np.diff(arr_steady)[violating[1:]].sum()
                )
        span = max(self._k.now, 1e-9)
        if self.config.batch_size is not None:
            # Batch mode: a whole micro-batch lands at its completion
            # time, so anchoring the window at the first sink arrival
            # can collapse it to ~0 when only a few batches reach the
            # sink. Measure over the full simulated span instead.
            window = span
        else:
            first = float(arrival_times[0]) if arrival_times.size else 0.0
            window = max(span - first, 1e-9)
        throughput = total_results / window
        utilization: dict[str, list[float]] = {}
        queue_peaks: dict[str, int] = {}
        wait_sums: dict[str, float] = {}
        served_sums: dict[str, int] = {}
        source_events = 0
        for runtime in self._runtimes:
            utilization.setdefault(runtime.op_id, []).append(
                runtime.busy_time / span
            )
            previous = queue_peaks.get(runtime.op_id, 0)
            queue_peaks[runtime.op_id] = max(previous, runtime.queue_peak)
            wait_sums[runtime.op_id] = (
                wait_sums.get(runtime.op_id, 0.0) + runtime.wait_time
            )
            served_sums[runtime.op_id] = (
                served_sums.get(runtime.op_id, 0) + runtime.served
            )
            if runtime.is_source:
                source_events += runtime.emitted
        avg_wait = {
            op_id: wait_sums[op_id] / served
            for op_id, served in served_sums.items()
            if served > 0
        }
        extras: dict = {
            "events_processed": self._k.events_processed,
            "throttled_arrivals": self._throttled_arrivals,
        }
        if slo is not None:
            extras["slo_violations"] = slo_violations
            extras["slo_violation_s"] = slo_violation_s
        if self._elastic:
            extras["elastic"] = {
                "rescales": self._rescale_count,
                "migrated_keys": self._migrated_keys_total,
                "resource_seconds": self._resource_seconds(span),
                "log": list(self._rescale_log),
            }
            if self._state_loss is not None:
                # FT-off node failure: the state the run measurably lost.
                extras["elastic"]["state_loss"] = dict(self._state_loss)
        if self._ft:
            store = self._ft_store
            latest = store.latest()
            stamped = 0
            for runtime in self._runtimes:
                stamped += runtime.ft_emit_seq
            # Stamped-but-never-admitted results: a modeled lower bound
            # on losses; 0 after a successful exactly-once recovery.
            lost = stamped - len(self._ft_seen)
            if lost < 0:
                lost = 0
            extras["ft"] = {
                "delivery": self.config.delivery,
                "checkpoint_interval": self.config.checkpoint_interval,
                "checkpoints_completed": len(store.completed),
                "checkpoints_skipped": store.skipped,
                "checkpoint_duration_mean_s": store.duration_mean_s(),
                "state_items": latest.state_items if latest else 0,
                "state_bytes": latest.state_bytes if latest else 0.0,
                "recoveries": self._ft_recoveries,
                "recovery_time_s": self._ft_recovery_time,
                "replayed_events": self._ft_replayed,
                "duplicates_dropped": self._ft_dupes_dropped,
                "duplicate_results": self._ft_dup_results,
                "lost_results": lost,
                "log": [
                    {
                        "ckpt_id": record.ckpt_id,
                        "triggered_at": record.triggered_at,
                        "duration_s": record.duration_s,
                        "state_items": record.state_items,
                        "state_bytes": record.state_bytes,
                    }
                    for record in store.completed
                ],
            }
        return RunMetrics(
            latency=latency,
            throughput=throughput,
            results=total_results,
            source_events=source_events,
            sim_duration=span,
            operator_utilization={
                op_id: float(sum(vals) / len(vals))
                for op_id, vals in utilization.items()
            },
            operator_queue_peak=queue_peaks,
            operator_avg_wait=avg_wait,
            extras=extras,
        )
