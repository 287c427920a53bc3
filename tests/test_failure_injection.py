"""Tests for transient-stall failure injection."""

import pytest

from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.rng import RngFactory
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.engine import (
    SimulationConfig,
    StallInjection,
    StreamEngine,
)
from repro.sps.logical import LogicalPlan
from repro.sps.types import DataType, Field, Schema
from tests.conftest import kv_generator, sender_overhead

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def passthrough_plan(rate=2000.0):
    plan = LogicalPlan("stall-target")
    plan.add_operator(
        builders.source("src", kv_generator(), SCHEMA, event_rate=rate)
    )
    plan.add_operator(
        builders.map_op("work", lambda values: values)
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "work")
    plan.connect("work", "sink")
    return plan


def run(stalls=(), seed=5, tuples=2000):
    engine = StreamEngine(
        passthrough_plan(),
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=tuples,
            max_sim_time=5.0,
            warmup_fraction=0.0,
            stalls=tuple(stalls),
        ),
        rng_factory=RngFactory(seed),
    )
    return engine.run()


class TestStallInjection:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StallInjection(at_time=-1.0, op_id="work", duration=0.1)
        with pytest.raises(ConfigurationError):
            StallInjection(at_time=0.0, op_id="work", duration=0.0)

    def test_unknown_operator_rejected(self):
        with pytest.raises(SimulationError, match="unknown operator"):
            run(stalls=[StallInjection(0.1, "ghost", 0.1)])

    def test_stall_creates_tail_latency_spike(self):
        baseline = run()
        stalled = run(
            stalls=[StallInjection(at_time=0.3, op_id="work",
                                   duration=0.2)]
        )
        # The worst-affected tuples waited out the 200ms pause.
        assert stalled.latency.maximum > 0.15
        assert stalled.latency.maximum > 20 * baseline.latency.maximum
        # The median barely moves: the system recovers.
        assert stalled.latency.p50 < 5 * max(baseline.latency.p50, 1e-5)

    def test_all_tuples_still_delivered(self):
        stalled = run(
            stalls=[StallInjection(at_time=0.2, op_id="work",
                                   duration=0.3)]
        )
        assert stalled.results == stalled.source_events

    def test_multiple_stalls_accumulate(self):
        one = run(
            stalls=[StallInjection(0.2, "work", 0.1)]
        )
        three = run(
            stalls=[
                StallInjection(0.2, "work", 0.1),
                StallInjection(0.5, "work", 0.1),
                StallInjection(0.8, "work", 0.1),
            ]
        )
        # More pauses -> more affected tuples: the mean shifts upward
        # even though each individual pause is the same length.
        assert three.latency.mean > one.latency.mean

    def test_stall_beyond_horizon_ignored(self):
        metrics = run(
            stalls=[StallInjection(at_time=100.0, op_id="work",
                                   duration=1.0)]
        )
        assert metrics.latency.maximum < 0.05

    def test_queue_backlog_during_stall(self):
        stalled = run(
            stalls=[StallInjection(at_time=0.3, op_id="work",
                                   duration=0.3)]
        )
        # ~2000/s x 0.3s of arrivals queued behind the pause.
        assert stalled.operator_queue_peak["work"] > 300


class StallLog(EngineObserver):
    """The stalled operator's serves, and when each stall took hold."""

    def __init__(self):
        super().__init__(serve_spans=False)
        self.serves = []
        self.holds = []

    def on_serve(self, runtime, now, service, wait):
        if runtime.op_id == "work":
            self.serves.append((now, service))

    def on_stall(self, runtime, now, duration):
        self.holds.append(now)


def stalled(rate, seed, at=0.03):
    """~0.06 s of arrivals at ``rate`` and a 50 ms stall at ``at``."""
    observer = StallLog()
    engine = StreamEngine(
        passthrough_plan(rate),
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=int(0.06 * rate),
            warmup_fraction=0.0,
            stalls=(StallInjection(at, "work", 0.05),),
        ),
        rng_factory=RngFactory(seed),
        observer=observer,
    )
    metrics = engine.run()
    (work,) = [rt for rt in engine._runtimes if rt.op_id == "work"]
    return metrics, observer, sender_overhead(work)


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("rate", [270_000.0, 300_000.0])
def test_a_stall_on_a_saturated_server_waits_for_one_service(rate, seed):
    """The subtask serves ~253k tuples/s (2.5 us, plus 1.45 us of
    sender overhead), so it always has a queue: the stall takes hold
    when the service in flight and its overhead end, not once the
    backlog has drained (after the last arrival, ~0.06 s)."""
    at = 0.03
    metrics, observer, overhead = stalled(rate, seed, at)
    (hold,) = observer.holds
    ends = [
        start + service + overhead
        for start, service in observer.serves
        if start + service >= at
    ]
    assert hold == min(ends)
    assert hold - at < 1e-5
    assert metrics.results == metrics.source_events


def test_a_stall_on_an_idle_server_holds_at_once():
    _, observer, _ = stalled(2000.0, 5)
    assert observer.holds == [0.03]
