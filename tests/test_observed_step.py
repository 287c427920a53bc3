"""An observed run is the run the benchmarks measure (DESIGN.md §8).

An observer no longer picks the step: an observed run computes unless a
feature in ``capabilities.EVENTED`` pins its horizon, and each sampling
deadline is a control instant. The pinned run (``tests.conftest
.evented``) stays the reference, so every case here runs observed both
ways and asks that they agree:

- the metrics, less ``events_processed`` and ``step``: equal;
- sample rows, per-operator summaries, counters, gauges, and histogram
  totals, buckets and maxima: bit for bit;
- histogram means (and the summaries' ``service_mean_s``, one of them):
  within 1e-12 relative, as the computed step records a hop's service
  at its arrival and the sums run in another order;
- trace events: equal as a multiset, span ids aside (a span's parent
  is compared by name).

The last case is an aligning checkpointed server whose next service
starts past a deadline: its rows agree too.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.apps import APP_INFOS
from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.obs import EngineObserver, MetricsRegistry, SpanTracer
from repro.sps.engine import SimulationConfig, StallInjection, StreamEngine
from tests.conftest import evented

CLUSTER = homogeneous_cluster("m510", 4)
FAILURE = "failure:at=0.3,duration=0.1"
EXACTLY_ONCE = dict(delivery="exactly_once", scenario=FAILURE)

#: case -> (app, sample interval, config beyond the shape)
CASES = {
    **{app: (app, 0.05, {}) for app in APP_INFOS},
    "stall": ("WC", 0.05, dict(stalls=(StallInjection(0.3, "count", 0.2),))),
    "scenario": (
        "WC",
        0.05,
        dict(scenario="spike:at=0.2,duration=0.3,factor=3+" + FAILURE),
    ),
    "autoscale": (
        "WC",
        0.05,
        dict(autoscale="reactive:high=4,low=0.5,cooldown=0.3,max=6"),
    ),
    "exactly-once": (
        "AD",
        0.05,
        dict(checkpoint_interval=0.1, **EXACTLY_ONCE),
    ),
    "exactly-once-fine": (
        "WC",
        0.002,
        dict(checkpoint_interval=0.04, **EXACTLY_ONCE),
    ),
}


def observed(app, interval, force_evented=False, seed=3, **config):
    observer = EngineObserver(
        MetricsRegistry(), SpanTracer(), sample_interval=interval
    )
    runner = BenchmarkRunner(CLUSTER, RunnerConfig(repeats=1, dilation=25.0))
    engine = StreamEngine(
        runner.prepare_app(app, 4).plan,
        CLUSTER,
        config=SimulationConfig(
            max_tuples_per_source=1500, max_sim_time=8.0, **config
        ),
        rng_factory=RngFactory(seed),
        observer=observer,
    )
    if force_evented:
        evented(engine)
    metrics = engine.run().to_dict()
    events = metrics["extras"].pop("events_processed")
    assert metrics["extras"].pop("step") == engine.step
    return engine, observer, metrics, events


def trace_events(tracer):
    """The tracer's events as a multiset, a parent named, not numbered."""
    names = {e.span_id: e.name for e in tracer.events if e.ph == "B"}
    out = Counter()
    for event in tracer.events:
        row = event.to_dict()
        del row["span_id"]
        row["parent"] = names.get(row.pop("parent_id", None))
        out[json.dumps(row, sort_keys=True)] += 1
    return out


def close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def assert_same_observation(computed, evented_):
    assert computed.registry.series == evented_.registry.series
    want = evented_.summary()
    got = computed.summary()
    assert got.keys() == want.keys()
    for key in got:
        if key != "ops":
            assert got[key] == want[key], key
    assert got["ops"].keys() == want["ops"].keys()
    for op, entry in got["ops"].items():
        mean = entry.pop("service_mean_s", None)
        other = want["ops"][op].pop("service_mean_s", None)
        assert entry == want["ops"][op], op
        assert (mean is None) == (other is None)
        assert mean is None or close(mean, other), op
    mine, theirs = computed.registry, evented_.registry
    assert mine.counters == theirs.counters
    assert mine.gauges == theirs.gauges
    assert mine.histograms.keys() == theirs.histograms.keys()
    for key, histogram in mine.histograms.items():
        other = theirs.histograms[key]
        assert histogram.counts == other.counts, key
        assert histogram.total == other.total, key
        assert histogram.maximum == other.maximum, key
        assert close(histogram.mean, other.mean), key
    assert trace_events(computed.tracer) == trace_events(evented_.tracer)


@pytest.mark.parametrize("case", sorted(CASES))
def test_an_observed_run_computes_what_the_evented_one_does(case):
    app, interval, config = CASES[case]
    computed, got, metrics, events = observed(app, interval, **config)
    evented_, want, reference, more = observed(
        app, interval, force_evented=True, **config
    )
    assert (computed.step, evented_.step) == ("computed", "evented")
    assert metrics == reference
    assert events < more
    assert_same_observation(got, want)


class StampLog(EngineObserver):
    """Counts the rows written before the run ends."""

    def on_run_end(self, now):
        self.before_end = list(self.registry.series)
        super().on_run_end(now)


@pytest.mark.parametrize("app", ["WC", "TM"])
def test_a_sample_pops_one_event_per_stamp(app):
    """At a deadline every microsecond, almost every event is one
    past a deadline: each sample event writes its rows under one new
    stamp, and the deadline after it lies past the next event, so a
    sample pops at most one event per event the run needs."""
    observer = StampLog(sample_interval=1e-6)
    runner = BenchmarkRunner(CLUSTER, RunnerConfig(repeats=1, dilation=25.0))
    engine = StreamEngine(
        runner.prepare_app(app, 2).plan,
        CLUSTER,
        config=SimulationConfig(max_tuples_per_source=300),
        rng_factory=RngFactory(5),
        observer=observer,
    )
    pops = []
    sample = engine._sample
    engine._sample = lambda due=False: (pops.append(due), sample(due))
    metrics = engine.run()
    assert engine.step == "computed"
    stamps = [row["t"] for row in observer.before_end]
    per_stamp = Counter(stamps)
    assert set(per_stamp.values()) == {len(observer.op_ids())}
    assert pops.count(True) == len(per_stamp)
    assert stamps == sorted(stamps)
    assert len(per_stamp) < metrics.extras["events_processed"]


def test_an_aligning_server_starts_a_late_service_where_it_arrived():
    """An aligning server hands its queue back at a ``DONE``: the next
    tuple starts at the end of the last service's overhead, and the
    computed step started it at arrival. Pinned or not, it left the
    queue then, so a deadline inside that overhead counts it in service
    on both — every row agrees. (The clock-ordered step this replaced
    dequeued it only when the clock reached that instant, and its rows
    there counted one more queued and less ``busy_s``.)"""
    config = dict(checkpoint_interval=0.05, **EXACTLY_ONCE)
    _, got, metrics, _ = observed("BI", 0.002, **config)
    _, want, reference, _ = observed("BI", 0.002, True, **config)
    assert metrics == reference
    assert len(want.registry.series) > 100
    assert got.registry.series == want.registry.series
