"""Property-based delivery-guarantee tests for checkpoint recovery.

The fault-tolerance subsystem's core promises, checked over randomized
seeds, checkpoint cadences and failure times (DESIGN.md §13):

- **exactly-once**: a run that fails and recovers produces *exactly*
  the failure-free run's sink multiset — the provenance ledger drops
  every replayed duplicate and the replay loses nothing;
- **at-least-once**: the recovered multiset is a superset of the
  failure-free one — duplicates may appear (and are accounted in
  ``extras["ft"]["duplicate_results"]``), losses may not.

The workload keeps the comparison exact by construction: a single
source instance (deterministic replay order into each keyed subtask),
count-based windows (results independent of timing), and a source
budget that generation finishes before any failure fires (replay
re-reads the durable log instead of re-drawing arrival randomness).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core.experiments.exp5 import ft_workload_plan
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.operators.sink import SinkLogic

#: Generation ends by ~0.1 s (300 tuples at 3000 ev/s) and the scaled
#: aggregation backlog drains around ~0.55 s, so failure times are
#: drawn from [0.15, 0.5] to land strictly between the two.
_FAIL_AT = st.floats(min_value=0.15, max_value=0.5)
_INTERVALS = st.sampled_from([0.03, 0.05, 0.1, 0.2])
_SEEDS = st.integers(min_value=0, max_value=2**16)


def _run(seed, scenario=None, delivery="exactly_once", interval=None):
    config = SimulationConfig(
        max_tuples_per_source=300,
        max_sim_time=3.0,
        warmup_fraction=0.0,
        keep_sink_values=True,
        scenario=scenario,
        delivery=delivery,
        checkpoint_interval=interval,
    )
    engine = StreamEngine(
        ft_workload_plan(),
        homogeneous_cluster(num_nodes=4),
        config=config,
        rng_factory=RngFactory(seed),
    )
    metrics = engine.run()
    values = sorted(
        v
        for rt in engine._runtimes
        if isinstance(rt.logic, SinkLogic)
        for v in rt.logic.results
    )
    return metrics, values


@settings(max_examples=20, deadline=None)
@given(seed=_SEEDS, at=_FAIL_AT, interval=_INTERVALS)
def test_exactly_once_recovery_equals_failure_free(seed, at, interval):
    _, oracle = _run(seed)
    scenario = f"failure:at={at},duration=0.1"
    metrics, recovered = _run(seed, scenario, "exactly_once", interval)
    ft = metrics.extras["ft"]
    assert ft["recoveries"] == 1
    assert ft["replayed_events"] > 0
    assert ft["duplicate_results"] == 0
    assert ft["lost_results"] == 0
    assert recovered == oracle


@settings(max_examples=20, deadline=None)
@given(seed=_SEEDS, at=_FAIL_AT, interval=_INTERVALS)
def test_at_least_once_recovery_is_lossless_superset(seed, at, interval):
    _, oracle = _run(seed)
    scenario = f"failure:at={at},duration=0.1"
    metrics, recovered = _run(seed, scenario, "at_least_once", interval)
    ft = metrics.extras["ft"]
    assert ft["recoveries"] == 1
    missing = Counter(oracle) - Counter(recovered)
    extra = Counter(recovered) - Counter(oracle)
    assert not missing  # at-least-once never loses a result
    assert sum(extra.values()) == ft["duplicate_results"]
    assert ft["duplicates_dropped"] == 0
    assert ft["lost_results"] == 0


@settings(max_examples=20, deadline=None)
@given(
    seed=_SEEDS,
    at=_FAIL_AT,
    interval=_INTERVALS,
    delivery=st.sampled_from(["exactly_once", "at_least_once"]),
)
def test_a_truncated_log_still_covers_every_recovery(
    seed, at, interval, delivery
):
    """The source log keeps only what the newest completed checkpoint
    may replay. A failure after a truncation, and a second one during
    the first recovery — no checkpoint in between, so the same offset
    is replayed twice — lose nothing."""
    _, oracle = _run(seed)
    scenario = (
        f"failure:at={at},duration=0.1+failure:at={at + 0.05},duration=0.1"
    )
    metrics, recovered = _run(seed, scenario, delivery, interval)
    ft = metrics.extras["ft"]
    assert ft["recoveries"] == 2
    assert ft["lost_results"] == 0
    missing = Counter(oracle) - Counter(recovered)
    extra = Counter(recovered) - Counter(oracle)
    assert not missing
    assert sum(extra.values()) == ft["duplicate_results"]
    if delivery == "exactly_once":
        assert not extra


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, at=_FAIL_AT)
def test_recovery_is_deterministic(seed, at):
    scenario = f"failure:at={at},duration=0.1"
    m1, v1 = _run(seed, scenario, "exactly_once", 0.05)
    m2, v2 = _run(seed, scenario, "exactly_once", 0.05)
    assert v1 == v2
    assert m1.extras["ft"] == m2.extras["ft"]
    assert m1.latency.p50 == m2.latency.p50


@settings(max_examples=10, deadline=None)
@given(seed=_SEEDS, interval=_INTERVALS)
def test_checkpointing_alone_never_changes_results(seed, interval):
    _, plain = _run(seed)
    _, checkpointed = _run(seed, interval=interval)
    assert checkpointed == plain
