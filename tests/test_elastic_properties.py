"""Property-based equivalence tests for the elastic runtime.

The rescale protocol's core promises, checked over randomized seeds,
degrees and reconfiguration times:

- a run that rescales a *stateless* operator produces exactly the same
  multiset of sink values as the fixed-parallelism run (routing moves
  tuples, never changes or drops them);
- a keyed windowed aggregate loses no state across migration: per-key
  totals match the fixed run, and the window counts sum to the exact
  number of tuples emitted (conservation), including across *multiple*
  generations of rescaling.

And the two spec parsers the runtime reads its control plane from, and
every instant, duration and count knob of the configs, refuse whatever
is not a finite, validated number.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.core.experiments.exp4 import elastic_workload_plan
from repro.elastic.policy import ReactiveQueuePolicy, make_policy
from repro.elastic.scenarios import (
    LoadSpike,
    NodeFailure,
    Straggler,
    make_scenario,
)
from repro.sps import builders
from repro.core.runner import RunnerConfig
from repro.sps.engine import (
    RescaleEvent,
    SimulationConfig,
    StallInjection,
    StreamEngine,
)
from repro.sps.operators.sink import SinkLogic
from repro.sps.partitioning import HashPartitioner, RebalancePartitioner
from repro.sps.types import DataType, Field, Schema
from tests.conftest import kv_generator

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])

#: 1200 tuples at 3000 ev/s span ~0.4 simulated seconds, so rescale
#: times are drawn from [0.05, 0.3] to land inside the run.
_TUPLES = 1200
_RATE = 3000.0


def _negate(values):
    """Stateless per-tuple transform for the equivalence plans."""
    return (values[0], -values[1])


def _stateless_plan(parallelism: int):
    """src -> map -> sink with explicit non-forward partitioners.

    Hash in and rebalance out keep the map rescalable at *any* degree
    (forward edges would pin its parallelism).
    """
    from repro.sps.logical import LogicalPlan

    plan = LogicalPlan("prop-stateless")
    plan.add_operator(
        builders.source(
            "src", kv_generator(), SCHEMA, event_rate=_RATE
        )
    )
    plan.add_operator(
        builders.map_op("neg", _negate, parallelism=parallelism)
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "neg", partitioner=HashPartitioner(key_field=0))
    plan.connect("neg", "sink", partitioner=RebalancePartitioner())
    return plan


def _run(plan, rescales, seed):
    engine = StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=4),
        config=SimulationConfig(
            max_tuples_per_source=_TUPLES,
            max_sim_time=4.0,
            warmup_fraction=0.0,
            keep_sink_values=True,
            rescales=tuple(rescales),
        ),
        rng_factory=RngFactory(seed),
    )
    metrics = engine.run()
    values = [
        v
        for rt in engine._runtimes
        if isinstance(rt.logic, SinkLogic)
        for v in rt.logic.results
    ]
    return metrics, values


class TestStatelessEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        initial=st.integers(min_value=1, max_value=3),
        target=st.integers(min_value=1, max_value=5),
        at=st.floats(min_value=0.05, max_value=0.3),
    )
    @settings(max_examples=12, deadline=None)
    def test_rescaled_map_equals_fixed_run(
        self, seed, initial, target, at
    ):
        """Rescaling a stateless map mid-run changes nothing about the

        value multiset the sink collects."""
        _, fixed = _run(_stateless_plan(initial), (), seed)
        _, rescaled = _run(
            _stateless_plan(initial),
            (RescaleEvent(at, "neg", target),),
            seed,
        )
        assert Counter(rescaled) == Counter(fixed)
        assert len(fixed) == _TUPLES


class TestKeyedStatePreservation:
    @staticmethod
    def _totals(values) -> Counter:
        totals: Counter = Counter()
        for key, count in values:
            totals[key] += count
        return totals

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        target=st.integers(min_value=1, max_value=6),
        at=st.floats(min_value=0.05, max_value=0.3),
    )
    @settings(max_examples=10, deadline=None)
    def test_migration_preserves_per_key_totals(self, seed, target, at):
        """A keyed windowed COUNT migrated to any degree accounts for

        exactly the same tuples per key as the fixed-parallelism run."""
        plan_kwargs = {"agg_cost_scale": 1.0, "num_keys": 8}
        _, fixed = _run(
            elastic_workload_plan(parallelism=2, **plan_kwargs),
            (),
            seed,
        )
        metrics, rescaled = _run(
            elastic_workload_plan(parallelism=2, **plan_kwargs),
            (RescaleEvent(at, "agg", target),),
            seed,
        )
        assert self._totals(rescaled) == self._totals(fixed)
        assert sum(c for _, c in rescaled) == metrics.source_events

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        first=st.integers(min_value=1, max_value=6),
        second=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=10, deadline=None)
    def test_two_generations_of_rescaling_conserve(
        self, seed, first, second
    ):
        """Conservation survives repeated reconfiguration — the second

        rescale migrates state owned by subtasks the placement never
        saw, which must inherit their donors' slots."""
        plan_kwargs = {"agg_cost_scale": 1.0, "num_keys": 8}
        metrics, values = _run(
            elastic_workload_plan(parallelism=2, **plan_kwargs),
            (
                RescaleEvent(0.1, "agg", first),
                RescaleEvent(0.25, "agg", second),
            ),
            seed,
        )
        assert sum(c for _, c in values) == metrics.source_events
        assert metrics.source_events == _TUPLES


# ------------------------------------------------------------ spec parsers

_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 10).map(str),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "", "soon", "0x10"]),
)


def _spec(names, keys):
    """``name:key=value,...`` strings near the grammar, and off it."""
    pair = st.tuples(st.sampled_from(keys), _NUMBERS).map("=".join)
    part = st.tuples(
        st.sampled_from(names), st.lists(pair, max_size=4).map(",".join)
    ).map(":".join)
    return st.one_of(st.text(max_size=30), part)


def _assert_finite(obj):
    for name, value in vars(obj).items():
        if isinstance(value, float):
            assert math.isfinite(value), (name, value)


class TestSpecParsers:
    """Every spec string either parses to finite, validated values or
    raises ``ConfigurationError``: NaN passes every ordered comparison,
    so an unchecked ``at=nan`` would order the event heap arbitrarily."""

    @given(
        specs=st.lists(
            _spec(
                ["failure", "spike", "straggler", "netdeg", "meteor"],
                [
                    "at",
                    "duration",
                    "factor",
                    "node",
                    "subtask",
                    "op",
                    "latency_factor",
                    "bandwidth_factor",
                ],
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_scenario_specs(self, specs):
        try:
            scenario = make_scenario("+".join(specs))
        except ConfigurationError:
            return
        for injection in scenario.injections:
            _assert_finite(injection)
            assert injection.at >= 0 and injection.duration > 0
            if isinstance(injection, (LoadSpike, Straggler)):
                assert injection.factor > 1
            if isinstance(injection, NodeFailure):
                assert injection.node is None or injection.node >= 0

    @given(
        spec=_spec(
            ["reactive", "predictive", "none", "magic"],
            ["high", "low", "step", "cooldown", "min", "max", "util"],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_policy_specs(self, spec):
        try:
            policy = make_policy(spec)
        except ConfigurationError:
            return
        _assert_finite(policy)
        cooldown = getattr(policy, "cooldown", 0.0)
        assert cooldown >= 0
        if isinstance(policy, ReactiveQueuePolicy):
            assert policy.high > policy.low

    def test_nan_is_refused_everywhere(self):
        for spec in ("spike:at=nan", "failure:at=nan", "straggler:factor=inf"):
            with pytest.raises(ConfigurationError, match="finite"):
                make_scenario(spec)
            with pytest.raises(ConfigurationError, match="finite"):
                SimulationConfig(scenario=spec)
        for spec in ("reactive:high=nan", "predictive:cooldown=nan"):
            with pytest.raises(ConfigurationError, match="finite"):
                make_policy(spec)
        with pytest.raises(ConfigurationError, match="cooldown"):
            make_policy("reactive:cooldown=-1")
        for knob in (
            "max_sim_time",
            "autoscale_interval",
            "slo_latency",
            "checkpoint_interval",
        ):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigurationError, match=knob):
                    SimulationConfig(**{knob: value})


# ------------------------------------------------------------ config knobs

#: Every instant, duration and count knob: how to build a config with
#: ``value`` in it, and what the value must be to be accepted — an
#: instant finite and >= 0, a duration finite and > 0, a count an
#: integer >= its minimum.
_KNOBS = {
    "stall.at_time": (
        lambda v: StallInjection(v, "agg", 0.05), "instant"
    ),
    "stall.duration": (lambda v: StallInjection(0.1, "agg", v), "duration"),
    "rescale.at_time": (lambda v: RescaleEvent(v, "agg", 2), "instant"),
    "rescale.parallelism": (lambda v: RescaleEvent(0.1, "agg", v), 1),
    **{
        f"sim.{name}": (
            lambda v, name=name: SimulationConfig(**{name: v}), kind
        )
        for name, kind in (
            ("max_tuples_per_source", 1),
            ("max_events", 1),
            ("batch_size", 1),
            ("shards", 1),
            ("backpressure_queue_limit", 2),
            ("max_sim_time", "duration"),
            ("checkpoint_interval", "duration"),
        )
    },
    **{
        f"runner.{name}": (
            lambda v, name=name: RunnerConfig(**{name: v}), kind
        )
        for name, kind in (
            ("repeats", 1),
            ("workers", 1),
            ("dilation", "duration"),
            ("obs_sample_interval", "duration"),
        )
    },
}


def _acceptable(kind, value) -> bool:
    if kind == "instant":
        return math.isfinite(value) and value >= 0
    if kind == "duration":
        return math.isfinite(value) and value > 0
    return isinstance(value, int) and value >= kind


class TestConfigKnobs:
    """A knob value is accepted exactly when it is acceptable: NaN,
    infinities and fractions raise ``ConfigurationError`` at
    construction instead of breaking the heap order, never tripping
    the event budget or dying later inside the run."""

    @given(
        knob=st.sampled_from(sorted(_KNOBS)),
        value=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(-3, 8),
            st.sampled_from([0.0, 1.0, 2.5, -0.0, math.nan, math.inf]),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_every_knob_validates_or_raises(self, knob, value):
        build, kind = _KNOBS[knob]
        try:
            build(value)
        except ConfigurationError:
            assert not _acceptable(kind, value), (knob, value)
        else:
            assert _acceptable(kind, value), (knob, value)
