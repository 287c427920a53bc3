"""What composes, cell by cell (DESIGN.md §4, ``repro.sps.capabilities``).

One small plan — a chainable filter → map, a hash-keyed tumbling
aggregate, four nodes — and every pair of the nine execution features:

- a pair with an ``EXCLUDES`` row is refused with a
  ``ConfigurationError`` that names both features, by the earliest
  constructor that can know: ``SimulationConfig`` when both are config
  fields, ``StreamEngine`` when an observer or chaining is involved,
  ``RunnerConfig`` under the names it spells them with;
- **every other pair builds and runs** 300 tuples to results, on the
  step ``step_of`` says — the cells nothing else runs together
  (checkpoint × stalls, shards × stalls, …).
  A pair that crashes here is not supported: it gets a row and a
  reason, not a skip;
- a scenario without injections is calm and composes with everything;
- each reason is the sentence DESIGN.md states, so the docs cannot
  drift from the table.

Which features are *evented* is pinned with literals of its own in
``tests/test_computed_step.py``.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import pytest

from repro.cluster import NetworkSpec, homogeneous_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.core.runner import RunnerConfig
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.capabilities import (
    EVENTED,
    EXCLUDES,
    KNOBS,
    check,
    features_of,
    step_of,
)
from repro.sps.engine import (
    RescaleEvent,
    SimulationConfig,
    StallInjection,
    StreamEngine,
)
from repro.sps.costs import default_cost
from repro.sps.logical import LogicalPlan, OperatorKind
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.windows import AggregateFunction, TumblingTimeWindows
from tests.conftest import kv_generator
from tests.test_universe import SCHEMA

#: 2 ms between nodes: a sharded run needs a lookahead
CLUSTER = homogeneous_cluster(
    "m510", 4, network_spec=NetworkSpec(base_latency_s=2e-3)
)

#: how this file turns each feature on: a ``SimulationConfig`` field …
CONFIG_ON = {
    "batch": dict(batch_size=64),
    "shards": dict(shards=2),
    "checkpoint": dict(checkpoint_interval=0.01),
    "stalls": dict(stalls=(StallInjection(0.01, "agg", 0.005),)),
    "rescale": dict(rescales=(RescaleEvent(0.01, "agg", 3),)),
    "scenario": dict(scenario="straggler:at=0.01,duration=0.02"),
}
#: … or a ``StreamEngine`` argument
ENGINE_ON = {
    "observer": dict(observer=True),
    "sanitize": dict(sanitize=True),
    "chaining": dict(chaining=True),
}
#: and what ``RunnerConfig`` calls the ones it has a knob for
RUNNER_ON = {
    "batch": dict(batch_size=64),
    "shards": dict(shards=2),
    "checkpoint": dict(checkpoint_ms=50.0),
    "rescale": dict(autoscale="reactive:high=4"),
    "scenario": dict(scenario="spike:at=0.5"),
    "observer": dict(observe=True),
    "sanitize": dict(sanitize=True),
}

#: that a feature took part in the run, where ``extras`` can tell
ACTED = {
    "shards": lambda extras: extras["shards"]["shards"] == 2,
    "checkpoint": lambda extras: extras["ft"]["checkpoints_completed"] > 0,
    "rescale": lambda extras: extras["elastic"]["rescales"] == 1,
    "scenario": lambda extras: "elastic" in extras,
}

EXCLUDED = {frozenset(row[:2]): row[2] for row in EXCLUDES}
PAIRS = [frozenset(pair) for pair in combinations(KNOBS, 2)]


def ids(pairs):
    return ["-".join(sorted(pair)) for pair in pairs]


def _double(values):
    return (values[0], values[1] * 2.0)


def plan():
    built = LogicalPlan("cells")
    built.add_operator(
        builders.source(
            "src", kv_generator(), SCHEMA, event_rate=8000.0, parallelism=2
        )
    )
    built.add_operator(
        builders.filter_op(
            "flt",
            Predicate(1, FilterFunction.GT, 0.1, selectivity_hint=0.9),
            parallelism=2,
        )
    )
    built.add_operator(builders.map_op("dbl", _double, parallelism=2))
    built.add_operator(
        builders.window_agg(
            "agg",
            TumblingTimeWindows(0.005),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
            parallelism=2,
            # 70 % busy: queues form
            cost=default_cost(OperatorKind.WINDOW_AGG).scaled(32.0),
        )
    )
    built.add_operator(builders.sink("sink"))
    built.connect("src", "flt")
    built.connect("flt", "dbl")
    built.connect("dbl", "agg")
    built.connect("agg", "sink")
    return built


def spelled(features, spelling):
    """The keyword arguments that turn ``features`` on, for those that
    ``spelling`` has a name for."""
    kwargs = {}
    for feature in sorted(features):
        kwargs.update(spelling.get(feature, {}))
    return kwargs


def build(features, **config):
    """``(config, engine)`` with ``features`` on; raises where the
    constructors do."""
    config.update(spelled(features, CONFIG_ON))
    engine_args = spelled(features, ENGINE_ON)
    if engine_args.pop("observer", False):
        engine_args["observer"] = EngineObserver(sample_interval=0.05)
    sim_config = SimulationConfig(
        max_tuples_per_source=300, max_sim_time=3.0, **config
    )
    return sim_config, StreamEngine(
        plan(),
        CLUSTER,
        config=sim_config,
        rng_factory=RngFactory(11),
        **engine_args,
    )


def test_the_table_is_the_fourteen_pairs_over_known_features():
    assert len(EXCLUDES) == len(EXCLUDED) == 14
    assert set(CONFIG_ON) | set(ENGINE_ON) == set(KNOBS)
    assert set(KNOBS) >= set(EVENTED)
    for one, other, reason in EXCLUDES:
        assert {one, other} <= set(KNOBS) and one != other
        assert reason == reason.strip() and not reason.endswith(".")


def refuses(pair, construct):
    with pytest.raises(ConfigurationError) as caught:
        construct()
    for feature in pair:
        assert KNOBS[feature] in str(caught.value)
    assert EXCLUDED[pair] in str(caught.value)


@pytest.mark.parametrize("pair", list(EXCLUDED), ids=ids(EXCLUDED))
def test_an_excluded_pair_is_refused_by_name_at_the_earliest_constructor(
    pair,
):
    if pair <= set(CONFIG_ON):
        refuses(pair, lambda: SimulationConfig(**spelled(pair, CONFIG_ON)))
    else:
        SimulationConfig(**spelled(pair, CONFIG_ON))  # cannot know yet
        refuses(pair, lambda: build(pair))
    if pair <= set(RUNNER_ON):
        refuses(pair, lambda: RunnerConfig(**spelled(pair, RUNNER_ON)))


SUPPORTED = [pair for pair in PAIRS if pair not in EXCLUDED]


@pytest.mark.parametrize("pair", SUPPORTED, ids=ids(SUPPORTED))
def test_every_other_pair_runs_to_results_on_the_step_the_table_names(pair):
    config, engine = build(pair)
    features = features_of(
        config, engine.observer, "sanitize" in pair, engine.physical.chains
    )
    assert features == pair
    metrics = engine.run()
    assert metrics.results > 0
    assert engine.step == step_of(features)
    for feature in pair & set(ACTED):
        assert ACTED[feature](metrics.extras), feature
    if pair <= set(RUNNER_ON):
        RunnerConfig(**spelled(pair, RUNNER_ON))


def test_three_at_once_batch_observed_and_sanitized():
    config, engine = build({"batch", "observer", "sanitize"})
    assert engine.run().results > 0
    assert engine.step is None
    assert engine.race_detector.findings == []


@pytest.mark.parametrize(
    "mode", [dict(batch_size=64), dict(shards=2)], ids=str
)
def test_a_scenario_without_injections_is_calm_and_composes(mode):
    """``"none"`` is ``make_scenario``'s spelling of calm: the run is
    the one without a scenario, not an elastic one."""
    runs = []
    for scenario in (None, "none"):
        config, engine = build((), scenario=scenario, **mode)
        assert "scenario" not in features_of(config)
        runs.append(engine.run().to_dict())
    assert runs[0] == runs[1] and runs[0]["results"] > 0
    RunnerConfig(scenario="none", **mode)


def test_autoscale_none_still_arms_the_control_loop():
    """exp4's baseline cells depend on it: ``"none"`` is a policy, and a
    run under it is an elastic run — a computed one since its control
    ticks became horizons."""
    config, engine = build((), autoscale="none")
    assert features_of(config) == {"rescale"}
    extras = engine.run().extras
    assert "elastic" in extras and extras["step"] == "computed"
    with pytest.raises(ConfigurationError, match="batch_size"):
        SimulationConfig(autoscale="none", batch_size=64)


def test_evented_keeps_one_knob_and_faults_compute():
    """Stalls, node failures and an observer's sampling deadlines are
    control instants of the computed step; a failure is a scenario like
    any other. Sharding is the one knob that pins the horizon."""
    assert set(EVENTED) == {"shards"}
    assert step_of({"observer", "checkpoint", "scenario"}) == "computed"
    config = SimulationConfig(
        scenario="failure:at=0.3,duration=0.1",
        stalls=(StallInjection(0.1, "src", 0.01),),
        checkpoint_interval=0.05,
    )
    features = features_of(config)
    assert features == {"scenario", "stalls", "checkpoint"}
    assert step_of(features) == "computed"


def test_the_largest_compatible_set_passes_and_steps_follow_evented():
    check(frozenset(KNOBS) - {"batch", "shards", "checkpoint", "chaining"})
    assert step_of(frozenset()) == step_of({"chaining"}) == "computed"
    assert step_of({"batch", "observer"}) is None
    for feature in EVENTED:
        assert step_of({feature}) == "evented"


def test_every_reason_is_a_sentence_design_md_states():
    design = " ".join(
        (Path(__file__).parent.parent / "DESIGN.md").read_text().split()
    )
    for reason in (*EXCLUDED.values(), *EVENTED.values()):
        assert reason in design, reason
