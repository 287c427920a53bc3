"""Shared fixtures for the test suite.

Also registers hypothesis profiles: the ``ci`` profile (selected with
``HYPOTHESIS_PROFILE=ci``, as the CI workflow does) derandomizes every
property test, prints the reproduction blob on failure and drops the
per-example deadline — so a CI failure is deterministic, diagnosable
from the log alone, and never a flake from a slow shared runner.
"""

from __future__ import annotations

import os
from unittest import mock

import numpy as np
import pytest

try:  # pragma: no cover - exercised only when hypothesis is present
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile(
        "ci",
        derandomize=True,
        print_blob=True,
        deadline=None,
    )
    _hyp_settings.register_profile("dev", print_blob=True)
    _hyp_settings.load_profile(
        os.environ.get("HYPOTHESIS_PROFILE", "dev")
    )
except ImportError:  # pragma: no cover
    pass

from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core.runner import RunnerConfig
from repro.sps import builders
from repro.sps.engine import SimulationConfig
from repro.sps.logical import LogicalPlan
from repro.sps.predicates import FilterFunction, Predicate
from repro.sps.tuples import StreamTuple
from repro.sps.types import DataType, Field, Schema
from repro.sps.windows import AggregateFunction, TumblingTimeWindows


def _evented_step_of(features):
    return None if "batch" in features else "evented"


def evented(engine):
    """``engine``, set to run with its horizon pinned at ``-inf``
    (``step == "evented"``): every hop completes as an event, in clock
    order — the reference the computed run is tested against (DESIGN.md
    §14, "One step").

    No knob of the product picks a step; this patches
    ``repro.sps.engine.step_of`` for the length of ``engine.run()``.
    """
    run = engine.run

    def run_evented():
        with mock.patch("repro.sps.engine.step_of", _evented_step_of):
            return run()

    engine.run = run_evented
    return engine


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for test randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def rngs() -> RngFactory:
    """A deterministic RNG factory."""
    return RngFactory(1234)


@pytest.fixture
def small_cluster():
    """A 4-node m510 cluster — fast to simulate."""
    return homogeneous_cluster("m510", num_nodes=4)


@pytest.fixture
def kv_schema() -> Schema:
    """(int key, double value) schema used across engine tests."""
    return Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])


def sender_overhead(runtime) -> float:
    """The sender CPU ``runtime`` pays per routed output: the serde
    cost of each of its channel groups (route table slot 8), summed."""
    return sum(entry[8] for entry in runtime.route_table)


def kv_generator(num_keys: int = 10):
    """A (rng, now) -> StreamTuple generator over the kv schema."""

    def generate(gen_rng: np.random.Generator, now: float) -> StreamTuple:
        return StreamTuple(
            values=(int(gen_rng.integers(num_keys)),
                    float(gen_rng.random())),
            event_time=now,
            size_bytes=24.0,
        )

    return generate


@pytest.fixture
def simple_plan(kv_schema) -> LogicalPlan:
    """source -> filter -> windowed sum -> sink, all at parallelism 2."""
    plan = LogicalPlan("test-plan")
    plan.add_operator(
        builders.source(
            "src", kv_generator(), kv_schema, event_rate=2000.0,
            parallelism=2,
        )
    )
    plan.add_operator(
        builders.filter_op(
            "flt",
            Predicate(1, FilterFunction.GT, 0.5, selectivity_hint=0.5),
            parallelism=2,
        )
    )
    plan.add_operator(
        builders.window_agg(
            "agg",
            TumblingTimeWindows(0.1),
            AggregateFunction.SUM,
            value_field=1,
            key_field=0,
            parallelism=2,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "flt")
    plan.connect("flt", "agg")
    plan.connect("agg", "sink")
    return plan


@pytest.fixture
def quick_sim_config() -> SimulationConfig:
    """A small, fast simulation configuration."""
    return SimulationConfig(
        max_tuples_per_source=800, max_sim_time=2.0, warmup_fraction=0.1
    )


@pytest.fixture
def quick_runner_config() -> RunnerConfig:
    """A fast runner profile for integration tests."""
    return RunnerConfig(
        repeats=1,
        dilation=20.0,
        max_tuples_per_source=1500,
        max_sim_time=2.5,
    )
