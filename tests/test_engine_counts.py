"""Exact event counts, results and mean latency of the engine workloads.

Every workload runs on a fixed seed, so a moved number means the
simulation drifted, however fast it ran — speed is judged by
``benchmarks/suite`` alone. Shape: seed 17, m510 x 4, 1 500 tuples per
source, ``max_sim_time`` 8, parallelism 4; the applications dilated 25x
from 100k ev/s; ``-b256`` runs the same plan on the columnar executor
with 256-row micro-batches. The checkpointed ``hotpath`` is pinned by
``tests/test_ft_step.py::GOLDEN``.

An event count depends on the step as well as on the simulation (a
computed run pops one event per delivered tuple-hop and 1/32 per source
tuple; the batch executor counts event-equivalents), so a step change
re-records ``events`` here with the old value in a comment; ``results``
and ``latency_mean`` move only when simulated behaviour does.
"""

from __future__ import annotations

import pytest

from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core import perf
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.sps.engine import SimulationConfig, StreamEngine

#: workload -> (step, events, results, mean latency in seconds)
PINNED = {
    "hotpath": ("computed", 2689, 378, 0.03136629239487713),
    "slide8": ("computed", 2535, 953, 0.21585753256430734),
    "join8": ("computed", 36853, 33692, 0.06732429752117824),
    "WC": ("computed", 11289, 26, 0.3713777036662247),
    "SG": ("computed", 2555, 443, 3.1007392462267003),
    "AD": ("computed", 3869, 67, 0.634657819512432),
    "hotpath-b256": (None, 4161, 378, 0.1850300794962635),
    "WC-b256": (None, 12796, 26, 0.42531138079587577),
}

_PLANS = {
    "hotpath": perf.hotpath_plan,
    "slide8": perf.slide8_plan,
    "join8": perf.join8_plan,
}


def run(name: str):
    base, _, batch = name.partition("-b")
    cluster = homogeneous_cluster("m510", 4)
    if base in _PLANS:
        plan = _PLANS[base]()
    else:
        runner = BenchmarkRunner(cluster, RunnerConfig(dilation=25.0))
        plan = runner.prepare_app(base, 4).plan
    config = SimulationConfig(
        max_tuples_per_source=1500,
        max_sim_time=8.0,
        batch_size=int(batch) if batch else None,
    )
    engine = StreamEngine(
        plan, cluster, config=config, rng_factory=RngFactory(17)
    )
    metrics = engine.run()
    return (
        engine.step,
        metrics.extras["events_processed"],
        metrics.results,
        metrics.latency.mean,
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quick_shape_is_pinned(name):
    assert run(name) == PINNED[name]


if __name__ == "__main__":  # re-record after a deliberate change
    for name in PINNED:
        print(f"    {name!r}: {run(name)!r},")
