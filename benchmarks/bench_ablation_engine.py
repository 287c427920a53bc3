"""Ablation 1: discrete-event engine vs analytic estimator, and the

coordination-overhead term.

DESIGN.md calls out two design decisions this bench validates:

1. The analytic estimator (used to label large ML corpora) must agree
   with the discrete-event engine on *ordering* across configurations —
   that is the property Exp 3 relies on.
2. The coordination-overhead term in the cost model is what produces the
   parallelism paradox (O2): with it removed, latency becomes
   monotonically non-increasing in parallelism.
"""

from scipy import stats

from benchmarks.conftest import bench_runner_config, emit
from repro.cluster import homogeneous_cluster
from repro.core.runner import BenchmarkRunner
from repro.report import render_table
from repro.sps.analytic import AnalyticEstimator
from repro.sps.costs import OperatorCost
from repro.workload import (
    ParameterBasedEnumeration,
    QueryStructure,
    WorkloadGenerator,
)
from repro.workload.generator import scale_plan_costs


def _des_vs_analytic():
    cluster = homogeneous_cluster("m510", 10)
    config = bench_runner_config()
    runner = BenchmarkRunner(cluster, config)
    estimator = AnalyticEstimator(cluster)
    generator = WorkloadGenerator(seed=41)
    rows = []
    des_values, analytic_values = [], []
    for structure in (
        QueryStructure.LINEAR,
        QueryStructure.TWO_WAY_JOIN,
        QueryStructure.THREE_WAY_JOIN,
    ):
        query = generator.generate_one(
            cluster,
            structure,
            strategy=ParameterBasedEnumeration(1),
            event_rate=100_000.0 / config.dilation,
        )
        scale_plan_costs(query.plan, config.dilation)
        for degree in (1, 4, 16):
            query.plan.set_uniform_parallelism(degree)
            des = runner.measure(query.plan)["mean_median_latency_ms"]
            analytic = estimator.estimate(query.plan).latency_ms
            rows.append([structure.value, degree, des, analytic])
            des_values.append(des)
            analytic_values.append(analytic)
    rho = stats.spearmanr(des_values, analytic_values).statistic
    return rows, float(rho)


def _paradox_ablation():
    """The coordination term caps scale-out capacity.

    A stateful operator with coordination coefficient kappa loses
    ``1 + kappa * (p - 1)`` of its per-instance capacity at parallelism
    ``p``. At p = 64 and an event rate *between* the two capacity levels,
    the operator saturates with the term and stays comfortable without
    it — the mechanism behind the parallelism paradox (O2).
    """
    from repro.sps import builders
    from repro.sps.logical import LogicalPlan
    from repro.sps.operators.udo import FunctionUDO
    from repro.sps.types import DataType, Field, Schema
    from repro.workload.datagen import kv_block

    from repro.core.runner import RunnerConfig

    cluster = homogeneous_cluster("m510", 10)
    config = RunnerConfig(
        repeats=2,
        dilation=25.0,
        max_tuples_per_source=20_000,
        max_sim_time=3.0,
        seed=17,
    )
    runner = BenchmarkRunner(cluster, config)
    schema = Schema([Field("k", DataType.INT),
                     Field("v", DataType.DOUBLE)])

    # 64 instances at 40us/tuple give a nominal capacity of 1.6M/s;
    # the coordination factor at p=64 is 1.63, cutting it to ~982k/s.
    # 1.2M/s sits between the two: saturated *only* with the term.
    rate = 1_200_000.0 / config.dilation
    results = {}
    for label, kappa in (
        ("with-coordination", 0.010),
        ("no-coordination", 0.0),
    ):
        plan = LogicalPlan(f"ablation-{label}")
        plan.add_operator(
            builders.source(
                "src", None, schema, rate, vector_generator=kv_block(1000)
            )
        )
        plan.add_operator(
            builders.udo(
                "stateful",
                lambda: FunctionUDO(lambda state, t, now: [t]),
                cost=OperatorCost(
                    base_cpu_s=40.0e-6 * config.dilation,
                    coord_kappa=kappa,
                    stateful=True,
                    is_udo=True,
                ),
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "stateful")
        plan.connect("stateful", "sink")
        latencies = []
        for degree in (16, 64):
            plan.set_uniform_parallelism(degree)
            # Sources are cheap; keeping them at 8 keeps total subtasks
            # within the 80 slots so slot contention cannot confound
            # the coordination-term comparison.
            plan.set_parallelism({"src": 8})
            latencies.append(
                runner.measure(plan)["mean_median_latency_ms"]
            )
        results[label] = latencies
    return results


def test_ablation_engine_vs_analytic(benchmark):
    (rows, rho) = benchmark.pedantic(
        _des_vs_analytic, rounds=1, iterations=1
    )
    emit(
        render_table(
            ["structure", "parallelism", "DES ms", "analytic ms"],
            rows,
            title="Ablation: discrete-event engine vs analytic estimator",
        )
    )
    emit(f"Spearman rank correlation: {rho:.3f}")
    assert rho > 0.5  # same ordering story across configurations


def test_ablation_coordination_term(benchmark):
    results = benchmark.pedantic(
        _paradox_ablation, rounds=1, iterations=1
    )
    emit(
        render_table(
            ["variant", "p=16", "p=64"],
            [[k, *v] for k, v in results.items()],
            title="Ablation: coordination overhead caps scale-out "
            "capacity (stateful UDO @ 1.2M ev/s)",
        )
    )
    with_coord = results["with-coordination"]
    without = results["no-coordination"]
    # At p=16 both variants are saturated (rate >> capacity). Scaling
    # out to p=64 rescues the plan only WITHOUT the coordination term:
    # with it, capacity stays below the offered rate and the backlog
    # keeps the latency an order of magnitude higher.
    assert with_coord[-1] > 5.0 * without[-1]
    # Scaling out helped the no-coordination variant dramatically.
    assert without[-1] < without[0] / 5.0
