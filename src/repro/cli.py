"""Command-line interface: ``python -m repro <command>``.

The controller's scriptable surface (the paper drives PDSP-Bench through
a web UI; the same operations are exposed here):

- ``list-apps``                   — show the Table 2 suite
- ``run-app``                     — benchmark one application config
- ``run-synthetic``               — benchmark one synthetic PQP config
- ``throughput``                  — sustainable-throughput search
- ``train``                       — build a corpus and compare cost models
- ``experiment``                  — regenerate a paper figure
- ``exp4``                        — elastic runtime grid: autoscaling
  policies under chaos scenarios (see :mod:`repro.elastic`)
- ``exp5``                        — fault-tolerance grid: checkpoint
  intervals x node failures x delivery modes (see :mod:`repro.ft`)
- ``tables``                      — render the paper's config tables
- ``lint-plan``                   — static pre-flight analysis of PQPs
- ``sanitize``                    — determinism sanitizer: DET-rule AST
  lint over code or apps, optional race-detected run (see
  :mod:`repro.analysis.sanitizer`)
- ``trace``                       — profile one run: Chrome trace +
  per-operator metrics time series (see :mod:`repro.obs`)
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster import heterogeneous_cluster, homogeneous_cluster
from repro.common.errors import ConfigurationError, ReproError
from repro.core.controller import PDSPBench
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.core.throughput import sustainable_throughput
from repro.report import render_figure, render_table
from repro.report.related_work import render_table1
from repro.workload import QueryStructure

__all__ = ["main", "build_parser"]


def _cluster_from_args(args) -> object:
    if args.hetero:
        return heterogeneous_cluster(num_nodes=args.nodes)
    return homogeneous_cluster(args.cluster, num_nodes=args.nodes)


def _runner_config(args) -> RunnerConfig:
    slo_ms = getattr(args, "slo_ms", None)
    return RunnerConfig(
        repeats=args.repeats,
        dilation=args.dilation,
        max_tuples_per_source=args.tuples,
        max_sim_time=args.sim_time,
        seed=args.seed,
        workers=args.workers,
        batch_size=getattr(args, "batch_size", None),
        autoscale=getattr(args, "autoscale", None),
        scenario=getattr(args, "scenario", None),
        slo_latency=slo_ms / 1e3 if slo_ms is not None else None,
        checkpoint_ms=getattr(args, "checkpoint_ms", None),
        delivery=getattr(args, "delivery", "exactly_once"),
        shards=getattr(args, "shards", None),
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cluster", default="m510",
        help="hardware type for a homogeneous cluster (default m510)",
    )
    parser.add_argument(
        "--hetero", action="store_true",
        help="use the mixed c6525_25g+c6320 heterogeneous cluster",
    )
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--dilation", type=float, default=25.0)
    parser.add_argument("--tuples", type=int, default=2500)
    parser.add_argument("--sim-time", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for independent runs (1 = serial; "
        "results are identical either way)",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None,
        help="run on the columnar micro-batch executor with this many "
        "tuples per micro-batch (default: scalar event loop)",
    )
    parser.add_argument(
        "--autoscale", default=None,
        help="elastic autoscaling policy spec, e.g. 'reactive:high=4' "
        "or 'predictive:util=0.6' (default: fixed parallelism)",
    )
    parser.add_argument(
        "--scenario", default=None,
        help="chaos scenario spec, e.g. 'spike:at=0.5,factor=3' or "
        "'failure:at=1.0+spike:at=0.5' (default: none)",
    )
    parser.add_argument(
        "--slo-ms", type=float, default=None,
        help="latency SLO in milliseconds; enables the "
        "SLO-violation-seconds metric in run extras",
    )
    parser.add_argument(
        "--checkpoint-ms", type=float, default=None,
        help="aligned-barrier checkpoint interval in milliseconds; "
        "enables the fault-tolerance subsystem (default: off)",
    )
    parser.add_argument(
        "--delivery", default="exactly_once",
        choices=("exactly_once", "at_least_once"),
        help="delivery guarantee applied on failure recovery "
        "(default exactly_once)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="partition each run's simulated cluster onto this many "
        "forked kernel shards (intra-run multi-core speedup; results "
        "are bit-identical for every shard count)",
    )
    parser.add_argument(
        "--storage", default=None,
        help="directory for the persistent document store",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all ``python -m repro`` subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PDSP-Bench reproduction: benchmark parallel stream "
        "processing and learned cost models",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list-apps", help="show the application suite")

    run_app = commands.add_parser(
        "run-app", help="benchmark one application configuration"
    )
    run_app.add_argument("--app", required=True)
    run_app.add_argument("--parallelism", type=int, default=8)
    run_app.add_argument("--rate", type=float, default=100_000.0)
    _add_common(run_app)

    run_suite = commands.add_parser(
        "run-suite", help="benchmark the whole application suite"
    )
    run_suite.add_argument("--parallelism", type=int, default=8)
    run_suite.add_argument("--rate", type=float, default=100_000.0)
    run_suite.add_argument(
        "--apps", nargs="*", default=None,
        help="subset of app abbreviations (default: all 14)",
    )
    _add_common(run_suite)

    run_syn = commands.add_parser(
        "run-synthetic", help="benchmark one synthetic PQP"
    )
    run_syn.add_argument(
        "--structure",
        required=True,
        choices=[s.value for s in QueryStructure],
    )
    run_syn.add_argument("--parallelism", type=int, default=8)
    run_syn.add_argument("--rate", type=float, default=100_000.0)
    _add_common(run_syn)

    throughput = commands.add_parser(
        "throughput", help="sustainable-throughput search for an app"
    )
    throughput.add_argument("--app", required=True)
    throughput.add_argument("--parallelism", type=int, default=8)
    _add_common(throughput)

    train = commands.add_parser(
        "train", help="build a corpus and fairly compare cost models"
    )
    train.add_argument("--count", type=int, default=400)
    _add_common(train)

    experiment = commands.add_parser(
        "experiment", help="regenerate one paper figure"
    )
    experiment.add_argument(
        "figure",
        choices=[
            "fig3-top", "fig3-bottom", "fig4-top", "fig4-bottom",
            "fig5", "fig6",
        ],
    )
    _add_common(experiment)

    exp4 = commands.add_parser(
        "exp4",
        help="elastic runtime grid: autoscaling policies x chaos "
        "scenarios, scored on SLO-violation-seconds vs resource-hours",
    )
    exp4.add_argument(
        "--policies", nargs="+", default=None,
        help="policy specs to compare (default: none, reactive, "
        "predictive with tuned parameters)",
    )
    exp4.add_argument(
        "--scenarios", nargs="+", default=None,
        help="scenario cells as name=spec (e.g. spike=spike:at=0.5) "
        "or bare names from the default grid "
        "(baseline/spike/straggler/failure)",
    )
    exp4.add_argument(
        "--quick", action="store_true",
        help="one short repeat per cell (the CI chaos-smoke shape)",
    )
    exp4.add_argument(
        "--slo-ms", type=float, default=150.0,
        help="latency SLO in milliseconds (default 150)",
    )
    exp4.add_argument("--seed", type=int, default=0)
    exp4.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for grid cells (1 = serial)",
    )
    exp4.add_argument(
        "--json-out", default=None,
        help="also write the full JSON report to this path",
    )

    exp5 = commands.add_parser(
        "exp5",
        help="fault-tolerance grid: checkpoint intervals x node "
        "failures x delivery modes, scored on recovery time, replay "
        "volume and result correctness vs a failure-free oracle",
    )
    exp5.add_argument(
        "--intervals-ms", nargs="+", type=float, default=None,
        help="checkpoint intervals in milliseconds "
        "(default: 50 100 200)",
    )
    exp5.add_argument(
        "--scenarios", nargs="+", default=None,
        help="failure cells as name=spec "
        "(e.g. early=failure:at=0.3,duration=0.1) or bare names from "
        "the default grid (early-failure/late-failure)",
    )
    exp5.add_argument(
        "--deliveries", nargs="+", default=None,
        choices=("exactly_once", "at_least_once"),
        help="delivery guarantees to compare (default: both)",
    )
    exp5.add_argument(
        "--quick", action="store_true",
        help="one interval, one failure per delivery mode "
        "(the CI recovery-smoke shape)",
    )
    exp5.add_argument("--seed", type=int, default=0)
    exp5.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for grid cells (1 = serial)",
    )
    exp5.add_argument(
        "--json-out", default=None,
        help="also write the full JSON report to this path",
    )

    trace = commands.add_parser(
        "trace",
        help="profile one run: write trace.json (Chrome trace_event) "
        "and metrics.jsonl (per-operator time series)",
    )
    target = trace.add_mutually_exclusive_group()
    target.add_argument(
        "--app", default="WC",
        help="application to trace — abbreviation or name "
        "('WC', 'wordcount', 'Word Count'; default WC)",
    )
    target.add_argument(
        "--structure", default=None,
        choices=[s.value for s in QueryStructure],
        help="trace a generated synthetic PQP instead of an app",
    )
    trace.add_argument("--parallelism", type=int, default=4)
    trace.add_argument("--rate", type=float, default=100_000.0)
    trace.add_argument(
        "--max-tuples", type=int, default=2500,
        help="tuples emitted per source subtask",
    )
    trace.add_argument("--sim-time", type=float, default=30.0)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--dilation", type=float, default=25.0)
    trace.add_argument(
        "--sample-interval", type=float, default=0.25,
        help="metrics sampling period in simulated seconds",
    )
    trace.add_argument(
        "--out", default="trace-out",
        help="output directory for trace.json and metrics.jsonl",
    )
    trace.add_argument(
        "--cluster", default="m510",
        help="hardware type for a homogeneous cluster (default m510)",
    )
    trace.add_argument(
        "--hetero", action="store_true",
        help="use the mixed c6525_25g+c6320 heterogeneous cluster",
    )
    trace.add_argument("--nodes", type=int, default=4)

    tables = commands.add_parser(
        "tables", help="render the paper's configuration tables"
    )
    tables.add_argument(
        "which", choices=["1", "2", "4"], help="table number"
    )

    lint = commands.add_parser(
        "lint-plan",
        help="run the static pre-flight analyzer over plans",
    )
    lint.add_argument(
        "--app", nargs="*", default=None,
        help="app abbreviations to lint (e.g. WC SG)",
    )
    lint.add_argument(
        "--all-apps", action="store_true",
        help="lint every built-in application plan",
    )
    lint.add_argument(
        "--structure", default=None,
        choices=[s.value for s in QueryStructure],
        help="lint a freshly generated synthetic PQP instead",
    )
    lint.add_argument("--parallelism", type=int, default=4)
    lint.add_argument("--rate", type=float, default=100_000.0)
    lint.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors for the exit code",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    lint.add_argument(
        "--batch", action="store_true",
        help="additionally run the advisory BAT7xx batch-friendliness "
        "rules (for plans destined for the columnar micro-batch "
        "executor)",
    )
    lint.add_argument(
        "--checkpoint-ms", type=float, default=None,
        help="additionally run the FT7xx checkpoint-readiness rules "
        "against this checkpoint interval in milliseconds (for plans "
        "destined to run with fault tolerance)",
    )
    lint.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="additionally run the SHD7xx shardability rules against "
        "this shard count (for plans destined for sharded execution)",
    )
    lint.add_argument(
        "--cluster", default="m510",
        help="hardware type for a homogeneous cluster (default m510)",
    )
    lint.add_argument(
        "--hetero", action="store_true",
        help="use the mixed c6525_25g+c6320 heterogeneous cluster",
    )
    lint.add_argument("--nodes", type=int, default=10)
    lint.add_argument("--seed", type=int, default=0)

    san = commands.add_parser(
        "sanitize",
        help="run the determinism sanitizer (DET rules) over code",
    )
    san.add_argument(
        "paths", nargs="*",
        help="files or directories to scan; default: the installed "
        "repro package tree when no apps are selected either",
    )
    san.add_argument(
        "--app", nargs="*", default=None,
        help="sanitize the modules of these apps (abbreviation or name)",
    )
    san.add_argument(
        "--all-apps", action="store_true",
        help="sanitize every built-in application module",
    )
    san.add_argument(
        "--runtime", action="store_true",
        help="additionally run each selected app briefly with the "
        "race detector attached",
    )
    san.add_argument("--parallelism", type=int, default=2)
    san.add_argument("--rate", type=float, default=100_000.0)
    san.add_argument("--seed", type=int, default=0)
    san.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors for the exit code",
    )
    san.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format",
    )
    san.add_argument(
        "--list-rules", action="store_true",
        help="print the DET rule family and exit",
    )
    return parser


def _cmd_list_apps() -> int:
    from repro.apps import APP_INFOS

    rows = [
        [
            info.abbrev, info.name, info.area,
            "yes" if info.uses_udo else "no", info.data_intensity,
        ]
        for info in APP_INFOS.values()
    ]
    print(
        render_table(
            ["abbrev", "application", "area", "UDO", "intensity"],
            rows,
            title="PDSP-Bench application suite (Table 2)",
        )
    )
    return 0


def _cmd_run_app(args) -> int:
    bench = PDSPBench(
        _cluster_from_args(args),
        storage_dir=args.storage,
        runner_config=_runner_config(args),
        seed=args.seed,
    )
    record = bench.run_application(
        args.app, parallelism=args.parallelism, event_rate=args.rate
    )
    print(
        render_table(
            ["metric", "value"],
            [
                ["application", record.workload_name],
                ["cluster", record.cluster_name],
                ["parallelism", args.parallelism],
                ["event rate (ev/s)", args.rate],
                [
                    "median latency (ms)",
                    record.metrics["mean_median_latency_ms"],
                ],
                ["throughput (res/s)", record.metrics["mean_throughput"]],
            ],
            title="run-app result",
        )
    )
    return 0


def _cmd_run_suite(args) -> int:
    bench = PDSPBench(
        _cluster_from_args(args),
        storage_dir=args.storage,
        runner_config=_runner_config(args),
        seed=args.seed,
    )
    records = bench.run_suite(
        parallelism=args.parallelism,
        apps=args.apps,
        event_rate=args.rate,
    )
    rows = [
        [
            record.workload_name,
            record.metrics["mean_median_latency_ms"],
            record.metrics["mean_throughput"],
        ]
        for record in records
    ]
    print(
        render_table(
            ["application", "median latency (ms)",
             "throughput (res/s)"],
            rows,
            title=f"suite @ parallelism {args.parallelism}, "
            f"{args.rate:g} ev/s",
        )
    )
    return 0


def _cmd_run_synthetic(args) -> int:
    bench = PDSPBench(
        _cluster_from_args(args),
        storage_dir=args.storage,
        runner_config=_runner_config(args),
        seed=args.seed,
    )
    record = bench.run_synthetic(
        QueryStructure(args.structure),
        parallelism=args.parallelism,
        event_rate=args.rate,
    )
    print(
        render_table(
            ["metric", "value"],
            [
                ["structure", args.structure],
                ["parallelism", args.parallelism],
                [
                    "median latency (ms)",
                    record.metrics["mean_median_latency_ms"],
                ],
            ],
            title="run-synthetic result",
        )
    )
    return 0


def _cmd_throughput(args) -> int:
    runner = BenchmarkRunner(
        _cluster_from_args(args), _runner_config(args)
    )
    result = sustainable_throughput(
        runner, args.app, parallelism=args.parallelism
    )
    print(f"{args.app} @ parallelism {args.parallelism}: "
          f"{result.describe()}")
    print(
        render_table(
            ["rate (ev/s)", "median latency (ms)"],
            [[rate, latency] for rate, latency in result.probed],
            title="probed configurations",
        )
    )
    return 0


def _cmd_train(args) -> int:
    bench = PDSPBench(
        _cluster_from_args(args),
        storage_dir=args.storage,
        runner_config=_runner_config(args),
        seed=args.seed,
    )
    corpus = bench.build_corpus(count=args.count)
    reports = bench.train_models(corpus)
    rows = [
        [
            name,
            report.q_error["median"],
            report.q_error["p95"],
            report.training.train_time_s,
            report.training.num_parameters,
        ]
        for name, report in reports.items()
    ]
    print(
        render_table(
            ["model", "median q-error", "p95 q-error", "train (s)",
             "params"],
            rows,
            title=f"cost models on a {args.count}-query corpus",
        )
    )
    return 0


def _cmd_experiment(args) -> int:
    from repro.core import experiments

    config = _runner_config(args)
    if args.figure == "fig3-top":
        figures = [experiments.figure3_top(runner_config=config)]
    elif args.figure == "fig3-bottom":
        figures = [experiments.figure3_bottom(runner_config=config)]
    elif args.figure == "fig4-top":
        figures = [experiments.figure4_top(runner_config=config)]
    elif args.figure == "fig4-bottom":
        figures = [experiments.figure4_bottom(runner_config=config)]
    elif args.figure == "fig5":
        figures = [experiments.figure5()]
    else:
        figures = list(experiments.figure6(workers=args.workers))
    for figure in figures:
        print(render_figure(figure))
    return 0


def _cmd_exp4(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.core.experiments.exp4 import (
        DEFAULT_POLICIES,
        DEFAULT_SCENARIOS,
        policy_comparison,
    )

    policies = (
        tuple(args.policies) if args.policies else DEFAULT_POLICIES
    )
    named = dict(DEFAULT_SCENARIOS)
    if args.scenarios:
        scenarios = []
        for item in args.scenarios:
            if "=" in item:
                name, _, spec = item.partition("=")
                scenarios.append((name, spec))
            elif item in named:
                scenarios.append((item, named[item]))
            else:
                print(
                    f"error: unknown scenario {item!r}; use name=spec "
                    f"or one of: {', '.join(named)}",
                    file=sys.stderr,
                )
                return 2
    else:
        scenarios = list(DEFAULT_SCENARIOS)

    report = policy_comparison(
        policies=policies,
        scenarios=tuple(scenarios),
        slo_latency=args.slo_ms / 1e3,
        quick=args.quick,
        seed=args.seed,
        workers=args.workers,
    )
    rows = []
    for cell in report["cells"]:
        if cell.get("determinism_error"):
            rows.append(
                [cell["policy"], cell["scenario"], "DET-ERROR",
                 "", "", ""]
            )
            continue
        rows.append(
            [
                cell["policy"],
                cell["scenario"],
                f"{cell['slo_violation_s']:.3f}",
                f"{cell['resource_hours'] * 3600.0:.2f}",
                f"{cell['rescales']:.1f}",
                f"{cell['p50_latency_ms']:.1f}",
            ]
        )
    print(
        render_table(
            [
                "policy", "scenario", "SLO viol (s)",
                "resource (s)", "rescales", "p50 (ms)",
            ],
            rows,
            title=(
                f"exp4: elastic policies x scenarios "
                f"(SLO {args.slo_ms:g} ms"
                + (", quick)" if args.quick else ")")
            ),
        )
    )
    if args.json_out:
        Path(args.json_out).write_text(
            json_module.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json_out}")
    failed = [c for c in report["cells"] if c.get("determinism_error")]
    for cell in failed:
        print(
            f"determinism error [{cell['policy']}/{cell['scenario']}]: "
            f"{cell['determinism_error']}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _cmd_exp5(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.core.experiments.exp5 import (
        DEFAULT_DELIVERIES,
        DEFAULT_INTERVALS_MS,
        DEFAULT_SCENARIOS,
        recovery_grid,
    )

    intervals = (
        tuple(args.intervals_ms)
        if args.intervals_ms
        else DEFAULT_INTERVALS_MS
    )
    named = dict(DEFAULT_SCENARIOS)
    if args.scenarios:
        scenarios = []
        for item in args.scenarios:
            if "=" in item:
                name, _, spec = item.partition("=")
                scenarios.append((name, spec))
            elif item in named:
                scenarios.append((item, named[item]))
            else:
                print(
                    f"error: unknown scenario {item!r}; use name=spec "
                    f"or one of: {', '.join(named)}",
                    file=sys.stderr,
                )
                return 2
    else:
        scenarios = list(DEFAULT_SCENARIOS)
    deliveries = (
        tuple(args.deliveries) if args.deliveries else DEFAULT_DELIVERIES
    )

    report = recovery_grid(
        intervals_ms=intervals,
        scenarios=tuple(scenarios),
        deliveries=deliveries,
        quick=args.quick,
        seed=args.seed,
        workers=args.workers,
    )
    rows = []
    for cell in report["cells"]:
        rows.append(
            [
                f"{cell['interval_ms']:g}",
                cell["scenario"],
                cell["delivery"],
                f"{cell['checkpoints']}",
                f"{cell['recovery_time_s'] * 1e3:.1f}",
                f"{cell['replayed_events']}",
                f"{cell['duplicate_results']}",
                f"{cell['missing_vs_oracle']}/{cell['extra_vs_oracle']}",
            ]
        )
    print(
        render_table(
            [
                "ckpt (ms)", "scenario", "delivery", "ckpts",
                "recovery (ms)", "replayed", "dups", "miss/extra",
            ],
            rows,
            title=(
                f"exp5: checkpoint recovery grid "
                f"({report['oracle_results']} oracle results"
                + (", quick)" if args.quick else ")")
            ),
        )
    )
    if args.json_out:
        Path(args.json_out).write_text(
            json_module.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json_out}")
    bad = [
        c
        for c in report["cells"]
        if c["determinism_errors"]
        or c["missing_vs_oracle"]
        or (c["delivery"] == "exactly_once" and c["extra_vs_oracle"])
    ]
    for cell in bad:
        print(
            f"correctness violation "
            f"[{cell['interval_ms']:g}ms/{cell['scenario']}/"
            f"{cell['delivery']}]: "
            f"missing={cell['missing_vs_oracle']} "
            f"extra={cell['extra_vs_oracle']} "
            f"determinism_errors={cell['determinism_errors']}",
            file=sys.stderr,
        )
    return 1 if bad else 0


def _resolve_app(name: str) -> str:
    """Resolve an app given by abbreviation or (normalised) full name.

    ``wordcount``, ``word-count`` and ``Word Count`` all resolve to
    ``WC``; raises :class:`ConfigurationError` with the known names on
    a miss.
    """
    from repro.apps import APP_INFOS

    def norm(s: str) -> str:
        return "".join(c for c in s.lower() if c.isalnum())

    wanted = norm(name)
    for abbrev, info in APP_INFOS.items():
        if wanted in (norm(abbrev), norm(info.name)):
            return abbrev
    known = ", ".join(
        f"{a} ({info.name})" for a, info in APP_INFOS.items()
    )
    raise ConfigurationError(f"unknown app {name!r}; known apps: {known}")


def _cmd_trace(args) -> int:
    from pathlib import Path

    from repro.common.rng import RngFactory
    from repro.obs import EngineObserver, MetricsRegistry, SpanTracer
    from repro.obs.export import write_chrome_trace, write_metrics_jsonl
    from repro.sps.engine import SimulationConfig, StreamEngine
    from repro.sps.logical_kinds import OperatorKind
    from repro.workload.generator import (
        WorkloadGenerator,
        scale_plan_costs,
    )

    from repro.common.errors import SimulationError

    cluster = _cluster_from_args(args)
    dilation = args.dilation
    if args.structure is not None:
        generator = WorkloadGenerator(seed=args.seed)
        query = generator.generate_one(
            cluster,
            QueryStructure(args.structure),
            event_rate=args.rate / dilation,
        )
        plan = query.plan
        target = args.structure
    else:
        from repro.apps import build_app

        try:
            abbrev = _resolve_app(args.app)
        except ConfigurationError as exc:
            print(f"trace: {exc}", file=sys.stderr)
            return 2
        plan = build_app(
            abbrev, event_rate=args.rate / dilation
        ).plan
        target = abbrev
    if dilation != 1.0:
        scale_plan_costs(plan, dilation)
    plan.set_uniform_parallelism(args.parallelism)

    registry = MetricsRegistry()
    tracer = SpanTracer()
    observer = EngineObserver(
        registry=registry,
        tracer=tracer,
        sample_interval=args.sample_interval,
    )
    engine = StreamEngine(
        plan,
        cluster,
        config=SimulationConfig(
            max_tuples_per_source=args.max_tuples,
            max_sim_time=args.sim_time,
        ),
        # Same seed derivation as BenchmarkRunner repeat 0, so the
        # trace profiles exactly the run the benchmarks measure.
        rng_factory=RngFactory(args.seed * 1000),
        observer=observer,
    )
    try:
        metrics = engine.run()
    except SimulationError as exc:
        print(
            f"trace: {exc}\n(try a larger --max-tuples or --sim-time)",
            file=sys.stderr,
        )
        return 1
    summary = observer.summary()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = write_chrome_trace(
        tracer,
        out / "trace.json",
        process_names=observer.process_names(),
        thread_names=observer.thread_names(),
    )
    metrics_path = write_metrics_jsonl(
        registry,
        out / "metrics.jsonl",
        meta={
            "target": target,
            "plan": plan.name,
            "parallelism": args.parallelism,
            "event_rate": args.rate,
            "dilation": dilation,
            "seed": args.seed,
            "results": metrics.results,
            "throughput": metrics.throughput,
            "median_latency_ms": metrics.median_latency_ms,
            "sim_duration": metrics.sim_duration,
        },
        summaries=summary["ops"],
    )

    rows = [
        [
            op,
            entry["subtasks"],
            entry["tuples_in"],
            entry["tuples_out"],
            round(entry["busy_s"], 4),
            int(entry["shuffle_bytes"]),
            entry["queue_peak"],
        ]
        for op, entry in summary["ops"].items()
    ]
    print(
        render_table(
            ["operator", "subtasks", "in", "out", "busy (s)",
             "shuffle (B)", "queue peak"],
            rows,
            title=f"trace of {target} @ parallelism "
            f"{args.parallelism}, {args.rate:g} ev/s",
        )
    )
    print(f"results: {metrics.results}  "
          f"throughput: {metrics.throughput:.1f} res/s  "
          f"median latency: {metrics.median_latency_ms:.2f} ms")
    print(f"trace events: {len(tracer.events)}  "
          f"metric samples: {len(registry.series)}")
    print(f"wrote {trace_path} and {metrics_path}")

    # Cross-check: every result the run reports must have arrived at a
    # sink, so sink tuples_in sums to the reported result count.
    sink_in = sum(
        summary["ops"][op.op_id]["tuples_in"]
        for op in plan.operators_in_order()
        if op.kind is OperatorKind.SINK
    )
    if sink_in != metrics.results:
        print(
            f"ERROR: sink tuples_in ({sink_in}) != reported results "
            f"({metrics.results})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_tables(args) -> int:
    if args.which == "1":
        print(render_table1())
    elif args.which == "2":
        return _cmd_list_apps()
    else:
        from repro.cluster import HARDWARE_CATALOG

        rows = [
            [
                spec.name, spec.cores, spec.ram_gb, spec.disk_gb,
                spec.processor, spec.clock_ghz, spec.nic_gbps,
            ]
            for spec in HARDWARE_CATALOG.values()
        ]
        print(
            render_table(
                ["node", "cores", "RAM GB", "disk GB", "processor",
                 "GHz", "NIC Gbps"],
                rows,
                title="Table 4: hardware configuration",
            )
        )
    return 0


def _lint_targets(args) -> list:
    """(name, LogicalPlan) pairs selected by the lint-plan options."""
    from repro.apps import REGISTRY, build_app

    targets = []
    abbrevs = []
    if args.all_apps or (not args.app and args.structure is None):
        abbrevs = sorted(REGISTRY)
    elif args.app:
        abbrevs = [a.upper() for a in args.app]
    for abbrev in abbrevs:
        app = build_app(abbrev, event_rate=args.rate, seed=args.seed)
        app.set_parallelism(args.parallelism)
        targets.append((abbrev, app.plan))
    if args.structure is not None:
        from repro.workload.generator import WorkloadGenerator

        generator = WorkloadGenerator(seed=args.seed)
        query = generator.generate_one(
            _cluster_from_args(args),
            QueryStructure(args.structure),
            event_rate=args.rate,
        )
        targets.append((args.structure, query.plan))
    return targets


def _cmd_lint_plan(args) -> int:
    import json as json_module

    from repro.analysis import RULE_CATALOG, analyze_plan

    if args.list_rules:
        rows = [
            [spec.code, spec.family, spec.severity.value, spec.title]
            for spec in RULE_CATALOG.values()
        ]
        print(
            render_table(
                ["code", "family", "severity", "rule"],
                rows,
                title="static plan analysis rule catalogue",
            )
        )
        return 0

    cluster = _cluster_from_args(args)
    checkpoint_interval = (
        args.checkpoint_ms / 1000.0
        if args.checkpoint_ms is not None
        else None
    )
    reports = [
        (
            name,
            analyze_plan(
                plan,
                cluster=cluster,
                batch=args.batch,
                checkpoint_interval=checkpoint_interval,
                shards=args.shards,
            ),
        )
        for name, plan in _lint_targets(args)
    ]
    failed = False
    for _, report in reports:
        if report.has_errors:
            failed = True
        elif args.strict and report.warnings():
            failed = True
    if args.output_format == "json":
        print(
            json_module.dumps(
                [
                    json_module.loads(report.to_json())
                    for _, report in reports
                ],
                indent=2,
            )
        )
    else:
        for name, report in reports:
            if report.is_clean:
                print(f"{name}: clean")
            else:
                print(report.format())
        verdict = "FAILED" if failed else "ok"
        print(
            f"linted {len(reports)} plan(s)"
            f"{' (strict)' if args.strict else ''}: {verdict}"
        )
    return 1 if failed else 0


def _sanitize_runtime_report(abbrev: str, args):
    """One short race-detected run of an app; its findings as a report."""
    from repro.analysis.diagnostics import AnalysisReport
    from repro.apps import build_app
    from repro.sps.engine import SimulationConfig, StreamEngine

    app = build_app(abbrev, event_rate=args.rate, seed=args.seed)
    app.set_parallelism(args.parallelism)
    engine = StreamEngine(
        app.plan,
        homogeneous_cluster(num_nodes=4),
        config=SimulationConfig(
            max_tuples_per_source=500, max_sim_time=2.0
        ),
        sanitize=True,
    )
    engine.run()
    report: AnalysisReport = engine.race_detector.report(
        plan_name=f"{abbrev} (runtime)"
    )
    return report


def _cmd_sanitize(args) -> int:
    import json as json_module
    from pathlib import Path

    from repro.analysis import RULE_CATALOG, sanitize_app, sanitize_paths

    if args.list_rules:
        rows = [
            [spec.code, spec.severity.value, spec.title]
            for spec in RULE_CATALOG.values()
            if spec.family == "determinism"
        ]
        print(
            render_table(
                ["code", "severity", "rule"],
                rows,
                title="determinism sanitizer rule family",
            )
        )
        return 0

    reports = []
    if args.paths:
        reports.extend(sanitize_paths(args.paths))
    abbrevs = []
    if args.all_apps:
        from repro.apps import REGISTRY

        abbrevs = sorted(REGISTRY)
    elif args.app:
        try:
            abbrevs = [_resolve_app(name) for name in args.app]
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for abbrev in abbrevs:
        reports.append((abbrev, sanitize_app(abbrev)))
        if args.runtime:
            runtime_report = _sanitize_runtime_report(abbrev, args)
            reports.append((runtime_report.plan_name, runtime_report))
    if not reports:
        # No explicit target: sanitize the installed package tree.
        import repro

        tree = Path(repro.__file__).parent
        reports.extend(sanitize_paths([tree]))

    failed = False
    for _, report in reports:
        if report.has_errors:
            failed = True
        elif args.strict and report.warnings():
            failed = True
    if args.output_format == "json":
        print(
            json_module.dumps(
                [
                    json_module.loads(report.to_json())
                    for _, report in reports
                ],
                indent=2,
            )
        )
    else:
        dirty = [
            (name, report)
            for name, report in reports
            if not report.is_clean
        ]
        for _, report in dirty:
            print(report.format())
        verdict = "FAILED" if failed else "ok"
        print(
            f"sanitized {len(reports)} target(s), "
            f"{len(dirty)} with findings"
            f"{' (strict)' if args.strict else ''}: {verdict}"
        )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    A value the library refuses (:class:`ReproError`) is a usage error
    like a malformed argument: one ``repro: error:`` line on stderr and
    exit status 2, as argparse reports its own, not a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "list-apps":
        return _cmd_list_apps()
    if args.command == "run-app":
        return _cmd_run_app(args)
    if args.command == "run-suite":
        return _cmd_run_suite(args)
    if args.command == "run-synthetic":
        return _cmd_run_synthetic(args)
    if args.command == "throughput":
        return _cmd_throughput(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "exp4":
        return _cmd_exp4(args)
    if args.command == "exp5":
        return _cmd_exp5(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "tables":
        return _cmd_tables(args)
    if args.command == "lint-plan":
        return _cmd_lint_plan(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
