"""The benchmark runner.

Executes plans on the discrete-event engine with the paper's measurement
protocol: each configuration runs ``repeats`` times (paper: three), each
run's *median* latency is taken, and the mean of those medians is reported.

**Time dilation.** The paper streams 100k events/s for minutes; simulating
every one of those tuples in Python is wasteful when the quantities of
interest are utilisation-driven. The runner therefore builds dilated plans:
sources emit at ``rate / dilation`` while every operator's per-tuple cost is
multiplied by ``dilation``. Per-instance utilisation — hence saturation
behaviour, speedups and the parallelism paradox — is *exactly* preserved;
simulated wall-clock stretches so Table 3 window durations still span many
arrivals. DESIGN.md discusses the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import build_app
from repro.apps.base import AppQuery
from repro.cluster.cluster import Cluster
from repro.common.errors import ConfigurationError, check_count, check_time
from repro.common.rng import RngFactory
from repro.core.parallel import ParallelRunner
from repro.sps.capabilities import check, features_of
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.metrics import RunMetrics, aggregate_runs
from repro.sps.placement import PlacementStrategy
from repro.workload.generator import scale_plan_costs

__all__ = ["RunnerConfig", "BenchmarkRunner"]


@dataclass(frozen=True)
class RunnerConfig:
    """Measurement protocol knobs.

    ``workers`` fans the independent repeats of each configuration out to
    a process pool (see :mod:`repro.core.parallel`); 1 keeps the serial
    in-process loop. Results are identical either way — each repeat's
    seed is derived from (seed, repeat) alone.

    ``observe`` attaches a registry-only
    :class:`~repro.obs.EngineObserver` to every run: each repeat's
    :class:`RunMetrics` then carries a per-operator observability
    summary in ``extras["obs"]`` (sampled every ``obs_sample_interval``
    simulated seconds), and :meth:`BenchmarkRunner.measure` adds the
    repeat-merged summary under the ``"obs"`` key. Observation never
    changes simulated results (DESIGN.md §8).

    ``batch_size`` switches every run onto the columnar micro-batch
    executor (:mod:`repro.sps.batch`) with that many tuples per
    micro-batch; ``None`` (the default) keeps the scalar event loop,
    bit-identical to runs made before batch mode existed.

    ``sanitize`` runs the determinism sanitizer around every repeat:
    the static AST pass over the plan's operator source modules before
    anything executes, a :class:`~repro.analysis.racecheck.RaceDetector`
    inside every engine, a fork-capture check on the fan-out closure,
    and — when ``workers > 1`` — a serial reference run whose RNG-draw
    ledger must match the pooled first repeat (DET609). ERROR findings
    raise :class:`~repro.common.errors.DeterminismError`; findings and
    ledgers ride along in ``extras["race"]``. ``sanitize=False`` runs
    are bit-identical to runs made before the sanitizer existed
    (DESIGN.md §10).
    """

    repeats: int = 3
    dilation: float = 20.0
    max_tuples_per_source: int = 6000
    max_sim_time: float = 6.0
    warmup_fraction: float = 0.1
    seed: int = 0
    workers: int = 1
    observe: bool = False
    obs_sample_interval: float = 0.25
    sanitize: bool = False
    batch_size: int | None = None
    #: elastic runtime (DESIGN.md §12): autoscale policy spec string
    #: (``"reactive:high=16"``), scenario spec string
    #: (``"spike:at=0.5+failure:at=1.0"``), explicit rescale events, the
    #: control cadence, and the latency SLO the violation metric uses.
    #: Specs stay strings so a frozen config crosses process pools.
    autoscale: str | None = None
    autoscale_interval: float = 0.5
    scenario: str | None = None
    rescales: tuple = ()
    slo_latency: float | None = None
    #: fault tolerance (DESIGN.md §13): aligned-barrier checkpoint
    #: interval in milliseconds (``None`` keeps checkpointing off and
    #: the engine bit-identical to pre-FT runs) and the delivery
    #: guarantee applied on recovery (``"exactly_once"`` dedupes
    #: replayed results at the sink, ``"at_least_once"`` lets the
    #: duplicates through and accounts them).
    checkpoint_ms: float | None = None
    delivery: str = "exactly_once"
    #: sharded execution (DESIGN.md §14): partition the simulated
    #: cluster by placement node onto this many kernel shards and run
    #: them as forked processes under the conservative epoch protocol.
    #: ``None`` (the default) keeps the single-kernel event loop; any
    #: ``K`` (including 1) gives results invariant in ``K`` and in the
    #: transport, equal to the unsharded run's up to the instant of the
    #: end-of-stream flush. With ``sanitize`` the
    #: forked run's RNG ledger is cross-checked against an in-process
    #: reference run (DET609).
    shards: int | None = None

    def __post_init__(self) -> None:
        check_count("repeats", self.repeats)
        check_count("workers", self.workers)
        if self.checkpoint_ms is not None:
            check_time("checkpoint_ms", self.checkpoint_ms)
        check_time("dilation", self.dilation)
        check_time("obs_sample_interval", self.obs_sample_interval)
        if self.shards is not None and self.workers > 1:
            raise ConfigurationError(
                "shards and workers > 1 both fork processes; "
                "pick repeat-level or intra-run parallelism"
            )
        # Everything else is the engine's to refuse: the values by the
        # SimulationConfig every run will use, the feature pairs by the
        # one table (DESIGN.md §4, "What composes").
        check(
            features_of(
                self.sim_config(), self.observe or None, self.sanitize
            )
        )

    def sim_config(self) -> SimulationConfig:
        """The engine configuration every run of this protocol uses."""
        return SimulationConfig(
            max_tuples_per_source=self.max_tuples_per_source,
            max_sim_time=self.max_sim_time,
            warmup_fraction=self.warmup_fraction,
            batch_size=self.batch_size,
            autoscale=self.autoscale,
            autoscale_interval=self.autoscale_interval,
            scenario=self.scenario,
            rescales=tuple(self.rescales),
            slo_latency=self.slo_latency,
            checkpoint_interval=(
                None
                if self.checkpoint_ms is None
                else self.checkpoint_ms / 1000.0
            ),
            delivery=self.delivery,
            shards=self.shards,
        )


class BenchmarkRunner:
    """Runs plans on a cluster and aggregates metrics per the paper."""

    def __init__(
        self,
        cluster: Cluster,
        config: RunnerConfig | None = None,
        placement: PlacementStrategy | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or RunnerConfig()
        self.placement = placement

    # ------------------------------------------------------------ building

    def prepare_app(
        self,
        abbrev: str,
        parallelism: int,
        event_rate: float = 100_000.0,
    ) -> AppQuery:
        """Build an application plan, dilated, at one parallelism degree."""
        dilation = self.config.dilation
        query = build_app(abbrev, event_rate=event_rate / dilation)
        if dilation != 1.0:
            scale_plan_costs(query.plan, dilation)
        query.plan.set_uniform_parallelism(parallelism)
        query.params["parallelism"] = parallelism
        query.params["nominal_event_rate"] = event_rate
        query.params["dilation"] = dilation
        return query

    # ------------------------------------------------------------- running

    def run_plan(self, plan: LogicalPlan) -> list[RunMetrics]:
        """Run one plan ``repeats`` times with independent randomness.

        Repeats are independent simulations whose seeds depend only on
        ``(config.seed, repeat)``, so with ``config.workers > 1`` they
        fan out to a process pool with bit-identical results.
        """
        sim_config = self.config.sim_config()
        observe = self.config.observe
        sanitize = self.config.sanitize
        if sanitize:
            self._static_sanitize(plan)

        def one_repeat(repeat: int, force_inline: bool = False) -> RunMetrics:
            observer = None
            if observe:
                from repro.obs import EngineObserver

                observer = EngineObserver(
                    sample_interval=self.config.obs_sample_interval,
                    serve_spans=False,
                )
            engine = StreamEngine(
                plan,
                self.cluster,
                placement=self.placement,
                config=sim_config,
                rng_factory=RngFactory(
                    self.config.seed * 1000 + repeat
                ),
                observer=observer,
                sanitize=sanitize,
            )
            if force_inline:
                engine.shard_force_inline = True
            metrics = engine.run()
            if observer is not None:
                metrics.extras["obs"] = observer.summary()
            detector = engine.race_detector
            if detector is not None:
                metrics.extras["race"] = {
                    "findings": [
                        d.to_dict() for d in detector.findings
                    ],
                    "rng_ledger": detector.rng_ledger,
                }
            return metrics

        runs = ParallelRunner(
            workers=self.config.workers, check_captures=sanitize
        ).map(one_repeat, range(self.config.repeats))
        if sanitize:
            self._check_race_findings(plan, runs, one_repeat)
        return runs

    # ---------------------------------------------------------- sanitizing

    def _static_sanitize(self, plan: LogicalPlan) -> None:
        """Layer 1: the AST pass over the plan's operator sources."""
        from repro.analysis.sanitizer import sanitize_plan_sources
        from repro.common.errors import DeterminismError

        report = sanitize_plan_sources(plan)
        if report.has_errors:
            errors = report.errors()
            raise DeterminismError(
                f"static sanitizer rejected plan {plan.name!r}: "
                + "; ".join(
                    f"{d.code} [{d.location}] {d.message}"
                    for d in errors[:5]
                ),
                code=errors[0].code,
            )

    def _check_race_findings(
        self, plan: LogicalPlan, runs: list[RunMetrics], one_repeat
    ) -> None:
        """Layer 2 verdicts: raise on races; cross-check parallel runs.

        With ``workers > 1`` the pooled first repeat is re-run serially
        in-process and its RNG-draw ledger compared against the pooled
        one — equal ledgers prove the fork changed no draw (DET609).
        """
        from repro.analysis.racecheck import compare_ledgers
        from repro.common.errors import DeterminismError

        errors: list[tuple[str, str]] = []
        for repeat, metrics in enumerate(runs):
            race = metrics.extras.get("race") or {}
            for finding in race.get("findings", ()):
                if finding["severity"] == "error":
                    errors.append(
                        (
                            finding["code"],
                            f"repeat {repeat}: {finding['code']} "
                            f"[{finding['op_id']}] {finding['message']}",
                        )
                    )
        if not errors and self.config.workers > 1 and runs:
            pooled = runs[0].extras.get("race", {}).get("rng_ledger", {})
            reference = (
                one_repeat(0).extras.get("race", {}).get("rng_ledger", {})
            )
            for diag in compare_ledgers(reference, pooled):
                errors.append(
                    (
                        diag.code,
                        f"{diag.code} [{diag.location}] {diag.message}",
                    )
                )
        if (
            not errors
            and self.config.shards is not None
            and self.config.shards > 1
            and runs
        ):
            # Same DET609 cross-check for intra-run sharding: the
            # forked shard processes' merged RNG-draw ledger must match
            # an in-process reference run of the same shards.
            forked = runs[0].extras.get("race", {}).get("rng_ledger", {})
            reference = (
                one_repeat(0, force_inline=True)
                .extras.get("race", {})
                .get("rng_ledger", {})
            )
            for diag in compare_ledgers(reference, forked):
                errors.append(
                    (
                        diag.code,
                        f"{diag.code} [{diag.location}] {diag.message}",
                    )
                )
        if errors:
            raise DeterminismError(
                f"race detector rejected plan {plan.name!r}: "
                + "; ".join(message for _, message in errors[:5]),
                code=errors[0][0],
            )

    def measure(self, plan: LogicalPlan) -> dict[str, float]:
        """Mean-of-medians aggregate over the repeats.

        With ``config.observe`` the merged per-operator observability
        summary rides along under the (non-scalar) ``"obs"`` key.
        """
        runs = self.run_plan(plan)
        result = aggregate_runs(runs)
        if self.config.observe:
            from repro.obs import merge_summaries

            result["obs"] = merge_summaries(
                [run.extras.get("obs", {}) for run in runs]
            )
        return result

    def measure_app(
        self,
        abbrev: str,
        parallelism: int,
        event_rate: float = 100_000.0,
    ) -> dict[str, float]:
        """Build, dilate and measure one application configuration."""
        query = self.prepare_app(abbrev, parallelism, event_rate)
        result = self.measure(query.plan)
        result["parallelism"] = float(parallelism)
        return result
