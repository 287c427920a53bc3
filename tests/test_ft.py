"""Fault tolerance: checkpoints, recovery, delivery guarantees, exp5.

Covers the aligned-barrier checkpoint protocol end to end (state store
lifecycle, barrier alignment, snapshot/restore), the node-failure
recovery path under both delivery guarantees, the checkpoint-off loss
accounting the chaos failure now performs, the FT7xx readiness rules,
the observability hooks, and the exp5 recovery grid.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.analysis import analyze_plan
from repro.cluster import homogeneous_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import RngFactory
from repro.core.experiments.exp5 import (
    ft_workload_plan,
    recovery_grid,
    run_ft_cell,
)
from repro.core.runner import RunnerConfig
from repro.ft import (
    CheckpointRecord,
    StateStore,
    estimate_items,
    validate_delivery,
)
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.operators.sink import SinkLogic
from repro.sps.types import DataType, Field, Schema
from tests.conftest import kv_generator

_SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])

#: Failure windows for the standard FT workload (see
#: :func:`repro.core.experiments.exp5.ft_workload_plan`): source
#: generation completes by ~0.1 s simulated and the aggregation backlog
#: drains by ~0.55 s, so these failures always find work in flight.
_EARLY = "failure:at=0.3,duration=0.1"
_LATE = "failure:at=0.45,duration=0.1"


def _run(
    scenario=None,
    delivery="exactly_once",
    checkpoint_interval=0.05,
    seed=7,
    observer=None,
    **cfg_kwargs,
):
    config = SimulationConfig(
        max_tuples_per_source=300,
        max_sim_time=3.0,
        warmup_fraction=0.0,
        keep_sink_values=True,
        scenario=scenario,
        delivery=delivery,
        checkpoint_interval=checkpoint_interval,
        **cfg_kwargs,
    )
    engine = StreamEngine(
        ft_workload_plan(),
        homogeneous_cluster(num_nodes=4),
        config=config,
        rng_factory=RngFactory(seed),
        observer=observer,
    )
    metrics = engine.run()
    values = sorted(
        v
        for rt in engine._runtimes
        if isinstance(rt.logic, SinkLogic)
        for v in rt.logic.results
    )
    return metrics, values


class TestConfigValidation:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError, match="positive"):
            SimulationConfig(checkpoint_interval=0.0)

    def test_rejects_unknown_delivery(self):
        with pytest.raises(ValueError, match="delivery"):
            SimulationConfig(delivery="maybe_once")

    def test_rejects_batch_mode(self):
        with pytest.raises(ConfigurationError, match="batch"):
            SimulationConfig(checkpoint_interval=0.1, batch_size=64)

    def test_rejects_autoscale(self):
        with pytest.raises(ConfigurationError, match="rescal"):
            SimulationConfig(
                checkpoint_interval=0.1, autoscale="reactive:high=4"
            )

    def test_runner_config_validates(self):
        with pytest.raises(ConfigurationError, match="checkpoint_ms"):
            RunnerConfig(checkpoint_ms=-1.0)
        with pytest.raises(ValueError, match="delivery"):
            RunnerConfig(delivery="exactly_twice")
        cfg = RunnerConfig(checkpoint_ms=50.0, delivery="at_least_once")
        assert cfg.checkpoint_ms == 50.0


class TestStateStore:
    def test_lifecycle(self):
        store = StateStore()
        record = store.begin(1.0)
        assert store.active is record
        with pytest.raises(RuntimeError):
            store.begin(1.5)
        store.add_snapshot(3, [("a", 1.0)])
        record.emit_seqs[3] = 7
        completed = store.complete(2.0)
        assert completed is record
        assert store.active is None
        assert completed.duration_s == pytest.approx(1.0)
        assert completed.state_items == 1
        assert store.latest() is completed
        assert store.duration_mean_s() == pytest.approx(1.0)

    def test_skip_and_abort(self):
        store = StateStore()
        store.skip()
        record = store.begin(1.0)
        store.abort()
        assert store.active is None
        assert store.latest() is None
        assert store.skipped == 1
        assert record.completed_at == 0.0

    def test_only_newest_record_keeps_snapshots(self):
        store = StateStore()
        for n in range(1, 4):
            store.begin(float(n))
            store.add_snapshot(0, [("k", n)] * n)
            store.complete(n + 0.5)
        *older, newest = store.completed
        assert [r.snapshots for r in older] == [{}, {}]
        assert newest.snapshots == {0: [("k", 3)] * 3}
        # accounting survives the release
        assert [r.state_items for r in store.completed] == [1, 2, 3]
        assert [r.state_bytes for r in store.completed] == [48.0, 96.0, 144.0]
        assert store.duration_mean_s() == pytest.approx(0.5)
        # an aborted checkpoint supersedes nothing
        store.begin(4.0)
        store.add_snapshot(0, [("k", 4)])
        store.abort()
        assert store.latest() is newest
        assert newest.snapshots == {0: [("k", 3)] * 3}

    def test_estimate_items(self):
        assert estimate_items(None) == 0
        assert estimate_items([("a", 1), ("b", 2)]) == 2
        assert estimate_items({"x": 1}) == 1
        assert estimate_items(([1, 2, 3], None, 0.5)) == 3
        assert estimate_items(42) == 1

    def test_validate_delivery(self):
        validate_delivery("exactly_once")
        validate_delivery("at_least_once")
        with pytest.raises(ValueError):
            validate_delivery("at_most_once")


class TestCheckpointing:
    def test_checkpoints_complete_without_failure(self):
        metrics, values = _run()
        ft = metrics.extras["ft"]
        assert ft["checkpoints_completed"] >= 1
        assert ft["recoveries"] == 0
        assert ft["replayed_events"] == 0
        assert ft["state_items"] > 0
        assert ft["state_bytes"] > 0
        assert len(ft["log"]) == ft["checkpoints_completed"]
        for entry in ft["log"]:
            assert entry["duration_s"] > 0

    def test_barriers_do_not_change_results(self):
        _, plain = _run(checkpoint_interval=None)
        _, checkpointed = _run()
        assert checkpointed == plain

    def test_no_ft_extras_when_off(self):
        metrics, _ = _run(checkpoint_interval=None)
        assert "ft" not in metrics.extras

    def test_run_twice_is_bit_identical(self):
        m1, v1 = _run(scenario=_LATE)
        m2, v2 = _run(scenario=_LATE)
        assert v1 == v2
        assert json.dumps(m1.to_dict(), sort_keys=True) == json.dumps(
            m2.to_dict(), sort_keys=True
        )


class TestRecovery:
    def test_exactly_once_matches_failure_free(self):
        _, oracle = _run(checkpoint_interval=None)
        metrics, recovered = _run(scenario=_LATE)
        ft = metrics.extras["ft"]
        assert ft["recoveries"] == 1
        assert ft["replayed_events"] > 0
        assert ft["recovery_time_s"] > 0
        assert ft["duplicates_dropped"] > 0
        assert ft["duplicate_results"] == 0
        assert ft["lost_results"] == 0
        assert recovered == oracle

    def test_recovery_restores_from_completed_checkpoint(self):
        metrics, _ = _run(scenario=_LATE)
        ft = metrics.extras["ft"]
        # The 50 ms cadence completes a checkpoint before the 0.45 s
        # failure, so recovery replays a strict suffix of the log.
        assert ft["checkpoints_completed"] >= 1
        assert 0 < ft["replayed_events"] < 300

    def test_recovery_without_checkpoint_replays_everything(self):
        metrics, recovered = _run(scenario=_EARLY, checkpoint_interval=0.2)
        ft = metrics.extras["ft"]
        assert ft["recoveries"] == 1
        assert ft["replayed_events"] == 300
        _, oracle = _run(checkpoint_interval=None)
        assert recovered == oracle

    def test_two_failures_restore_from_one_record(self):
        """One checkpoint seeds several recoveries: the second failure
        hits while the instances restored by the first are replaying,
        before any newer checkpoint completes, and restores the same
        record again — unharmed by what the first restore did with it."""
        from repro.obs import EngineObserver

        restored_from = []

        class Recorder(EngineObserver):
            def on_recovery(self, engine, node_id, pause_s, replayed, ckpt_id):
                super().on_recovery(
                    engine, node_id, pause_s, replayed, ckpt_id
                )
                restored_from.append((ckpt_id, replayed))

        _, oracle = _run(checkpoint_interval=None)
        metrics, recovered = _run(
            scenario="failure:at=0.45,duration=0.02"
            "+failure:at=0.48,duration=0.02",
            observer=Recorder(sample_interval=0.1),
        )
        assert len(restored_from) == 2
        (first, replayed), second = restored_from
        assert first is not None and 0 < replayed < 300
        assert second == (first, replayed)
        ft = metrics.extras["ft"]
        assert ft["recoveries"] == 2
        assert ft["duplicate_results"] == 0 and ft["lost_results"] == 0
        assert recovered == oracle

    def test_at_least_once_is_superset_with_duplicates(self):
        _, oracle = _run(checkpoint_interval=None)
        metrics, recovered = _run(scenario=_LATE, delivery="at_least_once")
        ft = metrics.extras["ft"]
        missing = Counter(oracle) - Counter(recovered)
        extra = Counter(recovered) - Counter(oracle)
        assert not missing
        assert sum(extra.values()) == ft["duplicate_results"]
        assert ft["duplicate_results"] > 0
        assert ft["duplicates_dropped"] == 0
        assert ft["lost_results"] == 0


class TestFailureWithoutCheckpointing:
    def test_state_loss_is_accounted(self):
        metrics, values = _run(scenario=_LATE, checkpoint_interval=None)
        loss = metrics.extras["elastic"]["state_loss"]
        assert loss["failed_subtasks"] > 0
        assert loss["lost_keys"] > 0
        assert "ft" not in metrics.extras

    def test_loss_means_fewer_results(self):
        _, oracle = _run(checkpoint_interval=None)
        _, lossy = _run(scenario=_LATE, checkpoint_interval=None)
        missing = Counter(oracle) - Counter(lossy)
        assert missing  # the failure really dropped state/queued input

    def test_failed_sources_account_dropped_tuples(self):
        # A 1.0 s outage covers the whole generation span, so a source
        # failing at t=0.02 drops most of its budget.
        metrics, _ = _run(
            scenario="failure:at=0.02,duration=1.0",
            checkpoint_interval=None,
        )
        loss = metrics.extras["elastic"]["state_loss"]
        total = (
            loss["lost_source_tuples"]
            + loss["lost_keys"]
            + loss["lost_tuples"]
        )
        assert total > 0


class TestObservability:
    def test_obs_summary_has_ft_section(self):
        from repro.obs import EngineObserver

        observer = EngineObserver(sample_interval=0.1)
        config = SimulationConfig(
            max_tuples_per_source=300,
            max_sim_time=3.0,
            warmup_fraction=0.0,
            scenario=_LATE,
            checkpoint_interval=0.05,
        )
        engine = StreamEngine(
            ft_workload_plan(),
            homogeneous_cluster(num_nodes=4),
            config=config,
            rng_factory=RngFactory(7),
            observer=observer,
        )
        metrics = engine.run()
        summary = observer.summary()
        ft = summary["ft"]
        assert ft["checkpoints"] == metrics.extras["ft"][
            "checkpoints_completed"
        ]
        assert ft["recoveries"] == 1
        assert ft["recovery_time_s"] > 0
        assert ft["replayed_events"] == metrics.extras["ft"][
            "replayed_events"
        ]

    def test_sanitized_run_is_clean_and_labels_incarnations(self):
        ft, _ = run_ft_cell(
            homogeneous_cluster(num_nodes=4), _LATE, 0.05, "exactly_once", 7
        )
        assert ft["determinism_errors"] == 0
        assert ft["recoveries"] == 1


class TestFtLintRules:
    def _plan(self, replayable=True):
        plan = ft_workload_plan()
        if not replayable:
            plan.operator("src").metadata["replayable"] = False
        return plan

    def test_silent_without_interval(self):
        report = analyze_plan(self._plan(replayable=False))
        assert not [d for d in report.diagnostics if d.code.startswith("FT")]

    def test_ft701_non_replayable_source(self):
        report = analyze_plan(
            self._plan(replayable=False), checkpoint_interval=0.1
        )
        codes = [d.code for d in report.diagnostics]
        assert "FT701" in codes

    def test_ft701_via_builder_flag(self):
        from repro.sps.logical import LogicalPlan

        plan = LogicalPlan("nonreplayable")
        plan.add_operator(
            builders.source(
                "src",
                kv_generator(),
                _SCHEMA,
                event_rate=1000.0,
                replayable=False,
            )
        )
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "sink")
        report = analyze_plan(plan, checkpoint_interval=0.1)
        assert "FT701" in [d.code for d in report.diagnostics]

    def test_ft702_opaque_udo_state(self):
        from repro.sps.operators.base import OperatorLogic

        class OpaqueLogic(OperatorLogic):
            def process(self, tup, now, port=0):
                return [tup]

        plan = LogicalPlanFactory.opaque_udo(OpaqueLogic)
        report = analyze_plan(plan, checkpoint_interval=0.1)
        assert "FT702" in [d.code for d in report.diagnostics]

    def test_ft703_interval_below_round_trip(self):
        report = analyze_plan(self._plan(), checkpoint_interval=1e-6)
        codes = [d.code for d in report.diagnostics]
        assert "FT703" in codes
        report_ok = analyze_plan(self._plan(), checkpoint_interval=1.0)
        assert "FT703" not in [d.code for d in report_ok.diagnostics]


class LogicalPlanFactory:
    """Tiny helpers building deliberately deficient plans."""

    @staticmethod
    def opaque_udo(logic_cls):
        from repro.sps.logical import LogicalPlan

        plan = LogicalPlan("opaque-udo")
        plan.add_operator(
            builders.source(
                "src", kv_generator(), _SCHEMA, event_rate=1000.0
            )
        )
        plan.add_operator(builders.udo("u", logic_cls, parallelism=1))
        plan.add_operator(builders.sink("sink"))
        plan.connect("src", "u")
        plan.connect("u", "sink")
        return plan


class TestExp5Grid:
    def test_quick_grid_runs_and_is_deterministic(self):
        report = recovery_grid(quick=True)
        again = recovery_grid(quick=True)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            assert cell["determinism_errors"] == 0
            assert cell["recoveries"] == 1
            assert cell["checkpoints"] >= 1
            assert cell["missing_vs_oracle"] == 0
            if cell["delivery"] == "exactly_once":
                assert cell["extra_vs_oracle"] == 0
            else:
                assert (
                    cell["extra_vs_oracle"] == cell["duplicate_results"]
                )

    def test_grid_workers_match_serial(self):
        kwargs = dict(
            intervals_ms=(50.0,),
            scenarios=(("late-failure", _LATE),),
            quick=False,
        )
        serial = recovery_grid(workers=1, **kwargs)
        pooled = recovery_grid(workers=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            pooled, sort_keys=True
        )

    def test_cli_exp5_quick(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "exp5.json"
        code = main(["exp5", "--quick", "--json-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["experiment"] == "exp5"
        assert all(
            c["missing_vs_oracle"] == 0 for c in report["cells"]
        )
        assert "exp5" in capsys.readouterr().out


class TestRunnerIntegration:
    def test_checkpoint_ms_flows_through_runner(self):
        from repro.core.runner import BenchmarkRunner

        runner = BenchmarkRunner(
            homogeneous_cluster(num_nodes=4),
            RunnerConfig(
                repeats=1,
                max_tuples_per_source=300,
                max_sim_time=3.0,
                warmup_fraction=0.0,
                checkpoint_ms=50.0,
                scenario=_LATE,
            ),
        )
        runs = runner.run_plan(ft_workload_plan())
        ft = runs[0].extras["ft"]
        assert ft["checkpoint_interval"] == pytest.approx(0.05)
        assert ft["recoveries"] == 1

    def test_checkpoint_record_dataclass(self):
        record = CheckpointRecord(ckpt_id=1, triggered_at=0.5)
        record.completed_at = 0.75
        assert record.duration_s == pytest.approx(0.25)
