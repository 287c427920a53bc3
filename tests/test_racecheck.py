"""Tests for the runtime race detector and the sanitizing runner path."""

import numpy as np
import pytest

from repro.analysis.racecheck import compare_ledgers
from repro.cluster import homogeneous_cluster
from repro.common.errors import DeterminismError
from repro.common.rng import RngFactory, state_fingerprint
from repro.core import perf
from repro.core.parallel import ParallelRunner, fork_unsafe_captures
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.obs import EngineObserver
from repro.sps import builders
from repro.sps.engine import SimulationConfig, StreamEngine
from repro.sps.logical import LogicalPlan
from repro.sps.operators.base import OperatorLogic
from repro.sps.partitioning import RebalancePartitioner
from repro.sps.types import DataType, Field, Schema
from tests.conftest import kv_generator

SCHEMA = Schema([Field("k", DataType.INT), Field("v", DataType.DOUBLE)])

# The seeded nondeterminism mutation: every subtask of an operator
# draws from this one module-level generator.
_SHARED_RNG = np.random.default_rng(7)  # dsan: ok DET606


class SharedRngLogic(OperatorLogic):
    """Mutant logic that shares one RNG across all its subtasks."""

    def setup(self, ctx):
        super().setup(ctx)
        self._rng = _SHARED_RNG

    def process(self, tup, now, port=0):
        _ = self._rng.random()
        return [tup]


class CleanLogic(OperatorLogic):
    def process(self, tup, now, port=0):
        _ = self.ctx.rng.random()
        return [tup]


def simple_plan(logic_factory, parallelism=2, key_field=None,
                partitioner=None, num_keys=5):
    plan = LogicalPlan("racecheck")
    plan.add_operator(
        builders.source(
            "src", kv_generator(num_keys), SCHEMA, event_rate=400.0
        )
    )
    plan.add_operator(
        builders.udo(
            "udo", logic_factory, parallelism=parallelism,
            key_field=key_field, output_schema=SCHEMA,
        )
    )
    plan.add_operator(builders.sink("sink"))
    plan.connect("src", "udo", partitioner=partitioner)
    plan.connect("udo", "sink")
    return plan


def run_engine(plan, sanitize=True, observer=None, preflight=True,
               seed=3, tuples=200):
    engine = StreamEngine(
        plan,
        homogeneous_cluster(num_nodes=2),
        config=SimulationConfig(
            max_tuples_per_source=tuples, max_sim_time=3.0
        ),
        rng_factory=RngFactory(seed),
        observer=observer,
        preflight=preflight,
        sanitize=sanitize,
    )
    metrics = engine.run()
    return engine, metrics


class TestStateFingerprint:
    def test_equal_iff_same_stream_position(self):
        a = np.random.default_rng(1)
        b = np.random.default_rng(1)
        assert state_fingerprint(a) == state_fingerprint(b)
        a.random()
        assert state_fingerprint(a) != state_fingerprint(b)
        b.random()
        assert state_fingerprint(a) == state_fingerprint(b)

    def test_fingerprint_is_a_pure_read(self):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        state_fingerprint(gen)
        assert gen.bit_generator.state == before


class TestCleanRuns:
    def test_no_findings_on_clean_plan(self):
        engine, _ = run_engine(simple_plan(CleanLogic))
        assert engine.race_detector.findings == []

    def test_ledger_covers_every_subtask_and_arrivals(self):
        engine, _ = run_engine(simple_plan(CleanLogic))
        ledger = engine.race_detector.rng_ledger
        assert "engine/arrivals" not in ledger  # no shared stream
        assert "src[0]/arrivals" in ledger
        for label in ("src[0]", "udo[0]", "udo[1]", "sink[0]"):
            assert label + "/noise" in ledger
        # A logic stream is in it once drawn from: the sink never draws.
        assert {"src[0]", "udo[0]", "udo[1]"} <= ledger.keys()
        assert "sink[0]" not in ledger

    def test_sanitize_off_is_bit_identical(self):
        _, with_san = run_engine(simple_plan(CleanLogic), sanitize=True)
        _, without = run_engine(simple_plan(CleanLogic), sanitize=False)
        assert with_san.latency.mean == without.latency.mean
        assert with_san.throughput == without.throughput
        assert with_san.results == without.results

    def test_detector_ledger_repeatable(self):
        e1, _ = run_engine(simple_plan(CleanLogic))
        e2, _ = run_engine(simple_plan(CleanLogic))
        assert (e1.race_detector.rng_ledger
                == e2.race_detector.rng_ledger)


def rebalanced_keyed_plan():
    """``test_rebalanced_keyed_state_flagged``'s plan: keyed state fed
    round-robin, so DET607 fires."""
    return simple_plan(
        CleanLogic, key_field=0,
        partitioner=RebalancePartitioner(), num_keys=3,
    )


class TestObserverDelegation:
    @pytest.mark.parametrize("dirty", [False, True])
    def test_verdict_independent_of_an_observer(self, dirty):
        plan = rebalanced_keyed_plan if dirty else (
            lambda: simple_plan(CleanLogic, key_field=0)
        )
        observer = EngineObserver(sample_interval=0.5, serve_spans=False)
        observed, _ = run_engine(plan(), observer=observer, preflight=False)
        alone, _ = run_engine(plan(), preflight=False)
        assert observer.summary()["totals"]["tuples_in"] > 0
        a, b = observed.race_detector, alone.race_detector
        assert a.findings == b.findings
        # Both runs compute, the observed one stopping at sampling
        # deadlines: every stream, ``…/arrivals`` included, ends in the
        # same state.
        assert (observed.step, alone.step) == ("computed", "computed")
        assert any(k.endswith("/arrivals") for k in a.rng_ledger)
        assert a.rng_ledger == b.rng_ledger
        assert ("DET607" in {d.code for d in a.findings}) == dirty

    def test_observation_independent_of_the_detector(self):
        views = []
        for sanitize in (True, False):
            observer = EngineObserver(sample_interval=0.05, serve_spans=False)
            run_engine(
                rebalanced_keyed_plan(), sanitize=sanitize,
                observer=observer, preflight=False,
            )
            views.append((observer.summary(), observer.registry.series))
        assert views[0] == views[1]
        assert len(views[0][1]) > 10

    def test_observed_results_identical_with_detector(self):
        obs_a = EngineObserver(sample_interval=0.5, serve_spans=False)
        _, with_det = run_engine(
            simple_plan(CleanLogic), sanitize=True, observer=obs_a
        )
        obs_b = EngineObserver(sample_interval=0.5, serve_spans=False)
        _, without = run_engine(
            simple_plan(CleanLogic), sanitize=False, observer=obs_b
        )
        assert with_det.latency.mean == without.latency.mean
        assert obs_a.summary()["totals"] == obs_b.summary()["totals"]


class TestSharedRngDetection:
    def test_shared_generator_object_flagged(self):
        engine, _ = run_engine(simple_plan(SharedRngLogic))
        codes = {d.code for d in engine.race_detector.findings}
        assert "DET608" in codes

    def test_identically_seeded_clones_flagged(self):
        class CloneLogic(OperatorLogic):
            def setup(self, ctx):
                super().setup(ctx)
                self._rng = np.random.default_rng(99)

            def process(self, tup, now, port=0):
                _ = self._rng.random()
                return [tup]

        engine, _ = run_engine(simple_plan(CloneLogic))
        codes = {d.code for d in engine.race_detector.findings}
        assert "DET608" in codes

    def test_parallelism_one_not_flagged(self):
        engine, _ = run_engine(
            simple_plan(SharedRngLogic, parallelism=1)
        )
        # One subtask: the generator is reachable from one place only.
        codes = {d.code for d in engine.race_detector.findings}
        assert "DET608" not in codes


class TestKeyAliasing:
    def test_rebalanced_keyed_state_flagged(self):
        plan = simple_plan(
            CleanLogic, key_field=0,
            partitioner=RebalancePartitioner(), num_keys=3,
        )
        engine, _ = run_engine(plan, preflight=False)
        codes = {d.code for d in engine.race_detector.findings}
        assert "DET607" in codes

    def test_hash_partitioned_keyed_state_clean(self):
        plan = simple_plan(CleanLogic, key_field=0)
        engine, _ = run_engine(plan)
        codes = {d.code for d in engine.race_detector.findings}
        assert "DET607" not in codes

    def test_finding_reported_once_per_key(self):
        plan = simple_plan(
            CleanLogic, key_field=0,
            partitioner=RebalancePartitioner(), num_keys=2,
        )
        engine, _ = run_engine(plan, preflight=False)
        det607 = [
            d for d in engine.race_detector.findings
            if d.code == "DET607"
        ]
        assert 1 <= len(det607) <= 2


class TestCompareLedgers:
    def test_equal_ledgers_no_findings(self):
        ledger = {"udo[0]": "aa", "src[0]/arrivals": "bb"}
        assert compare_ledgers(ledger, dict(ledger)) == []

    def test_diverged_stream_flagged(self):
        a = {"udo[0]": "aa"}
        b = {"udo[0]": "cc"}
        (diag,) = compare_ledgers(a, b)
        assert diag.code == "DET609"
        assert "udo[0]" in diag.message

    def test_missing_stream_flagged(self):
        findings = compare_ledgers({"udo[0]": "aa"}, {})
        assert [d.code for d in findings] == ["DET609"]


class TestForkCaptureCheck:
    def test_rng_capture_detected(self):
        gen = np.random.default_rng(3)

        def work(i):
            return gen.random() + i

        hazards = fork_unsafe_captures(work)
        assert hazards and "Generator" in hazards[0]

    def test_clean_closure_passes(self):
        base = 10

        def work(i):
            return base + i

        assert fork_unsafe_captures(work) == []

    def test_runner_refuses_unsafe_closure(self):
        gen = np.random.default_rng(3)

        def work(i):
            return gen.random() + i

        runner = ParallelRunner(workers=2, check_captures=True)
        with pytest.raises(DeterminismError) as exc_info:
            runner.map(work, [1, 2, 3, 4])
        assert exc_info.value.code == "DET606"

    def test_serial_path_never_checks(self):
        gen = np.random.default_rng(3)

        def work(i):
            return gen.random() + i

        runner = ParallelRunner(workers=1, check_captures=True)
        assert len(runner.map(work, [1, 2])) == 2


class TestRunnerIntegration:
    CFG = dict(repeats=2, max_tuples_per_source=200, max_sim_time=2.0)

    def runner(self, **overrides):
        cfg = dict(self.CFG)
        cfg.update(overrides)
        return BenchmarkRunner(
            homogeneous_cluster(num_nodes=2), RunnerConfig(**cfg)
        )

    def test_sanitized_run_attaches_race_extras(self):
        runs = self.runner(sanitize=True).run_plan(
            simple_plan(CleanLogic)
        )
        for metrics in runs:
            race = metrics.extras["race"]
            assert race["findings"] == []
            assert race["rng_ledger"]

    def test_mutation_raises_determinism_error(self):
        with pytest.raises(DeterminismError) as exc_info:
            self.runner(sanitize=True).run_plan(
                simple_plan(SharedRngLogic)
            )
        assert exc_info.value.code == "DET608"

    def test_unsanitized_results_unchanged(self):
        plan = simple_plan(CleanLogic)
        sanitized = self.runner(sanitize=True).run_plan(plan)
        plain = self.runner(sanitize=False).run_plan(plan)
        for a, b in zip(sanitized, plain):
            assert a.latency.mean == b.latency.mean
            assert a.throughput == b.throughput

    def test_parallel_ledger_matches_serial(self):
        plan = simple_plan(CleanLogic)
        serial = self.runner(sanitize=True, workers=1).run_plan(plan)
        parallel = self.runner(
            sanitize=True, workers=2, repeats=3
        ).run_plan(plan)
        assert (serial[0].extras["race"]["rng_ledger"]
                == parallel[0].extras["race"]["rng_ledger"])

    def test_static_layer_rejects_dirty_udo_source(self, tmp_path):
        # A plan whose operator module contains a DET601 error is
        # rejected before anything runs.
        module = tmp_path / "dirty_logic.py"
        module.write_text(
            "import random\n"
            "from repro.sps.operators.base import OperatorLogic\n"
            "class DirtyLogic(OperatorLogic):\n"
            "    def process(self, tup, now, port=0):\n"
            "        return [tup] if random.random() > 0 else []\n"
        )
        import importlib.util
        import sys

        spec = importlib.util.spec_from_file_location(
            "dirty_logic", module
        )
        mod = importlib.util.module_from_spec(spec)
        sys.modules["dirty_logic"] = mod
        try:
            spec.loader.exec_module(mod)
            plan = simple_plan(mod.DirtyLogic)
            with pytest.raises(DeterminismError) as exc_info:
                self.runner(sanitize=True).run_plan(plan)
        finally:
            del sys.modules["dirty_logic"]
        assert exc_info.value.code == "DET601"


class TestStandaloneDetector:
    def test_batch_mode_ledger_and_shared_rng(self):
        """The columnar executor calls the detector at start and end:
        no DONE reaches it, but the ledger and DET608 do."""
        for logic in (CleanLogic, SharedRngLogic):
            engine = StreamEngine(
                simple_plan(logic),
                homogeneous_cluster(num_nodes=2),
                config=SimulationConfig(
                    max_tuples_per_source=200, batch_size=64
                ),
                rng_factory=RngFactory(3),
                sanitize=True,
            )
            engine.run()
            detector = engine.race_detector
            codes = {d.code for d in detector.findings}
            assert ("DET608" in codes) == (logic is SharedRngLogic)
            labels = {"src[0]", "src[0]/arrivals"}
            if logic is CleanLogic:
                labels.add("udo[1]")
            assert labels <= detector.rng_ledger.keys()
            assert "sink[0]" not in detector.rng_ledger

    def test_the_ledger_holds_only_the_logic_streams_a_run_drew(self):
        """DET608's scan reads a context's logic stream only if it is
        open: reading ``ctx.rng`` used to open every one at the start of
        a sanitized run, and the ledger listed the hot-path plan's
        filter, aggregate and sink streams at their seeding. Only its
        sources draw."""
        engine = StreamEngine(
            perf.hotpath_plan(),
            homogeneous_cluster("m510", 4),
            config=SimulationConfig(max_tuples_per_source=800),
            rng_factory=RngFactory(17),
            sanitize=True,
        )
        engine.run()
        ledger = engine.race_detector.rng_ledger
        logic = {label: fp for label, fp in ledger.items() if "/" not in label}
        assert logic.keys() == {f"src[{i}]" for i in range(4)}
        for runtime in engine._runtimes:
            label = f"{runtime.op_id}[{runtime.index}]"
            if label in logic:
                seeded = engine._rngs.fresh(*engine._stream_name(runtime))
                assert logic[label] != state_fingerprint(seeded)

    def test_report_wraps_findings(self):
        engine, _ = run_engine(simple_plan(SharedRngLogic))
        report = engine.race_detector.report("mutant")
        assert report.plan_name == "mutant"
        assert report.has_errors
