"""Observability layer tests.

Three layers of guarantees:

1. **unit** — the registry, histogram, tracer and exporters behave as
   documented (quantiles, disabled flags, span trees, Chrome format);
2. **zero perturbation** — attaching a full observer to the engine
   changes *no* simulated result: metrics are bit-identical with
   observation on or off, for the same seeds as the golden tests;
3. **byte stability** — trace.json and metrics.jsonl from two runs of
   the same seeded simulation are byte-identical, and the observability
   summary survives the RunRecord/dataset round-trip.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import homogeneous_cluster
from repro.common.rng import RngFactory
from repro.core.runner import BenchmarkRunner, RunnerConfig
from repro.obs import (
    EngineObserver,
    Histogram,
    MetricsRegistry,
    SpanTracer,
    merge_summaries,
)
from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.sps.engine import SimulationConfig, StreamEngine


def _wc_plan(parallelism: int = 2, rate: float = 100_000.0):
    from repro.apps import build_app
    from repro.workload.generator import scale_plan_costs

    dilation = 25.0
    query = build_app("WC", event_rate=rate / dilation)
    scale_plan_costs(query.plan, dilation)
    query.plan.set_uniform_parallelism(parallelism)
    return query.plan


def _engine(plan, observer=None, seed: int = 11, tuples: int = 600):
    return StreamEngine(
        plan,
        homogeneous_cluster("m510", 4),
        config=SimulationConfig(
            max_tuples_per_source=tuples, max_sim_time=3.0
        ),
        rng_factory=RngFactory(seed),
        observer=observer,
    )


def _run(plan, observer=None, seed: int = 11, tuples: int = 600):
    return _engine(plan, observer, seed, tuples).run()


# ---------------------------------------------------------------- registry


class TestHistogram:
    def test_counts_mean_max(self):
        h = Histogram()
        for value in (0.001, 0.002, 0.004):
            h.record(value)
        assert h.total == 3
        assert h.mean == pytest.approx(0.007 / 3)
        assert h.maximum == 0.004

    def test_quantile_brackets_value(self):
        h = Histogram(lowest=1e-6, growth=2.0)
        for _ in range(100):
            h.record(0.003)
        # The covering bucket's upper bound is within one growth factor.
        assert 0.003 <= h.quantile(0.5) <= 0.003 * 2.0
        assert h.quantile(1.0) >= h.quantile(0.5)

    def test_overflow_and_underflow(self):
        h = Histogram(lowest=1e-3, growth=2.0, num_buckets=4)
        h.record(1e-9)  # below lowest -> bucket 0
        h.record(1e9)  # beyond top -> overflow bucket
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert h.bucket_bound(len(h.counts) - 1) == float("inf")
        # Overflow quantile reports the tracked maximum, not a bound.
        assert h.quantile(0.99) == 1e9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Histogram(lowest=0.0)
        with pytest.raises(ValueError):
            Histogram(growth=1.0)
        h = Histogram()
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_to_dict_only_nonempty_buckets(self):
        h = Histogram()
        h.record(0.5)
        d = h.to_dict()
        assert d["total"] == 1
        assert len(d["buckets"]) == 1


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        r = MetricsRegistry()
        r.inc("tuples_in", "flt")
        r.inc("tuples_in", "flt", 4.0)
        r.set_gauge("queue_depth", "flt", 7)
        r.observe("service_s", "flt", 0.01)
        assert r.counter("tuples_in", "flt") == 5.0
        assert r.gauge("queue_depth", "flt") == 7
        assert r.histogram("service_s", "flt").total == 1
        assert r.counter("missing", "flt") == 0.0
        assert r.histogram("missing", "flt") is None

    def test_disabled_registry_records_nothing(self):
        r = MetricsRegistry(enabled=False)
        r.inc("a", "op")
        r.set_gauge("b", "op", 1)
        r.observe("c", "op", 1.0)
        r.record_sample(0.5, "op", queue_depth=3)
        assert not r.counters and not r.gauges
        assert not r.histograms and not r.series

    def test_series_rows_keep_order(self):
        r = MetricsRegistry()
        r.record_sample(0.25, "src", tuples_in=10)
        r.record_sample(0.50, "src", tuples_in=25)
        assert [row["t"] for row in r.series] == [0.25, 0.50]
        assert r.series[1]["tuples_in"] == 25

    def test_summary_serialises_and_sorts(self):
        r = MetricsRegistry()
        r.inc("z", "op2")
        r.inc("a", "op1")
        summary = r.summary()
        assert list(summary["counters"]) == ["a:op1", "z:op2"]
        json.dumps(summary)  # must be JSON-serialisable


# ------------------------------------------------------------------ tracer


class TestSpanTracer:
    def test_span_tree_and_lifecycle(self):
        t = SpanTracer()
        root = t.begin("run", "engine", 0.0)
        child = t.begin("op", "operator", 0.0, parent_id=root)
        assert t.open_spans() == [root, child]
        t.end(child, 1.0)
        t.end(root, 2.0)
        assert t.open_spans() == []
        phs = [e.ph for e in t.events]
        assert phs == ["B", "B", "E", "E"]
        assert t.events[1].parent_id == root
        # The end event mirrors the begin event's identity.
        assert t.events[2].name == "op" and t.events[2].span_id == child

    def test_complete_and_instant(self):
        t = SpanTracer()
        s = t.complete("serve", "serve", 1.0, 0.25, tid=3)
        i = t.instant("window.fire", "window", 2.0, results=5)
        assert t.events[0].dur == 0.25 and t.events[0].span_id == s
        assert t.events[1].args == {"results": 5}
        assert i == s + 1  # sequential, deterministic ids

    def test_disabled_tracer_is_inert(self):
        t = SpanTracer(enabled=False)
        assert t.begin("run", "engine", 0.0) == 0
        t.end(0, 1.0)
        assert t.complete("x", "y", 0.0, 1.0) == 0
        assert len(t) == 0

    def test_end_of_unknown_span_is_ignored(self):
        t = SpanTracer()
        t.end(99, 1.0)
        assert len(t) == 0


# ---------------------------------------------------------------- exporters


class TestExport:
    def test_chrome_trace_is_valid(self):
        t = SpanTracer()
        root = t.begin("run", "engine", 0.0)
        t.complete("serve", "serve", 0.5, 0.1, parent_id=root)
        t.instant("window.fire", "window", 0.75)
        t.end(root, 1.0)
        doc = to_chrome_trace(
            t,
            process_names={0: "node 0"},
            thread_names={(0, 1): "flt[0]"},
        )
        assert validate_chrome_trace(doc) == []
        # seconds -> microseconds
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events[0]["ts"] == pytest.approx(0.5e6)
        assert events[0]["dur"] == pytest.approx(0.1e6)
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["name"] for m in metadata} == {
            "process_name",
            "thread_name",
        }

    def test_validate_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{}]}) != []
        missing_ts = {"traceEvents": [{"ph": "X", "name": "a"}]}
        assert any(
            "ts" in problem
            for problem in validate_chrome_trace(missing_ts)
        )

    def test_metrics_jsonl_round_trip(self, tmp_path):
        r = MetricsRegistry()
        r.record_sample(0.25, "src", tuples_in=10)
        r.inc("tuples_in", "src", 10)
        path = write_metrics_jsonl(
            r,
            tmp_path / "metrics.jsonl",
            meta={"plan": "wc"},
            summaries={"src": {"tuples_in": 10}},
        )
        rows = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        kinds = [row["kind"] for row in rows]
        assert kinds == ["meta", "sample", "summary", "registry"]
        assert rows[0]["plan"] == "wc"
        assert rows[2] == {
            "kind": "summary",
            "op": "src",
            "tuples_in": 10,
        }


# --------------------------------------------------- engine integration


class TestEngineObservation:
    def test_observation_never_perturbs_results(self):
        """Same seed, tracing on vs. off: nothing simulated differs.

        Both runs compute their completions (DESIGN.md §14); the
        observed one also pops its sampling deadlines, so they differ
        in how many events the simulator popped, and in nothing else."""
        observer = EngineObserver(
            registry=MetricsRegistry(),
            tracer=SpanTracer(),
            sample_interval=0.1,
        )
        plain = _engine(_wc_plan())
        observed = _engine(_wc_plan(), observer)
        simulated = []
        for engine in (plain, observed):
            metrics = engine.run().to_dict()
            del metrics["extras"]["events_processed"]
            del metrics["extras"]["step"]
            simulated.append(json.dumps(metrics, sort_keys=True))
        assert simulated[0] == simulated[1]
        assert (plain.step, observed.step) == ("computed", "computed")

    def test_sink_tuples_in_match_results(self):
        observer = EngineObserver(sample_interval=0.25)
        metrics = _run(_wc_plan(), observer)
        summary = observer.summary()
        assert summary["ops"]["sink"]["tuples_in"] == metrics.results
        totals = summary["totals"]
        assert totals["tuples_in"] > 0 and totals["busy_s"] > 0

    def test_window_results_are_counted_where_they_leave(
        self, simple_plan
    ):
        """A window's results — fired at a timer tick, an arrival or the
        end-of-stream flush — are each counted once as its output."""
        observer = EngineObserver(sample_interval=0.25)
        metrics = _run(simple_plan, observer, tuples=800)
        agg = observer.summary()["ops"]["agg"]
        assert agg["tuples_out"] == agg["windows_fired"] == metrics.results
        assert observer.registry.counter("window_fires", "agg") > 0

    def test_exports_are_byte_stable_across_runs(self, tmp_path):
        """Two same-seed runs write byte-identical trace + metrics."""
        payloads = []
        for run in ("a", "b"):
            registry = MetricsRegistry()
            tracer = SpanTracer()
            observer = EngineObserver(
                registry=registry, tracer=tracer, sample_interval=0.1
            )
            _run(_wc_plan(), observer)
            trace = write_chrome_trace(
                tracer,
                tmp_path / f"trace-{run}.json",
                process_names=observer.process_names(),
                thread_names=observer.thread_names(),
            )
            metrics = write_metrics_jsonl(
                registry,
                tmp_path / f"metrics-{run}.jsonl",
                summaries=observer.summary()["ops"],
            )
            payloads.append(
                (trace.read_bytes(), metrics.read_bytes())
            )
        assert payloads[0] == payloads[1]

    def test_trace_is_chrome_loadable_and_spans_close(self):
        tracer = SpanTracer()
        observer = EngineObserver(tracer=tracer, sample_interval=0.25)
        _run(_wc_plan(), observer)
        assert tracer.open_spans() == []
        doc = to_chrome_trace(
            tracer,
            process_names=observer.process_names(),
            thread_names=observer.thread_names(),
        )
        assert validate_chrome_trace(doc) == []
        cats = {e.cat for e in tracer.events}
        assert {"engine", "operator", "serve"} <= cats

    def test_time_series_sampling(self):
        interval = 0.02
        observer = EngineObserver(sample_interval=interval)
        _run(_wc_plan(), observer)
        rows = observer.registry.series
        assert rows, "sampler produced no time-series rows"
        ticks = sorted({row["t"] for row in rows})
        # Boundary-stamped: every tick except the final flush (stamped
        # at run end by on_run_end) is a multiple of the interval.
        assert all(
            abs(t / interval - round(t / interval)) < 1e-9
            for t in ticks[:-1]
        )
        assert len(ticks) >= 2
        last = [row for row in rows if row["t"] == ticks[-1]]
        total_in = sum(row["tuples_in"] for row in last)
        assert total_in == observer.summary()["totals"]["tuples_in"]


# -------------------------------------------------------- runner plumbing


class TestRunnerObservation:
    CONFIG = dict(
        repeats=2,
        dilation=25.0,
        max_tuples_per_source=400,
        max_sim_time=2.0,
        seed=3,
    )

    def test_observe_attaches_summaries(self):
        cluster = homogeneous_cluster("m510", 4)
        runner = BenchmarkRunner(
            cluster, RunnerConfig(observe=True, **self.CONFIG)
        )
        runs = runner.run_plan(runner.prepare_app("WC", 2).plan)
        for run in runs:
            assert run.observability is not None
            assert run.observability["ops"]
        merged = runner.measure(runner.prepare_app("WC", 2).plan)["obs"]
        assert merged["repeats"] == 2
        assert "sink" in merged["ops"]

    def test_observe_matches_unobserved_metrics(self):
        cluster = homogeneous_cluster("m510", 4)
        plan = BenchmarkRunner(cluster).prepare_app("WC", 2).plan
        base = BenchmarkRunner(
            cluster, RunnerConfig(**self.CONFIG)
        ).measure(plan)
        observed = BenchmarkRunner(
            cluster, RunnerConfig(observe=True, **self.CONFIG)
        ).measure(plan)
        observed.pop("obs")
        assert base == observed

    def test_invalid_sample_interval_rejected(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RunnerConfig(obs_sample_interval=0.0)


class TestMergeSummaries:
    def test_means_numeric_fields(self):
        a = {"ops": {"src": {"subtasks": 2, "tuples_in": 10}}}
        b = {"ops": {"src": {"subtasks": 2, "tuples_in": 20}}}
        merged = merge_summaries([a, b])
        assert merged["repeats"] == 2
        assert merged["ops"]["src"] == {
            "subtasks": 2,
            "tuples_in": 15.0,
        }

    def test_empty_input(self):
        assert merge_summaries([]) == {}


# ------------------------------------------------- records and datasets


class TestRecordsAndDataset:
    def _record(self):
        from repro.core.records import RunRecord

        cluster = homogeneous_cluster("m510", 4)
        runner = BenchmarkRunner(
            cluster,
            RunnerConfig(
                repeats=1,
                dilation=25.0,
                max_tuples_per_source=400,
                max_sim_time=2.0,
                seed=3,
                observe=True,
            ),
        )
        query = runner.prepare_app("WC", 2)
        metrics = runner.measure(query.plan)
        return (
            RunRecord.from_run(
                query.plan,
                cluster,
                metrics,
                workload_kind="real-world",
                event_rate=100_000.0,
            ),
            cluster,
        )

    def test_run_record_round_trips_observability(self):
        from repro.core.records import RunRecord

        record, _ = self._record()
        assert record.observability["ops"]
        assert "obs" not in record.metrics
        doc = record.to_document()
        back = RunRecord.from_document(doc)
        assert back.observability == record.observability

    def test_persist_cell_then_corpus(self):
        from repro.core.experiments.exp3 import corpus_from_run_records
        from repro.core.experiments.persist import (
            persist_cell,
            runs_collection,
        )
        from repro.core.records import RunRecord
        from repro.storage.docstore import DocumentStore

        cluster = homogeneous_cluster("m510", 4)
        runner = BenchmarkRunner(
            cluster,
            RunnerConfig(
                repeats=1,
                dilation=25.0,
                max_tuples_per_source=400,
                max_sim_time=2.0,
                seed=3,
                observe=True,
            ),
        )
        store = DocumentStore()
        query = runner.prepare_app("WC", 2)
        persist_cell(
            store,
            query.plan,
            cluster,
            runner.measure(query.plan),
            workload_kind="real-world",
            event_rate=100_000.0,
            figure="test",
            app="WC",
        )
        records = [
            RunRecord.from_document(d)
            for d in runs_collection(store).find()
        ]
        corpus = corpus_from_run_records(records, cluster)
        assert len(corpus) == 1
        matrix = corpus.observability_matrix()
        assert matrix.shape[0] == 1 and (matrix > 0).any()

    def test_runs_collection_rejects_other_types(self):
        from repro.core.experiments.persist import runs_collection

        with pytest.raises(TypeError):
            runs_collection(object())

    def test_observability_features_fixed_order(self):
        import numpy as np

        from repro.ml.dataset import (
            OBS_FEATURE_KEYS,
            observability_features,
        )

        empty = observability_features(None)
        assert empty.shape == (len(OBS_FEATURE_KEYS),)
        assert not empty.any()
        summary = {
            "ops": {
                "a": {"tuples_in": 3, "busy_s": 0.5},
                "b": {"tuples_in": 4},
            }
        }
        features = observability_features(summary)
        assert features[0] == 7  # tuples_in summed over operators
        assert features[2] == np.float64(0.5)

    def test_encode_query_carries_observability(self):
        from repro.ml.dataset import encode_query

        plan = _wc_plan()
        record = encode_query(
            plan,
            homogeneous_cluster("m510", 4),
            0.5,
            observability={"ops": {"src": {"tuples_in": 1}}},
        )
        assert record.meta["observability"]["ops"]["src"][
            "tuples_in"
        ] == 1


# ------------------------------------------------------------ trace CLI


class TestTraceCli:
    def test_trace_writes_valid_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace-out"
        code = main(
            [
                "trace",
                "--app",
                "wordcount",
                "--max-tuples",
                "400",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        rows = [
            json.loads(line)
            for line in (out / "metrics.jsonl").read_text().splitlines()
        ]
        meta = rows[0]
        assert meta["kind"] == "meta" and meta["target"] == "WC"
        assert meta["results"] > 0
        captured = capsys.readouterr()
        assert "sink" in captured.out

    def test_trace_meta_names_the_step_and_its_events(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace-out"
        args = ["trace", "--max-tuples", "400", "--out", str(out)]
        assert main(args) == 0
        meta = json.loads((out / "metrics.jsonl").read_text().split("\n")[0])
        assert meta["step"] == "computed"
        assert meta["events_processed"] > meta["results"] > 0

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sample-interval", "nan"),
            ("--sample-interval", "inf"),
            ("--sample-interval", "0"),
            ("--sample-interval", "-1"),
            ("--dilation", "0"),
            ("--dilation", "-2"),
            ("--dilation", "nan"),
        ],
    )
    def test_trace_refuses_a_bad_value(self, flag, value, tmp_path, capsys):
        """A usage error: one line naming the flag, exit status 2."""
        from repro.cli import main

        out = tmp_path / "trace-out"
        code = main(["trace", flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: error: ")
        assert flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_trace_unknown_app_fails_cleanly(self, capsys):
        from repro.cli import main

        code = main(["trace", "--app", "nope", "--out", "unused"])
        assert code == 2
        assert "unknown app" in capsys.readouterr().err

    def test_app_alias_resolution(self):
        from repro.cli import _resolve_app

        assert _resolve_app("wordcount") == "WC"
        assert _resolve_app("Word Count") == "WC"
        assert _resolve_app("word-count") == "WC"
        assert _resolve_app("sg") == "SG"
        assert _resolve_app("WC") == "WC"
