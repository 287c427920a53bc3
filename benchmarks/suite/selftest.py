"""Self-test of the suite: ``pytest benchmarks/suite/selftest.py -q``.

Checks the harness, not the program: the ``BENCHMARK.json`` contract,
that what the harness emits is exactly what the file declares, span
self-time arithmetic, digest stability, the comparison verdicts, the
independent reference evaluator, the job guard, the calibration
arithmetic, and that ``--quick`` runs all six workloads clean in under
30 s.

Not named ``test_*.py`` on purpose: ``pytest benchmarks/`` must keep
collecting what it collected before this directory existed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [str(SUITE), str(ROOT / "src")]

import calibrate  # noqa: E402
import compare as compare_mod  # noqa: E402
import measure  # noqa: E402
import run as run_mod  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, timeout=120):
    return subprocess.run(
        [sys.executable, str(SUITE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


# ------------------------------------------------------- BENCHMARK.json


def test_benchmark_json_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["command"] == ["python3", "benchmarks/suite/run.py"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_match_the_spec(spec):
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS
    )
    declared = {
        m["name"] for m in spec["per_layer"]
        if m["name"].startswith("trace.share.")
    }
    assert declared == {
        f"trace.share.{layer}" for layer in run_mod.TRACE_LAYERS
    }


def test_no_file_is_collected_by_the_repo_test_patterns():
    for path in SUITE.rglob("*.py"):
        assert not path.name.startswith(("test_", "bench_")), path


# ------------------------------------------- the driver's two invocations


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_driver_run_reports_every_end_to_end_metric(spec):
    done = _run(
        "--workload", "columnar-b256", "--seed", "5", "--seconds", "1",
        "--trace", "0", "--quick",
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [
        m["name"] for m in spec["end_to_end"]
    ]
    for metric in spec["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


def test_traced_run_reports_every_per_layer_metric(spec):
    done = _run(
        "--workload", "ft-elastic", "--seed", "5", "--seconds", "1",
        "--trace", "1", "--quick",
    )
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert result["correct"] is True, done.stdout[-2000:]
    assert list(result["metrics"]) == [
        m["name"] for m in spec["per_layer"]
    ]
    for name in result["metrics"]:
        assert NAME.fullmatch(name), name
    shares = [
        entry["value"]
        for name, entry in result["metrics"].items()
        if name.startswith("trace.share.")
    ]
    assert sum(shares) == pytest.approx(1.0)


def test_quick_suite_is_clean_and_under_30_s(tmp_path):
    # 30 s on the nominal host: this one has stretches at half speed
    calibrate.reference()  # warm
    before = calibrate.sample()
    start = time.perf_counter()
    done = _run("--quick", "--out", str(tmp_path))
    elapsed = time.perf_counter() - start
    elapsed = calibrate.calibrated(elapsed, before, calibrate.sample())
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr
    assert elapsed < 30.0, elapsed
    document = json.loads((tmp_path / "suite-seed17.json").read_text())
    assert list(document["workloads"]) == list(workloads.WORKLOADS)
    for entry in document["workloads"].values():
        assert entry["failed"] == 0 and entry["attempted"] >= 1
        assert entry["sim_digest"]
    for key in ("git_sha", "seed", "host.cores", "python", "numpy",
                "scipy", "heap_calibration"):
        assert key in document["manifest"], key
    assert {
        name: entry["pass_sizes"]
        for name, entry in document["workloads"].items()
    }
    # Same file against itself: nothing regressed, nothing moved.
    again = _run("--compare", *[str(tmp_path / "suite-seed17.json")] * 2)
    assert again.returncode == 0, again.stdout
    assert "unchanged" in again.stdout


def test_unknown_workload_and_bare_directory_fail_without_a_result():
    done = _run("--workload", "nope", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "{" not in done.stdout


# ----------------------------------------------------------------- spans


def _span(sid, name, parent, start, end):
    return tracing.Span(sid, name, "job", parent, start, end)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 0, 3.0, 6.0),  # overlaps a: union is [1, 6]
        _span(3, "c", 1, 2.0, 3.0),
        _span(4, "late", 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_layers_table_shares_cover_the_roots():
    tracer = tracing.Tracer()
    with tracer.span("harness", "j1") as root:
        with tracer.span("sps.engine.run", "j1", events=7) as run:
            time.sleep(0.02)
        time.sleep(0.01)
    tracer.add_aggregate("workload.datagen", run, 0.0, 0.005, calls=3)
    table = tracing.layers_table(tracer.spans)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(root.duration)
    assert table["workload.datagen"]["self_s"] == pytest.approx(0.005)
    assert table["sps.engine.run"]["self_s"] == pytest.approx(
        run.duration - 0.005
    )
    assert table["sps.engine.run"]["events"] == 7
    events = tracing.chrome_trace(
        {"w": [span.to_dict() for span in tracer.spans]}
    )["traceEvents"]
    assert [e["name"] for e in events if e["ph"] == "X"] == [
        "harness", "sps.engine.run", "workload.datagen",
    ]


# --------------------------------------------------------------- digests


def test_digest_repeats_per_seed_and_moves_with_it():
    def digests(seed):
        workload = workloads.build("columnar-b256", seed, 0.05)
        return {
            job.name: job.run(None).digest for job in workload.jobs()
        }

    assert digests(3) == digests(3)
    assert digests(3) != digests(4)


def test_traced_and_untraced_jobs_agree():
    workload = workloads.build("ft-elastic", 9, 0.2)
    tracer = tracing.Tracer()
    for job in workload.jobs():
        assert job.run(None).digest == job.run(tracer).digest, job.name
    assert {span.name for span in tracer.spans} <= set(
        run_mod.TRACE_LAYERS
    )


def test_drift_between_repetitions_is_a_failure():
    ledger = measure._Ledger()
    first = {"name": "j", "ops": 2, "ok": True, "error": None,
             "outcome": workloads.Outcome("aaaa")}
    ledger.record(first)
    ledger.record({**first, "outcome": workloads.Outcome("bbbb")})
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert "drifted" in ledger.failures[0]["error"]


# ------------------------------------------------------------- job guard


def test_failed_and_hung_jobs_are_recorded_not_raised():
    def boom(tracer):
        raise ValueError("boom")

    def hang(tracer):
        time.sleep(5)

    failed = measure.guarded(workloads.Job("boom", boom, ops=3))
    assert not failed["ok"] and "boom" in failed["error"]
    hung = measure.guarded(workloads.Job("hang", hang), deadline=0.2)
    assert not hung["ok"] and "exceeded" in hung["error"]
    assert hung["seconds"] < 2.0


# ----------------------------------------------------------- calibration


def test_reference_is_fixed_work():
    assert calibrate.reference() == calibrate.reference()
    assert calibrate.sample() > 0
    nominal = calibrate.REFERENCE_S
    assert calibrate.calibrated(2.0, nominal, nominal) == pytest.approx(2.0)
    # a host at half speed: the reference and the job both take twice
    assert calibrate.calibrated(
        4.0, 2 * nominal, 2 * nominal
    ) == pytest.approx(2.0)


def test_a_pass_scales_each_job_by_the_samples_around_it(monkeypatch):
    def nap(tracer):
        time.sleep(0.02)
        return workloads.Outcome("d")

    class TwoJobs:
        def jobs(self):
            return [workloads.Job("a", nap), workloads.Job("b", nap)]

    nominal = calibrate.REFERENCE_S
    samples = iter([nominal, 3 * nominal, nominal])
    monkeypatch.setattr(measure, "sample", lambda: next(samples))
    done = measure._run_pass(TwoJobs(), measure._Ledger())
    # both jobs sit between a 1x and a 3x sample: the host ran at half
    # the nominal speed around them
    assert done["wall_s"] == pytest.approx(done["raw_wall_s"] / 2)
    assert done["cpu_s"] == pytest.approx(done["raw_cpu_s"] / 2)
    assert done["raw_wall_s"] == pytest.approx(sum(done["jobs"].values()))
    assert done["reference_s"] == pytest.approx(nominal * 5 / 3)


# ------------------------------------------------------------- reference


def test_reference_evaluator_on_a_hand_checked_log():
    log = [(1, 1.0), (2, 10.0), (1, 2.0), (1, 4.0), (2, 20.0), (1, 8.0)]
    complete, partial = workloads.reference_window_sums(log, length=2)
    assert sorted(complete) == [(1, 3.0), (1, 12.0), (2, 30.0)]
    assert partial == []
    complete, partial = workloads.reference_window_sums(log, length=3)
    assert complete == [(1, 7.0)]
    assert sorted(partial) == [(1, 8.0), (2, 30.0)]


# --------------------------------------------------------------- compare


def _document(wall, spread=0.0, failed=0, digest="d0"):
    stat = {
        "median": wall,
        "min": wall * (1 - spread / 2),
        "max": wall * (1 + spread / 2),
        "n": 5,
    }
    return {
        "manifest": {"seed": 17},
        "workloads": {
            "apps-scalar": {
                "end_to_end": {
                    name: dict(stat)
                    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")
                },
                "attempted": 40,
                "failed": failed,
                "sim_digest": {"WC": digest},
                "exact_counts": {"WC": {"events": 1}},
            }
        },
        "per_layer": {},
    }


def test_compare_verdicts(spec):
    bound = max(m["bound"] for m in spec["end_to_end"])
    base = _document(1.0)
    same = compare_mod.compare(base, _document(1.0), spec)
    assert same["exit_code"] == 0 and not same["moved"]
    assert {row["verdict"] for row in same["rows"]} == {"ok"}

    slower = compare_mod.compare(base, _document(1.0 + 1.5 * bound), spec)
    assert slower["exit_code"] == 1
    assert any(row["verdict"] == "regressed" for row in slower["rows"])

    noisy = compare_mod.compare(
        _document(1.0, spread=3 * bound), _document(1.05), spec
    )
    assert noisy["exit_code"] == 0
    assert any(row["verdict"] == "unresolved" for row in noisy["rows"])

    failing = compare_mod.compare(base, _document(1.0, failed=1), spec)
    assert failing["exit_code"] == 1

    moved = compare_mod.compare(base, _document(1.0, digest="d1"), spec)
    assert moved["exit_code"] == 0
    assert any("sim_digest" in item for item in moved["moved"])
    assert "B/A" in compare_mod.render(moved)
