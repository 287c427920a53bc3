"""Tests for the perf harness's regression-check failure modes.

``repro bench --check`` must fail loudly — clear message, exit code 1,
no traceback — when the committed ``BENCH_engine.json`` is missing,
corrupt, or structurally wrong, instead of silently passing or crashing.
The measurement itself is monkeypatched out so these tests stay fast.
"""

from __future__ import annotations

import json

import pytest

from repro.core import perf

_FAKE_RESULTS = {
    "hotpath": {
        "events_per_sec": 100_000.0,
        "events": 1000,
        "step": "computed",
    },
    "WC": {"events_per_sec": 50_000.0, "events": 1000, "step": "evented"},
}


@pytest.fixture(autouse=True)
def _cheap_bench(monkeypatch):
    monkeypatch.setattr(
        perf, "run_engine_bench", lambda quick=False, **_: _FAKE_RESULTS
    )
    monkeypatch.setattr(perf, "calibration_score", lambda **_: 100.0)


def _committed_report() -> dict:
    return {
        "calibration_kops": 100.0,
        "quick": {"current": _FAKE_RESULTS},
    }


class TestCheckFailureModes:
    def test_missing_report_fails_loudly(self, tmp_path, capsys):
        code = perf.run_bench(
            quick=True,
            check=True,
            report_path=tmp_path / "BENCH_engine.json",
            with_sweep=False,
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "PERF CHECK FAILED" in out
        assert "does not exist" in out
        assert "repro bench --write" in out

    def test_corrupt_report_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        path.write_text('{"quick": {"current": ')
        code = perf.run_bench(
            quick=True, check=True, report_path=path, with_sweep=False
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "PERF CHECK FAILED" in out
        assert "not valid JSON" in out

    def test_non_object_report_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("[1, 2, 3]\n")
        code = perf.run_bench(
            quick=True, check=True, report_path=path, with_sweep=False
        )
        assert code == 1
        assert "JSON object" in capsys.readouterr().out

    def test_intact_report_still_passes(self, tmp_path, capsys):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(_committed_report()))
        code = perf.run_bench(
            quick=True, check=True, report_path=path, with_sweep=False
        )
        assert code == 0
        assert "perf check passed" in capsys.readouterr().out

    def test_regression_still_detected(self, tmp_path, capsys):
        report = _committed_report()
        report["quick"]["current"] = {
            "hotpath": {"events_per_sec": 1_000_000.0, "events": 1000}
        }
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(report))
        code = perf.run_bench(
            quick=True, check=True, report_path=path, with_sweep=False
        )
        assert code == 1
        assert "PERF REGRESSION" in capsys.readouterr().out

    def test_event_count_drift_detected(self, tmp_path, capsys):
        """Same speed, different results: every workload is fixed-seed,
        so an event count off the committed one fails by name."""
        report = _committed_report()
        report["quick"]["current"] = {
            **_FAKE_RESULTS,
            "WC": {"events_per_sec": 50_000.0, "events": 1001},
        }
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(report))
        code = perf.run_bench(
            quick=True, check=True, report_path=path, with_sweep=False
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "PERF REGRESSION: WC: processed 1000 events" in out
        assert "PERF REGRESSION: hotpath" not in out

    def test_event_counts_compare_within_the_mode(self, tmp_path, capsys):
        """A full-mode entry with other counts does not fail a quick run."""
        report = _committed_report()
        report["full"] = {
            "current": {"WC": {"events_per_sec": 50_000.0, "events": 5000}}
        }
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(report))
        code = perf.run_bench(
            quick=True, check=True, report_path=path, with_sweep=False
        )
        assert code == 0

    def test_write_recreates_missing_report(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        code = perf.run_bench(
            quick=True, write=True, report_path=path, with_sweep=False
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["quick"]["current"] == _FAKE_RESULTS


class TestCalibrationProbes:
    def test_score_is_the_median_of_three_probes(self, monkeypatch):
        probes = iter([80.0, 120.0, 100.0])
        monkeypatch.setattr(
            perf, "_calibration_probe", lambda iterations: next(probes)
        )
        details = perf.calibration_details(iterations=10, probes=3)
        assert details["kops"] == 100.0
        assert details["spread_kops"] == 40.0
        assert details["probes"] == [80.0, 100.0, 120.0]

    def test_write_records_spread(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            perf,
            "calibration_details",
            lambda **_: {
                "kops": 100.0, "spread_kops": 5.0, "probes": [1.0]
            },
        )
        path = tmp_path / "BENCH_engine.json"
        assert perf.run_bench(
            quick=True, write=True, report_path=path, with_sweep=False
        ) == 0
        report = json.loads(path.read_text())
        assert report["calibration_kops"] == 100.0
        assert report["calibration_spread_kops"] == 5.0


class TestSweepBench:
    """One worker has nothing to fan out: no fake "parallel" number."""

    @pytest.fixture
    def runner_workers(self, monkeypatch):
        """Swap in a runner that records each sweep's worker count."""
        seen: list[int] = []

        class _Runner:
            def __init__(self, cluster, config):
                seen.append(config.workers)

            def measure_app(self, abbrev, parallelism):
                return None

        monkeypatch.setattr(perf, "BenchmarkRunner", _Runner)
        return seen

    def test_one_worker_runs_the_sweep_once(self, runner_workers):
        sweep = perf.run_sweep_bench(quick=True, workers=1)
        assert runner_workers == [1]
        assert sweep["workers"] == 1
        assert sweep["parallel_s"] is None
        assert sweep["speedup"] is None
        assert sweep["serial_s"] >= 0.0

    def test_several_workers_measure_both(self, runner_workers):
        sweep = perf.run_sweep_bench(quick=True, workers=3)
        assert runner_workers == [1, 3]
        assert sweep["parallel_s"] is not None
        assert sweep["speedup"] is not None

    def test_report_prints_na_and_records_null(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            perf,
            "run_sweep_bench",
            lambda **_: {
                "cells": 3,
                "workers": 1,
                "serial_s": 0.5,
                "parallel_s": None,
                "speedup": None,
            },
        )
        path = tmp_path / "BENCH_engine.json"
        assert perf.run_bench(quick=True, write=True, report_path=path) == 0
        assert "n/a (1 worker)" in capsys.readouterr().out
        sweep = json.loads(path.read_text())["sweep"]
        assert sweep["parallel_s"] is None and sweep["speedup"] is None
