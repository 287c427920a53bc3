"""The host-speed probe every benchmark result file is stamped with."""

from __future__ import annotations

from repro.core import perf


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
