"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = [
    "--nodes", "4", "--repeats", "1", "--tuples", "1200",
    "--sim-time", "3.0", "--dilation", "25.0",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    def test_run_app_defaults(self):
        args = build_parser().parse_args(["run-app", "--app", "WC"])
        assert args.parallelism == 8
        assert args.rate == 100_000.0
        assert args.cluster == "m510"

    def test_structure_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-synthetic", "--structure", "octopus_join"]
            )

    def test_bench_is_not_a_command(self):
        """Speed is judged by ``benchmarks/suite`` alone."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--quick"])


class TestUsageErrors:
    """A value the library refuses reads like a bad argument: one
    ``repro: error:`` line on stderr and exit status 2, no traceback."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dilation", "0"], "dilation must be positive, finite"),
            (["--dilation", "nan"], "dilation must be positive, finite"),
            (["--checkpoint-ms", "-1"], "checkpoint_ms must be positive"),
        ],
    )
    def test_configuration_error(self, capsys, flags, message):
        assert main(["run-app", "--app", "WC", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"repro: error: {message}")
        assert captured.err.count("\n") == 1 and not captured.out

    def test_preflight_error(self, capsys):
        code = main(
            ["run-app", "--app", "WC", "--parallelism", "500",
             "--nodes", "1", "--repeats", "1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: pre-flight analysis rejected")
        assert "RES401" in err and err.count("\n") == 1


class TestCommands:
    def test_list_apps(self, capsys):
        assert main(["list-apps"]) == 0
        out = capsys.readouterr().out
        assert "WC" in out and "Smart Grid" in out
        assert out.count("\n") > 14

    def test_run_app(self, capsys):
        code = main(
            ["run-app", "--app", "TPCH", "--parallelism", "2", *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "median latency" in out
        assert "TPCH" in out

    def test_run_synthetic(self, capsys):
        code = main(
            [
                "run-synthetic", "--structure", "linear",
                "--parallelism", "2", *FAST,
            ]
        )
        assert code == 0
        assert "linear" in capsys.readouterr().out

    def test_run_app_persists(self, capsys, tmp_path):
        storage = str(tmp_path / "db")
        main(
            ["run-app", "--app", "WC", "--parallelism", "1",
             "--storage", storage, *FAST]
        )
        from repro.storage import DocumentStore

        assert DocumentStore(storage)["runs"].count() == 1

    def test_tables(self, capsys):
        assert main(["tables", "1"]) == 0
        assert "PDSP-Bench" in capsys.readouterr().out
        assert main(["tables", "4"]) == 0
        assert "c6320" in capsys.readouterr().out
        assert main(["tables", "2"]) == 0
        assert "intensity" in capsys.readouterr().out

    def test_run_suite_subset(self, capsys):
        code = main(
            ["run-suite", "--apps", "WC", "LP", "--parallelism", "2",
             *FAST]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "WC" in out and "LP" in out
        assert "SG" not in out

    def test_hetero_flag(self, capsys):
        code = main(
            ["run-app", "--app", "LP", "--parallelism", "2",
             "--hetero", *FAST]
        )
        assert code == 0
        assert "heterogeneous" in capsys.readouterr().out


class TestLintPlan:
    def test_all_apps_clean(self, capsys):
        assert main(["lint-plan", "--all-apps"]) == 0
        out = capsys.readouterr().out
        assert "WC: clean" in out
        assert "linted 14 plan(s): ok" in out

    def test_app_subset_and_strict(self, capsys):
        assert main(["lint-plan", "--app", "WC", "SG", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "SG: clean" in out and "(strict)" in out

    def test_json_format(self, capsys):
        import json

        assert main(["lint-plan", "--app", "WC", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["plan"] == "WC"
        assert data[0]["clean"] is True

    def test_synthetic_structure(self, capsys):
        code = main(
            ["lint-plan", "--structure", "linear", "--nodes", "10"]
        )
        assert code == 0
        assert "linear" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint-plan", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("PLAN003", "SCH103", "KEY201", "WIN302", "RES401",
                     "COST502"):
            assert code in out

    def test_broken_plan_exits_non_zero(self, capsys, monkeypatch):
        import repro.cli as cli_module
        from repro.sps.logical import LogicalPlan

        monkeypatch.setattr(
            cli_module, "_lint_targets",
            lambda args: [("broken", LogicalPlan("broken"))],
        )
        assert main(["lint-plan"]) == 1
        out = capsys.readouterr().out
        assert "PLAN001" in out and "FAILED" in out

    def test_strict_promotes_warnings(self, capsys, monkeypatch):
        import repro.cli as cli_module
        from tests.test_analysis import good_plan

        plan = good_plan()
        plan.connect(
            "src", "keep",
        )  # duplicate edge -> PLAN008 warning
        monkeypatch.setattr(
            cli_module, "_lint_targets",
            lambda args: [("dup", plan)],
        )
        assert main(["lint-plan"]) == 0
        capsys.readouterr()
        assert main(["lint-plan", "--strict"]) == 1


class TestSanitize:
    def test_tree_scan_clean(self, capsys):
        from pathlib import Path

        import repro

        tree = str(Path(repro.__file__).parent / "apps")
        assert main(["sanitize", tree, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_default_target_is_package_tree(self, capsys):
        assert main(["sanitize", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "sanitized" in out and "ok" in out

    def test_all_apps_clean(self, capsys):
        assert main(["sanitize", "--all-apps", "--strict"]) == 0
        assert "14 target(s)" in capsys.readouterr().out

    def test_unknown_app_alias_exits_two(self, capsys):
        assert main(["sanitize", "--app", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "unknown app" in err

    def test_app_full_name_resolves(self, capsys):
        assert main(["sanitize", "--app", "word-count"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_list_rules_shows_det_family(self, capsys):
        assert main(["sanitize", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DET601", "DET603", "DET606", "DET607", "DET609"):
            assert code in out
        assert "PLAN003" not in out

    def test_lint_plan_list_rules_includes_det(self, capsys):
        assert main(["lint-plan", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET601" in out and "DET609" in out

    def test_json_schema_stable(self, capsys, tmp_path):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main(["sanitize", str(dirty), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert sorted(data[0]) == [
            "clean", "diagnostics", "errors", "infos", "plan", "warnings",
        ]
        (diag,) = data[0]["diagnostics"]
        assert sorted(diag) == [
            "code", "edge", "hint", "message", "op_id", "severity",
        ]
        assert diag["code"] == "DET601"
        assert diag["op_id"].endswith("dirty.py:2")

    def test_strict_promotes_warnings_to_failure(self, capsys, tmp_path):
        warn_only = tmp_path / "warn.py"
        warn_only.write_text("S = {1, 2}\nwords = list(S)\n")
        assert main(["sanitize", str(warn_only)]) == 0
        capsys.readouterr()
        assert main(["sanitize", str(warn_only), "--strict"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_error_findings_exit_non_zero(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["sanitize", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET601" in out and "FAILED" in out

    def test_runtime_flag_runs_race_detector(self, capsys):
        code = main(
            ["sanitize", "--app", "WC", "--runtime",
             "--parallelism", "2", "--rate", "2000", "--strict"]
        )
        assert code == 0
        assert "2 target(s)" in capsys.readouterr().out
