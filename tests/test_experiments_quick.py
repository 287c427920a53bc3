"""Quick-profile coverage of the remaining experiment functions.

Full-size versions run in the benchmark harness; these scaled-down runs
ensure the experiment modules themselves stay correct (series structure,
labels, persistence round-trips).
"""

import math

from repro.cluster import homogeneous_cluster
from repro.core import PDSPBench, RunnerConfig
from repro.core.experiments import (
    figure3_bottom,
    figure4_bottom,
    figure4_top,
    figure6,
)
from repro.core.experiments.exp1 import EXTENDED_CATEGORIES
from repro.report import figure_to_markdown, render_figure
from repro.workload import QueryStructure

TINY = RunnerConfig(
    repeats=1, dilation=25.0, max_tuples_per_source=1200,
    max_sim_time=2.0,
)


class TestFigure3Bottom:
    def test_series_per_app(self):
        figure = figure3_bottom(
            runner_config=TINY,
            apps=("WC", "LP"),
            categories={"XS": 1, "M": 4},
        )
        assert {s.label for s in figure.series} == {"WC", "LP"}
        assert figure.shared_x() == ["XS", "M"]
        assert all(
            all(v > 0 for v in s.y) for s in figure.series
        )

    def test_default_cluster_holds_the_widest_category(self):
        """``repro experiment fig3-bottom`` as the CLI calls it: no
        cluster given, categories up to 4XL = 128 instances. The default
        cluster grows to 16 x m510 (128 slots); on the paper's 10 nodes
        pre-flight rejects the first 4XL cell with RES401."""
        figure = figure3_bottom(
            runner_config=RunnerConfig(
                repeats=1, dilation=25.0, max_tuples_per_source=40,
                max_sim_time=1.0,
            ),
            apps=("WC",),
            categories={
                label: EXTENDED_CATEGORIES[label] for label in ("XS", "4XL")
            },
        )
        assert "128 slots" in figure.title
        assert figure.shared_x() == ["XS", "4XL"]
        assert all(v > 0 for v in figure.series[0].y)


class TestFigure4:
    def _clusters(self):
        return {
            "Ho-m510": homogeneous_cluster("m510", 4),
            "He-c6320": homogeneous_cluster("c6320", 4),
        }

    def test_top_parallelism_tracks_cores(self):
        figure = figure4_top(
            clusters=self._clusters(),
            runner_config=TINY,
            apps=("WC", "SD"),
        )
        labels = [s.label for s in figure.series]
        assert any("p=8" in label for label in labels)
        assert any("p=28" in label for label in labels)
        assert figure.shared_x() == ["WC", "SD"]

    def test_bottom_series_per_cluster(self):
        figure = figure4_bottom(
            clusters=self._clusters(),
            runner_config=TINY,
            categories={"XS": 1, "M": 4},
            structures=(QueryStructure.LINEAR,),
        )
        assert {s.label for s in figure.series} == {
            "Ho-m510", "He-c6320",
        }
        assert len(figure.series[0].y) == 2


class TestFigure6Quick:
    def test_returns_both_figures(self):
        fig6a, fig6b = figure6(
            cluster=homogeneous_cluster("m510", 4),
            training_sizes=(20, 40),
            test_size=40,
            seed=3,
        )
        assert len(fig6a.series) == 4  # 2 strategies x seen/unseen
        assert fig6a.shared_x() == [20, 40]
        assert {s.label for s in fig6b.series} == {
            "rule-based", "random",
        }

    def test_a_strategy_that_misses_the_target_gets_no_hours(self):
        """No q-error reaches 0.5 (q >= 1): neither strategy converges,
        and figure 6b reports that instead of an invented count."""
        _, fig6b = figure6(
            cluster=homogeneous_cluster("m510", 4),
            training_sizes=(20, 40),
            test_size=40,
            target_q=0.5,
            seed=3,
        )
        for label in ("rule-based", "random"):
            series = fig6b.series_by_label(label)
            assert all(math.isnan(y) for y in series.y)
            assert f"{label} did not converge within 40 queries" in (
                fig6b.notes
            )


class TestFigurePersistence:
    def test_save_and_reload_figure(self, quick_runner_config):
        bench = PDSPBench.homogeneous(
            num_nodes=4, runner_config=quick_runner_config
        )
        figure = figure3_bottom(
            cluster=bench.cluster,
            runner_config=TINY,
            apps=("LP",),
            categories={"XS": 1},
        )
        bench.save_figure(figure)
        stored = bench.stored_figures()
        assert len(stored) == 1
        assert stored[0]["figure_id"] == "fig3-bottom"
        assert stored[0]["series"][0]["label"] == "LP"

    def test_markdown_export(self):
        figure = figure3_bottom(
            runner_config=TINY,
            apps=("LP",),
            categories={"XS": 1},
        )
        markdown = figure_to_markdown(figure)
        assert markdown.startswith("### fig3-bottom")
        assert "| LP" in markdown or "LP |" in markdown
        # Plain rendering still works on the same object.
        assert "fig3-bottom" in render_figure(figure)
