"""Figure 6 — Exp 3(2): enumeration strategies and training efficiency.

Compares rule-based and random parallelism enumeration for GNN training:

- Figure 6a: q-error vs number of training queries, on seen structures
  (the training distribution) and unseen ones;
- Figure 6b: total cost (data collection at the paper's 3 x 5 min
  protocol + training) to reach the target accuracy.

Asserts O9: rule-based enumeration reaches the accuracy target with fewer
queries — and therefore roughly 3x less total time — than random.
"""

import math

from benchmarks.conftest import emit
from repro.core.experiments import figure6
from repro.report import render_figure

TARGET_Q = 1.6


def _run():
    return figure6(
        training_sizes=(25, 50, 100, 200, 400),
        test_size=160,
        target_q=TARGET_Q,
        seed=9,
    )


def test_fig6_enumeration_strategies(benchmark):
    fig6a, fig6b = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(render_figure(fig6a))
    emit(render_figure(fig6b))

    rule = fig6b.series_by_label("rule-based")
    random_ = fig6b.series_by_label("random")
    rule_queries = rule.value_at("queries to target")
    random_queries = random_.value_at("queries to target")
    rule_hours = rule.value_at("total hours")
    random_hours = random_.value_at("total hours")
    # O9: rule-based reaches the target, and random needs more queries
    # and substantially more total time (the paper reports ~3x) — or
    # does not converge at all, which has no hours and no ratio.
    assert not math.isnan(rule_hours)
    if math.isnan(random_hours):
        emit(
            f"queries to q<= {TARGET_Q}: rule-based={rule_queries:.0f} "
            f"({rule_hours:.1f} h); {fig6b.notes}"
        )
    else:
        emit(
            f"queries to q<= {TARGET_Q}: rule-based={rule_queries:.0f}, "
            f"random={random_queries:.0f}; hours: "
            f"rule-based={rule_hours:.1f}, random={random_hours:.1f} "
            f"(ratio {random_hours / rule_hours:.1f}x)"
        )
        assert rule_queries <= random_queries
        assert random_hours >= 1.5 * rule_hours

    # Rule-based accuracy improves with corpus size on seen structures.
    seen = fig6a.series_by_label("rule-based (seen)")
    assert seen.y[-1] <= seen.y[0]
