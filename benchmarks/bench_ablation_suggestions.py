"""A-SUG: ablation of the suggestion budget (first 1/3/5/10/20 suggestions)."""

from __future__ import annotations

from repro.api import Session


def test_ablation_suggestion_budget(benchmark):
    with Session() as session:
        report = benchmark(lambda: session.suggestion_count_ablation(counts=(1, 3, 10)))
    means = report.data["means"]
    # With a single suggestion the rubric collapses to expert-or-nothing, so
    # scores can only move, never exceed the ten-suggestion protocol by more
    # than the expert bonus; all means stay in the rubric range.
    assert all(0.0 <= v <= 1.0 for v in means.values())
    assert set(means) == {1, 3, 10}
    print()
    print(report.text)
