"""Tests for the proficiency rubric, evaluator, runner, aggregation and comparison."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verdict import SuggestionVerdict
from repro.core.aggregate import (
    kernel_averages,
    language_averages,
    model_averages,
    overall_average,
    postfix_effect,
)
from repro.core.compare import compare_to_paper, spearman_rank_correlation
from repro.core.paper_reference import PAPER_TABLES, paper_cells, paper_score, paper_table
from repro.core.proficiency import ProficiencyLevel, classify_verdicts, score_label
from repro.core.report import format_bar_chart, format_score, format_table, side_by_side
from repro.kernels.registry import KERNEL_NAMES
from repro.models.grid import ExperimentCell
from repro.models.languages import language_names
from repro.models.programming_models import models_for_language


def _verdict(correct=True, other=False, code=True, requested=True, math=None) -> SuggestionVerdict:
    math_correct = correct if math is None else math
    return SuggestionVerdict(
        is_code=code,
        detected_models=("cpp.openacc",) if other else (("cpp.openmp",) if requested else ()),
        uses_requested_model=requested and code,
        uses_other_model=other,
        math_correct=math_correct and code,
    )


class TestRubric:
    def test_empty_suggestion_list_is_non_knowledge(self):
        assert classify_verdicts([]) is ProficiencyLevel.NON_KNOWLEDGE

    def test_no_correct_code_is_non_knowledge(self):
        verdicts = [_verdict(correct=False), _verdict(correct=False, other=True)]
        assert classify_verdicts(verdicts) is ProficiencyLevel.NON_KNOWLEDGE

    def test_single_correct_suggestion_is_expert(self):
        assert classify_verdicts([_verdict()]) is ProficiencyLevel.EXPERT

    def test_all_correct_is_proficient(self):
        assert classify_verdicts([_verdict(), _verdict(), _verdict()]) is ProficiencyLevel.PROFICIENT

    def test_correct_plus_incorrect_same_model_is_learner(self):
        verdicts = [_verdict(), _verdict(correct=False, math=False)]
        assert classify_verdicts(verdicts) is ProficiencyLevel.LEARNER

    def test_correct_plus_other_model_is_novice(self):
        verdicts = [_verdict(), _verdict(correct=False, other=True)]
        assert classify_verdicts(verdicts) is ProficiencyLevel.NOVICE

    def test_other_model_even_if_mathematically_correct_is_novice(self):
        verdicts = [_verdict(), SuggestionVerdict(
            is_code=True, detected_models=("cpp.openacc",),
            uses_requested_model=False, uses_other_model=True, math_correct=True,
        )]
        assert classify_verdicts(verdicts) is ProficiencyLevel.NOVICE

    def test_non_code_extra_suggestion_keeps_learner(self):
        verdicts = [_verdict(), SuggestionVerdict(is_code=False)]
        assert classify_verdicts(verdicts) is ProficiencyLevel.LEARNER

    def test_levels_have_expected_values(self):
        assert float(ProficiencyLevel.NOVICE.value) == 0.25
        assert ProficiencyLevel.from_score(0.5) is ProficiencyLevel.LEARNER
        assert score_label(0.75) == "proficient"
        with pytest.raises(ValueError):
            ProficiencyLevel.from_score(0.3)

    @given(st.lists(st.sampled_from(["correct", "incorrect", "other", "noncode"]), max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_property_rubric_is_total_and_consistent(self, kinds):
        verdicts = []
        for kind in kinds:
            if kind == "correct":
                verdicts.append(_verdict())
            elif kind == "incorrect":
                verdicts.append(_verdict(correct=False, math=False))
            elif kind == "other":
                verdicts.append(_verdict(correct=False, other=True))
            else:
                verdicts.append(SuggestionVerdict(is_code=False))
        level = classify_verdicts(verdicts)
        assert level in ProficiencyLevel
        has_correct = any(v.is_correct for v in verdicts)
        assert (level is ProficiencyLevel.NON_KNOWLEDGE) == (not has_correct)
        if level in (ProficiencyLevel.NOVICE,):
            assert any(v.uses_other_model for v in verdicts)


class TestEvaluatorAndRunner:
    def test_cell_result_fields(self, evaluator):
        cell = ExperimentCell(language="cpp", model="cpp.openmp", kernel="axpy", use_postfix=True)
        result = evaluator.evaluate_cell(cell)
        assert result.score in (0.0, 0.25, 0.5, 0.75, 1.0)
        assert result.n_suggestions == len(result.verdicts)
        assert 0 <= result.n_correct <= result.n_suggestions
        record = result.to_record()
        assert record["model"] == "cpp.openmp"
        assert record["level"] == result.level.label

    def test_evaluate_explicit_suggestions(self, evaluator):
        from repro.corpus.templates import get_template

        cell = ExperimentCell(language="cpp", model="cpp.cuda", kernel="axpy", use_postfix=False)
        correct = get_template("cpp", "cuda", "axpy")
        result = evaluator.evaluate_suggestions(cell, (correct,))
        assert result.level is ProficiencyLevel.EXPERT
        result2 = evaluator.evaluate_suggestions(cell, (correct, correct))
        assert result2.level is ProficiencyLevel.PROFICIENT

    def test_full_grid_covers_every_cell(self, full_results):
        assert len(full_results) == 204
        languages = {r.cell.language for r in full_results}
        assert languages == set(language_names())

    def test_scores_are_valid_rubric_values(self, full_results):
        assert set(full_results.scores()) <= {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_result_lookup_and_filter(self, full_results):
        value = full_results.score("cpp.openmp", "axpy", use_postfix=True)
        assert value in (0.0, 0.25, 0.5, 0.75, 1.0)
        subset = full_results.filter(language="julia")
        assert len(subset) == 24
        with pytest.raises(KeyError):
            full_results.score("cpp.openmp", "fft", use_postfix=False)

    def test_runs_are_reproducible(self, full_results):
        from repro.core.runner import EvaluationRunner

        rerun = EvaluationRunner(seed=full_results.seed).run_language("julia")
        for result in rerun:
            assert result.score == full_results.score(
                result.cell.model, result.cell.kernel, use_postfix=result.cell.use_postfix
            )


class TestAggregation:
    def test_kernel_averages_cover_all_kernels(self, full_results):
        averages = kernel_averages(full_results)
        assert tuple(averages) == KERNEL_NAMES
        assert all(0.0 <= v <= 1.0 for v in averages.values())

    def test_complexity_trend(self, full_results):
        averages = kernel_averages(full_results)
        assert averages["axpy"] == max(averages.values())
        assert averages["cg"] <= averages["axpy"] / 2

    def test_model_averages_per_language(self, full_results):
        for language in language_names():
            averages = model_averages(full_results, language)
            assert len(averages) == len(models_for_language(language))

    def test_language_averages_and_overall(self, full_results):
        languages = language_averages(full_results)
        assert set(languages) == set(language_names())
        overall = overall_average(full_results)
        assert 0.05 <= overall <= 0.5  # around the novice band, as in the paper

    def test_postfix_effect_positive_for_fortran_and_python(self, full_results):
        assert postfix_effect(full_results, "fortran")["delta"] > 0
        assert postfix_effect(full_results, "python")["delta"] > 0
        assert postfix_effect(full_results, "julia")["delta"] == 0.0


class TestPaperReference:
    def test_tables_have_expected_shapes(self):
        assert len(paper_table("cpp", use_postfix=False)) == 8
        assert len(paper_table("fortran", use_postfix=True)) == 3
        assert len(paper_table("python", use_postfix=True)) == 4
        assert len(paper_table("julia", use_postfix=False)) == 4
        with pytest.raises(KeyError):
            paper_table("julia", use_postfix=True)

    def test_known_values_from_the_paper(self):
        assert paper_score("cpp.openmp", "axpy", use_postfix=False) == 0.75
        assert paper_score("cpp.cuda", "gemm", use_postfix=True) == 0.0
        assert paper_score("fortran.openmp", "spmv", use_postfix=True) == 0.5
        assert paper_score("python.numpy", "cg", use_postfix=True) == 0.75
        assert paper_score("julia.amdgpu", "spmv", use_postfix=False) == 0.25

    def test_no_cell_reaches_expert(self):
        for table in PAPER_TABLES.values():
            for row in table.values():
                assert all(score < 1.0 for score in row.values())

    def test_all_scores_are_rubric_values(self):
        for (language, use_postfix) in PAPER_TABLES:
            for _model, _kernel, score in paper_cells(language, use_postfix=use_postfix):
                assert score in (0.0, 0.25, 0.5, 0.75)

    def test_every_paper_cell_exists_in_the_grid(self):
        for (language, use_postfix), table in PAPER_TABLES.items():
            model_uids = {m.uid for m in models_for_language(language)}
            assert set(table) == model_uids
            for row in table.values():
                assert set(row) == set(KERNEL_NAMES)


class TestComparison:
    def test_spearman_basics(self):
        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman_rank_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
        assert spearman_rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0
        assert spearman_rank_correlation([1.0], [2.0]) == 0.0
        with pytest.raises(ValueError):
            spearman_rank_correlation([1, 2], [1])

    def test_spearman_matches_scipy(self, rng):
        import scipy.stats

        a = list(rng.standard_normal(40))
        b = list(rng.standard_normal(40))
        ours = spearman_rank_correlation(a, b)
        theirs = scipy.stats.spearmanr(a, b).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    @pytest.mark.parametrize("language", ["cpp", "fortran", "python", "julia"])
    def test_shape_agreement_with_paper(self, full_results, language):
        comparison = compare_to_paper(full_results, language)
        assert comparison.cell_rank_correlation > 0.2
        assert comparison.within_one_level >= 0.8
        assert comparison.mean_absolute_difference <= 0.3
        assert comparison.complexity_trend_holds
        assert comparison.keyword_effect_agrees
        assert comparison.cells

    def test_top_model_agreement(self, full_results):
        for language in ("cpp", "fortran", "python", "julia"):
            comparison = compare_to_paper(full_results, language)
            assert comparison.top_model_agrees, language


class TestReportRendering:
    def test_format_score(self):
        assert format_score(0.0) == "0"
        assert format_score(0.25) == "0.25"
        assert format_score(0.5) == "0.5"

    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["x", "1"], ["yy", "22"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bbb" in lines[2]
        assert len(lines) == 6

    def test_format_bar_chart(self):
        chart = format_bar_chart({"axpy": 0.75, "cg": 0.0}, title="scores")
        assert "axpy" in chart and "#" in chart
        assert "cg" in chart
        assert format_bar_chart({}) == "(no data)"

    def test_side_by_side(self):
        combined = side_by_side("a\nbb", "X\nY\nZ")
        lines = combined.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("a")
        assert lines[0].rstrip().endswith("X")
