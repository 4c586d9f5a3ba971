"""Tests for the SimCodex prompt model, competence config, sampler and engine."""

from __future__ import annotations

import dataclasses
import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.detection import detect_models
from repro.codex.config import DEFAULT_SEED, CodexConfig, KnowledgeState
from repro.codex.engine import SimulatedCodex
from repro.codex.prompt import Prompt
from repro.codex.sampler import SuggestionSampler
from repro.corpus.store import CorpusStore, build_default_corpus
from repro.models.grid import ExperimentCell, experiment_grid
from repro.models.programming_models import PROGRAMMING_MODELS
from repro.kernels.registry import KERNEL_NAMES


class TestPrompt:
    def test_query_structure(self):
        prompt = Prompt(kernel="gemm", model_uid="cpp.openmp", postfix="function")
        assert prompt.query == "GEMM OpenMP function"
        assert prompt.text == "// Prompt: GEMM OpenMP function"
        assert prompt.filename == "gemm.cpp"
        assert prompt.uses_keyword

    def test_fortran_prompt_comment_style(self):
        prompt = Prompt(kernel="axpy", model_uid="fortran.openacc", postfix="subroutine")
        assert prompt.text.startswith("! Prompt:")
        assert prompt.filename.endswith(".f90")

    def test_bare_prompt_has_no_keyword(self):
        prompt = Prompt(kernel="cg", model_uid="julia.cuda")
        assert prompt.query == "CG CUDA"
        assert not prompt.uses_keyword

    def test_from_cell_roundtrip(self):
        cell = ExperimentCell(language="python", model="python.numpy", kernel="spmv", use_postfix=True)
        prompt = Prompt.from_cell(cell)
        assert prompt.postfix == "def"
        assert prompt.cell_id == cell.cell_id

    def test_offload_prompt_phrase(self):
        prompt = Prompt(kernel="axpy", model_uid="cpp.openmp_offload")
        assert "offload" in prompt.query.lower()


class TestCodexConfig:
    config = CodexConfig()

    def test_competence_is_bounded(self):
        for cell in experiment_grid():
            value = self.config.competence(Prompt.from_cell(cell))
            assert 0.0 <= value <= 1.0

    def test_complexity_monotonically_degrades_competence(self):
        scores = [
            self.config.competence(Prompt(kernel=k, model_uid="cpp.openmp", postfix="function"))
            for k in KERNEL_NAMES
        ]
        assert scores[0] == max(scores)
        assert scores[-1] == min(scores)
        assert scores == sorted(scores, reverse=True)

    def test_keyword_helps_fortran_and_python(self):
        for model in ("fortran.openmp", "python.numpy"):
            keyword = "subroutine" if model.startswith("fortran") else "def"
            bare = self.config.competence(Prompt(kernel="gemv", model_uid=model))
            keyed = self.config.competence(Prompt(kernel="gemv", model_uid=model, postfix=keyword))
            assert keyed > bare

    def test_function_keyword_hurts_cuda_but_not_openmp(self):
        cuda_bare = self.config.competence(Prompt(kernel="gemm", model_uid="cpp.cuda"))
        cuda_keyed = self.config.competence(Prompt(kernel="gemm", model_uid="cpp.cuda", postfix="function"))
        assert cuda_keyed < cuda_bare
        omp_bare = self.config.competence(Prompt(kernel="gemm", model_uid="cpp.openmp"))
        omp_keyed = self.config.competence(Prompt(kernel="gemm", model_uid="cpp.openmp", postfix="function"))
        assert omp_keyed >= omp_bare

    def test_axpy_waives_the_bare_prompt_penalty_for_fortran(self):
        axpy = self.config.competence(Prompt(kernel="axpy", model_uid="fortran.openmp"))
        gemv = self.config.competence(Prompt(kernel="gemv", model_uid="fortran.openmp"))
        assert axpy > 2 * gemv

    def test_mature_models_outrank_young_ones(self):
        for better, worse in (
            ("cpp.openmp", "cpp.hip"),
            ("cpp.cuda", "cpp.thrust"),
            ("python.numpy", "python.numba"),
            ("julia.cuda", "julia.amdgpu"),
        ):
            b = self.config.competence(Prompt(kernel="axpy", model_uid=better))
            w = self.config.competence(Prompt(kernel="axpy", model_uid=worse))
            assert b > w, (better, worse)

    def test_state_probabilities_sum_to_one(self):
        for c in np.linspace(0.0, 1.0, 21):
            probs = self.config.state_probabilities(float(c))
            assert sum(probs.values()) == pytest.approx(1.0)
            assert all(p >= 0 for p in probs.values())

    def test_state_distribution_extremes(self):
        high = self.config.state_probabilities(0.95)
        low = self.config.state_probabilities(0.05)
        assert max(high, key=high.get) is KnowledgeState.COMPETENT
        assert max(low, key=low.get) is KnowledgeState.IGNORANT

    def test_expected_score_monotone_in_competence_extremes(self):
        hard = self.config.expected_score(Prompt(kernel="cg", model_uid="cpp.hip"))
        easy = self.config.expected_score(Prompt(kernel="axpy", model_uid="cpp.openmp", postfix="function"))
        assert easy > hard
        assert 0.0 <= hard <= easy <= 0.75

    def test_fingerprint_does_not_depend_on_the_intenum_str(self):
        # Python 3.10's str() of an IntEnum member is "Class.MEMBER", 3.11's
        # is the integer; the complexity_discount keys are IntEnum members.
        class Complexity310(enum.IntEnum):
            TRIVIAL = 1
            SIMPLE = 2
            MODERATE = 3
            IRREGULAR = 4
            STENCIL = 5
            MULTIKERNEL = 6

            __str__ = enum.Enum.__str__

        assert str(Complexity310.TRIVIAL) == "Complexity310.TRIVIAL"
        discount = {Complexity310(int(k)): v for k, v in self.config.complexity_discount.items()}
        legacy = dataclasses.replace(self.config, complexity_discount=discount)
        assert legacy.fingerprint() == self.config.fingerprint() == "99936806d3010042"

    @given(c=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_property_state_probabilities_valid(self, c):
        probs = CodexConfig().state_probabilities(c)
        assert abs(sum(probs.values()) - 1.0) < 1e-9


class TestSampler:
    def test_competent_sets_are_all_correct_templates(self, corpus, rng):
        sampler = SuggestionSampler(corpus=corpus)
        prompt = Prompt(kernel="axpy", model_uid="cpp.openmp", postfix="function")
        suggestions = sampler.sample_for_state(prompt, KnowledgeState.COMPETENT, rng)
        assert 2 <= len(suggestions) <= 10
        assert all(s.label_correct for s in suggestions)
        assert all(s.label_model == "cpp.openmp" for s in suggestions)

    def test_fuzzy_sets_have_correct_and_incorrect_same_model(self, corpus, rng):
        sampler = SuggestionSampler(corpus=corpus)
        prompt = Prompt(kernel="gemv", model_uid="fortran.openmp", postfix="subroutine")
        suggestions = sampler.sample_for_state(prompt, KnowledgeState.FUZZY, rng)
        assert any(s.label_correct for s in suggestions)
        assert any(not s.label_correct for s in suggestions)
        assert all(s.label_model in ("fortran.openmp", "serial", "none") for s in suggestions)

    def test_confused_sets_contain_other_models(self, corpus, rng):
        sampler = SuggestionSampler(corpus=corpus)
        prompt = Prompt(kernel="gemm", model_uid="cpp.openmp", postfix="function")
        suggestions = sampler.sample_for_state(prompt, KnowledgeState.CONFUSED, rng)
        other_models = {
            s.label_model
            for s in suggestions
            if s.label_model not in ("cpp.openmp", "serial", "none")
        }
        assert other_models

    def test_ignorant_sets_have_no_correct_requested_model_code(self, corpus, rng):
        sampler = SuggestionSampler(corpus=corpus)
        prompt = Prompt(kernel="cg", model_uid="cpp.hip")
        for _ in range(5):
            suggestions = sampler.sample_for_state(prompt, KnowledgeState.IGNORANT, rng)
            assert not any(s.label_correct and s.label_model == "cpp.hip" for s in suggestions)

    def test_sample_respects_max_suggestions(self, corpus, rng):
        sampler = SuggestionSampler(config=CodexConfig(max_suggestions=4), corpus=corpus)
        for cell in experiment_grid()[:20]:
            suggestions = sampler.sample(Prompt.from_cell(cell), rng)
            assert len(suggestions) <= 4

    def test_fuzzy_respects_tiny_budget(self, corpus, rng):
        # The fuzzy state draws its correct-suggestion count independently of
        # the budget; a budget of 1 must still cap the list.
        sampler = SuggestionSampler(config=CodexConfig(max_suggestions=1), corpus=corpus)
        prompt = Prompt(kernel="gemv", model_uid="fortran.openmp", postfix="subroutine")
        for _ in range(20):
            suggestions = sampler.sample_for_state(prompt, KnowledgeState.FUZZY, rng)
            assert len(suggestions) <= 1


class TestEngine:
    def test_completions_are_deterministic_per_seed(self, corpus):
        prompt = Prompt(kernel="spmv", model_uid="python.pycuda", postfix="def")
        a = SimulatedCodex(seed=7, corpus=corpus).complete(prompt)
        b = SimulatedCodex(seed=7, corpus=corpus).complete(prompt)
        assert a.suggestions == b.suggestions

    def test_different_seeds_change_output_somewhere(self, corpus):
        prompts = [Prompt.from_cell(cell) for cell in experiment_grid()[:30]]
        engine_a = SimulatedCodex(seed=1, corpus=corpus)
        engine_b = SimulatedCodex(seed=2, corpus=corpus)
        assert any(
            engine_a.complete(p).suggestions != engine_b.complete(p).suggestions for p in prompts
        )

    def test_completion_metadata(self, engine):
        prompt = Prompt(kernel="axpy", model_uid="julia.threads")
        completion = engine.complete(prompt)
        assert 0 <= len(completion) <= 10
        assert 0.0 <= completion.competence <= 1.0
        assert completion.prompt is prompt

    def test_suggestions_are_in_the_prompt_language(self, engine):
        prompt = Prompt(kernel="gemv", model_uid="fortran.openmp", postfix="subroutine")
        completion = engine.complete(prompt)
        for code in completion:
            if not code.strip():
                continue
            detected = detect_models(code, "fortran")
            # Either Fortran directives or serial/non-code text; never, say, CUDA C.
            assert all(uid.startswith("fortran.") for uid in detected)

    def test_complete_snippets_matches_complete(self, corpus):
        engine = SimulatedCodex(seed=3, corpus=corpus)
        prompt = Prompt(kernel="gemm", model_uid="cpp.kokkos", postfix="function")
        texts = engine.complete(prompt).suggestions
        snippets = engine.complete_snippets(prompt)
        assert tuple(s.code for s in snippets) == texts

    def test_default_corpus_sampling_never_reapplies_mutations(self, monkeypatch):
        import repro.codex.sampler as sampler_module

        def forbidden(snippet, name):
            raise AssertionError(f"{name} re-applied to {snippet.describe()}")

        monkeypatch.setattr(sampler_module, "apply_mutation", forbidden)
        corpus = build_default_corpus()
        for seed in (1, DEFAULT_SEED):
            engine = SimulatedCodex(seed=seed, corpus=corpus)
            for cell in experiment_grid():
                engine.complete(Prompt.from_cell(cell))

    def test_hand_built_corpus_samples_like_the_default(self, corpus):
        # A corpus without a mutant table fills it through apply_mutation
        # on first use and must draw exactly the default corpus' snippets.
        hand_built = CorpusStore(snippets=list(corpus))
        prompts = [Prompt.from_cell(cell) for cell in experiment_grid()]
        for seed in (1, DEFAULT_SEED):
            default = SimulatedCodex(seed=seed, corpus=corpus)
            manual = SimulatedCodex(seed=seed, corpus=hand_built)
            for prompt in prompts:
                expected = default.complete_snippets(prompt)
                assert manual.complete_snippets(prompt) == expected, prompt
                assert manual.complete(prompt) == default.complete(prompt)
        assert hand_built.mutants
        for key, mutant in hand_built.mutants.items():
            assert mutant == corpus.mutants[key]

    def test_every_grid_cell_yields_a_completion(self, engine):
        for cell in experiment_grid():
            completion = engine.complete(Prompt.from_cell(cell))
            assert len(completion) <= 10

    def test_all_models_have_registered_maturity(self):
        # guards the sampler's other-model weighting from KeyErrors
        from repro.popularity.maturity import model_maturity

        for uid in PROGRAMMING_MODELS:
            assert model_maturity(uid) > 0
