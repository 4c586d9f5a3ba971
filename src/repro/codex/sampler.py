"""Suggestion sampler: composes the ≤10 suggestions for a prompt.

Given the prompt's latent knowledge state (drawn from the competence model in
:class:`~repro.codex.config.CodexConfig`), the sampler assembles a list of
:class:`~repro.corpus.snippets.CodeSnippet` suggestions from the corpus:

* *competent* — every suggestion is the correct idiomatic implementation in
  the requested model (Copilot's near-duplicate completions of the same
  pattern);
* *fuzzy* — one or two correct suggestions among incorrect variants, all in
  the requested model;
* *confused* — a correct suggestion exists, but implementations in *other*
  programming models (the paper's "OpenACC suggestions in an OpenMP prompt")
  and broken variants pollute the list;
* *ignorant* — no correct suggestion at all: broken variants, other models,
  comment-only answers, or nothing.

The sampler's internal labels are *not* visible to the evaluation pipeline —
the analyzers re-derive everything from the suggestion text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.codex.config import CodexConfig, KnowledgeState
from repro.codex.prompt import Prompt
from repro.corpus.mutations import MUTATION_OPERATORS, apply_mutation
from repro.corpus.snippets import CodeSnippet, SnippetOrigin
from repro.corpus.store import CorpusStore, default_corpus
from repro.models.programming_models import STOCK_MODEL_UIDS
from repro.popularity.maturity import model_maturity

__all__ = ["SuggestionSampler"]

#: Mutations that keep the suggestion in the requested programming model.
_SAME_MODEL_MUTATIONS = ("wrong_operator", "off_by_one", "undefined_helper", "truncate")
#: Mutations that remove the parallel construct entirely.
_SERIAL_MUTATIONS = ("drop_parallelism",)
#: Mutations that only apply to Python snippets with embedded CUDA-C kernels.
#: Kept out of _SAME_MODEL_MUTATIONS so non-CUDA cells draw the exact same
#: random stream as before the operator existed.
_CUDA_MUTATIONS = ("race_injection",)
#: Mutations targeting the parallel-correctness failure modes of the scan /
#: histogram families (wrong reduction order, lost atomic update, halo
#: off-by-one).  Gated on the prompt's kernel so every stock cell draws the
#: exact same random stream as before these operators existed.
_PARALLEL_MUTATIONS = ("reduction_order", "drop_atomic", "bounds_off_by_one")
_PARALLEL_KERNELS = ("scan", "histogram")


@dataclass
class SuggestionSampler:
    """Stochastic composer of suggestion lists."""

    config: CodexConfig = field(default_factory=CodexConfig)
    corpus: CorpusStore | None = None

    def __post_init__(self) -> None:
        if self.corpus is None:
            self.corpus = default_corpus()

    # -- public API ------------------------------------------------------------
    def sample(
        self, prompt: Prompt, rng: np.random.Generator, *, competence: float | None = None
    ) -> list[CodeSnippet]:
        """Draw the suggestion list for ``prompt``.

        ``competence`` is ``config.competence(prompt)``; callers that already
        computed it pass it in.
        """
        if competence is None:
            competence = self.config.competence(prompt)
        state = self._draw_state(competence, rng)
        return self.sample_for_state(prompt, state, rng)

    def sample_for_state(
        self, prompt: Prompt, state: KnowledgeState, rng: np.random.Generator
    ) -> list[CodeSnippet]:
        """Compose suggestions for an explicit knowledge state (used by tests
        and ablations as well as by :meth:`sample`)."""
        if state is KnowledgeState.COMPETENT:
            return self._compose_competent(prompt, rng)
        if state is KnowledgeState.FUZZY:
            return self._compose_fuzzy(prompt, rng)
        if state is KnowledgeState.CONFUSED:
            return self._compose_confused(prompt, rng)
        return self._compose_ignorant(prompt, rng)

    # -- state draw --------------------------------------------------------------
    def _draw_state(self, competence: float, rng: np.random.Generator) -> KnowledgeState:
        probs = self.config.state_probabilities(competence)
        states = list(probs.keys())
        p = np.array([probs[s] for s in states], dtype=np.float64)
        p = p / p.sum()
        return states[int(rng.choice(len(states), p=p))]

    # -- building blocks -----------------------------------------------------------
    def _template(self, prompt: Prompt) -> CodeSnippet | None:
        return self.corpus.template(prompt.language.name, prompt.model_uid, prompt.kernel)

    def _correct_suggestion(self, prompt: Prompt) -> CodeSnippet | None:
        return self._template(prompt)

    def _mutant(self, template: CodeSnippet, name: str) -> CodeSnippet | None:
        """Operator ``name`` applied to ``template``, through the corpus's
        mutant table (filled here for templates the corpus did not mutate)."""
        mutants = self.corpus.mutants
        key = (template, name)
        if key not in mutants:
            mutants[key] = apply_mutation(template, name)
        return mutants[key]

    def _broken_same_model(self, prompt: Prompt, rng: np.random.Generator) -> CodeSnippet | None:
        """An incorrect suggestion that still targets the requested model
        (or its serial skeleton)."""
        template = self._template(prompt)
        if template is None:
            return None
        names = list(_SAME_MODEL_MUTATIONS + _SERIAL_MUTATIONS)
        if prompt.kernel in _PARALLEL_KERNELS:
            names.extend(_PARALLEL_MUTATIONS)
        if template.language == "python" and (
            "RawKernel" in template.code or "SourceModule" in template.code
        ):
            names.extend(_CUDA_MUTATIONS)
        weights = np.array([MUTATION_OPERATORS[n].weight for n in names], dtype=np.float64)
        weights /= weights.sum()
        order = rng.permutation(len(names))
        # Try operators in a weighted random order until one applies.
        ranked = sorted(order, key=lambda idx: -weights[idx] * rng.random())
        for idx in ranked:
            mutated = self._mutant(template, names[idx])
            if mutated is not None:
                return mutated
        return None

    def _other_model_suggestion(self, prompt: Prompt, rng: np.random.Generator,
                                *, corrupt_probability: float = 0.3) -> CodeSnippet | None:
        """A suggestion written in a different programming model of the same
        language, weighted towards the mature models whose code dominates the
        public corpus."""
        candidates = self.corpus.other_model_snippets(
            prompt.language.name, prompt.model_uid, prompt.kernel, correct_only=True
        )
        templates = [c for c in candidates if c.origin is SnippetOrigin.TEMPLATE]
        if prompt.model_uid in STOCK_MODEL_UIDS:
            # Confusion suggestions for stock-model prompts come only from
            # other stock models: registering an extension model (e.g.
            # python.kokkos) must not perturb a stock cell's random stream.
            templates = [c for c in templates if c.label_model in STOCK_MODEL_UIDS]
        if not templates:
            return None
        weights = np.array([model_maturity(c.label_model) for c in templates], dtype=np.float64)
        weights = weights / weights.sum()
        chosen = templates[int(rng.choice(len(templates), p=weights))]
        if rng.random() < corrupt_probability:
            for name in ("wrong_operator", "off_by_one", "truncate"):
                mutated = self._mutant(chosen, name)
                if mutated is not None:
                    return mutated
        return chosen

    def _non_code(self, prompt: Prompt) -> CodeSnippet:
        template = self._template(prompt)
        if template is not None:
            non_code = self._mutant(template, "comment_only")
            if non_code is not None:
                return non_code
        prefix = prompt.language.comment_prefix
        return CodeSnippet(
            code=f"{prefix} {prompt.query}\n",
            language=prompt.language.name,
            kernel=prompt.kernel,
            label_model="none",
            label_correct=False,
            origin=SnippetOrigin.NON_CODE,
        )

    # -- per-state composition ---------------------------------------------------------
    def _compose_competent(self, prompt: Prompt, rng: np.random.Generator) -> list[CodeSnippet]:
        correct = self._correct_suggestion(prompt)
        if correct is None:
            return self._compose_ignorant(prompt, rng)
        low = min(2, self.config.max_suggestions)
        count = int(rng.integers(low, self.config.max_suggestions + 1))
        return [correct] * count

    def _compose_fuzzy(self, prompt: Prompt, rng: np.random.Generator) -> list[CodeSnippet]:
        correct = self._correct_suggestion(prompt)
        if correct is None:
            return self._compose_ignorant(prompt, rng)
        low = min(4, self.config.max_suggestions)
        count = int(rng.integers(low, self.config.max_suggestions + 1))
        n_correct = max(1, int(rng.integers(1, 3)))
        suggestions: list[CodeSnippet] = [correct] * n_correct
        while len(suggestions) < count:
            broken = self._broken_same_model(prompt, rng)
            suggestions.append(broken if broken is not None else self._non_code(prompt))
        rng.shuffle(suggestions)
        # n_correct is drawn independently of the budget, so cap the list for
        # tiny budgets (count < 2); a no-op whenever count >= n_correct.
        return suggestions[:count]

    def _compose_confused(self, prompt: Prompt, rng: np.random.Generator) -> list[CodeSnippet]:
        correct = self._correct_suggestion(prompt)
        if correct is None:
            return self._compose_ignorant(prompt, rng)
        low = min(4, self.config.max_suggestions)
        count = int(rng.integers(low, self.config.max_suggestions + 1))
        suggestions: list[CodeSnippet] = [correct]
        n_other = max(1, int(rng.integers(1, max(2, count // 2))))
        for _ in range(n_other):
            other = self._other_model_suggestion(prompt, rng)
            if other is not None:
                suggestions.append(other)
        while len(suggestions) < count:
            roll = rng.random()
            if roll < 0.55:
                broken = self._broken_same_model(prompt, rng)
                suggestions.append(broken if broken is not None else self._non_code(prompt))
            elif roll < 0.8:
                other = self._other_model_suggestion(prompt, rng)
                suggestions.append(other if other is not None else self._non_code(prompt))
            else:
                suggestions.append(self._non_code(prompt))
        rng.shuffle(suggestions)
        return suggestions[:count]

    def _compose_ignorant(self, prompt: Prompt, rng: np.random.Generator) -> list[CodeSnippet]:
        # With some probability the model offers nothing at all.
        if rng.random() < 0.25:
            return []
        count = int(rng.integers(1, self.config.max_suggestions + 1))
        suggestions: list[CodeSnippet] = []
        while len(suggestions) < count:
            roll = rng.random()
            if roll < 0.45:
                broken = self._broken_same_model(prompt, rng)
                suggestions.append(broken if broken is not None else self._non_code(prompt))
            elif roll < 0.75:
                other = self._other_model_suggestion(prompt, rng, corrupt_probability=0.6)
                suggestions.append(other if other is not None else self._non_code(prompt))
            else:
                suggestions.append(self._non_code(prompt))
        return suggestions
