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

Sampling plans: what a draw reads that depends only on the corpus and the
cell — the template, the same-model mutation operators with their weights,
the other-model templates with their cumulative weight table, and the
non-code fallback — is gathered into a :class:`_CellPlan` on the cell's first
draw.  Plans live in the corpus store's ``plans`` table, so every sampler,
engine, runner, seed and session of a process shares them, and the store
drops them when its snippets change.  Operators are applied to a template,
through the corpus' mutant table, only when a draw first needs the result.
Nothing config-dependent goes into a plan: competence, the knowledge-state
distribution and the list budget stay per call.

Every draw consumes the random stream exactly as ``Generator.choice(n, p=p)``
and a ``sorted`` key of per-element ``rng.random()`` calls would: a bisect
over the cumulative table numpy builds (:func:`_choice_cdf`) returns
``choice``'s index, and the weighted operator order (:func:`_weighted_order`)
draws its uniforms in one ``rng.random(k)`` call.  ``tests/test_sampling_plans.py``
pins both against numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

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
#: Operators that corrupt an other-model suggestion, tried in this order.
_CORRUPTIONS = ("wrong_operator", "off_by_one", "truncate")

#: An unfilled lazy plan slot (``None`` means "the operator does not apply").
_UNSET = object()

#: Every :class:`CodexConfig` field ``state_probabilities`` reads.
_STATE_FIELDS = attrgetter(
    "competent_threshold", "competent_gain", "fuzzy_center", "fuzzy_width",
    "confused_center", "confused_width", "ignorant_threshold", "ignorant_gain",
    "state_temperature",
)
#: ``(competence, those fields' values) -> (states, cdf)``, process-wide like
#: the plans, because every seed redraws the same cells.  Never keyed on
#: competence alone: configs that differ in those fields differ in the table.
_STATE_TABLES: dict[tuple, tuple[list[KnowledgeState], list[float]]] = {}
_STATE_TABLES_MAX = 1 << 14


def _probabilities(weights) -> np.ndarray:
    """``weights / sum(weights)``, rejecting what ``Generator.choice`` rejects:
    negative, non-finite or zero-sum weights (a bisect over a NaN table would
    silently pick an index)."""
    w = np.array(weights, dtype=np.float64)
    total = w.sum()
    # Chained comparisons are False for NaN, so these also reject NaN.
    if not (0 < total < math.inf and all(0 <= x < math.inf for x in weights)):
        raise ValueError(
            f"sampling weights must be finite, non-negative and not all zero: {w.tolist()}"
        )
    return w / total


def _choice_cdf(weights) -> list[float]:
    """The table ``rng.choice(n, p=weights / sum(weights))`` searches, built as
    numpy builds it, so ``bisect_right(cdf, rng.random())`` returns the same
    index and leaves the generator in the same state."""
    cdf = _probabilities(weights).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _weighted_order(neg_weights: np.ndarray, order: np.ndarray, uniforms: np.ndarray) -> list[int]:
    """``sorted(order, key=lambda i: -w[i] * rng.random())`` given the uniforms
    that sort would draw: ``sorted`` computes every key, in list order, before
    it sorts stably."""
    return order[(neg_weights[order] * uniforms).argsort(kind="stable")].tolist()


class _CellPlan:
    """One cell's draw tables for one corpus, built by :func:`_build_plan`.

    Immutable once built, apart from its lazy slots (``mutants``,
    ``corrupted``, ``non_code``).  Each slot is filled on first use with a
    pure function of the plan, so threads racing on a slot store equal
    values: the same benign race as the corpus' mutant table, hence no lock.
    """

    __slots__ = (
        "prompt", "template", "operators", "neg_weights", "mutants",
        "others", "other_cdf", "corrupted", "non_code",
    )

    def __init__(self, prompt: Prompt, template: CodeSnippet | None,
                 operators: tuple[str, ...], others: tuple[CodeSnippet, ...]) -> None:
        self.prompt = prompt
        self.template = template
        #: Same-model operators and minus their normalized weights (the sort
        #: keys of the weighted order are ``neg_weights[i] * uniform``).
        self.operators = operators
        self.neg_weights = (
            -_probabilities([MUTATION_OPERATORS[n].weight for n in operators]) if operators else None
        )
        #: Operator index -> the template's mutant, or None where it does not apply.
        self.mutants: list = [_UNSET] * len(operators)
        #: Other-model templates and their maturity-weighted choice table.
        self.others = others
        self.other_cdf = (
            _choice_cdf([model_maturity(c.label_model) for c in others]) if others else []
        )
        #: Other-model index -> its first applicable corruption, or the template.
        self.corrupted: list = [_UNSET] * len(others)
        self.non_code: CodeSnippet | None = None


def _build_plan(corpus: CorpusStore, prompt: Prompt) -> _CellPlan:
    """Gather the cell's template, operators and other-model templates."""
    language = prompt.language.name
    template = corpus.template(language, prompt.model_uid, prompt.kernel)
    operators: tuple[str, ...] = ()
    if template is not None:
        operators = _SAME_MODEL_MUTATIONS + _SERIAL_MUTATIONS
        if prompt.kernel in _PARALLEL_KERNELS:
            operators += _PARALLEL_MUTATIONS
        if template.language == "python" and (
            "RawKernel" in template.code or "SourceModule" in template.code
        ):
            operators += _CUDA_MUTATIONS
    # Confusion suggestions for stock-model prompts come only from other
    # stock models: registering an extension model (e.g. python.kokkos) must
    # not perturb a stock cell's random stream.
    stock_only = prompt.model_uid in STOCK_MODEL_UIDS
    others = tuple(
        c
        for c in corpus.other_model_snippets(language, prompt.model_uid, prompt.kernel)
        if c.origin is SnippetOrigin.TEMPLATE
        and (not stock_only or c.label_model in STOCK_MODEL_UIDS)
    )
    return _CellPlan(prompt, template, operators, others)


@dataclass
class SuggestionSampler:
    """Stochastic composer of suggestion lists."""

    config: CodexConfig = field(default_factory=CodexConfig)
    corpus: CorpusStore | None = None

    def __post_init__(self) -> None:
        if self.corpus is None:
            # Templates only: the mutant table fills as draws need mutants.
            self.corpus = default_corpus(include_mutations=False)

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
        plan = self._plan(prompt)
        if state is KnowledgeState.COMPETENT:
            return self._compose_competent(plan, rng)
        if state is KnowledgeState.FUZZY:
            return self._compose_fuzzy(plan, rng)
        if state is KnowledgeState.CONFUSED:
            return self._compose_confused(plan, rng)
        return self._compose_ignorant(plan, rng)

    # -- state draw --------------------------------------------------------------
    def _draw_state(self, competence: float, rng: np.random.Generator) -> KnowledgeState:
        key = (competence, _STATE_FIELDS(self.config))
        table = _STATE_TABLES.get(key)
        if table is None:
            probs = self.config.state_probabilities(competence)
            if len(_STATE_TABLES) >= _STATE_TABLES_MAX:
                _STATE_TABLES.clear()
            table = _STATE_TABLES[key] = (list(probs), _choice_cdf(list(probs.values())))
        states, cdf = table
        return states[bisect_right(cdf, rng.random())]

    # -- building blocks -----------------------------------------------------------
    def _plan(self, prompt: Prompt) -> _CellPlan:
        """The cell's plan from the corpus' shared table, built on first draw.

        Threads racing on a missing plan each build an equal one and the
        last store wins, so a race costs at most a repeated, equal
        computation; hence no lock.
        """
        plans = self.corpus.plans
        plan = plans.get(prompt)
        if plan is None:
            plan = plans[prompt] = _build_plan(self.corpus, prompt)
        return plan

    def _mutant(self, template: CodeSnippet, name: str) -> CodeSnippet | None:
        """Operator ``name`` applied to ``template``, through the corpus's
        mutant table (filled here for templates the corpus did not mutate)."""
        mutants = self.corpus.mutants
        key = (template, name)
        if key not in mutants:
            mutants[key] = apply_mutation(template, name)
        return mutants[key]

    def _broken_same_model(self, plan: _CellPlan, rng: np.random.Generator) -> CodeSnippet | None:
        """An incorrect suggestion that still targets the requested model
        (or its serial skeleton)."""
        if plan.template is None:
            return None
        order = rng.permutation(len(plan.operators))
        # Try operators in a weighted random order until one applies.
        for idx in _weighted_order(plan.neg_weights, order, rng.random(len(order))):
            mutant = plan.mutants[idx]
            if mutant is _UNSET:
                mutant = plan.mutants[idx] = self._mutant(plan.template, plan.operators[idx])
            if mutant is not None:
                return mutant
        return None

    def _other_model_suggestion(self, plan: _CellPlan, rng: np.random.Generator,
                                *, corrupt_probability: float = 0.3) -> CodeSnippet | None:
        """A suggestion written in a different programming model of the same
        language, weighted towards the mature models whose code dominates the
        public corpus."""
        if not plan.others:
            return None
        index = bisect_right(plan.other_cdf, rng.random())
        if rng.random() < corrupt_probability:
            corrupted = plan.corrupted[index]
            if corrupted is _UNSET:
                corrupted = plan.corrupted[index] = self._corrupt(plan.others[index])
            return corrupted
        return plan.others[index]

    def _corrupt(self, template: CodeSnippet) -> CodeSnippet:
        for name in _CORRUPTIONS:
            mutated = self._mutant(template, name)
            if mutated is not None:
                return mutated
        return template

    def _non_code(self, plan: _CellPlan) -> CodeSnippet:
        non_code = plan.non_code
        if non_code is None:
            non_code = plan.non_code = self._comment_only(plan)
        return non_code

    def _comment_only(self, plan: _CellPlan) -> CodeSnippet:
        if plan.template is not None:
            non_code = self._mutant(plan.template, "comment_only")
            if non_code is not None:
                return non_code
        prompt = plan.prompt
        return CodeSnippet(
            code=f"{prompt.language.comment_prefix} {prompt.query}\n",
            language=prompt.language.name,
            kernel=prompt.kernel,
            label_model="none",
            label_correct=False,
            origin=SnippetOrigin.NON_CODE,
        )

    # -- per-state composition ---------------------------------------------------------
    def _compose_competent(self, plan: _CellPlan, rng: np.random.Generator) -> list[CodeSnippet]:
        correct = plan.template
        if correct is None:
            return self._compose_ignorant(plan, rng)
        low = min(2, self.config.max_suggestions)
        count = int(rng.integers(low, self.config.max_suggestions + 1))
        return [correct] * count

    def _compose_fuzzy(self, plan: _CellPlan, rng: np.random.Generator) -> list[CodeSnippet]:
        correct = plan.template
        if correct is None:
            return self._compose_ignorant(plan, rng)
        low = min(4, self.config.max_suggestions)
        count = int(rng.integers(low, self.config.max_suggestions + 1))
        n_correct = max(1, int(rng.integers(1, 3)))
        suggestions: list[CodeSnippet] = [correct] * n_correct
        while len(suggestions) < count:
            broken = self._broken_same_model(plan, rng)
            suggestions.append(broken if broken is not None else self._non_code(plan))
        rng.shuffle(suggestions)
        # n_correct is drawn independently of the budget, so cap the list for
        # tiny budgets (count < 2); a no-op whenever count >= n_correct.
        return suggestions[:count]

    def _compose_confused(self, plan: _CellPlan, rng: np.random.Generator) -> list[CodeSnippet]:
        correct = plan.template
        if correct is None:
            return self._compose_ignorant(plan, rng)
        low = min(4, self.config.max_suggestions)
        count = int(rng.integers(low, self.config.max_suggestions + 1))
        suggestions: list[CodeSnippet] = [correct]
        n_other = max(1, int(rng.integers(1, max(2, count // 2))))
        for _ in range(n_other):
            other = self._other_model_suggestion(plan, rng)
            if other is not None:
                suggestions.append(other)
        while len(suggestions) < count:
            roll = rng.random()
            if roll < 0.55:
                broken = self._broken_same_model(plan, rng)
                suggestions.append(broken if broken is not None else self._non_code(plan))
            elif roll < 0.8:
                other = self._other_model_suggestion(plan, rng)
                suggestions.append(other if other is not None else self._non_code(plan))
            else:
                suggestions.append(self._non_code(plan))
        rng.shuffle(suggestions)
        return suggestions[:count]

    def _compose_ignorant(self, plan: _CellPlan, rng: np.random.Generator) -> list[CodeSnippet]:
        # With some probability the model offers nothing at all.
        if rng.random() < 0.25:
            return []
        count = int(rng.integers(1, self.config.max_suggestions + 1))
        suggestions: list[CodeSnippet] = []
        while len(suggestions) < count:
            roll = rng.random()
            if roll < 0.45:
                broken = self._broken_same_model(plan, rng)
                suggestions.append(broken if broken is not None else self._non_code(plan))
            elif roll < 0.75:
                other = self._other_model_suggestion(plan, rng, corrupt_probability=0.6)
                suggestions.append(other if other is not None else self._non_code(plan))
            else:
                suggestions.append(self._non_code(plan))
        return suggestions
