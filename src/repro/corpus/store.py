"""The searchable corpus the simulated suggestion engine draws from.

``build_default_corpus`` populates a :class:`CorpusStore` with

* one correct template per (kernel, language, programming model) cell, and
* the mutated variants of every template produced by each applicable
  operator in :mod:`repro.corpus.mutations`,

so that the store's population mirrors what a code model trained on public
repositories would have absorbed: a kernel of correct idiomatic solutions
surrounded by a halo of near-misses, serial fallbacks and unfinished
completions.

The store indexes its snippets by ``(language, kernel)`` on first lookup,
and keeps two derived tables for the sampler (:mod:`repro.codex.sampler`):

* a mutant table ``(template, operator) -> mutant or None``, which
  ``build_default_corpus`` fills from the operator applications it performs
  anyway and samplers fill on first use, so one thread applies each
  operator to a template at most once;
* a plan table ``cell -> sampling plan``, filled on each cell's first draw
  and dropped, with the index, whenever the snippets change.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.corpus.mutations import MUTATION_OPERATORS
from repro.corpus.snippets import CodeSnippet, SnippetOrigin
from repro.corpus.templates import iter_templates
from repro.models.programming_models import PROGRAMMING_MODELS

__all__ = [
    "CorpusStore",
    "build_default_corpus",
    "default_corpus",
    "clear_default_corpus_cache",
]


def _model_uid(language: str, model_short: str) -> str:
    uid = f"{language}.{model_short}"
    if uid not in PROGRAMMING_MODELS:
        raise KeyError(f"template refers to unknown programming model {uid!r}")
    return uid


#: Lookup index: ``(language, kernel) -> snippets`` in insertion order, and
#: ``(language, model uid, kernel) -> template``.
_Index = tuple[dict[tuple[str, str], list[CodeSnippet]], dict[tuple[str, str, str], CodeSnippet]]


@dataclass
class CorpusStore:
    """In-memory snippet corpus with per-cell lookup."""

    snippets: list[CodeSnippet] = field(default_factory=list)
    #: ``(template, operator name) -> mutant`` (``None`` when the operator
    #: does not apply).  Filled by :func:`build_default_corpus`; samplers
    #: fill the entries it lacks on first use.
    mutants: dict[tuple[CodeSnippet, str], CodeSnippet | None] = field(
        default_factory=dict, repr=False
    )
    #: ``prompt -> sampling plan``, owned by :mod:`repro.codex.sampler`.
    plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _index: _Index | None = field(default=None, init=False, repr=False, compare=False)

    # -- population ---------------------------------------------------------
    def add(self, snippet: CodeSnippet) -> None:
        self.snippets.append(snippet)
        self._contents_changed()

    def extend(self, snippets: Iterable[CodeSnippet]) -> None:
        self.snippets.extend(snippets)
        self._contents_changed()

    def _contents_changed(self) -> None:
        # A new dict rather than clear(): a sampler still holding the old
        # table cannot put a stale plan into the new one.
        self._index = None
        self.plans = {}

    def __len__(self) -> int:
        return len(self.snippets)

    def __iter__(self) -> Iterator[CodeSnippet]:
        return iter(self.snippets)

    # -- lookup ---------------------------------------------------------------
    def _lookup_index(self) -> _Index:
        index = self._index
        if index is None:
            by_kernel: dict[tuple[str, str], list[CodeSnippet]] = {}
            templates: dict[tuple[str, str, str], CodeSnippet] = {}
            for s in self.snippets:
                by_kernel.setdefault((s.language, s.kernel), []).append(s)
                if s.origin is SnippetOrigin.TEMPLATE and s.label_correct:
                    templates.setdefault((s.language, s.label_model, s.kernel), s)
            index = self._index = (by_kernel, templates)
        return index

    def candidates(self, language: str, kernel: str) -> list[CodeSnippet]:
        """All snippets implementing ``kernel`` in ``language`` (any model)."""
        return list(self._lookup_index()[0].get((language.lower(), kernel.lower()), ()))

    def template(self, language: str, model_uid: str, kernel: str) -> CodeSnippet | None:
        """The curated correct template for a cell, if present."""
        return self._lookup_index()[1].get((language.lower(), model_uid, kernel.lower()))

    def other_model_snippets(self, language: str, model_uid: str, kernel: str) -> list[CodeSnippet]:
        """Correct snippets for the same kernel/language but a *different* model."""
        return [
            s
            for s in self.candidates(language, kernel)
            if s.label_model not in (model_uid, "serial", "none") and s.label_correct
        ]

    # -- statistics -----------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Population statistics by origin, correctness and language."""
        counter: Counter[str] = Counter()
        for snippet in self.snippets:
            counter["total"] += 1
            counter[f"origin:{snippet.origin.value}"] += 1
            counter[f"language:{snippet.language}"] += 1
            counter["correct" if snippet.label_correct else "incorrect"] += 1
            if snippet.mutation:
                counter[f"mutation:{snippet.mutation}"] += 1
        return dict(counter)


def build_default_corpus(*, include_mutations: bool = True) -> CorpusStore:
    """Build the default corpus from the template library.

    Parameters
    ----------
    include_mutations:
        When True (default) every applicable mutation operator is applied to
        every template and the results are added as incorrect variants.
    """
    store = CorpusStore()
    for language, model_short, kernel, code in iter_templates():
        uid = _model_uid(language, model_short)
        template = CodeSnippet(
            code=code,
            language=language,
            kernel=kernel,
            label_model=uid,
            label_correct=True,
            origin=SnippetOrigin.TEMPLATE,
            metadata={"model_short": model_short},
        )
        store.add(template)
        if not include_mutations:
            continue
        for name, operator in MUTATION_OPERATORS.items():
            mutated = store.mutants[template, name] = operator.apply(template)
            if mutated is not None:
                store.add(mutated)
    return store


#: Process-wide memo of the default corpus, keyed by ``include_mutations``.
#: The corpus is read-only once built (samplers and analyzers never mutate
#: snippets), so one shared instance can serve every runner and thread.
_DEFAULT_CORPUS_CACHE: dict[bool, CorpusStore] = {}


def default_corpus(*, include_mutations: bool = True) -> CorpusStore:
    """The shared default corpus, built at most once per process.

    Every :class:`~repro.codex.sampler.SuggestionSampler` without an explicit
    corpus draws from the template-only store (``include_mutations=False``),
    so repeated runner construction (tables, figures, ablations) shares its
    templates, mutant table and sampling plans.
    """
    if include_mutations not in _DEFAULT_CORPUS_CACHE:
        _DEFAULT_CORPUS_CACHE[include_mutations] = build_default_corpus(
            include_mutations=include_mutations
        )
    return _DEFAULT_CORPUS_CACHE[include_mutations]


def clear_default_corpus_cache() -> None:
    """Drop the memoized default corpus (tests that mutate snippets use this)."""
    _DEFAULT_CORPUS_CACHE.clear()
