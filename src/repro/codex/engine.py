"""The Copilot-like completion API.

:class:`SimulatedCodex` is the object the evaluation harness talks to.  Its
``complete`` method takes a :class:`~repro.codex.prompt.Prompt` and returns a
:class:`CompletionResult` holding up to ten raw suggestion texts — the same
artefact the paper's authors collected from the Copilot suggestion panel.

Determinism contract (the *per-cell seeding contract*): every prompt owns an
independent random stream derived via :func:`cell_seed_sequence` from the
engine seed and the cell key ``(language, model, kernel, postfix)``.  No
sequential engine-level RNG state exists, so

* a single cell re-evaluated in isolation reproduces exactly the value it has
  inside a full-grid run, and
* the full grid is byte-identical regardless of evaluation order or of how
  cells are partitioned across threads/processes.

That contract is what lets the dispatch layer (:mod:`repro.dispatch`) split
the grid into shards, evaluate them in worker processes or on other
machines in any order, and merge them back byte-identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.codex.config import DEFAULT_SEED, CodexConfig
from repro.codex.prompt import Prompt
from repro.codex.sampler import SuggestionSampler
from repro.corpus.snippets import CodeSnippet
from repro.corpus.store import CorpusStore

__all__ = ["CompletionResult", "SimulatedCodex", "cell_seed_sequence"]


def cell_seed_sequence(
    seed: int, *, language: str, model: str, kernel: str, postfix: str
) -> np.random.SeedSequence:
    """The :class:`numpy.random.SeedSequence` owning one grid cell's stream.

    The experiment seed is extended with a 64-bit key word hashed from the
    cell coordinates — the same mechanism ``SeedSequence.spawn`` uses, but
    with a *content-derived* spawn key instead of a sequential counter, so
    the stream depends only on ``(seed, language, model, kernel, postfix)``
    and never on how many cells were evaluated before this one.

    ``model`` uids are ``"<language>.<short>"`` and the postfix keyword is a
    per-language constant, so the textual cell key below encodes the full
    coordinate tuple injectively.
    """
    if not model.startswith(f"{language}."):
        raise ValueError(f"model uid {model!r} does not belong to language {language!r}")
    cell_key = f"{model}:{kernel}{'+kw' if postfix else ''}"
    digest = hashlib.sha256(cell_key.encode("utf-8")).digest()
    return np.random.SeedSequence([seed, int.from_bytes(digest[:8], "little")])


@dataclass(frozen=True)
class CompletionResult:
    """The suggestions returned for one prompt."""

    prompt: Prompt
    #: Raw suggestion texts, in the order they were "displayed".
    suggestions: tuple[str, ...]
    #: The competence score the engine assigned to the prompt (diagnostic).
    competence: float

    def __len__(self) -> int:
        return len(self.suggestions)

    def __iter__(self):
        return iter(self.suggestions)


@dataclass
class SimulatedCodex:
    """Corpus-retrieval + stochastic-sampling stand-in for OpenAI Codex."""

    config: CodexConfig = field(default_factory=CodexConfig)
    seed: int = DEFAULT_SEED
    corpus: CorpusStore | None = None

    def __post_init__(self) -> None:
        self._sampler = SuggestionSampler(config=self.config, corpus=self.corpus)
        self.corpus = self._sampler.corpus

    # -- public API -------------------------------------------------------------
    def complete(self, prompt: Prompt) -> CompletionResult:
        """Return up to ten suggestions for ``prompt`` (deterministic per seed)."""
        rng = self._rng_for(prompt)
        competence = self.config.competence(prompt)
        snippets = self._sampler.sample(prompt, rng, competence=competence)
        return CompletionResult(
            prompt=prompt,
            suggestions=tuple(snippet.code for snippet in snippets),
            competence=competence,
        )

    def complete_snippets(self, prompt: Prompt) -> list[CodeSnippet]:
        """Like :meth:`complete` but returning the labelled snippets.

        Only tests and diagnostics should use this; the evaluation pipeline
        works from the raw texts to avoid any label leakage.
        """
        rng = self._rng_for(prompt)
        return self._sampler.sample(prompt, rng)

    # -- helpers ------------------------------------------------------------------
    def _rng_for(self, prompt: Prompt) -> np.random.Generator:
        sequence = cell_seed_sequence(
            self.seed,
            language=prompt.language.name,
            model=prompt.model_uid,
            kernel=prompt.kernel,
            postfix=prompt.postfix,
        )
        return np.random.default_rng(sequence)
