"""SimCodex configuration: the competence model and sampling parameters.

Two kinds of parameters live here and they have different epistemic status
(see DESIGN.md §6):

* The **availability priors** (programming-model maturity, language
  popularity, scientific affinity) come from :mod:`repro.popularity` and are
  fixed from public knowledge, independent of the paper's result tables.
* The **prompt-interaction factors** (how much an under-specified prompt
  hurts each language, the keyword-vocabulary mismatch for CUDA-style kernel
  languages, the complexity discount per kernel class) encode the paper's
  *qualitative* observations in Section 4 — keywords matter a lot for Fortran
  and Python, a little for C++, not at all for Julia; `function` is the wrong
  word for the CUDA community; more complex kernels are generated worse.
  The numeric values are round numbers chosen once, not fitted to the tables.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field

from repro.codex.prompt import Prompt
from repro.kernels.base import KernelComplexity
from repro.kernels.registry import get_kernel
from repro.popularity.maturity import MaturityModel

__all__ = ["KnowledgeState", "CodexConfig", "DEFAULT_SEED"]

#: Default experiment seed: the first day of the paper's data-collection window.
DEFAULT_SEED = 20230414


class KnowledgeState(enum.Enum):
    """Latent per-prompt knowledge state of the simulated model."""

    #: The model has thoroughly absorbed this (kernel, model) pattern: every
    #: suggestion is a correct implementation in the requested model.
    COMPETENT = "competent"
    #: The model knows the requested model but fumbles the kernel: one (or a
    #: few) correct suggestions among incorrect ones, all in the requested model.
    FUZZY = "fuzzy"
    #: The model mixes up programming models: a correct suggestion exists but
    #: suggestions from other models pollute the list.
    CONFUSED = "confused"
    #: The model has nothing useful: no correct suggestion at all.
    IGNORANT = "ignorant"


@dataclass(frozen=True)
class CodexConfig:
    """All tunable parameters of the simulated suggestion engine."""

    #: Availability prior combining model maturity, language popularity and
    #: scientific affinity.
    maturity: MaturityModel = field(default_factory=MaturityModel)

    #: Multiplicative discount per kernel complexity class — the paper's
    #: "the more complex the kernel, the fewer quality results" effect.
    complexity_discount: dict[KernelComplexity, float] = field(
        default_factory=lambda: {
            KernelComplexity.TRIVIAL: 1.00,
            KernelComplexity.SIMPLE: 0.78,
            KernelComplexity.MODERATE: 0.72,
            KernelComplexity.IRREGULAR: 0.55,
            KernelComplexity.STENCIL: 0.50,
            KernelComplexity.MULTIKERNEL: 0.32,
        }
    )

    #: Prompt clarity without the language's code keyword.  Fortran and
    #: Python prompts are nearly useless without ``subroutine`` / ``def``;
    #: C++ loses a little; Julia is insensitive (and has no keyword variant).
    bare_prompt_factor: dict[str, float] = field(
        default_factory=lambda: {"cpp": 0.88, "fortran": 0.30, "python": 0.28, "julia": 0.97}
    )
    #: For the TRIVIAL kernel (AXPY) the bare prompt is still usually enough —
    #: the paper's "AXPY OpenMP without subroutine" exception.
    bare_prompt_factor_trivial: dict[str, float] = field(
        default_factory=lambda: {"cpp": 0.95, "fortran": 0.85, "python": 0.45, "julia": 0.97}
    )
    #: Keyword-vocabulary mismatch: appending ``function`` to a CUDA/HIP
    #: prompt moves it away from that community's vocabulary ("kernel",
    #: "__global__") and lowers quality for the non-trivial kernels.
    kernel_language_keyword_penalty: float = 0.65

    #: Knowledge-state weighting parameters (see :meth:`state_weights`).
    competent_threshold: float = 0.45
    competent_gain: float = 3.0
    fuzzy_center: float = 0.55
    fuzzy_width: float = 0.25
    confused_center: float = 0.35
    confused_width: float = 0.22
    ignorant_threshold: float = 0.75
    ignorant_gain: float = 2.2

    #: Sharpening temperature of the state draw: probabilities are
    #: proportional to ``weight ** (1 / temperature)``.  Values below 1 make
    #: the draw concentrate on the modal state, reducing draw-to-draw
    #: variance of the single-observation protocol without changing the
    #: underlying competence ordering.
    state_temperature: float = 0.6

    #: Maximum number of suggestions per prompt (the Copilot panel shows 10).
    max_suggestions: int = 10

    # -- identity -------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable digest of every tunable parameter (including the maturity
        prior), used to key result caches and shard manifests: two configs
        with equal parameters fingerprint identically even when they are
        distinct instances.  Recomputed on every call — the dataclass is
        frozen but its dict-valued fields are not, so memoizing here would
        hand a mutated config its pre-mutation digest."""

        def text(value) -> str:
            # str() of an IntEnum member is its integer on Python 3.11+ but
            # "Class.MEMBER" on 3.10; spell it as the integer on every version.
            return str(int(value)) if isinstance(value, enum.IntEnum) else str(value)

        def encode(value):
            if dataclasses.is_dataclass(value) and not isinstance(value, type):
                return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
            if isinstance(value, dict):
                return sorted((text(k), encode(v)) for k, v in value.items())
            if isinstance(value, (list, tuple)):
                return [encode(v) for v in value]
            if isinstance(value, enum.Enum):
                return text(value)
            return value

        payload = json.dumps(encode(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # -- competence -----------------------------------------------------------
    def availability(self, prompt: Prompt) -> float:
        """Effective public-example availability for the prompt's model."""
        return self.maturity.effective_availability(prompt.language.name, prompt.model_uid)

    def prompt_clarity(self, prompt: Prompt) -> float:
        """How well the prompt text pins down what is being asked for."""
        lang = prompt.language.name
        complexity = get_kernel(prompt.kernel).complexity
        if not prompt.uses_keyword:
            table = (
                self.bare_prompt_factor_trivial
                if complexity is KernelComplexity.TRIVIAL
                else self.bare_prompt_factor
            )
            return table[lang]
        # Keyword present: full clarity, except that `function` is the wrong
        # vocabulary for the CUDA/HIP kernel-language communities.
        model = prompt.model
        if "kernel-language" in model.tags and complexity is not KernelComplexity.TRIVIAL:
            return self.kernel_language_keyword_penalty
        return 1.0

    def complexity_factor(self, kernel: str) -> float:
        return self.complexity_discount[get_kernel(kernel).complexity]

    def competence(self, prompt: Prompt) -> float:
        """Overall competence of the simulated model for this prompt, in [0, 1]."""
        value = (
            self.availability(prompt)
            * self.complexity_factor(prompt.kernel)
            * self.prompt_clarity(prompt)
        )
        return max(0.0, min(1.0, value))

    # -- knowledge-state distribution ------------------------------------------
    def state_weights(self, competence: float) -> dict[KnowledgeState, float]:
        """Unnormalised weights of the latent knowledge states."""
        c = max(0.0, min(1.0, competence))
        w_competent = max(0.0, c - self.competent_threshold) ** 1.3 * self.competent_gain
        w_fuzzy = 0.9 * math.exp(-(((c - self.fuzzy_center) / self.fuzzy_width) ** 2))
        w_confused = 0.8 * math.exp(-(((c - self.confused_center) / self.confused_width) ** 2))
        w_ignorant = max(0.0, self.ignorant_threshold - c) ** 1.1 * self.ignorant_gain
        return {
            KnowledgeState.COMPETENT: w_competent,
            KnowledgeState.FUZZY: w_fuzzy,
            KnowledgeState.CONFUSED: w_confused,
            KnowledgeState.IGNORANT: w_ignorant,
        }

    def state_probabilities(self, competence: float) -> dict[KnowledgeState, float]:
        """Normalised (temperature-sharpened) probabilities of the states."""
        weights = self.state_weights(competence)
        exponent = 1.0 / max(self.state_temperature, 1e-6)
        sharpened = {state: w ** exponent for state, w in weights.items()}
        total = sum(sharpened.values())
        if total <= 0:  # pragma: no cover - defensive; weights are never all zero
            return {state: 1.0 / len(sharpened) for state in sharpened}
        return {state: w / total for state, w in sharpened.items()}

    def expected_score(self, prompt: Prompt) -> float:
        """Analytic expectation of the proficiency score, used by ablations.

        Assumes each knowledge state maps to its nominal rubric level
        (0.75 / 0.5 / 0.25 / 0) — the sampled pipeline adds noise around this.
        """
        probs = self.state_probabilities(self.competence(prompt))
        return (
            0.75 * probs[KnowledgeState.COMPETENT]
            + 0.50 * probs[KnowledgeState.FUZZY]
            + 0.25 * probs[KnowledgeState.CONFUSED]
            + 0.00 * probs[KnowledgeState.IGNORANT]
        )
