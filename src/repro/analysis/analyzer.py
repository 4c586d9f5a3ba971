"""Top-level suggestion analyzer.

Combines model detection, structural checks, kernel-semantics checks and
(for Python) sandboxed execution into a single :class:`SuggestionVerdict`,
which is what the proficiency metric in :mod:`repro.core` consumes.

Analysis is pure in ``(code, language, kernel, requested_model)``, and
only two of its fields — ``uses_requested_model`` and ``uses_other_model`` —
depend on the requested model; both follow from ``detected_models``.  So
verdicts are memoized **process-wide** on two levels: a verdict memo keyed on
the full 4-tuple, and below it a code memo keyed on ``(code, language,
kernel)`` holding the model-independent verdict.  Identical suggestions (the
sampler emits near-duplicate completions by design, and the same template
shows up as an "other model" answer to different prompts) are analyzed —
and, for Python, sandbox-executed — once per process, whichever model they
were requested for and however many runners or ablations ask (two threads
meeting the same new suggestion at once may both compute the same verdict).
Analyzers configured with a custom execution backend or with
execution disabled get private memos instead, so their verdicts never leak
into the shared store.

Two further layers sit at this seam:

* A persistent :class:`~repro.analysis.store.VerdictStore` can be attached
  (``SuggestionAnalyzer(store=...)``): memo misses consult the on-disk store
  before computing, and every verdict the analyzer computes is written back
  — so verdicts survive the process and are shared across process-backend
  workers and separate CLI invocations.
* :meth:`SuggestionAnalyzer.analyze_batch` resolves a whole suggestion list
  at once.  Cache misses that need sandbox execution are collected and run
  as one batch through
  :func:`repro.sandbox.executor.evaluate_python_suggestions`, which installs
  the fake GPU runtime once and sets up each kernel's numerical oracle once
  per group instead of once per suggestion.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis import clike, fortranlang, hazards, julialang, pythonlang
from repro.analysis.detection import detect_models
from repro.analysis.store import VerdictStore
from repro.analysis.verdict import SuggestionVerdict
from repro.models.languages import Language, get_language
from repro.models.programming_models import get_model

__all__ = ["SuggestionAnalyzer", "analyze_suggestion", "clear_verdict_memo"]

#: Memo key: (code, language, kernel, requested model uid).
VerdictKey = tuple[str, str, str, str]

#: Code memo key: (code, language, kernel).
CodeKey = tuple[str, str, str]

#: Process-wide verdict memo shared by every default-mode analyzer.
_SHARED_VERDICT_MEMO: dict[VerdictKey, SuggestionVerdict] = {}

#: Process-wide model-independent verdicts (requested-model flags unset),
#: shared by every default-mode analyzer.
_SHARED_CODE_MEMO: dict[CodeKey, SuggestionVerdict] = {}


def clear_verdict_memo() -> None:
    """Empty the shared verdict and code memos (test isolation helper)."""
    _SHARED_VERDICT_MEMO.clear()
    _SHARED_CODE_MEMO.clear()


def _copy_verdict(verdict: SuggestionVerdict) -> SuggestionVerdict:
    """Defensive copy handed to callers: :class:`SuggestionVerdict` is
    mutable, and an aliased memo entry would let one caller's mutation
    poison every later analysis in the process."""
    return dataclasses.replace(
        verdict,
        issues=list(verdict.issues),
        static_findings=[dict(f) for f in verdict.static_findings],
    )


def _project(verdict: SuggestionVerdict, requested_uid: str) -> SuggestionVerdict:
    """A copy of a model-independent verdict with the two requested-model
    flags derived from its ``detected_models``."""
    projected = _copy_verdict(verdict)
    projected.uses_requested_model = requested_uid in verdict.detected_models
    projected.uses_other_model = any(uid != requested_uid for uid in verdict.detected_models)
    return projected


#: Signature of the pluggable Python execution backend:
#: ``(code, kernel) -> (math_correct, issues)``.
PythonExecutor = Callable[[str, str], tuple[bool, list[str]]]


def _looks_like_code(text: str, comment_prefix: str) -> bool:
    stripped = text.strip()
    if not stripped:
        return False
    prefixes = ("//", "#", "!", "/*", "*")
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith(comment_prefix) or line.startswith(prefixes):
            continue
        return True
    return False


def _default_python_executor(code: str, kernel: str) -> tuple[bool, list[str]]:
    from repro.sandbox import evaluate_python_suggestion

    result = evaluate_python_suggestion(code, kernel)
    return result.passed, list(result.issues)


#: The pristine default backend.  The batch path compares against this to
#: decide whether execution can go through the batched sandbox entry point;
#: a monkeypatched/custom executor is honoured per suggestion instead.
_PRISTINE_PYTHON_EXECUTOR = _default_python_executor


@dataclass
class SuggestionAnalyzer:
    """Analyzes raw suggestions for a given prompt.

    Parameters
    ----------
    execute_python:
        Whether Python suggestions are executed against numerical oracles
        (the default) or judged statically only.
    python_executor:
        Pluggable execution backend; defaults to the sandbox in
        :mod:`repro.sandbox`.
    shared_memo:
        Whether verdicts go into the process-wide memos.  ``None`` (default)
        shares them exactly when the analyzer is in the default analysis
        mode (executing, with the default sandbox backend); pass ``False``
        to force private memos, ``True`` to share the verdict memo
        regardless.  The code memo stays private outside the default mode
        even then: its verdicts are written to stores, which hold only
        default-mode verdicts.
    store:
        Optional persistent :class:`~repro.analysis.store.VerdictStore` (or
        its directory path) layered below the in-memory memo.  Memo hits
        stay free; memo misses consult the store before computing, and every
        verdict this analyzer computes is written back.
    """

    execute_python: bool = True
    python_executor: PythonExecutor | None = None
    shared_memo: bool | None = None
    store: VerdictStore | str | Path | None = None
    _cache: dict[VerdictKey, SuggestionVerdict] = field(
        default=None, repr=False  # type: ignore[assignment]
    )
    _code_memo: dict[CodeKey, SuggestionVerdict] = field(
        default=None, init=False, repr=False  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        self.store = VerdictStore.coerce(self.store)
        if self.store is not None and (not self.execute_python or self.python_executor is not None):
            # The store key carries no analysis mode: letting a static-only
            # or custom-backend analyzer write it would hand default
            # analyzers mode-dependent verdicts (same reason those modes get
            # a private memo).
            raise ValueError(
                "a persistent verdict store only holds default-mode verdicts; it cannot "
                "be combined with execute_python=False or a custom python_executor"
            )
        default_mode = self.execute_python and self.python_executor is None
        share = default_mode if self.shared_memo is None else self.shared_memo
        if self._cache is None:
            self._cache = _SHARED_VERDICT_MEMO if share else {}
        self._code_memo = _SHARED_CODE_MEMO if share and default_mode else {}

    def analyze(
        self,
        code: str,
        *,
        language: str,
        kernel: str,
        requested_model: str,
    ) -> SuggestionVerdict:
        """Analyze one suggestion.

        Parameters
        ----------
        code:
            Raw suggestion text.
        language:
            Host language canonical name.
        kernel:
            Kernel canonical name ("axpy", ...).
        requested_model:
            Programming model uid the prompt asked for ("cpp.openmp", ...).
        """
        return self.analyze_batch(
            (code,), language=language, kernel=kernel, requested_model=requested_model
        )[0]

    def analyze_batch(
        self,
        codes: Sequence[str],
        *,
        language: str,
        kernel: str,
        requested_model: str,
    ) -> list[SuggestionVerdict]:
        """Analyze a whole suggestion list for one prompt.

        Produces exactly the verdicts :meth:`analyze` would produce one by
        one, but resolves the caches first and then executes every pending
        Python suggestion as a single sandbox batch (one fake-runtime
        context, one oracle setup per kernel) — the cache-miss seam is where
        batches form.  Duplicate suggestions inside the batch, and any
        suggestion already analyzed for another requested model, are
        analyzed once.
        """
        lang = get_language(language)
        requested_uid = get_model(requested_model).uid
        keys: list[VerdictKey] = [(code, lang.name, kernel, requested_uid) for code in codes]
        out: list[SuggestionVerdict | None] = [None] * len(keys)
        pending: dict[VerdictKey, list[int]] = {}
        for position, key in enumerate(keys):
            cached = self._lookup(key)
            if cached is not None:
                out[position] = _copy_verdict(cached)
            else:
                pending.setdefault(key, []).append(position)

        if pending:
            # One batch shares language, kernel and requested model, so its
            # pending keys map one-to-one onto code keys.
            resolved: dict[CodeKey, SuggestionVerdict] = {}
            to_execute: list[tuple[CodeKey, SuggestionVerdict]] = []
            for key in pending:
                code_key = key[:3]
                known = self._code_memo.get(code_key)
                if known is not None:
                    resolved[code_key] = known
                    continue
                verdict, needs_execution = self._static_verdict(code_key, lang)
                if needs_execution:
                    to_execute.append((code_key, verdict))
                else:
                    resolved[code_key] = self._code_memo[code_key] = verdict
            if to_execute:
                for (code_key, verdict), (passed, exec_issues) in zip(
                    to_execute, self._execute_pending(to_execute), strict=True
                ):
                    issues = list(exec_issues)
                    if not passed and not issues:
                        issues.append("execution did not reproduce the oracle result")
                    verdict.issues.extend(issues)
                    verdict.math_correct = not issues
                    resolved[code_key] = self._code_memo[code_key] = verdict
            for key, positions in pending.items():
                verdict = _project(resolved[key[:3]], requested_uid)
                self._remember(key, verdict)
                for position in positions:
                    out[position] = _copy_verdict(verdict)
        return out  # type: ignore[return-value]

    # -- cache plumbing -------------------------------------------------------
    def _lookup(self, key: VerdictKey) -> SuggestionVerdict | None:
        """Memo first (free), then the persistent store (filling the memo).

        Memo hits are deliberately *not* written through to the store: a
        memo entry carries no provenance, and a ``shared_memo=True``
        analyzer in a non-default mode may have put a mode-dependent verdict
        there.  Only verdicts this analyzer computed itself — directly or by
        projecting a code-memo entry, which only default-mode analyzers
        share — or loaded from the store are ever persisted, so the store can
        never serve a verdict a cold default-mode run would not reproduce.
        """
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self._cache[key] = stored
                return stored
        return None

    def _remember(self, key: VerdictKey, verdict: SuggestionVerdict) -> None:
        self._cache[key] = verdict
        if self.store is not None:
            self.store.put(key, verdict)

    # -- analysis -------------------------------------------------------------
    def _static_verdict(self, key: CodeKey, lang: Language) -> tuple[SuggestionVerdict, bool]:
        """The static part of the model-independent analysis.

        Returns ``(verdict, needs_execution)``: when ``needs_execution`` is
        False the verdict is complete; otherwise only the sandbox execution
        outcome (issues + ``math_correct``) is still missing.  The
        requested-model flags stay unset (see :func:`_project`).
        """
        code, _, kernel = key
        verdict = SuggestionVerdict(is_code=_looks_like_code(code, lang.comment_prefix))
        if not verdict.is_code:
            verdict.add_issue("suggestion contains no code")
            return verdict, False

        verdict.detected_models = detect_models(code, lang.name)

        issues: list[str] = []
        if lang.name == "cpp":
            issues.extend(clike.check_structure(code))
            if not issues:
                issues.extend(clike.check_kernel_semantics(code, kernel))
            verdict.method = "static"
        elif lang.name == "fortran":
            issues.extend(fortranlang.check_structure(code))
            if not issues:
                issues.extend(fortranlang.check_kernel_semantics(code, kernel))
            verdict.method = "static"
        elif lang.name == "julia":
            issues.extend(julialang.check_structure(code))
            if not issues:
                issues.extend(julialang.check_kernel_semantics(code, kernel))
            verdict.method = "static"
        elif lang.name == "python":
            # Informational static hazard findings for embedded CUDA-C
            # kernels; they never affect issues or math_correct.
            verdict.static_findings = hazards.static_findings_for(code, "python", kernel)
            issues.extend(pythonlang.check_structure(code))
            undefined = pythonlang.undefined_call_names(code)
            if undefined:
                issues.append(f"calls undefined function(s): {', '.join(sorted(undefined))}")
            if not issues and self.execute_python:
                verdict.method = "executed"
                return verdict, True
            verdict.method = "static"
        else:  # pragma: no cover - registry guards this
            raise KeyError(f"no analyzer for language {lang.name!r}")

        verdict.issues.extend(issues)
        verdict.math_correct = not issues
        return verdict, False

    def _execute_pending(
        self, items: list[tuple[CodeKey, SuggestionVerdict]]
    ) -> list[tuple[bool, list[str]]]:
        """Run the execution backend over every pending Python suggestion.

        The pristine default backend goes through the batched sandbox entry
        point (one fake-runtime context, one oracle per kernel group); a
        custom or monkeypatched backend keeps its per-suggestion contract.
        """
        executor = self.python_executor or _default_python_executor
        if executor is _PRISTINE_PYTHON_EXECUTOR:
            from repro.sandbox import evaluate_python_suggestions

            results = evaluate_python_suggestions(
                [(key[0], key[2]) for key, _ in items]
            )
            return [(result.passed, list(result.issues)) for result in results]
        return [executor(key[0], key[2]) for key, _ in items]


_DEFAULT_ANALYZER = SuggestionAnalyzer()


def analyze_suggestion(
    code: str,
    *,
    language: str,
    kernel: str,
    requested_model: str,
) -> SuggestionVerdict:
    """Analyze a suggestion with the default (executing) analyzer."""
    return _DEFAULT_ANALYZER.analyze(
        code, language=language, kernel=kernel, requested_model=requested_model
    )
