"""Top-level suggestion analyzer.

Combines model detection, structural checks, kernel-semantics checks and
(for Python) sandboxed execution into a single :class:`SuggestionVerdict`,
which is what the proficiency metric in :mod:`repro.core` consumes.

Analysis is a pure function of ``(code, language, kernel)``.  Only two
verdict fields — ``uses_requested_model`` and ``uses_other_model`` — depend
on the model the prompt requested, and both follow from
``detected_models``.  So verdicts are memoized on ``(code, language,
kernel)`` alone, model-independent, in one **process-wide** memo, and every
verdict handed out is a fresh projection of a memo entry onto the requested
model.  Identical suggestions (the sampler emits near-duplicate completions
by design, and the same template shows up as an "other model" answer to
different prompts) are analyzed — and, for Python, sandbox-executed — once
per process, whichever model they were requested for and however many
runners or ablations ask (two threads meeting the same new suggestion at
once may both compute the same verdict).

Two further layers sit at this seam:

* A persistent :class:`~repro.analysis.store.VerdictStore` can be attached
  (``SuggestionAnalyzer(store=...)``).  It is keyed like the memo and holds
  the same model-independent verdicts: memo misses consult the store before
  computing, and every verdict the analyzer computes is written back — so
  verdicts survive the process and are shared across process-backend
  workers and separate CLI invocations, whatever model they were requested
  for.
* :meth:`SuggestionAnalyzer.analyze_batch` resolves a whole suggestion list
  at once.  Cache misses that need sandbox execution are collected and run
  as one batch through
  :func:`repro.sandbox.executor.evaluate_python_suggestions`, which installs
  the fake GPU runtime once and sets up each kernel's numerical oracle once
  per group instead of once per suggestion.  The static checks and the
  sandbox batch share one
  :func:`~repro.sandbox.cuda_c.interpreter.shared_parse_scope`, so each
  distinct code and embedded CUDA source is parsed once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis import clike, fortranlang, hazards, julialang, pythonlang
from repro.analysis.detection import detect_models
from repro.analysis.store import VerdictStore
from repro.analysis.verdict import SuggestionVerdict
from repro.models.languages import Language, get_language
from repro.models.programming_models import get_model
from repro.sandbox.cuda_c.interpreter import shared_parse_scope

__all__ = ["SuggestionAnalyzer", "analyze_suggestion", "clear_verdict_memo"]

#: Memo and store key: (code, language, kernel).
CodeKey = tuple[str, str, str]

#: Process-wide model-independent verdicts (requested-model flags unset),
#: shared by every analyzer.
_SHARED_CODE_MEMO: dict[CodeKey, SuggestionVerdict] = {}


def clear_verdict_memo() -> None:
    """Empty the shared verdict memo (test isolation helper)."""
    _SHARED_CODE_MEMO.clear()


def _project(verdict: SuggestionVerdict, requested_uid: str) -> SuggestionVerdict:
    """A fresh copy of a model-independent verdict, with the two
    requested-model flags derived from its ``detected_models``.

    Every caller gets its own object: :class:`SuggestionVerdict` is mutable,
    and an aliased memo entry would let one caller's mutation poison every
    later analysis in the process.
    """
    detected = verdict.detected_models
    return SuggestionVerdict(
        is_code=verdict.is_code,
        detected_models=detected,
        uses_requested_model=requested_uid in detected,
        uses_other_model=any(uid != requested_uid for uid in detected),
        math_correct=verdict.math_correct,
        issues=list(verdict.issues),
        method=verdict.method,
        static_findings=[dict(finding) for finding in verdict.static_findings],
    )


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


@dataclass
class SuggestionAnalyzer:
    """Analyzes raw suggestions for a given prompt.

    Parameters
    ----------
    store:
        Optional persistent :class:`~repro.analysis.store.VerdictStore` (or
        its directory path) layered below the in-memory memo.  Memo hits
        stay free; memo misses consult the store before computing, and every
        verdict this analyzer computes is written back.
    """

    store: VerdictStore | str | Path | None = None

    def __post_init__(self) -> None:
        self.store = VerdictStore.coerce(self.store)

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
        one.  Each distinct code is resolved once, in this order: the memo,
        then the store (a hit fills the memo), then analysis.  Every pending
        Python suggestion is executed in a single sandbox batch (one
        fake-runtime context, one oracle setup per kernel) — the cache-miss
        seam is where batches form.  Every position gets its own projected
        verdict.

        Memo hits are never written through to the store, so they stay
        free.  A memo entry carries no provenance (it may have been read
        from another store), so only verdicts this analyzer computed are
        persisted.
        """
        lang = get_language(language)
        requested_uid = get_model(requested_model).uid
        keys: list[CodeKey] = [(code, lang.name, kernel) for code in codes]
        resolved: dict[CodeKey, SuggestionVerdict] = {}
        pending: list[CodeKey] = []
        for key in dict.fromkeys(keys):
            verdict = _SHARED_CODE_MEMO.get(key)
            if verdict is None and self.store is not None:
                verdict = self.store.get(key)
                if verdict is not None:
                    _SHARED_CODE_MEMO[key] = verdict
            if verdict is None:
                pending.append(key)
            else:
                resolved[key] = verdict

        if pending:
            to_execute: list[tuple[CodeKey, SuggestionVerdict]] = []
            # One parse scope for the whole batch: the Python checks, the
            # hazard analyzer and the sandbox share each code's and each
            # embedded CUDA source's parse; it is dropped on exit.
            with shared_parse_scope():
                for key in pending:
                    verdict, needs_execution = self._static_verdict(key, lang)
                    if needs_execution:
                        to_execute.append((key, verdict))
                    else:
                        resolved[key] = verdict
                if to_execute:
                    # Looked up at call time, so a wrapper installed on
                    # ``repro.sandbox`` sees every batch.
                    from repro.sandbox import evaluate_python_suggestions

                    results = evaluate_python_suggestions(
                        [(key[0], key[2]) for key, _ in to_execute]
                    )
                    for (key, verdict), result in zip(to_execute, results, strict=True):
                        issues = list(result.issues)
                        if not result.passed and not issues:
                            issues.append("execution did not reproduce the oracle result")
                        verdict.issues.extend(issues)
                        verdict.math_correct = not issues
                        resolved[key] = verdict
            for key in pending:
                _SHARED_CODE_MEMO[key] = resolved[key]
                if self.store is not None:
                    self.store.put(key, resolved[key])
        return [_project(resolved[key], requested_uid) for key in keys]

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
            if not issues:
                verdict.method = "executed"
                return verdict, True
            verdict.method = "static"
        else:  # pragma: no cover - registry guards this
            raise KeyError(f"no analyzer for language {lang.name!r}")

        verdict.issues.extend(issues)
        verdict.math_correct = not issues
        return verdict, False


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
