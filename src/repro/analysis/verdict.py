"""Verdict data structures produced by the analyzers, and the code digests
that key every stored result.

A :class:`SuggestionVerdict` captures, for a single suggestion, everything
the paper's rubric needs: is it code at all, which programming model does it
use, and is it a correct implementation of the requested kernel.

:func:`verdict_digest` and :func:`record_digest` identify the code that
computes a stored value.  The verdict and shard-result stores fold them into
every key, so an edit to any source file a value depends on orphans the
entries computed before it; no version number has to be bumped by hand.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field

__all__ = [
    "RECORD_SOURCES",
    "UNDIGESTED",
    "VERDICT_SOURCES",
    "SuggestionVerdict",
    "record_digest",
    "verdict_digest",
]

#: ``repro`` packages (or top-level modules) whose sources decide a verdict:
#: everything :mod:`repro.analysis.analyzer` imports.  ``models`` is here
#: because detection reads the model registry.
VERDICT_SOURCES: tuple[str, ...] = ("analysis", "kernels", "models", "sandbox")

#: What else decides a shard's records: everything a shard evaluation
#: imports beyond :data:`VERDICT_SOURCES`.
RECORD_SOURCES: tuple[str, ...] = ("api", "codex", "core", "corpus", "popularity", "extensions")

#: ``repro`` packages that store, move or render values but never compute
#: one; no digest covers them.
UNDIGESTED: tuple[str, ...] = ("atomicio", "cache", "dispatch", "harness", "service")


def _source_digest(names: tuple[str, ...], *extra: str) -> str:
    """SHA-256 over the ``.py`` sources of ``repro.<name>`` for each name
    (a package's whole tree, or one module), plus ``extra`` strings."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for text in extra:
        digest.update(text.encode("utf-8") + b"\0")
    for name in names:
        top = os.path.join(root, name)
        files = [top + ".py"]
        if os.path.isdir(top):
            files = []
            for directory, subdirs, filenames in os.walk(top):
                subdirs[:] = sorted(sub for sub in subdirs if sub != "__pycache__")
                files += [os.path.join(directory, f) for f in sorted(filenames) if f.endswith(".py")]
        for path in files:
            with open(path, "rb") as handle:
                source = handle.read()
            relative = path[len(root) + 1 :].replace(os.sep, "/")
            digest.update(f"{relative}\0{len(source)}\0".encode("utf-8"))
            digest.update(source)
    return digest.hexdigest()


@functools.cache
def verdict_digest() -> str:
    """Digest of the code behind a verdict: the :data:`VERDICT_SOURCES`
    trees, the numpy version and Python's major.minor.

    Computed once per process, on first use of a store (~3 ms), so runs
    without a store never pay for it.
    """
    import numpy

    python = "{}.{}".format(*sys.version_info[:2])
    return _source_digest(VERDICT_SOURCES, f"numpy {numpy.__version__}", f"python {python}")


@functools.cache
def record_digest() -> str:
    """Digest of the code behind a shard's records: :func:`verdict_digest`
    plus the :data:`RECORD_SOURCES` trees."""
    return _source_digest(RECORD_SOURCES, verdict_digest())


@dataclass
class SuggestionVerdict:
    """Analysis outcome for one suggestion."""

    #: Whether the suggestion contains anything that parses as code.
    is_code: bool
    #: Programming model uids detected in the suggestion ("cpp.openmp", ...).
    #: Empty when the code uses no recognisable parallel model.
    detected_models: tuple[str, ...] = ()
    #: Whether the suggestion uses the model the prompt requested.
    uses_requested_model: bool = False
    #: Whether the suggestion uses some *other* recognised parallel model.
    uses_other_model: bool = False
    #: Whether the implementation of the kernel is judged numerically /
    #: structurally correct (independently of which model it uses).
    math_correct: bool = False
    #: Problems found during analysis (human-readable).
    issues: list[str] = field(default_factory=list)
    #: How the math judgement was obtained ("static", "executed", "none").
    method: str = "static"
    #: Findings from the CUDA-C static hazard analyzer, one dict per
    #: (kernel, hazard-class) pair: ``{"kernel", "kind", "verdict",
    #: "buffer", "detail", "line"}``.  Informational — never feeds
    #: :attr:`is_correct` (execution remains the correctness oracle).
    static_findings: list[dict] = field(default_factory=list)

    @property
    def is_correct(self) -> bool:
        """The paper's notion of a *correct code*: a code suggestion that is
        numerically correct **and** uses the requested programming model."""
        return self.is_code and self.math_correct and self.uses_requested_model

    def add_issue(self, message: str) -> None:
        self.issues.append(message)

    # -- persistence ----------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-serialisable dict carrying every field (inverse of
        :meth:`from_payload`); used by the on-disk verdict store."""
        return {
            "is_code": self.is_code,
            "detected_models": list(self.detected_models),
            "uses_requested_model": self.uses_requested_model,
            "uses_other_model": self.uses_other_model,
            "math_correct": self.math_correct,
            "issues": list(self.issues),
            "method": self.method,
            "static_findings": [dict(f) for f in self.static_findings],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SuggestionVerdict":
        """Re-hydrate a verdict from :meth:`to_payload` output.

        Raises ``KeyError``/``TypeError`` on malformed payloads — callers
        (the verdict store) treat that as a corrupt entry and recompute.
        """
        detected = payload["detected_models"]
        issues = payload["issues"]
        # The key is required: a payload without it is corrupt, and the
        # resulting KeyError makes the verdict store degrade to recompute.
        findings = payload["static_findings"]
        # A bare string would iterate characterwise into a garbled-but-valid
        # verdict; reject it as corrupt instead.
        if not isinstance(detected, (list, tuple)) or not isinstance(issues, (list, tuple)):
            raise TypeError("detected_models and issues must be lists")
        if not isinstance(findings, (list, tuple)) or not all(
            isinstance(f, dict) for f in findings
        ):
            raise TypeError("static_findings must be a list of dicts")
        return cls(
            is_code=bool(payload["is_code"]),
            detected_models=tuple(str(uid) for uid in detected),
            uses_requested_model=bool(payload["uses_requested_model"]),
            uses_other_model=bool(payload["uses_other_model"]),
            math_correct=bool(payload["math_correct"]),
            issues=[str(issue) for issue in issues],
            method=str(payload["method"]),
            static_findings=[dict(f) for f in findings],
        )

    def summary(self) -> str:
        """One-line human-readable summary (used in reports and examples)."""
        if not self.is_code:
            return "no code"
        model = ",".join(self.detected_models) if self.detected_models else "serial"
        status = "correct" if self.is_correct else ("math-ok" if self.math_correct else "incorrect")
        return f"{status} [{model}]" + (f" ({'; '.join(self.issues)})" if self.issues else "")
