"""Shared fixtures for the test suite.

Expensive objects (the default corpus, the analyzer with its verdict cache,
and a full evaluation grid run) are session-scoped so the several hundred
tests stay fast.
"""

from __future__ import annotations

import multiprocessing
import types

import numpy as np
import pytest

from repro.analysis.analyzer import SuggestionAnalyzer
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.codex.engine import SimulatedCodex
from repro.core.evaluator import PromptEvaluator
from repro.core.runner import EvaluationRunner, ResultSet
from repro.corpus.store import CorpusStore, default_corpus


@pytest.fixture(scope="session")
def corpus() -> CorpusStore:
    """The default corpus (templates + mutated variants), shared process-wide."""
    return default_corpus()


@pytest.fixture(scope="session")
def analyzer() -> SuggestionAnalyzer:
    """A shared analyzer instance (its verdict cache is reused across tests)."""
    return SuggestionAnalyzer()


@pytest.fixture(scope="session")
def engine() -> SimulatedCodex:
    """A deterministic simulated Codex engine with the default seed."""
    return SimulatedCodex(seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def evaluator(engine: SimulatedCodex, analyzer: SuggestionAnalyzer) -> PromptEvaluator:
    return PromptEvaluator(engine=engine, analyzer=analyzer)


@pytest.fixture(scope="session")
def full_results(evaluator: PromptEvaluator) -> ResultSet:
    """The full Table 1 grid evaluated once for the whole session."""
    runner = EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED, evaluator=evaluator)
    return runner.run_full_grid()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def call_template():
    """``call_template(model, kernel, *args)`` runs the corpus's
    ``python.<model>`` template for ``kernel`` in the sandbox, calling its
    entry function on ``args``, and returns the
    :class:`~repro.sandbox.executor.ExecutionResult` (not compared with any
    oracle).  The templates are the executable implementations of each
    kernel that the kernel tests exercise on inputs of their own."""
    from repro.corpus.templates import get_template
    from repro.sandbox.executor import run_python_suggestion
    from repro.sandbox.tasks import SandboxTask

    def call(model: str, kernel: str, *args):
        task = SandboxTask(kernel=kernel, args=args, expected=np.zeros(0))
        return run_python_suggestion(get_template("python", model, kernel), kernel, task)

    return call


@pytest.fixture()
def started_processes(monkeypatch) -> list:
    """The run of shards of every worker process the dispatch driver starts.

    Wraps the context :mod:`repro.dispatch.driver` gets from
    ``multiprocessing.get_context``; each ``Process`` it creates appends
    the shard indexes handed to that worker.
    """
    from repro.dispatch import driver

    started: list[list[int]] = []

    class CountingContext:
        def __init__(self, context) -> None:
            self._context = context

        def __getattr__(self, name):
            return getattr(self._context, name)

        def Process(self, *, target, args):
            started.append([shard.index for shard in args[1]])
            return self._context.Process(target=target, args=args)

    monkeypatch.setattr(
        driver,
        "multiprocessing",
        types.SimpleNamespace(get_context=lambda: CountingContext(multiprocessing.get_context())),
    )
    return started
