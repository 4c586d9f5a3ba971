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
from repro.api import ExperimentSpec, Session
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
def full_results() -> ResultSet:
    """The full Table 1 grid evaluated once for the whole session."""
    return EvaluationRunner(config=CodexConfig(), seed=DEFAULT_SEED).run_full_grid()


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


def _record_worker_starts(monkeypatch, read) -> list:
    """Wrap the context :mod:`repro.dispatch.driver` gets from
    ``multiprocessing.get_context`` so that each ``Process`` it creates
    appends ``read(run)`` of the run of pieces handed to that worker.
    Recorders stack: each wraps whatever context the driver sees."""
    from repro.dispatch import driver

    started: list = []
    get_context = driver.multiprocessing.get_context

    class RecordingContext:
        def __init__(self, context) -> None:
            self._context = context

        def __getattr__(self, name):
            return getattr(self._context, name)

        def Process(self, *, target, args):
            started.append(read(args[1]))
            return self._context.Process(target=target, args=args)

    monkeypatch.setattr(
        driver,
        "multiprocessing",
        types.SimpleNamespace(get_context=lambda: RecordingContext(get_context())),
    )
    return started


@pytest.fixture()
def started_processes(monkeypatch) -> list:
    """The shard index of each piece handed to every worker process the
    dispatch driver starts, one list per process, in start order."""
    return _record_worker_starts(monkeypatch, lambda run: [piece.shard.index for piece in run])


@pytest.fixture()
def started_cells(monkeypatch) -> list:
    """The cells each worker process the dispatch driver starts evaluates,
    as one list of cell positions per process, in start order."""
    return _record_worker_starts(
        monkeypatch, lambda run: [cell for piece in run for cell in range(piece.start, piece.stop)]
    )


@pytest.fixture(scope="session")
def two_languages() -> ExperimentSpec:
    """C++ cells 0-15 and Python cells 16-23 of one kernel.

    Most shard counts cut a shard at the language boundary.  On 2 workers
    the languages stay whole, one worker each, so the cut shard is split
    across both; at 2 shards the C++ worker runs ``[0, 12)`` and
    ``[12, 16)``, the Python worker ``[16, 24)``.  On 3 workers Python's
    share of the work divides it into two runs.
    """
    return ExperimentSpec(seeds=(DEFAULT_SEED,), languages=("cpp", "python"), kernels=("axpy",))


@pytest.fixture(scope="session")
def two_language_records(two_languages) -> list[dict]:
    """The serial records of :func:`two_languages`."""
    with Session(seed=DEFAULT_SEED) as session:
        return session.run(two_languages).to_records()
