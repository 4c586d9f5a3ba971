"""Shared worker-side machinery for the dispatch layer.

Both the :class:`~repro.dispatch.driver.ShardDriver` (inline and
file-queue-local execution) and :func:`~repro.dispatch.queue.drain_queue`
(the ``dispatch-worker`` loop) evaluate shards on lazily-created
:class:`~repro.core.runner.EvaluationRunner`s keyed on
``(seed, config fingerprint)``, and both must survive a shard whose
evaluation raises: this module is the single implementation of the runner
lifecycle (:class:`RunnerPool`), the crash-containment wrapper
(:func:`run_shard_contained`) and the structured failure record every
retry/quarantine decision is based on, so the worker paths can never drift
apart.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable

from repro.core.runner import EvaluationRunner, ResultSet
from repro.dispatch import faults

__all__ = [
    "FAILURE_FORMAT",
    "RunnerPool",
    "evaluate_with_retries",
    "failure_record",
    "run_shard_contained",
    "shard_label",
]

#: Format tag of one structured failure record (see :func:`failure_record`).
FAILURE_FORMAT = "repro.dispatch-failure/v1"


def shard_label(shard) -> str:
    """Stable human-readable shard identity: ``s<seed>-<start>-<stop>``.

    The prefix of the file queue's task names, so a fault plan's ``match``
    string targets the same shard whichever backend evaluates it.
    """
    entry = shard.entry()
    return f"s{entry.seed}-{entry.start:05d}-{entry.stop:05d}"


def failure_record(
    error: BaseException | str,
    *,
    label: str = "",
    phase: str = "evaluate",
    attempt: int | None = None,
    message: str | None = None,
) -> dict:
    """One structured failure: what broke, where, on which attempt.

    ``error`` is either the caught exception (type, message and a bounded
    traceback are captured) or a symbolic kind string for failures that
    have no exception object — ``"LeaseExpired"`` (a claim went stale),
    ``"ShardTimeout"`` (a hung subprocess was killed), ``"WorkerDied"``
    (a subprocess exited without reporting).  These records ride along
    wherever a failure is persisted: the queue's attempts sidecars, the
    ``failed/`` dead-letter payloads, and
    :class:`~repro.dispatch.driver.ShardQuarantine` entries in the report.
    """
    if isinstance(error, BaseException):
        kind = type(error).__name__
        detail = str(error)
        trace = "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )[-4000:]
    else:
        kind = str(error)
        detail = message or ""
        trace = None
    return {
        "format": FAILURE_FORMAT,
        "error": kind,
        "message": detail,
        "traceback": trace,
        "phase": phase,
        "shard": label,
        "attempt": attempt,
        "time": time.time(),
    }


def run_shard_contained(
    runner: EvaluationRunner, shard, *, label: str, attempt: int = 1
) -> tuple[ResultSet | None, dict | None, float]:
    """Evaluate one shard, containing any crash as a failure record.

    Returns ``(results, failure, seconds)`` where exactly one of
    ``results``/``failure`` is set.  The ``worker.evaluate`` fault point
    fires first (context: ``label``), so chaos plans can crash, hang or
    kill precisely this evaluation; a genuine exception from the
    evaluation pipeline takes the same containment path.  Nothing here
    retries — the caller owns the attempt budget and the quarantine
    decision.
    """
    start = time.perf_counter()
    try:
        faults.fire("worker.evaluate", label)
        results = runner.run_cells(shard.cells())
    except Exception as exc:
        failure = failure_record(exc, label=label, attempt=attempt)
        return None, failure, time.perf_counter() - start
    return results, None, time.perf_counter() - start


def evaluate_with_retries(
    runner: EvaluationRunner,
    shard,
    *,
    label: str,
    max_attempts: int,
    backoff_base: float = 0.05,
    backoff_cap: float = 0.5,
) -> tuple[ResultSet | None, list[dict], float]:
    """Evaluate one shard with the dispatch layer's full attempt budget.

    The retry loop both the inline driver backend and the evaluation
    service run: up to ``max_attempts`` contained attempts
    (:func:`run_shard_contained`), jittered exponential backoff between
    them (:func:`repro.dispatch.faults.backoff_delay`), and a complete
    failure history for the quarantine record.

    Returns ``(results, failures, seconds)``: ``results`` is ``None`` when
    every attempt failed (caller quarantines, with ``failures[-1]`` as the
    terminal record); ``seconds`` is the wall clock of the last attempt.
    """
    failures: list[dict] = []
    seconds = 0.0
    for attempt in range(1, max_attempts + 1):
        results, failure, seconds = run_shard_contained(
            runner, shard, label=label, attempt=attempt
        )
        if failure is None:
            return results, failures, seconds
        failures.append(failure)
        if attempt < max_attempts:
            time.sleep(faults.backoff_delay(attempt - 1, base=backoff_base, cap=backoff_cap))
    return None, failures, seconds


class RunnerPool:
    """Lazily-created runners keyed ``(seed, config fingerprint)``, all
    sharing one verdict store and progress callback."""

    def __init__(self, *, verdict_store=None, progress: Callable | None = None) -> None:
        self.verdict_store = verdict_store
        self.progress = progress
        self._runners: dict[tuple[int, str], EvaluationRunner] = {}

    def runner(self, seed: int, config) -> EvaluationRunner:
        key = (seed, config.fingerprint())
        runner = self._runners.get(key)
        if runner is None:
            runner = self._runners[key] = EvaluationRunner(
                config=config,
                seed=seed,
                progress=self.progress,
                verdict_store=self.verdict_store,
            )
        return runner
