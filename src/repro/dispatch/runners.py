"""Shared worker-side machinery for the dispatch layer.

The :class:`~repro.dispatch.driver.ShardDriver`'s backends and
:func:`~repro.dispatch.queue.drain_queue` (the ``dispatch-worker`` loop)
each evaluate a shard on an :class:`~repro.core.runner.EvaluationRunner`
built for that evaluation, and all of them must survive a shard whose
evaluation raises: this module is the single implementation of the
crash-containment wrapper (:func:`run_shard_contained`) and the structured
failure record every retry/quarantine decision is based on, so the worker
paths can never drift apart.  The retry policy belongs to each caller: the
inline backend's attempt loop, the process backend's per-shard attempts
and the file queue's attempts sidecars.
"""

from __future__ import annotations

import time
import traceback

from repro.core.runner import EvaluationRunner, ResultSet
from repro.dispatch import faults

__all__ = [
    "FAILURE_FORMAT",
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
    return f"s{shard.seed}-{shard.start:05d}-{shard.stop:05d}"


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
