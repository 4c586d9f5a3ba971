"""Resumable shard dispatch: partition a spec, farm it out, merge the stream.

A :class:`ShardDriver` turns a declarative
:class:`~repro.api.spec.ExperimentSpec` into a crash-safe distributed run:

1. **Partition** — the spec is cut into ``shards`` contiguous
   :class:`~repro.api.spec.Shard`s per seed (PR 2's manifest machinery).
2. **Resume check** — every shard is first looked up in the
   :class:`~repro.dispatch.store.ResultStore`; hits are *skipped* entirely,
   so a driver killed mid-run re-executes nothing it already finished.
3. **Dispatch** — misses go to one of three pluggable worker backends:
   ``inline`` (evaluate in this process), ``process`` (a subprocess pool),
   or ``file-queue`` (a shared directory any host can drain with
   ``repro-hpc-codex dispatch-worker`` — see :mod:`repro.dispatch.queue`).
4. **Stream** — shard payloads are folded into an
   :class:`~repro.api.spec.IncrementalMerge` the moment they complete, and
   ``progress`` / ``on_shard`` callbacks fire in **submission order** — the
   same ordering contract :class:`~repro.core.runner.EvaluationRunner`
   gives per-cell progress, extended to shards.
5. **Validate** — the final merge goes through
   :class:`~repro.api.spec.ShardManifest`, so a complete dispatch is
   byte-identical to an unsharded ``run --json`` and an incomplete one can
   never masquerade as complete.

Failure is a first-class terminal state, not an accident: every local shard
evaluation runs under crash containment (an exception becomes a structured
failure record, never a dead driver), failed shards are retried up to
``max_attempts`` with backoff, and a shard that keeps failing is
**quarantined** — reported as a :class:`ShardQuarantine` (and, on the file
queue, dead-lettered to ``failed/``) so one poison shard can never livelock
a dispatch.  The ``process`` backend enforces an optional per-shard
``shard_timeout``: a hung subprocess is killed and the shard re-offered.
File-queue claims are heartbeat-renewed leases (see
:class:`~repro.dispatch.queue.HeartbeatLease`), so a long-running shard
with a live worker is never double-executed while a dead worker's shard is
reclaimed after a few missed beats.  The end state of a dispatch is always
*byte-identical merge or explicit quarantine* — never wrong records.

Every executed shard is written back to the store before its callbacks
fire, so the crash window never loses more than the shard in flight.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Callable, Iterator, Union

from repro.analysis.store import VerdictStore
from repro.api.spec import (
    ExperimentSpec,
    IncrementalMerge,
    Shard,
    ShardEntry,
    load_shard_payload,
    shard_payload,
)
from repro.core.runner import EvaluationRunner, ResultSet
from repro.dispatch import faults
from repro.dispatch.queue import DEFAULT_MAX_ATTEMPTS, FileQueue, HeartbeatLease
from repro.dispatch.runners import (
    RunnerPool,
    evaluate_with_retries,
    failure_record,
    run_shard_contained,
    shard_label,
)
from repro.dispatch.store import ResultStore

__all__ = [
    "DISPATCH_BACKENDS",
    "DispatchReport",
    "ShardDriver",
    "ShardOutcome",
    "ShardQuarantine",
]

#: Worker backends understood by :class:`ShardDriver`.
DISPATCH_BACKENDS: tuple[str, ...] = ("inline", "process", "file-queue")


@dataclass(frozen=True)
class ShardOutcome:
    """One completed shard: where its records came from and what they cost."""

    entry: ShardEntry
    results: ResultSet
    #: ``"store"`` (resume hit), ``"inline"``, ``"process"``, or
    #: ``"file-queue"`` (evaluated locally through the queue) /
    #: ``"remote"`` (another worker drained it).
    source: str
    seconds: float

    @property
    def cached(self) -> bool:
        """True when the shard was served from the result store (skipped)."""
        return self.source == "store"


@dataclass(frozen=True)
class ShardQuarantine:
    """One poisoned shard: it exhausted its attempts and was set aside.

    ``failure`` is the last structured failure record
    (:func:`~repro.dispatch.runners.failure_record`) — what broke on the
    final attempt.  Quarantined shards never enter a merge; they make the
    dispatch explicitly incomplete instead.
    """

    entry: ShardEntry
    attempts: int
    failure: dict

    def describe(self) -> str:
        """One line for operator output: which slice, how it died."""
        return (
            f"shard [{self.entry.start:05d},{self.entry.stop:05d}) seed {self.entry.seed}: "
            f"{self.failure.get('error', 'unknown')} after {self.attempts} attempt(s) — "
            f"{self.failure.get('message', '')}".rstrip(" —")
        )


@dataclass
class DispatchReport:
    """What a :meth:`ShardDriver.run` accomplished.

    ``outcomes`` lists every *completed* shard in submission order;
    ``quarantined`` lists shards that exhausted their attempt budget.
    When ``complete`` is false, ``pending`` shards were neither merged nor
    quarantined (the driver hit ``max_shards`` — the crash-test throttle)
    and ``results`` holds the manifest-unvalidated partial merge.
    """

    spec: ExperimentSpec
    #: Per-seed slice count the spec was partitioned into.
    shards: int
    outcomes: list[ShardOutcome] = field(default_factory=list)
    quarantined: list[ShardQuarantine] = field(default_factory=list)
    results: dict[int, ResultSet] = field(default_factory=dict)
    complete: bool = False
    #: Suggestion modules executed by this driver's local workers.
    sandbox_executions: int = 0
    #: Persistent verdict-store hits observed by this driver's local workers.
    verdict_store_hits: int = 0

    @property
    def shards_total(self) -> int:
        return len(self.spec.seeds) * self.shards

    @property
    def pending(self) -> int:
        """Shards neither completed nor quarantined (still dispatchable)."""
        return self.shards_total - len(self.outcomes) - len(self.quarantined)

    @property
    def executed(self) -> list[ShardOutcome]:
        """Shards this driver evaluated locally (any backend)."""
        return [o for o in self.outcomes if o.source in ("inline", "process", "file-queue")]

    @property
    def remote(self) -> list[ShardOutcome]:
        """Shards another worker drained from the file queue."""
        return [outcome for outcome in self.outcomes if outcome.source == "remote"]

    @property
    def skipped(self) -> list[ShardOutcome]:
        """Shards served straight from the result store (zero re-execution)."""
        return [outcome for outcome in self.outcomes if outcome.cached]

    def result(self) -> ResultSet:
        """The merged records of a complete single-seed dispatch."""
        if not self.complete:
            detail = f"{len(self.outcomes)}/{self.shards_total} shards done"
            if self.quarantined:
                detail += f", {len(self.quarantined)} quarantined"
            raise ValueError(
                f"dispatch is incomplete ({detail}); use .results for the "
                "partial merge, or re-run against the same result store to resume"
            )
        if len(self.results) != 1:
            raise ValueError(f"dispatch covers seeds {sorted(self.results)}; use .results")
        return next(iter(self.results.values()))

    def summary(self) -> str:
        """One status line: totals, split by provenance."""
        if self.complete:
            state = "complete"
        elif self.quarantined and self.pending == 0:
            state = f"DEGRADED {len(self.outcomes)}/{self.shards_total}"
        else:
            state = f"PARTIAL {len(self.outcomes)}/{self.shards_total}"
        line = (
            f"dispatch {state}: {self.shards_total} shard(s), "
            f"executed={len(self.executed)} skipped={len(self.skipped)}"
        )
        if self.remote:
            line += f" remote={len(self.remote)}"
        if self.quarantined:
            line += f" quarantined={len(self.quarantined)}"
        return line


def _extended_grid_installed() -> bool:
    """Whether this process installed the extended grid, without importing
    :mod:`repro.extensions` (which only an installer has loaded)."""
    extensions = sys.modules.get("repro.extensions")
    return extensions is not None and extensions.extended_grid_installed()


def _process_shard_worker(
    conn, spec: ExperimentSpec, index: int, of: int, store_path, extended_grid: bool
) -> None:
    """Process-backend worker: evaluate one shard, report through the pipe.

    Sends ``("ok", records, sandbox executions, verdict-store hits,
    seconds)`` — the counter deltas let the parent driver aggregate across
    the pool, and the worker-measured seconds are the shard's own
    evaluation cost (the parent cannot separate queueing from computing) —
    or ``("error", failure record)`` when evaluation raises.  A worker that
    dies without sending anything (hard crash, injected ``die``, kill on
    timeout) is detected by the parent through the closed pipe.

    The grid registries are process state that only a forked worker
    inherits, so a worker started by ``spawn`` or ``forkserver`` installs
    the extended grid itself when the parent had it installed
    (``extended_grid``) before it rebuilds the shard's cells.
    """
    try:
        if extended_grid:
            from repro.extensions import extended_grid_installed, install_extended_grid

            if not extended_grid_installed():  # a forked worker keeps its warm corpus
                install_extended_grid()
        shard = spec.shard(index, of)
        store = None if store_path is None else VerdictStore(store_path)
        runner = EvaluationRunner(config=spec.config, seed=shard.seed, verdict_store=store)
        results, failure, seconds = run_shard_contained(runner, shard, label=shard_label(shard))
        if failure is not None:
            conn.send(("error", failure))
        else:
            conn.send(
                (
                    "ok",
                    results.to_records(),
                    runner.sandbox_executions,
                    runner.store_hits,
                    seconds,
                )
            )
    except Exception as exc:  # containment of setup errors, not just evaluation
        try:
            conn.send(("error", failure_record(exc, label=f"shard-{index}", phase="worker")))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


class ShardDriver:
    """Dispatch a spec's shards to workers, resumably (module docstring).

    Parameters
    ----------
    spec:
        The run to evaluate.
    shards:
        Contiguous slices per seed (``spec.partition(shards)``).
    backend:
        ``"inline"`` (default), ``"process"`` or ``"file-queue"``.
    result_store:
        Where completed shard payloads survive the process:  a
        :class:`~repro.dispatch.store.ResultStore`, a path, ``True`` for
        the default location, or ``None`` (dispatch still works, nothing is
        resumable).
    verdict_store:
        Optional persistent verdict cache handed to every local worker
        (suggestion-level resume, orthogonal to the shard-level store).
    max_workers:
        Subprocess-pool width for the ``process`` backend.
    queue:
        Queue directory (or :class:`~repro.dispatch.queue.FileQueue`) for
        the ``file-queue`` backend.
    progress:
        Per-cell callback, fired in submission order: live during inline
        evaluation, per completed shard otherwise (store hits and remote
        shards deliver :class:`~repro.core.runner.RecordResult`s).
    on_shard:
        Per-shard callback receiving each :class:`ShardOutcome` in
        submission order — the hook an incremental table/figure renderer
        attaches to.
    max_shards:
        Stop after locally executing this many shards (the deterministic
        stand-in for ``kill -9`` in crash/resume tests and CI).  The run
        reports ``complete=False``; re-running resumes from the store.
    max_attempts:
        Failed attempts before a shard is quarantined (default: the
        queue's policy for the file-queue backend, otherwise
        :data:`~repro.dispatch.queue.DEFAULT_MAX_ATTEMPTS`).
    shard_timeout:
        Per-shard wall-clock limit for the ``process`` backend: a worker
        exceeding it is killed and the shard retried (counting as one
        failed attempt).  ``None`` (default) disables the limit.
    heartbeat_interval, lease_beats:
        Lease policy forwarded to the :class:`FileQueue` the driver
        creates from a ``queue`` path (ignored when an existing
        ``FileQueue`` is passed — its policy governs).
    runner_factory:
        Advanced hook (used by :meth:`repro.api.Session.dispatch`) supplying
        pooled runners for inline evaluation, ``(seed, config) -> runner``.
    poll_interval:
        Base delay of the file-queue wait loop; actual sleeps grow from it
        with jittered exponential backoff while nothing changes.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        *,
        shards: int = 4,
        backend: str = "inline",
        result_store: ResultStore | str | Path | bool | None = None,
        verdict_store: VerdictStore | str | Path | bool | None = None,
        max_workers: int | None = None,
        queue: FileQueue | str | Path | None = None,
        progress: Callable | None = None,
        on_shard: Callable[[ShardOutcome], None] | None = None,
        max_shards: int | None = None,
        max_attempts: int | None = None,
        shard_timeout: float | None = None,
        heartbeat_interval: float | None = None,
        lease_beats: int | None = None,
        runner_factory: Callable[[int, object], EvaluationRunner] | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        if backend not in DISPATCH_BACKENDS:
            raise ValueError(f"unknown dispatch backend {backend!r}; choose from {DISPATCH_BACKENDS}")
        if shards < 1:
            raise ValueError(f"cannot dispatch {shards} shards")
        if backend == "file-queue" and queue is None:
            raise ValueError("the file-queue backend needs a queue directory (queue=...)")
        if max_shards is not None and max_shards < 0:
            raise ValueError(f"max_shards must be >= 0, got {max_shards}")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be > 0, got {shard_timeout}")
        self.spec = spec
        self.shards = shards
        self.backend = backend
        self.result_store = ResultStore.coerce(result_store)
        self.verdict_store = VerdictStore.coerce(verdict_store)
        self.max_workers = max_workers
        if isinstance(queue, FileQueue) or queue is None:
            self.queue = queue
        else:
            policy = {}
            if heartbeat_interval is not None:
                policy["heartbeat_interval"] = heartbeat_interval
            if lease_beats is not None:
                policy["lease_beats"] = lease_beats
            if max_attempts is not None:
                policy["max_attempts"] = max_attempts
            self.queue = FileQueue(queue, **policy)
        if max_attempts is not None:
            self.max_attempts = max_attempts
        elif self.queue is not None:
            self.max_attempts = self.queue.max_attempts
        else:
            self.max_attempts = DEFAULT_MAX_ATTEMPTS
        self.shard_timeout = shard_timeout
        self.progress = progress
        self.on_shard = on_shard
        self.max_shards = max_shards
        self.poll_interval = poll_interval
        self._runner_factory = runner_factory
        self._own_runners = RunnerPool(verdict_store=self.verdict_store, progress=progress)
        #: Earliest time the next stale-claim sweep is allowed (requeue_stale
        #: walks and stats the whole claims directory — potentially on NFS —
        #: so the wait loops throttle it instead of sweeping every poll).
        self._next_stale_sweep = 0.0

    # -- driving ---------------------------------------------------------------
    def run(self) -> DispatchReport:
        """Dispatch every shard not already in the store; merge the stream."""
        report = DispatchReport(spec=self.spec, shards=self.shards)
        merge = IncrementalMerge()
        plan = self.spec.partition(self.shards)
        cached: dict[int, ResultSet] = {}
        for shard in plan:
            if self.result_store is not None:
                hit = self.result_store.get(shard.entry())
                if hit is not None:
                    cached[shard.index] = hit
        pending = [shard for shard in plan if shard.index not in cached]
        budget = len(pending) if self.max_shards is None else min(self.max_shards, len(pending))
        runners = {
            "inline": self._drive_inline,
            "process": self._drive_process,
            "file-queue": self._drive_queue,
        }
        for settled in runners[self.backend](plan, cached, budget, report):
            if isinstance(settled, ShardQuarantine):
                report.quarantined.append(settled)
                continue
            self._complete_shard(settled, merge, report)
        report.complete = len(report.outcomes) == report.shards_total
        report.results = merge.merged() if report.complete else merge.partial()
        return report

    def _complete_shard(
        self, outcome: ShardOutcome, merge: IncrementalMerge, report: DispatchReport
    ) -> None:
        """Persist, merge and announce one completed shard (in order)."""
        if self.result_store is not None and not outcome.cached:
            self.result_store.put(outcome.entry, outcome.results)
        merge.add(outcome.entry, outcome.results)
        if self.progress is not None and outcome.source not in ("inline", "file-queue"):
            # Locally-executed shards ("inline", and "file-queue" claims this
            # driver evaluated itself) already streamed per-cell progress
            # live through their runner; every other source delivers the
            # shard's cells here, still in submission order.
            for result in outcome.results:
                self.progress(result)
        report.outcomes.append(outcome)
        if self.on_shard is not None:
            self.on_shard(outcome)

    # -- inline backend --------------------------------------------------------
    def _drive_inline(
        self,
        plan: list[Shard],
        cached: dict[int, ResultSet],
        budget: int,
        report: DispatchReport,
    ) -> Iterator[Union[ShardOutcome, ShardQuarantine]]:
        for shard in plan:
            if shard.index in cached:
                yield ShardOutcome(shard.entry(), cached[shard.index], "store", 0.0)
                continue
            if budget <= 0:
                # Budget spent (crash simulation): skip the shard but keep
                # serving later store hits, so the report and partial merge
                # reflect everything that is actually done.
                continue
            budget -= 1
            entry = shard.entry()
            runner = self._runner(shard.seed)
            executions, hits = runner.sandbox_executions, runner.store_hits
            results, failures, seconds = evaluate_with_retries(
                runner,
                shard,
                label=shard_label(shard),
                max_attempts=self.max_attempts,
                backoff_base=self.poll_interval,
            )
            report.sandbox_executions += runner.sandbox_executions - executions
            report.verdict_store_hits += runner.store_hits - hits
            if results is not None:
                yield ShardOutcome(entry, results, "inline", seconds)
            else:
                yield ShardQuarantine(entry, len(failures), failures[-1])

    def _runner(self, seed: int) -> EvaluationRunner:
        if self._runner_factory is not None:
            return self._runner_factory(seed, self.spec.config)
        return self._own_runners.runner(seed, self.spec.config)

    # -- process backend -------------------------------------------------------
    def _drive_process(
        self,
        plan: list[Shard],
        cached: dict[int, ResultSet],
        budget: int,
        report: DispatchReport,
    ) -> Iterator[Union[ShardOutcome, ShardQuarantine]]:
        to_execute = [shard for shard in plan if shard.index not in cached][:budget]
        if not to_execute:
            # Fully warm (or zero budget): serve store hits without paying
            # for workers nothing would run on.
            for shard in plan:
                if shard.index not in cached:
                    return
                yield ShardOutcome(shard.entry(), cached[shard.index], "store", 0.0)
            return
        store_path = None if self.verdict_store is None else str(self.verdict_store.path)
        extended_grid = _extended_grid_installed()
        # Same hardware-based sizing policy as Session's process backend,
        # additionally capped by the actual shard count.
        workers = self.max_workers or min(8, os.cpu_count() or 1, len(to_execute))
        ctx = multiprocessing.get_context()
        waiting: deque[tuple[Shard, int]] = deque((shard, 1) for shard in to_execute)
        running: dict = {}
        ready: dict[int, ShardOutcome] = {}
        quarantine: dict[int, ShardQuarantine] = {}
        failures: dict[int, list[dict]] = {}

        def spawn() -> None:
            while waiting and len(running) < workers:
                shard, attempt = waiting.popleft()
                parent_end, child_end = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_process_shard_worker,
                    args=(
                        child_end, shard.spec, shard.index, shard.of, store_path, extended_grid
                    ),
                )
                proc.start()
                child_end.close()
                deadline = (
                    None
                    if self.shard_timeout is None
                    else time.monotonic() + self.shard_timeout
                )
                running[parent_end] = (shard, proc, attempt, deadline)

        def settle_failure(shard: Shard, attempt: int, failure: dict) -> None:
            history = failures.setdefault(shard.index, [])
            history.append(failure)
            if attempt >= self.max_attempts:
                quarantine[shard.index] = ShardQuarantine(
                    shard.entry(), len(history), failure
                )
            else:
                waiting.append((shard, attempt + 1))

        def reap(conn, shard: Shard, proc, attempt: int) -> None:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                message = None
            conn.close()
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - wedged post-report worker
                proc.terminate()
                proc.join(timeout=1.0)
            if message is None:
                settle_failure(
                    shard,
                    attempt,
                    failure_record(
                        "WorkerDied",
                        label=shard_label(shard),
                        phase="process",
                        attempt=attempt,
                        message=f"worker exited with code {proc.exitcode} before reporting",
                    ),
                )
            elif message[0] == "error":
                settle_failure(shard, attempt, message[1])
            else:
                _, records, executions, hits, seconds = message
                report.sandbox_executions += executions
                report.verdict_store_hits += hits
                results = ResultSet.from_payload(records, seed=shard.seed)
                # Persist the moment it lands — while the driver waits on an
                # early slow shard, later finished shards are already
                # crash-safe on disk.  Only the submission-order yield below
                # (and therefore callbacks and the merge) waits.
                if self.result_store is not None:
                    self.result_store.put(shard.entry(), results)
                ready[shard.index] = ShardOutcome(shard.entry(), results, "process", seconds)

        def kill_expired() -> None:
            now = time.monotonic()
            for conn, (shard, proc, attempt, deadline) in list(running.items()):
                if deadline is None or now < deadline:
                    continue
                del running[conn]
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - terminate ignored
                    proc.kill()
                    proc.join(timeout=1.0)
                conn.close()
                settle_failure(
                    shard,
                    attempt,
                    failure_record(
                        "ShardTimeout",
                        label=shard_label(shard),
                        phase="process",
                        attempt=attempt,
                        message=f"hung worker killed after {self.shard_timeout:.3g}s",
                    ),
                )

        def pump_until(index: int) -> None:
            while index not in ready and index not in quarantine:
                spawn()
                deadlines = [d for (_, _, _, d) in running.values() if d is not None]
                wait_for = (
                    None
                    if not deadlines
                    else max(0.0, min(deadlines) - time.monotonic())
                )
                for conn in mp_connection.wait(list(running), timeout=wait_for):
                    shard, proc, attempt, _ = running.pop(conn)
                    reap(conn, shard, proc, attempt)
                kill_expired()

        indexes = {shard.index for shard in to_execute}
        for shard in plan:
            if shard.index in cached:
                yield ShardOutcome(shard.entry(), cached[shard.index], "store", 0.0)
                continue
            if shard.index not in indexes:
                # Budget-excluded shard: skip it but keep serving any
                # later store hits, so the report and partial merge
                # reflect everything that is actually done.
                continue
            pump_until(shard.index)
            if shard.index in ready:
                yield ready.pop(shard.index)
            else:
                yield quarantine.pop(shard.index)

    # -- file-queue backend ----------------------------------------------------
    def _drive_queue(
        self,
        plan: list[Shard],
        cached: dict[int, ResultSet],
        budget: int,
        report: DispatchReport,
    ) -> Iterator[Union[ShardOutcome, ShardQuarantine]]:
        queue = self.queue
        queue.requeue_stale()
        for shard in plan:
            if shard.index not in cached:
                queue.publish(shard)
        for shard in plan:
            if shard.index in cached:
                yield ShardOutcome(shard.entry(), cached[shard.index], "store", 0.0)
                continue
            settled = self._resolve_queued_shard(shard, budget, report)
            if settled is None:
                # Unresolvable under the spent budget: skip it but keep
                # serving later store hits and already-published results.
                continue
            if isinstance(settled, ShardOutcome) and settled.source == "file-queue":
                budget -= 1
            yield settled

    def _resolve_queued_shard(
        self, shard: Shard, budget: int, report: DispatchReport
    ) -> Union[ShardOutcome, ShardQuarantine, None]:
        """Wait for one queued shard: consume its result, claim and evaluate
        it ourselves, or accept its quarantine; ``None`` when the execution
        budget is spent and nobody else is producing it."""
        name = self.queue.task_name(shard)
        entry = shard.entry()
        start = time.perf_counter()
        idle = 0
        backoff_cap = max(self.poll_interval, min(1.0, self.queue.lease_seconds / 4))
        while True:
            dead = self.queue.quarantined(name)
            if dead is not None:
                failures = dead.get("failures") or [
                    failure_record("Quarantined", label=name, phase="queue")
                ]
                return ShardQuarantine(
                    entry, int(dead.get("attempts", len(failures))), failures[-1]
                )
            payload = self.queue.result(name)
            if payload is not None:
                try:
                    found, results = load_shard_payload(payload)
                    if found != entry:
                        raise ValueError(f"result for {name} describes a different shard")
                except (ValueError, KeyError, TypeError):
                    # A corrupt or foreign result can only cost a
                    # re-evaluation, never enter the merge: drop it, release
                    # the claim that produced it, and put the shard back on
                    # offer.
                    try:
                        (self.queue.results_dir / f"{name}.json").unlink()
                    except OSError:  # pragma: no cover - concurrent cleanup
                        pass
                    self.queue.release(name)
                    self.queue.publish(shard)
                    idle = 0
                    continue
                return ShardOutcome(entry, results, "remote", time.perf_counter() - start)
            if budget > 0:
                if (
                    name not in self.queue.pending()
                    and not self._claimed(name)
                ):
                    # The task exists nowhere: no result, no dead letter, no
                    # pending file, no lease.  This happens when a corrupt
                    # result was dropped after its (retired) claim was
                    # garbage-collected — re-offer the shard instead of
                    # waiting for a producer that does not exist.
                    self.queue.publish(shard)
                claim = self.queue.claim(name)
                if claim is not None:
                    with HeartbeatLease(self.queue, claim):
                        runner = self._runner(shard.seed)
                        executions, hits = runner.sandbox_executions, runner.store_hits
                        results, failure, _ = run_shard_contained(
                            runner,
                            shard,
                            label=name,
                            attempt=self.queue.attempts(name) + 1,
                        )
                        report.sandbox_executions += runner.sandbox_executions - executions
                        report.verdict_store_hits += runner.store_hits - hits
                    if failure is not None:
                        # Released for retry or quarantined — either way the
                        # loop re-resolves: next iteration sees the re-offered
                        # task or the dead letter.
                        self.queue.fail(claim, failure)
                        idle = 0
                        continue
                    self.queue.complete(name, shard_payload(shard, results))
                    self.queue.retire(claim)
                    return ShardOutcome(
                        entry, results, "file-queue", time.perf_counter() - start
                    )
                # Another worker holds the lease: poll for its result with
                # jittered backoff, reclaiming if the lease goes stale
                # (missed heartbeats — the worker crashed or wedged).
                self._sweep_stale_claims()
                time.sleep(
                    faults.backoff_delay(idle, base=self.poll_interval, cap=backoff_cap)
                )
                idle += 1
                continue
            # Budget spent (crash simulation): only already-running remote
            # work could still complete this shard; don't wait for it.
            if name not in self.queue.pending() and self._claimed(name):
                self._sweep_stale_claims()
                time.sleep(
                    faults.backoff_delay(idle, base=self.poll_interval, cap=backoff_cap)
                )
                idle += 1
                continue
            return None

    def _sweep_stale_claims(self) -> None:
        """Throttled ``requeue_stale``: at most one directory sweep per
        tenth of the lease while the wait loops poll."""
        now = time.monotonic()
        if now >= self._next_stale_sweep:
            self.queue.requeue_stale()
            throttle = min(30.0, max(0.05, self.queue.lease_seconds / 10))
            self._next_stale_sweep = now + throttle

    def _claimed(self, name: str) -> bool:
        return bool(self.queue._claim_files(name))
