"""Resumable shard dispatch: partition a spec, farm it out, merge the stream.

A :class:`ShardDriver` turns a declarative
:class:`~repro.api.spec.ExperimentSpec` into a crash-safe distributed run:

1. **Partition** — the spec is cut into ``shards`` contiguous
   :class:`~repro.api.spec.Shard`s per seed (PR 2's manifest machinery).
2. **Resume check** — every shard is first looked up in the
   :class:`~repro.dispatch.store.ResultStore`; hits are *skipped* entirely,
   so a driver killed mid-run re-executes nothing it already finished.
3. **Dispatch** — misses go to one of three pluggable worker backends:
   ``inline`` (evaluate in this process), ``process`` (one worker process
   per pool slot, each owning whole languages or contiguous runs of one:
   the shards are cut at language boundaries into *pieces*, and a language
   is divided among workers only when its cost share of the pool rounds
   to more than one worker and dividing it balances the pool, because
   memos and sampling plans never cross a language boundary), or
   ``file-queue`` (a shared directory any host can drain with
   ``repro-hpc-codex dispatch-worker`` — see :mod:`repro.dispatch.queue`).
4. **Stream** — shard payloads are folded into an
   :class:`~repro.api.spec.IncrementalMerge` the moment they complete, and
   ``progress`` / ``on_shard`` callbacks fire in **submission order** — the
   same ordering contract :class:`~repro.core.runner.EvaluationRunner`
   gives per-cell progress, extended to shards (:meth:`ShardDriver.settle`
   yields the settled shards in that order to a caller that drives it).
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
a dispatch.  Failure accounting stays per shard on the ``process``
backend too: an optional ``shard_timeout`` bounds each piece, a piece
that raises or times out charges its shard one attempt (once per attempt,
however many of the shard's pieces fail), a worker that dies or is killed
charges its in-flight piece's shard only and the rest of its run is
re-offered, uncharged, to a fresh worker, and a failed shard is retried
whole and alone.  File-queue claims are heartbeat-renewed
leases (see :class:`~repro.dispatch.queue.HeartbeatLease`), so a
long-running shard with a live worker is never double-executed while a
dead worker's shard is reclaimed after a few missed beats.  The end state
of a dispatch is always *byte-identical merge or explicit quarantine* —
never wrong records.

Every executed shard is written back to the store once, before its
callbacks fire, so the crash window never loses more than the shard in
flight.
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from operator import itemgetter
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
from repro.dispatch.runners import failure_record, run_shard_contained, shard_label
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

#: Relative cost of evaluating one cell of each language, C++ = 1.0: only
#: the Python prompts run against numerical oracles in the sandbox.  The
#: ``process`` backend weighs languages with it when it deals them to
#: workers; a language missing here weighs 1.0.  Re-measure it with
#: ``python benchmarks/measure_language_costs.py``.
_LANGUAGE_COSTS: dict[str, float] = {
    "cpp": 1.0,
    "fortran": 1.23,
    "python": 3.97,
    "julia": 1.81,
}


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
    """What a :meth:`ShardDriver.settle` stream has accomplished so far.

    ``outcomes`` lists every *completed* shard in submission order;
    ``quarantined`` lists shards that exhausted their attempt budget.
    When ``complete`` is false, ``pending`` shards were neither merged nor
    quarantined (the :meth:`ShardDriver.settle` stream was closed early)
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


@dataclass(frozen=True)
class _Piece:
    """Cells ``[start, stop)`` of one shard, at one attempt: the shard's
    cells of one language, or the whole shard when it is retried."""

    shard: Shard
    start: int
    stop: int
    #: The spec's cell enumeration, built once and shared by every piece.
    grid: list = field(repr=False, compare=False)
    attempt: int = 1

    def __len__(self) -> int:
        return self.stop - self.start

    def cells(self) -> list:
        return self.grid[self.start : self.stop]

    @property
    def label(self) -> str:
        """The shard's label, suffixed with the piece's cells when it
        covers only part of the shard (the fault-plan context)."""
        label = shard_label(self.shard)
        if (self.start, self.stop) != (self.shard.start, self.shard.stop):
            label += f"/{self.start:05d}-{self.stop:05d}"
        return label


def _language_runs(shards: list[Shard], workers: int) -> list[list[_Piece]]:
    """Cut ``shards`` into one-language pieces and deal them into at most
    ``workers`` runs, each in plan order; runs are returned in plan order.

    Each language starts as one part, and parts are dealt largest first,
    weighed by :data:`_LANGUAGE_COSTS`, to the least-loaded run.  The
    costliest part's language is divided into one more part while that
    leaves the slowest run no slower, into at most one part per piece and
    per worker its share of the work fills, rounded.  A part is a
    contiguous run of the language's pieces, lengths differing by at most
    one, so a one-language spec gets the equal-count runs of its shards.
    Empty shards have no pieces.
    """
    cells = shards[0].spec.cells()
    by_language: dict[str, list[_Piece]] = {}
    for shard in shards:
        start = shard.start
        for language, group in itertools.groupby(
            cells[shard.start : shard.stop], key=lambda cell: cell.language
        ):
            stop = start + sum(1 for _ in group)
            by_language.setdefault(language, []).append(_Piece(shard, start, stop, cells))
            start = stop
    if not by_language:
        return []
    weight = {language: _LANGUAGE_COSTS.get(language, 1.0) for language in by_language}

    def deal(counts: dict[str, int]) -> tuple[float, str, list[list[_Piece]]]:
        """The slowest run's load, the costliest part's language, the runs."""
        parts = []
        for language, pieces in by_language.items():
            count = counts[language]
            for j in range(count):
                run = pieces[j * len(pieces) // count : (j + 1) * len(pieces) // count]
                parts.append((weight[language] * sum(len(piece) for piece in run), language, run))
        loads = [0.0] * workers
        runs: list[list[_Piece]] = [[] for _ in range(workers)]
        for cost, _, run in sorted(parts, key=itemgetter(0), reverse=True):
            slot = loads.index(min(loads))
            loads[slot] += cost
            runs[slot].extend(run)
        return max(loads), max(parts, key=itemgetter(0))[1], runs

    cost = {
        language: weight[language] * sum(len(piece) for piece in pieces)
        for language, pieces in by_language.items()
    }
    total = sum(cost.values())
    # A worker that takes over part of a language pays its warm-up again,
    # which the per-cell costs leave out: at 2 workers, dividing Python's
    # cells measured slower than keeping them whole even where the costs
    # predicted a gain.  So a language is divided no further than its share
    # of the work, rounded to whole workers.
    most = {
        language: min(len(pieces), int(cost[language] * workers / total + 0.5))
        for language, pieces in by_language.items()
    }
    counts = dict.fromkeys(by_language, 1)
    slowest, costliest, runs = deal(counts)
    while counts[costliest] < most[costliest]:
        divided = {**counts, costliest: counts[costliest] + 1}
        divided_slowest, divided_costliest, divided_runs = deal(divided)
        if divided_slowest > slowest:
            break
        counts, slowest, costliest, runs = divided, divided_slowest, divided_costliest, divided_runs

    def plan_order(piece: _Piece) -> tuple[int, int]:
        return piece.shard.index, piece.start

    runs = [sorted(run, key=plan_order) for run in runs if run]
    return sorted(runs, key=lambda run: plan_order(run[0]))


def _reap(proc, *, terminate: bool = False) -> None:
    """Join a process-backend worker, terminating it first if asked."""
    if terminate:
        proc.terminate()
    proc.join(timeout=5.0)
    if proc.is_alive():  # pragma: no cover - wedged or unkillable worker
        proc.kill()
        proc.join(timeout=1.0)


def _process_shard_worker(conn, run: list[_Piece], store_path, extended_grid: bool) -> None:
    """Process-backend worker: evaluate a run of shard pieces in order.

    Sends one message per piece, in run order: ``("ok", records, sandbox
    executions, verdict-store hits, seconds)`` — the piece's counts let the
    parent driver aggregate across the pool, and the worker-measured
    seconds are the piece's own evaluation cost (the parent cannot separate
    queueing from computing) — or ``("error", failure record)`` when the
    piece's evaluation or the worker's setup raises, after which the worker
    carries on with the next piece.  A worker that dies without reporting
    (hard crash, injected ``die``, kill on timeout) is detected by the
    parent through the closed pipe.

    The run holds whole languages or contiguous runs of one (see
    :func:`_language_runs`), and the process-wide code memo, sampling
    plans and mutant tables never cross a language boundary: every piece
    after a language's first finds them warm.  The verdict store is opened
    once per worker, and each piece is evaluated on a runner of its own.
    The grid registries are process state that only a forked worker
    inherits, so a worker started by ``spawn`` or ``forkserver`` installs
    the extended grid itself when the parent had it installed
    (``extended_grid``) before it builds any piece's cells.
    """
    ready = False
    try:
        for piece in run:
            try:
                if not ready:
                    if extended_grid:
                        from repro.extensions import extended_grid_installed, install_extended_grid

                        if not extended_grid_installed():  # a forked worker keeps its warm corpus
                            install_extended_grid()
                    store = None if store_path is None else VerdictStore(store_path)
                    ready = True
                runner = EvaluationRunner(
                    config=piece.shard.spec.config, seed=piece.shard.seed, verdict_store=store
                )
                results, failure, seconds = run_shard_contained(
                    runner, piece, label=piece.label, attempt=piece.attempt
                )
                if failure is not None:
                    message = ("error", failure)
                else:
                    message = (
                        "ok",
                        results.to_records(),
                        runner.sandbox_executions,
                        runner.store_hits,
                        seconds,
                    )
            except Exception as exc:  # containment of setup errors, not just evaluation
                message = (
                    "error",
                    failure_record(exc, label=piece.label, phase="worker", attempt=piece.attempt),
                )
            conn.send(message)
    finally:
        conn.close()


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
        Pool width of the ``process`` backend (default: one per core, at
        most 8), capped by the number of shards to execute; at least 1.
        The shards are cut at language boundaries into pieces, and each
        slot's worker process owns whole languages, or contiguous runs of
        one: languages are dealt largest first (weighed by
        :data:`_LANGUAGE_COSTS`) to the least-loaded worker, and the
        costliest is divided while that leaves the slowest worker no
        slower, into at most as many runs as its share of the work fills
        workers, rounded.  A worker evaluates its pieces in plan order;
        the driver merges a shard's pieces and stores the shard once.
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
    max_attempts:
        Failed attempts before a shard is quarantined (default: the
        queue's policy for the file-queue backend, otherwise
        :data:`~repro.dispatch.queue.DEFAULT_MAX_ATTEMPTS`).
    shard_timeout:
        Per-piece wall-clock limit for the ``process`` backend, restarting
        when the worker's previous piece lands: a worker exceeding it is
        killed, its in-flight piece's shard is retried whole (counting as
        one failed attempt) and the rest of its run re-offered.  ``None``
        (default) disables the limit.
    heartbeat_interval:
        Lease heartbeat forwarded to the :class:`FileQueue` the driver
        creates from a ``queue`` path (ignored when an existing
        ``FileQueue`` is passed — its policy governs).
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
        max_attempts: int | None = None,
        shard_timeout: float | None = None,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        if backend not in DISPATCH_BACKENDS:
            raise ValueError(f"unknown dispatch backend {backend!r}; choose from {DISPATCH_BACKENDS}")
        if shards < 1:
            raise ValueError(f"cannot dispatch {shards} shards")
        if backend == "file-queue" and queue is None:
            raise ValueError("the file-queue backend needs a queue directory (queue=...)")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be > 0, got {shard_timeout}")
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
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
        self.poll_interval = poll_interval
        #: Earliest time the next stale-claim sweep is allowed (requeue_stale
        #: walks and stats the whole claims directory — potentially on NFS —
        #: so the wait loops throttle it instead of sweeping every poll).
        self._next_stale_sweep = 0.0

    # -- driving ---------------------------------------------------------------
    def run(self) -> DispatchReport:
        """Dispatch every shard not already in the store; merge the stream."""
        report = DispatchReport(spec=self.spec, shards=self.shards)
        for _ in self.settle(report):
            pass
        return report

    def settle(self, report: DispatchReport) -> Iterator[Union[ShardOutcome, ShardQuarantine]]:
        """Dispatch into ``report``, yielding each settled
        :class:`ShardOutcome` or :class:`ShardQuarantine` in plan order once
        ``report`` holds it (an outcome is persisted, merged and announced
        first).  While the stream runs, ``report.results`` is the partial
        merge so far; once it is exhausted, ``report.results`` is the
        manifest-validated merge and ``report.complete`` is set.  Closing
        the stream early stops the backend and its workers.
        """
        merge = IncrementalMerge()
        plan = self.spec.partition(self.shards)
        # Each entry enumerates the grid: build them once, for the resume
        # lookup, the outcome and any quarantine.
        entries = [shard.entry() for shard in plan]
        cached: dict[int, ResultSet] = {}
        for shard in plan:
            if self.result_store is not None:
                hit = self.result_store.get(entries[shard.index])
                if hit is not None:
                    cached[shard.index] = hit
        runners = {
            "inline": self._drive_inline,
            "process": self._drive_process,
            "file-queue": self._drive_queue,
        }
        stream = runners[self.backend](plan, entries, cached, report)
        # Closing the backend's stream when a callback raises, or when this
        # one is closed, stops its workers now.
        with contextlib.closing(stream):
            for settled in stream:
                if isinstance(settled, ShardQuarantine):
                    report.quarantined.append(settled)
                    yield settled
                    continue
                # Persist (process-backend shards were persisted when their
                # last piece landed), merge and announce the shard.
                if self.result_store is not None and settled.source not in ("store", "process"):
                    self.result_store.put(settled.entry, settled.results)
                merge.add(settled.entry, settled.results)
                report.results = merge.partial()
                if self.progress is not None and settled.source not in ("inline", "file-queue"):
                    # Locally-executed shards ("inline", and "file-queue"
                    # claims this driver evaluated itself) already streamed
                    # per-cell progress live through their runner; every
                    # other source delivers the shard's cells here, still in
                    # submission order.
                    for result in settled.results:
                        self.progress(result)
                report.outcomes.append(settled)
                if self.on_shard is not None:
                    self.on_shard(settled)
                yield settled
        report.complete = len(report.outcomes) == report.shards_total
        if report.complete:
            report.results = merge.merged()

    # -- inline backend --------------------------------------------------------
    def _drive_inline(
        self,
        plan: list[Shard],
        entries: list[ShardEntry],
        cached: dict[int, ResultSet],
        report: DispatchReport,
    ) -> Iterator[Union[ShardOutcome, ShardQuarantine]]:
        for shard in plan:
            entry = entries[shard.index]
            if shard.index in cached:
                yield ShardOutcome(entry, cached[shard.index], "store", 0.0)
                continue
            runner = self._runner(shard.seed)
            label = shard_label(shard)
            # Contained attempts with jittered exponential backoff between
            # them; the last failure is the quarantine record.
            failures: list[dict] = []
            for attempt in range(1, self.max_attempts + 1):
                results, failure, seconds = run_shard_contained(
                    runner, shard, label=label, attempt=attempt
                )
                if failure is None:
                    break
                failures.append(failure)
                if attempt < self.max_attempts:
                    time.sleep(faults.backoff_delay(attempt - 1, base=self.poll_interval, cap=0.5))
            report.sandbox_executions += runner.sandbox_executions
            report.verdict_store_hits += runner.store_hits
            if results is not None:
                yield ShardOutcome(entry, results, "inline", seconds)
            else:
                yield ShardQuarantine(entry, len(failures), failures[-1])

    def _runner(self, seed: int) -> EvaluationRunner:
        """A runner for one local evaluation of the spec at ``seed``."""
        return EvaluationRunner(
            config=self.spec.config,
            seed=seed,
            progress=self.progress,
            verdict_store=self.verdict_store,
        )

    # -- process backend -------------------------------------------------------
    def _drive_process(
        self,
        plan: list[Shard],
        entries: list[ShardEntry],
        cached: dict[int, ResultSet],
        report: DispatchReport,
    ) -> Iterator[Union[ShardOutcome, ShardQuarantine]]:
        to_execute = [shard for shard in plan if shard.index not in cached]
        if not to_execute:
            # Fully warm: serve store hits without paying for workers
            # nothing would run on.
            for shard in plan:
                yield ShardOutcome(entries[shard.index], cached[shard.index], "store", 0.0)
            return
        store_path = None if self.verdict_store is None else str(self.verdict_store.path)
        extended_grid = _extended_grid_installed()
        # Same hardware-based sizing policy as Session's process backend,
        # capped by the actual shard count.
        workers = min(self.max_workers or min(8, os.cpu_count() or 1), len(to_execute))
        ctx = multiprocessing.get_context()
        # One worker per run, each run owning whole languages (or runs of
        # one) so its later pieces hit the memos its earlier pieces warmed;
        # no work stealing, which would hand a worker another language's
        # cold piece.
        waiting: deque[list[_Piece]] = deque(_language_runs(to_execute, workers))
        #: pipe -> (process, pieces still owed a message, in-flight first,
        #: deadline of the in-flight piece)
        running: dict = {}
        #: Workers that reported their whole run: they exit on their own and
        #: are reaped once every shard is settled, not on its critical path.
        finished: list = []
        #: Each unsettled shard's live attempt, the (start, records,
        #: seconds) of that attempt's landed pieces, and its pieces owed.
        attempts = {shard.index: 1 for shard in to_execute}
        landed: dict[int, list[tuple[int, list, float]]] = {shard.index: [] for shard in to_execute}
        owed = dict.fromkeys(attempts, 0)
        for run in waiting:
            for piece in run:
                owed[piece.shard.index] += 1
        ready: dict[int, ShardOutcome] = {}
        quarantine: dict[int, ShardQuarantine] = {}
        failures: dict[int, list[dict]] = {}

        def deadline() -> float | None:
            return None if self.shard_timeout is None else time.monotonic() + self.shard_timeout

        def live(piece: _Piece) -> bool:
            """Whether the piece belongs to its shard's live attempt."""
            return attempts.get(piece.shard.index) == piece.attempt

        def spawn() -> None:
            while waiting and len(running) < workers:
                run = [piece for piece in waiting.popleft() if live(piece)]
                if not run:
                    continue
                parent_end, child_end = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_process_shard_worker,
                    args=(child_end, run, store_path, extended_grid),
                )
                proc.start()
                child_end.close()
                running[parent_end] = (proc, deque(run), deadline())

        def finish(shard: Shard) -> None:
            """Merge the shard's pieces in cell order and persist it the
            moment its last piece lands — while the driver waits on an early
            slow shard, later finished shards are already crash-safe on
            disk.  Only the submission-order yield below (and therefore
            callbacks and the merge) waits."""
            parts = sorted(landed.pop(shard.index), key=itemgetter(0))
            del attempts[shard.index], owed[shard.index]
            results = ResultSet.from_payload(
                [record for _, records, _ in parts for record in records], seed=shard.seed
            )
            entry = entries[shard.index]
            if self.result_store is not None:
                self.result_store.put(entry, results)
            cost = sum(seconds for _, _, seconds in parts)
            ready[shard.index] = ShardOutcome(entry, results, "process", cost)

        def land(piece: _Piece, records: list, seconds: float) -> None:
            if not live(piece):
                return  # its attempt was already charged: dropped, never merged
            landed[piece.shard.index].append((piece.start, records, seconds))
            owed[piece.shard.index] -= 1
            if owed[piece.shard.index] == 0:
                finish(piece.shard)

        def settle_failure(piece: _Piece, failure: dict) -> None:
            """Charge the piece's shard one attempt, once per attempt however
            many of its pieces fail: retry it whole, alone, in a fresh
            worker, or quarantine it."""
            if not live(piece):
                return
            shard = piece.shard
            history = failures.setdefault(shard.index, [])
            history.append(failure)
            if piece.attempt >= self.max_attempts:
                del attempts[shard.index], landed[shard.index], owed[shard.index]
                quarantine[shard.index] = ShardQuarantine(
                    entries[shard.index], len(history), failure
                )
            else:
                attempts[shard.index] = piece.attempt + 1
                landed[shard.index], owed[shard.index] = [], 1
                retry = _Piece(shard, shard.start, shard.stop, piece.grid, piece.attempt + 1)
                waiting.append([retry])

        def retire(conn):
            """Drop a worker from the pool and close its pipe."""
            proc = running.pop(conn)[0]
            conn.close()
            return proc

        def lose(run: deque, kind: str, message: str) -> None:
            """A worker died or was killed: charge its in-flight piece's
            shard one attempt and re-offer the rest of its run, uncharged
            (spawn drops the pieces of attempts charged meanwhile)."""
            piece = run.popleft()
            failure = failure_record(
                kind, label=piece.label, phase="process", attempt=piece.attempt, message=message
            )
            settle_failure(piece, failure)
            if run:
                waiting.append(list(run))

        def receive(conn) -> None:
            proc, run, _ = running[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                _reap(retire(conn))  # its exit code goes into the failure
                lose(run, "WorkerDied", f"worker exited with code {proc.exitcode} before reporting")
                return
            piece = run.popleft()
            if message[0] == "error":
                settle_failure(piece, message[1])
            else:
                _, records, executions, hits, seconds = message
                report.sandbox_executions += executions
                report.verdict_store_hits += hits
                land(piece, records, seconds)
            if run:
                running[conn] = (proc, run, deadline())  # the next piece's clock starts
            else:
                finished.append(retire(conn))

        def kill_expired() -> None:
            now = time.monotonic()
            for conn, (proc, run, expires) in list(running.items()):
                if expires is not None and now >= expires:
                    _reap(retire(conn), terminate=True)
                    lose(run, "ShardTimeout", f"hung worker killed after {self.shard_timeout:.3g}s")

        def pump_until(index: int) -> None:
            while index not in ready and index not in quarantine:
                spawn()
                deadlines = [d for (_, _, d) in running.values() if d is not None]
                wait_for = (
                    None
                    if not deadlines
                    else max(0.0, min(deadlines) - time.monotonic())
                )
                for conn in mp_connection.wait(list(running), timeout=wait_for):
                    receive(conn)
                kill_expired()

        for shard in to_execute:
            if owed[shard.index] == 0:
                finish(shard)  # an empty shard: no cells, no pieces

        try:
            for shard in plan:
                if shard.index in cached:
                    yield ShardOutcome(entries[shard.index], cached[shard.index], "store", 0.0)
                    continue
                pump_until(shard.index)
                if shard.index in ready:
                    yield ready.pop(shard.index)
                else:
                    yield quarantine.pop(shard.index)
        finally:
            # Workers still running here were cut off by a caller that
            # closed this generator early (or raised): stop them.
            for conn in list(running):
                _reap(retire(conn), terminate=True)
            for proc in finished:
                _reap(proc)

    # -- file-queue backend ----------------------------------------------------
    def _drive_queue(
        self,
        plan: list[Shard],
        entries: list[ShardEntry],
        cached: dict[int, ResultSet],
        report: DispatchReport,
    ) -> Iterator[Union[ShardOutcome, ShardQuarantine]]:
        queue = self.queue
        queue.requeue_stale()
        for shard in plan:
            if shard.index not in cached:
                queue.publish(shard)
        for shard in plan:
            entry = entries[shard.index]
            if shard.index in cached:
                yield ShardOutcome(entry, cached[shard.index], "store", 0.0)
                continue
            yield self._resolve_queued_shard(shard, entry, report)

    def _resolve_queued_shard(
        self, shard: Shard, entry: ShardEntry, report: DispatchReport
    ) -> Union[ShardOutcome, ShardQuarantine]:
        """Wait for one queued shard: consume its result, claim and evaluate
        it ourselves, or accept its quarantine."""
        name = self.queue.task_name(shard)
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
            if name not in self.queue.pending() and not self._claimed(name):
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
                    results, failure, _ = run_shard_contained(
                        runner, shard, label=name, attempt=self.queue.attempts(name) + 1
                    )
                    report.sandbox_executions += runner.sandbox_executions
                    report.verdict_store_hits += runner.store_hits
                if failure is not None:
                    # Released for retry or quarantined — either way the
                    # loop re-resolves: next iteration sees the re-offered
                    # task or the dead letter.
                    self.queue.fail(claim, failure)
                    idle = 0
                    continue
                self.queue.complete(name, shard_payload(shard, results))
                self.queue.retire(claim)
                return ShardOutcome(entry, results, "file-queue", time.perf_counter() - start)
            # Another worker holds the lease: poll for its result with
            # jittered backoff, reclaiming if the lease goes stale
            # (missed heartbeats — the worker crashed or wedged).
            self._sweep_stale_claims()
            time.sleep(faults.backoff_delay(idle, base=self.poll_interval, cap=backoff_cap))
            idle += 1

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
