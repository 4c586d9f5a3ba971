"""Directory-based shard queue: dispatch work any host can drain.

A :class:`FileQueue` is the zero-infrastructure worker backend of
:mod:`repro.dispatch`: the driver publishes one **task file** per pending
shard into a shared directory (NFS mount, synced folder, anything that
supports atomic rename), and any number of workers — the driver itself, a
``repro-hpc-codex dispatch-worker`` process on another machine — claim
tasks by atomically renaming them and publish the evaluated shard payload
back as a **result file**.  The layout::

    queue/
      tasks/<name>.json           pending shard descriptors
      claims/<name>.<token>.json  leased tasks (rename target; see below)
      results/<name>.json         completed repro.shard/v1 payloads
      attempts/<name>.json        failure history of a task (sidecar)
      failed/<name>.json          quarantined tasks (dead letters)

``os.rename`` from ``tasks/`` to ``claims/`` is the claim: exactly one of
any number of racing workers wins (the losers see ``FileNotFoundError`` and
move on).  Each claim file name carries a unique **owner token**, so the
claim is a *lease*: the owning worker renews it from a background
:class:`HeartbeatLease` thread (``os.utime`` every ``heartbeat_interval``
seconds), staleness means "missed ``lease_beats`` heartbeats" rather than
any fixed wall time, and a revoked owner finds out the moment its next
heartbeat fails — a long-running shard with a live heartbeat is never
re-offered, while a genuinely dead worker's shard is reclaimed after a few
missed beats.

Failure is a tracked state, not an accident: a worker whose evaluation
raises records a structured failure in the task's ``attempts/`` sidecar and
releases the claim for another try; a worker that dies outright is caught
by lease expiry, which records the same kind of failure.  After
``max_attempts`` recorded failures the task is **quarantined** — moved to
``failed/`` together with its descriptor and failure history — so one
poison shard can never livelock the queue.  Completed tasks' claims and
sidecars are garbage-collected (on completion and by the stale sweep), so
``claims/`` cannot grow without bound or resurrect a finished task.

Task files carry the spec's coordinates *and* its config fingerprint + grid
digest; a worker reconstructs the spec locally and **refuses the task if
its local config fingerprints differently** — the same trust-the-manifest
principle that guards merges guards distribution.  Results are the exact
``repro.shard/v1`` payloads the ``merge`` subcommand consumes, validated on
consumption.  All queue documents are published with the shared
fsync-before-replace writer (:func:`repro.atomicio.write_atomic_json`), so
a power loss can leave old state behind but never a torn file.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.store import VerdictStore
from repro.api.spec import ExperimentSpec, Shard, shard_payload
from repro.atomicio import write_atomic_json
from repro.core.runner import EvaluationRunner
from repro.dispatch import faults
from repro.dispatch.runners import failure_record, run_shard_contained

__all__ = [
    "Claim",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_LEASE_BEATS",
    "DEFAULT_MAX_ATTEMPTS",
    "FileQueue",
    "HeartbeatLease",
    "QUARANTINE_FORMAT",
    "TASK_FORMAT",
    "drain_queue",
]

#: Format tag of one task-descriptor file.
TASK_FORMAT = "repro.dispatch-task/v1"

#: Format tag of one quarantined-task (dead-letter) file.
QUARANTINE_FORMAT = "repro.dispatch-quarantine/v1"

#: How often a worker's background thread renews its claim lease.
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Missed heartbeats before a claim counts as abandoned.  Three beats
#: tolerates scheduling hiccups and coarse NFS mtime granularity while
#: still reclaiming a dead worker's shard in ~15 s at the default interval
#: (the old fixed sweep waited 300 s — and, worse, reclaimed *live* shards
#: that simply ran longer than that).
DEFAULT_LEASE_BEATS = 3

#: Recorded failures before a task is quarantined to ``failed/``.
DEFAULT_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class Claim:
    """A leased task: its name, this owner's token, and the descriptor.

    The lease is materialised as ``claims/<name>.<token>.json``; only the
    stale sweep may take it away, and when it does, the owner's next
    heartbeat (or release/retire) fails visibly instead of silently
    overlapping with the new owner.
    """

    name: str
    token: str
    path: Path
    descriptor: dict

    def alive(self) -> bool:
        """Whether this owner still holds the lease."""
        return self.path.exists()


class HeartbeatLease:
    """Background lease renewal for one :class:`Claim` (context manager).

    While the body evaluates the shard, a daemon thread touches the claim
    file every ``interval`` seconds.  If a renewal finds the file gone —
    the stale sweep revoked the lease, rightly (this worker stalled past
    ``lease_beats`` missed heartbeats) or wrongly (severe clock skew on the
    sweeping side) — ``lost`` flips to ``True`` and renewal stops; the
    owner keeps its work (results are deterministic, so publishing them
    anyway is idempotent and harmless) but knows not to trust its
    exclusivity.  The ``worker.heartbeat`` fault point fires before every
    renewal, so a chaos plan can wedge the heartbeat (``hang``) to
    simulate a worker that computes but cannot renew.
    """

    def __init__(self, queue: "FileQueue", claim: Claim, interval: float | None = None) -> None:
        self.claim = claim
        self.interval = queue.heartbeat_interval if interval is None else interval
        self.lost = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "HeartbeatLease":
        self._thread = threading.Thread(
            target=self._renew, name=f"heartbeat-{self.claim.name}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            # A wedged heartbeat (injected hang) must not wedge the worker
            # too: daemon threads may be abandoned.
            self._thread.join(timeout=self.interval)

    def _renew(self) -> None:
        while not self._stop.wait(self.interval):
            faults.fire("worker.heartbeat", self.claim.name)
            try:
                os.utime(self.claim.path)
            except OSError:
                self.lost = True
                return


class FileQueue:
    """A shard queue in a shared directory (see module docstring).

    Parameters
    ----------
    root:
        The shared queue directory (created if missing).
    heartbeat_interval, lease_beats:
        Lease policy: workers renew every ``heartbeat_interval`` seconds
        and a claim is stale after ``heartbeat_interval * lease_beats``
        seconds without renewal.  Every queue instance sharing a directory
        should share these values.
    max_attempts:
        Recorded failures before a task is quarantined to ``failed/``.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        lease_beats: int = DEFAULT_LEASE_BEATS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        if lease_beats < 1:
            raise ValueError(f"lease_beats must be >= 1, got {lease_beats}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.attempts_dir = self.root / "attempts"
        self.failed_dir = self.root / "failed"
        self.heartbeat_interval = float(heartbeat_interval)
        self.lease_beats = int(lease_beats)
        self.max_attempts = int(max_attempts)
        for directory in (
            self.tasks_dir,
            self.claims_dir,
            self.results_dir,
            self.attempts_dir,
            self.failed_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FileQueue({str(self.root)!r})"

    @property
    def lease_seconds(self) -> float:
        """Claim age beyond which the lease counts as abandoned."""
        return self.heartbeat_interval * self.lease_beats

    # -- naming ---------------------------------------------------------------
    @staticmethod
    def task_name(shard: Shard) -> str:
        """Stable file name of a shard's task: the shard identity.

        Two runs of the same spec share names, so re-publishing after a
        crash is naturally idempotent — and two *different* specs can never
        collide because the fingerprint and grid digest are part of the name.
        """
        entry = shard.entry()
        return (
            f"s{entry.seed}-{entry.start:05d}-{entry.stop:05d}"
            f"-{entry.fingerprint[:12]}-{entry.grid[:12]}"
        )

    def _claim_files(self, name: str) -> list[Path]:
        return sorted(self.claims_dir.glob(f"{name}.*.json"))

    @staticmethod
    def _claim_task_name(claim_path: Path) -> str:
        # claims/<name>.<token>.json → <name>  (task names contain no dots).
        return claim_path.name.split(".", 1)[0]

    # -- publishing -----------------------------------------------------------
    def publish(self, shard: Shard) -> bool:
        """Write the task descriptor for one shard (atomic; idempotent).

        Returns ``True`` when a new task file was published, ``False`` when
        the shard is already pending, claimed, completed or quarantined.
        """
        name = self.task_name(shard)
        if any(
            (directory / f"{name}.json").exists()
            for directory in (self.tasks_dir, self.results_dir, self.failed_dir)
        ) or self._claim_files(name):
            return False
        entry = shard.entry()
        payload = {
            "format": TASK_FORMAT,
            "index": shard.index,
            "of": shard.of,
            "spec": shard.spec.to_payload(),
            "grid": entry.grid,
        }
        write_atomic_json(self.tasks_dir / f"{name}.json", payload, indent=2)
        return True

    # -- claiming -------------------------------------------------------------
    def claim(self, name: str) -> Claim | None:
        """Try to lease one task; returns a :class:`Claim`, or ``None`` if
        another worker won the rename race (or the task vanished)."""
        token = uuid.uuid4().hex[:8]
        task = self.tasks_dir / f"{name}.json"
        claimed = self.claims_dir / f"{name}.{token}.json"
        try:
            os.rename(task, claimed)
        except OSError:
            return None
        faults.fire("queue.claim", name)
        try:
            # Stamp the lease: rename preserves the publish-time mtime, but
            # staleness must measure time since *claiming*.
            os.utime(claimed)
            descriptor = json.loads(claimed.read_text("utf-8"))
        except (OSError, ValueError):
            # Lost a race with a concurrent stale sweep (the pre-utime
            # mtime looked ancient), or the descriptor bytes are unreadable:
            # either way this worker did not get a usable lease.
            return None
        return Claim(name=name, token=token, path=claimed, descriptor=descriptor)

    def claim_next(self, *, skip: set[str] | None = None) -> Claim | None:
        """Claim the first available task in name order, racing politely.

        ``skip`` names tasks this worker already refused (foreign config);
        without it a released poison task would be re-claimed forever.
        """
        for task in sorted(self.tasks_dir.glob("*.json")):
            if skip and task.stem in skip:
                continue
            claim = self.claim(task.stem)
            if claim is not None:
                return claim
        return None

    def release(self, claim: Claim | str) -> None:
        """Return a claimed task to the pending pool (worker gave up).

        Accepts the worker's own :class:`Claim` or a task name (recovery
        paths that hold no lease, e.g. dropping a corrupt result).  A task
        whose result already exists is *not* resurrected — its claim is
        garbage-collected instead.
        """
        paths = [claim.path] if isinstance(claim, Claim) else self._claim_files(claim)
        name = claim.name if isinstance(claim, Claim) else claim
        for path in paths:
            try:
                if (self.results_dir / f"{name}.json").exists():
                    path.unlink()
                else:
                    os.rename(path, self.tasks_dir / f"{name}.json")
            except OSError:  # pragma: no cover - concurrent recovery
                pass

    def retire(self, claim: Claim) -> None:
        """Drop a completed task's lease and failure history (GC)."""
        for path in (claim.path, self.attempts_dir / f"{claim.name}.json"):
            try:
                path.unlink()
            except OSError:
                pass

    def requeue_stale(self, stale_after: float | None = None) -> int:
        """Recover abandoned claims; garbage-collect completed ones.

        A claim older than ``stale_after`` seconds (default: the queue's
        lease — ``heartbeat_interval * lease_beats``) has missed all its
        heartbeats: its worker is presumed dead, a failure is recorded
        against the task, and the task is either re-offered or — at
        ``max_attempts`` — quarantined.  Claims whose result exists are
        deleted outright, so ``claims/`` cannot grow forever and a
        completed task can never be resurrected.  Returns the number of
        claims re-offered.

        Staleness arithmetic runs through the fault clock
        (:func:`repro.dispatch.faults.clock_skew`), so chaos tests can
        explore the claim/requeue race without real waiting.
        """
        stale_after = self.lease_seconds if stale_after is None else stale_after
        requeued = 0
        now = time.time() + faults.clock_skew()
        for claim_path in sorted(self.claims_dir.glob("*.json")):
            name = self._claim_task_name(claim_path)
            if (self.results_dir / f"{name}.json").exists():
                # Completed: the claim (and its failure history) is garbage.
                for stale in (claim_path, self.attempts_dir / f"{name}.json"):
                    try:
                        stale.unlink()
                    except OSError:  # pragma: no cover - concurrent recovery
                        pass
                continue
            try:
                if now - claim_path.stat().st_mtime < stale_after:
                    continue
            except OSError:  # pragma: no cover - concurrent recovery
                continue
            # Lease expired: evidence of a dead or wedged worker.
            failure = failure_record(
                "LeaseExpired",
                label=name,
                phase="lease",
                message=(
                    f"claim missed its heartbeat lease ({stale_after:.3g}s); "
                    "the worker is presumed dead"
                ),
            )
            if not self.fail(claim_path, failure):
                requeued += 1
        return requeued

    # -- failure tracking ------------------------------------------------------
    def attempts(self, name: str) -> int:
        """Recorded failed attempts of one task (0 when history is absent)."""
        try:
            return int(
                json.loads((self.attempts_dir / f"{name}.json").read_text("utf-8"))["attempts"]
            )
        except (OSError, ValueError, KeyError, TypeError):
            return 0

    def fail(self, claim: Claim | Path, failure: dict) -> bool:
        """Record one failed attempt; release the task or quarantine it.

        ``claim`` is the worker's :class:`Claim` (crash containment caught
        an evaluation error) or a raw claim path (the stale sweep found an
        abandoned lease).  Below ``max_attempts`` the failure is appended
        to the ``attempts/`` sidecar and the task re-offered; at the limit
        the task moves to ``failed/`` as a dead letter carrying its
        descriptor and full failure history.  Returns ``True`` when the
        task was quarantined.  Fail-soft: bookkeeping I/O errors never
        propagate into the worker loop.
        """
        if isinstance(claim, Claim):
            name, claim_path, descriptor = claim.name, claim.path, claim.descriptor
        else:
            claim_path = claim
            name = self._claim_task_name(claim_path)
            try:
                descriptor = json.loads(claim_path.read_text("utf-8"))
            except (OSError, ValueError):
                descriptor = None
        sidecar = self.attempts_dir / f"{name}.json"
        try:
            history = json.loads(sidecar.read_text("utf-8"))
            history["attempts"] = int(history["attempts"])
            if not isinstance(history.get("failures"), list):
                raise ValueError("malformed failure history")
        except (OSError, ValueError, KeyError, TypeError):
            history = {"attempts": 0, "failures": []}
        history["attempts"] += 1
        history["failures"] = (history["failures"] + [failure])[-10:]
        if history["attempts"] >= self.max_attempts:
            payload = {
                "format": QUARANTINE_FORMAT,
                "name": name,
                "attempts": history["attempts"],
                "failures": history["failures"],
                "task": descriptor,
            }
            try:
                write_atomic_json(self.failed_dir / f"{name}.json", payload, indent=2)
            except OSError:  # pragma: no cover - full disk / permissions
                pass
            for stale in (claim_path, sidecar):
                try:
                    stale.unlink()
                except OSError:
                    pass
            return True
        try:
            write_atomic_json(sidecar, history, indent=2)
        except OSError:  # pragma: no cover - full disk / permissions
            pass
        self.release(Claim(name=name, token="", path=claim_path, descriptor=descriptor or {}))
        return False

    def quarantined(self, name: str) -> dict | None:
        """The dead-letter payload of a quarantined task, or ``None``."""
        try:
            return json.loads((self.failed_dir / f"{name}.json").read_text("utf-8"))
        except (OSError, ValueError):
            return None

    def failed(self) -> list[str]:
        """Names of quarantined tasks, in name order."""
        return sorted(entry.stem for entry in self.failed_dir.glob("*.json"))

    # -- results --------------------------------------------------------------
    def complete(self, name: str, payload: dict) -> None:
        """Publish the evaluated ``repro.shard/v1`` payload for a task.

        The ``worker.complete`` fault point fires first: a ``corrupt``
        fault makes this worker publish deliberately torn bytes instead,
        exercising the validate-on-read path (the driver drops the file,
        releases the claim and re-offers the shard).
        """
        path = self.results_dir / f"{name}.json"
        fault = faults.fire("worker.complete", name)
        if fault is not None and fault.action == "corrupt":
            path.write_text('{"format": "repro.shard/v1", "records": [{"truncat')
            return
        write_atomic_json(path, payload, indent=2)

    def result(self, name: str) -> dict | None:
        """The completed payload for a task, or ``None`` while outstanding.

        An unparsable result file (truncated writer) is dropped *and the
        task's claim released*, so the shard goes back on offer instead of
        wedging behind a result nobody can read — degradation to
        re-evaluation, never wrong records.
        """
        path = self.results_dir / f"{name}.json"
        try:
            return json.loads(path.read_text("utf-8"))
        except OSError:
            return None
        except ValueError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
            self.release(name)
            return None

    def pending(self) -> list[str]:
        """Names of currently unclaimed tasks, in name order."""
        return sorted(task.stem for task in self.tasks_dir.glob("*.json"))

    # -- task reconstruction ---------------------------------------------------
    @staticmethod
    def load_task(descriptor: dict) -> Shard:
        """Rebuild the shard a task describes, refusing untrusted tasks.

        The spec is reconstructed from its coordinates with this worker's
        **local default config**; if the reconstruction's fingerprint or
        grid digest disagrees with what the task declares, the worker's
        evaluation would silently diverge from the driver's expectation —
        so it raises instead (specs with custom configs must use the
        ``inline`` or ``process`` backends, which share the config object).
        """
        if descriptor.get("format") != TASK_FORMAT:
            raise ValueError(f"not a {TASK_FORMAT} descriptor: {descriptor.get('format')!r}")
        spec_payload = descriptor["spec"]
        spec = ExperimentSpec(
            seeds=tuple(spec_payload["seeds"]),
            languages=tuple(spec_payload["languages"]),
            models=None if spec_payload["models"] is None else tuple(spec_payload["models"]),
            kernels=None if spec_payload["kernels"] is None else tuple(spec_payload["kernels"]),
        )
        if spec.fingerprint() != spec_payload["fingerprint"]:
            raise ValueError(
                f"task expects config fingerprint {spec_payload['fingerprint']} but this "
                f"worker's default config fingerprints to {spec.fingerprint()}; "
                "custom-config specs cannot be dispatched through a file queue"
            )
        if spec.grid_digest() != descriptor["grid"]:
            raise ValueError(
                f"task expects grid {descriptor['grid']} but the reconstructed spec "
                f"enumerates grid {spec.grid_digest()}"
            )
        return spec.shard(int(descriptor["index"]), int(descriptor["of"]))


def drain_queue(
    queue: FileQueue | str | Path,
    *,
    max_tasks: int | None = None,
    verdict_store=None,
    progress=None,
    poll: float | None = None,
) -> int:
    """Claim and evaluate pending tasks until the queue stays empty.

    This is the worker loop behind ``repro-hpc-codex dispatch-worker``: any
    host that can see the queue directory runs it to contribute cycles to a
    dispatch.  Each claimed shard is evaluated serially (parallelism comes
    from running more workers) under a :class:`HeartbeatLease`, with crash
    containment: an evaluation that raises records a structured failure
    against the task and releases it for another worker (or, at
    ``max_attempts``, quarantines it to ``failed/``) instead of killing the
    loop.  A task this worker cannot take (foreign config fingerprint,
    mismatching grid, corrupt descriptor) is released back — with a
    :class:`UserWarning` — and never re-claimed by this call, so one
    foreign task cannot wedge the worker or starve the valid tasks behind
    it.

    With ``poll`` set, an empty queue does not end the loop immediately:
    the worker keeps polling with jittered exponential backoff until the
    queue has stayed empty for ``poll`` seconds, so workers started before
    (or mid-) publish pick up tasks instead of exiting on a momentary gap.
    Returns the number of shards this call evaluated.
    """
    if not isinstance(queue, FileQueue):
        queue = FileQueue(queue)
    # Opened once for the loop: a runner handed a path opens a store of its own.
    verdict_store = VerdictStore.coerce(verdict_store)
    executed = 0
    refused: set[str] = set()
    idle = 0
    empty_deadline: float | None = None
    while max_tasks is None or executed < max_tasks:
        claim = queue.claim_next(skip=refused)
        if claim is None:
            if poll is None:
                break
            now = time.monotonic()
            if empty_deadline is None:
                empty_deadline = now + poll
            if now >= empty_deadline:
                break
            time.sleep(min(faults.backoff_delay(idle), empty_deadline - now))
            idle += 1
            continue
        idle = 0
        empty_deadline = None
        try:
            shard = queue.load_task(claim.descriptor)
        except (ValueError, KeyError, TypeError) as exc:
            queue.release(claim)
            refused.add(claim.name)
            warnings.warn(f"refusing queued task {claim.name}: {exc}", stacklevel=2)
            continue
        with HeartbeatLease(queue, claim):
            runner = EvaluationRunner(
                config=shard.spec.config,
                seed=shard.seed,
                progress=progress,
                verdict_store=verdict_store,
            )
            results, failure, _ = run_shard_contained(
                runner, shard, label=claim.name, attempt=queue.attempts(claim.name) + 1
            )
        if failure is not None:
            quarantined = queue.fail(claim, failure)
            warnings.warn(
                f"task {claim.name} failed ({failure['error']}: {failure['message']}); "
                + ("quarantined" if quarantined else "released for retry"),
                stacklevel=2,
            )
            continue
        queue.complete(claim.name, shard_payload(shard, results))
        queue.retire(claim)
        executed += 1
    return executed
