"""Chaos suite for the dispatch fault-tolerance layer.

Every scenario here injects deterministic failures through
:mod:`repro.dispatch.faults` — worker crashes, hard deaths, hangs, corrupt
result writes, skewed clocks — and asserts the one invariant the layer
promises: the end state of a dispatch is always a **byte-identical merge or
an explicit quarantine**, never wrong records, never a livelock, and never
a double-owned lease.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import ExperimentSpec, Session
from repro.atomicio import write_atomic_json
from repro.codex.config import DEFAULT_SEED
from repro.dispatch import (
    FileQueue,
    HeartbeatLease,
    ResultStore,
    ShardDriver,
    ShardQuarantine,
    drain_queue,
    faults,
)


@pytest.fixture(autouse=True)
def disarm_faults(monkeypatch):
    """Every test starts and ends with no armed fault plan."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def spec() -> ExperimentSpec:
    return ExperimentSpec(seeds=(DEFAULT_SEED,), languages=("julia",))


@pytest.fixture(scope="module")
def expected_records(spec):
    with Session(seed=DEFAULT_SEED) as session:
        return session.run(spec).to_records()


def surviving_subset(spec, expected_records, dead_starts):
    """Expected records of every shard whose start is not quarantined."""
    subset = []
    for shard in spec.partition(4):
        if shard.start not in dead_starts:
            subset.extend(expected_records[shard.start : shard.stop])
    return subset


# ---------------------------------------------------------------------------
# The injector itself
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_unarmed_fire_is_a_noop(self):
        assert faults.fire("worker.evaluate", "anything") is None
        assert faults.clock_skew() == 0.0

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            faults.Fault("worker.evaluate", "melt")

    def test_times_budget_and_match_are_honoured(self):
        faults.install(
            [{"point": "worker.evaluate", "action": "crash", "match": "poison", "times": 2}]
        )
        assert faults.fire("worker.evaluate", "healthy") is None
        assert faults.fire("worker.complete", "poison") is None  # wrong point
        for _ in range(2):
            with pytest.raises(faults.InjectedCrash):
                faults.fire("worker.evaluate", "poison-shard")
        assert faults.fire("worker.evaluate", "poison-shard") is None  # budget spent

    def test_env_plan_is_read_lazily(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV, '[{"point": "queue.clock", "action": "skew", "arg": 42.5}]'
        )
        faults.reset()
        assert faults.clock_skew() == 42.5

    def test_backoff_delay_is_bounded_jitter(self):
        import random

        rng = random.Random(0)
        for attempt in range(12):
            delay = faults.backoff_delay(attempt, base=0.05, cap=2.0, rng=rng)
            assert 0.0 <= delay <= min(2.0, 0.05 * 2**attempt)


# ---------------------------------------------------------------------------
# Inline backend: retries and quarantine
# ---------------------------------------------------------------------------

class TestInlineFaults:
    def test_transient_crash_is_retried_to_identity(self, spec, expected_records, tmp_path):
        faults.install([{"point": "worker.evaluate", "action": "crash", "times": 2}])
        report = ShardDriver(spec, shards=4, poll_interval=0.001).run()
        assert report.complete
        assert report.result().to_records() == expected_records

    def test_poison_shard_is_quarantined_not_merged(self, spec, expected_records):
        faults.install(
            [{"point": "worker.evaluate", "action": "crash", "match": "-00000-"}]
        )
        report = ShardDriver(spec, shards=4, poll_interval=0.001).run()
        assert not report.complete
        assert report.pending == 0
        assert len(report.quarantined) == 1
        dead = report.quarantined[0]
        assert isinstance(dead, ShardQuarantine)
        assert dead.entry.start == 0
        assert dead.attempts == 3
        assert dead.failure["error"] == "InjectedCrash"
        assert "DEGRADED 3/4" in report.summary()
        with pytest.raises(ValueError, match="quarantined"):
            report.result()
        # The survivors merged byte-identically to the matching subset.
        partial = report.results[DEFAULT_SEED].to_records()
        assert partial == surviving_subset(spec, expected_records, {0})

    def test_max_attempts_is_the_retry_budget(self, spec):
        faults.install([{"point": "worker.evaluate", "action": "crash", "times": 2}])
        report = ShardDriver(spec, shards=1, max_attempts=2, poll_interval=0.001).run()
        assert len(report.quarantined) == 1 and report.quarantined[0].attempts == 2
        faults.install([{"point": "worker.evaluate", "action": "crash", "times": 2}])
        report = ShardDriver(spec, shards=1, max_attempts=3, poll_interval=0.001).run()
        assert report.complete  # third attempt succeeded

    def test_quarantined_shards_do_not_poison_the_store(self, spec, expected_records, tmp_path):
        # A quarantined shard leaves nothing behind in the result store; once
        # the fault is gone, a resume executes it and completes the merge.
        store = tmp_path / "store"
        faults.install([{"point": "worker.evaluate", "action": "crash", "match": "-00000-"}])
        first = ShardDriver(spec, shards=4, result_store=store, poll_interval=0.001).run()
        assert len(first.quarantined) == 1 and len(first.outcomes) == 3
        faults.reset()
        resumed = ShardDriver(spec, shards=4, result_store=ResultStore(store)).run()
        assert resumed.complete
        assert len(resumed.skipped) == 3 and len(resumed.executed) == 1
        assert resumed.result().to_records() == expected_records


# ---------------------------------------------------------------------------
# Process backend: hard deaths and hung workers
# ---------------------------------------------------------------------------

class TestProcessFaults:
    def test_dead_worker_is_detected_and_quarantined(self, spec, expected_records, monkeypatch):
        # The fault plan travels through the environment, so every spawned
        # worker (and each retry's fresh worker) re-arms it and dies hard.
        monkeypatch.setenv(
            faults.FAULTS_ENV,
            '[{"point": "worker.evaluate", "action": "die", "match": "-00000-"}]',
        )
        faults.reset()
        report = ShardDriver(
            spec, shards=4, backend="process", max_workers=2, max_attempts=2
        ).run()
        assert report.pending == 0
        assert len(report.quarantined) == 1
        dead = report.quarantined[0]
        assert dead.entry.start == 0 and dead.failure["error"] == "WorkerDied"
        assert "exited with code 17" in dead.failure["message"]
        partial = report.results[DEFAULT_SEED].to_records()
        assert partial == surviving_subset(spec, expected_records, {0})

    def test_hung_worker_is_killed_on_shard_timeout(self, spec, expected_records, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV,
            '[{"point": "worker.evaluate", "action": "hang", "arg": 60, "match": "-00000-"}]',
        )
        faults.reset()
        start = time.monotonic()
        report = ShardDriver(
            spec,
            shards=4,
            backend="process",
            max_workers=2,
            max_attempts=2,
            shard_timeout=1.0,
        ).run()
        elapsed = time.monotonic() - start
        assert elapsed < 30  # no livelock: 2 attempts × 1 s timeout, not 60 s hangs
        assert len(report.quarantined) == 1
        dead = report.quarantined[0]
        assert dead.failure["error"] == "ShardTimeout"
        partial = report.results[DEFAULT_SEED].to_records()
        assert partial == surviving_subset(spec, expected_records, {0})

    def test_worker_error_records_cross_the_pipe(self, spec, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV,
            '[{"point": "worker.evaluate", "action": "crash", "match": "-00000-"}]',
        )
        faults.reset()
        report = ShardDriver(
            spec, shards=4, backend="process", max_workers=2, max_attempts=2
        ).run()
        assert len(report.quarantined) == 1
        assert report.quarantined[0].failure["error"] == "InjectedCrash"
        assert "injected crash" in report.quarantined[0].failure["message"]


# ---------------------------------------------------------------------------
# File queue: leases, retries, dead letters
# ---------------------------------------------------------------------------

class TestQueueFaults:
    def test_crashing_worker_releases_for_retry(self, spec, expected_records, tmp_path):
        queue = FileQueue(tmp_path / "q")
        for shard in spec.partition(4):
            queue.publish(shard)
        faults.install(
            [{"point": "worker.evaluate", "action": "crash", "match": "-00000-", "times": 1}]
        )
        # The crash is contained, the failure recorded, the task released —
        # and the *same* drain call re-claims and completes it.
        with pytest.warns(UserWarning, match="released for retry"):
            assert drain_queue(queue) == 4
        assert queue.pending() == [] and queue.failed() == []
        assert list(queue.attempts_dir.iterdir()) == []  # retired on success
        report = ShardDriver(
            spec, shards=4, backend="file-queue", queue=queue, max_shards=0
        ).run()
        assert report.complete
        assert report.result().to_records() == expected_records

    def test_poison_task_lands_in_the_dead_letter_dir(self, spec, expected_records, tmp_path):
        queue = FileQueue(tmp_path / "q", max_attempts=2)
        faults.install([{"point": "worker.evaluate", "action": "crash", "match": "-00000-"}])
        report = ShardDriver(
            spec, shards=4, backend="file-queue", queue=queue, poll_interval=0.001
        ).run()
        assert report.pending == 0
        assert len(report.quarantined) == 1
        assert report.quarantined[0].attempts == 2
        # The dead letter carries the descriptor and the failure history.
        name = queue.task_name(spec.partition(4)[0])
        assert queue.failed() == [name]
        letter = queue.quarantined(name)
        assert letter["format"] == "repro.dispatch-quarantine/v1"
        assert letter["attempts"] == 2
        assert all(f["error"] == "InjectedCrash" for f in letter["failures"])
        assert letter["task"]["format"] == "repro.dispatch-task/v1"
        partial = report.results[DEFAULT_SEED].to_records()
        assert partial == surviving_subset(spec, expected_records, {0})
        # Quarantine is sticky: a fresh driver neither re-publishes nor
        # re-executes the dead shard (no livelock, no wrong records).
        faults.reset()
        again = ShardDriver(
            spec, shards=4, backend="file-queue", queue=queue, poll_interval=0.001
        ).run()
        assert len(again.quarantined) == 1 and again.pending == 0

    def test_corrupt_result_write_degrades_to_reexecution(
        self, spec, expected_records, tmp_path
    ):
        queue = FileQueue(tmp_path / "q")
        shards = spec.partition(2)
        for shard in shards:
            queue.publish(shard)
        poison = queue.task_name(shards[0])
        faults.install(
            [{"point": "worker.complete", "action": "corrupt", "match": poison, "times": 1}]
        )
        assert drain_queue(queue) == 2  # the worker believes both completed
        raw = (queue.results_dir / f"{poison}.json").read_text()
        with pytest.raises(ValueError):
            json.loads(raw)  # the bytes on disk really are torn
        faults.reset()
        report = ShardDriver(spec, shards=2, backend="file-queue", queue=queue).run()
        assert report.complete
        assert report.result().to_records() == expected_records

    def test_live_lease_is_never_reoffered(self, spec, tmp_path):
        # A shard that simply runs long — with a heartbeating worker — must
        # never be stolen, while a genuinely abandoned claim must be.
        queue = FileQueue(tmp_path / "q", heartbeat_interval=0.05, lease_beats=3)
        shard = spec.partition(2)[0]
        queue.publish(shard)
        claim = queue.claim(queue.task_name(shard))
        assert claim is not None
        with HeartbeatLease(queue, claim):
            time.sleep(queue.lease_seconds * 3)  # far beyond the lease
            assert queue.requeue_stale() == 0
            assert claim.alive()
        # Heartbeats stopped (the worker is gone): the lease expires.
        time.sleep(queue.lease_seconds * 1.5)
        assert queue.requeue_stale() == 1
        assert not claim.alive()
        assert queue.pending() == [claim.name]
        assert queue.attempts(claim.name) == 1  # LeaseExpired is on record

    def test_skewed_clock_revokes_visibly_not_silently(self, spec, tmp_path):
        # A sweeper whose clock runs fast wrongly revokes a fresh lease —
        # the protocol cannot prevent that, but the owner must find out.
        queue = FileQueue(tmp_path / "q", heartbeat_interval=0.05, lease_beats=2)
        shard = spec.partition(2)[0]
        queue.publish(shard)
        claim = queue.claim(queue.task_name(shard))
        assert claim is not None and claim.alive()
        faults.install([{"point": "queue.clock", "action": "skew", "arg": 3600.0}])
        assert queue.requeue_stale() == 1
        assert not claim.alive()
        with HeartbeatLease(queue, claim, interval=0.02) as lease:
            time.sleep(0.2)
        assert lease.lost  # the revoked owner noticed via its heartbeat

    def test_claim_requeue_race_never_yields_two_live_owners(self, spec, tmp_path):
        # Property-style: racing claimers and a stale sweeper with a wildly
        # skewed clock (every lease looks expired the moment it is taken)
        # must never leave two workers each believing they hold the lease.
        queue = FileQueue(
            tmp_path / "q", heartbeat_interval=0.05, lease_beats=1, max_attempts=10_000
        )
        shard = spec.partition(1)[0]
        name = queue.task_name(shard)
        queue.publish(shard)
        faults.install([{"point": "queue.clock", "action": "skew", "arg": 3600.0}])
        for _ in range(25):
            barrier = threading.Barrier(3)
            claims = []

            def claimer():
                barrier.wait()
                claims.append(queue.claim(name))

            def sweeper():
                barrier.wait()
                queue.requeue_stale()

            threads = [
                threading.Thread(target=claimer),
                threading.Thread(target=claimer),
                threading.Thread(target=sweeper),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            won = [claim for claim in claims if claim is not None]
            # The rename race has at most one winner, and however the sweep
            # interleaved, at most one of the tokens names a live lease.
            assert len(won) <= 1
            assert sum(claim.alive() for claim in won) <= 1
            assert len(queue._claim_files(name)) <= 1
            # Settle for the next round: sweep until the task is re-offered.
            while name not in queue.pending():
                queue.requeue_stale()

    def test_completed_claims_are_garbage_collected(self, spec, tmp_path):
        # Satellite: claims/ must not leak. Normal completion retires the
        # claim; a claim orphaned *after* its result exists is swept away,
        # and never resurrects the finished task.
        queue = FileQueue(tmp_path / "q")
        shards = spec.partition(2)
        for shard in shards:
            queue.publish(shard)
        drain_queue(queue)
        assert list(queue.claims_dir.iterdir()) == []
        assert list(queue.attempts_dir.iterdir()) == []
        # Orphan a claim by hand next to its existing result.
        name = queue.task_name(shards[0])
        orphan = queue.claims_dir / f"{name}.deadbeef.json"
        write_atomic_json(orphan, {"format": "repro.dispatch-task/v1"})
        assert queue.requeue_stale(0.0) == 0  # GC'd, not re-offered
        assert not orphan.exists()
        assert queue.pending() == []

    def test_worker_poll_waits_for_late_tasks(self, spec, tmp_path):
        queue = FileQueue(tmp_path / "q")
        shard = spec.partition(1)[0]
        threading.Timer(0.3, lambda: queue.publish(shard)).start()
        # Without poll the worker would exit immediately on the empty queue.
        assert drain_queue(queue, poll=10.0, max_tasks=1) == 1

    def test_worker_poll_expires_on_a_queue_that_stays_empty(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        start = time.monotonic()
        assert drain_queue(queue, poll=0.3) == 0
        assert 0.3 <= time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# Durability: the queue's fsync-before-replace writer
# ---------------------------------------------------------------------------

class TestAtomicWrites:
    def test_write_atomic_json_fsyncs_before_replace(self, tmp_path, monkeypatch):
        import repro.atomicio as atomicio

        synced: list[int] = []
        real_fsync = atomicio.os.fsync
        monkeypatch.setattr(atomicio.os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        write_atomic_json(tmp_path / "entry.json", {"a": 1})
        assert len(synced) >= 1  # the entry file (plus, best-effort, its dir)
        assert json.loads((tmp_path / "entry.json").read_text()) == {"a": 1}

    def test_failed_write_leaves_no_droppings(self, tmp_path, monkeypatch):
        import repro.atomicio as atomicio

        def explode(fd):
            raise OSError("disk full")

        monkeypatch.setattr(atomicio.os, "fsync", explode)
        with pytest.raises(OSError):
            write_atomic_json(tmp_path / "entry.json", {"a": 1})
        assert list(tmp_path.iterdir()) == []

    def test_stores_share_the_durable_writer(self, tmp_path, monkeypatch):
        # Only the queue's state is durable: its leases and claims must
        # survive a power cut, so it publishes through the fsyncing writer.
        # Cache entries are validated, not durable; the stores append to
        # segments and must never pay for an fsync.
        import repro.atomicio as atomicio
        from repro.analysis.store import VerdictStore
        from repro.analysis.verdict import SuggestionVerdict
        from repro.dispatch.store import ResultStore

        synced: list[int] = []
        real_fsync = atomicio.os.fsync
        monkeypatch.setattr(atomicio.os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        spec = ExperimentSpec(seeds=(DEFAULT_SEED,), languages=("julia",), kernels=("axpy",))
        shard = spec.partition(1)[0]
        store = VerdictStore(tmp_path / "verdicts")
        store.put(
            ("code", "python", "axpy", "python.numpy"),
            SuggestionVerdict(is_code=True, math_correct=True, method="executed"),
        )
        with Session(seed=DEFAULT_SEED) as session:
            ResultStore(tmp_path / "results").put(shard.entry(), session.run(shard))
        assert store.writes == 1
        assert synced == [], "a store write fsynced"
        queue = FileQueue(tmp_path / "q")
        queue.publish(shard)
        assert synced, "FileQueue.publish no longer goes through write_atomic_json"


# ---------------------------------------------------------------------------
# CLI: graceful degradation
# ---------------------------------------------------------------------------

class TestCliDegradation:
    def test_allow_partial_merges_survivors_with_exit_4(
        self, spec, expected_records, tmp_path, monkeypatch, capsys
    ):
        from repro.harness.cli import main

        monkeypatch.setenv(
            faults.FAULTS_ENV,
            '[{"point": "worker.evaluate", "action": "crash", "match": "-00000-"}]',
        )
        faults.reset()
        args = ["dispatch", "--shards", "4", "--languages", "julia", "--max-attempts", "2"]
        # Without --allow-partial: refuse to merge, point at the flag.
        assert main(args) == 3
        captured = capsys.readouterr()
        assert "quarantined:" in captured.err
        assert "--allow-partial" in captured.err
        # With it: the survivors' merge is written and the exit is degraded.
        out = tmp_path / "partial.json"
        assert main(args + ["--allow-partial", "--json", str(out)]) == 4
        captured = capsys.readouterr()
        assert "DEGRADED 3/4" in captured.out
        assert "InjectedCrash" in captured.err
        written = json.loads(out.read_text())
        assert written == surviving_subset(spec, expected_records, {0})

    def test_allow_partial_names_quarantined_shards_on_stderr(
        self, monkeypatch, capsys
    ):
        """The exit-4 path must name every hole in the merge, not just
        count them: the stderr summary lists the quarantined shard ids."""
        from repro.harness.cli import main

        monkeypatch.setenv(
            faults.FAULTS_ENV,
            '[{"point": "worker.evaluate", "action": "crash", "match": "-00000-"},'
            ' {"point": "worker.evaluate", "action": "crash", "match": "-00012-"}]',
        )
        faults.reset()
        assert (
            main(
                [
                    "dispatch", "--shards", "4", "--languages", "julia",
                    "--max-attempts", "2", "--allow-partial",
                ]
            )
            == 4
        )
        captured = capsys.readouterr()
        assert "quarantined shard(s) missing from the merge" in captured.err
        assert f"s{DEFAULT_SEED}-00000-00006" in captured.err
        assert f"s{DEFAULT_SEED}-00012-00018" in captured.err
        # Surviving shards are not accused.
        assert f"s{DEFAULT_SEED}-00006-00012" not in captured.err
