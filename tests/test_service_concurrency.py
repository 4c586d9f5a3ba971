"""Concurrency suite for the evaluation service.

Many clients, one server: experiment ids stay isolated per session, each
client's event stream is ordered even while experiments interleave on the
shared worker pool, final ``result`` payloads are byte-identical to
``Session.run`` for the same spec, and the bounded request queue both
refuses overflow explicitly and frees its slot on mid-run cancellation.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import ExperimentSpec, Session
from repro.codex.config import DEFAULT_SEED
from repro.dispatch import faults
from repro.service import protocol
from repro.service.client import ServiceClient, connect
from repro.service.protocol import ServiceError
from repro.service.server import ServerThread

SPEC = dict(seed=DEFAULT_SEED, languages=["julia"], kernels=["axpy", "gemv"])
N_CLIENTS = 4


@pytest.fixture(scope="module")
def expected_records():
    with Session(seed=DEFAULT_SEED) as session:
        results = session.run(
            ExperimentSpec(
                seeds=(DEFAULT_SEED,), languages=("julia",), kernels=("axpy", "gemv")
            )
        )
    return results.to_records()


class TestConcurrentClients:
    def test_overlapping_submissions_stay_isolated_and_identical(self, expected_records):
        """N clients submit the same spec concurrently: distinct experiment
        ids, per-client-ordered streams, byte-identical results."""
        with ServerThread(workers=3, queue_limit=2 * N_CLIENTS) as handle:
            outcomes: list[dict] = [None] * N_CLIENTS
            errors: list[BaseException] = []

            def run_client(slot: int) -> None:
                try:
                    client = connect(port=handle.port)
                    try:
                        experiment = client.submit(shards=4, **SPEC)
                        final = client.wait(experiment)
                        payload = client.result(experiment)
                        outcomes[slot] = {
                            "session": client.session_id,
                            "experiment": experiment,
                            "final": final,
                            "records": payload["records"],
                            "events": list(client.events),
                        }
                    finally:
                        client.close()
                except BaseException as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=run_client, args=(slot,))
                for slot in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors, errors
            assert all(outcome is not None for outcome in outcomes)

        sessions = {outcome["session"] for outcome in outcomes}
        experiments = {outcome["experiment"] for outcome in outcomes}
        assert len(sessions) == N_CLIENTS, "each connection gets its own session"
        assert len(experiments) == N_CLIENTS, "each submission gets its own experiment"

        expected_bytes = json.dumps(expected_records, indent=2, sort_keys=True)
        for outcome in outcomes:
            assert outcome["final"]["state"] == "done"
            # Byte identity with the in-process run, per client.
            assert (
                json.dumps(outcome["records"], indent=2, sort_keys=True)
                == expected_bytes
            )
            self._assert_stream_ordered(outcome)

    @staticmethod
    def _assert_stream_ordered(outcome: dict) -> None:
        """One client's event stream: only its own experiment, progress
        counters strictly increasing, shards in submission order, state
        last."""
        events = outcome["events"]
        assert all(
            params["experiment_id"] == outcome["experiment"] for _, params in events
        ), "a client must never see another session's events"
        progress_done = [p["done"] for m, p in events if m == "progress"]
        assert progress_done == sorted(progress_done)
        assert len(progress_done) == 8  # one per cell
        shard_entries = [p["entry"]["cell_slice"] for m, p in events if m == "shard"]
        assert shard_entries == sorted(shard_entries), "shards arrive in submission order"
        snapshot_cells = [p["snapshot"]["cells"] for m, p in events if m == "shard"]
        assert snapshot_cells == [2, 4, 6, 8], "snapshots grow with the partial merge"
        assert events[-1][0] == "state"
        assert events[-1][1]["state"] == "done"

    def test_sessions_cannot_see_each_others_experiments(self):
        with ServerThread() as handle:
            owner = connect(port=handle.port)
            other = connect(port=handle.port)
            try:
                experiment = owner.submit(**SPEC)
                for method in ("status", "cancel", "result"):
                    with pytest.raises(ServiceError) as excinfo:
                        other.call(method, {"experiment_id": experiment})
                    assert excinfo.value.code == protocol.ERR_UNKNOWN_EXPERIMENT
                # The owner still sees it fine.
                assert owner.wait(experiment)["state"] == "done"
            finally:
                owner.close()
                other.close()


@pytest.fixture()
def slow_shards(monkeypatch):
    """Hold every shard for 50 ms, so an experiment is still running when
    the next request lands even when warm memos make evaluation instant."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.install([{"point": "worker.evaluate", "action": "hang", "arg": 0.05}])
    yield
    faults.reset()


@pytest.mark.usefixtures("slow_shards")
class TestBoundedQueue:
    def test_queue_full_is_explicit_and_cancel_releases_the_slot(self):
        """With one slot and one worker: the second submit is refused with
        queue-full, cancelling the running experiment mid-run frees the
        slot, and the next submit is accepted."""
        with ServerThread(workers=1, queue_limit=1) as handle:
            client = connect(port=handle.port)
            try:
                # Many small shards: cancellation lands at a shard boundary
                # long before the experiment finishes.
                running = client.submit(
                    seed=DEFAULT_SEED, languages=["julia"], shards=12
                )
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(**SPEC)
                assert excinfo.value.code == protocol.ERR_QUEUE_FULL
                assert excinfo.value.data["limit"] == 1

                client.cancel(running)
                final = client.wait(running)
                assert final["state"] == "cancelled"
                assert final["done"] < final["total"], "cancel landed mid-run"

                # Slot released: the queue accepts again, and the new
                # experiment runs to completion.
                accepted = client.submit(**SPEC)
                assert client.wait(accepted)["state"] == "done"
            finally:
                client.close()

    def test_cancelled_queued_experiment_never_runs(self):
        with ServerThread(workers=1, queue_limit=2) as handle:
            client = connect(port=handle.port)
            try:
                running = client.submit(seed=DEFAULT_SEED, languages=["julia"], shards=8)
                queued = client.submit(**SPEC)
                assert client.cancel(queued)["state"] == "cancelled"
                status = client.status(queued)
                assert status["state"] == "cancelled"
                assert status["executed"] == 0 and status["done"] == 0
                client.cancel(running)
                client.wait(running)
            finally:
                client.close()

    def test_cancel_is_idempotent(self):
        with ServerThread() as handle:
            client = connect(port=handle.port)
            try:
                experiment = client.submit(**SPEC)
                client.wait(experiment)
                # Cancelling a finished experiment changes nothing.
                assert client.cancel(experiment)["state"] == "done"
                assert client.result(experiment)["state"] == "done"
            finally:
                client.close()


class TestClientHelper:
    def test_events_buffered_during_calls_are_not_lost(self):
        """Responses and events interleave on one socket; the blocking
        client must surface both."""
        progress_seen = []
        with ServerThread() as handle:
            client = ServiceClient(
                port=handle.port,
                on_event=lambda m, p: progress_seen.append(m),
            )
            with client:
                client.hello()
                experiment = client.submit(**SPEC)
                # Poll status while events stream in: each status call's
                # response is found among buffered notifications.
                while client.status(experiment)["state"] not in (
                    "done", "degraded", "cancelled", "failed",
                ):
                    pass
                payload = client.result(experiment)
        assert payload["state"] == "done"
        assert progress_seen.count("progress") == 8
        assert progress_seen[-1] == "state"
