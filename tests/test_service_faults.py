"""Chaos suite for the evaluation service.

Reuses the dispatch layer's deterministic fault injector
(:mod:`repro.dispatch.faults`) against the long-lived server: clients
vanishing mid-stream, worker crashes degrading (never wedging) an
experiment, graceful shutdown persisting in-flight work, and the headline
durability claim — kill the server, restart it on the same result store,
re-submit the same spec, and **zero shards re-execute**.
"""

from __future__ import annotations

import itertools
import time

import pytest

from repro.api import ExperimentSpec, Session
from repro.codex.config import DEFAULT_SEED
from repro.dispatch import DispatchReport, ResultStore, ShardDriver, faults
from repro.service.client import connect
from repro.service.server import ServerThread

SPEC = dict(seed=DEFAULT_SEED, languages=["julia"])
N_CELLS = 24


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


def surviving_subset(spec, expected_records, shards, dead_starts):
    """Expected records of every shard whose start was not quarantined."""
    subset = []
    for shard in spec.partition(shards):
        if shard.start not in dead_starts:
            subset.extend(expected_records[shard.start : shard.stop])
    return subset


class TestCrashContainment:
    def test_transient_crash_retries_to_identity(self, expected_records):
        """Two injected crashes are absorbed by the retry budget; the final
        records are still byte-identical to the clean run."""
        faults.install([{"point": "worker.evaluate", "action": "crash", "times": 2}])
        with ServerThread(max_attempts=3) as handle:
            client = connect(port=handle.port)
            try:
                experiment = client.submit(shards=4, **SPEC)
                assert client.wait(experiment)["state"] == "done"
                assert client.result(experiment)["records"] == expected_records
            finally:
                client.close()

    def test_poison_shard_degrades_the_experiment(self, spec, expected_records):
        """A shard that crashes on every attempt is quarantined: the
        experiment finishes DEGRADED with the surviving cells, the
        quarantine is named in status/result/events, and the server keeps
        serving."""
        faults.install(
            [{"point": "worker.evaluate", "action": "crash", "match": "-00000-"}]
        )
        with ServerThread(max_attempts=2) as handle:
            client = connect(port=handle.port)
            try:
                experiment = client.submit(shards=4, **SPEC)
                final = client.wait(experiment)
                assert final["state"] == "degraded"

                status = client.status(experiment)
                assert status["state"] == "degraded"
                assert status["executed"] == 3
                [quarantined] = status["quarantined"]
                assert quarantined["shard"] == f"s{DEFAULT_SEED}-00000-00006"
                assert quarantined["error"] == "InjectedCrash"
                assert quarantined["attempts"] == 2

                payload = client.result(experiment)
                assert payload["state"] == "degraded"
                assert payload["records"] == surviving_subset(
                    spec, expected_records, 4, {0}
                )

                shard_events = [p for m, p in client.events if m == "shard"]
                assert [event["source"] for event in shard_events] == [
                    "quarantined", "executed", "executed", "executed",
                ]
                assert shard_events[0]["failure"]["error"] == "InjectedCrash"

                # The quarantine stayed contained: the same server still
                # completes a clean experiment (the fault only matches the
                # first shard of a 4-way split).
                faults.reset()
                retry = client.submit(shards=4, **SPEC)
                assert client.wait(retry)["state"] == "done"
            finally:
                client.close()


    def test_done_counts_merged_cells_after_a_quarantine(
        self, spec, expected_records, monkeypatch
    ):
        """The last cell raises on every attempt: its shard's discarded
        attempts stream progress, but ``done`` in ``shard``, ``state`` and
        ``status`` counts merged cells, never more than ``total``."""
        from repro.core.evaluator import PromptEvaluator

        poison = spec.cells()[-1]
        evaluate_cell = PromptEvaluator.evaluate_cell

        def evaluate_or_raise(self, cell):
            if cell == poison:
                raise RuntimeError("poisoned cell")
            return evaluate_cell(self, cell)

        monkeypatch.setattr(PromptEvaluator, "evaluate_cell", evaluate_or_raise)
        with ServerThread(max_attempts=3) as handle:
            client = connect(port=handle.port)
            try:
                experiment = client.submit(shards=4, **SPEC)
                final = client.wait(experiment)
                status = client.status(experiment)
                records = client.result(experiment)["records"]
            finally:
                client.close()
        assert final["state"] == "degraded"
        assert final["done"] == status["done"] == len(records) == 18
        assert records == surviving_subset(spec, expected_records, 4, {18})
        shard_events = [params for method, params in client.events if method == "shard"]
        assert [event["done"] for event in shard_events] == [
            event["snapshot"]["cells"] for event in shard_events
        ]
        # Progress counts every evaluated cell: 18 merged, then 5 per
        # discarded attempt of the last shard.
        assert sum(method == "progress" for method, _ in client.events) == 18 + 3 * 5

    def test_done_never_exceeds_total_while_a_shard_retries(self, spec, monkeypatch):
        """The last cell raises on every attempt: each retry re-reports the
        shard's first five cells, but ``done`` in ``progress`` and in a
        ``status`` polled throughout counts each cell once."""
        from repro.core.evaluator import PromptEvaluator

        poison = spec.cells()[-1]
        evaluate_cell = PromptEvaluator.evaluate_cell

        def evaluate_or_raise(self, cell):
            if cell == poison:
                raise RuntimeError("poisoned cell")
            return evaluate_cell(self, cell)

        monkeypatch.setattr(PromptEvaluator, "evaluate_cell", evaluate_or_raise)
        polled: list[int] = []
        with ServerThread(max_attempts=3) as handle:
            client = connect(port=handle.port)
            try:
                experiment = client.submit(shards=4, **SPEC)
                while True:
                    status = client.status(experiment)
                    polled.append(status["done"])
                    if status["state"] not in ("queued", "running"):
                        break
                final = client.wait(experiment)
            finally:
                client.close()
        assert final["state"] == "degraded" and final["done"] == 18
        progress = [params["done"] for method, params in client.events if method == "progress"]
        # 18 merged cells, 5 of the last shard, then two retries that
        # re-report those 5 without counting them again.
        assert progress == [*range(1, 24), *[23] * 10]
        assert max(polled) <= N_CELLS


class TestHalfWarmStore:
    def test_store_hits_and_executed_shards_share_one_stream(
        self, spec, expected_records, tmp_path
    ):
        """Shards 0-1 come from the store, 2-3 are evaluated: one ordered
        progress count, a shard event per shard, records as Session.run."""
        store = ResultStore(tmp_path / "shards")
        # A dispatch stopped after two shards leaves them in the store.
        stream = ShardDriver(spec, shards=4, result_store=store).settle(
            DispatchReport(spec=spec, shards=4)
        )
        for _ in itertools.islice(stream, 2):
            pass
        stream.close()
        with ServerThread(result_store=store) as handle:
            client = connect(port=handle.port)
            try:
                experiment = client.submit(shards=4, **SPEC)
                final = client.wait(experiment)
                records = client.result(experiment)["records"]
            finally:
                client.close()
        assert final["state"] == "done"
        assert final["skipped"] == 2 and final["executed"] == 2
        events = client.events
        shard_events = [params for method, params in events if method == "shard"]
        assert [event["source"] for event in shard_events] == [
            "store", "store", "executed", "executed",
        ]
        assert [params["done"] for method, params in events if method == "progress"] == list(
            range(1, N_CELLS + 1)
        )
        assert [event["snapshot"]["cells"] for event in shard_events] == [6, 12, 18, 24]
        assert [method for method, _ in events] == (["progress"] * 6 + ["shard"]) * 4 + ["state"]
        assert records == expected_records


class TestClientDisconnect:
    def test_disconnect_mid_stream_does_not_kill_the_experiment(self, spec, tmp_path):
        """The submitting client vanishes mid-stream: events are dropped,
        but evaluation continues and every shard is persisted."""
        store = ResultStore(tmp_path / "shards")
        with ServerThread(result_store=store) as handle:
            client = connect(port=handle.port)
            client.submit(shards=8, **SPEC)
            # Read until the first shard event, then vanish without goodbye.
            while not any(method == "shard" for method, _ in client.events):
                client._dispatch_event(client.read_message())
            client.close()

            # The orphaned experiment runs to completion: all 8 shards land
            # in the store.
            entries = [shard.entry() for shard in spec.partition(8)]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if all(store.get(entry) is not None for entry in entries):
                    break
                time.sleep(0.02)
            assert all(store.get(entry) is not None for entry in entries)

            # And the server is still healthy: a new client's identical
            # submit is served entirely from the store.
            fresh = connect(port=handle.port)
            try:
                experiment = fresh.submit(shards=8, **SPEC)
                assert fresh.wait(experiment)["state"] == "done"
                status = fresh.status(experiment)
                assert status["executed"] == 0
                assert status["skipped"] == 8
            finally:
                fresh.close()


class TestKillRestartResume:
    def test_restart_resumes_with_zero_reexecuted_shards(
        self, expected_records, tmp_path
    ):
        """The acceptance criterion: kill the server, restart it on the
        same result store, re-submit the same spec — zero shards
        re-execute and the records are byte-identical."""
        store_path = tmp_path / "shards"
        first = ServerThread(result_store=store_path).start()
        try:
            client = connect(port=first.port)
            try:
                experiment = client.submit(shards=6, **SPEC)
                assert client.wait(experiment)["state"] == "done"
                status = client.status(experiment)
                assert status["executed"] == 6 and status["skipped"] == 0
                records_before = client.result(experiment)["records"]
            finally:
                client.close()
        finally:
            first.stop()  # hard stop: the in-process kill -9

        second = ServerThread(result_store=store_path).start()
        try:
            client = connect(port=second.port)
            try:
                experiment = client.submit(shards=6, **SPEC)
                assert client.wait(experiment)["state"] == "done"
                status = client.status(experiment)
                assert status["executed"] == 0, "a restart must re-execute nothing"
                assert status["skipped"] == 6
                records_after = client.result(experiment)["records"]
            finally:
                client.close()
        finally:
            second.stop()

        assert records_before == records_after == expected_records

    def test_graceful_shutdown_persists_in_flight_shards(self, tmp_path):
        """`shutdown` mid-run: the running experiment stops at the next
        shard boundary with everything completed already persisted, the
        terminal event still reaches the client, and a restarted server
        resumes from exactly those shards."""
        store_path = tmp_path / "shards"
        # Slow every shard down so the shutdown deterministically lands
        # mid-run (each evaluation sleeps 50ms first).
        faults.install([{"point": "worker.evaluate", "action": "hang", "arg": 0.05}])
        first = ServerThread(result_store=store_path).start()
        client = connect(port=first.port)
        try:
            experiment = client.submit(shards=12, **SPEC)
            while not any(method == "shard" for method, _ in client.events):
                client._dispatch_event(client.read_message())
            assert client.shutdown()["stopping"] is True
            final = client.wait(experiment)
            assert final["state"] == "cancelled"
            done_shards = final["shards_done"]
            assert 0 < done_shards < 12, "shutdown landed mid-run"
        finally:
            client.close()
        assert first.join(timeout=60), "a graceful shutdown exits on its own"

        faults.reset()
        second = ServerThread(result_store=store_path).start()
        try:
            client = connect(port=second.port)
            try:
                resumed = client.submit(shards=12, **SPEC)
                assert client.wait(resumed)["state"] == "done"
                status = client.status(resumed)
                assert status["skipped"] == done_shards, (
                    "every shard completed before the shutdown must resume warm"
                )
                assert status["executed"] == 12 - done_shards
            finally:
                client.close()
        finally:
            second.stop()

    def test_hard_stop_abandons_the_running_experiment(self, tmp_path):
        """`stop()` mid-run: the running experiment stops at the next shard
        boundary instead of evaluating every remaining shard first."""
        store = ResultStore(tmp_path / "shards")
        # Hold every shard 0.2s, so the 12 shards take ~2.4s to evaluate.
        faults.install([{"point": "worker.evaluate", "action": "hang", "arg": 0.2}])
        with ServerThread(result_store=store) as handle:
            client = connect(port=handle.port)
            try:
                client.submit(shards=12, **SPEC)
                while not any(method == "shard" for method, _ in client.events):
                    client._dispatch_event(client.read_message())
                start = time.monotonic()
                handle.stop()
                stopped = time.monotonic() - start
            finally:
                client.close()
        assert stopped < 1.0
        # The shard stored at the stop, and at most the one in flight.
        assert len(store) <= 2

    def test_submit_during_shutdown_is_refused(self):
        from repro.service import protocol
        from repro.service.protocol import ServiceError

        with ServerThread() as handle:
            client = connect(port=handle.port)
            try:
                client.shutdown()
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(**SPEC)
                assert excinfo.value.code == protocol.ERR_SHUTTING_DOWN
            except ConnectionError:
                # Equally acceptable: the drain already closed the socket.
                pass
            finally:
                client.close()
