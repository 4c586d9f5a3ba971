"""Tests for the shard-level result store and streamed incremental merging.

Mirrors ``tests/test_verdict_store.py`` one layer up: a
:class:`repro.dispatch.store.ResultStore` must round-trip whole shard
payloads through its segment files and degrade every failure mode —
truncation, corruption, foreign entries, schema bumps, code edits — to
re-evaluation, never to wrong records; and the streamed
:class:`repro.api.IncrementalMerge` must produce byte-identical merged
records whatever order shards complete in.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import ExperimentSpec, IncrementalMerge, Session
from repro.cache.backends import LocalBackend
from repro.codex.config import CodexConfig, DEFAULT_SEED
from repro.core.runner import ResultSet
from repro.dispatch import store as result_store_module
from repro.dispatch.store import ResultStore, default_result_store_path


@pytest.fixture(scope="module")
def spec() -> ExperimentSpec:
    return ExperimentSpec(seeds=(DEFAULT_SEED,), languages=("julia",))


@pytest.fixture(scope="module")
def evaluated_shards(spec):
    """Both halves of the julia grid, evaluated once for the module."""
    with Session(seed=DEFAULT_SEED) as session:
        return [(shard, session.run(shard)) for shard in spec.partition(2)]


@pytest.fixture(scope="module")
def unsharded_records(spec):
    with Session(seed=DEFAULT_SEED) as session:
        return session.run(spec).to_records()


# ---------------------------------------------------------------------------
# Round trip and keying
# ---------------------------------------------------------------------------

class TestResultStoreRoundTrip:
    def test_put_get_round_trip(self, tmp_path, evaluated_shards):
        shard, results = evaluated_shards[0]
        store = ResultStore(tmp_path)
        assert store.get(shard.entry()) is None
        store.put(shard.entry(), results)
        loaded = store.get(shard.entry())
        assert loaded.to_records() == results.to_records()
        assert loaded.seed == results.seed
        assert len(store) == 1
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_get_returns_fresh_sets(self, tmp_path, evaluated_shards):
        shard, results = evaluated_shards[0]
        store = ResultStore(tmp_path)
        store.put(shard.entry(), results)
        first = store.get(shard.entry())
        second = store.get(shard.entry())
        assert first is not second
        assert first.to_records() == second.to_records()

    def test_distinct_shard_identities_do_not_collide(self, tmp_path, spec, evaluated_shards):
        import dataclasses

        shard, results = evaluated_shards[0]
        store = ResultStore(tmp_path)
        store.put(shard.entry(), results)
        entry = shard.entry()
        other_slice = spec.partition(2)[1].entry()
        for other in (
            other_slice,
            dataclasses.replace(entry, seed=entry.seed + 1),
            dataclasses.replace(entry, fingerprint="f" * 16),
            dataclasses.replace(entry, grid="g" * 16),
            dataclasses.replace(entry, total_cells=entry.total_cells + 1),
        ):
            assert store.get(other) is None, other

    def test_put_is_idempotent_across_instances(self, tmp_path, evaluated_shards):
        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)
        second = ResultStore(tmp_path)
        second.put(shard.entry(), results)
        assert second.writes == 0  # existing entry detected, not rewritten
        assert len(second) == 1

    def test_put_rejects_mismatched_payloads(self, tmp_path, evaluated_shards):
        (shard, results), (_, other_results) = evaluated_shards
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.put(shard.entry(), ResultSet(seed=shard.seed))  # wrong count
        short = ResultSet(seed=shard.seed + 1)
        for result in results:
            short.add(result)
        with pytest.raises(ValueError):
            store.put(shard.entry(), short)  # wrong seed

    def test_default_store_path_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env-store"))
        assert default_result_store_path() == tmp_path / "env-store"

    def test_coerce(self, tmp_path, monkeypatch):
        assert ResultStore.coerce(None) is None
        assert ResultStore.coerce(False) is None
        store = ResultStore(tmp_path)
        assert ResultStore.coerce(store) is store
        assert ResultStore.coerce(tmp_path).path == tmp_path
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "auto"))
        assert ResultStore.coerce(True).path == tmp_path / "auto"

    def test_stats_and_clear(self, tmp_path, evaluated_shards):
        store = ResultStore(tmp_path)
        for shard, results in evaluated_shards:
            store.put(shard.entry(), results)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["segments"] == 1  # one writing process, one segment
        [segment] = (tmp_path / "segments").glob("*.seg")
        assert stats["bytes"] == segment.stat().st_size > 0
        assert stats["schema"] == result_store_module.RESULT_STORE_SCHEMA
        assert store.clear() == 2
        assert len(store) == 0
        assert not list((tmp_path / "segments").glob("*.seg"))
        assert ResultStore(tmp_path).get(evaluated_shards[0][0].entry()) is None


# ---------------------------------------------------------------------------
# Corruption, versioning and races: always degrade to re-evaluation
# ---------------------------------------------------------------------------

class TestResultStoreDegradation:
    def _segment(self, tmp_path):
        [segment] = list((tmp_path / "segments").glob("*.seg"))
        return segment

    def _supersede(self, tmp_path, entry, edit):
        """Append a frame that replaces ``entry``'s payload with
        ``edit(payload)``: a valid frame the store must reject."""
        backend = LocalBackend(tmp_path)
        digest = ResultStore.digest(entry)
        payload = json.loads(backend.get(digest))
        edit(payload)
        assert backend.put(digest, json.dumps(payload).encode())

    def test_truncated_entry_is_a_miss_and_dropped(self, tmp_path, evaluated_shards):
        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)
        segment = self._segment(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-40])  # a writer killed mid-frame
        fresh = ResultStore(tmp_path)
        assert fresh.get(shard.entry()) is None  # the torn frame is not indexed
        fresh.put(shard.entry(), results)  # ...so the re-evaluation is appended again
        assert ResultStore(tmp_path).get(shard.entry()).to_records() == results.to_records()

    def test_non_json_garbage_is_a_miss(self, tmp_path, evaluated_shards):
        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)
        segment = self._segment(tmp_path)
        data = segment.read_bytes()
        garbage = b"\x00\x01 not json"
        segment.write_bytes(data[: -len(garbage)] + garbage)  # bytes rotted in place
        assert ResultStore(tmp_path).get(shard.entry()) is None

    def test_entry_for_a_different_shard_is_rejected(self, tmp_path, evaluated_shards):
        # Simulate a digest collision / foreign frame: valid JSON, wrong slice.
        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)

        def shift(payload):
            start, stop = payload["entry"]["cell_slice"]
            payload["entry"]["cell_slice"] = [start + 1, stop + 1]

        self._supersede(tmp_path, shard.entry(), shift)
        assert ResultStore(tmp_path).get(shard.entry()) is None

    def test_record_count_mismatch_is_rejected(self, tmp_path, evaluated_shards):
        # A payload that lost records (partial writer) must never feed a
        # short shard into a merge.
        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)
        self._supersede(
            tmp_path, shard.entry(), lambda payload: payload["records"].pop()
        )
        assert ResultStore(tmp_path).get(shard.entry()) is None

    def test_transient_read_error_is_a_miss_but_keeps_the_entry(
        self, tmp_path, monkeypatch, evaluated_shards
    ):
        import os

        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)
        segment = self._segment(tmp_path)

        def flaky_pread(*args, **kwargs):
            raise OSError("Input/output error")

        reader = ResultStore(tmp_path)
        monkeypatch.setattr(os, "pread", flaky_pread)
        assert reader.get(shard.entry()) is None  # transient failure -> plain miss
        monkeypatch.undo()
        assert segment.exists()  # ... the shared entry was NOT destroyed
        assert reader.get(shard.entry()).to_records() == results.to_records()

    def test_schema_version_bump_invalidates_old_entries(
        self, tmp_path, monkeypatch, evaluated_shards
    ):
        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)
        assert ResultStore(tmp_path).get(shard.entry()) is not None
        monkeypatch.setattr(
            result_store_module,
            "RESULT_STORE_SCHEMA",
            result_store_module.RESULT_STORE_SCHEMA + 1,
        )
        bumped = ResultStore(tmp_path)
        assert bumped.get(shard.entry()) is None  # old entry unreachable -> re-evaluate
        bumped.put(shard.entry(), results)
        assert bumped.get(shard.entry()).to_records() == results.to_records()

    def test_analysis_version_bump_invalidates_old_entries(
        self, tmp_path, monkeypatch, evaluated_shards
    ):
        # Edits to the evaluation code must orphan stale shard payloads, the
        # same way they orphan stale verdicts: records computed by older
        # code must never short-circuit a newer driver.
        shard, results = evaluated_shards[0]
        ResultStore(tmp_path).put(shard.entry(), results)
        monkeypatch.setattr(result_store_module, "record_digest", lambda: "e" * 64)
        current = ResultStore(tmp_path)
        assert current.get(shard.entry()) is None
        current.put(shard.entry(), results)
        assert current.get(shard.entry()) is not None
        assert len(current) == 2  # old entry orphaned, not misread

    def test_put_fails_soft_when_the_directory_is_unwritable(
        self, tmp_path, monkeypatch, evaluated_shards
    ):
        from pathlib import Path

        shard, results = evaluated_shards[0]
        store = ResultStore(tmp_path)

        def broken_mkdir(self, *args, **kwargs):
            raise OSError("read-only file system")

        monkeypatch.setattr(Path, "mkdir", broken_mkdir)
        store.put(shard.entry(), results)  # dispatch must not fail on cache IO
        assert store.writes == 0

    def test_racing_writers_on_the_same_shard_never_corrupt(self, tmp_path, evaluated_shards):
        shard, results = evaluated_shards[0]
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def writer() -> None:
            try:
                barrier.wait()
                # A fresh instance has a fresh index, so both threads
                # really race the same entry.
                ResultStore(tmp_path).put(shard.entry(), results)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert ResultStore(tmp_path).get(shard.entry()).to_records() == results.to_records()
        assert not list(tmp_path.rglob("*.tmp"))  # no leaked temp files


# ---------------------------------------------------------------------------
# Streamed partial merges: any completion order, one canonical result
# ---------------------------------------------------------------------------

class TestIncrementalMerge:
    def _parts(self, spec, n=4):
        with Session(seed=DEFAULT_SEED) as session:
            return [(shard.entry(), session.run(shard)) for shard in spec.partition(n)]

    def test_merge_order_invariance(self, spec, unsharded_records):
        parts = self._parts(spec)
        orders = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [2, 0, 3, 1],
            [1, 3, 0, 2],
        ]
        for order in orders:
            merge = IncrementalMerge()
            for position in order:
                merge.add(*parts[position])
            assert merge.is_complete()
            merged = merge.merged()[DEFAULT_SEED]
            assert merged.to_records() == unsharded_records, order

    def test_partial_view_is_canonical_at_every_step(self, spec, unsharded_records):
        parts = self._parts(spec)
        merge = IncrementalMerge()
        done: list[tuple[int, int]] = []
        for entry, results in reversed(parts):
            merge.add(entry, results)
            done.append((entry.start, entry.stop))
            partial = merge.partial()[DEFAULT_SEED]
            expected = [
                record
                for (start, stop) in sorted(done)
                for record in unsharded_records[start:stop]
            ]
            assert partial.to_records() == expected
        assert merge.cells_merged == len(unsharded_records)

    def test_merged_refuses_incomplete_sets(self, spec):
        parts = self._parts(spec)
        merge = IncrementalMerge()
        merge.add(*parts[0])
        merge.add(*parts[2])
        assert not merge.is_complete()
        with pytest.raises(ValueError):
            merge.merged()
        assert len(merge) == 2

    def test_duplicate_shard_rejected_at_add_time(self, spec):
        parts = self._parts(spec)
        merge = IncrementalMerge()
        merge.add(*parts[0])
        with pytest.raises(ValueError):
            merge.add(*parts[0])

    def test_foreign_fingerprint_rejected_at_add_time(self, spec):
        import dataclasses

        parts = self._parts(spec)
        merge = IncrementalMerge()
        merge.add(*parts[0])
        entry, results = parts[1]
        with pytest.raises(ValueError, match="fingerprint"):
            merge.add(dataclasses.replace(entry, fingerprint="f" * 16), results)
        with pytest.raises(ValueError, match="grid"):
            merge.add(dataclasses.replace(entry, grid="g" * 16), results)
        with pytest.raises(ValueError, match="declares"):
            merge.add(entry, ResultSet(seed=entry.seed))

    def test_multi_seed_streams_merge_per_seed(self):
        spec = ExperimentSpec(
            seeds=(7, 11), languages=("julia",), kernels=("axpy",), config=CodexConfig()
        )
        with Session() as session:
            parts = [(shard.entry(), session.run(shard)) for shard in spec.partition(2)]
            expected = {
                seed: results.to_records() for seed, results in session.run(spec).items()
            }
        merge = IncrementalMerge()
        for entry, results in reversed(parts):
            merge.add(entry, results)
        merged = merge.merged()
        assert set(merged) == {7, 11}
        for seed in (7, 11):
            assert merged[seed].to_records() == expected[seed]
