"""Tests for the pluggable cache backends, the cache server, and the
operational surface layered on :class:`~repro.analysis.store.ContentStore`.

Covers the tentpole guarantees of the backend seam:

* the stale-index regression: an external ``clear()``/compaction can
  never suppress re-persistence — a miss on a segment that is gone or
  corrupt forgets the digest, so the next ``put`` writes again;
* ``stats()``/``__repr__`` read the traffic counters under ``_lock``;
* read-only mode (``$REPRO_CACHE_READONLY``) serves lookups but never
  writes, and ``clear``/``compact`` refuse;
* ``compact()`` evicts exactly the entries computed by other code, aged
  and legacy entries, and keeps the live ones;
* the shared remote tier: a ``cache-server`` populated by one store warms
  another with a cold local disk (zero sandbox executions, byte-identical
  records), namespaces stay disjoint, corrupt served entries degrade to
  recompute, and an unreachable server degrades to recompute without
  wedging the run (circuit breaker);
* the extended ``cache`` CLI: full stats dict, ``--result-store``
  targeting, ``compact``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.analysis import store as store_module
from repro.analysis.analyzer import clear_verdict_memo
from repro.analysis.store import VerdictStore, default_store_path
from repro.analysis.verdict import SuggestionVerdict
from repro.api import Session
from repro.cache.backends import LocalBackend, RemoteBackend, TieredBackend
from repro.cache.server import CacheServer
from repro.codex.config import DEFAULT_SEED


def _verdict() -> SuggestionVerdict:
    return SuggestionVerdict(
        is_code=True,
        detected_models=("python.numpy",),
        uses_requested_model=True,
        math_correct=True,
        method="executed",
    )


def _key(code: str = "def axpy(a, x, y):\n    return a * x + y\n") -> tuple[str, str, str]:
    return (code, "python", "axpy")


@pytest.fixture()
def server(tmp_path):
    with CacheServer(tmp_path / "served", port=0).start() as srv:
        yield srv


# ---------------------------------------------------------------------------
# The stale-index regression: external clears cannot suppress re-persistence
# ---------------------------------------------------------------------------

class TestKnownInvalidation:
    def test_external_clear_cannot_suppress_represistence(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        assert len(store) == 1
        # Another process empties the directory behind this instance's back,
        # deleting the segment this instance still holds open for appends.
        VerdictStore(tmp_path).clear()
        assert len(store) == 0
        assert store.get(_key()) is None  # the miss must forget the digest...
        store.put(_key(), _verdict())  # ...so this re-persists, in a new segment
        assert len(store) == 1
        assert VerdictStore(tmp_path).get(_key()) == _verdict()

    def test_own_compaction_cannot_suppress_represistence(self, tmp_path, monkeypatch):
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        monkeypatch.setattr(store_module, "verdict_digest", lambda: "e" * 64)
        # Everything on disk is now computed by other code; compaction drops it.
        assert store.compact() == {"removed_stale": 1, "removed_aged": 0, "kept": 0}
        store.put(_key(), _verdict())  # compaction reset the index -> re-persists
        assert len(store) == 1
        assert VerdictStore(tmp_path).get(_key()) == _verdict()

    def test_corrupt_entry_miss_also_forgets_the_digest(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        [segment] = (tmp_path / "segments").glob("*.seg")
        data = segment.read_bytes()
        segment.write_bytes(data[:-15] + b"not json at all")
        assert store.get(_key()) is None  # corrupt -> forgotten
        store.put(_key(), _verdict())
        assert store.get(_key()) == _verdict()
        assert VerdictStore(tmp_path).get(_key()) == _verdict()


# ---------------------------------------------------------------------------
# Counter consistency
# ---------------------------------------------------------------------------

class _SpyLock:
    """A lock that counts acquisitions (delegates to a real lock)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestLockedCounters:
    def test_stats_reads_counters_under_the_lock(self, tmp_path):
        store = VerdictStore(tmp_path)
        store._lock = _SpyLock()
        store.stats()
        assert store._lock.acquisitions == 1

    def test_repr_reads_counters_under_the_lock(self, tmp_path):
        store = VerdictStore(tmp_path)
        store._lock = _SpyLock()
        repr(store)
        assert store._lock.acquisitions == 1


# ---------------------------------------------------------------------------
# Read-only mode
# ---------------------------------------------------------------------------

class TestReadonly:
    def test_readonly_store_never_writes(self, tmp_path):
        VerdictStore(tmp_path).put(_key(), _verdict())
        ro = VerdictStore(tmp_path, readonly=True)
        assert ro.get(_key()) == _verdict()  # lookups still served
        ro.put(_key("fresh code"), _verdict())
        assert ro.writes == 0
        assert len(ro) == 1  # nothing new on disk
        assert ro.stats()["readonly"] is True

    def test_readonly_from_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_READONLY", "1")
        ro = VerdictStore(tmp_path)
        assert ro.readonly
        ro.put(_key(), _verdict())
        assert len(ro) == 0
        monkeypatch.setenv("REPRO_CACHE_READONLY", "0")
        assert not VerdictStore(tmp_path).readonly

    def test_readonly_refuses_clear_and_compact(self, tmp_path):
        ro = VerdictStore(tmp_path, readonly=True)
        with pytest.raises(RuntimeError):
            ro.clear()
        with pytest.raises(RuntimeError):
            ro.compact()

    def test_readonly_store_does_not_create_the_directory(self, tmp_path):
        missing = tmp_path / "never-created"
        ro = VerdictStore(missing, readonly=True)
        assert not missing.exists()
        assert ro.get(_key()) is None  # plain miss, no error


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------

class TestCompact:
    def test_compact_evicts_only_stale_generation_entries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "verdict_digest", lambda: "0" * 64)
        VerdictStore(tmp_path).put(_key("old generation"), _verdict())
        monkeypatch.undo()
        store = VerdictStore(tmp_path)
        store.put(_key("live generation"), _verdict())
        assert len(store) == 2
        assert store.compact() == {"removed_stale": 1, "removed_aged": 0, "kept": 1}
        assert store.stats()["segments"] == 1  # the live records, rewritten
        assert store.get(_key("live generation")) == _verdict()

    def test_compact_evicts_aged_entries(self, tmp_path, monkeypatch):
        import time

        now = 1_000_000.0
        store = VerdictStore(tmp_path)
        monkeypatch.setattr(time, "time", lambda: now - 5000)
        store.put(_key("ancient"), _verdict())
        monkeypatch.setattr(time, "time", lambda: now - 10)
        store.put(_key("recent"), _verdict())
        monkeypatch.undo()
        outcome = store.compact(max_age=3600, now=now)
        assert outcome == {"removed_stale": 0, "removed_aged": 1, "kept": 1}
        assert store.get(_key("recent")) == _verdict()
        assert store.get(_key("ancient")) is None
        # The kept record keeps its record time: a later compaction ages it too.
        assert store.compact(max_age=5, now=now)["removed_aged"] == 1

    def test_untagged_legacy_entries_count_as_stale(self, tmp_path):
        store = VerdictStore(tmp_path)
        store.put(_key(), _verdict())
        backend = LocalBackend(tmp_path)
        digest = VerdictStore.digest(_key())
        payload = json.loads(backend.get(digest))
        del payload["analysis"]  # an entry written before the tag existed
        backend.put(digest, json.dumps(payload).encode())
        assert store.compact() == {"removed_stale": 1, "removed_aged": 0, "kept": 0}


# ---------------------------------------------------------------------------
# The cache server and the remote backend
# ---------------------------------------------------------------------------

class TestCacheServer:
    def test_remote_backend_round_trip(self, server):
        remote = RemoteBackend(server.url, namespace="verdicts")
        digest = "ab" * 32
        assert remote.get(digest) is None  # 404: a plain miss...
        assert remote.available()  # ...that must not trip the breaker
        assert remote.put(digest, b'{"v": 1}')
        assert remote.get(digest) == b'{"v": 1}'
        assert remote.exists(digest)
        remote.discard(digest)
        assert remote.get(digest) is None
        counters = remote.counters()
        assert counters["kind"] == "remote"
        assert counters["get_hits"] == 1 and counters["puts"] == 1

    def test_namespaces_are_disjoint(self, server):
        digest = "cd" * 32
        RemoteBackend(server.url, namespace="verdicts").put(digest, b'{"ns": "verdicts"}')
        assert RemoteBackend(server.url, namespace="results").get(digest) is None

    def test_server_rejects_malformed_requests(self, server):
        for url in (
            f"{server.url}/v1/verdicts/not-a-digest",
            f"{server.url}/v1/UPPER/{'ab' * 32}",
            f"{server.url}/unversioned",
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url)
            assert excinfo.value.code == 400
            excinfo.value.close()

    def test_server_rejects_non_json_bodies(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/verdicts/{'ef' * 32}", data=b"not json", method="PUT"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_readonly_server_refuses_writes(self, tmp_path):
        digest = "12" * 32
        with CacheServer(tmp_path / "ro", port=0, readonly=True).start() as srv:
            remote = RemoteBackend(srv.url, namespace="verdicts")
            assert not remote.put(digest, b'{"v": 1}')  # 403 -> skipped write
            assert remote.available()  # a 4xx is the server talking, not down

    def test_server_stats_endpoint(self, server):
        RemoteBackend(server.url, namespace="verdicts").put("ab" * 32, b'{"v": 1}')
        with urllib.request.urlopen(f"{server.url}/v1/stats") as response:
            stats = json.loads(response.read())
        assert stats["namespaces"]["verdicts"]["entries"] == 1
        assert stats["requests"]["puts"] == 1

    def test_unreachable_server_trips_the_circuit_breaker(self):
        remote = RemoteBackend("http://127.0.0.1:9", timeout=0.5, cooldown=60.0)
        assert remote.get("ab" * 32) is None  # refused connection -> miss
        assert not remote.available()  # breaker open: no per-entry stalls
        assert not remote.put("ab" * 32, b"{}")  # short-circuits locally
        assert remote.counters()["errors"] == 1  # the put never went out

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            RemoteBackend("ftp://example.invalid/cache")


# ---------------------------------------------------------------------------
# Tiered stores: warm-from-remote, degradation, self-healing
# ---------------------------------------------------------------------------

class TestTieredStore:
    def test_put_populates_local_and_remote(self, tmp_path, server):
        store = VerdictStore(tmp_path / "local", remote=server.url)
        assert isinstance(store.backend, TieredBackend)
        store.put(_key(), _verdict())
        assert len(store) == 1  # local copy
        digest = VerdictStore.digest(_key())
        assert LocalBackend(server.root / "verdicts").exists(digest)  # served copy

    def test_cold_local_disk_warms_from_the_remote(self, tmp_path, server):
        VerdictStore(tmp_path / "machine-a", remote=server.url).put(_key(), _verdict())
        fresh = VerdictStore(tmp_path / "machine-b", remote=server.url)
        assert fresh.get(_key()) == _verdict()  # served by the remote
        assert len(fresh) == 1  # ...and read through into the local layer
        assert fresh.get(_key()) == _verdict()
        assert fresh.backend.remote.counters()["gets"] == 1  # second hit was local

    def test_readonly_warm_from_remote_does_not_fill_local(self, tmp_path, server):
        VerdictStore(tmp_path / "writer", remote=server.url).put(_key(), _verdict())
        local = tmp_path / "reader"
        local.mkdir()
        ro = VerdictStore(local, remote=server.url, readonly=True)
        assert ro.get(_key()) == _verdict()
        assert len(ro) == 0  # no read-through fill in read-only mode

    def test_corrupt_remote_entry_degrades_to_recompute(self, tmp_path, server):
        digest = VerdictStore.digest(_key())
        # Valid JSON, wrong key: the fleet's cache somehow serves garbage.
        LocalBackend(server.root / "verdicts").put(digest, b'{"schema": 1, "foreign": true}')
        store = VerdictStore(tmp_path / "local", remote=server.url)
        assert store.get(_key()) is None  # validation rejects it -> miss
        assert len(store) == 0  # the read-through fill was dropped again
        store.put(_key(), _verdict())  # recompute overwrites both layers
        assert store.get(_key()) == _verdict()
        served = RemoteBackend(server.url, namespace="verdicts").get(digest)
        assert json.loads(served)["kernel"] == "axpy"

    def test_remote_down_degrades_to_local_only(self, tmp_path):
        store = VerdictStore(tmp_path / "local", remote="http://127.0.0.1:9")
        store.backend.remote.timeout = 0.5
        store.put(_key(), _verdict())  # remote put fails; local still lands
        assert store.get(_key()) == _verdict()
        assert VerdictStore(tmp_path / "local").get(_key()) == _verdict()

    def test_result_store_uses_its_own_namespace(self, tmp_path, server):
        from repro.dispatch.store import ResultStore

        verdicts = VerdictStore(tmp_path / "v", remote=server.url)
        results = ResultStore(tmp_path / "r", remote=server.url)
        assert verdicts.backend.remote.namespace == "verdicts"
        assert results.backend.remote.namespace == "results"

    def test_coerce_accepts_a_cache_server_url(self, tmp_path, monkeypatch, server):
        from repro.dispatch.store import ResultStore

        monkeypatch.setenv("REPRO_VERDICT_STORE", str(tmp_path / "v"))
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "r"))
        vstore = VerdictStore.coerce(server.url)
        assert vstore.path == default_store_path()
        assert isinstance(vstore.backend, TieredBackend)
        rstore = ResultStore.coerce(server.url)
        assert rstore.path == tmp_path / "r"
        assert rstore.backend.remote.namespace == "results"

    def test_remote_tier_from_the_environment(self, tmp_path, monkeypatch, server):
        monkeypatch.setenv("REPRO_CACHE_URL", str(server.url))
        store = VerdictStore(tmp_path / "local")
        assert isinstance(store.backend, TieredBackend)
        monkeypatch.delenv("REPRO_CACHE_URL")
        assert isinstance(VerdictStore(tmp_path / "local").backend, LocalBackend)


# ---------------------------------------------------------------------------
# End to end: sessions sharing a remote cache
# ---------------------------------------------------------------------------

class TestSessionWarmFromRemote:
    def test_cold_local_store_zero_executions_and_identical_records(
        self, tmp_path, monkeypatch, server
    ):
        monkeypatch.setenv("REPRO_CACHE_URL", str(server.url))
        clear_verdict_memo()
        try:
            with Session(seed=DEFAULT_SEED, verdict_store=tmp_path / "machine-a") as cold:
                cold_records = cold.language_results("python").to_records()
                assert cold.sandbox_executions > 0
            clear_verdict_memo()  # a different machine: empty memo...
            with Session(seed=DEFAULT_SEED, verdict_store=tmp_path / "machine-b") as warm:
                # ...empty local disk, warm shared remote.
                assert warm.language_results("python").to_records() == cold_records
                assert warm.sandbox_executions == 0
                assert warm.store_hits > 0
        finally:
            clear_verdict_memo()

    def test_unreachable_remote_still_completes_correctly(self, tmp_path, monkeypatch):
        clear_verdict_memo()
        try:
            with Session(seed=DEFAULT_SEED, verdict_store=tmp_path / "baseline") as plain:
                expected = plain.language_results("python").to_records()
            clear_verdict_memo()
            monkeypatch.setenv("REPRO_CACHE_URL", "http://127.0.0.1:9")
            with Session(seed=DEFAULT_SEED, verdict_store=tmp_path / "degraded") as degraded:
                store = degraded.verdict_store
                store.backend.remote.timeout = 0.5
                assert degraded.language_results("python").to_records() == expected
                assert degraded.sandbox_executions > 0  # recomputed, not wedged
        finally:
            clear_verdict_memo()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCliCacheExtended:
    def test_cache_stats_prints_the_full_stats_dict(self, tmp_path, capsys):
        from repro.harness.cli import main

        store_arg = str(tmp_path / "store")
        VerdictStore(store_arg).put(_key(), _verdict())
        assert main(["--verdict-store", store_arg, "cache", "stats"]) == 0
        out = capsys.readouterr().out
        for field in ("hits", "misses", "writes", "readonly", "backend"):
            assert field in out, field
        assert "local:" in out

    def test_cache_result_store_stats_clear_compact(self, tmp_path, capsys):
        from repro.api import ExperimentSpec
        from repro.dispatch.store import ResultStore
        from repro.harness.cli import main

        store_dir = tmp_path / "results"
        spec = ExperimentSpec(seeds=(7,), languages=("julia",))
        shard = spec.shard(0, 2)
        with Session(seed=7) as session:
            ResultStore(store_dir).put(shard.entry(), session.run(shard))

        assert main(["cache", "stats", "--result-store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "result store" in out and "entries  1" in out
        [written] = (store_dir / "segments").glob("*.seg")
        assert main(["cache", "compact", "--result-store", str(store_dir)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert len(ResultStore(store_dir)) == 1  # live generation kept...
        [compacted] = (store_dir / "segments").glob("*.seg")
        assert compacted != written  # ...rewritten into a new segment
        assert main(["cache", "clear", "--result-store", str(store_dir)]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert len(ResultStore(store_dir)) == 0
        assert not list((store_dir / "segments").glob("*.seg"))

    def test_cache_compact_requires_an_explicit_store(self, tmp_path, monkeypatch):
        from repro.harness.cli import main

        monkeypatch.setenv("REPRO_VERDICT_STORE", str(tmp_path / "default-store"))
        VerdictStore(tmp_path / "default-store").put(_key(), _verdict())
        with pytest.raises(SystemExit):
            main(["cache", "compact"])  # forgotten flag must not evict the default store
        assert len(VerdictStore(tmp_path / "default-store")) == 1

    def test_cache_clear_refuses_in_readonly_mode(self, tmp_path, monkeypatch):
        from repro.harness.cli import main

        store_arg = str(tmp_path / "store")
        VerdictStore(store_arg).put(_key(), _verdict())
        monkeypatch.setenv("REPRO_CACHE_READONLY", "1")
        with pytest.raises(SystemExit):
            main(["--verdict-store", store_arg, "cache", "clear"])
        monkeypatch.delenv("REPRO_CACHE_READONLY")
        assert len(VerdictStore(store_arg)) == 1


class TestLazyRemoteImport:
    def test_cli_import_loads_no_http_stack(self):
        """Only a remote cache needs urllib.request; importing the CLI must
        not pay for it (nor for http.client, ssl and email behind it)."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        probe = (
            "import sys, repro.harness.cli; "
            "print(sorted(m for m in ('urllib.request', 'http.client', 'ssl', 'email') "
            "if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"
