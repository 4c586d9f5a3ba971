"""Persistent, cross-process verdict store.

A :class:`VerdictStore` is an on-disk cache of
:class:`~repro.analysis.verdict.SuggestionVerdict`s keyed on
``(code, language, kernel, requested model uid)`` — the exact tuple analysis
is pure in (see :mod:`repro.analysis.analyzer`).  It is the durable layer
below the process-wide in-memory verdict memo: in-memory hits stay free,
misses consult the store before paying for analysis (and, for Python,
sandbox execution), and freshly computed verdicts are written back so *other
processes* — process-backend workers, a later CLI invocation, another
machine sharing the directory — never re-analyze a suggestion this process
already judged.

The durable-layer mechanics live in :class:`ContentStore`, which is shared
with the shard-level :class:`~repro.dispatch.store.ResultStore`:

* **Content-hashed entries.**  Each key is digested (SHA-256 over the schema
  version and all key fields) into a content address, so lookups are a
  single ``open`` and the store scales to hundreds of thousands of entries.
* **Pluggable backends.**  Where the bytes live is a
  :mod:`repro.cache.backends` concern: a local fanout directory by default,
  tiered with a shared HTTP remote (the ``cache-server`` subcommand) when
  ``remote=`` or ``$REPRO_CACHE_URL`` names one — a fleet of workers then
  shares every verdict any of them computed, read through a local cache.
* **Versioned schema.**  Entries carry their schema version both in the
  digest and in the payload; bumping the version orphans old entries, which
  degrade to recompute — never to a wrong value.
* **Atomic, durable, race-safe writes.**  Entries are published through the
  shared fsync-before-replace writer (:func:`repro.atomicio.write_atomic_bytes`);
  two writers racing on one key both write the same deterministic value and
  the last rename wins.  Corrupt or truncated entries (killed writer,
  foreign bytes) are detected on read, dropped, and recomputed.
* **Fail-soft.**  Store I/O errors and unreachable remotes never propagate
  into analysis; the worst case is always "compute it again".
* **Operational surface.**  :meth:`ContentStore.stats` reports entry
  counts, this instance's hit/miss/write traffic and per-backend latency
  counters; :meth:`ContentStore.compact` evicts entries from a stale
  analysis generation or past an age bound; ``$REPRO_CACHE_READONLY``
  (or ``readonly=True``) serves lookups but never writes — the CI knob.

Example:

>>> import tempfile
>>> from repro.analysis.store import VerdictStore
>>> from repro.analysis.verdict import SuggestionVerdict
>>> tmp = tempfile.TemporaryDirectory()
>>> store = VerdictStore(tmp.name)
>>> key = ("def axpy(a, x, y):\\n    return a * x + y\\n", "python", "axpy", "python.numpy")
>>> store.get(key) is None  # empty store: a miss
True
>>> store.put(key, SuggestionVerdict(is_code=True, math_correct=True, method="executed"))
>>> store.get(key).math_correct  # a later process gets the cached verdict
True
>>> len(store), store.hits, store.misses
(1, 1, 1)
>>> tmp.cleanup()
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

from repro.analysis.verdict import ANALYSIS_VERSION, SuggestionVerdict
from repro.cache.backends import (
    LocalBackend,
    RemoteBackend,
    TieredBackend,
    env_flag,
    remote_url_from_env,
)
from repro.cache.backends import ENV_READONLY as _ENV_READONLY

__all__ = [
    "STORE_SCHEMA",
    "ContentStore",
    "StoreKey",
    "VerdictStore",
    "default_store_path",
]

#: Version of the on-disk verdict-entry format.  Bump on any change to the
#: digest inputs or the entry payload; old entries then degrade to recompute.
#: Behavior changes to the analyzers/sandbox are covered separately by
#: :data:`repro.analysis.verdict.ANALYSIS_VERSION`, which is also folded
#: into every entry digest.
STORE_SCHEMA = 1

#: Store key: (code, language, kernel, requested model uid).
StoreKey = tuple[str, str, str, str]


def default_store_path() -> Path:
    """The default on-disk location of the shared verdict store.

    ``$REPRO_VERDICT_STORE`` overrides everything; otherwise the store lives
    under the XDG cache directory (``~/.cache/repro-hpc-codex/verdicts``).
    """
    return _default_cache_path("REPRO_VERDICT_STORE", "verdicts")


def _default_cache_path(env_var: str, subdir: str) -> Path:
    env = os.environ.get(env_var)
    if env:
        return Path(env).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home).expanduser() if cache_home else Path.home() / ".cache"
    return base / "repro-hpc-codex" / subdir


class ContentStore:
    """Shared core of the on-disk content-addressed stores.

    Owns everything the durable caches have in common — content-addressed
    keying, corrupt-entry dropping, fail-soft writes, hit/miss/write
    counters and the ``stats``/``clear``/``compact`` maintenance surface —
    while delegating byte storage to a :mod:`repro.cache.backends` backend:
    a :class:`~repro.cache.backends.LocalBackend` fanout directory at
    ``path``, tiered with a shared :class:`~repro.cache.backends.RemoteBackend`
    when ``remote`` (or ``$REPRO_CACHE_URL``) names a ``cache-server``.
    Subclasses define what a key is (:meth:`digest`), how an entry payload
    is validated back into a value, and their remote namespace; the
    corruption/versioning guarantees then hold for every store built on
    this core (:class:`VerdictStore` here,
    :class:`repro.dispatch.store.ResultStore` for whole shard payloads).

    ``readonly`` (default: ``$REPRO_CACHE_READONLY``) serves lookups but
    swallows every write — no new entries, no read-through fills — and makes
    ``clear``/``compact`` refuse; CI jobs use it to guarantee a published
    cache is consumed verbatim.

    ``hits``/``misses``/``writes`` count this instance's traffic only; the
    backend storage itself is shared state.
    """

    #: Namespace separating this store's digests from other stores sharing
    #: one ``cache-server`` (subclasses override).
    remote_namespace = "cache"

    def __init__(
        self,
        path: str | Path,
        *,
        remote: "RemoteBackend | str | None" = None,
        readonly: bool | None = None,
    ) -> None:
        self.readonly = env_flag(_ENV_READONLY) if readonly is None else bool(readonly)
        self.path = Path(path)
        local = LocalBackend(self.path, create=not self.readonly)
        if remote is None:
            remote = remote_url_from_env()
        if isinstance(remote, str):
            remote = RemoteBackend(remote, namespace=self.remote_namespace)
        self.remote = remote
        self.backend = (
            local if remote is None else TieredBackend(local, remote, readonly=self.readonly)
        )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Digests known to exist in the backend (avoids re-stat/re-write
        #: churn).  A *positive* cache only, and only trustworthy until the
        #: next miss: any miss drops the digest again so an external
        #: ``clear()``/compaction cannot permanently suppress re-persistence.
        self._known: set[str] = set()
        #: Guards the counters/_known so concurrent worker threads count exactly.
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            hits, misses = self.hits, self.misses
        return f"{type(self).__name__}({str(self.path)!r}, hits={hits}, misses={misses})"

    def _schema(self) -> int:
        """The live schema version (read per call so test monkeypatching of
        the module-level constant takes effect)."""
        raise NotImplementedError

    def _analysis_version(self) -> int:
        """The live analysis generation, as tagged into entry payloads;
        :meth:`compact` evicts entries from any other generation."""
        raise NotImplementedError

    def _entry_path(self, digest: str) -> Path:
        return self.path / digest[:2] / f"{digest}.json"

    # -- lookups --------------------------------------------------------------
    def _load_entry(self, digest: str, validate) -> object | None:
        """Read and validate one entry; every failure degrades to a miss.

        ``validate`` receives the parsed JSON payload and returns the cached
        value, raising ``ValueError``/``KeyError``/``TypeError`` when the
        payload does not belong to the requested key.  Truncated, unparsable,
        schema-mismatched or key-mismatched entries are dropped (best-effort,
        local layer only) and reported as misses, so every failure mode —
        including an unreachable remote — degrades to recompute.

        Every miss also forgets the digest in ``_known``: the entry may have
        been cleared or evicted externally since this instance last saw it,
        and a stale positive would make :meth:`_store_entry` skip the
        re-persist forever.
        """
        data = self.backend.get(digest)
        if data is None:
            # Absent entry, transient read failure (EIO, stale NFS handle),
            # or the remote is down: a plain miss.  The entry is never
            # destroyed on a read error — on a shared store a transient
            # failure must not delete a valid entry for every other reader.
            with self._lock:
                self.misses += 1
                self._known.discard(digest)
            return None
        try:
            value = validate(json.loads(data))
        except (ValueError, KeyError, TypeError):
            # The bytes were read but do not parse/validate: the entry
            # itself is corrupt (truncated writer, old schema, foreign
            # file) — drop the local copy so the next writer replaces it.
            with self._lock:
                self.misses += 1
                self._known.discard(digest)
            self.backend.discard(digest)
            return None
        with self._lock:
            self.hits += 1
            self._known.add(digest)
        return value

    def _store_entry(self, digest: str, payload: dict) -> None:
        """Persist one entry (idempotent; failures are swallowed).

        The payload is serialised once to canonical bytes
        (``sort_keys=True`` — stable for byte-identity checks) and published
        by the backend through the shared fsync-before-replace writer:
        readers never observe partial writes, racing writers cannot
        interleave, and a power loss cannot leave an empty-but-renamed
        entry behind.  In read-only mode this is a no-op.
        """
        if self.readonly:
            return
        with self._lock:
            if digest in self._known:
                return
        if self.backend.exists(digest):
            with self._lock:
                self._known.add(digest)
            return
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        if not self.backend.put(digest, data):
            # Full disk / permissions / remote down: the caller must never
            # fail because the cache could not be written.
            return
        with self._lock:
            self._known.add(digest)
            self.writes += 1

    # -- maintenance ----------------------------------------------------------
    def _entry_files(self):
        return self.path.glob("??/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_files())

    def stats(self) -> dict:
        """Local entry count/size, this instance's traffic, backend counters."""
        entries = 0
        size = 0
        for entry in self._entry_files():
            entries += 1
            try:
                size += entry.stat().st_size
            except OSError:  # pragma: no cover - concurrent clear
                pass
        with self._lock:
            hits, misses, writes = self.hits, self.misses, self.writes
        return {
            "path": str(self.path),
            "schema": self._schema(),
            "readonly": self.readonly,
            "entries": entries,
            "bytes": size,
            "hits": hits,
            "misses": misses,
            "writes": writes,
            "backend": self.backend.counters(),
        }

    def clear(self) -> int:
        """Remove every local entry (and leftover temp file); returns entries
        removed.  Local layer only — a shared remote is never mass-deleted
        from a client.  Refuses in read-only mode."""
        if self.readonly:
            raise RuntimeError("store is read-only (REPRO_CACHE_READONLY)")
        removed = 0
        for entry in self._entry_files():
            try:
                entry.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        for leftover in self.path.glob("??/.*.tmp"):
            try:
                leftover.unlink()
            except OSError:  # pragma: no cover - concurrent clear
                pass
        with self._lock:
            self._known.clear()
        return removed

    def compact(self, *, max_age: float | None = None, now: float | None = None) -> dict:
        """Evict local entries that can no longer (or should no longer) hit.

        Two eviction rules, both safe by the degradation contract (an entry
        removed here at worst recomputes):

        * **Stale analysis generation** — the payload's ``"analysis"`` tag
          differs from the live :meth:`_analysis_version` (entries written
          before the tag existed count as stale).  Such entries are already
          unreachable through :meth:`get` because the digest folds the
          version in; compaction reclaims the dead bytes.  Unparsable
          entries are evicted under the same rule.
        * **Age** — with ``max_age`` (seconds), entries whose mtime is older
          than ``now - max_age``.

        Local layer only; a shared remote is compacted by running this
        against its served directory.  Refuses in read-only mode.  Returns
        ``{"removed_stale", "removed_aged", "kept"}``.
        """
        if self.readonly:
            raise RuntimeError("store is read-only (REPRO_CACHE_READONLY)")
        if now is None:
            now = time.time()
        live = self._analysis_version()
        removed_stale = 0
        removed_aged = 0
        kept = 0
        for entry in self._entry_files():
            stale = False
            try:
                payload = json.loads(entry.read_bytes())
                stale = payload.get("analysis") != live
            except (OSError, ValueError, TypeError, AttributeError):
                stale = True
            aged = False
            if not stale and max_age is not None:
                try:
                    aged = entry.stat().st_mtime < now - max_age
                except OSError:  # pragma: no cover - concurrent clear
                    continue
            if not (stale or aged):
                kept += 1
                continue
            try:
                entry.unlink()
            except OSError:  # pragma: no cover - concurrent clear
                continue
            removed_stale += stale
            removed_aged += not stale
        # Everything this instance "knew" may just have been evicted; the
        # next put re-checks the backend (and re-persists on a miss).
        with self._lock:
            self._known.clear()
        return {"removed_stale": removed_stale, "removed_aged": removed_aged, "kept": kept}


class VerdictStore(ContentStore):
    """On-disk verdict cache, safe for concurrent readers and writers.

    Parameters
    ----------
    path:
        Directory holding the local entries (created if missing).  Any
        number of processes may share it.
    remote:
        Optional shared ``cache-server`` URL (or a prebuilt
        :class:`~repro.cache.backends.RemoteBackend`); defaults to
        ``$REPRO_CACHE_URL`` so subprocess workers rebuilt from a bare path
        inherit the remote tier.
    readonly:
        Serve lookups but never write; defaults to ``$REPRO_CACHE_READONLY``.
    """

    remote_namespace = "verdicts"

    @classmethod
    def coerce(cls, value: "VerdictStore | str | Path | bool | None") -> "VerdictStore | None":
        """Normalise every accepted store argument to a store (or ``None``).

        ``None``/``False`` → no store; ``True`` → a store at
        :func:`default_store_path`; an ``http(s)://`` URL → a store at the
        default path tiered with that remote; a path → a store there; a
        store → itself.  The single construction point for
        Session/runner/analyzer wiring.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls(default_store_path())
        if isinstance(value, cls):
            return value
        if isinstance(value, str) and value.startswith(("http://", "https://")):
            return cls(default_store_path(), remote=value)
        return cls(value)

    def _schema(self) -> int:
        return STORE_SCHEMA

    def _analysis_version(self) -> int:
        return ANALYSIS_VERSION

    # -- keying ---------------------------------------------------------------
    @staticmethod
    def digest(key: StoreKey) -> str:
        """Content digest of a key (schema- and analysis-versioned, so both
        format changes and analyzer behavior changes orphan old entries)."""
        code, language, kernel, model = key
        payload = json.dumps([STORE_SCHEMA, ANALYSIS_VERSION, code, language, kernel, model])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- lookups --------------------------------------------------------------
    def get(self, key: StoreKey) -> SuggestionVerdict | None:
        """The stored verdict for ``key``, or ``None`` (miss / corrupt entry)."""

        def validate(payload: dict) -> SuggestionVerdict:
            if payload["schema"] != STORE_SCHEMA:
                raise ValueError(f"schema {payload['schema']} != {STORE_SCHEMA}")
            recorded = (payload["language"], payload["kernel"], payload["model"])
            if recorded != key[1:] or payload["code_sha"] != self._code_sha(key[0]):
                raise ValueError("entry does not match the requested key")
            return SuggestionVerdict.from_payload(payload["verdict"])

        return self._load_entry(self.digest(key), validate)

    def put(self, key: StoreKey, verdict: SuggestionVerdict) -> None:
        """Persist a verdict (idempotent, atomic, fail-soft)."""
        payload = {
            "schema": STORE_SCHEMA,
            "analysis": ANALYSIS_VERSION,
            "language": key[1],
            "kernel": key[2],
            "model": key[3],
            "code_sha": self._code_sha(key[0]),
            "verdict": verdict.to_payload(),
        }
        self._store_entry(self.digest(key), payload)

    @staticmethod
    def _code_sha(code: str) -> str:
        return hashlib.sha256(code.encode("utf-8")).hexdigest()
