"""Persistent, cross-process verdict store.

A :class:`VerdictStore` is an on-disk cache of
:class:`~repro.analysis.verdict.SuggestionVerdict`s keyed on
``(code, language, kernel, requested model uid)`` — the exact tuple analysis
is pure in (see :mod:`repro.analysis.analyzer`) — and on the code that
computes them.  It is the layer below the process-wide in-memory verdict
memo: in-memory hits stay free, misses consult the store before paying for
analysis (and, for Python, sandbox execution), and freshly computed
verdicts are written back so *other processes* — process-backend workers,
a later CLI invocation, another machine sharing the directory — never
re-analyze a suggestion this process already judged.

The store mechanics live in :class:`ContentStore`, which is shared with
the shard-level :class:`~repro.dispatch.store.ResultStore`:

* **Content-hashed, code-derived keys.**  Each key is digested (SHA-256
  over the schema version, a digest of the code that computes the value,
  and all key fields) into a content address.  Editing any source the
  value depends on (:func:`~repro.analysis.verdict.verdict_digest`)
  orphans every entry computed before the edit — no version number has to
  be bumped by hand.
* **Append-only segments.**  Where the bytes live is a
  :mod:`repro.cache.backends` concern: local segment files by default (one
  per writing process, indexed by digest on first read), tiered with a
  shared HTTP remote (the ``cache-server`` subcommand) when ``remote=`` or
  ``$REPRO_CACHE_URL`` names one — a fleet of workers then shares every
  verdict any of them computed, read through a local cache.
* **Validated, not durable.**  Writes are flushed but never fsynced.
  Every entry carries its schema, key fields and ``code_sha``, checked on
  read; a torn, lost, corrupt or foreign entry reads as a miss and is
  recomputed — never served as a wrong value.
* **Fail-soft.**  Store I/O errors and unreachable remotes never propagate
  into analysis; the worst case is always "compute it again".
* **Operational surface.**  :meth:`ContentStore.stats` reports entry
  counts, this instance's hit/miss/write traffic and per-backend latency
  counters; :meth:`ContentStore.compact` evicts entries computed by other
  code or past an age bound; ``$REPRO_CACHE_READONLY`` (or
  ``readonly=True``) serves lookups but never writes — the CI knob.

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

from repro.analysis.verdict import SuggestionVerdict, verdict_digest
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

#: Version of the verdict-entry format.  Bump on any change to the digest
#: inputs or the entry payload; old entries then degrade to recompute.
#: Behavior changes to the analyzers/sandbox need no bump: the digest folds
#: in :func:`~repro.analysis.verdict.verdict_digest` of their sources.
#:
#: 2: append-only segments, keys derived from the code.
STORE_SCHEMA = 2

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

    Owns everything the persistent caches have in common — content-addressed
    keying, corrupt-entry dropping, fail-soft writes, hit/miss/write
    counters and the ``stats``/``clear``/``compact`` maintenance surface —
    while delegating byte storage to a :mod:`repro.cache.backends` backend:
    a :class:`~repro.cache.backends.LocalBackend` of segment files at
    ``path``, tiered with a shared :class:`~repro.cache.backends.RemoteBackend`
    when ``remote`` (or ``$REPRO_CACHE_URL``) names a ``cache-server``.
    Subclasses define what a key is (:meth:`digest`), how an entry payload
    is validated back into a value, which code digest tags their entries,
    and their remote namespace; the corruption/versioning guarantees then
    hold for every store built on this core (:class:`VerdictStore` here,
    :class:`repro.dispatch.store.ResultStore` for whole shard payloads).

    ``readonly`` (default: ``$REPRO_CACHE_READONLY``) serves lookups but
    swallows every write — no new entries, no read-through fills, nothing
    created on disk — and makes ``clear``/``compact`` refuse; CI jobs use it
    to guarantee a published cache is consumed verbatim.

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
        self.local = LocalBackend(self.path, readonly=self.readonly)
        if remote is None:
            remote = remote_url_from_env()
        if isinstance(remote, str):
            remote = RemoteBackend(remote, namespace=self.remote_namespace)
        self.remote = remote
        self.backend = self.local if remote is None else TieredBackend(self.local, remote)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        #: Guards the counters so concurrent worker threads count exactly.
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            hits, misses = self.hits, self.misses
        return f"{type(self).__name__}({str(self.path)!r}, hits={hits}, misses={misses})"

    def _schema(self) -> int:
        """The live schema version (read per call so test monkeypatching of
        the module-level constant takes effect)."""
        raise NotImplementedError

    def _code_digest(self) -> str:
        """Digest of the code computing this store's values, as tagged into
        entry payloads; :meth:`compact` evicts entries with any other tag."""
        raise NotImplementedError

    # -- lookups --------------------------------------------------------------
    def _load_entry(self, digest: str, validate) -> object | None:
        """Read and validate one entry; every failure degrades to a miss.

        ``validate`` receives the parsed JSON payload and returns the cached
        value, raising ``ValueError``/``KeyError``/``TypeError`` when the
        payload does not belong to the requested key.  Unparsable,
        schema-mismatched or key-mismatched entries are dropped (a tombstone
        in the local layer only) and reported as misses, so every failure
        mode — including an unreachable remote — degrades to recompute.
        """
        data = self.backend.get(digest)
        if data is None:
            # Absent entry, transient read failure (EIO, stale NFS handle),
            # or the remote is down: a plain miss.  The entry is never
            # dropped on a read error — on a shared store a transient
            # failure must not delete a valid entry for every other reader.
            with self._lock:
                self.misses += 1
            return None
        try:
            value = validate(json.loads(data))
        except (ValueError, KeyError, TypeError):
            # The bytes were read but do not parse/validate: the entry
            # itself is corrupt (old schema, foreign bytes) — drop the
            # local copy so the next put replaces it.
            with self._lock:
                self.misses += 1
            self.backend.discard(digest)
            return None
        with self._lock:
            self.hits += 1
        return value

    def _store_entry(self, digest: str, payload: dict) -> None:
        """Persist one entry (idempotent; failures are swallowed).

        The payload is serialised once to canonical bytes
        (``sort_keys=True`` — stable for byte-identity checks) and appended
        by the backend as one framed record; readers never observe a
        partial record.  In read-only mode this is a no-op.
        """
        if self.readonly or self.backend.exists(digest):
            return
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        if not self.backend.put(digest, data):
            # Full disk / permissions / remote down: the caller must never
            # fail because the cache could not be written.
            return
        with self._lock:
            self.writes += 1

    # -- maintenance ----------------------------------------------------------
    def __len__(self) -> int:
        return self.local.stats()["entries"]

    def stats(self) -> dict:
        """Local entry count/size, this instance's traffic, backend counters."""
        local = self.local.stats()
        with self._lock:
            hits, misses, writes = self.hits, self.misses, self.writes
        return {
            "path": str(self.path),
            "schema": self._schema(),
            "readonly": self.readonly,
            "entries": local["entries"],
            "segments": local["segments"],
            "bytes": local["bytes"],
            "hits": hits,
            "misses": misses,
            "writes": writes,
            "backend": self.backend.counters(),
        }

    def _refuse_readonly(self) -> None:
        if self.readonly:
            raise RuntimeError("store is read-only (REPRO_CACHE_READONLY)")

    def clear(self) -> int:
        """Remove every local segment and schema-1 entry file; returns the
        entries removed.  Local layer only — a shared remote is never
        mass-deleted from a client.  Refuses in read-only mode."""
        self._refuse_readonly()
        return self.local.clear()

    def compact(self, *, max_age: float | None = None, now: float | None = None) -> dict:
        """Rewrite the local segments without entries that can no longer (or
        should no longer) hit.

        Two eviction rules, both safe by the degradation contract (an entry
        removed here at worst recomputes):

        * **Stale code** — the payload's ``"analysis"`` tag differs from the
          live :meth:`_code_digest`.  Such entries are already unreachable
          through :meth:`get` because the key folds the digest in;
          compaction reclaims the dead bytes.  Unparsable entries, and every
          file of the schema-1 fanout layout, are evicted under the same
          rule.
        * **Age** — with ``max_age`` (seconds), entries whose record time is
          older than ``now - max_age``.

        Local layer only; a shared remote is compacted by running this
        against its served namespace directory.  Refuses in read-only mode.
        Returns ``{"removed_stale", "removed_aged", "kept"}``.
        """
        self._refuse_readonly()
        if now is None:
            now = time.time()
        live = self._code_digest()

        def evict(data: bytes, recorded: float) -> str | None:
            try:
                if json.loads(data).get("analysis") != live:
                    return "stale"
            except (ValueError, AttributeError):
                return "stale"
            if max_age is not None and recorded < now - max_age:
                return "aged"
            return None

        counts = self.local.compact(evict)
        return {
            "removed_stale": counts["stale"],
            "removed_aged": counts["aged"],
            "kept": counts["kept"],
        }


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

    def _code_digest(self) -> str:
        return verdict_digest()

    # -- keying ---------------------------------------------------------------
    @staticmethod
    def digest(key: StoreKey) -> str:
        """Content digest of a key.  It folds in the schema and
        :func:`~repro.analysis.verdict.verdict_digest`, so both format
        changes and edits to the analysis code orphan old entries."""
        code, language, kernel, model = key
        head = f"{STORE_SCHEMA}\0{verdict_digest()}\0{language}\0{kernel}\0{model}\0"
        digest = hashlib.sha256(head.encode("utf-8"))
        digest.update(code.encode("utf-8"))
        return digest.hexdigest()

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
            "analysis": verdict_digest(),
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
