"""Pluggable storage backends for the content-addressed stores.

:class:`~repro.analysis.store.ContentStore` (the shared core of the
verdict and shard-result stores) keeps its bytes in one of three backends:

* :class:`LocalBackend` — append-only segment files in a local directory:
  each writing process appends framed records to its own segment, and a
  reader indexes every segment by digest on first use.  Writes are flushed
  but never fsynced, because a cache entry must be atomic and validated,
  not durable.  The ``cache-server`` stores each namespace the same way.
* :class:`RemoteBackend` — a shared HTTP cache (the ``cache-server`` CLI
  subcommand, :mod:`repro.cache.server`): content-addressed
  ``GET``/``PUT``/``DELETE`` of opaque JSON documents under
  ``/v1/<namespace>/<digest>``.  A fleet of ``dispatch-worker`` hosts and
  long-lived ``serve`` processes pointed at one server share every verdict
  and shard payload any of them ever computed.
* :class:`TieredBackend` — a local read-through cache in front of a remote:
  reads try the local segments first, fall through to the remote, and fill
  the local layer on a remote hit; writes go to both.

Every backend is **fail-soft** by construction: a missing entry, a
truncated read, an unreachable server or a full disk is reported as a miss
(``get() -> None``) or a skipped write (``put() -> False``) — never an
exception into the evaluation path.  The remote backend additionally trips
a cooldown circuit breaker after a transport failure so a dead server costs
one timeout, not one per lookup.

Backends move **opaque bytes**; keying, schema/versioning and payload
validation stay in the stores.  All backends count their traffic
(``counters()``: operation counts, error counts, cumulative latency) for
``cache stats``.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from collections import Counter
from pathlib import Path
from typing import Callable

__all__ = [
    "ENV_READONLY",
    "ENV_REMOTE_URL",
    "LocalBackend",
    "RemoteBackend",
    "TieredBackend",
    "env_flag",
    "remote_url_from_env",
]

#: Environment variable naming the shared remote cache server
#: (``http://host:port``).  Read by every :class:`ContentStore` whose
#: constructor was not given an explicit ``remote=``, so process-backend
#: workers, ``dispatch-worker`` hosts and the ``serve`` service — which all
#: rebuild stores from a bare path — inherit the remote tier automatically.
ENV_REMOTE_URL = "REPRO_CACHE_URL"

#: Environment variable putting every store into read-only mode: lookups
#: are served, nothing is ever written (no entries, no read-through fills),
#: and ``clear``/``compact`` refuse.  The CI knob.
ENV_READONLY = "REPRO_CACHE_READONLY"


#: Segment frame header: magic, raw SHA-256 digest, record time (seconds
#: since the epoch), payload length, payload CRC-32.  Little-endian, 52 bytes.
_FRAME = struct.Struct("<4s32sdII")
_MAGIC = b"RSG1"


def env_flag(name: str) -> bool:
    """Truthiness of an environment flag (``1``/``true``/``yes``/...)."""
    return os.environ.get(name, "").strip().lower() not in ("", "0", "false", "no")


def remote_url_from_env() -> str | None:
    """The shared-cache URL from ``$REPRO_CACHE_URL``, or ``None``."""
    return os.environ.get(ENV_REMOTE_URL) or None


class _BackendBase:
    """Counter plumbing shared by the concrete backends."""

    kind = "?"

    def __init__(self) -> None:
        self._counter_lock = threading.Lock()
        self._gets = 0
        self._get_hits = 0
        self._puts = 0
        self._errors = 0
        self._seconds = 0.0

    def _record(self, op: str, started: float, *, hit: bool = False, error: bool = False) -> None:
        elapsed = time.perf_counter() - started
        with self._counter_lock:
            self._seconds += elapsed
            if op == "get":
                self._gets += 1
                self._get_hits += hit
            elif op == "put":
                self._puts += 1
            self._errors += error

    def counters(self) -> dict:
        """This backend's traffic: op counts, errors, cumulative latency."""
        with self._counter_lock:
            return {
                "kind": self.kind,
                "gets": self._gets,
                "get_hits": self._get_hits,
                "puts": self._puts,
                "errors": self._errors,
                "seconds": round(self._seconds, 6),
            }


class LocalBackend(_BackendBase):
    """Append-only segment files under ``<path>/segments``.

    **Layout.**  Each writing process appends framed records to its own
    segment, ``<pid>-<token>.seg``, opened on the process's first ``put``;
    a forked child opens its own segment and never writes through its
    parent's handle.  A frame is a :data:`_FRAME` header (magic, raw
    digest, record time, payload length, payload CRC-32) followed by the
    payload.  A zero-length payload is a *tombstone*: ``discard`` appends
    one, so a dropped digest stays absent in every process until the next
    ``put``.

    **Index.**  The first ``get``, ``exists`` or ``stats`` scans every
    segment into an in-memory ``digest -> location`` index.  A scan stops
    reading a segment at its first torn or malformed frame.  The last
    frame for a digest wins: within one segment by position, across
    segments by record time.  Segments that appear later are not rescanned
    on a miss, because a miss only costs a recompute; ``stats`` rescans.

    **Writes** are flushed (one ``os.write`` per frame, no user-space
    buffer) but never fsynced: an entry is atomic and validated, not
    durable.  A process that exits between puts leaves every finished
    record readable; a crash mid-frame leaves a torn tail that readers
    skip.  Appends, like index updates, are taken under a lock, because
    one store may serve many threads.

    **Reads** open the segment per lookup.  A segment that is gone
    (cleared or compacted away by another process) or a record whose CRC
    no longer matches is a miss that forgets the digest, so the next
    ``put`` persists it again; a transient read error is a plain miss that
    keeps the entry.

    A ``readonly`` backend never creates anything on disk: ``put`` is
    refused, and ``discard`` only drops the digest from this process's
    index.
    """

    kind = "local"

    def __init__(self, path: str | Path, *, readonly: bool = False) -> None:
        super().__init__()
        self.path = Path(path)
        self.segments = self.path / "segments"
        self.readonly = bool(readonly)
        #: Guards the index and the writer.
        self._lock = threading.Lock()
        #: raw digest -> (segment path, payload offset, length, crc, record time);
        #: ``None`` until the first scan.
        self._index: dict[bytes, tuple[str, int, int, int, float]] | None = None
        self._writer: int | None = None
        self._writer_path = ""
        self._writer_pid = 0

    # -- segments -------------------------------------------------------------
    @staticmethod
    def _scan_segment(index: dict, path: str) -> None:
        """Index every whole, well-formed frame of one segment."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:  # removed since the listing, or unreadable: skip it
            return
        position, end = 0, len(data)
        while position + _FRAME.size <= end:
            magic, raw, stamp, length, crc = _FRAME.unpack_from(data, position)
            start = position + _FRAME.size
            if magic != _MAGIC or start + length > end:
                break
            previous = index.get(raw)
            if previous is None or previous[0] == path or stamp >= previous[4]:
                index[raw] = (path, start, length, crc, stamp)
            position = start + length

    def _scan(self) -> tuple[list[str], dict]:
        """The current segments and a fresh index over them."""
        try:
            names = sorted(os.listdir(self.segments))
        except OSError:  # no segments yet
            names = []
        paths = [os.path.join(self.segments, name) for name in names if name.endswith(".seg")]
        index: dict = {}
        for path in paths:
            self._scan_segment(index, path)
        return paths, index

    def _locate(self, raw: bytes) -> tuple | None:
        with self._lock:
            if self._index is None:
                self._index = self._scan()[1]
            return self._index.get(raw)

    def _forget(self, raw: bytes, location: tuple) -> None:
        with self._lock:
            if self._index is not None and self._index.get(raw) == location:
                del self._index[raw]

    def _read(self, location: tuple) -> bytes | None:
        """One record's payload; ``b""`` when it is gone or corrupt, ``None``
        on a transient read error."""
        path, offset, length, crc, _ = location
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return b""
        except OSError:
            return None
        try:
            data = os.pread(fd, length, offset)
        except OSError:
            return None
        finally:
            os.close(fd)
        if len(data) != length or zlib.crc32(data) != crc:
            return b""
        return data

    def _append(self, raw: bytes, data: bytes) -> tuple:
        """Append one frame to this process's segment (caller holds the lock)."""
        pid = os.getpid()
        if self._writer is not None and (
            self._writer_pid != pid or os.fstat(self._writer).st_nlink == 0
        ):
            # A forked child, or the segment was cleared/compacted away:
            # drop the handle (a child only closes its own copy of it).
            self._close_writer()
        if self._writer is None:
            self.segments.mkdir(parents=True, exist_ok=True)
            path = self.segments / f"{pid}-{os.urandom(4).hex()}.seg"
            flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND
            self._writer = os.open(path, flags, 0o644)
            self._writer_path, self._writer_pid = str(path), pid
        stamp = time.time()
        crc = zlib.crc32(data)
        frame = _FRAME.pack(_MAGIC, raw, stamp, len(data), crc) + data
        try:
            written = os.write(self._writer, frame)
            if written != len(frame):
                raise OSError(f"short write: {written} of {len(frame)} bytes")
        except OSError:
            # The segment may now end in a torn frame; readers stop there,
            # and this process continues in a fresh segment.
            self._close_writer()
            raise
        end = os.lseek(self._writer, 0, os.SEEK_CUR)
        return (self._writer_path, end - len(data), len(data), crc, stamp)

    def _close_writer(self) -> None:
        if self._writer is not None:
            try:
                os.close(self._writer)
            except OSError:  # pragma: no cover - already closed
                pass
        self._writer = None

    def _legacy_files(self) -> list[Path]:
        """Entries and temp files of the schema-1 fanout layout."""
        return [*self.path.glob("??/*.json"), *self.path.glob("??/.*.tmp")]

    def _remove(self, paths) -> None:
        for path in paths:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - concurrent removal
                pass
        for fanout in self.path.glob("??"):
            try:
                fanout.rmdir()
            except OSError:  # not empty, or not a directory
                pass

    # -- the backend API ------------------------------------------------------
    def get(self, digest: str) -> bytes | None:
        started = time.perf_counter()
        raw = bytes.fromhex(digest)
        location = self._locate(raw)
        data = None
        if location is not None and location[2]:
            data = self._read(location)
            if data == b"":
                self._forget(raw, location)
                data = None
        self._record("get", started, hit=data is not None)
        return data

    def put(self, digest: str, data: bytes) -> bool:
        if self.readonly or not data:
            return False
        started = time.perf_counter()
        raw = bytes.fromhex(digest)
        try:
            with self._lock:
                location = self._append(raw, data)
                if self._index is not None:
                    self._index[raw] = location
        except OSError:
            # Full disk / permissions / store directory gone: the caller
            # must never fail because the cache could not be written.
            self._record("put", started, error=True)
            return False
        self._record("put", started)
        return True

    def exists(self, digest: str) -> bool:
        raw = bytes.fromhex(digest)
        location = self._locate(raw)
        if location is None or not location[2]:
            return False
        if os.path.exists(location[0]):
            return True
        self._forget(raw, location)
        return False

    def discard(self, digest: str) -> None:
        raw = bytes.fromhex(digest)
        with self._lock:
            if self._index is not None:
                self._index.pop(raw, None)
            if self.readonly:
                return
            try:
                self._append(raw, b"")
            except OSError:
                pass

    # -- maintenance ----------------------------------------------------------
    def stats(self) -> dict:
        """Rescan the segments: distinct live digests, segment count and bytes."""
        paths, index = self._scan()
        with self._lock:
            self._index = index
        size = 0
        for path in paths:
            try:
                size += os.path.getsize(path)
            except OSError:  # pragma: no cover - concurrent removal
                pass
        entries = sum(1 for location in index.values() if location[2])
        return {"entries": entries, "segments": len(paths), "bytes": size}

    def clear(self) -> int:
        """Remove every segment and legacy entry; returns the live entries
        removed (legacy files count one each)."""
        with self._lock:
            paths, index = self._scan()
            legacy = self._legacy_files()
            self._close_writer()
            self._remove([*paths, *self.segments.glob(".*.tmp"), *legacy])
            self._index = None
        return sum(1 for location in index.values() if location[2]) + sum(
            path.suffix == ".json" for path in legacy
        )

    def compact(self, evict: Callable[[bytes, float], str | None]) -> Counter:
        """Rewrite the records ``evict`` keeps into one new segment.

        ``evict(payload, record_time)`` returns the reason a live record
        goes (``"stale"``, ``"aged"``) or ``None`` to keep it.  Unreadable
        records and schema-1 fanout files count as ``"stale"``.  The kept
        records land in one new segment, published by rename; then the
        segments read and the legacy files are deleted.  Returns the counts
        per reason plus ``"kept"``.
        """
        counts: Counter = Counter()
        with self._lock:
            paths, index = self._scan()
            frames = []
            for raw, location in sorted(index.items(), key=lambda item: (item[1][4], item[0])):
                if not location[2]:
                    continue
                data = self._read(location)
                reason = evict(data, location[4]) if data else "stale"
                if reason is not None:
                    counts[reason] += 1
                    continue
                frames.append(_FRAME.pack(_MAGIC, raw, location[4], len(data), location[3]) + data)
            legacy = self._legacy_files()
            counts["stale"] += sum(path.suffix == ".json" for path in legacy)
            counts["kept"] = len(frames)
            if frames:
                token = os.urandom(4).hex()
                temp = self.segments / f".compact-{token}.tmp"
                temp.write_bytes(b"".join(frames))
                os.replace(temp, self.segments / f"{os.getpid()}-{token}.seg")
            if self._writer_path in paths:
                self._close_writer()
            self._remove([*paths, *legacy])
            self._index = None
        return counts


class RemoteBackend(_BackendBase):
    """A shared HTTP cache (see :mod:`repro.cache.server`).

    Entries live under ``<url>/v1/<namespace>/<digest>``; the namespace
    keeps the verdict and shard-result digest spaces apart on one server.

    **Degradation.**  A 404 is a plain miss.  Any transport failure —
    connection refused, timeout, a 5xx — counts an error, yields a
    miss/skipped write, and opens a circuit breaker for ``cooldown``
    seconds: while it is open every operation short-circuits locally, so a
    server killed mid-run costs one timeout and the evaluation degrades to
    recompute instead of stalling per entry.

    ``urllib.request`` (and with it ``http.client``, ``ssl`` and ``email``)
    is imported by the methods that talk to the server, so processes that
    never use a remote cache do not load it.
    """

    kind = "remote"

    def __init__(
        self,
        url: str,
        *,
        namespace: str = "cache",
        timeout: float = 3.0,
        cooldown: float = 30.0,
    ) -> None:
        super().__init__()
        if not url.startswith(("http://", "https://")):
            raise ValueError(f"remote cache URL must be http(s)://, got {url!r}")
        self.url = url.rstrip("/")
        self.namespace = namespace
        self.timeout = float(timeout)
        self.cooldown = float(cooldown)
        self._down_until = 0.0

    def entry_url(self, digest: str) -> str:
        return f"{self.url}/v1/{self.namespace}/{digest}"

    def available(self) -> bool:
        """Whether the circuit breaker currently allows remote traffic."""
        with self._counter_lock:
            return time.monotonic() >= self._down_until

    def _trip(self) -> None:
        with self._counter_lock:
            self._down_until = time.monotonic() + self.cooldown

    def get(self, digest: str) -> bytes | None:
        import urllib.error
        import urllib.request

        if not self.available():
            return None
        started = time.perf_counter()
        request = urllib.request.Request(self.entry_url(digest), method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                data = response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code == 404:  # a plain miss, the server is healthy
                self._record("get", started)
                return None
            self._record("get", started, error=True)
            self._trip()
            return None
        except OSError:  # URLError, refused connection, timeout, DNS, ...
            self._record("get", started, error=True)
            self._trip()
            return None
        self._record("get", started, hit=True)
        return data

    def put(self, digest: str, data: bytes) -> bool:
        import urllib.error
        import urllib.request

        if not self.available():
            return False
        started = time.perf_counter()
        request = urllib.request.Request(
            self.entry_url(digest),
            data=data,
            method="PUT",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                pass
        except urllib.error.HTTPError as exc:
            exc.close()
            self._record("put", started, error=True)
            if exc.code >= 500:
                self._trip()
            return False
        except OSError:
            self._record("put", started, error=True)
            self._trip()
            return False
        self._record("put", started)
        return True

    def exists(self, digest: str) -> bool:
        import urllib.error
        import urllib.request

        if not self.available():
            return False
        request = urllib.request.Request(self.entry_url(digest), method="HEAD")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                return True
        except urllib.error.HTTPError as exc:
            exc.close()
            return False
        except OSError:
            self._trip()
            return False

    def discard(self, digest: str) -> None:
        import urllib.error
        import urllib.request

        if not self.available():
            return
        request = urllib.request.Request(self.entry_url(digest), method="DELETE")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout):
                pass
        except urllib.error.HTTPError as exc:
            exc.close()
        except OSError:
            self._trip()


class TieredBackend:
    """Local read-through cache in front of a shared remote.

    * ``get`` — local first; on a local miss the remote is consulted, and a
      remote hit **fills the local layer** (a no-op when the local backend
      is read-only) so the next lookup stays on this machine.
    * ``put`` — written to both layers; either succeeding counts as
      persisted (the other is best-effort).
    * ``discard`` — drops the **local** copy only.  A corrupt entry the
      remote keeps serving is re-validated (and recomputed) on each read
      until the next ``put`` overwrites it server-side; deleting shared
      state because one client's disk tore a file would let a single bad
      reader purge the fleet's cache.
    """

    kind = "tiered"

    def __init__(self, local: LocalBackend, remote: RemoteBackend) -> None:
        self.local = local
        self.remote = remote

    def get(self, digest: str) -> bytes | None:
        data = self.local.get(digest)
        if data is not None:
            return data
        data = self.remote.get(digest)
        if data is not None:
            self.local.put(digest, data)
        return data

    def put(self, digest: str, data: bytes) -> bool:
        local_ok = self.local.put(digest, data)
        remote_ok = self.remote.put(digest, data)
        return local_ok or remote_ok

    def exists(self, digest: str) -> bool:
        # Local-only on purpose: an existence probe guards re-writes, and a
        # remote round-trip per put() would cost more than the re-upload.
        return self.local.exists(digest)

    def discard(self, digest: str) -> None:
        self.local.discard(digest)

    def counters(self) -> dict:
        return {
            "kind": self.kind,
            "local": self.local.counters(),
            "remote": self.remote.counters(),
        }
