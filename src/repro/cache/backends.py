"""Pluggable storage backends for the content-addressed stores.

:class:`~repro.analysis.store.ContentStore` (the shared core of the
verdict and shard-result stores) used to *be* its directory layout; this
module extracts that layout into :class:`LocalBackend` and adds two more
ways to keep entries:

* :class:`RemoteBackend` — a shared HTTP cache (the ``cache-server`` CLI
  subcommand, :mod:`repro.cache.server`): content-addressed
  ``GET``/``PUT``/``DELETE`` of opaque JSON documents under
  ``/v1/<namespace>/<digest>``.  A fleet of ``dispatch-worker`` hosts and
  long-lived ``serve`` processes pointed at one server share every verdict
  and shard payload any of them ever computed.
* :class:`TieredBackend` — a local read-through cache in front of a remote:
  reads try the local directory first, fall through to the remote, and fill
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
import threading
import time
from pathlib import Path

from repro.atomicio import write_atomic_bytes

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
    """Today's on-disk layout: a two-level fanout directory of JSON entries.

    ``get`` is a single ``read_bytes`` (absent entry or transient read
    failure → ``None``; the entry is never destroyed on a read error —
    on a shared store a transient EIO must not delete a valid entry for
    every other reader), ``put`` publishes through the shared
    fsync-before-replace writer, ``discard`` drops one entry best-effort.
    """

    kind = "local"

    def __init__(self, path: str | Path, *, create: bool = True) -> None:
        super().__init__()
        self.path = Path(path)
        if create:
            self.path.mkdir(parents=True, exist_ok=True)

    def entry_path(self, digest: str) -> Path:
        return self.path / digest[:2] / f"{digest}.json"

    def get(self, digest: str) -> bytes | None:
        started = time.perf_counter()
        try:
            data = self.entry_path(digest).read_bytes()
        except OSError:
            data = None
        self._record("get", started, hit=data is not None)
        return data

    def put(self, digest: str, data: bytes) -> bool:
        started = time.perf_counter()
        path = self.entry_path(digest)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_atomic_bytes(path, data)
        except OSError:
            # Full disk / permissions / store directory gone: the caller
            # must never fail because the cache could not be written.
            self._record("put", started, error=True)
            return False
        self._record("put", started)
        return True

    def exists(self, digest: str) -> bool:
        return self.entry_path(digest).exists()

    def discard(self, digest: str) -> None:
        try:
            self.entry_path(digest).unlink()
        except OSError:
            pass


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
      remote hit **fills the local layer** (unless read-only) so the next
      lookup is one ``open`` again.
    * ``put`` — written to both layers; either succeeding counts as
      persisted (the other is best-effort).
    * ``discard`` — drops the **local** copy only.  A corrupt entry the
      remote keeps serving is re-validated (and recomputed) on each read
      until the next ``put`` overwrites it server-side; deleting shared
      state because one client's disk tore a file would let a single bad
      reader purge the fleet's cache.
    """

    kind = "tiered"

    def __init__(self, local: LocalBackend, remote: RemoteBackend, *, readonly: bool = False) -> None:
        self.local = local
        self.remote = remote
        self.readonly = bool(readonly)

    def get(self, digest: str) -> bytes | None:
        data = self.local.get(digest)
        if data is not None:
            return data
        data = self.remote.get(digest)
        if data is not None and not self.readonly:
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
