"""The shared remote cache server (``cache-server`` CLI subcommand).

A small stdlib HTTP server holding content-addressed JSON entries for any
number of :class:`~repro.cache.backends.RemoteBackend` clients — the
tier a fleet of ``dispatch-worker`` hosts, CLI invocations and
``serve`` processes share so each verdict/shard payload is computed once
per *fleet* instead of once per machine.

Wire surface (all under ``/v1/``; conventions follow ``repro.service``:
``--port 0`` reports the bound port, a scrape-able ``serving cache on``
line, graceful ``KeyboardInterrupt`` exit):

==========================  =================================================
``GET /v1/<ns>/<digest>``   entry bytes (``application/json``) or 404
``HEAD /v1/<ns>/<digest>``  existence probe
``PUT /v1/<ns>/<digest>``   publish an entry (body must parse as JSON;
                            one framed append) → 204
``DELETE /v1/<ns>/<digest>`` drop an entry → 204 (404 when absent)
``GET /v1/stats``           per-namespace entry counts/bytes + request
                            counters, as JSON
==========================  =================================================

``<ns>`` is a short lowercase namespace (``verdicts``, ``results``) and
``<digest>`` a 64-hex-char content digest; anything else is a 400.  The
server never interprets payloads beyond checking that a ``PUT`` body is
JSON — keying, schema versioning and validation live in the client stores,
so a stale or corrupt served entry degrades to recompute client-side,
never to a wrong verdict.

Each namespace is stored through a :class:`~repro.cache.backends.LocalBackend`
at ``<root>/<ns>`` (append-only segments in ``<root>/<ns>/segments``):
``GET``, ``HEAD``, ``PUT`` and ``DELETE`` map to its ``get``, ``exists``,
``put`` and ``discard``, so ``cache stats|clear|compact`` pointed at
``<root>/<ns>`` administer the served store directly.

``--readonly`` refuses ``PUT``/``DELETE`` with 403 — a published cache CI
may read but must not grow.
"""

from __future__ import annotations

import argparse
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.cache.backends import LocalBackend

__all__ = ["CacheServer", "MAX_ENTRY_BYTES", "main"]

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_NAMESPACE_RE = re.compile(r"^[a-z][a-z0-9_-]{0,31}$")

#: Upper bound on one entry's size; a request past it is refused with 413.
#: Generous against the largest shard payloads, small against abuse.
MAX_ENTRY_BYTES = 64 * 1024 * 1024


class CacheServer:
    """Threaded HTTP cache server over one root directory.

    ``port=0`` binds a free port (``.port`` reports it).  ``start()`` runs
    the accept loop on a daemon thread (tests, benchmarks);
    ``serve_forever()`` runs it in the calling thread (the CLI).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        readonly: bool = False,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.readonly = bool(readonly)
        self._counter_lock = threading.Lock()
        self._backends: dict[str, LocalBackend] = {}
        self.counters = {"get_hits": 0, "get_misses": 0, "puts": 0, "deletes": 0, "rejected": 0}
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # pragma: no cover - silence
                pass

            def do_GET(self):
                server._handle(self, "GET")

            def do_HEAD(self):
                server._handle(self, "HEAD")

            def do_PUT(self):
                server._handle(self, "PUT")

            def do_DELETE(self):
                server._handle(self, "DELETE")

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CacheServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="cache-server", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "CacheServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling -----------------------------------------------------
    def _count(self, key: str) -> None:
        with self._counter_lock:
            self.counters[key] += 1

    def _backend(self, namespace: str) -> LocalBackend:
        with self._counter_lock:
            backend = self._backends.get(namespace)
            if backend is None:
                backend = self._backends[namespace] = LocalBackend(
                    self.root / namespace, readonly=self.readonly
                )
            return backend

    def _handle(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        try:
            self._dispatch(handler, method)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage
        except OSError:
            self._reply(handler, 500, b'{"error": "io failure"}')

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        parts = handler.path.strip("/").split("/")
        if parts == ["v1", "stats"] and method in ("GET", "HEAD"):
            body = json.dumps(self.stats(), sort_keys=True).encode("utf-8")
            self._reply(handler, 200, body, head_only=method == "HEAD")
            return
        if len(parts) != 3 or parts[0] != "v1":
            self._count("rejected")
            self._reply(handler, 400, b'{"error": "expected /v1/<namespace>/<digest>"}')
            return
        _, namespace, digest = parts
        if not _NAMESPACE_RE.match(namespace) or not _DIGEST_RE.match(digest):
            self._count("rejected")
            self._reply(handler, 400, b'{"error": "bad namespace or digest"}')
            return
        backend = self._backend(namespace)
        if method in ("GET", "HEAD"):
            if method == "GET":
                data = backend.get(digest)
            else:
                data = b"" if backend.exists(digest) else None
            if data is None:
                self._count("get_misses")
                self._reply(handler, 404, b'{"error": "no such entry"}')
                return
            self._count("get_hits")
            self._reply(handler, 200, data, head_only=method == "HEAD")
            return
        if self.readonly:
            self._count("rejected")
            self._reply(handler, 403, b'{"error": "cache server is read-only"}')
            return
        if method == "PUT":
            try:
                length = int(handler.headers.get("Content-Length", ""))
            except ValueError:
                length = -1
            if length < 0:
                self._count("rejected")
                self._reply(handler, 411, b'{"error": "Content-Length required"}')
                return
            if length > MAX_ENTRY_BYTES:
                self._count("rejected")
                self._reply(handler, 413, b'{"error": "entry too large"}')
                return
            data = handler.rfile.read(length)
            try:
                json.loads(data)
            except ValueError:
                # Refuse garbage at the door; clients would only drop it
                # again on validation, one failed read at a time.
                self._count("rejected")
                self._reply(handler, 400, b'{"error": "body is not JSON"}')
                return
            if not backend.put(digest, data):
                self._reply(handler, 500, b'{"error": "io failure"}')
                return
            self._count("puts")
            self._reply(handler, 204, b"")
            return
        if method == "DELETE":
            if not backend.exists(digest):
                self._reply(handler, 404, b'{"error": "no such entry"}')
                return
            backend.discard(digest)
            self._count("deletes")
            self._reply(handler, 204, b"")
            return
        self._count("rejected")  # pragma: no cover - unreachable via Handler
        self._reply(handler, 405, b'{"error": "unsupported method"}')

    @staticmethod
    def _reply(
        handler: BaseHTTPRequestHandler, status: int, body: bytes, *, head_only: bool = False
    ) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        if body and not head_only:
            handler.wfile.write(body)

    # -- introspection --------------------------------------------------------
    def stats(self) -> dict:
        """Per-namespace entry counts/bytes plus request counters."""
        namespaces: dict[str, dict] = {}
        for ns_dir in sorted(self.root.iterdir() if self.root.exists() else []):
            if not ns_dir.is_dir() or not _NAMESPACE_RE.match(ns_dir.name):
                continue
            local = self._backend(ns_dir.name).stats()
            namespaces[ns_dir.name] = {"entries": local["entries"], "bytes": local["bytes"]}
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "path": str(self.root),
            "readonly": self.readonly,
            "namespaces": namespaces,
            "requests": counters,
        }


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.cache.server`` / the ``cache-server`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-cache-server",
        description="shared remote cache for the repro content-addressed stores",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=7350, help="TCP port (0 picks a free port; default 7350)"
    )
    parser.add_argument(
        "--path",
        default=None,
        metavar="DIR",
        help="served directory (default $REPRO_CACHE_SERVER_ROOT or "
        "~/.cache/repro-hpc-codex/served)",
    )
    parser.add_argument(
        "--readonly",
        action="store_true",
        help="refuse PUT/DELETE (serve an existing cache verbatim)",
    )
    args = parser.parse_args(argv)

    from repro.analysis.store import _default_cache_path

    root = args.path or _default_cache_path("REPRO_CACHE_SERVER_ROOT", "served")
    server = CacheServer(root, host=args.host, port=args.port, readonly=args.readonly)
    # Printed after the bind so --port 0 reports the actual port; the smoke
    # jobs and humans alike scrape this line.
    suffix = ", read-only" if server.readonly else ""
    print(f"serving cache on {server.url} (path {server.root}{suffix})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
