"""The long-lived evaluation service: an asyncio JSON-RPC 2.0 TCP server.

An :class:`EvaluationServer` evaluates declarative
:class:`~repro.api.spec.ExperimentSpec` submissions behind the
newline-delimited JSON-RPC protocol of :mod:`repro.service.protocol` and
serves many concurrent clients:

* **Handshake** — every connection must open with a versioned ``hello``;
  a protocol-version mismatch is refused with a typed error, never
  misparsed.
* **Submission** — ``submit`` accepts a declarative
  :class:`~repro.api.spec.ExperimentSpec` payload and answers immediately
  with an experiment id; the evaluation itself runs on a bounded pool of
  worker tasks fed from a **bounded queue** (an over-full server answers
  ``queue-full`` explicitly instead of buffering silently).
* **Streaming** — while an experiment runs, the submitting client receives
  ``progress`` events per evaluated cell and ``shard`` events per settled
  shard (carrying an incremental table snapshot of the partial merge), both
  in submission order — the same ordering contract
  :class:`~repro.dispatch.driver.ShardDriver` gives in-process callers,
  extended over the wire.  A terminal ``state`` event closes the stream.
* **Isolation** — experiments belong to the client session that submitted
  them; another session's ``status``/``cancel``/``result`` sees
  ``unknown experiment``.  All sessions share the server's VerdictStore
  and ResultStore; each experiment is an inline
  :class:`~repro.dispatch.driver.ShardDriver` on a worker thread.
* **Durability** — the driver persists every executed shard to the
  :class:`~repro.dispatch.store.ResultStore` the moment it completes, so a
  killed server re-serves a re-submitted spec from the store with **zero**
  re-executed shards, and a graceful ``shutdown`` (stop at the next shard
  boundary, everything completed already persisted) never loses more than
  the shard in flight.
* **Containment** — a shard whose evaluation keeps crashing is retried and
  then quarantined by the driver's inline backend, exactly like a dispatch
  shard; the experiment finishes ``degraded`` with the surviving cells,
  never wedges the server.

A complete experiment's ``result`` records are byte-identical to
``Session.run`` (and therefore to ``run --json``) for the same spec — the
per-cell seeding contract survives the wire.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import threading
from pathlib import Path

from repro.analysis.store import VerdictStore
from repro.api.spec import ExperimentSpec
from repro.codex.config import DEFAULT_SEED
from repro.core.runner import ResultSet
from repro.dispatch.driver import DispatchReport, ShardDriver, ShardQuarantine
from repro.dispatch.runners import shard_label
from repro.dispatch.store import ResultStore
from repro.service import protocol
from repro.service.protocol import ServiceError

__all__ = ["EvaluationServer", "ServerThread", "TERMINAL_STATES"]

#: Experiment states that end the event stream (``state`` notification).
TERMINAL_STATES: tuple[str, ...] = ("done", "degraded", "cancelled", "failed")

#: Default per-seed shard count experiments are partitioned into.
DEFAULT_SHARDS = 4

#: Default bound of the request queue (queued + running experiments).
DEFAULT_QUEUE_LIMIT = 8

#: Default number of concurrent experiment worker tasks.
DEFAULT_WORKERS = 2

#: Byte limit of one inbound NDJSON line (submit payloads are tiny; this
#: mostly guards the reader against a client streaming garbage).
MAX_LINE_BYTES = 1 << 20


class _Connection:
    """One client connection: its writer, send lock and handshake state."""

    __slots__ = ("writer", "lock", "session_id", "closed")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.session_id: str | None = None
        self.closed = False


class _Experiment:
    """One submitted experiment: spec, owner, dispatch report, terminal data.

    ``report`` is filled in by the single worker thread that executes the
    experiment and read by loop-thread handlers through the views below —
    the GIL makes the reads safe.  ``cells_done`` counts the merged cells
    plus each cell the live shard reported, once however often its attempts
    are retried, so it never exceeds ``cells_total``; after every settled
    shard it is re-anchored to the merge size (dropping quarantined cells).
    """

    __slots__ = (
        "id", "spec", "owner", "conn", "state", "finished", "cancel",
        "cells_total", "cells_done", "report", "error",
    )

    def __init__(self, id: str, spec: ExperimentSpec, shards: int, conn: _Connection) -> None:
        self.id = id
        self.spec = spec
        self.owner = conn.session_id
        self.conn = conn
        self.state = "queued"
        self.finished = False
        self.cancel = threading.Event()
        self.cells_total = len(spec.cells())
        self.cells_done = 0
        self.report = DispatchReport(spec=spec, shards=shards)
        self.error: str | None = None

    @property
    def quarantined(self) -> list[dict]:
        """The quarantined shards as ``status``, ``result`` and ``shard``
        events name them."""
        return [
            {
                "shard": shard_label(quarantine.entry),
                "error": quarantine.failure.get("error", "unknown"),
                "message": quarantine.failure.get("message", ""),
                "attempts": quarantine.attempts,
            }
            for quarantine in self.report.quarantined
        ]

    @property
    def records(self) -> list[dict]:
        """The merged records: validated once complete, partial otherwise,
        none for a failed experiment."""
        merged = self.report.results.get(self.spec.seeds[0])
        if merged is None or self.state == "failed":
            return []
        return merged.to_records()

    def status_payload(self) -> dict:
        report = self.report
        return {
            "state": self.state,
            "done": self.cells_done,
            "total": self.cells_total,
            "shards_done": report.shards_total - report.pending,
            "shards_total": report.shards_total,
            "executed": len(report.executed),
            "skipped": len(report.skipped),
            "quarantined": self.quarantined,
            "error": self.error,
        }


def _table_snapshot(results: ResultSet | None) -> dict:
    """Incremental table snapshot of a partial merge: per-language means.

    What a live dashboard renders as shards land — the same aggregation the
    final language tables are built from, over however many cells have
    merged so far.  Scores are rounded so snapshots stay compact and the
    serialisation byte-stable.
    """
    if results is None or len(results) == 0:
        return {"cells": 0, "mean_score": 0.0, "languages": {}}
    languages = sorted({result.cell.language for result in results})
    return {
        "cells": len(results),
        "mean_score": round(results.mean_score(), 4),
        "languages": {
            language: round(results.filter(language=language).mean_score(), 4)
            for language in languages
        },
    }


class EvaluationServer:
    """Serve :class:`~repro.api.spec.ExperimentSpec` evaluations over
    JSON-RPC 2.0/TCP.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks a free port (read :attr:`port` after
        :meth:`start`).
    shards:
        Default per-seed shard count of submitted experiments (a ``submit``
        may override per call).
    queue_limit:
        Bound of the request queue — queued plus running experiments; a
        submit beyond it is refused with :data:`~repro.service.protocol.ERR_QUEUE_FULL`.
    workers:
        Concurrent experiment worker tasks (each evaluates on its own
        thread; the stores are shared).
    max_attempts:
        Failed attempts before a shard is quarantined (default 3, the
        dispatch layer's policy).
    result_store:
        Shard-level persistence (path / ``True`` / store / ``None``):
        completed shards survive the process, so restarts resume warm.
    verdict_store:
        Suggestion-level persistence, shared by every shard evaluation
        (see :class:`~repro.analysis.store.VerdictStore`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shards: int = DEFAULT_SHARDS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        workers: int = DEFAULT_WORKERS,
        max_attempts: int = 3,
        result_store: ResultStore | str | Path | bool | None = None,
        verdict_store: VerdictStore | str | Path | bool | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.host = host
        self.port = port
        self.shards = shards
        self.queue_limit = queue_limit
        self.workers = workers
        self.max_attempts = max_attempts
        self.result_store = ResultStore.coerce(result_store)
        self.verdict_store = VerdictStore.coerce(verdict_store)
        self._experiments: dict[str, _Experiment] = {}
        self._active = 0
        self._session_ids = itertools.count(1)
        self._experiment_ids = itertools.count(1)
        self._connections: set[_Connection] = set()
        self._shutting_down = False
        #: Set when the serve loop was started (bind succeeded; port known).
        self.ready = threading.Event()
        self.loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._finish_sends: set[asyncio.Task] = set()
        self._stopped: asyncio.Event | None = None
        self._methods = {
            "hello": self._handle_hello,
            "submit": self._handle_submit,
            "status": self._handle_status,
            "cancel": self._handle_cancel,
            "result": self._handle_result,
            "shutdown": self._handle_shutdown,
        }

    # -- lifecycle --------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and start the worker tasks."""
        self.loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(self.workers)
        ]
        self.ready.set()

    async def wait_closed(self) -> None:
        """Block until the server stops, then release every resource."""
        try:
            await self._stopped.wait()
        finally:
            await self._close()

    async def run(self) -> None:
        """:meth:`start` + :meth:`wait_closed` — the whole server lifetime."""
        await self.start()
        await self.wait_closed()

    def request_stop(self) -> None:
        """Thread-safe hard stop (the test suite's ``kill -9`` stand-in):
        running experiments stop at their next shard boundary."""
        for experiment in list(self._experiments.values()):
            if not experiment.finished:
                experiment.cancel.set()
        if self.loop is not None and self._stopped is not None:
            # A graceful ``shutdown`` may already have closed the loop.
            with contextlib.suppress(RuntimeError):
                self.loop.call_soon_threadsafe(self._stopped.set)

    async def _close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._worker_tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        for conn in list(self._connections):
            conn.closed = True
            conn.writer.close()
            with contextlib.suppress(Exception):
                await conn.writer.wait_closed()
        self._connections.clear()

    async def _graceful(self) -> None:
        """Drain for shutdown: running experiments stop at the next shard
        boundary (everything completed is already in the result store),
        queued ones are cancelled, then the serve loop exits."""
        for experiment in list(self._experiments.values()):
            if not experiment.finished:
                experiment.cancel.set()
                if experiment.state == "queued":
                    self._finish(experiment, "cancelled")
        for _ in self._worker_tasks:
            self._queue.put_nowait(None)
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        # Flush terminal state events before tearing connections down —
        # sends on a connection are lock-ordered, so once these complete,
        # every earlier progress/shard event is on the wire too.
        await asyncio.gather(*list(self._finish_sends), return_exceptions=True)
        self._stopped.set()

    # -- connection handling ------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line over MAX_LINE_BYTES: unparseable by construction.
                    await self._send(
                        conn,
                        protocol.error_response(
                            None, ServiceError(protocol.PARSE_ERROR, "parse error: line too long")
                        ),
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(conn, line)
        finally:
            conn.closed = True
            self._connections.discard(conn)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _send(self, conn: _Connection, message: dict) -> None:
        if conn.closed:
            return
        try:
            async with conn.lock:
                conn.writer.write(protocol.encode(message))
                await conn.writer.drain()
        except (ConnectionError, OSError):
            # The client went away mid-stream: drop this (and every later)
            # message; the experiment keeps running and keeps persisting.
            conn.closed = True

    def _emit_threadsafe(self, experiment: _Experiment, method: str, params: dict) -> None:
        """Push one event to the owning client from a worker thread."""
        conn = experiment.conn
        if conn is None or conn.closed or self.loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self._send(conn, protocol.notification(method, params)), self.loop
        )

    # -- request dispatch -----------------------------------------------------------
    async def _handle_line(self, conn: _Connection, raw: bytes) -> None:
        try:
            message = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            await self._send(
                conn,
                protocol.error_response(
                    None, ServiceError(protocol.PARSE_ERROR, "parse error: invalid JSON")
                ),
            )
            return
        if not isinstance(message, dict):
            await self._send(
                conn,
                protocol.error_response(
                    None,
                    ServiceError(
                        protocol.INVALID_REQUEST,
                        "invalid request: expected one JSON-RPC object per line",
                    ),
                ),
            )
            return
        has_id = "id" in message
        request_id = message.get("id")
        method = message.get("method")
        if message.get("jsonrpc") != protocol.JSONRPC_VERSION or not isinstance(method, str):
            if has_id:
                await self._send(
                    conn,
                    protocol.error_response(
                        request_id,
                        ServiceError(
                            protocol.INVALID_REQUEST,
                            'invalid request: need jsonrpc "2.0" and a string method',
                        ),
                    ),
                )
            return
        params = message.get("params", {})
        if not isinstance(params, dict):
            if has_id:
                await self._send(
                    conn,
                    protocol.error_response(
                        request_id,
                        ServiceError(protocol.INVALID_PARAMS, "params must be an object"),
                    ),
                )
            return
        if not has_id:
            # Client notifications: none are defined; dropped per JSON-RPC.
            return
        handler = self._methods.get(method)
        try:
            if handler is None:
                raise ServiceError(protocol.METHOD_NOT_FOUND, f"method not found: {method}")
            if conn.session_id is None and method != "hello":
                raise ServiceError(
                    protocol.ERR_HANDSHAKE_REQUIRED,
                    "handshake required: open the connection with hello",
                )
            result = handler(conn, params)
        except ServiceError as err:
            await self._send(conn, protocol.error_response(request_id, err))
            return
        except Exception as exc:  # containment: a handler bug must not kill the loop
            await self._send(
                conn,
                protocol.error_response(
                    request_id,
                    ServiceError(protocol.INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"),
                ),
            )
            return
        await self._send(conn, protocol.response(request_id, result))

    # -- method handlers --------------------------------------------------------
    def _handle_hello(self, conn: _Connection, params: dict) -> dict:
        if conn.session_id is not None:
            raise ServiceError(
                protocol.ERR_HANDSHAKE_REQUIRED, "handshake already completed on this connection"
            )
        version = params.get("protocol_version")
        if version is None:
            raise ServiceError(protocol.INVALID_PARAMS, "hello requires protocol_version")
        if version != protocol.PROTOCOL_VERSION:
            raise ServiceError(
                protocol.ERR_VERSION_MISMATCH,
                f"unsupported protocol version {version!r}; "
                f"this server speaks {protocol.PROTOCOL_VERSION}",
                data={"server": protocol.PROTOCOL_VERSION, "client": version},
            )
        conn.session_id = f"s-{next(self._session_ids):06d}"
        return {
            "protocol_version": protocol.PROTOCOL_VERSION,
            "server": protocol.SERVER_NAME,
            "session_id": conn.session_id,
            "queue_limit": self.queue_limit,
        }

    def _handle_submit(self, conn: _Connection, params: dict) -> dict:
        if self._shutting_down:
            raise ServiceError(protocol.ERR_SHUTTING_DOWN, "server is shutting down")
        spec, shards = self._parse_submit(params)
        if self._active >= self.queue_limit:
            raise ServiceError(
                protocol.ERR_QUEUE_FULL,
                f"request queue is full ({self._active}/{self.queue_limit} experiments active)",
                data={"limit": self.queue_limit, "active": self._active},
            )
        experiment = _Experiment(f"exp-{next(self._experiment_ids):06d}", spec, shards, conn)
        self._experiments[experiment.id] = experiment
        self._active += 1
        self._queue.put_nowait(experiment)
        return {
            "experiment_id": experiment.id,
            "cells": experiment.cells_total,
            "shards": shards,
        }

    def _parse_submit(self, params: dict) -> tuple[ExperimentSpec, int]:
        payload = params.get("spec")
        if not isinstance(payload, dict):
            raise ServiceError(protocol.INVALID_PARAMS, "submit requires a spec object")
        known = {"seed", "seeds", "languages", "models", "kernels", "fingerprint"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ServiceError(
                protocol.INVALID_PARAMS, f"unknown spec fields: {', '.join(unknown)}"
            )
        seeds = payload.get("seeds")
        if seeds is None:
            seeds = [payload.get("seed", DEFAULT_SEED)]
        if not isinstance(seeds, list) or not all(isinstance(seed, int) for seed in seeds):
            raise ServiceError(protocol.INVALID_PARAMS, "seeds must be a list of integers")
        if len(seeds) != 1:
            raise ServiceError(
                protocol.INVALID_PARAMS,
                "multi-seed specs are not supported over the service; "
                "submit one experiment per seed",
            )
        try:
            spec = ExperimentSpec(
                seeds=tuple(seeds),
                languages=_optional_names(payload, "languages"),
                models=_optional_names(payload, "models"),
                kernels=_optional_names(payload, "kernels"),
            )
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise ServiceError(protocol.INVALID_PARAMS, f"invalid spec: {exc}")
        fingerprint = payload.get("fingerprint")
        if fingerprint is not None and fingerprint != spec.fingerprint():
            # The queue's trust-the-manifest rule, applied at the front door:
            # a client configured differently from the server must find out
            # now, not from byte-different records later.
            raise ServiceError(
                protocol.INVALID_PARAMS,
                f"config fingerprint mismatch: client sent {fingerprint}, "
                f"this server evaluates {spec.fingerprint()}",
            )
        shards = params.get("shards", self.shards)
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ServiceError(protocol.INVALID_PARAMS, "shards must be a positive integer")
        return spec, shards

    def _lookup(self, conn: _Connection, params: dict) -> _Experiment:
        experiment_id = params.get("experiment_id")
        if not isinstance(experiment_id, str):
            raise ServiceError(protocol.INVALID_PARAMS, "experiment_id must be a string")
        experiment = self._experiments.get(experiment_id)
        # Session isolation: another session's experiment is
        # indistinguishable from a nonexistent one.
        if experiment is None or experiment.owner != conn.session_id:
            raise ServiceError(
                protocol.ERR_UNKNOWN_EXPERIMENT, f"unknown experiment: {experiment_id}"
            )
        return experiment

    def _handle_status(self, conn: _Connection, params: dict) -> dict:
        return self._lookup(conn, params).status_payload()

    def _handle_cancel(self, conn: _Connection, params: dict) -> dict:
        experiment = self._lookup(conn, params)
        if not experiment.finished:
            experiment.cancel.set()
            if experiment.state == "queued":
                self._finish(experiment, "cancelled")
        return {"state": experiment.state}

    def _handle_result(self, conn: _Connection, params: dict) -> dict:
        experiment = self._lookup(conn, params)
        if not experiment.finished:
            raise ServiceError(
                protocol.ERR_NOT_FINISHED,
                f"experiment {experiment.id} is {experiment.state}; "
                "wait for its terminal state event",
                data={"state": experiment.state},
            )
        return {
            "state": experiment.state,
            "records": experiment.records,
            "quarantined": experiment.quarantined,
        }

    def _handle_shutdown(self, conn: _Connection, params: dict) -> dict:
        if not self._shutting_down:
            self._shutting_down = True
            self.loop.create_task(self._graceful())
        return {"stopping": True}

    # -- experiment execution -----------------------------------------------------
    async def _worker(self) -> None:
        while True:
            experiment = await self._queue.get()
            if experiment is None:
                return
            if experiment.finished:  # cancelled while queued
                continue
            experiment.state = "running"
            try:
                final = await asyncio.to_thread(self._execute, experiment)
            except Exception as exc:  # containment: a driver bug finishes the
                experiment.error = f"{type(exc).__name__}: {exc}"  # experiment,
                final = "failed"  # never the worker task
            self._finish(experiment, final)

    def _finish(self, experiment: _Experiment, state: str) -> None:
        """Terminal transition (loop thread): release the queue slot once
        and close the event stream with a ``state`` notification."""
        if experiment.finished:
            return
        experiment.state = state
        experiment.finished = True
        self._active -= 1
        conn = experiment.conn
        if conn is not None and not conn.closed:
            task = self.loop.create_task(
                self._send(
                    conn,
                    protocol.notification(
                        "state",
                        {"experiment_id": experiment.id, **experiment.status_payload()},
                    ),
                )
            )
            self._finish_sends.add(task)
            task.add_done_callback(self._finish_sends.discard)

    def _execute(self, experiment: _Experiment) -> str:
        """Evaluate one experiment on this worker thread; returns the final
        state.  An inline :class:`~repro.dispatch.driver.ShardDriver`
        resolves the shards — store hit, evaluation with retries, or
        quarantine — and persists every executed shard before its events
        fire, exactly like a dispatch."""
        report = experiment.report
        live: set[str] = set()  # the live shard's cells counted in ``done``

        def on_cell(result) -> None:
            if result.cell.cell_id not in live:  # a retry re-reports cells
                live.add(result.cell.cell_id)
                experiment.cells_done += 1
            self._emit_threadsafe(
                experiment,
                "progress",
                {
                    "experiment_id": experiment.id,
                    "done": experiment.cells_done,
                    "total": experiment.cells_total,
                    "record": result.to_record(),
                },
            )

        driver = ShardDriver(
            experiment.spec,
            shards=report.shards,
            result_store=self.result_store,
            verdict_store=self.verdict_store,
            progress=on_cell,
            max_attempts=self.max_attempts,
        )
        with contextlib.closing(driver.settle(report)) as stream:
            # A cancel stops the stream at the next shard boundary; once
            # every shard has settled, the stream still finishes its merge.
            while not (experiment.cancel.is_set() and report.pending):
                settled = next(stream, None)
                if settled is None:
                    break
                partial = report.results.get(experiment.spec.seeds[0])
                # Re-anchor to the merge: a quarantined shard's cells were
                # counted but never merged.
                experiment.cells_done = 0 if partial is None else len(partial)
                live.clear()
                params = {
                    "experiment_id": experiment.id,
                    "entry": settled.entry.to_payload(),
                    "source": "quarantined",
                    "done": experiment.cells_done,
                    "total": experiment.cells_total,
                    "shards_done": report.shards_total - report.pending,
                    "shards_total": report.shards_total,
                    "snapshot": _table_snapshot(partial),
                }
                if isinstance(settled, ShardQuarantine):
                    params["failure"] = experiment.quarantined[-1]
                else:
                    params["source"] = "store" if settled.cached else "executed"
                self._emit_threadsafe(experiment, "shard", params)
        if experiment.cancel.is_set() and report.pending:
            return "cancelled"
        if report.quarantined:
            return "degraded"
        # Complete: validated through the manifest, exactly like a dispatch —
        # an incomplete merge must never masquerade as a finished experiment.
        report.result()
        return "done"


def _optional_names(payload: dict, key: str) -> tuple | None:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not all(isinstance(name, str) for name in value):
        raise ServiceError(protocol.INVALID_PARAMS, f"{key} must be a list of strings")
    return tuple(value)


class ServerThread:
    """Run an :class:`EvaluationServer` on a background thread.

    The harness the tests (and anything embedding the service) use: start,
    read the bound :attr:`port`, talk to it over real sockets, then
    :meth:`stop` — which is a *hard* stop, the in-process stand-in for
    ``kill -9``; use the protocol's ``shutdown`` method for a graceful exit.
    """

    def __init__(self, **kwargs) -> None:
        self.server = EvaluationServer(**kwargs)
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.server.run()),
            name="repro-service",
            daemon=True,
        )

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self.server.ready.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError("evaluation server failed to start")
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Hard-stop the server and join its thread (idempotent)."""
        self.server.request_stop()
        self._thread.join(timeout)

    def join(self, timeout: float = 30.0) -> bool:
        """Wait for the server to exit on its own (e.g. after ``shutdown``)."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
