"""A small blocking client for the evaluation service.

:class:`ServiceClient` speaks the NDJSON JSON-RPC protocol of
:mod:`repro.service.protocol` over a plain socket — deliberately
synchronous and dependency-free, so the CLI, the CI smoke job and the
conformance tests all drive the server through the same few dozen lines.

Event notifications arriving while a call waits for its response are
buffered on :attr:`ServiceClient.events` (and handed to the ``on_event``
callback); :meth:`wait` consumes the stream until the experiment's
terminal ``state`` event.  Typed server errors re-raise client-side as
:class:`~repro.service.protocol.ServiceError` with the original code.

Run as a module (``python -m repro.service.client``) this is the
round-trip tool the ``service-smoke`` CI job uses: submit a spec, stream
progress to stderr, write the result records as JSON byte-identical to
``repro-hpc-codex run --json`` for the same spec.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from typing import Any, Callable

from repro.service import protocol
from repro.service.protocol import ServiceError

__all__ = ["ServiceClient", "connect", "main"]

#: Exit codes of the module entry point (mirroring ``dispatch``):
#: 0 done, 3 cancelled/failed, 4 degraded (partial result written).
EXIT_INCOMPLETE = 3
EXIT_DEGRADED = 4


class ServiceClient:
    """Blocking JSON-RPC client for one server connection.

    >>> client = ServiceClient(port=7349)          # doctest: +SKIP
    >>> client.connect(); client.hello()           # doctest: +SKIP
    >>> exp = client.submit(languages=["julia"])   # doctest: +SKIP
    >>> client.wait(exp)["state"]                  # doctest: +SKIP
    'done'
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 120.0,
        on_event: Callable[[str, dict], None] | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.on_event = on_event
        self.session_id: str | None = None
        #: Buffered event notifications, ``(method, params)`` in arrival order.
        self.events: list[tuple[str, dict]] = []
        self._sock: socket.socket | None = None
        self._file = None
        self._ids = iter(range(1, 1 << 62))

    # -- connection -------------------------------------------------------------
    def connect(self) -> "ServiceClient":
        self._sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the JSON-RPC engine ------------------------------------------------------
    def send(self, message: dict) -> None:
        """Ship one raw message (the conformance tests' malformed-input hook)."""
        self._sock.sendall(protocol.encode(message))

    def read_message(self) -> dict:
        """Read one message line; raises ConnectionError on EOF."""
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, method: str, params: dict | None = None) -> Any:
        """One request/response round trip; events in between are buffered."""
        request_id = next(self._ids)
        self.send(protocol.request(method, params, request_id))
        while True:
            message = self.read_message()
            if message.get("id") == request_id:
                if "error" in message:
                    error = message["error"]
                    raise ServiceError(
                        error.get("code", protocol.INTERNAL_ERROR),
                        error.get("message", "unknown error"),
                        error.get("data"),
                    )
                return message.get("result")
            self._dispatch_event(message)

    def _dispatch_event(self, message: dict) -> None:
        method = message.get("method")
        if "id" in message or not isinstance(method, str):
            return  # stray response or malformed line: not ours to crash on
        params = message.get("params", {})
        self.events.append((method, params))
        if self.on_event is not None:
            self.on_event(method, params)

    # -- protocol methods ---------------------------------------------------------
    def hello(self, protocol_version: str | None = None) -> dict:
        """The mandatory handshake; stores and returns the session identity."""
        result = self.call(
            "hello",
            {
                "protocol_version": (
                    protocol.PROTOCOL_VERSION if protocol_version is None else protocol_version
                ),
                "client": "repro.service.client",
            },
        )
        self.session_id = result["session_id"]
        return result

    def submit(
        self,
        *,
        seed: int | None = None,
        languages: list[str] | None = None,
        models: list[str] | None = None,
        kernels: list[str] | None = None,
        shards: int | None = None,
        spec: dict | None = None,
    ) -> str:
        """Submit one experiment; returns its id immediately."""
        if spec is None:
            spec = {}
            if seed is not None:
                spec["seed"] = seed
            if languages is not None:
                spec["languages"] = list(languages)
            if models is not None:
                spec["models"] = list(models)
            if kernels is not None:
                spec["kernels"] = list(kernels)
        params: dict = {"spec": spec}
        if shards is not None:
            params["shards"] = shards
        return self.call("submit", params)["experiment_id"]

    def status(self, experiment_id: str) -> dict:
        return self.call("status", {"experiment_id": experiment_id})

    def cancel(self, experiment_id: str) -> dict:
        return self.call("cancel", {"experiment_id": experiment_id})

    def result(self, experiment_id: str) -> dict:
        return self.call("result", {"experiment_id": experiment_id})

    def shutdown(self) -> dict:
        return self.call("shutdown", {})

    def wait(self, experiment_id: str) -> dict:
        """Consume the event stream until this experiment's terminal
        ``state`` event; returns that event's params."""
        for method, params in self.events:
            if method == "state" and params.get("experiment_id") == experiment_id:
                return params
        while True:
            message = self.read_message()
            self._dispatch_event(message)
            method, params = self.events[-1] if self.events else (None, {})
            if method == "state" and params.get("experiment_id") == experiment_id:
                return params


def connect(host: str = "127.0.0.1", port: int = 0, **kwargs) -> ServiceClient:
    """Connect and complete the handshake in one call."""
    client = ServiceClient(host, port, **kwargs)
    client.connect()
    try:
        client.hello()
    except BaseException:
        client.close()
        raise
    return client


# ---------------------------------------------------------------------------
# Module entry point: the CI smoke job's round-trip tool.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Submit one experiment to a running evaluation service "
        "and write its result records as JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--languages", default=None, help="comma-separated language names")
    parser.add_argument("--models", default=None, help="comma-separated model uids")
    parser.add_argument("--kernels", default=None, help="comma-separated kernel names")
    parser.add_argument("--shards", type=int, default=None)
    parser.add_argument("--json", default=None, metavar="PATH", help="write records here")
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--quiet", action="store_true", help="no progress on stderr")
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="ask the server to shut down gracefully when done "
        "(alone: just shut the server down)",
    )
    return parser


def _csv(value: str | None) -> list[str] | None:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    submit_anything = any(
        value is not None
        for value in (args.seed, args.languages, args.models, args.kernels, args.json)
    )

    def report(method: str, params: dict) -> None:
        if args.quiet:
            return
        if method == "progress":
            record = params.get("record", {})
            print(
                f"cell {params.get('done')}/{params.get('total')}: "
                f"{record.get('model')}:{record.get('kernel')} "
                f"postfix={record.get('use_postfix')} score={record.get('score')}",
                file=sys.stderr,
            )
        elif method == "shard":
            snapshot = params.get("snapshot", {})
            print(
                f"shard {params.get('shards_done')}/{params.get('shards_total')} "
                f"({params.get('source')}): {snapshot.get('cells')} cells merged, "
                f"mean {snapshot.get('mean_score')}",
                file=sys.stderr,
            )

    client = ServiceClient(args.host, args.port, timeout=args.timeout, on_event=report)
    try:
        with client:
            client.hello()
            if not submit_anything:
                if args.shutdown:
                    client.shutdown()
                    return 0
                print("nothing to do: give a spec (e.g. --languages) or --shutdown",
                      file=sys.stderr)
                return 2
            experiment = client.submit(
                seed=args.seed,
                languages=_csv(args.languages),
                models=_csv(args.models),
                kernels=_csv(args.kernels),
                shards=args.shards,
            )
            if not args.quiet:
                print(f"submitted {experiment}", file=sys.stderr)
            final = client.wait(experiment)
            payload = client.result(experiment)
            if args.shutdown:
                client.shutdown()
    except ServiceError as err:
        print(f"service error {err.code}: {err.message}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as err:
        print(f"connection failed: {err}", file=sys.stderr)
        return 1
    records = payload.get("records", [])
    if args.json is not None:
        # Written through the same helper as `run --json`, so a complete
        # experiment's file is byte-identical to the unsharded run's.
        from repro.harness.io import save_records_json

        save_records_json(records, args.json)
    else:
        print(json.dumps(records, indent=2, sort_keys=True))
    state = final.get("state")
    if not args.quiet:
        quarantined = payload.get("quarantined", [])
        detail = f", {len(quarantined)} shard(s) quarantined" if quarantined else ""
        print(f"experiment {experiment} {state}{detail}", file=sys.stderr)
    if state == "done":
        return 0
    if state == "degraded":
        return EXIT_DEGRADED
    return EXIT_INCOMPLETE


if __name__ == "__main__":
    raise SystemExit(main())
