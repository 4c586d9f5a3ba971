"""The long-lived evaluation service: JSON-RPC 2.0 over NDJSON over TCP.

The step from "library + CLI" to "system serving traffic": a persistent
:class:`~repro.service.server.EvaluationServer` serves `ExperimentSpec`
submissions from many concurrent clients, streaming per-cell ``progress``
and per-shard ``shard`` events as evaluation lands.  See
``docs/protocol.md`` for the wire format and :mod:`repro.service.client`
for the blocking client (also the ``python -m repro.service.client``
round-trip tool).

Start a server with the CLI::

    repro-hpc-codex serve --port 7349 --result-store ./shards

or embed one (tests do this via :class:`~repro.service.server.ServerThread`)::

    from repro.service import ServerThread, connect

    with ServerThread(result_store=True) as handle:
        client = connect(port=handle.port)
        experiment = client.submit(languages=["julia"])
        client.wait(experiment)
"""

from repro.service.protocol import (  # noqa: F401
    ERR_HANDSHAKE_REQUIRED,
    ERR_NOT_FINISHED,
    ERR_QUEUE_FULL,
    ERR_SHUTTING_DOWN,
    ERR_UNKNOWN_EXPERIMENT,
    ERR_VERSION_MISMATCH,
    INTERNAL_ERROR,
    INVALID_PARAMS,
    INVALID_REQUEST,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    PROTOCOL_VERSION,
    ServiceError,
)

__all__ = [
    "ERR_HANDSHAKE_REQUIRED",
    "ERR_NOT_FINISHED",
    "ERR_QUEUE_FULL",
    "ERR_SHUTTING_DOWN",
    "ERR_UNKNOWN_EXPERIMENT",
    "ERR_VERSION_MISMATCH",
    "EvaluationServer",
    "INTERNAL_ERROR",
    "INVALID_PARAMS",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "PARSE_ERROR",
    "PROTOCOL_VERSION",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "connect",
]


def __getattr__(name: str):
    # The server pulls in the whole evaluation stack and the client is
    # socket-only; both stay import-lazy so `import repro.service` (e.g.
    # for the error-code constants) costs neither.
    if name in ("EvaluationServer", "ServerThread"):
        from repro.service import server

        return getattr(server, name)
    if name in ("ServiceClient", "connect"):
        from repro.service import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
