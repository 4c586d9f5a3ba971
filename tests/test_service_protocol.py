"""Protocol-conformance suite for the evaluation service.

Drives a real :class:`~repro.service.server.EvaluationServer` over a real
TCP socket — no handler shortcuts — and pins the wire behaviour the
protocol doc promises: the versioned handshake (mismatch → typed error),
the JSON-RPC 2.0 error codes for malformed input, verbatim request-id
echo, and the exact notification framing — the latter byte-for-byte
against a golden NDJSON transcript.
"""

from __future__ import annotations

import json
import socket
from pathlib import Path

import pytest

from repro.dispatch import faults
from repro.service import protocol
from repro.service.server import ServerThread

GOLDEN = Path(__file__).parent / "golden" / "service_transcript.ndjson"


@pytest.fixture(scope="module")
def server():
    # One worker so "still running/queued" states are deterministic.
    with ServerThread(workers=1) as handle:
        yield handle


class RawConnection:
    """A socket speaking raw NDJSON lines — including malformed ones."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.file = self.sock.makefile("rb")

    def send_bytes(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send(self, message: dict) -> None:
        self.send_bytes(protocol.encode(message))

    def read(self) -> dict:
        line = self.file.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    def read_line(self) -> bytes:
        return self.file.readline()

    def request(self, method: str, params: dict | None = None, id=1) -> dict:
        """One request/response round trip (skipping any event lines)."""
        self.send(protocol.request(method, params, id))
        while True:
            message = self.read()
            if "id" in message:
                return message

    def hello(self) -> dict:
        return self.request(
            "hello",
            {"protocol_version": protocol.PROTOCOL_VERSION, "client": "conformance"},
            id="hello-1",
        )

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@pytest.fixture
def conn(server):
    connection = RawConnection(server.port)
    yield connection
    connection.close()


TINY_SPEC = {"seed": 7, "languages": ["julia"], "kernels": ["axpy"]}


@pytest.fixture()
def slow_shards(monkeypatch):
    """Hold every shard for 200 ms, so an experiment is still running when
    the next request lands even when warm memos make evaluation instant."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    faults.install([{"point": "worker.evaluate", "action": "hang", "arg": 0.2}])
    yield
    faults.reset()


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------

class TestHandshake:
    def test_hello_negotiates_version_and_session(self, conn):
        reply = conn.hello()
        assert reply["id"] == "hello-1"
        result = reply["result"]
        assert result["protocol_version"] == protocol.PROTOCOL_VERSION
        assert result["server"] == protocol.SERVER_NAME
        assert result["session_id"].startswith("s-")

    def test_version_mismatch_is_a_typed_error(self, conn):
        reply = conn.request(
            "hello", {"protocol_version": "0.9", "client": "old-client"}, id=5
        )
        assert reply["id"] == 5
        error = reply["error"]
        assert error["code"] == protocol.ERR_VERSION_MISMATCH
        assert error["data"] == {"server": protocol.PROTOCOL_VERSION, "client": "0.9"}
        # The connection survives a refused handshake: retry with the right
        # version on the same socket.
        assert "result" in conn.hello()

    def test_hello_without_version_is_invalid_params(self, conn):
        reply = conn.request("hello", {"client": "versionless"}, id=6)
        assert reply["error"]["code"] == protocol.INVALID_PARAMS

    def test_methods_before_hello_are_refused(self, conn):
        for method, params in (
            ("submit", {"spec": TINY_SPEC}),
            ("status", {"experiment_id": "exp-000001"}),
            ("shutdown", {}),
        ):
            reply = conn.request(method, params, id=method)
            assert reply["id"] == method
            assert reply["error"]["code"] == protocol.ERR_HANDSHAKE_REQUIRED

    def test_second_hello_is_refused(self, conn):
        conn.hello()
        reply = conn.request(
            "hello",
            {"protocol_version": protocol.PROTOCOL_VERSION, "client": "again"},
            id=2,
        )
        assert reply["error"]["code"] == protocol.ERR_HANDSHAKE_REQUIRED


# ---------------------------------------------------------------------------
# Envelope failures: the reserved JSON-RPC error codes
# ---------------------------------------------------------------------------

class TestEnvelopeErrors:
    def test_malformed_json_is_parse_error(self, conn):
        conn.send_bytes(b'{"jsonrpc": "2.0", "method": oops\n')
        reply = conn.read()
        assert reply["error"]["code"] == protocol.PARSE_ERROR
        assert reply["id"] is None

    def test_non_object_line_is_invalid_request(self, conn):
        conn.send_bytes(b"[1, 2, 3]\n")
        reply = conn.read()
        assert reply["error"]["code"] == protocol.INVALID_REQUEST
        assert reply["id"] is None

    def test_missing_jsonrpc_version_is_invalid_request(self, conn):
        conn.send_bytes(b'{"method": "hello", "id": 9}\n')
        reply = conn.read()
        assert reply["error"]["code"] == protocol.INVALID_REQUEST
        assert reply["id"] == 9

    def test_non_string_method_is_invalid_request(self, conn):
        conn.send_bytes(b'{"jsonrpc": "2.0", "method": 42, "id": 10}\n')
        reply = conn.read()
        assert reply["error"]["code"] == protocol.INVALID_REQUEST

    def test_unknown_method_is_method_not_found(self, conn):
        conn.hello()
        reply = conn.request("teleport", {}, id=11)
        assert reply["error"]["code"] == protocol.METHOD_NOT_FOUND
        assert "teleport" in reply["error"]["message"]

    def test_non_object_params_is_invalid_params(self, conn):
        conn.send_bytes(b'{"jsonrpc": "2.0", "method": "hello", "params": [1], "id": 12}\n')
        reply = conn.read()
        assert reply["error"]["code"] == protocol.INVALID_PARAMS

    def test_parse_error_does_not_kill_the_connection(self, conn):
        conn.send_bytes(b"not json at all\n")
        assert conn.read()["error"]["code"] == protocol.PARSE_ERROR
        assert "result" in conn.hello()


# ---------------------------------------------------------------------------
# Invalid submit params
# ---------------------------------------------------------------------------

class TestSubmitValidation:
    @pytest.mark.parametrize(
        "params",
        [
            {},  # no spec at all
            {"spec": "julia"},  # spec not an object
            {"spec": {"languages": "julia"}},  # not a list
            {"spec": {"languages": ["klingon"]}},  # unknown language
            {"spec": {"seeds": [1, 2]}},  # multi-seed
            {"spec": {"seeds": "7"}},  # seeds not a list
            {"spec": {"grid": "full"}},  # unknown field
            {"spec": TINY_SPEC, "shards": 0},  # non-positive shards
            {"spec": TINY_SPEC, "shards": "4"},  # non-int shards
            {"spec": {"seed": 7, "fingerprint": "deadbeef"}},  # config mismatch
        ],
        ids=[
            "no-spec", "spec-not-object", "languages-not-list", "unknown-language",
            "multi-seed", "seeds-not-list", "unknown-field", "zero-shards",
            "string-shards", "fingerprint-mismatch",
        ],
    )
    def test_bad_submit_is_invalid_params(self, conn, params):
        conn.hello()
        reply = conn.request("submit", params, id=20)
        assert reply["error"]["code"] == protocol.INVALID_PARAMS


# ---------------------------------------------------------------------------
# Request-id echo and experiment lifecycle errors
# ---------------------------------------------------------------------------

class TestRequestResponse:
    @pytest.mark.parametrize("request_id", ["abc-123", 0, 2**53, None])
    def test_request_id_is_echoed_verbatim(self, conn, request_id):
        conn.send(
            protocol.request(
                "hello",
                {"protocol_version": protocol.PROTOCOL_VERSION, "client": "echo"},
                request_id,
            )
        )
        reply = conn.read()
        assert "id" in reply
        assert reply["id"] == request_id

    def test_unknown_experiment_is_typed(self, conn):
        conn.hello()
        for method in ("status", "cancel", "result"):
            reply = conn.request(method, {"experiment_id": "exp-999999"}, id=method)
            assert reply["error"]["code"] == protocol.ERR_UNKNOWN_EXPERIMENT

    @pytest.mark.usefixtures("slow_shards")
    def test_result_before_terminal_state_is_refused(self, conn):
        conn.hello()
        # The module server has one worker: keep it busy so the second
        # experiment is deterministically queued when `result` arrives.
        first = conn.request("submit", {"spec": {"languages": ["julia"]}}, id=30)
        queued = conn.request("submit", {"spec": TINY_SPEC}, id=31)
        experiment = queued["result"]["experiment_id"]
        reply = conn.request("result", {"experiment_id": experiment}, id=32)
        assert reply["error"]["code"] == protocol.ERR_NOT_FINISHED
        assert reply["error"]["data"]["state"] == "queued"
        for response in (queued, first):
            conn.request(
                "cancel", {"experiment_id": response["result"]["experiment_id"]}, id=33
            )

    def test_notifications_have_no_id_and_responses_no_method(self, conn):
        conn.hello()
        submitted = conn.request("submit", {"spec": TINY_SPEC}, id=40)
        assert submitted["result"]["cells"] == 4
        experiment = submitted["result"]["experiment_id"]
        saw_events = set()
        while True:
            message = conn.read()
            assert message["jsonrpc"] == protocol.JSONRPC_VERSION
            assert "id" not in message, "unsolicited response in the event stream"
            assert ("result" in message) is False and ("error" in message) is False
            saw_events.add(message["method"])
            assert message["params"]["experiment_id"] == experiment
            if message["method"] == "state":
                break
        assert saw_events == {"progress", "shard", "state"}


# ---------------------------------------------------------------------------
# The golden transcript: notification framing, byte for byte
# ---------------------------------------------------------------------------

class TestGoldenTranscript:
    def test_transcript_is_byte_identical(self):
        """A fresh server's full hello/submit/stream/result interaction
        serialises to exactly the committed NDJSON transcript.

        This is the wire-format regression gate: any change to message
        framing, key order, field sets, id allocation or evaluation output
        shows up here as a byte diff — and must come with a protocol
        version bump and a regenerated golden file.
        """
        # A dedicated server: deterministic s-000001 / exp-000001 counters.
        with ServerThread() as handle:
            conn = RawConnection(handle.port)
            try:
                received = bytearray()

                def read_until(predicate):
                    while True:
                        line = conn.read_line()
                        assert line, "unexpected EOF"
                        received.extend(line)
                        if predicate(json.loads(line)):
                            return

                conn.send(
                    protocol.request(
                        "hello",
                        {
                            "protocol_version": protocol.PROTOCOL_VERSION,
                            "client": "conformance-suite",
                        },
                        1,
                    )
                )
                read_until(lambda m: m.get("id") == 1)
                conn.send(protocol.request("submit", {"spec": TINY_SPEC, "shards": 2}, 2))
                read_until(lambda m: m.get("id") == 2)
                read_until(lambda m: m.get("method") == "state")
                conn.send(protocol.request("result", {"experiment_id": "exp-000001"}, 3))
                read_until(lambda m: m.get("id") == 3)
            finally:
                conn.close()
        assert bytes(received) == GOLDEN.read_bytes()

    def test_transcript_lines_are_canonical_encoding(self):
        """Every golden line is its own parse-and-re-encode fixed point."""
        for line in GOLDEN.read_bytes().splitlines():
            assert protocol.encode(json.loads(line)) == line + b"\n"
