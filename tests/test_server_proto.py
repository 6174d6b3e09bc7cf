"""Protocol-level tests against a *real* running analysis daemon.

Every test talks to an actual :class:`repro.server.AnalysisServer`
listening on a unix socket — through the reusable
:class:`repro.server.AnalysisClient` where convenient, and through raw
sockets where the point is the bytes on the wire (the hello handshake,
malformed payloads, oversized frames).

The error-handling contract pinned here:

* a well-framed payload that is not a JSON object, or nests too deeply
  to decode → ``bad_frame`` response, connection **stays open** (framing
  is still in sync);
* a frame whose declared length exceeds the limit → ``frame_too_large``
  response, connection **closed** (the body was never read, so the
  stream cannot be re-synchronized);
* an unknown op → ``unknown_command`` carrying the known vocabulary,
  connection stays open;
* ``analyze`` responses are bit-identical (canonical encodings and the
  results digest) to an in-process :func:`repro.analysis.analyze_program`.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.analysis import analyze_program
from repro.server import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    SERVER_NAME,
    AnalysisClient,
    AnalysisServer,
    ServerConfig,
    ServerError,
)
from repro.server.daemon import KNOWN_OPS
from repro.server.protocol import (
    ERR_BAD_FRAME,
    ERR_BAD_REQUEST,
    ERR_FRAME_TOO_LARGE,
    ERR_TIMEOUT,
    ERR_UNKNOWN_COMMAND,
    HEADER,
    FrameTooLarge,
    decode_frame,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.sil.normalize import parse_and_normalize
from repro.sil.parser import MAX_NESTING_DEPTH
from repro.workloads.suite import ShardedSuiteRunner, source


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One warm daemon on a unix socket, shared by the whole module."""
    path = str(tmp_path_factory.mktemp("proto") / "analysis.sock")
    daemon = AnalysisServer(ServerConfig(socket_path=path)).start_background()
    yield daemon
    daemon.request_stop()
    assert daemon.join(timeout=10)


@pytest.fixture
def client(server):
    with AnalysisClient(socket_path=server.config.socket_path, timeout=30) as handle:
        yield handle


#: Runs a daemon in a fresh interpreter at the default recursion limit
#: (tier-1 raises it in ``conftest.py``) and sends one frame whose payload
#: nests 20,000 JSON arrays: about 40 KB, far under the frame cap, yet deep
#: enough to exhaust the decoder's recursion on every supported Python.
#: Then a ping on the same connection.  Prints both responses.
_DEEP_FRAME_CHECK = """
import json, socket, sys
from repro.server import AnalysisServer, ServerConfig
from repro.server.protocol import HEADER, recv_frame, send_frame

server = AnalysisServer(ServerConfig(socket_path=sys.argv[1])).start_background()
sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
sock.settimeout(30)
sock.connect(sys.argv[1])
recv_frame(sock)
payload = b"[" * 20000 + b"]" * 20000
sock.sendall(HEADER.pack(len(payload)) + payload)
responses = [recv_frame(sock)]
send_frame(sock, {"id": 1, "op": "ping"})
responses.append(recv_frame(sock))
sock.close()
server.request_stop()
assert server.join(timeout=30)
print(json.dumps(responses))
"""


def raw_connection(server) -> socket.socket:
    """A plain socket to the daemon, hello frame *not* yet consumed."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    sock.connect(server.config.socket_path)
    return sock


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"id": 7, "op": "ping", "note": "πath — ünïcode"}
        blob = encode_frame(message)
        assert decode_frame(blob[HEADER.size :]) == message

    def test_header_is_big_endian_payload_length(self):
        blob = encode_frame({"a": 1})
        (length,) = HEADER.unpack(blob[: HEADER.size])
        assert length == len(blob) - HEADER.size
        assert HEADER.format == ">I"

    def test_encode_rejects_oversized_payloads(self):
        with pytest.raises(FrameTooLarge) as excinfo:
            encode_frame({"blob": "x" * 64}, max_frame=16)
        assert excinfo.value.limit == 16
        assert excinfo.value.declared > 16


class TestHandshake:
    def test_hello_frame_on_connect(self, server):
        sock = raw_connection(server)
        try:
            hello = recv_frame(sock)
        finally:
            sock.close()
        assert hello["server"] == SERVER_NAME
        assert hello["protocol"] == PROTOCOL_VERSION
        assert hello["workers"] >= 1
        assert hello["max_frame"] == DEFAULT_MAX_FRAME

    def test_client_records_the_handshake(self, client):
        assert client.hello["protocol"] == PROTOCOL_VERSION

    def test_protocol_version_op(self, client):
        response = client.protocol_version()
        assert response["ok"] is True
        assert response["protocol"] == PROTOCOL_VERSION
        assert response["server"] == SERVER_NAME
        assert response["ops"] == list(KNOWN_OPS)

    def test_ping(self, client):
        assert client.ping() is True


class TestErrorHandling:
    def test_unknown_command_keeps_the_connection(self, client):
        response = client.call("frobnicate")
        assert response["ok"] is False
        assert response["error"]["code"] == ERR_UNKNOWN_COMMAND
        assert "analyze" in response["error"]["known"]
        # Same connection, next request: still served.
        assert client.ping() is True

    def test_request_without_op_is_bad_request(self, server):
        sock = raw_connection(server)
        try:
            assert recv_frame(sock)["server"] == SERVER_NAME
            send_frame(sock, {"id": 41})
            response = recv_frame(sock)
        finally:
            sock.close()
        assert response["ok"] is False
        assert response["id"] == 41
        assert response["error"]["code"] == ERR_BAD_REQUEST

    @pytest.mark.parametrize("payload", [b"{oops", b"[1, 2, 3]", b"\xff\xfe"])
    def test_malformed_payload_gets_bad_frame_and_survives(self, server, payload):
        sock = raw_connection(server)
        try:
            assert recv_frame(sock)["protocol"] == PROTOCOL_VERSION
            sock.sendall(HEADER.pack(len(payload)) + payload)
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == ERR_BAD_FRAME
            # Framing never desynchronized: the connection still works.
            send_frame(sock, {"id": 1, "op": "ping"})
            assert recv_frame(sock) == {"id": 1, "ok": True, "pong": True}
        finally:
            sock.close()

    def test_deeply_nested_payload_gets_bad_frame_and_survives(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", _DEEP_FRAME_CHECK, str(tmp_path / "deep.sock")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        rejected, pong = json.loads(done.stdout)
        assert rejected["ok"] is False
        assert rejected["error"]["code"] == ERR_BAD_FRAME
        assert "nests too deeply" in rejected["error"]["message"]
        assert pong == {"id": 1, "ok": True, "pong": True}

    def test_oversized_frame_is_rejected_and_the_connection_closed(self, server):
        sock = raw_connection(server)
        try:
            assert recv_frame(sock)["server"] == SERVER_NAME
            # The declared length alone condemns the frame — no body needed.
            sock.sendall(HEADER.pack(DEFAULT_MAX_FRAME + 1))
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == ERR_FRAME_TOO_LARGE
            assert response["error"]["declared"] == DEFAULT_MAX_FRAME + 1
            assert response["error"]["limit"] == DEFAULT_MAX_FRAME
            # ... after which the server hangs up: EOF.
            assert recv_frame(sock) is None
        finally:
            sock.close()

    def test_unknown_workload_is_bad_request(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.analyze(workloads=["no_such_workload"])
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert "no_such_workload" in excinfo.value.message

    def test_program_past_the_nesting_cap_is_bad_request(self, client):
        base = "program p\n\nprocedure main()\n  i: int\nbegin\n  i := 1\nend\n"
        # The assignment's value sits at tree level 3; each parenthesis adds one.
        parens = MAX_NESTING_DEPTH - 2
        past_cap = base.replace("i := 1", "i := " + "(" * parens + "1" + ")" * parens)
        with pytest.raises(ServerError) as excinfo:
            client.reanalyze(base, past_cap)
        assert excinfo.value.code == ERR_BAD_REQUEST
        assert excinfo.value.message.startswith("ParseError")
        assert f"maximum of {MAX_NESTING_DEPTH} levels" in excinfo.value.message
        # Same connection, next request: still served.
        assert client.health()["status"] == "ok"

    def test_timeout_is_a_structured_error(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.analyze(timeout=1e-6)
        assert excinfo.value.code == ERR_TIMEOUT
        # The connection survives a timed-out request.
        assert client.ping() is True


class TestAnalyzeIdentity:
    NAMES = ["dag_sharing", "add_and_reverse"]

    def test_analyze_matches_in_process_analysis(self, client):
        response = client.analyze(self.NAMES)
        assert response["ok"] is True
        assert not response["failures"]

        # Per-workload canonical encodings are bit-identical to a direct
        # in-process analyze_program (modulo the JSON wire round trip,
        # applied to both sides).
        for name in self.NAMES:
            program, info = parse_and_normalize(source(name, depth=4))
            local = analyze_program(program, info).canonical()
            assert response["results"][name] == json.loads(json.dumps(local))

        # And the digest matches the suite runner's own identity check.
        items = [(name, source(name, depth=4)) for name in self.NAMES]
        report = ShardedSuiteRunner(items, shards=1).run()
        assert response["results_digest"] == report.results_digest()

    def test_inline_programs_are_analyzed(self, client):
        text = source("dag_sharing", depth=4)
        response = client.analyze(
            workloads=[], programs=[{"name": "inline_dag", "source": text}]
        )
        program, info = parse_and_normalize(text)
        local = analyze_program(program, info).canonical()
        assert response["results"]["inline_dag"] == json.loads(json.dumps(local))
