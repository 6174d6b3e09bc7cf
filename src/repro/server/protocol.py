"""The analysis server's wire protocol: length-prefixed JSON frames.

Every message — in both directions — is one **frame**:

========  ==================================================================
bytes     meaning
========  ==================================================================
0..3      payload length ``N`` as an unsigned 32-bit big-endian integer
4..4+N-1  the payload: one UTF-8 JSON **object**
========  ==================================================================

Requests carry ``{"id": <int>, "op": <str>, ...params}``; responses echo
the ``id`` and carry either ``{"ok": true, ...payload}`` or
``{"ok": false, "error": {"code": <str>, "message": <str>}}``.  The server
sends one unsolicited **hello** frame immediately after accepting a
connection (``{"server": ..., "protocol": ...}``) — the protocol-version
handshake: a client that speaks a different :data:`PROTOCOL_VERSION` must
disconnect instead of issuing requests.

Frames larger than the negotiated maximum are rejected *before* the body
is read — the declared length alone condemns them — with a structured
``frame_too_large`` error response, after which the connection is closed
(an over-limit peer cannot be re-synchronized safely).  A well-framed
payload that fails to parse as a JSON object gets a ``bad_frame`` error
and the connection stays open: the framing layer is still in sync.

This module is transport-agnostic on purpose: the asyncio daemon
(:mod:`repro.server.daemon`) uses the ``read_frame``/``write_frame``
stream coroutines, the synchronous client (:mod:`repro.server.client`)
and the protocol tests use ``send_frame``/``recv_frame`` over plain
sockets, and both share the same ``encode_frame``/``decode_frame`` core.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Mapping, Optional, Tuple

#: Version of the frame layout + command vocabulary.  Bump on any change a
#: v(N-1) client could misinterpret; the hello handshake carries it.
PROTOCOL_VERSION = 1

#: Advertised in the hello frame so operators can tell apart whatever else
#: ends up listening on the socket.
SERVER_NAME = "repro-analysis-server"

#: Default cap on a single frame's payload, generous against the largest
#: canonical analyze response seen in the benches while still bounding a
#: hostile or corrupt length prefix to one allocation refusal.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

#: The 4-byte unsigned big-endian length prefix.
HEADER = struct.Struct(">I")

# Error codes carried in ``{"error": {"code": ...}}`` responses.
ERR_BAD_FRAME = "bad_frame"
ERR_FRAME_TOO_LARGE = "frame_too_large"
ERR_BAD_REQUEST = "bad_request"
ERR_UNKNOWN_COMMAND = "unknown_command"
ERR_TIMEOUT = "timeout"
ERR_SHUTTING_DOWN = "shutting_down"
ERR_OVERLOADED = "overloaded"
ERR_INTERNAL = "internal_error"


class ProtocolError(Exception):
    """A frame violated the protocol (bad header, bad JSON, not an object)."""


class TruncatedFrame(ProtocolError):
    """The connection died mid-frame — there is nothing left to resync with.

    Distinguished from a plain :class:`ProtocolError` (bad JSON inside an
    intact frame) because the correct reactions differ: a truncated frame
    means the peer is gone and the connection must be dropped, while a bad
    payload gets a structured ``bad_frame`` error response and the
    conversation continues.
    """


class ConnectionClosed(ProtocolError):
    """The peer closed the connection cleanly where a frame was expected.

    Raised by the client when the server hangs up *between* frames — a
    clean EOF, not a truncated one.  Split from :class:`TruncatedFrame`
    because a clean close is the signature of a dropped-but-healthy server
    (restart, idle reap) and is therefore safe to retry for
    idempotent requests, while a mid-frame truncation may have left a
    request half-processed.
    """


class FrameTooLarge(ProtocolError):
    """A frame declared a payload beyond the negotiated maximum."""

    def __init__(self, declared: int, limit: int):
        super().__init__(f"frame declares {declared} bytes; limit is {limit}")
        self.declared = declared
        self.limit = limit


def encode_frame(message: Mapping[str, Any], max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize one message into header + JSON payload bytes."""
    payload = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(payload) > max_frame:
        raise FrameTooLarge(len(payload), max_frame)
    return HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, Any]:
    """Parse one frame payload; raises :class:`ProtocolError` unless it is a JSON object."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame payload is not valid JSON: {error}") from None
    except RecursionError:
        # A frame well under the size cap can nest arrays deeper than the
        # decoder's recursion allows; the peer's input, not a daemon fault.
        raise ProtocolError("frame payload nests too deeply to decode") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


# ---------------------------------------------------------------------------
# asyncio stream transport (the daemon side)
# ---------------------------------------------------------------------------


async def read_frame_sized(
    reader: asyncio.StreamReader, max_frame: int = DEFAULT_MAX_FRAME
) -> Tuple[Optional[Dict[str, Any]], int]:
    """:func:`read_frame` plus the frame's wire size (header + payload).

    The size lets the daemon account bytes-received without re-encoding;
    ``(None, 0)`` on clean EOF before a header.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None, 0  # clean EOF between frames
        raise TruncatedFrame(
            f"connection closed mid-header ({len(error.partial)}/{HEADER.size} bytes)"
        ) from None
    (length,) = HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise TruncatedFrame(
            f"connection closed mid-frame ({len(error.partial)}/{length} bytes)"
        ) from None
    return decode_frame(payload), HEADER.size + length


async def read_frame(
    reader: asyncio.StreamReader, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[Dict[str, Any]]:
    """Read one frame from a stream; ``None`` on clean EOF before a header."""
    message, _size = await read_frame_sized(reader, max_frame)
    return message


async def write_frame(
    writer: asyncio.StreamWriter,
    message: Mapping[str, Any],
    max_frame: int = DEFAULT_MAX_FRAME,
) -> int:
    """Write one frame to a stream and drain it; returns its wire size."""
    data = encode_frame(message, max_frame)
    writer.write(data)
    await writer.drain()
    return len(data)


# ---------------------------------------------------------------------------
# blocking socket transport (the client side and the raw-socket tests)
# ---------------------------------------------------------------------------


def send_frame(
    sock: socket.socket,
    message: Mapping[str, Any],
    max_frame: int = DEFAULT_MAX_FRAME,
) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(message, max_frame))


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise TruncatedFrame(
                f"connection closed mid-read ({count - remaining}/{count} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[Dict[str, Any]]:
    """Read one frame from a blocking socket; ``None`` on clean EOF."""
    first = sock.recv(HEADER.size)
    if not first:
        return None
    header = first + (_recv_exactly(sock, HEADER.size - len(first)) if len(first) < HEADER.size else b"")
    (length,) = HEADER.unpack(header)
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    return decode_frame(_recv_exactly(sock, length))


# ---------------------------------------------------------------------------
# message builders
# ---------------------------------------------------------------------------


def hello(workers: int, max_frame: int) -> Dict[str, Any]:
    """The unsolicited greeting a server sends on every new connection."""
    return {
        "server": SERVER_NAME,
        "protocol": PROTOCOL_VERSION,
        "workers": workers,
        "max_frame": max_frame,
    }


def ok_response(request_id: Any, **payload: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"id": request_id, "ok": True}
    response.update(payload)
    return response


def error_response(
    request_id: Any, code: str, message: str, **details: Any
) -> Dict[str, Any]:
    error: Dict[str, Any] = {"code": code, "message": message}
    if details:
        error.update(details)
    return {"id": request_id, "ok": False, "error": error}
