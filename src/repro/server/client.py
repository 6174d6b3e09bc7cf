"""A small synchronous client for the analysis daemon.

:class:`AnalysisClient` owns one socket, performs the hello handshake
(refusing to talk across a :data:`~repro.server.protocol.PROTOCOL_VERSION`
mismatch), and exposes one method per server op.  It is what
``python -m repro client ...`` and the protocol test-suites build on —
deliberately synchronous, because callers are scripts and tests, not event
loops; concurrency is exercised by running many clients, each with its own
connection.

Requests are numbered per connection and responses are matched on the
echoed ``id``; :meth:`send` / :meth:`recv` are exposed separately for
callers that want to pipeline several frames before reading any response
(the server answers strictly in order per connection).

Error responses raise :class:`ServerError` carrying the structured
``code``/``message`` pair, so callers can tell a ``timeout`` from a
``bad_request`` without string-matching.
"""

from __future__ import annotations

import logging
import random
import socket
import time
from typing import Any, Dict, List, Optional, Tuple

from .protocol import (
    DEFAULT_MAX_FRAME,
    ERR_OVERLOADED,
    PROTOCOL_VERSION,
    ConnectionClosed,
    ProtocolError,
    TruncatedFrame,
    recv_frame,
    send_frame,
)


logger = logging.getLogger("repro.server.client")

#: Ops safe to re-send after a transport failure or an ``overloaded``
#: rejection: read-only ops plus ``analyze``, whose result is a pure
#: function of the request (re-running one costs compute, never
#: correctness).  ``reanalyze`` mutates warm invalidation state and
#: ``shutdown`` is one-shot — neither is retried.
IDEMPOTENT_OPS = frozenset(
    {"ping", "protocol_version", "health", "analyze", "cache_stats", "metrics"}
)

#: Transport failures worth a reconnect-and-retry: the connection died (or
#: was refused) in a way that cannot have half-applied an idempotent op.
TRANSPORT_ERRORS = (OSError, TruncatedFrame, ConnectionClosed)


class ServerError(RuntimeError):
    """The server answered with ``ok: false``."""

    def __init__(self, code: str, message: str, error: Dict[str, Any]):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        #: The full structured ``error`` object, details included.
        self.error = error


class ProtocolMismatch(RuntimeError):
    """The server speaks a different protocol version than this client."""


class AnalysisClient:
    """One connection to an analysis daemon (unix socket or TCP)."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 60.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        retries: int = 0,
        backoff: float = 0.05,
        deadline: Optional[float] = None,
    ):
        """``retries`` re-attempts of *idempotent* ops (see
        :data:`IDEMPOTENT_OPS`) after a transport failure or a retryable
        ``overloaded`` rejection, reconnecting between attempts and sleeping
        an exponentially growing, jittered ``backoff`` (seconds, doubling
        per attempt).  ``deadline`` bounds one logical request — including
        every retry and sleep — in wall-clock seconds; when sleeping again
        would bust it, the last failure is raised instead.  The default
        ``retries=0`` keeps the historical fail-fast behavior.
        """
        if bool(socket_path) == bool(host):
            raise ValueError(
                "configure exactly one endpoint: socket_path (unix) or host/port (tcp)"
            )
        if host and port is None:
            raise ValueError("a TCP endpoint needs a port")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff <= 0:
            raise ValueError("backoff must be positive")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (or None)")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self.max_frame = max_frame
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.deadline = deadline
        #: Lifetime count of re-attempts this client actually performed.
        self.retries_performed = 0
        self.hello: Optional[Dict[str, Any]] = None
        self._sock: Optional[socket.socket] = None
        self._next_id = 0
        # Seeded: chaos runs retry on a reproducible schedule; the jitter
        # exists to de-synchronize *distinct* clients, which construct
        # distinct generators and interleave differently.
        self._jitter = random.Random(0xC0FFEE)

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------

    def connect(self) -> Dict[str, Any]:
        """Connect and complete the hello handshake; returns the hello frame."""
        if self._sock is not None:
            return self.hello
        if self.socket_path:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            address: Any = self.socket_path
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            address = (self.host, self.port)
        sock.settimeout(self.timeout)
        try:
            sock.connect(address)
            hello = recv_frame(sock, self.max_frame)
        except (OSError, ProtocolError) as error:
            # The two ways a connect can legitimately fail: the transport
            # (refused, timed out, reset) or a garbled hello.  Anything else
            # propagates without the close — it is a bug, not a peer fault.
            logger.debug(
                "connect to %s failed: %s: %s", address, type(error).__name__, error
            )
            sock.close()
            raise
        if hello is None:
            sock.close()
            raise ConnectionClosed("server closed the connection before saying hello")
        if hello.get("protocol") != PROTOCOL_VERSION:
            sock.close()
            raise ProtocolMismatch(
                f"server speaks protocol {hello.get('protocol')!r}, "
                f"this client speaks {PROTOCOL_VERSION}"
            )
        self._sock = sock
        self.hello = hello
        logger.debug("connected to %s (protocol %s)", address, hello.get("protocol"))
        return hello

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError as error:
                # A socket that fails to close is already dead; note it
                # rather than masking whatever the caller was handling.
                logger.debug("error closing socket: %s", error)
            self._sock = None
            self.hello = None

    def __enter__(self) -> "AnalysisClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # framing
    # ------------------------------------------------------------------

    def send(self, op: str, **params: Any) -> int:
        """Send one request frame without waiting; returns its ``id``.

        Pair with :meth:`recv` to pipeline several requests on one
        connection — the server answers in order.
        """
        self.connect()
        self._next_id += 1
        request = {"id": self._next_id, "op": op}
        request.update(params)
        send_frame(self._sock, request, self.max_frame)
        return self._next_id

    def recv(self) -> Dict[str, Any]:
        """Read the next response frame."""
        if self._sock is None:
            raise ProtocolError("not connected")
        response = recv_frame(self._sock, self.max_frame)
        if response is None:
            raise ConnectionClosed("server closed the connection")
        return response

    def call(self, op: str, **params: Any) -> Dict[str, Any]:
        """One request/response round trip; returns the raw response."""
        request_id = self.send(op, **params)
        response = self.recv()
        if response.get("id") != request_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        return response

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """A round trip that raises :class:`ServerError` on ``ok: false``.

        With ``retries`` configured and ``op`` idempotent, a transport
        failure (connection refused/dropped/truncated) or an ``overloaded``
        rejection triggers reconnect-and-retry under exponential backoff
        with jitter, bounded by the client ``deadline``.  Every other error
        — and every error on a non-idempotent op — raises immediately.
        """
        if self.retries <= 0 or op not in IDEMPOTENT_OPS:
            return self._request_once(op, **params)
        deadline_at = (
            None if self.deadline is None else time.monotonic() + self.deadline
        )
        delay = self.backoff
        attempt = 0
        while True:
            try:
                return self._request_once(op, **params)
            except TRANSPORT_ERRORS as error:
                failure: Exception = error
                self.close()  # drop the broken socket; retry reconnects
            except ServerError as error:
                if error.code != ERR_OVERLOADED:
                    raise
                failure = error
            attempt += 1
            if attempt > self.retries:
                raise failure
            pause = delay * (0.5 + self._jitter.random())
            delay *= 2
            if deadline_at is not None and time.monotonic() + pause >= deadline_at:
                raise failure  # sleeping again would bust the deadline
            self.retries_performed += 1
            logger.warning(
                "retrying op=%s after %s: %s (attempt %d/%d, backoff %.3fs)",
                op,
                type(failure).__name__,
                failure,
                attempt,
                self.retries,
                pause,
            )
            time.sleep(pause)

    def _request_once(self, op: str, **params: Any) -> Dict[str, Any]:
        response = self.call(op, **params)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServerError(
                error.get("code", "unknown"), error.get("message", ""), error
            )
        return response

    # ------------------------------------------------------------------
    # one method per op
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def health(self) -> Dict[str, Any]:
        """The server's liveness/load snapshot (status, in-flight, shed count)."""
        return self.request("health")

    def protocol_version(self) -> Dict[str, Any]:
        return self.request("protocol_version")

    def analyze(
        self,
        workloads: Optional[List[str]] = None,
        programs: Optional[List[Dict[str, str]]] = None,
        depth: int = 4,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        params: Dict[str, Any] = {"depth": depth}
        if workloads is not None:
            params["workloads"] = list(workloads)
        if programs is not None:
            params["programs"] = list(programs)
        if timeout is not None:
            params["timeout"] = timeout
        return self.request("analyze", **params)

    def reanalyze(
        self,
        old_source: str,
        new_source: str,
        name: str = "program",
        verify: bool = False,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Dirty-seeded re-analysis of an edited program over the warm cache."""
        params: Dict[str, Any] = {
            "old_source": old_source,
            "new_source": new_source,
            "name": name,
            "verify": verify,
        }
        if timeout is not None:
            params["timeout"] = timeout
        return self.request("reanalyze", **params)

    def cache_stats(self) -> Dict[str, Any]:
        return self.request("cache_stats")

    def metrics(self) -> Dict[str, Any]:
        """The server's live metrics registry: its snapshot + tail tables."""
        return self.request("metrics")

    def shutdown(self) -> Dict[str, Any]:
        """Request graceful shutdown; the server responds, then stops."""
        return self.request("shutdown")


def endpoint_kwargs(
    socket_path: Optional[str], host: Optional[str], port: Optional[int]
) -> Dict[str, Any]:
    """Normalized endpoint kwargs shared by the CLI's serve/client commands."""
    if socket_path:
        return {"socket_path": socket_path}
    return {"host": host, "port": port}
