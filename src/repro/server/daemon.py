"""The long-lived asyncio analysis daemon.

:class:`AnalysisServer` listens on a unix or TCP socket, greets every
connection with a protocol-version hello frame, and serves the
length-prefixed JSON protocol of :mod:`repro.server.protocol` over one
warm :class:`~repro.server.service.AnalysisService`:

* **fast ops** (``ping``, ``protocol_version``, ``cache_stats``,
  ``shutdown``) are answered inline on the event loop;
* **heavy ops** (``analyze``, ``reanalyze``) are scheduled onto a bounded
  :class:`~concurrent.futures.ThreadPoolExecutor` so the loop keeps
  multiplexing other clients while an analysis runs, wrapped in a
  per-request timeout that turns into a structured ``timeout`` error
  response instead of a dropped connection.  (A timed-out analysis thread
  runs to completion in the background — Python threads cannot be
  interrupted — and its stats still merge into the lifetime totals; only
  the response is abandoned.)

Connections are handled sequentially per peer: frames pipelined on one
socket are answered in order, so responses are never interleaved.  A peer
that disconnects mid-request costs nothing but the abandoned response.

**Graceful shutdown** (the ``shutdown`` op, or SIGINT/SIGTERM in
:meth:`AnalysisServer.run`): the listener closes immediately, new
``analyze``/``reanalyze`` frames on surviving connections get a
``shutting_down`` error, in-flight requests drain (bounded by
``drain_timeout``), the service flushes its persistent store (if any),
and only then does the process exit.

For embedding — the protocol tests, notebooks — use
:meth:`AnalysisServer.start_background`, which runs the same event loop on
a daemon thread and blocks until the socket is listening.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Optional, Tuple

from ..analysis.limits import DEFAULT_LIMITS, AnalysisLimits
from ..cache.backend import CacheConfig
from ..faults import FaultPlan, current_fault_plan, fault_fire, install_fault_plan
from . import protocol
from .protocol import (
    DEFAULT_MAX_FRAME,
    ERR_BAD_REQUEST,
    ERR_FRAME_TOO_LARGE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
    ERR_UNKNOWN_COMMAND,
    PROTOCOL_VERSION,
    SERVER_NAME,
    FrameTooLarge,
    ProtocolError,
    TruncatedFrame,
    error_response,
    ok_response,
)
from .service import AnalysisService, RequestError

#: Every op the daemon answers (the protocol suite pins this vocabulary).
KNOWN_OPS = (
    "ping",
    "protocol_version",
    "health",
    "analyze",
    "reanalyze",
    "cache_stats",
    "metrics",
    "shutdown",
)

#: Ops dispatched to the worker pool under the request timeout.
HEAVY_OPS = ("analyze", "reanalyze")

logger = logging.getLogger("repro.server.daemon")


@dataclass(frozen=True)
class ServerConfig:
    """Where and how the daemon serves.

    Exactly one of ``socket_path`` (unix domain socket) or ``host``
    (TCP; ``port=0`` binds an ephemeral port, readable off
    ``AnalysisServer.endpoint`` once ready) must be set.
    """

    socket_path: Optional[str] = None
    host: Optional[str] = None
    port: int = 0
    #: Analysis worker threads.  The service serializes actual analysis
    #: (the interned domain is process-global), so this bounds how many
    #: requests may be *admitted* concurrently, not parallel compute.
    workers: int = 1
    #: Default per-request wall-clock budget for heavy ops, seconds.  A
    #: request may lower it with its own ``timeout`` field, never raise it.
    #: ``None`` disables the server-side cap.
    request_timeout: Optional[float] = 300.0
    #: Largest accepted/emitted frame payload, bytes.
    max_frame: int = DEFAULT_MAX_FRAME
    #: How long graceful shutdown waits for in-flight requests, seconds.
    drain_timeout: float = 30.0
    #: Requests slower than this are logged at WARNING and counted under
    #: ``server.slow_requests_total``; ``None`` disables the slow log.
    slow_request_threshold: Optional[float] = 5.0
    #: Backpressure: heavy requests beyond this many simultaneously admitted
    #: are *shed* with a structured, retryable ``overloaded`` error instead
    #: of being queued without bound.  Fast ops (ping, health, metrics, ...)
    #: always answer.  ``None`` or ``0`` disables shedding.
    max_inflight: Optional[int] = 64
    #: A validated fault plan installed process-wide at startup — the chaos
    #: hook for exercising ``server.frame`` drops and cache-tier faults in a
    #: live daemon.  ``None`` (the default) injects nothing and costs one
    #: pointer check per injection site.
    faults: Optional[FaultPlan] = None
    limits: AnalysisLimits = DEFAULT_LIMITS
    #: Persistent-store config (``--cache-dir``); ``None`` → no store: the
    #: in-memory transfer memo stays warm across requests, gone with the
    #: daemon.
    cache: Optional[CacheConfig] = field(default=None)

    def validated(self) -> "ServerConfig":
        if bool(self.socket_path) == bool(self.host):
            raise ValueError(
                "configure exactly one endpoint: socket_path (unix) or host/port (tcp)"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_frame < protocol.HEADER.size:
            raise ValueError("max_frame is too small to carry any payload")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        if self.slow_request_threshold is not None and self.slow_request_threshold <= 0:
            raise ValueError("slow_request_threshold must be positive (or None)")
        if self.max_inflight is not None and self.max_inflight < 0:
            raise ValueError("max_inflight must be >= 0 (0/None disables shedding)")
        if self.faults is not None:
            self.faults.validated()
        return self


class AnalysisServer:
    """One daemon: a listening socket over one warm :class:`AnalysisService`."""

    def __init__(self, config: ServerConfig, service: Optional[AnalysisService] = None):
        self.config = config.validated()
        self.service = service or AnalysisService(
            limits=self.config.limits, cache=self.config.cache
        )
        #: ``("unix", path)`` or ``("tcp", host, port)`` once listening.
        self.endpoint: Optional[Tuple] = None
        self._ready = threading.Event()
        self._finished = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: set = set()
        self._inflight = 0
        self._drained: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        #: The service's lifetime registry; the daemon records the
        #: transport-level metrics (per-op counters/latencies, connection
        #: and in-flight gauges, bytes) into the same place the warm suite
        #: runs land their workload histograms.
        self.metrics = self.service.metrics
        # Pre-register the level gauges so a scrape always reports them,
        # even before the first heavy request or connection.
        self.metrics.gauge("server.connections")
        self.metrics.gauge("server.inflight")
        self.metrics.gauge("server.queue_depth")
        self.metrics.counter("server.shed_total")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until a ``shutdown`` request (or SIGINT/SIGTERM) — blocking."""
        try:
            asyncio.run(self._main())
        finally:
            self._finished.set()

    def start_background(self) -> "AnalysisServer":
        """Run the daemon on a background thread; returns once listening."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.run, name="repro-analysis-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("analysis server did not start listening within 30s")
        return self

    def request_stop(self) -> None:
        """Trigger graceful shutdown from any thread (idempotent)."""
        loop, stopping = self._loop, self._stopping
        if loop is not None and stopping is not None and not loop.is_closed():
            loop.call_soon_threadsafe(stopping.set)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the daemon to finish; True when it has."""
        finished = self._finished.wait(timeout=timeout)
        if self._thread is not None and finished:
            self._thread.join(timeout=timeout)
        return finished

    # ------------------------------------------------------------------
    # event-loop body
    # ------------------------------------------------------------------

    async def _main(self) -> None:
        if self.config.faults is not None and current_fault_plan() is None:
            # Chaos mode: the plan is process-global, so it reaches the
            # cache tier and warm suite runs inside worker threads too.
            install_fault_plan(self.config.faults)
            logger.warning(
                "fault injection active: %s", "; ".join(self.config.faults.describe())
            )
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-analysis"
        )
        with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
            # Signal handlers only exist on the main thread of the main
            # interpreter; background-thread servers rely on request_stop().
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(signum, self._stopping.set)

        if self.config.socket_path:
            path = self.config.socket_path
            with contextlib.suppress(OSError):
                os.unlink(path)  # a stale socket file from a dead daemon
            server = await asyncio.start_unix_server(self._handle_connection, path=path)
            self.endpoint = ("unix", path)
        else:
            server = await asyncio.start_server(
                self._handle_connection, host=self.config.host, port=self.config.port
            )
            bound = server.sockets[0].getsockname()
            self.endpoint = ("tcp", bound[0], bound[1])
        logger.info("listening on %s", self.endpoint)
        self._ready.set()

        try:
            async with server:
                await self._stopping.wait()
                # Graceful drain: stop accepting, let in-flight work finish.
                logger.info("draining: %d in-flight request(s)", self._inflight)
                server.close()
                await server.wait_closed()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._drained.wait(), timeout=self.config.drain_timeout
                    )
                if self._inflight:
                    logger.warning(
                        "drain timeout: abandoning %d in-flight request(s)",
                        self._inflight,
                    )
        finally:
            for writer in list(self._connections):
                with contextlib.suppress(Exception):
                    writer.close()
            self._executor.shutdown(wait=False)
            # Flush the persistent store *after* the executor stops taking
            # work; close() takes the service lock, so it also waits out a
            # straggler analysis thread instead of racing it.
            self.service.close()
            if self.endpoint and self.endpoint[0] == "unix":
                with contextlib.suppress(OSError):
                    os.unlink(self.endpoint[1])

    async def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, Any]
    ) -> None:
        """Write one frame and account its bytes under ``server.bytes_sent_total``."""
        sent = await protocol.write_frame(writer, message, self.config.max_frame)
        self.metrics.counter("server.bytes_sent_total").inc(sent)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        max_frame = self.config.max_frame
        self._connections.add(writer)
        connections = self.metrics.gauge("server.connections")
        connections.inc()
        self.metrics.counter("server.connections_total").inc()
        received = self.metrics.counter("server.bytes_received_total")
        logger.debug("connection opened (%d live)", len(self._connections))
        try:
            await self._send(writer, protocol.hello(self.config.workers, max_frame))
            while True:
                try:
                    message, nbytes = await protocol.read_frame_sized(reader, max_frame)
                    received.inc(nbytes)
                except FrameTooLarge as error:
                    # The declared length alone is disqualifying; the body
                    # was never read, so the stream cannot be re-synced.
                    logger.warning("dropping connection: %s", error)
                    await self._send(
                        writer,
                        error_response(
                            None,
                            ERR_FRAME_TOO_LARGE,
                            str(error),
                            declared=error.declared,
                            limit=error.limit,
                        ),
                    )
                    break
                except TruncatedFrame as error:
                    logger.debug("peer vanished mid-frame: %s", error)
                    break  # nothing left to answer
                except ProtocolError as error:
                    # Framing is intact — the payload was just not a JSON
                    # object.  Answer structurally and keep the connection.
                    logger.warning("bad frame payload: %s", error)
                    await self._send(
                        writer, error_response(None, protocol.ERR_BAD_FRAME, str(error))
                    )
                    continue
                if message is None:
                    break  # clean EOF
                rule = fault_fire("server.frame", str(message.get("op")))
                if rule is not None and rule.kind == "drop":
                    # Injected connection drop: hang up after reading the
                    # request, before any response — the client sees a clean
                    # EOF, exactly what a daemon restart looks like.  Counted
                    # here directly (suite-side export skips server.* sites).
                    self.metrics.counter(
                        "faults.injected_total", site="server.frame", kind="drop"
                    ).inc()
                    logger.warning(
                        "injected connection drop (op=%r id=%r)",
                        message.get("op"),
                        message.get("id"),
                    )
                    break
                response, action = await self._dispatch(message)
                try:
                    await self._send(writer, response)
                except FrameTooLarge as error:
                    logger.error(
                        "response for id=%r exceeds the frame limit: %s",
                        message.get("id"),
                        error,
                    )
                    await self._send(
                        writer,
                        error_response(
                            message.get("id"),
                            ERR_INTERNAL,
                            f"response exceeds the frame limit: {error}",
                        ),
                    )
                if action == "shutdown":
                    logger.info("shutdown requested by peer")
                    self._stopping.set()
                    break
        except (ConnectionResetError, BrokenPipeError, TruncatedFrame) as error:
            # Peer went away; the daemon stays healthy.
            logger.debug("connection lost: %s: %s", type(error).__name__, error)
        finally:
            connections.dec()
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            logger.debug("connection closed (%d live)", len(self._connections))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, message: Dict[str, Any]) -> Tuple[Dict[str, Any], Optional[str]]:
        """Route one request, with per-op accounting around the real dispatch.

        Every request — known or not — lands in ``server.requests_total``
        and ``server.request_seconds`` under its op label (``unknown`` for
        an unrecognized or missing op), counted *before* dispatch so a
        ``metrics`` scrape's own request is visible in its own response.
        Failures add ``server.errors_total``; anything over the configured
        slow-request threshold is logged at WARNING and counted.
        """
        op = message.get("op")
        op_label = op if isinstance(op, str) and op in KNOWN_OPS else "unknown"
        self.metrics.counter("server.requests_total", op=op_label).inc()
        started = time.perf_counter_ns()
        response, action = await self._dispatch_inner(message)
        elapsed = (time.perf_counter_ns() - started) / 1e9
        self.metrics.histogram("server.request_seconds", op=op_label).observe(elapsed)
        if response.get("ok") is not True:
            self.metrics.counter("server.errors_total", op=op_label).inc()
        threshold = self.config.slow_request_threshold
        if threshold is not None and elapsed >= threshold:
            self.metrics.counter("server.slow_requests_total", op=op_label).inc()
            logger.warning(
                "slow request: op=%s id=%r took %.3fs (threshold %.3gs)",
                op_label,
                message.get("id"),
                elapsed,
                threshold,
            )
        return response, action

    async def _dispatch_inner(
        self, message: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        request_id = message.get("id")
        op = message.get("op")
        if not isinstance(op, str):
            return (
                error_response(
                    request_id, ERR_BAD_REQUEST, 'request must carry an "op" string'
                ),
                None,
            )
        if op == "ping":
            return ok_response(request_id, pong=True), None
        if op == "health":
            return self._health_response(request_id), None
        if op == "protocol_version":
            return (
                ok_response(
                    request_id,
                    server=SERVER_NAME,
                    protocol=PROTOCOL_VERSION,
                    ops=list(KNOWN_OPS),
                ),
                None,
            )
        if op == "shutdown":
            return (
                ok_response(
                    request_id,
                    stopping=True,
                    requests_served=self.service.requests_served,
                    inflight=self._inflight,
                ),
                "shutdown",
            )
        if op == "cache_stats":
            return ok_response(request_id, **self.service.cache_stats()), None
        if op == "metrics":
            return ok_response(request_id, **self.service.metrics_payload()), None
        if op in HEAVY_OPS:
            return await self._dispatch_heavy(request_id, op, message), None
        return (
            error_response(
                request_id,
                ERR_UNKNOWN_COMMAND,
                f"unknown op {op!r}",
                known=list(KNOWN_OPS),
            ),
            None,
        )

    def _health_response(self, request_id: Any) -> Dict[str, Any]:
        """Liveness + load in one cheap frame, answered even under overload.

        ``status`` summarizes for probes: ``draining`` once shutdown began,
        ``degraded`` while the persistent cache tier has tripped its circuit
        breaker, ``ok`` otherwise.  The rest is the raw admission state a
        backoff-aware client or load balancer wants.
        """
        draining = self._stopping is not None and self._stopping.is_set()
        cache_degraded = bool(getattr(self.service.cache, "degraded", False))
        status = "draining" if draining else ("degraded" if cache_degraded else "ok")
        return ok_response(
            request_id,
            status=status,
            ready=not draining,
            inflight=self._inflight,
            queue_depth=max(0, self._inflight - self.config.workers),
            max_inflight=self.config.max_inflight,
            workers=self.config.workers,
            cache_degraded=cache_degraded,
            shed_total=int(self.metrics.counter("server.shed_total").value),
            requests_served=self.service.requests_served,
        )

    async def _dispatch_heavy(
        self, request_id: Any, op: str, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self._stopping.is_set():
            return error_response(
                request_id, ERR_SHUTTING_DOWN, "server is draining; not accepting work"
            )
        max_inflight = self.config.max_inflight
        if max_inflight and self._inflight >= max_inflight:
            # Load shedding: beyond the admission cap, refuse cheaply and
            # structurally *before* touching the executor — the client's
            # backoff loop owns the retry, not a server-side queue.
            self.metrics.counter("server.shed_total").inc()
            logger.warning(
                "shedding op=%s id=%r: %d in-flight >= max_inflight=%d",
                op,
                request_id,
                self._inflight,
                max_inflight,
            )
            return error_response(
                request_id,
                ERR_OVERLOADED,
                f"server is at its admission limit ({max_inflight} in-flight); retry",
                max_inflight=max_inflight,
                inflight=self._inflight,
                retryable=True,
            )
        timeout = self.config.request_timeout
        requested = message.get("timeout")
        if requested is not None:
            if not isinstance(requested, (int, float)) or requested <= 0:
                return error_response(
                    request_id, ERR_BAD_REQUEST, "timeout must be a positive number"
                )
            timeout = min(timeout, requested) if timeout is not None else float(requested)
        handlers = {
            "analyze": self.service.analyze,
            "reanalyze": self.service.reanalyze,
        }
        handler = handlers[op]
        self._inflight += 1
        self._drained.clear()
        # Admission accounting: requests beyond the worker count sit in the
        # executor's queue, so queue depth is the in-flight overflow.
        self.metrics.gauge("server.inflight").set(self._inflight)
        self.metrics.gauge("server.queue_depth").set(
            max(0, self._inflight - self.config.workers)
        )
        try:
            payload = await asyncio.wait_for(
                self._loop.run_in_executor(self._executor, partial(handler, message)),
                timeout=timeout,
            )
        except asyncio.TimeoutError:
            logger.warning(
                "request timeout: op=%s id=%r exceeded %.3gs", op, request_id, timeout
            )
            return error_response(
                request_id,
                ERR_TIMEOUT,
                f"{op} exceeded its {timeout:g}s budget",
                timeout=timeout,
            )
        except RequestError as error:
            logger.info("bad request: op=%s id=%r: %s", op, request_id, error)
            return error_response(request_id, ERR_BAD_REQUEST, str(error))
        except Exception as error:  # noqa: BLE001 - surfaced to the client
            logger.exception("internal error serving op=%s id=%r", op, request_id)
            return error_response(
                request_id, ERR_INTERNAL, f"{type(error).__name__}: {error}"
            )
        finally:
            self._inflight -= 1
            self.metrics.gauge("server.inflight").set(self._inflight)
            self.metrics.gauge("server.queue_depth").set(
                max(0, self._inflight - self.config.workers)
            )
            if self._inflight == 0:
                self._drained.set()
        return ok_response(request_id, **payload)


def run_server(config: ServerConfig) -> int:
    """Blocking CLI entry: serve until shutdown; returns an exit status."""
    server = AnalysisServer(config)
    server.run()
    return 0
