"""Span tracing over monotonic clocks, exported as Chrome trace events.

The tracer is a **flight recorder**: a process-global :class:`Tracer` that
instrumented code talks to through three module-level helpers —

* :func:`span` — a nestable context manager bracketing one named unit of
  work (an analysis pass, a solver visit, a cache flush, a codec decode);
* :func:`stopwatch` — a span that *also* reports its elapsed seconds on
  the context object, so call sites that need the wall time anyway (the
  suite runner's ``run*`` entry points) get one measurement for both the
  return value and the trace instead of hand-rolled ``perf_counter``
  bracketing;
* :func:`instant` — a zero-duration marker event.

**Disabled is the default and must stay near-free.**  Every helper reads
one module global; with no tracer installed it returns a shared no-op
context manager and records nothing — no allocation, no clock read (the
stopwatch still reads the clock, because its callers need the seconds
regardless).  ``benchmarks/work_counters.py`` records that no tracer is
installed after ``import repro.cli`` and counts the spans a traced
analysis records; tier-1 compares that file byte for byte, so a span
added inside a per-statement loop fails the build.

**Clocks and processes.**  Timestamps are ``time.perf_counter_ns()`` —
monotonic, unaffected by wall-clock steps.  On Linux it is
``CLOCK_MONOTONIC``, which forked shard workers share with the parent, so
worker spans land on the same timeline; each event carries its worker's
``pid``/``tid``, and the export labels every process, so Perfetto renders
the shard fan-out as parallel tracks.  Workers ship their events home in
the shard output dict (:meth:`Tracer.drain` / :meth:`Tracer.absorb`).

**Export.**  :meth:`Tracer.chrome_trace` emits the Chrome trace-event
JSON object format (``"X"`` complete events with microsecond ``ts`` /
``dur``), loadable in Perfetto and ``chrome://tracing``;
:meth:`Tracer.write_chrome` / :meth:`Tracer.write_jsonl` write the JSON
document / a one-event-per-line log.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Tracer",
    "current_tracer",
    "install_tracer",
    "instant",
    "span",
    "stopwatch",
    "tracing_enabled",
    "uninstall_tracer",
]


class _NullSpan:
    """The shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: records a complete ("X") event when it exits."""

    __slots__ = ("_tracer", "name", "args", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start_ns = 0

    def __enter__(self) -> "_Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._record(self.name, self._start_ns, time.perf_counter_ns(), self.args)
        return False


class Stopwatch:
    """A span that always measures; ``.seconds`` is set when the block exits.

    Used where the elapsed time is part of the *result* (suite reports),
    not just the trace: the clock is read whether or not a tracer is
    installed, and the event is recorded only when one is.  This is the
    single wall-clock bracketing helper the suite runner's entry points
    share, so their accounting cannot drift apart.
    """

    __slots__ = ("name", "args", "seconds", "_start_ns")

    def __init__(self, name: str, args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.args = args
        self.seconds = 0.0
        self._start_ns = 0

    def __enter__(self) -> "Stopwatch":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end_ns = time.perf_counter_ns()
        self.seconds = (end_ns - self._start_ns) / 1e9
        tracer = _ACTIVE
        if tracer is not None:
            tracer._record(self.name, self._start_ns, end_ns, self.args)
        return False


class Tracer:
    """Collects span events; thread-safe; exports Chrome trace JSON / JSONL."""

    def __init__(self):
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, args: Optional[Dict[str, Any]] = None) -> _Span:
        return _Span(self, name, args)

    def instant(self, name: str, args: Optional[Dict[str, Any]] = None) -> None:
        """A zero-duration marker event at now."""
        now_us = time.perf_counter_ns() // 1000
        event: Dict[str, Any] = {
            "name": name,
            "ph": "i",
            "ts": now_us,
            "s": "p",
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    def _record(
        self, name: str, start_ns: int, end_ns: int, args: Optional[Dict[str, Any]]
    ) -> None:
        event: Dict[str, Any] = {
            "name": name,
            "ph": "X",
            "ts": start_ns // 1000,
            "dur": max(0, end_ns - start_ns) // 1000,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
        }
        if args:
            event["args"] = dict(args)
        with self._lock:
            self._events.append(event)

    # ------------------------------------------------------------------
    # cross-process shipping
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Drop every recorded event (a forked worker clears its inherited copy)."""
        with self._lock:
            self._events.clear()

    def drain(self) -> List[Dict[str, Any]]:
        """Take (and clear) the recorded events — plain picklable dicts."""
        with self._lock:
            events = self._events
            self._events = []
        return events

    def absorb(self, events: List[Dict[str, Any]]) -> None:
        """Fold events another process drained into this tracer's timeline."""
        if not events:
            return
        with self._lock:
            self._events.extend(events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot copy of the recorded events."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON document (object format).

        Spans sort stably (ts, pid, tid) and every distinct pid gets a
        ``process_name`` metadata event — the parent as ``repro``, other
        pids as ``repro shard worker`` — so Perfetto labels the tracks.
        """
        events = sorted(
            self.events(), key=lambda e: (e.get("ts", 0), e.get("pid", 0), e.get("tid", 0))
        )
        own_pid = os.getpid()
        metadata: List[Dict[str, Any]] = []
        for pid in sorted({event["pid"] for event in events}):
            label = "repro" if pid == own_pid else "repro shard worker"
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{label} (pid {pid})"},
                }
            )
        return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the number of span events."""
        document = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return sum(1 for event in document["traceEvents"] if event["ph"] != "M")

    def write_jsonl(self, path: str) -> int:
        """Write one JSON event per line (append-friendly log form)."""
        events = sorted(
            self.events(), key=lambda e: (e.get("ts", 0), e.get("pid", 0), e.get("tid", 0))
        )
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
                handle.write("\n")
        return len(events)


#: The process-global tracer; ``None`` means tracing is disabled (default).
_ACTIVE: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-global tracer, creating one if needed."""
    global _ACTIVE
    if tracer is None:
        tracer = _ACTIVE if _ACTIVE is not None else Tracer()
    _ACTIVE = tracer
    return tracer


def uninstall_tracer() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was active (events intact)."""
    global _ACTIVE
    tracer = _ACTIVE
    _ACTIVE = None
    return tracer


def current_tracer() -> Optional[Tracer]:
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE is not None


def span(name: str, args: Optional[Dict[str, Any]] = None):
    """A span context manager — the shared no-op when tracing is disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, args)


def stopwatch(name: str, args: Optional[Dict[str, Any]] = None) -> Stopwatch:
    """A measuring span: ``.seconds`` is always set, the event only when tracing."""
    return Stopwatch(name, args)


def instant(name: str, args: Optional[Dict[str, Any]] = None) -> None:
    """Record a marker event (no-op when tracing is disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, args)
