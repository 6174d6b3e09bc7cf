"""Benchmark-side spans on the repo's tracer, and their reduction to a layer table.

The benchmark's spans are ordinary :mod:`repro.obs.trace` events, recorded
into the installed :class:`~repro.obs.trace.Tracer`, whose args carry three
extra keys: the span's id, its parent's id and the op id shared by every
span of one op.  Ids are ``"<pid>.<n>"`` strings, so spans recorded by
forked shard workers, the daemon and CLI processes never collide with the
benchmark's own.  The tracer's timestamps come from ``CLOCK_MONOTONIC``,
which processes share, and forked shard workers ship their events home
through the suite runner's own trace shipping.

For the reduction a span is the tuple ``(id, parent, op, name, start, end,
counts)``, in seconds; ``counts`` is ``None`` or a flat ``{name: number}``
dict of work counters taken at the span's end.  The repo's own spans (the
events without the benchmark's ids) are skipped.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, Optional[str], Optional[str], str, float, float, Optional[Dict]]
Context = Tuple[Optional[str], Optional[str]]

#: Span args that link a span; the other args are its counts.
ID, PARENT, OP = "perfbench.id", "perfbench.parent", "perfbench.op"


class Links:
    """Opens the benchmark's spans on the installed tracer, and gives each
    its id, its parent (the innermost span open on the calling thread) and
    its op id.

    A thread with no open span uses :attr:`default`, the ``(op, parent)``
    pair the process runs under; a forked shard worker inherits its
    parent's, and the span its parent had open.
    """

    def __init__(self, default: Context = (None, None)) -> None:
        self.default = default
        #: When set, the op id of new spans (batch-cold sets it to the
        #: program being analyzed, since one shard span covers many ops).
        self.op: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[Tuple[Optional[str], str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _args(self, context: Optional[Context]) -> Dict:
        stack = self._stack()
        if context is not None:
            op, parent = context
        elif stack:
            op, parent = stack[-1]
        else:
            op, parent = self.default
        if self.op is not None:
            op = self.op
        return {ID: f"{os.getpid()}.{next(self._ids)}", PARENT: parent, OP: op}

    def _open(self, tracer, name: str, context: Optional[Context]):
        args = self._args(context)
        self._stack().append((args[OP], args[ID]))
        live = tracer.span(name, args)
        live.__enter__()
        return live, args

    def _close(self, live) -> None:
        live.__exit__(None, None, None)
        self._stack().pop()

    @contextmanager
    def span(self, name: str, context: Optional[Context] = None) -> Iterator[Dict]:
        """Record a span on the installed tracer, if there is one; yields
        its args, whose ``ID`` is the span's id (``None`` untraced).

        ``context`` forces the ``(op, parent)`` pair, for a span whose cause
        lives in another process.
        """
        from repro.obs.trace import current_tracer

        tracer = current_tracer()
        if tracer is None:
            yield {ID: None}
            return
        live, args = self._open(tracer, name, context)
        try:
            yield args
        finally:
            self._close(live)

    def wrap(
        self,
        function: Callable,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
        context: Optional[Callable] = None,
    ) -> Callable:
        """``function`` inside a span named ``name`` while a tracer is installed.

        ``before(args, kwargs)`` returns a state handed to ``after(args,
        kwargs, result, state)``, which returns the span's counts.
        ``context(args, kwargs)`` may return the ``(op, parent)`` pair.
        """
        from repro.obs.trace import current_tracer

        links = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            tracer = current_tracer()
            if tracer is None:
                return function(*args, **kwargs)
            live, span_args = links._open(
                tracer, name, context(args, kwargs) if context else None)
            try:
                state = before(args, kwargs) if before is not None else None
                result = function(*args, **kwargs)
                if after is not None:
                    span_args.update(after(args, kwargs, result, state))
                return result
            finally:
                links._close(live)

        return traced

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """Add a span that ran before the tracer was installed (a CLI
        process's import of ``repro.cli``)."""
        from repro.obs.trace import current_tracer

        current_tracer().absorb([{
            "name": name, "ph": "X", "ts": start_ns // 1000,
            "dur": (end_ns - start_ns) // 1000, "pid": os.getpid(),
            "tid": threading.get_ident(), "args": self._args(None),
        }])


def dump(tracer, directory: Path) -> None:
    """Write ``tracer``'s events to ``directory/spans-<pid>.jsonl``."""
    tracer.write_jsonl(str(Path(directory) / f"spans-{os.getpid()}.jsonl"))


def load_events(directory: Path) -> List[Dict]:
    """Every event the processes of a traced phase wrote to ``directory``."""
    events: List[Dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        events.extend(json.loads(line) for line in path.read_text().splitlines())
    return events


def spans_of(events: Iterable[Dict]) -> List[Span]:
    """The benchmark's spans among tracer events; the repo's own are skipped."""
    spans: List[Span] = []
    for event in events:
        args = event.get("args") or {}
        if event.get("ph") != "X" or ID not in args:
            continue
        counts = {key: value for key, value in args.items() if key not in (ID, PARENT, OP)}
        start = event["ts"] / 1e6
        spans.append((args[ID], args[PARENT], args[OP], event["name"], start,
                      start + event["dur"] / 1e6, counts or None))
    return spans


def layer_table(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span name, in seconds.

    A span's self time is the part of its interval that none of its child
    spans cover.  Where several such innermost spans run at once (two shard
    workers), each instant is split evenly between them, so the table adds
    up to the time covered by the root spans: wall time minus whatever ran
    outside every span.
    """
    by_id = {span[0]: span for span in spans}
    depth: Dict[str, int] = {}

    def depth_of(span_id: str) -> int:
        chain = []
        current: Optional[str] = span_id
        while current in by_id and current not in depth:
            chain.append(current)
            current = by_id[current][1]
        level = depth.get(current, -1) if current in by_id else -1
        for node in reversed(chain):
            level += 1
            depth[node] = level
        return depth[span_id]

    # Starts open parents before children; ends close children first.
    events = []
    for span in spans:
        level = depth_of(span[0])
        events.append((span[4], 1, level, span[0]))
        events.append((span[5], 0, -level, span[0]))
    events.sort()

    table: Dict[str, float] = {}
    active_children: Dict[str, int] = {}
    #: Spans that were counted under an open parent when they started.
    attached: set = set()
    leaves: set = set()
    previous: Optional[float] = None
    for moment, is_start, _, span_id in events:
        if previous is not None and leaves and moment > previous:
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                name = by_id[leaf][3]
                table[name] = table.get(name, 0.0) + share
        previous = moment
        parent = by_id[span_id][1]
        if is_start:
            active_children[span_id] = 0
            leaves.add(span_id)
            if parent in active_children:
                attached.add(span_id)
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            del active_children[span_id]
            leaves.discard(span_id)
            if span_id in attached and parent in active_children:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return table


def sum_counts(spans: Iterable[Span], name: str) -> Dict[str, float]:
    """The counts of every span named ``name``, added up key by key."""
    totals: Dict[str, float] = {}
    for span in spans:
        if span[3] == name and span[6]:
            for key, value in span[6].items():
                totals[key] = totals.get(key, 0) + value
    return totals


def total_time(spans: Iterable[Span], name: str) -> float:
    """Summed duration (not self time) of every span named ``name``."""
    return sum(span[5] - span[4] for span in spans if span[3] == name)
