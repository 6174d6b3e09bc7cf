"""The workload suite: SIL programs used by the examples, tests and benches.

* :data:`ADD_AND_REVERSE` — the paper's running example (Figure 7), extended
  with a ``build`` function so it is executable end to end.
* :data:`TREE_ADD` — recursive tree sum (the classic ``treeadd`` kernel).
* :data:`TREE_MIRROR` — the ``reverse`` procedure on its own (structure
  modification).
* :data:`TREE_COPY` — builds a fresh copy of a tree (allocation-heavy).
* :data:`BST_BUILD` — binary-search-tree insertion followed by a sum
  (a loop + data-dependent shape).
* :data:`LIST_WALK` — Figure 3's ``while l.left <> nil`` list walk.
* :data:`BITONIC_SORT` — bitonic sort over the leaves of a perfect binary
  tree (the divide-and-conquer call structure of the adaptive bitonic sort
  the paper's conclusion mentions).
* :data:`DAG_SHARING` / :data:`CYCLE_BUG` — programs that deliberately break
  the TREE discipline, used by the structure-verification bench/example.

Each program builds its own input structure inside ``main`` (parameterized
by a ``depth`` constant that callers rewrite via :func:`with_depth`), so the
whole pipeline — parse, analyze, parallelize, execute — runs without any
external input.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import re
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..faults import (
    InjectedWorkerCrash,
    current_fault_plan,
    fault_fire,
    fault_scope,
    injected_counts,
    install_fault_plan,
)
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, MetricsRegistry, latency_tails
from ..obs.trace import current_tracer, span, stopwatch
from ..sil import ast
from ..sil.normalize import parse_and_normalize
from ..sil.typecheck import TypeInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.context import AnalysisStats
    from ..analysis.engine import AnalysisResult
    from ..analysis.limits import AnalysisLimits
    from ..cache.backend import CacheConfig
    from ..faults import FaultPlan
    from .generators import Scenario

#: One shard's work order: (index, (name, source) pairs, limits, cache
#: config, fault plan, attempt, census).  ``attempt`` starts at 0
#: and counts up on every requeue of the same workloads after a worker
#: crash, bounding retries and giving the crash-injection site a fresh
#: deterministic draw per attempt.  ``census`` asks for each analyzed
#: program's parallelism-census row.
ShardPayload = Tuple[
    int,
    List[Tuple[str, str]],
    "AnalysisLimits",
    Optional["CacheConfig"],
    Optional["FaultPlan"],
    int,
    bool,
]

#: How many times the runner attempts a workload before abandoning it into
#: ``failures`` (the first run plus ``DEFAULT_MAX_ATTEMPTS - 1`` retries).
DEFAULT_MAX_ATTEMPTS = 3

#: Marker rewritten by :func:`with_depth` (a plain integer literal in the source).
_DEPTH_PATTERN = re.compile(r"\{DEPTH\}")

ADD_AND_REVERSE = """
program add_and_reverse

procedure main()
  root, lside, rside: handle
begin
  root := build({DEPTH});
  lside := root.left;
  rside := root.right;
  { PROGRAM POINT A }
  add_n(lside, 1);
  add_n(rside, -1);
  reverse(root)
end

procedure add_n(h: handle; n: int)
  l, r: handle
begin
  if h <> nil then
  begin
    h.value := h.value + n;
    l := h.left;
    r := h.right;
    { PROGRAM POINT B }
    add_n(l, n);
    add_n(r, n)
  end
end

procedure reverse(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    { PROGRAM POINT C }
    reverse(l);
    reverse(r);
    h.left := r;
    h.right := l
  end
end

function build(d: int): handle
  t, cl, cr: handle
begin
  t := nil;
  if d > 0 then
  begin
    t := new();
    t.value := d;
    cl := build(d - 1);
    cr := build(d - 1);
    t.left := cl;
    t.right := cr
  end
end
return (t)
"""

TREE_ADD = """
program tree_add

procedure main()
  root: handle; total: int
begin
  root := build({DEPTH});
  total := sum(root)
end

function sum(h: handle): int
  s, ls, rs: int; l, r: handle
begin
  s := 0;
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    ls := sum(l);
    rs := sum(r);
    s := h.value + ls + rs
  end
end
return (s)

function build(d: int): handle
  t, cl, cr: handle
begin
  t := nil;
  if d > 0 then
  begin
    t := new();
    t.value := 1;
    cl := build(d - 1);
    cr := build(d - 1);
    t.left := cl;
    t.right := cr
  end
end
return (t)
"""

TREE_MIRROR = """
program tree_mirror

procedure main()
  root: handle
begin
  root := build({DEPTH});
  mirror(root)
end

procedure mirror(h: handle)
  l, r: handle
begin
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    mirror(l);
    mirror(r);
    h.left := r;
    h.right := l
  end
end

function build(d: int): handle
  t, cl, cr: handle
begin
  t := nil;
  if d > 0 then
  begin
    t := new();
    t.value := d;
    cl := build(d - 1);
    cr := build(d - 1);
    t.left := cl;
    t.right := cr
  end
end
return (t)
"""

TREE_COPY = """
program tree_copy

procedure main()
  root, duplicate: handle
begin
  root := build({DEPTH});
  duplicate := copy(root)
end

function copy(h: handle): handle
  t, l, r, cl, cr: handle; v: int
begin
  t := nil;
  if h <> nil then
  begin
    t := new();
    v := h.value;
    t.value := v;
    l := h.left;
    r := h.right;
    cl := copy(l);
    cr := copy(r);
    t.left := cl;
    t.right := cr
  end
end
return (t)

function build(d: int): handle
  t, cl, cr: handle
begin
  t := nil;
  if d > 0 then
  begin
    t := new();
    t.value := d;
    cl := build(d - 1);
    cr := build(d - 1);
    t.left := cl;
    t.right := cr
  end
end
return (t)
"""

BST_BUILD = """
program bst_build

procedure main()
  root: handle; i, n, key, total: int
begin
  n := {DEPTH};
  root := new();
  root.value := n * 7919 mod (2 * n + 1);
  i := 1;
  while i < n do
  begin
    key := i * 7919 mod (2 * n + 1);
    insert(root, key);
    i := i + 1
  end;
  total := sum(root)
end

procedure insert(h: handle; key: int)
  child: handle; v: int
begin
  v := h.value;
  if key < v then
  begin
    child := h.left;
    if child = nil then
    begin
      child := new();
      child.value := key;
      h.left := child
    end
    else
      insert(child, key)
  end
  else
  begin
    child := h.right;
    if child = nil then
    begin
      child := new();
      child.value := key;
      h.right := child
    end
    else
      insert(child, key)
  end
end

function sum(h: handle): int
  s, ls, rs: int; l, r: handle
begin
  s := 0;
  if h <> nil then
  begin
    l := h.left;
    r := h.right;
    ls := sum(l);
    rs := sum(r);
    s := h.value + ls + rs
  end
end
return (s)
"""

LIST_WALK = """
program list_walk

procedure main()
  head, l: handle; n, count: int
begin
  n := {DEPTH};
  head := makelist(n);
  l := head;
  count := 0;
  while l.left <> nil do
  begin
    l := l.left;
    count := count + 1
  end
end

function makelist(n: int): handle
  t, rest: handle
begin
  t := nil;
  if n > 0 then
  begin
    t := new();
    t.value := n;
    rest := makelist(n - 1);
    t.left := rest
  end
end
return (t)
"""

BITONIC_SORT = """
program bitonic_sort

procedure main()
  root: handle
begin
  root := build({DEPTH}, 1);
  bisort(root, 1)
end

{ Bitonic sort over the leaves of a perfect binary tree: sort one half   }
{ ascending and the other descending (a bitonic sequence), then merge.   }
procedure bisort(t: handle; up: int)
  l, r: handle
begin
  l := t.left;
  if l <> nil then
  begin
    r := t.right;
    bisort(l, 1);
    bisort(r, 0);
    bimerge(t, up)
  end
end

{ Bitonic merge: compare-exchange corresponding leaves of the two halves, }
{ then merge each half recursively.                                        }
procedure bimerge(t: handle; up: int)
  l, r: handle
begin
  l := t.left;
  if l <> nil then
  begin
    r := t.right;
    cmpswap(l, r, up);
    bimerge(l, up);
    bimerge(r, up)
  end
end

{ Pairwise compare-exchange between corresponding leaves of two disjoint  }
{ subtrees of equal shape.                                                 }
procedure cmpswap(a, b: handle; up: int)
  al, ar, bl, br: handle; av, bv: int
begin
  al := a.left;
  if al = nil then
  begin
    av := a.value;
    bv := b.value;
    if up = 1 then
    begin
      if av > bv then
      begin
        a.value := bv;
        b.value := av
      end
    end
    else
    begin
      if av < bv then
      begin
        a.value := bv;
        b.value := av
      end
    end
  end
  else
  begin
    ar := a.right;
    bl := b.left;
    br := b.right;
    cmpswap(al, bl, up);
    cmpswap(ar, br, up)
  end
end

{ A perfect binary tree of the given depth whose leaves carry pseudo-     }
{ random values; internal nodes carry 0.                                   }
function build(d: int; seed: int): handle
  t, cl, cr: handle
begin
  t := new();
  if d <= 1 then
    t.value := seed * 7919 mod 104729
  else
  begin
    t.value := 0;
    cl := build(d - 1, seed * 2);
    cr := build(d - 1, seed * 2 + 1);
    t.left := cl;
    t.right := cr
  end
end
return (t)
"""

DAG_SHARING = """
program dag_sharing

procedure main()
  x, y, shared: handle
begin
  x := new();
  y := new();
  shared := new();
  shared.value := 42;
  x.left := shared;
  y.right := shared
end
"""

CYCLE_BUG = """
program cycle_bug

procedure main()
  root, child, grandchild: handle
begin
  root := new();
  child := new();
  grandchild := new();
  root.left := child;
  child.left := grandchild;
  grandchild.left := root
end
"""

SWAP_CHILDREN = """
program swap_children

procedure main()
  root, l, r: handle
begin
  root := build(3);
  l := root.left;
  r := root.right;
  root.left := r;
  root.right := l
end

function build(d: int): handle
  t, cl, cr: handle
begin
  t := nil;
  if d > 0 then
  begin
    t := new();
    t.value := d;
    cl := build(d - 1);
    cr := build(d - 1);
    t.left := cl;
    t.right := cr
  end
end
return (t)
"""

#: All named workloads.
WORKLOADS: Dict[str, str] = {
    "add_and_reverse": ADD_AND_REVERSE,
    "tree_add": TREE_ADD,
    "tree_mirror": TREE_MIRROR,
    "tree_copy": TREE_COPY,
    "bst_build": BST_BUILD,
    "list_walk": LIST_WALK,
    "bitonic_sort": BITONIC_SORT,
    "dag_sharing": DAG_SHARING,
    "cycle_bug": CYCLE_BUG,
    "swap_children": SWAP_CHILDREN,
}

#: Workloads whose ``main`` routine leaves the structure a TREE.
TREE_PRESERVING = (
    "add_and_reverse",
    "tree_add",
    "tree_mirror",
    "tree_copy",
    "bst_build",
    "list_walk",
    "bitonic_sort",
    "swap_children",
)


def with_depth(source: str, depth: int) -> str:
    """Substitute the ``{DEPTH}`` placeholder (tree depth / list length / key count)."""
    return _DEPTH_PATTERN.sub(str(depth), source)


def load(name: str, depth: int = 4) -> Tuple[ast.Program, TypeInfo]:
    """Parse, type check and normalize a named workload at the given depth."""
    try:
        source = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}") from None
    return parse_and_normalize(with_depth(source, depth))


def source(name: str, depth: int = 4) -> str:
    """The SIL source text of a named workload at the given depth."""
    return with_depth(WORKLOADS[name], depth)


class SuiteResult(Dict[str, "AnalysisResult"]):
    """``{name: AnalysisResult}`` for the workloads that analyzed successfully.

    Behaves exactly like the plain dict :func:`analyze_suite` used to
    return, with two extras:

    * ``failures`` — ``{name: exception}`` for every workload that failed to
      load or analyze.  One bad program no longer aborts the whole batch.
    * ``stats`` — the :class:`~repro.analysis.context.AnalysisStats` shared
      by every successful analysis in the batch.
    """

    def __init__(self, stats: "AnalysisStats"):
        super().__init__()
        self.failures: Dict[str, Exception] = {}
        self.stats = stats


def analyze_suite(
    names: Optional[Sequence[str]] = None,
    depth: int = 4,
    limits=None,
) -> SuiteResult:
    """Analyze a batch of named workloads against one shared analysis context.

    Each workload is loaded and analyzed against one shared memoized-transfer
    cache, one :class:`~repro.analysis.context.AnalysisStats` and the global
    interned path domain (the same :class:`~repro.analysis.engine.
    BatchAnalyzer` sharing :func:`repro.analysis.analyze_many` uses).  A
    workload that fails to load or analyze is recorded in
    ``result.failures`` — with its name and the exception — instead of
    aborting the rest of the batch.
    """
    from ..analysis.engine import BatchAnalyzer
    from ..analysis.limits import DEFAULT_LIMITS

    if names is None:
        names = list(WORKLOADS)
    batch = BatchAnalyzer(limits=limits if limits is not None else DEFAULT_LIMITS)
    results = SuiteResult(stats=batch.stats)
    for name in names:
        try:
            program, info = load(name, depth=depth)
            results[name] = batch.analyze(program, info)
        except Exception as error:  # noqa: BLE001 - surfaced per workload
            results.failures[name] = error
    return results


# ---------------------------------------------------------------------------
# Sharded batch analysis
# ---------------------------------------------------------------------------


def analyze_pairs(
    batch,
    pairs: List[Tuple[str, str]],
    shard: int = 0,
    attempt: int = 0,
    census: bool = False,
) -> Dict:
    """Analyze ``(name, source)`` pairs through a caller-provided batch.

    The single implementation of the per-shard analysis loop, shared by the
    forked shard workers (:func:`_analyze_shard`, which builds a fresh
    :class:`~repro.analysis.engine.BatchAnalyzer` per shard) and the
    long-lived analysis server (:mod:`repro.server`, which hands in a batch
    attached to its *warm* server-lifetime transfer cache).  Parses each
    source through the real front end and ships back canonical
    (process-independent, picklable) encodings — never live
    ``AnalysisResult`` objects, whose ``id()``-keyed recorders and interned
    domain values do not survive pickling meaningfully.

    All reported numbers are **deltas over this call**, not absolute
    process state, which is what makes the output additive across shards
    and across a server's requests:

    * ``stats`` — the growth of ``batch.stats`` counters during this call
      (identical to the absolute counters for a fresh batch).  The batch is
      flushed *before* the snapshot, so persistent write/eviction totals
      are included.
    * ``widening`` — a per-workload telemetry row: the widening-counter
      deltas attributable to that workload.  Because transfer-cache hits
      *replay* the widening counts captured at compute time, these deltas
      are exact — sharding or serving never loses or double-counts a
      widening event.
    * ``intern_tables`` — growth of this process's global interning tables
      while the call ran (fork workers inherit the parent's tables
      pre-populated, so absolute sizes would double-count the parent's
      interning).

    With ``census`` the output also carries ``census``: each analyzed
    program's :func:`~repro.parallel.oracle.parallelism_census` row,
    computed from the result just solved (see :func:`_census_row`).

    The caller keeps ownership of ``batch``: this flushes computed
    transfer deltas (one write batch per call) but never closes the
    persistent backend.

    Under an installed :class:`~repro.faults.FaultPlan`, each workload is
    a ``shard.workload`` injection site keyed ``"{name}@{attempt}"``: a
    ``slow`` rule sleeps before analyzing, a ``crash`` rule *poisons* the
    shard — the loop stops, computed deltas are still flushed, and the
    output carries ``crashed`` plus the ``pending`` (not yet analyzed)
    workload names for the parent runner to requeue.  Because the decision
    key carries the attempt, requeued work gets a fresh deterministic draw
    instead of crashing forever.
    """
    from ..analysis.pathset import intern_table_sizes

    clock = stopwatch("suite.shard", {"shard": shard, "workloads": len(pairs)})
    metrics = MetricsRegistry()
    with clock:
        tables_before = intern_table_sizes()
        counters_before = batch.stats.counters()
        injected_before = injected_counts()
        cache_tier = getattr(batch, "cache", None)
        quarantined_before = getattr(cache_tier, "quarantined", 0)
        backend_errors_before = getattr(cache_tier, "backend_errors", 0)
        results: Dict[str, Dict] = {}
        failures: Dict[str, str] = {}
        widening: Dict[str, Dict] = {}
        census_rows: Dict[str, Dict] = {}
        crashed: Optional[Dict[str, object]] = None
        pending: List[str] = []
        for position, (name, source_text) in enumerate(pairs):
            rule = fault_fire("shard.workload", f"{name}@{attempt}")
            if rule is not None:
                if rule.kind == "crash":
                    # Poison the shard: abandon this and every following
                    # workload.  Already-computed results and flushed cache
                    # deltas survive (the store is content-addressed), so
                    # the parent only requeues the pending tail.
                    crashed = {"workload": name, "kind": rule.kind, "attempt": attempt}
                    pending = [pair_name for pair_name, _ in pairs[position:]]
                    break
                if rule.kind == "slow":
                    time.sleep(rule.delay)
            before = batch.stats.widening_counters()
            pops_before = batch.stats.worklist_pops
            workload_clock = stopwatch("suite.workload", {"workload": name})
            try:
                with workload_clock:
                    with span("sil.parse", {"workload": name}):
                        program, info = parse_and_normalize(source_text)
                    result = batch.analyze(program, info)
                results[name] = result.canonical()
                if census:
                    census_rows[name] = _census_row(program, info, result)
                widening[name] = {
                    counter: batch.stats.widening_counters()[counter] - before[counter]
                    for counter in before
                }
                metrics.counter("suite.workloads_analyzed").inc()
                metrics.histogram("suite.workload_seconds", workload=name).observe(
                    workload_clock.seconds
                )
                # A deterministic companion to the wall-time histogram: the
                # solver pops attributable to this workload are a pure
                # function of the program + limits, so this histogram is
                # bit-identical between sharded and single-process runs —
                # the merge-determinism tests pin it.
                metrics.histogram(
                    "suite.workload_worklist_pops",
                    DEFAULT_COUNT_BUCKETS,
                    workload=name,
                ).observe(batch.stats.worklist_pops - pops_before)
            except Exception as error:  # noqa: BLE001 - surfaced per workload
                failures[name] = f"{type(error).__name__}: {error}"
                metrics.counter("suite.workloads_failed").inc()
        # Flush computed transfer deltas to the shared store (one write batch
        # per call) *before* snapshotting the counters, so the write/eviction
        # totals merge with the rest of the stats.
        batch.flush()
        counters_after = batch.stats.counters()
        # Recovery observability, reported as deltas over this call like
        # everything else so the numbers merge exactly across shards and
        # server requests.  Server-side sites (``server.*``) are excluded:
        # the daemon records those straight into its own registry.
        for (site, kind), count in injected_counts().items():
            if site.startswith("server."):
                continue
            delta = count - injected_before.get((site, kind), 0)
            if delta:
                metrics.counter("faults.injected_total", site=site, kind=kind).inc(
                    delta
                )
        if cache_tier is not None:
            quarantined = getattr(cache_tier, "quarantined", 0) - quarantined_before
            if quarantined:
                metrics.counter("cache.quarantined_total").inc(quarantined)
            backend_errors = (
                getattr(cache_tier, "backend_errors", 0) - backend_errors_before
            )
            if backend_errors:
                metrics.counter("cache.backend_errors_total").inc(backend_errors)
            if getattr(cache_tier, "degraded", False):
                metrics.gauge("cache.degraded").set(1)
    output = {
        "shard": shard,
        "attempt": attempt,
        "workloads": [name for name, _ in pairs],
        "results": results,
        "failures": failures,
        "widening": widening,
        "census": census_rows,
        "stats": {
            name: counters_after[name] - counters_before.get(name, 0)
            for name in counters_after
        },
        "intern_tables": {
            table: max(0, size - tables_before.get(table, 0))
            for table, size in intern_table_sizes().items()
        },
        "metrics": metrics.as_dict(),
        "seconds": clock.seconds,
    }
    if crashed is not None:
        output["crashed"] = crashed
        output["pending"] = pending
    return output


def _census_row(program: ast.Program, info: TypeInfo, result) -> Dict:
    """One program's parallelism-census row, from the result already solved.

    The oracle is handed ``result``, so the census queries the same
    matrices, limits and store the suite's rows came from instead of
    solving the program again.  The census is looked up through its module
    at call time, so a wrapper installed there sees every call.  A census
    error becomes the row's ``error``; the program's analysis still counts
    as done.
    """
    from ..parallel import oracle

    try:
        return oracle.parallelism_census(
            program, info, oracle=oracle.PathMatrixOracle(analysis=result)
        )
    except Exception as error:  # noqa: BLE001 - surfaced per workload
        return {"error": f"{type(error).__name__}: {error}"}


def _analyze_shard(payload: ShardPayload) -> Dict:
    """Analyze one shard of ``(name, source)`` pairs; returns plain data.

    Runs in a worker process: builds a shard-private
    :class:`~repro.analysis.engine.BatchAnalyzer` and drives the shared
    :func:`analyze_pairs` loop over the shard's items.  With a
    :class:`~repro.cache.backend.CacheConfig` in the payload the shard
    opens the shared persistent store itself (backends never cross process
    boundaries) and reads through to it — a warm store means the shard
    decodes transfers other runs or other shards already computed — then
    flushes its computed deltas in one batch when the shard completes.

    The payload's fault plan (when present) is installed for **spawned**
    workers, which inherit no parent globals; forked workers (and the
    inline path) already see the plan :meth:`ShardedSuiteRunner.run`
    installed via :func:`~repro.faults.fault_scope`.  A ``shard.worker``
    crash rule fires *before* any analysis — the worker dies with
    :class:`~repro.faults.InjectedWorkerCrash` and the parent requeues the
    whole shard (the dead-worker path, vs. the mid-shard poisoning
    ``shard.workload`` exercises).
    """
    from ..analysis.engine import BatchAnalyzer

    shard_index, pairs, limits, cache, faults, attempt, census = payload
    if faults is not None and current_fault_plan() is None:
        install_fault_plan(faults)
    rule = fault_fire("shard.worker", f"{shard_index}@{attempt}")
    if rule is not None and rule.kind == "crash":
        raise InjectedWorkerCrash(
            f"injected worker crash (shard {shard_index}, attempt {attempt})"
        )
    batch = BatchAnalyzer(limits=limits, cache=cache)
    try:
        return analyze_pairs(
            batch, pairs, shard=shard_index, attempt=attempt, census=census
        )
    finally:
        batch.close()


def _analyze_shard_traced(payload: ShardPayload) -> Dict:
    """The pool target: ``_analyze_shard`` plus trace shipping.

    A forked worker inherits the parent's installed tracer *and its
    already-recorded events*; replaying those home would duplicate the
    parent's timeline, so the worker clears its inherited copy first, then
    drains whatever the shard recorded into the (picklable) output dict for
    the parent to :meth:`~repro.obs.trace.Tracer.absorb`.  Only the pool
    path uses this wrapper — the inline path records straight into the
    parent's tracer and must *not* reset it.
    """
    tracer = current_tracer()
    if tracer is not None:
        tracer.reset()
    output = _analyze_shard(payload)
    if tracer is not None:
        output["trace_events"] = tracer.drain()
    return output


@dataclass
class ShardReport:
    """What one shard did: its workloads, work counters and wall-clock time."""

    shard: int
    workloads: List[str]
    stats: "AnalysisStats"
    seconds: float
    #: Growth of the worker's process-global interning tables during the
    #: shard (see ``_analyze_shard``); empty for legacy outputs.
    intern_tables: Dict[str, int] = field(default_factory=dict)
    #: Which attempt this shard ran as (0 for the original dispatch; > 0
    #: for payloads requeued after a worker crash).
    attempt: int = 0

    def as_dict(self) -> Dict:
        return {
            "shard": self.shard,
            "attempt": self.attempt,
            "workloads": self.workloads,
            "seconds": round(self.seconds, 4),
            "stats": self.stats.counters(),
            "intern_tables": dict(self.intern_tables),
        }


@dataclass
class ShardedSuiteReport:
    """The merged outcome of a sharded suite run.

    ``results`` maps every workload name to its *canonical* encoding (see
    :meth:`repro.analysis.engine.AnalysisResult.canonical`) in input order;
    ``stats`` is the merge of every shard's counters, with the per-shard
    breakdown retained in ``shards``; ``widening`` maps every analyzed
    workload to its widening-counter deltas; ``census`` maps every analyzed
    workload to its parallelism-census row when the runner was built with
    ``census=True``.
    """

    results: Dict[str, Dict]
    failures: Dict[str, str]
    stats: "AnalysisStats"
    shards: List[ShardReport] = field(default_factory=list)
    widening: Dict[str, Dict] = field(default_factory=dict)
    #: Interning-table growth summed across every worker process.  The
    #: per-worker sizing is what makes this meaningful under sharding:
    #: reading the parent's process-global tables would silently reflect
    #: only the parent's own interning.
    intern_tables: Dict[str, int] = field(default_factory=dict)
    #: The exact merge of every shard's :class:`~repro.obs.metrics.
    #: MetricsRegistry` — counters, and the per-workload latency / worklist
    #: histograms the ``tails`` section is derived from.  Merging follows
    #: the ``stats`` discipline: integer sums only, so sharded == inline.
    metrics: "MetricsRegistry" = field(default_factory=MetricsRegistry)
    #: Per-workload attempt counts, for workloads that needed more than
    #: one: ``{name: attempts}`` where attempts includes the first try.
    #: Empty in a fault-free run.
    attempts: Dict[str, int] = field(default_factory=dict)
    census: Dict[str, Dict] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def tails(self) -> Dict[str, Dict]:
        """Per-workload p50/p90/p99 (+ ``_overall``) from the merged histograms.

        Quantiles come from the fixed bucket boundaries, so this report is
        identical whether the histograms were merged from 1, 2 or N shards
        observing the same workloads.
        """
        return latency_tails(self.metrics, "suite.workload_seconds", "workload")

    def matches(self, other: "ShardedSuiteReport") -> bool:
        """Bit-identical outcomes: same encodings and same failure *payloads*.

        Failures are compared as full ``{name: message}`` mappings, not just
        name sets — two runs that failed the same workloads for *different
        reasons* are not identical, and the sharded==single-process check
        must catch exactly that kind of divergence.
        """
        return self.results == other.results and self.failures == other.failures

    def results_digest(self) -> str:
        """SHA-256 over the canonical results + failure payloads.

        Equal digests ⇔ :meth:`matches` would be true — a compact identity
        that artifacts can carry, so *separate processes* (e.g. the CI's
        cold and warm bench runs against one cache directory) can assert
        bit-identical outcomes without shipping the full encodings.
        """
        import hashlib
        import json as json_module

        document = json_module.dumps(
            {"results": self.results, "failures": self.failures},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(document.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict:
        # The hit rates in "stats" are advisory display output — consumers
        # rebuilding stats must recompute them from the raw hit/miss counters.
        return {
            "workloads_analyzed": len(self.results),
            "results_digest": self.results_digest(),
            "seconds": round(self.seconds, 4),
            "stats": self.stats.as_dict(),
            "shards": [shard.as_dict() for shard in self.shards],
            "widening": {name: dict(row) for name, row in self.widening.items()},
            "intern_tables": dict(self.intern_tables),
            "tails": self.tails(),
            "metrics": self.metrics.as_dict(),
            "attempts": dict(self.attempts),
            "failures": dict(self.failures),
        }


class ShardedSuiteRunner:
    """Shards a workload suite across worker processes and merges the results.

    Items are ``(name, source)`` pairs — source *text*, the canonical
    picklable form — assigned round-robin to ``shards`` workers.  Each
    worker analyzes its shard against a shard-private memoized-transfer
    cache and :class:`~repro.analysis.context.AnalysisStats`, then ships
    canonical encodings back; the parent merges stats (exactly additive)
    and keeps the per-shard breakdown.  ``shards <= 1`` runs inline in this
    process — the reference the regression tests compare against, since
    shard assignment never changes any per-program result.  Every run goes
    through one run loop (:meth:`_drive`) and one per-shard step
    (:func:`analyze_pairs`).

    ``limits``, a frozen :class:`AnalysisLimits`, travels to the workers in
    the shard payload — as does ``cache``, an optional :class:`~repro.cache.
    backend.CacheConfig` naming a persistent transfer store every shard
    opens read-through and flushes its computed deltas into on completion
    (the cross-run warm-start path).

    ``census=True`` has every shard compute each analyzed program's
    parallelism-census row from the result it just solved; the rows land
    in :attr:`ShardedSuiteReport.census`.
    """

    def __init__(
        self,
        items: Sequence[Tuple[str, str]],
        shards: int = 2,
        limits: Optional["AnalysisLimits"] = None,
        cache: Optional["CacheConfig"] = None,
        faults: Optional["FaultPlan"] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        census: bool = False,
    ):
        from collections import Counter

        from ..analysis.limits import DEFAULT_LIMITS

        counts = Counter(name for name, _ in items)
        duplicates = sorted(name for name, count in counts.items() if count > 1)
        if duplicates:
            raise ValueError(f"duplicate workload names across shards: {duplicates}")
        self.items = list(items)
        self.shards = max(1, int(shards))
        self.limits = limits if limits is not None else DEFAULT_LIMITS
        self.cache = cache.validated() if cache is not None else None
        #: Optional :class:`~repro.faults.FaultPlan`, installed for the
        #: duration of each run (and shipped to workers in the payloads).
        self.faults = faults.validated() if faults is not None else None
        self.max_attempts = max(1, int(max_attempts))
        self.census = census

    @classmethod
    def from_names(
        cls,
        names: Optional[Sequence[str]] = None,
        depth: int = 4,
        shards: int = 2,
        limits: Optional["AnalysisLimits"] = None,
        cache: Optional["CacheConfig"] = None,
        faults: Optional["FaultPlan"] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> "ShardedSuiteRunner":
        """A runner over named workloads from :data:`WORKLOADS`."""
        if names is None:
            names = list(WORKLOADS)
        return cls(
            [(name, source(name, depth=depth)) for name in names],
            shards,
            limits,
            cache,
            faults=faults,
            max_attempts=max_attempts,
        )

    @classmethod
    def from_scenarios(
        cls,
        scenarios: Sequence["Scenario"],
        shards: int = 2,
        limits: Optional["AnalysisLimits"] = None,
        cache: Optional["CacheConfig"] = None,
        faults: Optional["FaultPlan"] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> "ShardedSuiteRunner":
        """A runner over generated scenarios (see :mod:`.generators`)."""
        return cls(
            [(s.name, s.source) for s in scenarios],
            shards,
            limits,
            cache,
            faults=faults,
            max_attempts=max_attempts,
        )

    # ------------------------------------------------------------------

    def _payload(
        self, index: int, pairs: List[Tuple[str, str]], attempt: int = 0
    ) -> ShardPayload:
        return (
            index, pairs, self.limits, self.cache, self.faults, attempt, self.census
        )

    def _payloads(self, shards: int) -> List[ShardPayload]:
        buckets: List[List[Tuple[str, str]]] = [[] for _ in range(shards)]
        for index, item in enumerate(self.items):
            buckets[index % shards].append(item)
        return [
            self._payload(index, bucket)
            for index, bucket in enumerate(buckets)
            if bucket
        ]

    # ------------------------------------------------------------------

    def run(self, progress=None) -> ShardedSuiteReport:
        """Run the suite across ``self.shards`` worker processes.

        Collection is **streaming**: shard outputs are consumed in
        completion order, so per-workload results and failures surface
        (via the optional ``progress`` callback, which receives each raw
        shard output dict) as soon as each shard finishes, not behind a
        final all-shards barrier.  The merged report is identical either
        way — ``_merge`` orders by shard index.

        Fault tolerance: a shard that comes back *poisoned* (a crash rule
        fired mid-shard) or whose worker died with an exception has its
        pending workloads requeued as a fresh payload — onto a free pool
        worker, or back onto the inline queue — with the attempt counter
        bumped, up to ``max_attempts`` total tries per workload.  Requeued
        workloads recompute from the same sources, so the merged report
        stays bit-identical to a fault-free run; only retries are bounded,
        and exhausted workloads are reported as failures, never dropped
        silently.
        """
        return self._drive(self.shards, progress)

    def run_single_process(self, progress=None) -> ShardedSuiteReport:
        """The same suite, analyzed inline as one shard (the reference run).

        The same run loop as :meth:`run` at one shard, so even the reference
        run completes — and matches — under an installed fault plan; the
        bit-identity claim is symmetric.
        """
        return self._drive(1, progress)

    def run_warm(self, batch, progress=None) -> ShardedSuiteReport:
        """The same suite, analyzed inline through a caller-provided batch.

        This is the analysis server's backend path (:mod:`repro.server`):
        the server owns one warm :class:`~repro.analysis.engine.
        BatchAnalyzer` attached to its lifetime transfer cache and runs
        every request's items through it in-process, so memoized transfers,
        the persistent tier and the interned path/matrix domain all stay
        hot across requests.  The report's stats are the *growth* during
        this run (see :func:`analyze_pairs`), so per-request reports sum
        exactly into server-lifetime totals.  The runner's own ``limits``/
        ``cache`` are ignored — the batch already owns those choices; the
        batch is flushed but left open.  An exception the analysis raises
        propagates; only a poisoned shard (a crash rule under an installed
        fault plan) is requeued, through the same warm batch.
        """
        return self._drive(1, progress, batch=batch)

    def _drive(self, shards: int, progress, batch=None) -> ShardedSuiteReport:
        """The one run loop behind :meth:`run`, :meth:`run_single_process`
        and :meth:`run_warm`.

        Several payloads go to a worker pool through ``apply_async``, so a
        requeued payload can be resubmitted to the *live* pool and land on
        any free surviving worker.  A single payload is analyzed in this
        process (through ``batch`` when one is given) the moment it is
        submitted.  Either way every completion — a shard output, or
        ``(payload, error)`` for a worker that died — lands on one queue
        that this drains in completion order, requeueing crashed work.
        """
        workloads = len(self.items)
        if batch is None:
            clock = stopwatch("suite.run", {"shards": shards, "workloads": workloads})
        else:
            clock = stopwatch("suite.run_warm", {"workloads": workloads})
        control = MetricsRegistry()
        attempts: Dict[str, int] = {}
        outputs: List[Dict] = []
        completions: "queue_module.Queue" = queue_module.Queue()
        with fault_scope(self.faults), clock, ExitStack() as stack:
            payloads = self._payloads(shards)
            next_index = outstanding = len(payloads)
            pool = None
            if len(payloads) > 1:
                methods = multiprocessing.get_all_start_methods()
                context = multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn"
                )
                stack.enter_context(span("suite.dispatch", {"shards": len(payloads)}))
                pool = stack.enter_context(context.Pool(processes=len(payloads)))

            def submit(payload: ShardPayload) -> None:
                if pool is not None:
                    pool.apply_async(
                        _analyze_shard_traced,
                        (payload,),
                        callback=completions.put,
                        error_callback=lambda error: completions.put((payload, error)),
                    )
                elif batch is not None:
                    index, pairs, _, _, _, attempt, census = payload
                    completions.put(
                        analyze_pairs(
                            batch, pairs, shard=index, attempt=attempt, census=census
                        )
                    )
                else:
                    try:
                        completions.put(_analyze_shard(payload))
                    except Exception as error:  # noqa: BLE001 - the recovery boundary
                        completions.put((payload, error))

            def requeue(output: Dict, names: List[str], kind: str, reason: str) -> bool:
                """Count the crash that cost ``names`` their analysis.

                Within the attempt budget the names are resubmitted as a
                fresh payload with the attempt bumped (True); past it each
                is recorded as failed in ``output`` (False).
                """
                nonlocal next_index, outstanding
                control.counter("suite.shard_crashes_total", kind=kind).inc()
                attempt = int(output["attempt"]) + 1
                if attempt >= self.max_attempts:
                    for name in names:
                        attempts[name] = attempt
                        output["failures"][name] = (
                            f"{reason}; retries exhausted after "
                            f"{self.max_attempts} attempts"
                        )
                    control.counter("suite.workloads_abandoned_total").inc(len(names))
                    return False
                for name in names:
                    attempts[name] = attempt + 1
                control.counter("suite.workload_retries").inc(len(names))
                sources = dict(self.items)
                next_index += 1
                outstanding += 1
                submit(
                    self._payload(
                        next_index - 1, [(name, sources[name]) for name in names], attempt
                    )
                )
                return True

            for payload in payloads:
                submit(payload)
            while outstanding:
                output = completions.get()
                outstanding -= 1
                if isinstance(output, tuple):  # (payload, error): the worker died
                    (index, pairs, _, _, _, attempt, _), error = output
                    names = [name for name, _ in pairs]
                    output = {
                        "shard": index,
                        "attempt": attempt,
                        "workloads": names,
                        "results": {},
                        "failures": {},
                        "stats": {},
                        "seconds": 0.0,
                    }
                    reason = f"shard worker died ({type(error).__name__}: {error})"
                    if requeue(output, names, "worker", reason):
                        continue
                elif output.get("pending"):  # a crash rule poisoned the shard
                    kind = str(output["crashed"].get("kind", "crash"))
                    reason = f"shard worker crashed ({kind})"
                    requeue(output, output["pending"], kind, reason)
                outputs.append(output)
                if progress is not None:
                    progress(output)
        return self._merge(outputs, clock.seconds, control, attempts)

    # ------------------------------------------------------------------

    def _merge(
        self,
        outputs: List[Dict],
        seconds: float,
        control: "MetricsRegistry",
        attempts: Dict[str, int],
    ) -> ShardedSuiteReport:
        from ..analysis.context import AnalysisStats

        # The parent's tracer (when installed) takes custody of the events
        # each pool worker drained into its output dict; inline runs never
        # ship events (they recorded straight into this process's tracer).
        tracer = current_tracer()
        shard_reports = []
        by_name: Dict[str, Dict[str, object]] = {
            "results": {}, "failures": {}, "widening": {}, "census": {}
        }
        merged_metrics = MetricsRegistry()
        for output in sorted(outputs, key=lambda o: o["shard"]):
            events = output.pop("trace_events", None)
            if tracer is not None and events:
                tracer.absorb(events)
            merged_metrics.absorb(MetricsRegistry.from_dict(output.get("metrics") or {}))
            shard_reports.append(
                ShardReport(
                    shard=output["shard"],
                    workloads=output["workloads"],
                    stats=AnalysisStats.from_dict(output["stats"]),
                    seconds=output["seconds"],
                    intern_tables=dict(output.get("intern_tables", {})),
                    attempt=int(output.get("attempt", 0)),
                )
            )
            for key, merged in by_name.items():
                merged.update(output.get(key, {}))
        merged_metrics.absorb(control)
        summed_tables: Dict[str, int] = {}
        for report in shard_reports:
            for table, size in report.intern_tables.items():
                summed_tables[table] = summed_tables.get(table, 0) + size
        # Restore the input ordering the round-robin assignment scattered.
        ordered = {
            key: {name: merged[name] for name, _ in self.items if name in merged}
            for key, merged in by_name.items()
        }
        return ShardedSuiteReport(
            stats=AnalysisStats().merge(*(report.stats for report in shard_reports)),
            shards=shard_reports,
            intern_tables=summed_tables,
            metrics=merged_metrics,
            attempts=dict(attempts),
            seconds=seconds,
            **ordered,
        )
