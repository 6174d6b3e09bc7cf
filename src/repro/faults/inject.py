"""The per-process fault injector and the module-global install point.

Production code asks one question at each injection site::

    rule = fault_fire("cache.get", key)
    if rule is not None and rule.kind == "io_error":
        raise sqlite3.OperationalError("injected disk I/O error")

With no plan installed (the default, and the only state production runs
ever see) :func:`fault_fire` is a single module-global ``None`` check.
``benchmarks/work_counters.py`` records that no plan is installed after
``import repro.cli``, and tier-1 holds that file byte for byte.

With a plan installed, the injector keeps a per-``(site, key)``
**occurrence counter** so successive decisions at the same site/key get
independent deterministic draws: a cache read that failed is retried under
occurrence 2 and (at sub-1.0 probability, or with an occurrence-scoped
``match``) succeeds; a workload whose first attempt crashed its shard is
requeued with a new attempt-tagged key and survives.  Counters of every
injected fault are kept per ``(site, kind)`` for export as
``faults.injected_total{site,kind}``.

Process model: the installer is module-global, so **forked** pool workers
inherit the parent's injector (decisions stay deterministic because they
hash coordinates, not RNG state), while **spawned** workers install the
plan that rode in on their shard payload.  The daemon installs its
config's plan once at startup.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from .plan import FaultPlan, FaultRule, draw


class InjectedWorkerCrash(RuntimeError):
    """Raised by a ``shard.worker`` crash rule: the worker dies before
    producing any output, exercising the runner's whole-shard requeue path
    (vs. ``shard.workload`` crashes, which poison a partial output)."""


class FaultInjector:
    """Evaluates one :class:`FaultPlan`'s rules; owns all mutable state."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan.validated()
        self._by_site: Dict[str, Tuple[FaultRule, ...]] = {}
        for rule in plan.rules:
            self._by_site[rule.site] = self._by_site.get(rule.site, ()) + (rule,)
        self._occurrences: Dict[Tuple[str, str], int] = {}
        self._injected: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()

    def fire(self, site: str, key: str = "") -> Optional[FaultRule]:
        """The rule that fires at this site for this key, if any.

        Each call advances the ``(site, key)`` occurrence counter, giving
        retries of the same operation independent draws.  The decision key
        rules match against is ``"{key}#{occurrence}"`` (1-based).
        """
        rules = self._by_site.get(site)
        if not rules:
            return None
        with self._lock:
            occurrence = self._occurrences.get((site, key), 0) + 1
            self._occurrences[(site, key)] = occurrence
            full_key = f"{key}#{occurrence}"
            for rule in rules:
                if rule.match and rule.match not in full_key:
                    continue
                if draw(self.plan.seed, site, rule.kind, full_key) < rule.probability:
                    count = self._injected.get((site, rule.kind), 0) + 1
                    self._injected[(site, rule.kind)] = count
                    return rule
        return None

    def injected_counts(self) -> Dict[Tuple[str, str], int]:
        """A snapshot of ``{(site, kind): fires}`` in this process."""
        with self._lock:
            return dict(self._injected)


# ---------------------------------------------------------------------------
# module-global install point
# ---------------------------------------------------------------------------

_INJECTOR: Optional[FaultInjector] = None


def install_fault_plan(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-globally; returns the live injector."""
    global _INJECTOR
    _INJECTOR = FaultInjector(plan)
    return _INJECTOR


def uninstall_fault_plan() -> None:
    global _INJECTOR
    _INJECTOR = None


def current_injector() -> Optional[FaultInjector]:
    return _INJECTOR


def current_fault_plan() -> Optional[FaultPlan]:
    injector = _INJECTOR
    return injector.plan if injector is not None else None


def fault_fire(site: str, key: str = "") -> Optional[FaultRule]:
    """The one call compiled into production paths; ``None`` when idle."""
    injector = _INJECTOR
    if injector is None:
        return None
    return injector.fire(site, key)


def injected_counts() -> Dict[Tuple[str, str], int]:
    """``{(site, kind): fires}`` so far in this process; empty when idle."""
    injector = _INJECTOR
    if injector is None:
        return {}
    return injector.injected_counts()


@contextmanager
def fault_scope(plan: Optional[FaultPlan]) -> Iterator[None]:
    """Install ``plan`` for the duration of a block (no-op when ``None``).

    Restores whatever was installed before, so a runner given an explicit
    plan never leaks it into the rest of the process — and a runner given
    ``None`` leaves an ambient (e.g. daemon-installed) plan untouched.
    """
    global _INJECTOR
    if plan is None:
        yield
        return
    previous = _INJECTOR
    _INJECTOR = FaultInjector(plan)
    try:
        yield
    finally:
        _INJECTOR = previous
