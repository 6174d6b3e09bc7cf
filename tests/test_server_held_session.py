"""The daemon's held ``reanalyze`` session, driven in process.

An editor sends each edit with the previous edit's result as its old
version.  :class:`~repro.server.service.AnalysisService` holds the
:class:`~repro.analysis.reanalysis.IncrementalSession` that solved the
last request's new version, keyed on that version's source text and the
request's limits, and a request that matches the key continues it: it
parses and solves only the new version.

Pinned here:

* a chain walked forward and back matches the reference engine on every
  request; ``base_reused`` is false on the first request and true after
  it, and each ``base_digest`` is the previous response's ``digest``;
* the lifetime totals are the sum of every response's ``request_stats``,
  and a continued request visits fewer statements than the first;
* any other request (another old source, other limits) starts a fresh
  session and answers what a fresh service answers;
* a front-end rejection leaves the held session in place, and a solver
  failure drops it;
* threads interleaving their chains over one service get exact answers,
  and no request's stats go missing from the lifetime totals;
* a continued request does exactly the solver work of a fresh session,
  because the component memo keeps only the components the latest solve
  used.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.analysis.context import AnalysisStats
from repro.analysis.engine import analyze_program_reference
from repro.analysis.reanalysis import IncrementalSession, result_digest
from repro.analysis.transfer import TransferCache
from repro.server.service import AnalysisService, RequestError
from repro.sil.normalize import parse_and_normalize
from repro.workloads import (
    EDIT_KINDS,
    apply_edit_script,
    generate_edit_script,
    make_edit_bench_scenario,
)

#: Walkers in the edited program, and versions in its edit stream.
WALKERS = 6
VERSIONS = 22
#: Threads sharing one service in the stress test (more than the cores CI has).
THREADS = 4

#: The counters a continued request must share with a fresh session.
EXACT_COUNTERS = (
    "worklist_pops",
    "statements_visited",
    "summaries_reused",
    "summaries_invalidated",
    "delta_rows_propagated",
    "full_rows_propagated",
) + AnalysisStats.WIDENING_FIELDS


def edit_stream(seed=1):
    """One-step edits of an edit-bench program, cycling through every kind."""
    rng = random.Random(seed)
    versions = [make_edit_bench_scenario(WALKERS, seed=seed).source]
    kinds = []
    while len(versions) < VERSIONS:
        if not kinds:
            kinds = list(EDIT_KINDS)
            rng.shuffle(kinds)
        script = generate_edit_script(
            versions[-1], seed=rng.randrange(1 << 30), edits=1, kinds=(kinds.pop(),)
        )
        versions.append(apply_edit_script(versions[-1], script))
    return versions


def chain(count):
    """``count`` (old, new) version pairs, walking forward, then back."""
    span = VERSIONS - 1
    for index in range(count):
        lap, step = divmod(index, span)
        yield (step, step + 1) if lap % 2 == 0 else (span - step, span - step - 1)


def request(versions, old, new, **extra):
    return {"old_source": versions[old], "new_source": versions[new], **extra}


@pytest.fixture(scope="module")
def versions():
    return edit_stream()


@pytest.fixture(scope="module")
def reference(versions):
    digests = {}
    for index, source in enumerate(versions):
        program, info = parse_and_normalize(source)
        digests[index] = result_digest(analyze_program_reference(program, info))
    return digests


@pytest.fixture(scope="module")
def walked(versions):
    """Two laps of the chain through one service, verifying request 5."""
    service = AnalysisService()
    responses = [
        service.reanalyze(request(versions, old, new, verify=index == 5))
        for index, (old, new) in enumerate(chain(2 * (VERSIONS - 1)))
    ]
    return service, responses


class TestChain:
    def test_every_request_matches_the_reference_engine(self, walked, reference):
        _, responses = walked
        pairs = list(chain(len(responses)))
        assert len(responses) >= 40
        for (_, new), response in zip(pairs, responses):
            assert response["digest"] == reference[new]

    def test_requests_after_the_first_continue_the_held_session(self, walked):
        _, responses = walked
        assert [r["base_reused"] for r in responses] == [False] + [True] * (
            len(responses) - 1
        )
        for previous, response in zip(responses, responses[1:]):
            assert response["base_digest"] == previous["digest"]

    def test_verify_holds_on_a_continued_request(self, walked):
        _, responses = walked
        assert responses[5]["base_reused"] is True
        assert responses[5]["verified"] is True

    def test_lifetime_totals_are_the_sum_of_request_stats(self, walked):
        service, responses = walked
        lifetime = service.cache_stats()["lifetime_stats"]
        for counter in AnalysisStats.COUNTER_FIELDS:
            total = sum(r["request_stats"][counter] for r in responses)
            assert lifetime[counter] == total, counter

    def test_continued_requests_skip_the_base_solve(self, walked):
        _, responses = walked
        first = responses[0]["request_stats"]["statements_visited"]
        for response in responses[1:]:
            stats = response["request_stats"]
            assert stats["statements_visited"] < first
            # No base solve: the request's deltas are the re-analysis's.
            assert stats["worklist_pops"] == response["stats"]["worklist_pops"]


class TestFallback:
    def test_another_old_source_takes_the_fresh_path(self, versions):
        service = AnalysisService()
        service.reanalyze(request(versions, 0, 1))
        service.reanalyze(request(versions, 1, 2))
        response = service.reanalyze(request(versions, 0, 1))
        assert response["base_reused"] is False
        fresh = AnalysisService().reanalyze(request(versions, 0, 1))
        assert response["digest"] == fresh["digest"]
        assert response["base_digest"] == fresh["base_digest"]
        # The fresh session is the one held now.
        assert service.reanalyze(request(versions, 1, 2))["base_reused"] is True

    def test_other_limits_take_the_fresh_path(self, versions):
        service = AnalysisService()
        service.reanalyze(request(versions, 0, 1))
        response = service.reanalyze(request(versions, 1, 2, adaptive=True))
        assert response["base_reused"] is False
        fresh = AnalysisService().reanalyze(request(versions, 1, 2, adaptive=True))
        assert response["digest"] == fresh["digest"]
        # Adaptive limits compare by value, so adaptive requests chain too.
        follow_on = service.reanalyze(request(versions, 2, 3, adaptive=True))
        assert follow_on["base_reused"] is True

    def test_a_bad_new_source_leaves_the_held_session(self, versions):
        service = AnalysisService()
        service.reanalyze(request(versions, 0, 1))
        with pytest.raises(RequestError):
            service.reanalyze({"old_source": versions[1], "new_source": "not a program"})
        assert service.reanalyze(request(versions, 1, 2))["base_reused"] is True

    def test_a_solver_failure_drops_the_held_session(
        self, versions, reference, monkeypatch
    ):
        service = AnalysisService()
        service.reanalyze(request(versions, 0, 1))
        original = IncrementalSession.reanalyze
        calls = []

        def fail_once(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("solver failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalSession, "reanalyze", fail_once)
        with pytest.raises(RuntimeError):
            service.reanalyze(request(versions, 1, 2))
        response = service.reanalyze(request(versions, 1, 2))
        assert response["base_reused"] is False
        assert response["digest"] == reference[2]


def test_concurrent_edit_chains_share_the_slot_safely(versions, reference):
    """Threads interleaving chains over one service: every answer is exact
    and no request's stats are lost from the lifetime totals."""
    service = AnalysisService()
    pairs = list(chain(VERSIONS - 1))
    responses, errors = [], []

    def edit(offset):
        try:
            for old, new in pairs[offset::THREADS]:
                responses.append((new, service.reanalyze(request(versions, old, new))))
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=edit, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(responses) == len(pairs)
    for new, response in responses:
        assert response["digest"] == reference[new]
    lifetime = service.cache_stats()["lifetime_stats"]
    for counter in AnalysisStats.COUNTER_FIELDS:
        assert lifetime[counter] == sum(r["request_stats"][counter] for _, r in responses)


def test_continued_requests_do_the_solver_work_of_a_fresh_session(versions):
    """Over 100 requests, held == a fresh session per request, as the daemon
    ran before it held one: same result and same solver counters.  Only the
    transfer-memo counters may differ, because no base solve re-warms the
    transfers the previous request's targeted invalidation dropped."""
    service = AnalysisService()
    cache = TransferCache()
    for index, (old, new) in enumerate(chain(100)):
        response = service.reanalyze(request(versions, old, new))
        session = IncrementalSession(transfer_cache=cache)
        session.analyze(*parse_and_normalize(versions[old]))
        report = session.reanalyze(*parse_and_normalize(versions[new])).as_dict()
        assert response["base_reused"] is (index > 0)
        for field in ("digest", "dirty_seed", "procedures_reanalyzed"):
            assert response[field] == report[field], (index, field)
        for counter in EXACT_COUNTERS:
            assert response["stats"][counter] == report["stats"][counter], (index, counter)


def test_a_long_lived_session_keeps_one_version_of_visits(versions):
    """The component memo holds what a cold solve of the latest version records."""
    session = IncrementalSession()
    session.analyze(*parse_and_normalize(versions[0]))
    for old, new in chain(2 * (VERSIONS - 1)):
        session.reanalyze(*parse_and_normalize(versions[new]))
        fresh = IncrementalSession()
        fresh.analyze(*parse_and_normalize(versions[new]))
        assert len(session.memo) == len(fresh.memo), (old, new)
