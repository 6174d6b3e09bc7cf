"""The benchmark's span probes still find every call and counter they read.

``perfbench/probes.py`` patches named functions and methods of the
``repro`` layers (``repro.cache.memory.MemoryBackend.get``,
``repro.workloads.suite.analyze_pairs``, ...) and records
``AnalysisStats`` counters by name on its solve and re-analysis spans.  A
rename under ``src/`` that removes one of those names, or a removed
counter, breaks every traced benchmark run; these tests catch it in
milliseconds by installing the probes against the tree, checking that each
patch wraps the original and that ``undo()`` restores every patched
attribute, and checking the counter names against
``AnalysisStats.COUNTER_FIELDS``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import repro.cli  # noqa: E402,F401 - loads the layers the probes patch
import repro.parallel.oracle  # noqa: E402,F401
import repro.server  # noqa: E402,F401
from perfbench import probes, spans  # noqa: E402
from repro.analysis.context import AnalysisStats  # noqa: E402

#: The counters the probes' ``reanalysis.reanalyze`` span records (the
#: ``session_after`` hook inside ``probes.install``).
SESSION_COUNTERS = ("summaries_reused", "worklist_pops", "dirty_seed_size")


def _loaded_modules():
    return {
        name: module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    }


def _attributes():
    """Every attribute of each loaded ``repro`` module and of its classes."""
    state = {}
    for name, module in _loaded_modules().items():
        owners = [module] + [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == name
        ]
        for owner in owners:
            for attr, value in vars(owner).items():
                state[(id(owner), attr)] = value
    return state


def _changed(before, after):
    return {
        key
        for key in before.keys() | after.keys()
        if before.get(key, before) is not after.get(key, after)
    }


def test_probes_install_on_the_tree_and_undo_restores_every_patch():
    modules = set(_loaded_modules())
    before = _attributes()
    # install() looks each target up by name, so a renamed one raises here.
    undo = probes.install(spans.Links())
    try:
        # Every probe target lives in a module loaded above, so the
        # snapshot covers everything install() may have patched.
        assert set(_loaded_modules()) == modules
        after = _attributes()
        patched = _changed(before, after)
        assert patched, "install() patched nothing"
        assert all(key in before for key in patched), "install() added attributes"
        for key in patched:
            assert after[key].__wrapped__ is before[key], key
    finally:
        undo()
    assert not _changed(before, _attributes())


def test_every_counter_the_probes_record_is_an_analysis_counter():
    missing = set(probes.SOLVE_COUNTERS + SESSION_COUNTERS) - set(AnalysisStats.COUNTER_FIELDS)
    assert not missing, f"counters the probes record but AnalysisStats lacks: {sorted(missing)}"
