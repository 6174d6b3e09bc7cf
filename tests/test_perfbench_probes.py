"""The benchmark's span probes still find every call they wrap.

``perfbench/probes.py`` patches named functions and methods of the
``repro`` layers (``repro.cache.memory.MemoryBackend.get``,
``repro.workloads.suite.analyze_pairs``, ...).  A rename under ``src/``
that removes one of those names breaks every traced benchmark run; this
test catches it in milliseconds by installing the probes against the tree
and checking that ``undo()`` restores every patched attribute.
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
    undo = probes.install(spans.Links())
    try:
        # Every probe target lives in a module loaded above, so the
        # snapshot covers everything install() may have patched.
        assert set(_loaded_modules()) == modules
        patched = _changed(before, _attributes())
        assert patched, "install() patched nothing"
        assert all(key in before for key in patched), "install() added attributes"
    finally:
        undo()
    assert not _changed(before, _attributes())
