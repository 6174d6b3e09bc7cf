"""Every module-level import under ``src/repro`` is used by its module.

An import nothing reads still runs at import time and misleads a reader
about what a module depends on.  The scan reads each module's syntax tree:
a name bound by a module-level import (including one inside a module-level
``if``/``try``, such as an ``if TYPE_CHECKING:`` block) counts as used when
the module loads it anywhere, names it in ``__all__``, or names it in an
annotation or a class base, quoted or not.  The package ``__init__.py``
files exist to re-export names, so they are skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_imports(tree):
    """``(bound name, line)`` for each import at module level."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.If, ast.Try)):
            pending.extend(node.body)
            pending.extend(node.orelse)
            pending.extend(getattr(node, "finalbody", ()))
            for handler in getattr(node, "handlers", ()):
                pending.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _type_expressions(tree):
    """The annotations and class bases, where a quoted name is a reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield from node.bases
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    for expression in _type_expressions(tree):
        for node in ast.walk(expression):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    inner.id for inner in ast.walk(quoted) if isinstance(inner, ast.Name)
                )
    return used


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return sorted(
        (line, name) for name, line in _module_imports(tree) if name not in used
    )


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            found.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_scan_sees_annotations_and_all(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import Dict, List, Optional\n"
        "from os import path, sep\n"
        "import json\n"
        "from collections import OrderedDict, Counter\n"
        "__all__ = ['sep']\n"
        "def f(x: 'Optional[int]') -> Dict[str, int]:\n"
        "    return {}\n"
        "class Tally(Dict[str, 'Counter']):\n"
        "    pass\n"
    )
    unused = [name for _, name in unused_imports(module)]
    assert unused == ["List", "path", "json", "OrderedDict"]
