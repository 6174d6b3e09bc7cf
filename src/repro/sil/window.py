"""A held program version, and the edit window that re-reads only what an edit changed.

Hendren & Nicolau analyze a program one procedure at a time, and the
analysis daemon re-solves only what an edit reaches.  This module does the
same for the front end of a continued ``reanalyze`` request.  A
:class:`ParsedVersion` keeps one version's source text beside its
normalized program and types, with the offset where each callable (each
procedure or function) starts.  :meth:`ParsedVersion.edited` builds the
next version from three parts:

* the callables that end before the first changed character, carried over
  by reference;
* the callables that start after the last changed character, carried over
  with every location moved by the change in line count (cloned, so the
  held version stays as it is; shared when no line moved);
* the *window* between them, which alone is lexed (from its absolute line),
  parsed, type-checked and lowered.

The result equals what :func:`~repro.sil.normalize.parse_and_normalize`
gives for the new text, locations and type tables included, when these
hold:

* the text before the first callable (``program <name>``) is unchanged;
* the window starts, and the carried callables after it start, at a line
  start in both versions.  A ``//`` comment ends at a newline and no token
  holds one, so no token or comment crosses either boundary, and every
  carried token keeps its column;
* the window reads as a run of whole callables, each checked and lowered
  without error;
* the window's callables have, in order, the signatures of the callables
  they replace: kind, name, parameters with their types, and return type
  and variable.  A callable's check and its lowering read only its own
  text, the set of callable names and its callees' signatures, so every
  carried callable stays valid and lowers as before.

Otherwise :meth:`~ParsedVersion.edited` returns ``None`` and the caller runs
the full front end, which reports any error exactly.  This module is the
daemon's alone: nothing the command line loads imports it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence

from . import ast
from .errors import SilError
from .lexer import tokenize
from .normalize import Normalizer
from .parser import Parser
from .typecheck import TypeChecker, TypeInfo


class ParsedVersion:
    """One version of a program: its source text, core program and types.

    ``callables`` lists the program's procedures and functions in source
    order, and ``starts`` the offset of each one's first character.  A
    version is never changed after it is built.
    """

    __slots__ = ("source", "program", "info", "callables", "starts")

    def __init__(
        self,
        source: str,
        program: ast.Program,
        info: TypeInfo,
        callables: Optional[List[ast.Procedure]] = None,
        starts: Optional[List[int]] = None,
    ):
        self.source = source
        self.program = program
        self.info = info
        if callables is None:
            callables = sorted(program.all_callables, key=lambda proc: proc.loc)
            starts = _starts(source, callables, 0, 1)
        self.callables = callables
        self.starts = starts

    def edited(self, source: str) -> Optional["ParsedVersion"]:
        """The version of ``source`` read through the edit window, or ``None``
        when the window cannot show that it equals a full parse."""
        old, starts, callables = self.source, self.starts, self.callables
        count = len(callables)
        first = _common_prefix(old, source)
        if first < starts[0]:
            return None
        last = len(old) - _common_suffix(old, source, min(len(old), len(source)) - first)
        # Callables [0, a) end at or before the first changed character, and
        # callables [b, count) start at or after the last one.
        a = bisect_right(starts, first)
        if first < len(old):
            a -= 1  # the callable whose text holds the first change
        b = bisect_left(starts, last, a)
        begin = starts[a] if a < count else len(old)
        stop = starts[b] if b < count else len(old)
        shift = len(source) - len(old)
        if old[begin - 1] != "\n" or (
            b < count and (old[stop - 1] != "\n" or source[stop + shift - 1] != "\n")
        ):
            return None
        line = old.count("\n", 0, begin) + 1
        try:
            window = Parser(tokenize(source[: stop + shift], begin, line, begin)).parse_callables()
            replaced = callables[a:b]
            if list(map(_signature, window)) != list(map(_signature, replaced)):
                return None
            line_offset = source.count("\n", begin, stop + shift) - old.count("\n", begin, stop)
            renewed: Dict[int, ast.Procedure] = dict(zip(map(id, replaced), window))
            suffix = callables[b:]
            if line_offset:
                for proc in suffix:
                    renewed[id(proc)] = ast.clone_procedure(proc, line_offset)
            held = self.program
            program = ast.Program(
                loc=held.loc,
                name=held.name,
                procedures=[renewed.get(id(proc), proc) for proc in held.procedures],
                functions=[renewed.get(id(func), func) for func in held.functions],
            )
            surface = TypeChecker(program).check_callables(window)
            Normalizer(program, surface).lower(window)
            core = TypeChecker(program).check_callables(window)
        except (SilError, ValueError):
            # Any rejection, including int() refusing a literal past the
            # interpreter's digit limit: the full front end reports it.
            return None
        procedures = dict(self.info.procedures)
        procedures.update(core.procedures)
        return ParsedVersion(
            source,
            program,
            TypeInfo(program=program, procedures=procedures),
            callables[:a] + window + [renewed.get(id(proc), proc) for proc in suffix],
            starts[:a]
            + _starts(source, window, begin, line)
            + [start + shift for start in starts[b:]],
        )


def _signature(proc: ast.Procedure) -> tuple:
    """What a callable shows its callers: kind, name, parameters, result."""
    params = [(param.name, param.type) for param in proc.params]
    if isinstance(proc, ast.Function):
        return ("function", proc.name, params, proc.return_type, proc.return_var)
    return ("procedure", proc.name, params)


def _starts(source: str, callables: Sequence[ast.Procedure], pos: int, line: int) -> List[int]:
    """The offset of each of ``callables``, in source order, in ``source``;
    line ``line`` starts at offset ``pos``, at or before the first of them."""
    starts = []
    for proc in callables:
        target, column = proc.loc
        while line < target:
            pos = source.index("\n", pos) + 1
            line += 1
        starts.append(pos + column - 1)
    return starts


def _common_prefix(first: str, second: str) -> int:
    """The length of the longest common prefix, by bisection over slices."""
    low, high = 0, min(len(first), len(second))
    while low < high:
        middle = (low + high + 1) // 2
        if first.startswith(second[low:middle], low):
            low = middle
        else:
            high = middle - 1
    return low


def _common_suffix(first: str, second: str, limit: int) -> int:
    """The length of the longest common suffix, at most ``limit``."""
    low, high, n, m = 0, limit, len(first), len(second)
    while low < high:
        middle = (low + high + 1) // 2
        if first.endswith(second[m - middle : m - low], 0, n - low):
            low = middle
        else:
            high = middle - 1
    return low
