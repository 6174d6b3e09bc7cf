"""The edit window: a continued edit re-reads only the callables it changed.

:meth:`repro.sil.window.ParsedVersion.edited` builds the next version of a
held program from the callables before the first changed character
(shared), the callables after the last one (shared, or cloned with moved
lines) and a re-read window between them.  Pinned here:

* over edit streams of several seeds and walker counts, replayed forward
  and back as the edit-serve benchmark replays them, every version takes
  the window and equals a full parse: the program, every node's location,
  and the type table in order; the held version is never changed;
* a seeded fuzz of line- and character-level mutations: whenever the
  window returns a version, the full front end accepts the same text and
  gives an equal one, and whenever the full front end rejects the text,
  the window returns ``None``;
* hand-written edits at the window's edges either fall back or match;
* the daemon's service parses a whole version only for a fresh request,
  and an error inside a window answers what a fresh service answers;
* ``parse_and_normalize`` lowers its parse in place and still gives what
  ``normalize_program`` gives;
* the command line does not load the window's module.
"""

from __future__ import annotations

import dataclasses
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server import service as service_module
from repro.server.service import AnalysisService, RequestError
from repro.sil import ast
from repro.sil.normalize import normalize_program, parse_and_normalize
from repro.sil.parser import parse_program
from repro.sil.window import ParsedVersion
from repro.workloads import (
    EDIT_KINDS,
    FAMILIES,
    WORKLOADS,
    GeneratorConfig,
    apply_edit_script,
    generate_edit_script,
    generate_scenario,
    make_edit_bench_scenario,
    source,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def located(value):
    """``value`` as nested tuples, with every node's type and location."""
    if isinstance(value, ast.Node):
        return (
            type(value).__name__,
            value.loc,
            tuple(
                (field.name, located(getattr(value, field.name)))
                for field in dataclasses.fields(value)
                if field.name not in ("loc", "_callables")
            ),
        )
    if isinstance(value, list):
        return tuple(located(item) for item in value)
    return value


def types(info):
    """The type table in order: each callable's variables in order."""
    return [(name, list(scope.variables.items())) for name, scope in info.procedures.items()]


def snapshot(version):
    return located(version.program), types(version.info), version.source, list(version.starts)


def full(text):
    """The full front end's version of ``text``, or ``None`` if it rejects it."""
    try:
        return ParsedVersion(text, *parse_and_normalize(text))
    except Exception:  # noqa: BLE001 - any rejection
        return None


def assert_same(got, expected):
    assert located(got.program) == located(expected.program)
    assert types(got.info) == types(expected.info)
    assert got.info.program is got.program
    assert got.starts == expected.starts
    assert [proc.name for proc in got.callables] == [proc.name for proc in expected.callables]


def edit_stream(walkers, seed, count):
    """``count`` one-step edits of an edit-bench program, cycling every kind."""
    rng = random.Random(seed)
    versions = [make_edit_bench_scenario(walkers, seed=seed).source]
    kinds = []
    while len(versions) < count:
        if not kinds:
            kinds = list(EDIT_KINDS)
            rng.shuffle(kinds)
        script = generate_edit_script(
            versions[-1], seed=rng.randrange(1 << 30), edits=1, kinds=(kinds.pop(),)
        )
        versions.append(apply_edit_script(versions[-1], script))
    return versions


def replay(versions):
    """The stream walked forward, then back: ``(old, new)`` index pairs."""
    span = len(versions) - 1
    yield from ((step, step + 1) for step in range(span))
    yield from ((span - step, span - step - 1) for step in range(span))


# ---------------------------------------------------------------------------
# Oracle: edit streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("walkers,seed", [(4, 1), (6, 2), (16, 3), (16, 7)])
def test_every_edit_of_a_stream_takes_the_window_and_equals_a_full_parse(walkers, seed):
    versions = edit_stream(walkers, seed, 24)
    held = full(versions[0])
    for old, new in replay(versions):
        assert held.source == versions[old]
        before = snapshot(held)
        got = held.edited(versions[new])
        assert got is not None, (old, new)
        assert_same(got, full(versions[new]))
        assert snapshot(held) == before
        held = got


def test_a_crlf_stream_takes_the_window_and_equals_a_full_parse():
    versions = [text.replace("\n", "\r\n") for text in edit_stream(6, 5, 16)]
    held = full(versions[0])
    for old, new in replay(versions):
        got = held.edited(versions[new])
        assert got is not None, (old, new)
        assert_same(got, full(versions[new]))
        held = got


def test_carried_callables_are_shared_or_cloned_with_moved_lines():
    versions = edit_stream(6, 2, 24)
    held = full(versions[0])
    for old, new in replay(versions):
        got = held.edited(versions[new])
        shift = versions[new].count("\n") - versions[old].count("\n")
        # A one-step edit changes one callable: the window reads only it.
        fresh = [i for i, proc in enumerate(got.callables) if proc is not held.callables[i]]
        if shift == 0:
            assert len(fresh) == 1, (old, new)
        else:
            assert fresh == list(range(fresh[0], len(got.callables))), (old, new)
            for proc, before in zip(got.callables[fresh[0] + 1 :], held.callables[fresh[0] + 1 :]):
                assert located(proc) == located(ast.clone_procedure(before, shift))
        held = got


# ---------------------------------------------------------------------------
# Seeded fuzz
# ---------------------------------------------------------------------------

#: Characters the character-level mutations insert or substitute.
ALPHABET = "abhlrtxz019_;:=.,(){}<>+-*/ \n\t"


def mutate(text, rng):
    """One seeded line- or character-level mutation of ``text``."""
    lines = text.split("\n")
    kind = rng.randrange(7)
    if kind == 0:
        del lines[rng.randrange(len(lines))]
    elif kind == 1:
        at = rng.randrange(len(lines))
        lines.insert(at, lines[at])
    elif kind == 2:
        lines.insert(rng.randrange(len(lines)), rng.choice(lines))
    elif kind == 3:
        at = rng.randrange(len(lines) - 1)
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
    else:
        at = rng.randrange(len(text))
        if kind == 4:
            return text[:at] + text[at + 1 :]
        if kind == 5:
            return text[:at] + rng.choice(ALPHABET) + text[at:]
        return text[:at] + rng.choice(ALPHABET) + text[at + 1 :]
    return "\n".join(lines)


def fuzz_bases():
    bases = [source(name, 3) for name in sorted(WORKLOADS)]
    bases += [
        generate_scenario(seed, GeneratorConfig(family=family)).source
        for seed, family in enumerate(FAMILIES)
    ]
    edit_bench = make_edit_bench_scenario(6, seed=3).source
    return bases + [edit_bench, edit_bench.replace("\n", "\r\n")]


def test_the_window_never_disagrees_with_the_full_front_end():
    rng = random.Random(20261020)
    outcomes = {"window": 0, "fell back": 0, "rejected": 0}
    for base in fuzz_bases():
        held = full(base)
        before = snapshot(held)
        for _ in range(40):
            text = mutate(base, rng)
            if rng.random() < 0.3:
                text = mutate(text, rng)
            got = held.edited(text)
            expected = full(text)
            if expected is None:
                assert got is None, text
                outcomes["rejected"] += 1
            elif got is None:
                outcomes["fell back"] += 1
            else:
                assert_same(got, expected)
                outcomes["window"] += 1
        assert snapshot(held) == before
    assert outcomes["window"] > 100 and outcomes["rejected"] > 100, outcomes
    assert outcomes["fell back"] > 0, outcomes


# ---------------------------------------------------------------------------
# Hand-written edges
# ---------------------------------------------------------------------------

BASE = """program edges

procedure main()
  root: handle; n: int
begin
  root := build(3);
  n := count(root);
  walk(root);
  leaf(root)
end

procedure walk(h: handle)
  l: handle
begin
  if h <> nil then
  begin
    l := h.left;
    walk(l)
  end
end

function count(h: handle): int
  s: int; l: handle
begin
  s := 0;
  if h <> nil then
  begin
    l := h.left;
    s := count(l);
    s := s + 1
  end
end
return (s)

procedure leaf(h: handle)
  r: handle
begin
  { the right spine }
  r := h.right;
  r.value := 1
end

function build(d: int): handle
  t, c: handle
begin
  t := nil;
  if d > 0 then
  begin
    t := new();
    c := build(d - 1);
    t.left := c
  end
end
return (t)
"""


def edited(old, new):
    return full(old).edited(new)


@pytest.mark.parametrize(
    "before,after",
    [
        pytest.param("program edges\n", "program edged\n", id="header"),
        pytest.param("procedure walk(h: handle)", "procedure walk(h: int)", id="parameter type"),
        pytest.param("procedure walk(h: handle)", "procedure walk(g: handle)", id="parameter name"),
        pytest.param("function count(h: handle): int", "function count(h: handle): handle",
                     id="return type"),
        pytest.param("procedure leaf(h", "procedure leaf2(h", id="renamed"),
        pytest.param("return (s)\n\nprocedure leaf", "return (s)\n\nprocedure extra()\nbegin\n"
                     "  skip\nend\n\nprocedure leaf", id="callable added"),
        # leaf's comment would close it for a full lex.
        pytest.param("    l := h.left;\n", "    l := h.left; {\n", id="unterminated comment"),
        pytest.param("return (s)\n\nprocedure leaf", "return (s)\n\nxprocedure leaf",
                     id="word glued onto the next procedure"),
        pytest.param("return (s)\n\nprocedure leaf", "return (s)\n\n  procedure leaf",
                     id="indented next procedure"),
        pytest.param("    walk(l)\n  end\nend\n", "    walk(l)\n  end\nend;;\n", id="two semicolons"),
    ],
)
def test_edits_the_window_declines(before, after):
    assert before in BASE
    assert edited(BASE, BASE.replace(before, after, 1)) is None


def test_removing_a_callable_falls_back():
    start = BASE.index("procedure leaf")
    stop = BASE.index("function build")
    text = BASE[:start] + BASE[stop:]
    assert edited(BASE, text.replace("  leaf(root)\n", "  skip\n")) is None


@pytest.mark.parametrize(
    "before,after",
    [
        pytest.param("    walk(l)\n  end\nend\n", "    walk(l)\n  end\nend // walked\n",
                     id="comment on the window's last line"),
        pytest.param("    s := s + 1\n", "    s := s + 2;\n    s := s - 1\n",
                     id="function in the window"),
        pytest.param("    walk(l)\n  end\nend\n", "    walk(l)\n  end\nend;\n",
                     id="stray semicolon between callables"),
        pytest.param("end\n\nfunction count", "end\n\n\n\nfunction count",
                     id="whitespace between callables"),
        pytest.param("end\nreturn (s)\n", "end\nreturn (s)\n{ a note\n  over two lines }\n",
                     id="comment between callables"),
        pytest.param("  r.value := 1\n", "  r.value := 1;\n  r := nil\n", id="last but one"),
        pytest.param("    t.left := c\n", "    t.left := c;\n    t.right := nil\n",
                     id="last callable"),
        pytest.param("  root: handle; n: int\n", "  root, spare: handle; n: int\n",
                     id="locals of main"),
        pytest.param("  leaf(root)\nend\n", "  leaf(root)\nend\n", id="unchanged"),
    ],
)
def test_edits_the_window_takes_match_a_full_parse(before, after):
    assert before in BASE
    text = BASE.replace(before, after, 1)
    got = edited(BASE, text)
    assert got is not None
    assert_same(got, full(text))


def test_an_edit_in_a_later_callable_keeps_earlier_ones_and_moves_later_ones():
    text = BASE.replace("    s := s + 1\n", "    s := s + 1;\n    s := s * 2\n", 1)
    held = full(BASE)
    got = held.edited(text)
    assert_same(got, full(text))
    assert got.program.procedure("main") is held.program.procedure("main")
    assert got.program.procedure("walk") is held.program.procedure("walk")
    moved = got.program.procedure("leaf")
    assert moved is not held.program.procedure("leaf")
    assert moved.loc.line == held.program.procedure("leaf").loc.line + 1


def test_an_appended_callable_falls_back_and_an_appended_blank_line_does_not():
    assert edited(BASE, BASE + "\nprocedure extra()\nbegin\n  skip\nend\n") is None
    got = edited(BASE, BASE + "\n")
    assert_same(got, full(BASE + "\n"))


# ---------------------------------------------------------------------------
# The daemon's service
# ---------------------------------------------------------------------------


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    original = service_module.parse_and_normalize

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(service_module, "parse_and_normalize", counted)
    return calls


def test_a_continued_chain_parses_whole_versions_only_for_its_first_request(parse_calls):
    versions = edit_stream(6, 4, 12)
    service = AnalysisService()
    for index, (old, new) in enumerate(replay(versions)):
        response = service.reanalyze(
            {"old_source": versions[old], "new_source": versions[new]}
        )
        assert response["base_reused"] is (index > 0)
        if index == 0:
            assert parse_calls == [versions[new], versions[old]]
    assert len(parse_calls) == 2


def test_a_declined_window_falls_back_to_the_full_front_end(parse_calls):
    service = AnalysisService()
    service.reanalyze({"old_source": BASE, "new_source": BASE})
    added = BASE.replace("return (s)\n\nprocedure leaf",
                         "return (s)\n\nprocedure extra()\nbegin\n  skip\nend\n\nprocedure leaf", 1)
    parse_calls.clear()
    response = service.reanalyze({"old_source": BASE, "new_source": added, "verify": True})
    assert parse_calls == [added]
    assert response["base_reused"] is True and response["verified"] is True


def test_an_error_inside_a_window_answers_what_a_fresh_service_answers(parse_calls):
    # count sits between carried callables on both sides.
    bad = BASE.replace("    s := s + 1\n", "    s := s + root\n", 1)
    service = AnalysisService()
    service.reanalyze({"old_source": BASE, "new_source": BASE})
    with pytest.raises(RequestError) as continued:
        service.reanalyze({"old_source": BASE, "new_source": bad})
    with pytest.raises(RequestError) as fresh:
        AnalysisService().reanalyze({"old_source": BASE, "new_source": bad})
    assert str(continued.value) == str(fresh.value)
    assert "TypeCheckError" in str(continued.value)
    good = BASE.replace("    s := s + 1\n", "    s := s + 2\n", 1)
    parse_calls.clear()
    response = service.reanalyze({"old_source": BASE, "new_source": good, "verify": True})
    assert parse_calls == []
    assert response["base_reused"] is True and response["verified"] is True


def test_a_window_read_against_a_replaced_version_is_parsed_again(monkeypatch, parse_calls):
    service = AnalysisService()
    service.reanalyze({"old_source": BASE, "new_source": BASE})
    good = BASE.replace("    s := s + 1\n", "    s := s + 2\n", 1)
    original = ParsedVersion.edited

    def replace_the_held_session(version, text):
        result = original(version, text)
        # Another request takes the slot while this one is outside the lock.
        service._held = service._held._replace(session=service._held.session)
        return result

    monkeypatch.setattr(ParsedVersion, "edited", replace_the_held_session)
    parse_calls.clear()
    response = service.reanalyze({"old_source": BASE, "new_source": good, "verify": True})
    assert parse_calls == [good]
    assert response["base_reused"] is True and response["verified"] is True


# ---------------------------------------------------------------------------
# The full front end
# ---------------------------------------------------------------------------


def test_parse_and_normalize_lowers_in_place_what_normalize_program_lowers():
    texts = [source(name, 3) for name in sorted(WORKLOADS)] + [
        generate_scenario(seed, GeneratorConfig(family=family)).source
        for seed, family in enumerate(FAMILIES)
    ]
    for text in texts:
        surface = parse_program(text)
        pristine = located(surface)
        core, info = normalize_program(surface)
        assert located(surface) == pristine
        program, fresh_info = parse_and_normalize(text)
        assert located(program) == located(core)
        assert types(fresh_info) == types(info)
        assert fresh_info.program is program


def test_the_command_line_does_not_load_the_window():
    script = "import sys, repro.cli; print('repro.sil.window' in sys.modules)"
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": str(SRC), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "False"
