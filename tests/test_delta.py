"""Unit tests for semantic program deltas (:mod:`repro.sil.delta`).

The differ is the front half of cross-run incremental re-analysis: it must
(a) identify statements exactly the way the persistent cache codec keys
them, (b) classify procedure changes conservatively, and (c) produce a
dirty seed that covers every procedure whose analysis could differ.
"""

import pytest

from repro.cache.codec import canonical_statement
from repro.sil import ast
from repro.sil.delta import (
    call_graph,
    diff_programs,
    dirty_seed,
    identity_label,
    program_identities,
    reverse_call_graph,
    statement_identity,
    statement_label,
    statement_rebase_map,
)
from repro.sil.normalize import parse_and_normalize

BASE = """
program p
procedure main() h: handle begin h := new(); grow(h); trim(h) end
procedure grow(a: handle) begin a.left := new() end
procedure trim(b: handle) begin b.left := nil end
"""

CHAIN = """
program p
procedure main() h: handle begin h := new(); outer(h) end
procedure outer(a: handle) begin inner(a) end
procedure inner(b: handle) begin b.value := 1 end
"""


def normalized(source):
    program, _ = parse_and_normalize(source)
    return program


class TestStatementIdentity:
    def test_identity_is_kind_plus_rendering(self):
        program = normalized(BASE)
        stmt = program.main.body.stmts[0]
        kind, rendering = statement_identity(stmt)
        assert kind == type(stmt).__name__
        assert rendering  # the inline rendering is never empty

    def test_reparse_preserves_identity(self):
        first = normalized(BASE).main.body.stmts
        second = normalized(BASE).main.body.stmts
        assert [statement_identity(s) for s in first] == [
            statement_identity(s) for s in second
        ]

    def test_label_matches_cache_codec_contract(self):
        # The stale-statement labels a delta emits must name exactly the
        # rows the persistent store keyed — the codec delegates here.
        program = normalized(BASE)
        for proc in program.all_callables:
            for stmt in ast.walk_stmt(proc.body):
                assert canonical_statement(stmt) == list(statement_identity(stmt))
                assert statement_label(stmt) == identity_label(statement_identity(stmt))


class TestDiffPrograms:
    def test_identical_programs_empty_delta(self):
        delta = diff_programs(normalized(BASE), normalized(BASE))
        assert delta.is_empty
        assert delta.dirty_procedures == frozenset()
        assert set(delta.unchanged) == {"main", "grow", "trim"}

    def test_body_edit_marks_one_procedure_changed(self):
        edited = BASE.replace("b.left := nil", "b.right := nil")
        delta = diff_programs(normalized(BASE), normalized(edited))
        assert [d.name for d in delta.changed] == ["trim"]
        (proc_delta,) = delta.changed
        assert proc_delta.kind == "body"
        assert proc_delta.removed_statements and proc_delta.added_statements
        assert set(delta.unchanged) == {"main", "grow"}
        assert delta.dirty_procedures == frozenset({"trim"})

    def test_stale_labels_name_removed_statements_only(self):
        edited = BASE.replace("b.left := nil", "b.right := nil")
        old = normalized(BASE)
        delta = diff_programs(old, normalized(edited))
        old_trim_labels = {
            statement_label(s) for s in ast.walk_stmt(old.callable("trim").body)
        }
        assert delta.stale_statement_labels
        assert delta.stale_statement_labels <= old_trim_labels

    def test_signature_change_detected_without_body_change(self):
        edited = BASE.replace("procedure trim(b: handle)", "procedure trim(b: handle) t: handle")
        delta = diff_programs(normalized(BASE), normalized(edited))
        (proc_delta,) = delta.changed
        assert proc_delta.name == "trim"
        assert proc_delta.kind == "signature"

    def test_added_and_removed_procedures(self):
        grown = BASE + "\nprocedure extra(c: handle) begin c.value := 0 end\n"
        delta = diff_programs(normalized(BASE), normalized(grown))
        assert delta.added == ("extra",)
        assert not delta.removed
        reverse = diff_programs(normalized(grown), normalized(BASE))
        assert reverse.removed == ("extra",)
        assert not reverse.added


class TestRebaseMap:
    def test_rebase_maps_every_statement_of_unchanged_procs(self):
        old = normalized(BASE)
        new = normalized(BASE)
        mapping = statement_rebase_map(old, new, ["grow", "trim"])
        for name in ("grow", "trim"):
            old_stmts = list(ast.walk_stmt(old.callable(name).body))
            new_stmts = list(ast.walk_stmt(new.callable(name).body))
            for old_stmt, new_stmt in zip(old_stmts, new_stmts):
                assert mapping[id(old_stmt)] is new_stmt

    def test_rebase_refuses_a_changed_procedure(self):
        edited = BASE.replace("b.left := nil", "b.right := nil")
        with pytest.raises(ValueError, match="trim"):
            statement_rebase_map(normalized(BASE), normalized(edited), ["trim"])


class TestIdentityTables:
    def test_table_holds_every_statement_once(self):
        program = normalized(BASE)
        table = program_identities(program)
        stmts = [
            stmt for proc in program.all_callables for stmt in ast.walk_stmt(proc.body)
        ]
        assert len(table) == len(stmts)
        for stmt in stmts:
            assert table[id(stmt)] == statement_identity(stmt)

    def test_diff_reads_identities_from_the_tables(self):
        old, new = normalized(BASE), normalized(BASE)
        old_table = program_identities(old)
        # An in-place edit after the table was rendered: the diff still sees
        # the rendered content, while a fresh render sees the edit.
        old.callable("trim").body.stmts[0].target = "a"
        assert diff_programs(old, new, old_table).is_empty
        assert [d.name for d in diff_programs(old, new).changed] == ["trim"]

    def test_rebase_compares_table_entries(self):
        old, new = normalized(BASE), normalized(BASE)
        new_table = program_identities(new)
        stmt = new.callable("grow").body.stmts[0]
        new_table[id(stmt)] = ("Assign", "a.left := nil")
        with pytest.raises(ValueError, match="grow"):
            statement_rebase_map(old, new, ["grow"], None, new_table)


class TestDirtySeed:
    def test_call_graph_edges(self):
        graph = call_graph(normalized(CHAIN))
        assert graph["main"] == {"outer"}
        assert graph["outer"] == {"inner"}
        assert graph["inner"] == set()

    def test_reverse_call_graph_edges(self):
        reverse = reverse_call_graph(normalized(CHAIN))
        assert reverse["inner"] == {"outer"}
        assert reverse["outer"] == {"main"}
        assert reverse["main"] == set()

    def test_seed_closes_over_transitive_callers(self):
        edited = CHAIN.replace("b.value := 1", "b.value := 2")
        new = normalized(edited)
        delta = diff_programs(normalized(CHAIN), new)
        assert delta.dirty_procedures == frozenset({"inner"})
        assert dirty_seed(delta, new) == frozenset({"inner", "outer", "main"})

    def test_seed_does_not_include_callees_of_dirty_procs(self):
        # Editing main dirties only main: its callees re-analyze on their
        # own if (and only if) their entry matrices actually change.
        edited = CHAIN.replace("h := new(); outer(h)", "h := new(); h.value := 9; outer(h)")
        new = normalized(edited)
        delta = diff_programs(normalized(CHAIN), new)
        assert dirty_seed(delta, new) == frozenset({"main"})
