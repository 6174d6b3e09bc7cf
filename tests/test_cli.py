"""End-to-end coverage for the ``python -m repro`` batch-analysis CLI."""

import json
import re

import pytest

from repro.cli import main
from repro.sil.normalize import parse_and_normalize
from repro.workloads import WORKLOADS


class TestAnalyzeCommand:
    def test_analyze_named_workloads(self, capsys):
        assert main(["analyze", "tree_add", "list_walk"]) == 0
        out = capsys.readouterr().out
        assert "ok    tree_add" in out
        assert "ok    list_walk" in out
        assert "merged AnalysisStats" in out

    def test_analyze_defaults_to_all_workloads(self, capsys):
        assert main(["analyze", "--depth", "3"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert f"ok    {name}" in out

    def test_analyze_sharded_with_generated_and_census(self, capsys):
        assert main(
            ["analyze", "tree_add", "--generated", "3", "--shards", "2", "--census"]
        ) == 0
        out = capsys.readouterr().out
        assert "parallelism census" in out
        assert "shards (2)" in out

    def test_analyze_matrices_flag(self, capsys):
        assert main(["analyze", "add_and_reverse", "--matrices"]) == 0
        out = capsys.readouterr().out
        # The recursive procedures' entry matrices carry the h*/h** rows.
        assert "add_n: h* -> h" in out

    def test_analyze_unknown_workload_fails(self, capsys):
        assert main(["analyze", "nope"]) == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_analyze_duplicate_workload_fails_cleanly(self, capsys):
        assert main(["analyze", "tree_add", "tree_add"]) == 2
        assert "duplicate workloads" in capsys.readouterr().err

    def test_analyze_census_isolates_failures(self, capsys, monkeypatch):
        broken = "program broken\n\nprocedure main()\n  x: int\nbegin\n  x := y\nend\n"
        monkeypatch.setitem(WORKLOADS, "broken", broken)
        assert main(["analyze", "broken", "tree_add", "--census"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  broken" in out
        assert "broken" in out and "TypeCheckError" in out
        # The census still reports the healthy workload.
        assert "tree_add" in out.split("parallelism census")[1]

    def test_analyze_zero_shards_prints_the_count_the_runner_uses(self, capsys):
        assert main(["analyze", "tree_add", "list_walk", "--shards", "0"]) == 0
        out = capsys.readouterr().out
        assert "analyzing 2 workloads across 1 shard(s), streaming:" in out
        assert "analyzed 2/2 workloads across 1 shard(s)" in out

    def test_analyze_list(self, capsys):
        assert main(["analyze", "--list"]) == 0
        out = capsys.readouterr().out
        assert "tree_add" in out and "mixed" in out
        # The DAG-heavy / deep-recursion families are advertised.
        assert "dag" in out and "deep" in out

    def test_analyze_prints_widening_telemetry(self, capsys):
        assert main(["analyze", "--generated", "2", "--family", "deep"]) == 0
        out = capsys.readouterr().out
        assert "widening telemetry" in out
        assert "segment_collapses=" in out


CENSUS_ROW = re.compile(
    r"^\s+(\S+)\s+groups=(\d+)\s+call_groups=(\d+)\s+independent=(\d+)/(\d+)\s*$"
)
CENSUS_PROGRAMS = ["tree_add", "list_walk", "--generated", "3"]


def census_table(out):
    """``{program: (groups, call_groups, independent, queries)}`` as printed."""
    table = out.split("parallelism census")[1]
    return {
        match.group(1): tuple(int(value) for value in match.groups()[1:])
        for match in map(CENSUS_ROW.match, table.splitlines())
        if match
    }


def reference_census():
    """Census rows over the reference engine's results, program by program."""
    from repro.analysis.engine import analyze_program_reference
    from repro.parallel.oracle import PathMatrixOracle, parallelism_census
    from repro.workloads import GeneratorConfig, generate_scenarios, source

    config = GeneratorConfig(procedures=2, depth=4, aliasing=0.3).clamped()
    items = [(name, source(name, depth=4)) for name in ("tree_add", "list_walk")]
    scenarios = generate_scenarios(3, base_seed=0, config=config)
    items += [(s.name, s.source) for s in scenarios]
    rows = {}
    for name, text in items:
        program, info = parse_and_normalize(text)
        oracle = PathMatrixOracle(analysis=analyze_program_reference(program, info))
        row = parallelism_census(program, info, oracle=oracle)
        rows[name] = tuple(
            row[key] for key in ("groups", "call_groups", "independent_answers", "queries")
        )
    return rows


class TestAnalyzeCensus:
    """The census reuses the suite runner's own solve of each program."""

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_census_solves_each_program_once(self, tmp_path, capsys, shards):
        trace = tmp_path / "census_trace.json"
        argv = ["analyze", *CENSUS_PROGRAMS, "--census", "--shards", shards]
        assert main([*argv, "--trace", str(trace)]) == 0
        assert len(census_table(capsys.readouterr().out)) == 5
        events = json.loads(trace.read_text())["traceEvents"]
        solves = [e for e in events if e["ph"] == "X" and e["name"] == "analysis.solve"]
        assert len(solves) == 5

    def test_census_rows_match_the_reference_engine(self, tmp_path, capsys):
        expected = reference_census()
        assert len(expected) == 5
        for shards in ("1", "2"):
            assert main(["analyze", *CENSUS_PROGRAMS, "--census", "--shards", shards]) == 0
            assert census_table(capsys.readouterr().out) == expected, shards
        # A run that reads its transfers from a warm store prints the same rows.
        store = ["--cache-dir", str(tmp_path / "store")]
        assert main(["analyze", *CENSUS_PROGRAMS, "--census", *store]) == 0
        assert census_table(capsys.readouterr().out) == expected
        argv = ["analyze", *CENSUS_PROGRAMS, "--census", "--shards", "2", *store]
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "hit_rate=1.0000" in warm and "writes=0" in warm
        assert census_table(warm) == expected


class TestCacheOptions:
    def test_analyze_default_cache_line_without_persistent_tier(self, capsys):
        assert main(["analyze", "tree_add"]) == 0
        out = capsys.readouterr().out
        assert "transfer cache: persistent=none" in out

    def test_analyze_warm_rerun_against_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["analyze", "tree_add", "bst_build", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert "persistent=disk @" in cold
        assert "writes=" in cold

        assert main(["analyze", "tree_add", "bst_build", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr().out
        assert "hit_rate=1.0000" in warm
        assert "writes=0" in warm


class TestCacheSubcommand:
    def test_stats_on_missing_store(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "no transfer-cache store" in capsys.readouterr().out

    def test_stats_and_clear_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["analyze", "tree_add", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "writes" in out

        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0 and stats["backend"] == "disk"

        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0


class TestGenerateCommand:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--count", "2", "--family", "tree"]) == 0
        out = capsys.readouterr().out
        assert out.count("program tree_s") == 2

    def test_generate_to_directory_parses_back(self, tmp_path):
        out_dir = tmp_path / "scenarios"
        assert main(["generate", "--count", "4", "--out", str(out_dir)]) == 0
        files = sorted(out_dir.glob("*.sil"))
        assert len(files) == 4
        for path in files:
            program, _ = parse_and_normalize(path.read_text())
            assert program.name == path.stem

    def test_generate_verify_cross_checks(self, capsys):
        assert main(["generate", "--count", "2", "--depth", "2", "--verify"]) == 0
        assert "cross-checked 2 scenarios" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_end_to_end_writes_merged_artifact(self, tmp_path, capsys):
        artifact_path = tmp_path / "BENCH_analysis.json"
        assert main(
            ["bench", "--shards", "2", "--seeds", "5", "--output", str(artifact_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bit-identical to single process: True" in out

        artifact = json.loads(artifact_path.read_text())
        assert artifact["verified_identical"] is True
        assert artifact["population"]["generated_scenarios"] == 5
        # Merged stats carry counters only — no parent-process intern sizes.
        assert "pathsets_interned" not in artifact["sharded"]["stats"]
        assert artifact["sharded"]["workloads_analyzed"] == len(WORKLOADS) + 5
        shards = artifact["sharded"]["shards"]
        assert len(shards) == 2
        merged = artifact["sharded"]["stats"]
        for counter in ("worklist_pops", "programs_analyzed", "statements_visited"):
            assert merged[counter] == sum(shard["stats"][counter] for shard in shards)

    def test_bench_zero_shards_prints_the_count_the_runner_uses(self, tmp_path, capsys):
        assert main(
            ["bench", "--shards", "0", "--seeds", "0", "--no-verify",
             "--output", str(tmp_path / "bench.json")]
        ) == 0
        assert "sharded run (1 shards)" in capsys.readouterr().out

    def test_bench_no_verify_skips_reference_run(self, tmp_path, capsys):
        artifact_path = tmp_path / "bench.json"
        assert main(
            ["bench", "--shards", "1", "--seeds", "2", "--no-verify",
             "--output", str(artifact_path)]
        ) == 0
        artifact = json.loads(artifact_path.read_text())
        assert "verified_identical" not in artifact
        assert "single-process reference" not in capsys.readouterr().out

    def test_bench_artifact_carries_per_workload_widening_telemetry(self, tmp_path):
        artifact_path = tmp_path / "bench.json"
        assert main(
            ["bench", "--shards", "2", "--seeds", "4", "--family", "deep",
             "--output", str(artifact_path)]
        ) == 0
        artifact = json.loads(artifact_path.read_text())
        assert artifact["verified_identical"] is True  # sharded == single process
        widening = artifact["sharded"]["widening"]
        assert len(widening) == len(WORKLOADS) + 4
        deep_rows = [row for name, row in widening.items() if name.startswith("deep_")]
        assert deep_rows and all(row["segment_collapses"] > 0 for row in deep_rows)
        # The safety net never fires.
        assert all(row["iteration_guard_trips"] == 0 for row in widening.values())
        merged = artifact["sharded"]["stats"]
        for counter in ("segment_collapses", "path_set_collapses"):
            assert counter in merged

    def test_bench_artifact_records_cache_section_and_digest(self, tmp_path):
        artifact_path = tmp_path / "bench.json"
        cache_dir = str(tmp_path / "store")
        assert main(
            ["bench", "--shards", "2", "--seeds", "3", "--cache-dir", cache_dir,
             "--output", str(artifact_path)]
        ) == 0
        artifact = json.loads(artifact_path.read_text())
        cache = artifact["cache"]
        assert cache["directory"] == cache_dir
        assert "backend" not in cache and "policy" not in cache
        assert cache["persistent"]["writes"] > 0
        assert artifact["verified_identical"] is True
        digest = artifact["sharded"]["results_digest"]
        assert len(digest) == 64

        # A warm rerun is bit-identical (same digest) with a full hit rate.
        warm_path = tmp_path / "warm.json"
        assert main(
            ["bench", "--shards", "2", "--seeds", "3", "--cache-dir", cache_dir,
             "--output", str(warm_path)]
        ) == 0
        warm = json.loads(warm_path.read_text())
        assert warm["sharded"]["results_digest"] == digest
        assert warm["cache"]["persistent"]["hit_rate"] == 1.0
        assert warm["cache"]["persistent"]["writes"] == 0

    def test_bench_without_cache_reports_null_backend(self, tmp_path):
        artifact_path = tmp_path / "bench.json"
        assert main(
            ["bench", "--shards", "1", "--seeds", "2", "--no-verify",
             "--output", str(artifact_path)]
        ) == 0
        cache = json.loads(artifact_path.read_text())["cache"]
        assert cache["directory"] is None and "backend" not in cache
        assert cache["persistent"]["hits"] == 0

    def test_bench_artifact_records_effective_clamped_knobs(self, tmp_path):
        artifact_path = tmp_path / "bench.json"
        assert main(
            ["bench", "--shards", "1", "--seeds", "2", "--no-verify",
             "--depth", "20", "--procedures", "10", "--output", str(artifact_path)]
        ) == 0
        generator = json.loads(artifact_path.read_text())["population"]["generator"]
        assert generator["depth"] == 8  # clamped, not the raw CLI value
        assert generator["procedures"] == 4


class TestReanalyzeCommand:
    def test_generated_pair_verifies_against_cold(self, capsys):
        assert main(
            ["reanalyze", "--family", "deep", "--seed", "3", "--depth", "6",
             "--edits", "1", "--edit-kind", "insert", "--target", "main"]
        ) == 0
        out = capsys.readouterr().out
        assert "verified against cold solve: True" in out
        assert "re-analyzed 1/" in out

    def test_json_payload_shape(self, capsys):
        assert main(
            ["reanalyze", "--family", "dag", "--seed", "1", "--edits", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("delta", "dirty_seed", "procedures_reanalyzed",
                    "procedures_total", "summaries_reused", "digest",
                    "verified", "cold_digest", "edit_script"):
            assert key in payload
        assert payload["verified"] is True
        assert payload["digest"] == payload["cold_digest"]

    def test_file_pair_mode(self, tmp_path, capsys):
        from repro.workloads import generate_edited_pair, generate_scenario
        from repro.workloads.generators import GeneratorConfig

        scenario = generate_scenario(0, GeneratorConfig(family="list"))
        pair = generate_edited_pair(scenario.source, 0, edits=1)
        old = tmp_path / "old.sil"
        new = tmp_path / "new.sil"
        old.write_text(pair.old_source)
        new.write_text(pair.new_source)
        assert main(["reanalyze", str(old), str(new)]) == 0
        assert "verified against cold solve: True" in capsys.readouterr().out

    def test_one_file_without_the_other_fails(self, tmp_path, capsys):
        lonely = tmp_path / "old.sil"
        lonely.write_text("program p procedure main() begin end")
        assert main(["reanalyze", str(lonely)]) == 2
        assert capsys.readouterr().err

    def test_output_artifact(self, tmp_path):
        artifact = tmp_path / "reanalysis.json"
        assert main(
            ["reanalyze", "--family", "deep", "--edits", "1",
             "--edit-kind", "insert", "--output", str(artifact)]
        ) == 0
        payload = json.loads(artifact.read_text())
        assert payload["verified"] is True


class StubClient:
    """Answers every ``reanalyze`` with a canned daemon response."""

    def __init__(self, response):
        self.response = response

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def reanalyze(self, *args, **kwargs):
        return self.response


class TestClientReanalyzeExitCode:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("verified, code", [(True, 0), (False, 1), (None, 0)])
    def test_exit_code_follows_verification(
        self, monkeypatch, capsys, json_flag, verified, code
    ):
        from repro import cli
        from repro.analysis.reanalysis import IncrementalSession
        from repro.workloads import generate_edited_pair, generate_scenario

        scenario = generate_scenario(0)
        pair = generate_edited_pair(scenario.source, 0, edits=1)
        session = IncrementalSession()
        session.analyze(*parse_and_normalize(pair.old_source))
        response = session.reanalyze(*parse_and_normalize(pair.new_source)).as_dict()
        response["program"] = scenario.name
        if verified is not None:
            response.update(verified=verified, cold_digest="0" * 64, cold_widening={})
        monkeypatch.setattr(cli, "_client", lambda args: StubClient(response))
        assert main(["client", "reanalyze", "--socket", "unused.sock"] + json_flag) == code
        out = capsys.readouterr().out
        if json_flag:
            assert json.loads(out)["digest"] == response["digest"]


class TestCacheCompactCommand:
    def test_compact_missing_store_is_graceful(self, tmp_path, capsys):
        assert main(["cache", "compact", "--cache-dir", str(tmp_path / "nope")]) == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_compact_populated_store(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "store")
        assert main(["analyze", "tree_add", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "compact", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "swept 0 stale entries" in out
        assert main(
            ["cache", "compact", "--cache-dir", cache_dir, "--max-age", "0", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compact"]["remaining"] == 0
        assert payload["stats"]["compactions"] == 2
