"""Seeded inputs are deterministic; the span reduction computes self time."""

import os

import pytest

from perfbench import corpus, oneshot_cli, spans
from perfbench.spans import layer_table


def test_batch_items_depend_only_on_the_seed():
    first = corpus.batch_items(3)
    assert first == corpus.batch_items(3)
    assert corpus.digest(first) != corpus.digest(corpus.batch_items(4))
    names = [name for name, _ in first]
    assert len(names) == len(set(names))
    assert names[-1].startswith(f"editbench_p{corpus.SIZE_TIER[-1]}_")


def test_edit_stream_depends_only_on_the_seed(monkeypatch):
    monkeypatch.setattr(corpus, "EDIT_VERSIONS", 7)
    first = corpus.edit_stream(5)
    assert first == corpus.edit_stream(5)
    assert first != corpus.edit_stream(6)
    assert len(first) == 7 and len(set(first)) > 1


def test_replay_walks_forward_then_back():
    versions = ["v0", "v1", "v2", "v3"]
    pairs = [corpus.replay_pair(versions, index) for index in range(8)]
    assert pairs == [(0, 1), (1, 2), (2, 3), (3, 2), (2, 1), (1, 0), (0, 1), (1, 2)]


def test_cli_calls_name_the_programs_the_cli_generates():
    from repro.workloads import GeneratorConfig, generate_scenarios

    plan = corpus.cli_plan(9)
    assert plan == corpus.cli_plan(9)
    assert corpus.digest(plan) != corpus.digest(corpus.cli_plan(10))
    for call in plan["calls"][:12]:
        families = call[call.index("--family") + 1].split(",")
        seed = int(call[call.index("--seed") + 1])
        config = GeneratorConfig(**corpus.LARGEST_SHAPE)
        made = generate_scenarios(len(families), base_seed=seed, config=config,
                                  families=families)
        names = oneshot_cli.call_programs(call)
        assert names[corpus.CLI_NAMED_PER_CALL:] == [scenario.name for scenario in made]
        for scenario in made:
            assert corpus.cli_program_source(plan["programs"][scenario.name]) == scenario.source


def _span(span_id, parent, name, start, end):
    return (span_id, parent, None, name, start, end, None)


def test_self_time_is_a_span_minus_its_children():
    spans = [
        _span("r", None, "root", 0.0, 10.0),
        _span("a", "r", "child", 1.0, 3.0),
        _span("g", "a", "grandchild", 1.5, 2.0),
        _span("b", "r", "child", 5.0, 6.0),
    ]
    table = layer_table(spans)
    assert table["root"] == pytest.approx(7.0)
    assert table["child"] == pytest.approx(1.5 + 1.0)
    assert table["grandchild"] == pytest.approx(0.5)
    assert sum(table.values()) == pytest.approx(10.0)


def test_concurrent_children_split_the_time_they_share():
    spans = [
        _span("r", None, "runner", 0.0, 10.0),
        _span("s0", "r", "shard0", 0.0, 8.0),
        _span("s1", "r", "shard1", 0.0, 4.0),
    ]
    table = layer_table(spans)
    assert table == pytest.approx({"shard0": 2.0 + 4.0, "shard1": 2.0, "runner": 2.0})


def test_time_outside_every_span_is_left_out():
    spans = [_span("x", None, "op", 0.0, 1.0), _span("y", None, "op", 3.0, 4.0)]
    assert layer_table(spans) == pytest.approx({"op": 2.0})


@pytest.fixture
def tracer():
    from repro.obs.trace import Tracer, install_tracer, uninstall_tracer

    installed = install_tracer(Tracer())
    yield installed
    uninstall_tracer()


def test_wrapped_calls_record_linked_spans_on_the_repo_tracer(tracer):
    from repro.obs.trace import span as repo_span

    links = spans.Links()

    def inner():
        with repo_span("repo.own"):
            return 1

    outer = links.wrap(lambda: links.wrap(inner, "inner")(), "outer",
                       after=lambda args, kwargs, result, state: {"calls": result})
    outer()
    remote = links.wrap(inner, "remote", context=lambda args, kwargs: ("op-7", "client.1"))
    remote()
    with links.span("manual", ("op-8", None)) as args:
        assert args[spans.ID].startswith(f"{os.getpid()}.")
    seen = {span[3]: span for span in spans.spans_of(tracer.drain())}
    assert set(seen) == {"inner", "outer", "remote", "manual"}  # not repo.own
    assert seen["inner"][1] == seen["outer"][0]
    assert seen["outer"][1] is None and seen["outer"][6] == {"calls": 1}
    assert seen["remote"][1:3] == ("client.1", "op-7")
    assert seen["manual"][1:3] == (None, "op-8")


def test_wrappers_record_nothing_without_a_tracer():
    links = spans.Links()
    wrapped = links.wrap(lambda: 5, "idle")
    assert wrapped() == 5
    with links.span("idle") as args:
        assert args[spans.ID] is None


def test_events_round_trip_through_the_trace_directory(tracer, tmp_path):
    links = spans.Links()
    with links.span("root", ("op-1", None)):
        links.wrap(lambda: None, "leaf")()
    spans.dump(tracer, tmp_path)
    loaded = spans.spans_of(spans.load_events(tmp_path))
    assert sorted(span[3] for span in loaded) == ["leaf", "root"]
    table = layer_table(loaded)
    root = next(span for span in loaded if span[3] == "root")
    assert sum(table.values()) == pytest.approx(root[5] - root[4], abs=2e-6)


def test_layer_metrics_add_up_to_the_wall_time_but_the_residual():
    from perfbench import layers

    spans = [
        ("c", None, "call-0", "cli.process", 0.0, 1.0, None),
        ("m", "c", "call-0", "cli.main", 0.2, 0.9, None),
        ("p", "m", "call-0", "sil.parse", 0.3, 0.4, {"statements": 30}),
        ("s", "m", "call-0", "analysis.solve", 0.4, 0.8,
         {"transfer_cache_hits": 3, "transfer_cache_misses": 1}),
        ("c2", None, "call-1", "cli.process", 1.5, 2.5, None),
    ]
    metrics = layers.from_spans(spans, ops=2, wall=2.5)
    rows = sum(metrics[metric] for metric in layers.SPAN_METRICS.values())
    assert rows == pytest.approx(1000.0)  # 2.0 s of spans over 2 ops
    assert metrics["trace.wall_ms"] == pytest.approx(1250.0)
    assert metrics["trace.residual_ratio"] == pytest.approx(0.5 / 2.5)
    assert metrics["cli.main_ms"] == pytest.approx(100.0)
    assert metrics["cli.work_ms"] == pytest.approx(250.0)
    assert metrics["sil.statements"] == pytest.approx(15.0)
    assert metrics["analysis.transfer_hit_ratio"] == pytest.approx(0.75)
    assert set(layers.complete(metrics)) == set(layers.PER_LAYER)
