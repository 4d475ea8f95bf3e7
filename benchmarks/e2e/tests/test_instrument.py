"""The measuring tools themselves: spans, roll-ups, statistics, verdicts."""

import sys
import time
import types

import trace as e2e_trace  # benchmarks/e2e/trace.py (conftest puts it first)

import compare
import layers
from common import percentile, quartiles, scrape_totals, tail_fraction


def test_spans_nest_and_self_time_excludes_children():
    recorder = e2e_trace.Recorder()

    def inner():
        time.sleep(0.02)

    traced_inner = recorder.wrap(inner, "inner")

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    recorder.wrap(outer, "outer", request=lambda: "r1")()
    spans = recorder.records()
    assert [s["name"] for s in spans] == ["outer", "inner", "inner"]
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert {s["request"] for s in spans} == {"r1"}, "children inherit the request id"
    rolled = e2e_trace.rollup(spans)
    assert rolled["inner"]["count"] == 2
    assert rolled["outer"]["self"] < rolled["outer"]["total"] - 0.03
    assert abs(rolled["outer"]["self"] + rolled["inner"]["total"]
               - rolled["outer"]["total"]) < 1e-9


def test_wrap_function_replaces_every_binding(monkeypatch):
    origin = types.ModuleType("repro_e2e_origin")
    origin.helper = lambda: 41
    importer = types.ModuleType("repro_e2e_importer")
    importer.helper = origin.helper
    monkeypatch.setitem(sys.modules, "repro_e2e_origin", origin)
    monkeypatch.setitem(sys.modules, "repro_e2e_importer", importer)
    recorder = e2e_trace.Recorder()
    recorder.wrap_function("repro_e2e_origin", "helper", "helper")
    assert importer.helper() == 41 and origin.helper() == 41
    assert len(recorder.records()) == 2
    recorder.wrap_function("repro_e2e_origin", "no_such_function", "x")
    recorder.wrap_method("repro_e2e_origin", "NoClass", "method", "x")
    assert recorder.missing == ["repro_e2e_origin.no_such_function",
                                "repro_e2e_origin.NoClass.method"]


def test_dump_and_load_round_trip(tmp_path):
    recorder = e2e_trace.Recorder()
    with recorder.span("block", tag=[1, 2]):
        pass
    recorder.dump(tmp_path / "spans.jsonl")
    spans, missing = e2e_trace.load(tmp_path / "spans.jsonl")
    assert missing == [] and len(spans) == 1
    assert spans[0]["name"] == "block" and spans[0]["tag"] == [1, 2]
    assert abs(spans[0]["start"] - recorder.records()[0]["start"]) < 0.05


def test_overlap_with_merges_intervals():
    covered = e2e_trace.overlap_with([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
    assert covered(0.0, 5.0) == 3.0
    assert covered(1.5, 3.5) == 1.0
    assert covered(2.0, 3.0) == 0.0


def test_writer_wait_excludes_the_commit_it_waited_for():
    spans = [
        {"id": 0, "name": "server.service.apply", "start": 0.0, "end": 1.0,
         "parent": None, "request": "c0-1", "tag": None, "thread": 1},
        {"id": 1, "name": "server.coalescer.wait", "start": 0.1, "end": 1.0,
         "parent": 0, "request": "c0-1", "tag": None, "thread": 1},
        {"id": 2, "name": "reasoner.apply", "start": 0.3, "end": 0.8,
         "parent": None, "request": None, "tag": 7, "thread": 2},
    ]
    figures = layers.from_spans(spans, {})
    assert abs(figures["server.coalescer.wait_s"] - 0.4) < 1e-9
    assert figures["tenancy.queue_wait_s"] == 0.0


def test_replay_under_a_reopen_is_recovery_not_commit_work():
    spans = [
        {"id": 0, "name": "persist.reopen", "start": 0.0, "end": 1.0,
         "parent": None, "request": None, "tag": None, "thread": 1},
        {"id": 1, "name": "reasoner.apply", "start": 0.1, "end": 0.6,
         "parent": 0, "request": None, "tag": 7, "thread": 1},
        {"id": 2, "name": "reasoner.dred", "start": 0.2, "end": 0.5,
         "parent": 1, "request": None, "tag": None, "thread": 1},
    ]
    figures = layers.from_spans(spans, {})
    assert figures["persist.recover_replay_s"] == 0.5
    assert figures["reasoner.apply_s"] == 0.0 and figures["reasoner.dred_s"] == 0.0
    assert layers.unattributed_share(spans, 2.0, {}, 0.0, caller=1) == 0.5


def test_statistics():
    assert percentile([5, 1, 3, 2, 4], 0.5) == 3
    assert percentile(list(range(1, 101)), 0.95) == 95
    assert percentile([9], 0.99) == 9
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0
    # 25 samples beyond the 95th percentile, or the tail is the 90th.
    assert tail_fraction(500) == 0.95 and tail_fraction(499) == 0.90


def test_scrape_totals_folds_labels_and_skips_buckets():
    text = "\n".join([
        "# HELP x_total help", "# TYPE x_total counter",
        'x_total{a="1"} 2', 'x_total{a="2"} 3',
        'h_bucket{le="1"} 9', "h_sum 1.5", "h_count 4",
    ])
    assert scrape_totals(text) == {"x_total": 5.0, "h_sum": 1.5, "h_count": 4.0}


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady, [v * 1.30 for v in steady], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.70 for v in steady], "lower", 0.10)[0] == "ok"
    assert compare.verdict(steady, [v * 0.70 for v in steady], "higher", 0.10)[0] == "regressed"
    noisy = [1.0, 1.6, 0.7, 1.3, 0.9]
    assert compare.verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"
