"""The package names the benchmark under `perfbench/` wraps or reads.

`perfbench/spans.py` swaps engine, store, cache and registry methods for
timing wrappers by name, and `perfbench/metrics.py` reads the store's sealed
snapshots and the cache's footprint once a run ends. A renamed or deleted
method breaks those runs only when the benchmark runs with spans; this test
runs the same wrapping on a short workload. It also checks that the engine
looks each wrapped method up when it calls it, so that its span sees every
call. It only imports from `perfbench/`, without writing bytecode there.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

from delegauth import runner, scenario, trace
from delegauth.runner import _schedule_timeline, build_engine
from delegauth.workload import WorkloadParams, generate_workload

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spans_wrap_and_metrics_read_a_short_run(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans_module = importlib.import_module("spans")
    metrics = importlib.import_module("metrics")

    scn = generate_workload(WorkloadParams(n_inputs=300))
    engine, name_to_id = build_engine(scn)
    _schedule_timeline(engine, scn, name_to_id)
    repeats = 0
    record_repeat_input = engine.store.record_repeat_input

    def counting_repeat(root_id, i):
        nonlocal repeats
        repeats += 1
        record_repeat_input(root_id, i)

    monkeypatch.setattr(engine.store, "record_repeat_input", counting_repeat)
    spans = spans_module.Spans()
    with spans_module.instrument(engine, spans):
        begin = time.perf_counter_ns()
        engine.run_to_quiescence()
        faults = spans.check(begin, time.perf_counter_ns())
    assert faults == []

    totals, _top_ns = spans.totals()
    calls = {name: n for name, (n, _self_ns) in totals.items()}
    for name in ("graph.record_input", "graph.record_request", "graph.expire_graph", "auth.cache.lookup",
                 "model.validate_event"):
        assert calls[name] > 0, name
    # the engine looks each wrapped method up when it calls it: every fresh
    # input roots one graph, which seals once
    fresh = engine.stats.per_kind["input"].delivered - repeats
    assert calls["graph.record_input"] == calls["graph.expire_graph"] == fresh > 0
    assert engine.store.sealed  # some roots prompted, so their snapshots were kept
    facts = metrics.layer_facts(engine, calls)
    assert facts["auth.cache.footprint_bytes"][0] == engine.cache.footprint()["total"] > 0
    assert facts["graph.sealed_bytes"][0] > 0


def test_the_trace_names_perfbench_imports_are_those_of_the_trace_module():
    # perfbench imports the writer from `scenario` and the header from `runner`
    assert scenario.TraceWriter is trace.TraceWriter
    assert runner.trace_header is trace.trace_header
