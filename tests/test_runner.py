from __future__ import annotations

import gc
import heapq
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from delegauth import (
    AuthorizationCache,
    WorkloadParams,
    compare_modes,
    generate_workload,
    run_scenario,
    run_with_trace,
)
from delegauth.engine import Engine, Mode
from delegauth.errors import InvariantViolation, TraceDivergence
from delegauth.graph import GraphStore
from delegauth.runner import replay, trace_header
from delegauth.scenario import TraceWriter, loads_scenario
from delegauth.scheduler import HandlerTable
from delegauth.trace import records
from conftest import DATA


def test_compare_modes_on_task_a(task_a):
    reports = compare_modes(task_a)
    fu = reports["first_use"]
    en = reports["delegation"]
    assert fu.main_prompts == 0 and fu.attack_outcomes["stealth_screen_grab"] is True
    assert en.main_prompts == 1 and en.attack_outcomes["stealth_screen_grab"] is False
    assert not fu.expect_failures and not en.expect_failures


def test_empty_timeline_produces_empty_report():
    scn = loads_scenario(
        "\n".join(
            [
                '{"format":"delegauth-scenario","version":1}',
                '{"kind":"program","name":"A","mark":"A"}',
                '{"kind":"widget","label":"go","input":"voice"}',
                '{"kind":"sensor","id":"Camera"}',
                '{"kind":"operation","op":"snap","sensors":["Camera"],"phrase":"capture"}',
                '{"kind":"mode","mode":"delegation"}',
            ]
        )
    )
    for mode, report in compare_modes(scn).items():
        assert report.decisions == []
        assert sum(report.prompt_counts.values()) == 0
        assert report.delay_stats["total_events"] == 0


def test_contention_report_delay_stats_and_histogram_are_pinned():
    report, _ = run_scenario(loads_scenario((DATA / "contention.scn").read_text()))
    kind = ("submitted", "delivered", "delayed", "expired", "max_delay_ms")
    pinned = {
        "total_events": 28,
        "delayed_events": 2,
        "expired_events": 2,
        "max_delay_ms": 146,
        "delayed_fraction": 2 / 28,
        "per_kind": {
            "input": dict(zip(kind, (5, 5, 0, 0, 0))),
            "handoff": dict(zip(kind, (19, 12, 2, 2, 146))),
            "request": dict(zip(kind, (4, 4, 0, 0, 0))),
        },
        "derived": dict(zip(kind, (21, 17, 1, 1, 146))),
    }
    # json.dumps keeps insertion order, so this pins the key order too
    assert json.dumps(report.delay_stats) == json.dumps(pinned)
    assert report.path_edge_histogram == {3: 3}


def test_mode_override_aliases(task_a):
    for alias in ("entrust", "delegation"):
        report, _ = run_scenario(task_a, mode=alias)
        assert report.mode == "delegation"
    for alias in ("first-use", "first_use"):
        report, _ = run_scenario(task_a, mode=alias)
        assert report.mode == "first_use"


def test_first_use_and_path_answers_under_non_default_rules(task_b):
    # a first-use prompt names no widget, so a rule that names one never
    # matches it; a rule that names the chain and op does
    task_b = replace(task_b, policies={**task_b.policies, "preliminary": [
        'deny "take a selfie" * * *', 'deny * "Basic Camera" record_audio *', "allow * * * *",
    ]})

    def answers(report):
        return [(d.phase, d.op, d.outcome, d.reason) for d in report.engine_decisions]

    fu, _ = run_scenario(task_b, mode="first-use")
    assert answers(fu) == [
        ("preliminary", "capture_picture", "allowed", "prompted"),
        ("preliminary", "record_audio", "denied", "prompted"),
        ("preliminary", "read_location", "allowed", "prompted"),
        ("main", "capture_picture", "allowed", "cached"),
        ("main", "record_audio", "denied", "prompted"),
        ("main", "read_location", "allowed", "cached"),
    ]
    assert fu.prompt_counts == {"preliminary": 3, "main": 1}
    # the preliminary prompt names record_audio, so its one answer denies all three
    en, _ = run_scenario(task_b, mode="delegation")
    assert [(phase, outcome, reason) for phase, _, outcome, reason in answers(en)] == (
        [("preliminary", "denied", "prompted")] * 3 + [("main", "denied", "prompted")] * 3
    )
    assert en.prompt_counts == {"preliminary": 1, "main": 1}


def test_expect_failures_surface_when_policy_flipped(task_a):
    # allow-all main policy makes the delegation attack "succeed on prompt",
    # violating the scenario's 0-attack expectation? No: prompted allows are
    # not silent, so the attack still fails; flip the expectation instead by
    # running first-use without its preliminary grant phase.
    scn = loads_scenario(task_a.source_text.replace('"event","phase":"preliminary",', '"event","phase":"main",'))
    report, _ = run_scenario(scn, mode="first-use")
    assert report.expect_failures  # preliminary prompt count no longer matches


def test_trace_replay_round_trip(task_b, tmp_path):
    trace_path = tmp_path / "b.trace"
    report, writer = run_with_trace(task_b, trace_path, mode="entrust")
    assert trace_path.exists()
    replayed = replay(trace_path)
    assert replayed.main_prompts == report.main_prompts


def test_a_trace_run_in_a_mode_member_writes_its_spelling_and_replays(task_a, tmp_path):
    trace_path = tmp_path / "first_use.trace"
    report, _writer = run_with_trace(task_a, trace_path, mode=Mode.FIRST_USE)
    assert json.loads(trace_path.read_text().splitlines()[0])["mode"] == "first_use"
    assert report.decisions == run_scenario(task_a, mode=Mode.FIRST_USE)[0].decisions
    assert replay(trace_path).decisions == report.decisions
    # no spelling re-runs the unmediated baseline, so no trace of it is begun
    with pytest.raises(InvariantViolation):
        run_with_trace(task_a, tmp_path / "pass_through.trace", mode=Mode.PASS_THROUGH)
    assert not (tmp_path / "pass_through.trace").exists()


def test_a_trace_whose_header_records_a_seed_replays(task_b, tmp_path):
    # older traces recorded a seed, which a run never read; replay still takes them
    trace_path = tmp_path / "seeded.trace"
    with open(trace_path, "w") as fh:
        writer = TraceWriter(fh, trace_header(task_b, "entrust", None, None, 9))
        report, _engine = run_scenario(task_b, mode="entrust", trace=writer)
    assert json.loads(trace_path.read_text().splitlines()[0])["seed"] == 9
    assert replay(trace_path).decisions == report.decisions


def test_a_scenario_changed_by_replace_replays(task_a, tmp_path):
    # `replace` drops the loaded text, so the trace embeds the changed scenario, not the file it came from
    scn = replace(task_a, policies={**task_a.policies, "main": ["allow * * * *"]})
    trace_path = tmp_path / "changed.trace"
    report, _writer = run_with_trace(scn, trace_path)
    assert report.decisions != run_scenario(task_a)[0].decisions
    assert replay(trace_path).decisions == report.decisions


def test_a_generated_scenario_changed_in_place_replays(tmp_path):
    # a scenario made in Python holds no text of its own, so its trace embeds what it holds when it runs
    scn = generate_workload(WorkloadParams(n_inputs=300))
    scn.policies["main"] = ["deny * * * *"]
    trace_path = tmp_path / "changed.trace"
    report, _writer = run_with_trace(scn, trace_path)
    assert any(d["outcome"] == "denied" for d in report.decisions)
    assert replay(trace_path).decisions == report.decisions


def test_trace_mutation_detected(task_a, tmp_path):
    trace_path = tmp_path / "a.trace"
    run_with_trace(task_a, trace_path, mode="entrust")
    lines = trace_path.read_text().splitlines()
    for mutate_at in (5, len(lines) // 2, len(lines) - 1):
        rec = json.loads(lines[mutate_at])
        rec["t"] = rec.get("t", 0) + 1
        mutated = list(lines)
        mutated[mutate_at] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        bad = tmp_path / f"mut{mutate_at}.trace"
        bad.write_text("\n".join(mutated) + "\n")
        with pytest.raises(TraceDivergence) as exc:
            replay(bad)
        assert exc.value.seq == mutate_at


def test_replay_flags_missing_and_extra_records(task_a, tmp_path):
    trace_path = tmp_path / "a.trace"
    run_with_trace(task_a, trace_path, mode="entrust")
    lines = trace_path.read_text().splitlines()
    cut = tmp_path / "cut.trace"  # the re-run has 3 records more than this file
    cut.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(TraceDivergence) as exc:
        replay(cut)
    assert exc.value.seq == len(lines) - 3
    longer = tmp_path / "longer.trace"  # the re-run stops one record short of this file
    longer.write_text("\n".join(lines + lines[-1:]) + "\n")
    with pytest.raises(TraceDivergence) as exc:
        replay(longer)
    assert exc.value.seq == len(lines)


def test_replay_accepts_a_trace_without_its_final_newline(task_a, tmp_path):
    trace_path = tmp_path / "a.trace"
    run_with_trace(task_a, trace_path, mode="entrust")
    trace_path.write_text(trace_path.read_text().rstrip("\n"))
    assert replay(trace_path).main_prompts == 1


def test_run_that_raises_leaves_every_emitted_record_on_disk(task_a, tmp_path, monkeypatch):
    full = tmp_path / "full.trace"
    run_with_trace(task_a, full, mode="entrust")
    emitted = lookups = 0
    real_emit, real_lookup = Engine._emit, HandlerTable.lookup

    def counting_emit(self, line, *fields):
        nonlocal emitted
        emitted += 1
        real_emit(self, line, *fields)

    def failing_lookup(self, *args):
        nonlocal lookups
        lookups += 1
        if lookups == 2:
            raise RuntimeError("handler failed")
        return real_lookup(self, *args)

    monkeypatch.setattr(Engine, "_emit", counting_emit)
    monkeypatch.setattr(HandlerTable, "lookup", failing_lookup)
    cut = tmp_path / "cut.trace"
    with pytest.raises(RuntimeError, match="handler failed") as failure:
        run_with_trace(task_a, cut, mode="entrust")
    # the traceback in `failure` keeps the run's frames and so the file object
    # alive: the file is complete here only if the run closed it
    text = cut.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert emitted > 0 and len(lines) == 1 + emitted  # the header, then each record
    assert lines == full.read_text().splitlines()[: len(lines)]


def test_heap_holds_one_entry_per_real_occurrence(monkeypatch):
    # timeline submissions wait beside the heap, a deadline is pushed only
    # for a ticket that is held, and an expiry once per root; every heap entry
    # passes through `heapq.heappush`, which the engine looks up when it pushes
    pushes = Counter()
    real_push = heapq.heappush

    def counting_push(heap, entry):
        _t, _seq, fire, _arg = entry
        pushes[fire.__name__] += 1
        real_push(heap, entry)

    real_record_input = GraphStore.record_input

    def counting_record_input(store, *args, **kwargs):
        pushes["record_input"] += 1
        return real_record_input(store, *args, **kwargs)

    monkeypatch.setattr(heapq, "heappush", counting_push)
    monkeypatch.setattr(GraphStore, "record_input", counting_record_input)
    contention = loads_scenario((DATA / "contention.scn").read_text())
    for scn in (contention, generate_workload(WorkloadParams(n_inputs=600))):
        pushes.clear()
        lines = []
        run_scenario(scn, trace=lines.append)
        recs = list(records(lines))
        kinds = Counter(r["kind"] for r in recs)
        assert pushes["_fire_deadline"] == kinds["hold"] > 0
        assert pushes["_fire_root_expiry"] == pushes["record_input"] > 0
        assert "_admit_spec" not in pushes
        if scn is contention:
            assert any(r["kind"] == "expire" and r.get("reason") == "hold_deadline" for r in recs)


def test_untraced_runs_never_call_emit(task_a, task_b, task_c, monkeypatch):
    calls = 0

    def counting_emit(self, line, *fields):
        nonlocal calls
        calls += 1

    monkeypatch.setattr(Engine, "_emit", counting_emit)
    contention = loads_scenario((DATA / "contention.scn").read_text())
    for scn in (task_a, task_b, task_c, contention):
        for mode in Mode:
            run_scenario(scn, mode=mode)
        run_scenario(replace(scn, config={**scn.config, "scheduler": False}), mode=Mode.DELEGATION)
    assert calls == 0
    run_scenario(contention, trace=lambda line: None)
    assert calls > 0  # the count does see a traced run's records


def test_file_backed_writer_keeps_no_copy_of_the_trace(tmp_path):
    scn = generate_workload(WorkloadParams(n_inputs=300))
    trace_path = tmp_path / "w.trace"
    gc.collect()
    tracemalloc.start()
    try:
        _report, writer = run_with_trace(scn, trace_path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del writer
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < trace_path.stat().st_size / 10


def traced_peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_reads_the_recorded_trace_line_by_line(tmp_path):
    scn = generate_workload(WorkloadParams(n_inputs=1000))
    trace_path = tmp_path / "w.trace"
    run_with_trace(scn, trace_path)
    size = trace_path.stat().st_size
    with open(trace_path) as fh:
        header = len(fh.readline())
    text = scn.text()  # made outside the measured run, as a file's text would be
    replay_peak = traced_peak(lambda: replay(trace_path))
    run_peak = traced_peak(lambda: run_scenario(loads_scenario(text)))
    # what replay holds beyond the run itself: the header with the embedded
    # scenario (about 0.28 of this trace) and one line, not the records
    assert replay_peak - run_peak < header + (size - header) / 12


def held_after_run(n_inputs: int) -> int:
    """Bytes an engine still holds after a run, its decisions and prompts dropped."""
    scn = generate_workload(WorkloadParams(n_inputs=n_inputs))
    gc.collect()
    tracemalloc.start()
    try:
        report, engine = run_scenario(scn)
        del report
        engine.decisions.clear()
        engine.prompts.clear()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_held_memory_does_not_grow_with_run_length():
    # after a run, what is held is the live roots and the cache; nothing per input
    small, large = held_after_run(2000), held_after_run(8000)
    assert (large - small) / 6000 < 16


def test_zero_prompt_replay_with_cache_roundtrip(task_b):
    cache = AuthorizationCache()
    r1, e1 = run_scenario(task_b, policy_rules=["allow * * * *"], cache=cache)
    assert sum(r1.prompt_counts.values()) > 0
    exported = e1.cache.export()
    fresh = AuthorizationCache()
    fresh.import_(exported)
    r2, _ = run_scenario(task_b, policy_rules=["allow * * * *"], cache=fresh)
    assert sum(r2.prompt_counts.values()) == 0
    allowed = [d for d in r2.decisions if d["outcome"] == "allowed"]
    assert allowed and all(d["reason"] == "cached" for d in allowed)


def test_denials_not_cached_by_default(task_a):
    cache = AuthorizationCache()
    r1, e1 = run_scenario(task_a, cache=cache)  # main policy denies
    r2, _ = run_scenario(task_a, cache=e1.cache)
    # denied paths were not cached: the second run prompts again
    assert r2.main_prompts == 1


def test_cache_denials_flag_suppresses_reprompt(task_a):
    text = task_a.source_text.replace(
        '{"kind":"config","window_ms":150}',
        '{"kind":"config","window_ms":150,"cache_denials":true}',
    )
    scn = loads_scenario(text)
    cache = AuthorizationCache()
    r1, e1 = run_scenario(scn, cache=cache)
    r2, _ = run_scenario(scn, cache=e1.cache)
    assert r1.main_prompts == 1
    assert r2.main_prompts == 0
    cached_denies = [d for d in r2.decisions if d["outcome"] == "denied" and d["reason"] == "policy"]
    assert cached_denies
