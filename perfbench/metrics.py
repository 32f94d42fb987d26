"""The two kinds of run: end-to-end metrics, and the span run's per-layer metrics."""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
from pathlib import Path

from delegauth.runner import replay, run_with_trace
from measure import SliceMinimum, drive, set_up
from spans import SPAN_NAMES, TRACE_SPAN, Spans, instrument

# Every run repeats set-up and drive at least this often, however long it takes.
MIN_REPS = 3


class Check:
    """Running tally of requests compared with the reference, and other faults."""

    def __init__(self, ref) -> None:
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def run(self, label: str, decisions: list[dict], prompts: list[dict], ambiguous: int) -> None:
        self.attempted += len(self.ref.decisions)
        self.failed += self.ref.failed(decisions)
        if prompts != self.ref.prompts:
            self.faults.append(f"{label}: prompts differ from the reference")
        if ambiguous:
            self.faults.append(f"{label}: {ambiguous} ambiguous requests")

    def engine(self, label: str, engine) -> None:
        decisions = [d.to_dict() for d in engine.decisions]
        self.run(label, decisions, engine.prompts, engine.ambiguous_requests)

    def crashed(self, label: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.attempted += len(self.ref.decisions)
        self.failed += len(self.ref.decisions)
        self.faults.append(f"{label}: raised")

    def aligned(self, label: str, fastest: SliceMinimum) -> None:
        if fastest.misaligned:
            self.faults.append(
                f"{label}: garbage collections fell on other slices in {fastest.misaligned} of "
                f"{fastest.reps} repetitions, so slice minima would leave out part of their cost"
            )

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.faults


def timed_rep(text: str, ref, trace_path, spans=None):
    """One set-up and sliced drive, after the previous run's garbage is collected.

    With `spans`, faults found in them are appended to `spans.faults`.
    """
    gc.collect()
    wrap = None if spans is None else (lambda writer: spans.wrap(TRACE_SPAN, writer))
    s = set_up(text, trace_path, wrap_trace=wrap)
    try:
        if spans is None:
            slices, collections = drive(s.engine, ref.input_times)
        else:
            with instrument(s.engine, spans):
                begin = time.perf_counter_ns()
                slices, collections = drive(s.engine, ref.input_times)
                spans.faults.extend(spans.check(begin, time.perf_counter_ns()))
    finally:
        s.close()
    return s, slices, collections


def timed_replay(trace_path, check: Check) -> float:
    """Seconds taken by `runner.replay`, which raises unless the trace re-executes byte for byte."""
    gc.collect()
    t0 = time.perf_counter()
    report = replay(trace_path)
    elapsed = time.perf_counter() - t0
    check.run("replay", report.decisions, report.prompts, report.ambiguous_requests)
    return elapsed


def end_to_end(workload, text: str, ref, seconds: float, check: Check, out_dir: Path) -> dict:
    trace_path = out_dir / f"{workload.name}.trace" if workload.traced else None
    fastest = SliceMinimum()
    setups = []
    deadline = time.perf_counter() + seconds
    while fastest.reps < MIN_REPS or time.perf_counter() < deadline:
        s, slices, collections = timed_rep(text, ref, trace_path)
        check.engine(f"timed run {fastest.reps + 1}", s.engine)
        fastest.add(slices, collections)
        setups.append(s.seconds)
        events = s.engine.stats.total_events
        del s, slices, collections  # the next run starts without them
    check.aligned("timed runs", fastest)
    p50, p95 = fastest.percentiles_us()
    print(f"timed runs={fastest.reps} events={events} garbage collections per drive={len(fastest.collections)}")
    if workload.traced:
        replay_s = timed_replay(trace_path, check)
        print(f"replay of the last timed run's trace: {replay_s * 1e6 / events:.6g} us per event, "
              "one whole call (the span run reports it as runner.replay_us_per_event)")
    return {
        "us_per_event": (fastest.us_per_event(events), "us"),
        "input_p50_us": (p50, "us"),
        "input_p95_us": (p95, "us"),
        "setup_s": (statistics.median(setups), "s"),
        "bytes_per_input": (ref.held_bytes / ref.n_inputs, "B"),
    }


def layer_facts(engine, calls: dict[str, int]) -> dict:
    """Sizes, ratios and virtual waits read from a finished engine."""
    lookups = calls["auth.cache.lookup"]
    hits = sum(d.reason == "cached" for d in engine.decisions)
    sealed = engine.store.sealed
    prompted_roots = sum(1 for p in engine.prompts if p.get("root") is not None)
    return {
        "auth.cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "auth.cache.footprint_bytes": (engine.cache.footprint()["total"], "B"),
        "graph.sealed_bytes": (sum(len(b) for b in sealed.values()), "B"),
        "graph.useful_seal_ratio": (prompted_roots / len(sealed) if sealed else 0.0, "ratio"),
        # virtual waits: the benchmark's speed must never move these
        "scheduler.delayed_events": (engine.stats.delayed_events, "count"),
        "scheduler.max_delay_ms": (engine.stats.max_delay_ms, "ms"),
    }


def per_layer(workload, scn, text: str, ref, seconds: float, check: Check, out_dir: Path) -> dict:
    """Span run: untraced and spanned runs alternate; spans of the last run are written out.

    Self times are the fastest over the spanned runs. `engine.self_ms` is the
    drive's wall time minus the top-level spans: the remainder by definition,
    so that layer self times plus `engine.self_ms` make up the wall time.
    Each spanned run is checked instead for spans that did not end, that lie
    outside their parent or the drive, or that add up to more than the wall time.
    """
    trace_path = out_dir / f"{workload.name}.trace" if workload.traced else None
    plain, spanned = SliceMinimum(), SliceMinimum()
    self_ns: dict[str, list[int]] = {name: [] for name in SPAN_NAMES}
    engine_self_ns, layer_share, loads_ms, build_ms = [], [], [], []
    deadline = time.perf_counter() + seconds
    while spanned.reps < MIN_REPS or time.perf_counter() < deadline:
        for spans in (None, Spans()):
            s, slices, collections = timed_rep(text, ref, trace_path, spans)
            check.engine(f"{'span' if spans else 'untraced'} run {spanned.reps + 1}", s.engine)
            loads_ms.append(s.loads_s * 1000.0)
            build_ms.append(s.build_s * 1000.0)
            if spans is None:
                plain.add(slices, collections)
            else:
                spanned.add(slices, collections)
                totals, top_ns = spans.totals()
                wall_ns = sum(slices)
                if top_ns > wall_ns:
                    spans.faults.append("top-level spans add up to more than the wall time")
                check.faults.extend(f"span run {spanned.reps}: {fault}" for fault in spans.faults)
                for name, (_n, ns) in totals.items():
                    self_ns[name].append(ns)
                engine_self_ns.append(wall_ns - top_ns)
                layer_share.append(top_ns / wall_ns)
                calls = {name: n for name, (n, _ns) in totals.items()}
                facts = layer_facts(s.engine, calls)
                events = s.engine.stats.total_events
                last_spans = spans
            del s, slices, collections  # the next run starts without them
    check.aligned("untraced runs", plain)
    check.aligned("span runs", spanned)
    last_spans.write(out_dir / f"{workload.name}.spans.tsv")

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (min(self_ns[name]) / 1e6, "ms")
    metrics.update(facts)
    metrics.update({
        "engine.self_ms": (min(engine_self_ns) / 1e6, "ms"),
        "span.layer_share": (statistics.median(layer_share), "ratio"),
        "span.overhead_us_per_event": (spanned.us_per_event(events) - plain.us_per_event(events), "us"),
        "scenario.loads_scenario_ms": (statistics.median(loads_ms), "ms"),
        "runner.build_engine_ms": (statistics.median(build_ms), "ms"),
    })
    # replay is one whole call, so it is timed here rather than among the bounded metrics
    trace_path = out_dir / f"{workload.name}.trace"
    report, _writer = run_with_trace(scn, trace_path)
    check.run("traced run", report.decisions, report.prompts, report.ambiguous_requests)
    del report, _writer
    metrics["runner.replay_us_per_event"] = (timed_replay(trace_path, check) * 1e6 / events, "us")
    print(f"untraced runs={plain.reps} span runs={spanned.reps} spans in the last run={len(last_spans.start)}")
    return metrics
