"""Reference run, set-up, and the timed drive.

Set-up goes through the package's own steps, as `run_scenario` takes them:
the scenario text is parsed with `loads_scenario`, the engine comes from
`runner.build_engine`, and the runner's `_schedule_timeline` queues the
timeline. The run is driven through `Engine.advance`, one slice per input,
so that the cost of each input can be timed on its own.
Times are taken with garbage collection enabled, because users pay for it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import statistics
import time
import tracemalloc
from dataclasses import dataclass

from delegauth import loads_scenario, run_scenario
from delegauth.runner import _schedule_timeline, build_engine, trace_header
from delegauth.scenario import TraceWriter


def signature(decision: dict) -> tuple:
    """What must match the reference for one request: outcome, reason, path key."""
    pk = decision.get("path_key")
    key = None if pk is None else (pk["widget"], tuple(pk["programs"]), pk["op"], pk["sensor"])
    return decision["outcome"], decision["reason"], key


def digest(decisions: list[dict], prompts: list[dict]) -> str:
    blob = json.dumps({"decisions": decisions, "prompts": prompts}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Reference:
    """Decisions and prompts of a plain `run_scenario`, and the bytes its engine holds."""

    decisions: dict  # request id -> signature
    prompts: list[dict]
    digest: str
    ambiguous: int
    input_times: list[int]  # distinct input timestamps, in order
    n_inputs: int
    held_bytes: int  # traced by tracemalloc from engine set-up on, still held after the run

    @classmethod
    def of(cls, scn, trace_path=None) -> "Reference":
        """Run the parsed scenario under tracemalloc; with a trace path, as `run_with_trace` does."""
        gc.collect()
        tracemalloc.start()
        try:
            with contextlib.ExitStack() as stack:
                writer = None
                if trace_path is not None:
                    fh = stack.enter_context(open(trace_path, "w"))
                    writer = TraceWriter(fh, trace_header(scn, None, None, None, None))
                report, engine = run_scenario(scn, trace=writer)
            del report, writer
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        decisions = [d.to_dict() for d in engine.decisions]  # as run_scenario reports them
        inputs = [e["t"] for e in scn.timeline if e["kind"] == "input"]
        return cls(
            decisions={d["request_id"]: signature(d) for d in decisions},
            prompts=list(engine.prompts),
            digest=digest(decisions, engine.prompts),
            ambiguous=engine.ambiguous_requests,
            input_times=sorted(set(inputs)),
            n_inputs=len(inputs),
            held_bytes=held,
        )

    def failed(self, decisions: list[dict]) -> int:
        """Requests whose decision differs from the reference, or that it lacks."""
        got = {d["request_id"]: signature(d) for d in decisions}
        return sum(got.get(rid) != sig for rid, sig in self.decisions.items()) + len(
            got.keys() - self.decisions.keys()
        )


@dataclass
class SetUp:
    engine: object
    trace_file: object  # open trace file, or None
    seconds: float  # scenario text to queued engine
    loads_s: float
    build_s: float

    def close(self) -> None:
        if self.trace_file is not None:
            self.trace_file.close()


def set_up(text: str, trace_path=None, wrap_trace=None) -> SetUp:
    """Scenario text to an engine with its timeline queued (and trace header written)."""
    t0 = time.perf_counter()
    scn = loads_scenario(text)
    t1 = time.perf_counter()
    fh = writer = None
    if trace_path is not None:
        fh = open(trace_path, "w")
        writer = TraceWriter(fh, trace_header(scn, None, None, None, None))
        if wrap_trace is not None:
            writer = wrap_trace(writer)
    try:
        engine, name_to_id = build_engine(scn, trace=writer)
        t2 = time.perf_counter()
        _schedule_timeline(engine, scn, name_to_id)
    except BaseException:
        if fh is not None:
            fh.close()
        raise
    t3 = time.perf_counter()
    return SetUp(engine, fh, t3 - t0, t1 - t0, t2 - t1)


def drive(engine, input_times: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    """Run to quiescence one input at a time.

    Returns the ns of each input's slice, and one (slice index, generation)
    pair per garbage collection that started during the drive. A slice is
    `advance(t_next - 1)`: all work due from one input up to the next one.
    The last slice runs to quiescence. The slices cover the whole run.
    """
    clock = time.perf_counter_ns
    slices: list[int] = []
    collections: list[tuple[int, int]] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collections.append((len(slices), info["generation"]))

    gc.callbacks.append(on_gc)
    try:
        for t_next in input_times[1:]:
            t0 = clock()
            engine.advance(t_next - 1)
            slices.append(clock() - t0)
        t0 = clock()
        engine.run_to_quiescence()
        slices.append(clock() - t0)
    finally:
        gc.callbacks.remove(on_gc)
    return slices, collections


class SliceMinimum:
    """Fastest time of each input's slice over a run's repetitions.

    Every repetition starts from `gc.collect()` and does the same set-up, so
    the work of a slice is the same in each, garbage collection included, and
    its fastest time is its cost with the least interference from the rest of
    the host. `add` counts the repetitions whose garbage collections fell on
    other slices than in the first one; the estimate holds only if there are none.
    """

    def __init__(self) -> None:
        self.ns: list[int] = []
        self.collections: list[tuple[int, int]] = []
        self.reps = 0
        self.misaligned = 0

    def add(self, slices: list[int], collections: list[tuple[int, int]]) -> None:
        if self.reps == 0:
            self.ns[:] = slices
            self.collections[:] = collections
        else:
            self.ns[:] = map(min, self.ns, slices)
            self.misaligned += collections != self.collections
        self.reps += 1

    def us_per_event(self, events: int) -> float:
        return sum(self.ns) / 1000.0 / events

    def percentiles_us(self) -> tuple[float, float]:
        """p50 and p95 over the inputs.

        Not p99: on a contended host the heaviest slices slow down about 1.5
        times as much as the rest, so p99 moved by more than its bound between
        runs of the same code; p95 moves with the mean.
        """
        cuts = statistics.quantiles(self.ns, n=100)
        return cuts[49] / 1000.0, cuts[94] / 1000.0
