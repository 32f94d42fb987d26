"""Micro-benchmark suites.

Shapes, not absolutes: timings are hardware-bound, so the suites report
per-step costs, linear fits and ratios between points. A shared host's speed
can drift by a factor of two or more within a second, so every timed suite
(`graph_construction`, `cache_rw`, `enforcement`, `scaling`, `e2e`) measures its
points round-robin: each round times one short batch per point, and each
round is divided by its own mean before the rounds are combined (see
`round_robin`), so a slow spell is spread over every point instead of
landing on a few, and points compared with each other are measured at the
same moments. No CPU pinning, governor change or cache drop is used; the
suites take the host as it is.
"""

from __future__ import annotations

import gc
import random
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

from .auth import AuthorizationCache, ScriptedPolicy
from .engine import Engine, Mode
from .graph import GraphStore, PathKey
from .model import (
    HandoffEvent,
    InputEvent,
    OperationRequest,
    Registry,
    WidgetKind,
)
from .runner import replay, run_scenario, run_with_trace
from .scenario import Scenario, loads_scenario
from .trace import dump_line
from .workload import WINDOW_MS, WorkloadParams, generate_workload

def round_robin(batches, rounds: int) -> dict:
    """Per-op microseconds for several points measured in interleaved rounds.

    Each element of `batches` is a callable returning (ops, elapsed_ns) for
    one short batch at one x value. After one priming pass over all points,
    every round runs one batch per point, in forward order on even rounds and
    in reverse order on odd ones, so drift within a round does not favour
    either end of the x range. Each round's per-op costs are divided by the
    round's mean and multiplied by the median round mean: this removes the
    host's speed in that round and keeps the values in microseconds. The
    rescaling is one factor per round, the same for every point, so it
    cannot change the shape of the cost curve (a quadratic stays quadratic).

    Returns, per point, the median (`us`) and interquartile range (`iqr_us`)
    over the normalised rounds; `rounds`, each round's normalised costs, one
    per point, for ratios taken within a round; and `round_spread`, the
    largest round mean over the smallest: how much the host's speed changed
    during the run.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for fn in batches:  # priming pass, discarded
            fn()
        order = list(range(len(batches)))
        per_round = []
        for r in range(rounds):
            costs = [0.0] * len(batches)
            for i in order if r % 2 == 0 else reversed(order):
                ops, elapsed = batches[i]()
                costs[i] = elapsed / ops / 1000.0
            per_round.append(costs)
    finally:
        if gc_was_enabled:
            gc.enable()
    means = [sum(costs) / len(costs) for costs in per_round]
    scale = statistics.median(means)
    normalised = [[c / m * scale for c, m in zip(point, means)] for point in zip(*per_round)]
    us, iqr_us = [], []
    for samples in normalised:
        q1, median, q3 = statistics.quantiles(samples, n=4)
        us.append(median)
        iqr_us.append(q3 - q1)
    return {
        "us": us,
        "iqr_us": iqr_us,
        "rounds": [list(costs) for costs in zip(*normalised)],
        "round_spread": max(means) / min(means),
    }


def linear_fit(xs, ys) -> dict:
    """Least-squares line through the points, in closed form, with its R²."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "intercept": float(intercept), "r2": r2}


# -- suite 1: delegation graph construction -------------------------------------


def _bench_registry(n_programs: int) -> Registry:
    registry = Registry()
    for i in range(n_programs):
        registry.register_program(f"bench program {i}", f"B{i}")
    registry.register_widget("bench command", WidgetKind.VOICE)
    registry.register_sensor("Camera")
    registry.register_operation("capture_picture", ["Camera"], "capture pictures")
    return registry


def graph_construction(max_handoffs: int = 10, inner: int = 20, runs: int = 100) -> dict:
    """Cost of mediating one chain (input + k handoffs + request + path).

    Chain lengths k = 1..`max_handoffs` are measured by `round_robin` over
    `runs` rounds; each batch builds `inner` chains in a fresh GraphStore.
    Each row gives the median µs per chain and its IQR over the rounds.
    """
    registry = _bench_registry(max_handoffs + 1)
    pids = list(registry.programs)
    widget = registry.resolve_widget("bench command").id
    counter = [0]

    def chain_batch(k: int):
        def build_chains():
            store = GraphStore(window_ms=150)
            record_input = store.record_input
            record_handoff = store.record_handoff
            record_request = store.record_request
            compute_path = store.compute_path
            t0 = time.perf_counter_ns()
            for _ in range(inner):
                counter[0] += 1
                n = counter[0]
                base = n * 200
                store.expire_graph(f"i{n - 1}", base)  # previous chain's window has closed
                root = InputEvent(f"i{n}", widget, pids[0], base)
                record_input(root)
                prev = pids[0]
                for j in range(k):
                    h = HandoffEvent(f"h{n}-{j}", prev, pids[j + 1], base + 1 + j, provenance=f"i{n}")
                    record_handoff(h)
                    prev = pids[j + 1]
                r = OperationRequest(f"r{n}", prev, "capture_picture", "Camera", base + k + 2)
                record_request(r)
                compute_path(r)
            return inner, time.perf_counter_ns() - t0

        return build_chains

    ks = list(range(1, max_handoffs + 1))
    m = round_robin([chain_batch(k) for k in ks], rounds=runs)
    rows = [
        {"handoffs": k, "us_per_chain": us, "iqr_us": iqr}
        for k, us, iqr in zip(ks, m["us"], m["iqr_us"])
    ]
    fit = linear_fit(ks, m["us"]) | {"round_spread": m["round_spread"]}
    return {"suite": "graph_construction", "rows": rows, "fit": fit}


# -- suite 2: cache store -----------------------------------------------------------


def cache_rw(inner: int = 200, runs: int = 80) -> dict:
    """Store cost vs cached graph size, 1 KB to 16 KB in 512 B steps.

    Measured by `round_robin` over the 31 sizes for `runs` rounds; each batch
    stores `inner` entries. The part of the cost that grows with size is the
    blob checksum (`zlib.crc32`). CPython's `zlib.crc32` releases the GIL for
    buffers over 5 KiB (5,120 bytes), which adds a step of 0.05-0.1 µs
    between 5,120 and 5,632 bytes; it is small against the line's rise.
    """
    sizes = list(range(1024, 16384 + 1, 512))
    key = PathKey("bench command", ("P1", "P2"), "capture_picture", "Camera")

    def store_batch(blob: bytes):
        store_allow = AuthorizationCache().store_allow

        def do_store():
            t0 = time.perf_counter_ns()
            for _ in range(inner):
                store_allow(key, blob)
            return inner, time.perf_counter_ns() - t0

        return do_store

    m = round_robin([store_batch(bytes(size)) for size in sizes], rounds=runs)
    return {
        "suite": "cache_rw",
        "store": [{"bytes": size, "us": us, "iqr_us": iqr} for size, us, iqr in zip(sizes, m["us"], m["iqr_us"])],
        "store_fit": linear_fit(sizes, m["us"]) | {"round_spread": m["round_spread"]},
    }


# -- suite 3: enforcement overhead -----------------------------------------------


def _chain_scenario(k: int) -> Scenario:
    """A widget whose input starts a chain of `k` handoffs, the last program of which asks for the Camera."""
    names = [f"prog {i}" for i in range(k + 1)]
    handlers = [
        {"program": names[i], "on": {"handoff": f"hop{i - 1}"} if i else {"widget": "go"},
         "actions": [{"handoff": names[i + 1], "after": 2, "label": f"hop{i}"} if i < k
                     else {"request": ["capture_picture", "Camera"], "after": 2}, {"complete": 3}]}
        for i in range(k + 1)
    ]
    return Scenario(
        programs=[{"name": n, "mark": f"P{i}"} for i, n in enumerate(names)],
        widgets=[{"label": "go", "input": "voice"}],
        sensors=[{"id": "Camera"}],
        operations=[{"op": "capture_picture", "sensors": ["Camera"], "phrase": "capture pictures"}],
        handlers=handlers,
        config={"window_ms": 150},
        policies={"main": ["allow * * * *"]},
        timeline=[{"phase": "main", "t": 0, "kind": "input", "widget": "go", "program": names[0]}],
    )


def enforcement(max_handoffs: int = 10, inner: int = 5, runs: int = 10) -> dict:
    """Delegation mode vs the pass-through baseline over chain lengths 1..10.

    Every chain length, mediated and baseline, is one point of `round_robin`
    over `runs` rounds; each batch runs the chain's scenario `inner` times.
    So the two sides of each `overhead_us` are timed in the same rounds and
    normalised by the same factor.
    """
    ks = list(range(1, max_handoffs + 1))

    def chain_batch(scn: Scenario, mode: Mode):
        def fn():
            t0 = time.perf_counter_ns()
            for _ in range(inner):
                run_scenario(scn, mode=mode)
            return inner, time.perf_counter_ns() - t0

        return fn

    scenarios = [_chain_scenario(k) for k in ks]
    m = round_robin(
        [chain_batch(scn, mode) for scn in scenarios for mode in (Mode.DELEGATION, Mode.PASS_THROUGH)], rounds=runs
    )
    rows = []
    for i, k in enumerate(ks):
        with_us, without_us = m["us"][2 * i], m["us"][2 * i + 1]
        rows.append(
            {
                "handoffs": k,
                "mediated_us": with_us,
                "baseline_us": without_us,
                "overhead_us": with_us - without_us,
                "mediated_iqr_us": m["iqr_us"][2 * i],
                "baseline_iqr_us": m["iqr_us"][2 * i + 1],
            }
        )
    return {"suite": "enforcement", "rows": rows, "round_spread": m["round_spread"]}


# -- suite 4: cost of one event against history and idle programs ----------------


def scaling(
    sealed_roots: tuple[int, ...] = (1000, 15000),
    programs: tuple[int, ...] = (3, 1003),
    n_inputs: int = 2000,
    inner: int = 200,
    runs: int = 20,
) -> dict:
    """Whether the cost of one event grows with run length or idle programs.

    `unattributed_request`: µs for the engine to deny one request that no
    input reaches, after `sealed_roots` inputs have come and gone. Each
    batch submits `inner` such requests to an engine set up once per point.

    `per_event`: µs per event of a `n_inputs` workload (`WorkloadParams`,
    no noise apps) when `programs` programs are registered; all but the
    workload's 3 never run. Each batch is one `run_scenario`, timed by its
    own `wall_ms` (the engine's run, without set-up).

    Both are measured by `round_robin` over `runs` rounds. A flat cost gives
    rows within their IQR of each other; `growth` is the last row over the first.
    """
    request_engines = [_engine_with_sealed_roots(n) for n in sealed_roots]
    counter = [0]

    def request_batch(engine: Engine):
        requester = next(reversed(engine.registry.programs))  # never received an input

        def fn():
            submit = engine.submit
            t0 = time.perf_counter_ns()
            for _ in range(inner):
                counter[0] += 1
                submit(OperationRequest(f"u{counter[0]}", requester, "capture_picture", "Camera", engine.now))
            return inner, time.perf_counter_ns() - t0

        return fn

    base = generate_workload(WorkloadParams(n_inputs=n_inputs))

    def workload_batch(n_programs: int):
        scn = replace(base, programs=base.programs + [
            {"name": f"idle app {i + 1}", "mark": f"I{i + 1}"} for i in range(n_programs - len(base.programs))
        ])

        def fn():
            gc.collect()  # each batch starts without the previous engine's garbage
            report, engine = run_scenario(scn)
            return engine.stats.total_events, report.wall_ms * 1e6

        return fn

    result = {"suite": "scaling"}
    for name, x_name, xs, batches in (
        ("unattributed_request", "sealed_roots", sealed_roots, [request_batch(e) for e in request_engines]),
        ("per_event", "programs", programs, [workload_batch(n) for n in programs]),
    ):
        m = round_robin(batches, rounds=runs)
        result[name] = {
            "rows": [{x_name: x, "us": us, "iqr_us": iqr} for x, us, iqr in zip(xs, m["us"], m["iqr_us"])],
            "growth": m["us"][-1] / m["us"][0],
            "round_spread": m["round_spread"],
        }
    return result


def _engine_with_sealed_roots(n_roots: int) -> Engine:
    """An engine whose `n_roots` inputs, one window apart, have all expired."""
    registry = _bench_registry(2)
    allow = ScriptedPolicy.allow_all()
    engine = Engine(registry, authorizers={"preliminary": allow, "main": allow})
    widget = registry.resolve_widget("bench command").id
    receiver = next(iter(registry.programs))
    window = engine.config.window_ms
    for i in range(n_roots):
        engine.schedule(i * (window + 10), {"kind": "input", "widget": widget, "program": receiver})
    engine.run_to_quiescence()
    return engine


# -- suite 5: ambiguity-prevention workload ----------------------------------------


def ambiguity(params: WorkloadParams | None = None) -> dict:
    params = params or WorkloadParams()
    scn = generate_workload(params)
    report, engine = run_scenario(scn)
    stats = report.delay_stats
    hist = report.path_edge_histogram
    total_paths = sum(hist.values()) or 1
    return {
        "suite": "ambiguity",
        "params": {"n_inputs": params.n_inputs, "gap_range_ms": list(params.gap_range_ms),
                   "window_ms": WINDOW_MS, "seed": params.seed},
        "total_events": stats["total_events"],
        "delayed_events": stats["delayed_events"],
        "delayed_fraction": stats["delayed_fraction"],
        "max_delay_ms": stats["max_delay_ms"],
        "three_edge_fraction": hist.get(3, 0) / total_paths,
        "path_edge_histogram": hist,
        "ambiguous_requests": report.ambiguous_requests,
    }


# -- suite 6: two-level queue scheduling ---------------------------------------------


def two_level(
    apps: range | list[int] = range(10, 101, 10),
    base: WorkloadParams | None = None,
) -> dict:
    base = base or WorkloadParams(n_inputs=1500, noise_burst_prob=0.5, seed=3)
    rows = []
    for n_apps in apps:
        params = replace(base, noise_apps=n_apps)
        scn = generate_workload(params)
        per_mode = {}
        for enabled in (True, False):
            report, engine = run_scenario(replace(scn, config={**scn.config, "two_level": enabled}))
            stats = engine.stats
            per_mode[enabled] = {
                "delayed": stats.delayed_events,
                "delayed_fraction": stats.delayed_events / stats.total_events if stats.total_events else 0.0,
                "max_derived_delay_ms": stats.derived.max_delay_ms,
            }
        rows.append(
            {
                "apps": n_apps,
                "enabled": per_mode[True],
                "disabled": per_mode[False],
                "extra_delay_ms": per_mode[False]["max_derived_delay_ms"]
                - per_mode[True]["max_derived_delay_ms"],
            }
        )
    return {"suite": "two_level", "rows": rows}


# -- suite 7: memory footprint -----------------------------------------------------------


def memory(n_programs: int = 1000, seed: int = 7) -> dict:
    """Cache footprint with field-like path counts (3-4 authorized paths each)."""
    rng = random.Random(seed)
    cache = AuthorizationCache()
    ops = [("capture_picture", "Camera"), ("record_audio", "Microphone"), ("read_location", "GpsReceiver")]
    for i in range(1, n_programs + 1):
        pid = f"P{i}"
        n_paths = 3 if i % 2 else 4
        for j in range(n_paths):
            op, sensor = ops[(i + j) % len(ops)]
            chain = (pid,) if j % 2 else (pid, f"P{(i % n_programs) + 1}")
            key = PathKey(f"command {i}-{j // len(ops)}", chain, op, sensor)
            graph = {
                "root": {"event_id": f"i{i}-{j}", "widget": key.widget_id, "program": pid, "t": j * 500},
                "handoffs": {f"{pid}>{c}": [[f"h{i}-{j}", j * 500 + rng.randint(1, 20)]] for c in chain[1:]},
                "requests": {f"{chain[-1]}|{op}|{sensor}": [[f"r{i}-{j}", j * 500 + 30]]},
            }
            blob = dump_line(graph).encode()
            cache.store_allow(key, blob)
    fp = cache.footprint()
    sizes = list(fp["per_program"].values())
    return {
        "suite": "memory",
        "programs": n_programs,
        "total_bytes": fp["total"],
        "mean_bytes_per_program": fp["total"] / n_programs,
        "max_bytes_per_program": max(sizes),
        "entries": len(cache.entries),
    }


# -- suite 8: end to end ------------------------------------------------------------


def e2e(params: WorkloadParams | None = None, runs: int = 10) -> dict:
    """One workload loaded and run five ways, each as one call the way a user
    makes it: `untraced` (`run_scenario`), `traced` (`run_with_trace` to a
    temporary file), `replayed` (`replay` of a trace written once
    beforehand), `first_use` and `pass_through` (`run_scenario` in those
    modes), and `loaded` (`loads_scenario` of the workload's text, which
    comes before any run of a file).

    The six calls are timed by `round_robin` over `runs` rounds, each call
    after a `gc.collect()` outside its time. A row's `us_per_event` is the
    call's time over the events of the untraced run, so the ratio of two
    rows is the ratio of their run times. `ratios` are taken within each
    round, where the host's speed cancels, and given as the median and
    quartiles over the rounds; `mediated/pass_through` is untraced over
    pass-through. A separate pass under `tracemalloc` gives each row's
    `held_bytes_per_input`: what the call leaves allocated, its result
    included (a report, or the loaded scenario), over the workload's inputs.
    """
    params = params or WorkloadParams()
    text = generate_workload(params).dump()
    scn = loads_scenario(text)  # as a file is loaded: no trace dumps it again
    with tempfile.TemporaryDirectory() as tmp:
        traced_path, recorded_path = Path(tmp) / "traced.trace", Path(tmp) / "recorded.trace"
        run_with_trace(scn, recorded_path)
        calls = {
            "untraced": lambda: run_scenario(scn)[0],
            "traced": lambda: run_with_trace(scn, traced_path)[0],
            "replayed": lambda: replay(recorded_path),
            "first_use": lambda: run_scenario(scn, mode=Mode.FIRST_USE)[0],
            "pass_through": lambda: run_scenario(scn, mode=Mode.PASS_THROUGH)[0],
            "loaded": lambda: loads_scenario(text),
        }
        held = {name: _held_bytes(call) / params.n_inputs for name, call in calls.items()}
        events = calls["untraced"]().delay_stats["total_events"]

        def timed(call):
            def fn():
                gc.collect()
                t0 = time.perf_counter_ns()
                call()
                return events, time.perf_counter_ns() - t0

            return fn

        m = round_robin([timed(call) for call in calls.values()], rounds=runs)
    points = list(calls)
    rows = [
        {"point": name, "us_per_event": us, "iqr_us": iqr, "held_bytes_per_input": held[name]}
        for name, us, iqr in zip(points, m["us"], m["iqr_us"])
    ]
    ratios = {}
    for ratio, (num, den) in (
        ("traced/untraced", ("traced", "untraced")),
        ("replay/untraced", ("replayed", "untraced")),
        ("mediated/pass_through", ("untraced", "pass_through")),
    ):
        i, j = points.index(num), points.index(den)
        q1, median, q3 = statistics.quantiles([costs[i] / costs[j] for costs in m["rounds"]], n=4)
        ratios[ratio] = {"median": median, "q1": q1, "q3": q3}
    return {
        "suite": "e2e",
        "params": {"n_inputs": params.n_inputs, "seed": params.seed},
        "events": events,
        "rows": rows,
        "ratios": ratios,
        "round_spread": m["round_spread"],
    }


def _held_bytes(call) -> int:
    """Bytes still allocated after `call()`, with its result kept."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = call()  # held while the bytes are counted
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


SUITES = {
    "graph_construction": graph_construction,
    "cache_rw": cache_rw,
    "enforcement": enforcement,
    "scaling": scaling,
    "ambiguity": ambiguity,
    "two_level": two_level,
    "memory": memory,
    "e2e": e2e,
}


def run_suite(name: str, **kwargs) -> dict:
    suite = SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown bench suite {name!r}; choose from {tuple(SUITES)}")
    return suite(**kwargs)
