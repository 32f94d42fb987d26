"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line with the measured values before
asserting, so a full run reads as a checklist. Tolerances are pinned here and
nowhere else.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

from delegauth import (
    AuthorizationCache,
    WorkloadParams,
    compare_modes,
    generate_workload,
    load_scenario,
    run_scenario,
    run_with_trace,
)
from delegauth.bench import cache_rw, graph_construction, memory, two_level
from delegauth.errors import TraceDivergence
from delegauth.runner import replay
from conftest import golden, scenario_path
from fuzzgen import fuzz_scenario
from oracle import attribution_classes, log_from_trace

TASKS = ("task_a", "task_b", "task_c")


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_attack_fixtures():
    """A/B/C: silent attack success under first-use grants; one aggregated
    prompt and no attack success under a delegation-mode deny policy."""
    ok = True
    details = []
    for task in TASKS:
        scn = load_scenario(scenario_path(task))
        t0 = time.perf_counter()
        reports = compare_modes(scn)
        elapsed = time.perf_counter() - t0
        fu, en = reports["first_use"], reports["delegation"]
        attack = scn.attacks[0]["name"]
        task_ok = (
            fu.main_prompts == 0
            and fu.attack_outcomes[attack] is True
            and en.main_prompts == 1
            and en.attack_outcomes[attack] is False
            and not fu.expect_failures
            and not en.expect_failures
            and elapsed < 1.0
        )
        ok &= task_ok
        details.append(f"{task} ({elapsed * 1000:.0f} ms)")
    _verdict("attack-fixtures", ok, ", ".join(details))


def test_prompt_text_goldens():
    matches = []
    for task in TASKS:
        scn = load_scenario(scenario_path(task))
        report, _ = run_scenario(scn, mode="entrust")
        main = [p["text"] for p in report.prompts if p["phase"] == "main"]
        matches.append(main == [golden(f"{task}_entrust.golden")])
    _verdict(
        "prompt-goldens",
        all(matches),
        f"{sum(matches)}/3 byte-identical to stored goldens",
    )


def test_unambiguity_fuzz():
    """1,000 seeded scenarios, and 800 more with 1-40 ms input gaps: scheduler
    on => every decision matches the oracle, an attributed one its unique chain
    and a denial its empty set; scheduler off => the oracle exposes
    multi-attribution somewhere in the default corpus."""
    n_scenarios, n_tight = 1000, 800
    corpus = [(seed, (10, 400)) for seed in range(1, n_scenarios + 1)] + [(seed, (1, 40)) for seed in range(n_tight)]
    t0 = time.perf_counter()
    checked = 0
    denials = 0
    mismatches = 0
    first_mismatch = ""
    ambiguous_on = 0
    multi_off = 0
    for seed, gaps in corpus:
        scn = fuzz_scenario(seed, gaps_ms=gaps)
        lines = []
        report, engine = run_scenario(scn, trace=lines.append)
        ambiguous_on += engine.ambiguous_requests
        window = engine.config.window_ms
        log = log_from_trace(lines)
        for d in engine.decisions:
            checked += 1
            if d.path_key is None:
                denials += d.outcome == "denied"
                expected = set()
            else:
                expected = {(d.path_key.widget_id, d.path_key.programs)}
            if attribution_classes(log, d.request_id, window) != expected:
                mismatches += 1
                first_mismatch = first_mismatch or f"; first mismatch: seed {seed} gaps {gaps}, request {d.request_id}"
        if gaps != (10, 400):
            continue
        lines = []
        run_scenario(replace(scn, config={**scn.config, "scheduler": False}), trace=lines.append)
        log = log_from_trace(lines)
        for entry in log:
            if entry[0] == "request":
                if len(attribution_classes(log, entry[1], window)) > 1:
                    multi_off += 1
                    break
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and ambiguous_on == 0 and multi_off >= 1 and denials > 0 and elapsed < 120
    _verdict(
        "unambiguity-fuzz",
        ok,
        f"{checked} decisions ({denials} denials) across {len(corpus)} scenarios, "
        f"{mismatches} oracle mismatches, {ambiguous_on} ambiguous with scheduler on, "
        f"{multi_off} scenarios multi-attributable with scheduler off ({elapsed:.1f} s){first_mismatch}",
    )


def test_zero_prompt_replay():
    ok = True
    details = []
    for task in TASKS:
        scn = load_scenario(scenario_path(task))
        cache = AuthorizationCache()
        r1, e1 = run_scenario(scn, policy_rules=["allow * * * *"], cache=cache)
        first_prompts = sum(r1.prompt_counts.values())
        restored = AuthorizationCache()
        restored.import_(e1.cache.export())
        r2, _ = run_scenario(scn, policy_rules=["allow * * * *"], cache=restored)
        second_prompts = sum(r2.prompt_counts.values())
        ok &= first_prompts > 0 and second_prompts == 0
        details.append(f"{task}: {first_prompts}->{second_prompts}")
    _verdict("zero-prompt-replay", ok, "; ".join(details))


def test_ambiguity_prevention_workload():
    params = WorkloadParams()  # 15,000 inputs, gaps U[140,1500], window 150
    t0 = time.perf_counter()
    scn = generate_workload(params)
    report, engine = run_scenario(scn)
    elapsed = time.perf_counter() - t0
    stats = report.delay_stats
    hist = report.path_edge_histogram
    total_paths = sum(hist.values())
    three_edge = hist.get(3, 0) / total_paths
    ok = (
        stats["delayed_fraction"] <= 0.05
        and stats["max_delay_ms"] <= 150
        and abs(three_edge - 0.87) <= 0.05
        and engine.ambiguous_requests == 0
        and elapsed < 60
    )
    _verdict(
        "ambiguity-prevention-workload",
        ok,
        f"{stats['total_events']} events, {stats['delayed_events']} delayed "
        f"({stats['delayed_fraction'] * 100:.2f}%), max hold {stats['max_delay_ms']} ms, "
        f"three-edge fraction {three_edge * 100:.1f}% ({elapsed:.1f} s)",
    )


def test_two_level_scheduling():
    result = two_level(apps=[30], base=WorkloadParams(n_inputs=1500, noise_burst_prob=0.5, seed=3))
    row = result["rows"][0]
    on, off = row["enabled"], row["disabled"]
    ok = (
        on["max_derived_delay_ms"] <= off["max_derived_delay_ms"]
        and 0 <= on["delayed_fraction"] <= 0.05
        and 0 <= off["delayed_fraction"] <= 0.05
    )
    _verdict(
        "two-level-scheduling",
        ok,
        f"max input-derived delay on={on['max_derived_delay_ms']} ms vs "
        f"off={off['max_derived_delay_ms']} ms; delayed fraction on="
        f"{on['delayed_fraction'] * 100:.2f}% off={off['delayed_fraction'] * 100:.2f}%",
    )


def test_linearity_shapes():
    graph = graph_construction()
    cache = cache_rw()
    r2_graph = graph["fit"]["r2"]
    r2_store = cache["store_fit"]["r2"]
    ok = r2_graph >= 0.99 and r2_store >= 0.99

    def noise(rows, fit):
        # a red run with a large spread or IQR points at the host, not the shape
        return f"max IQR {max(r['iqr_us'] for r in rows):.2f} us, round spread {fit['round_spread']:.2f}x"

    _verdict(
        "linearity-shapes",
        ok,
        f"graph construction R2={r2_graph:.4f} (slope {graph['fit']['slope']:.2f} us/handoff; "
        f"{noise(graph['rows'], graph['fit'])}); "
        f"cache store R2={r2_store:.4f} ({noise(cache['store'], cache['store_fit'])})",
    )


def test_memory_footprint():
    t0 = time.perf_counter()
    result = memory(n_programs=1000)
    elapsed = time.perf_counter() - t0
    mean_kb = result["mean_bytes_per_program"] / 1024
    ok = mean_kb <= 16 and elapsed < 30
    _verdict(
        "memory-footprint",
        ok,
        f"mean {mean_kb:.2f} KB per program over {result['programs']} programs ({elapsed:.1f} s)",
    )


def test_determinism_trace_replay(tmp_path):
    ok = True
    details = []
    for task in TASKS:
        scn = load_scenario(scenario_path(task))
        trace_path = tmp_path / f"{task}.trace"
        run_with_trace(scn, trace_path, mode="entrust")
        try:
            replay(trace_path)
            replay_ok = True
        except TraceDivergence:
            replay_ok = False
        lines = trace_path.read_text().splitlines()
        rec = json.loads(lines[len(lines) // 2])
        rec["t"] = rec.get("t", 0) + 1
        lines[len(lines) // 2] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        mutated = tmp_path / f"{task}.mutated.trace"
        mutated.write_text("\n".join(lines) + "\n")
        try:
            replay(mutated)
            mutation_caught = False
        except TraceDivergence:
            mutation_caught = True
        ok &= replay_ok and mutation_caught
        details.append(f"{task}: replay={'ok' if replay_ok else 'DIVERGED'}, mutation caught={mutation_caught}")
    _verdict("determinism-replay", ok, "; ".join(details))
