from __future__ import annotations

import pytest

from delegauth.errors import InfeasibleWorkload
from delegauth.scenario import loads_scenario
from delegauth.workload import HANDOFF_LAG_RANGE, INPUT_LAG_RANGE, WorkloadParams, expected_counts, generate_workload


def test_same_seed_produces_byte_identical_files():
    a = generate_workload(WorkloadParams(n_inputs=500, seed=42))
    b = generate_workload(WorkloadParams(n_inputs=500, seed=42))
    assert a.text() == b.text()
    c = generate_workload(WorkloadParams(n_inputs=500, seed=43))
    assert c.text() != a.text()


def test_zero_inputs_yield_empty_timeline():
    scn = generate_workload(WorkloadParams(n_inputs=0))
    assert scn.timeline == []


def test_infeasible_parameters_rejected():
    with pytest.raises(InfeasibleWorkload):
        generate_workload(WorkloadParams(handoff_ratio=1.5))
    with pytest.raises(InfeasibleWorkload):
        generate_workload(WorkloadParams(gap_range_ms=(0, 10)))
    with pytest.raises(InfeasibleWorkload):
        generate_workload(WorkloadParams(handoff_ratio=0.0))  # requests without chains


def test_generated_scenario_is_loadable():
    scn = generate_workload(WorkloadParams(n_inputs=200, seed=7))
    again = loads_scenario(scn.text())
    assert len(again.timeline) == len(scn.timeline)


def test_gap_lag_ordering_by_construction():
    params = WorkloadParams(n_inputs=50, seed=3)
    assert params.gap_range_ms[0] > max(INPUT_LAG_RANGE[1], HANDOFF_LAG_RANGE[1])
    scn = generate_workload(params)
    inputs = [e for e in scn.timeline if e["kind"] == "input"]
    gaps = [b["t"] - a["t"] for a, b in zip(inputs, inputs[1:])]
    assert min(gaps) >= params.gap_range_ms[0]
    assert max(gaps) <= params.gap_range_ms[1]


def test_event_counts_hit_targets_within_two_percent():
    from delegauth import run_scenario

    params = WorkloadParams(n_inputs=3000, seed=11)
    scn = generate_workload(params)
    report, engine = run_scenario(scn)
    targets = expected_counts(params)
    stats = engine.stats
    handoffs = stats.per_kind["handoff"].submitted
    requests = stats.per_kind["request"].submitted
    assert stats.per_kind["input"].submitted == targets["inputs"]
    assert abs(handoffs - targets["handoffs"]) <= 0.02 * targets["handoffs"]
    assert abs(requests - targets["requests"]) <= 0.02 * targets["requests"]


def test_noise_events_present_when_requested():
    params = WorkloadParams(n_inputs=300, seed=5, noise_apps=10, noise_burst_prob=0.8)
    scn = generate_workload(params)
    noise = [e for e in scn.timeline if e["kind"] == "handoff"]
    assert noise
    assert all(e.get("provenance") is None for e in noise)
