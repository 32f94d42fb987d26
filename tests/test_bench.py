from __future__ import annotations

import random

import pytest

from delegauth.bench import (
    ambiguity,
    cache_rw,
    e2e,
    enforcement,
    graph_construction,
    linear_fit,
    memory,
    round_robin,
    run_suite,
    scaling,
    two_level,
)
from delegauth.workload import WorkloadParams


def test_linear_fit_recovers_known_line():
    xs = list(range(1, 11))
    ys = [3.5 * x + 7.0 for x in xs]
    fit = linear_fit(xs, ys)
    assert fit["slope"] == pytest.approx(3.5)
    assert fit["intercept"] == pytest.approx(7.0)
    assert fit["r2"] == pytest.approx(1.0)


def _fake_host(costs_us, factors, seed=0):
    """Batches whose elapsed time is cost x the host speed factor of the
    current round (factors[0] is the priming pass), plus 0.5% jitter."""
    rng = random.Random(seed)
    calls = [0]

    def batch(cost):
        def fn():
            factor = factors[calls[0] // len(costs_us)]
            calls[0] += 1
            return 10, 10 * cost * factor * rng.uniform(0.995, 1.005) * 1000
        return fn

    return [batch(c) for c in costs_us]


def _speed_factors(rounds, seed=1):
    # slow spells of up to 3x, scaled so that the median round runs at 1x
    rng = random.Random(seed)
    factors = [rng.choice([1.0, 1.0, 1.8, 3.1]) * rng.uniform(0.9, 1.1) for _ in range(rounds + 1)]
    median = sorted(factors[1:])[rounds // 2]
    return [f / median for f in factors]


def test_round_robin_normalises_host_speed_on_a_linear_cost():
    xs = list(range(1, 11))
    rounds = 41
    m = round_robin(_fake_host([4.0 * x + 50.0 for x in xs], _speed_factors(rounds)), rounds=rounds)
    fit = linear_fit(xs, m["us"])
    assert fit["r2"] >= 0.999
    assert fit["slope"] == pytest.approx(4.0, rel=0.01)
    assert fit["intercept"] == pytest.approx(50.0, rel=0.01)
    assert m["round_spread"] > 2.5
    assert all(0 <= iqr < 0.01 * us for us, iqr in zip(m["us"], m["iqr_us"]))


def test_round_robin_keeps_a_quadratic_cost_quadratic():
    xs = list(range(1, 11))
    rounds = 41
    m = round_robin(_fake_host([x * x for x in xs], _speed_factors(rounds)), rounds=rounds)
    own_r2 = linear_fit(xs, [x * x for x in xs])["r2"]
    assert linear_fit(xs, m["us"])["r2"] == pytest.approx(own_r2, abs=1e-3)
    assert own_r2 < 0.99


def test_graph_construction_rows_and_fit_shape():
    result = graph_construction(max_handoffs=3, inner=5, runs=4)
    assert [r["handoffs"] for r in result["rows"]] == [1, 2, 3]
    assert all(r["us_per_chain"] > 0 for r in result["rows"])
    assert "slope" in result["fit"]


def test_cache_rw_rows_and_fit_shape():
    result = cache_rw(inner=5, runs=3)
    sizes = list(range(1024, 16384 + 1, 512))
    assert [r["bytes"] for r in result["store"]] == sizes
    assert all(r["us"] > 0 and r["iqr_us"] >= 0 for r in result["store"])
    fit = result["store_fit"]
    assert {"slope", "intercept", "r2"} <= fit.keys()
    assert fit["round_spread"] >= 1.0


def test_enforcement_reports_overhead():
    result = enforcement(max_handoffs=2, inner=2, runs=4)
    assert len(result["rows"]) == 2
    for row in result["rows"]:
        assert row["mediated_us"] > 0 and row["baseline_us"] > 0


def test_scaling_rows_small():
    result = scaling(sealed_roots=(5, 20), programs=(3, 13), n_inputs=20, inner=5, runs=3)
    for name, x_name, xs in (
        ("unattributed_request", "sealed_roots", [5, 20]),
        ("per_event", "programs", [3, 13]),
    ):
        part = result[name]
        assert [r[x_name] for r in part["rows"]] == xs
        assert all(r["us"] > 0 and r["iqr_us"] >= 0 for r in part["rows"])
        assert part["growth"] > 0 and part["round_spread"] >= 1.0


def test_e2e_rows_small():
    result = e2e(WorkloadParams(n_inputs=20), runs=3)
    points = ["untraced", "traced", "replayed", "first_use", "pass_through", "loaded"]
    assert [r["point"] for r in result["rows"]] == points
    assert all(r["us_per_event"] > 0 and r["iqr_us"] >= 0 and r["held_bytes_per_input"] > 0 for r in result["rows"])
    assert list(result["ratios"]) == ["traced/untraced", "replay/untraced", "mediated/pass_through"]
    assert all(0 < r["q1"] <= r["median"] <= r["q3"] for r in result["ratios"].values())
    assert result["events"] > 20 and result["round_spread"] >= 1.0


def test_ambiguity_suite_small():
    result = ambiguity(WorkloadParams(n_inputs=300, seed=2))
    assert result["ambiguous_requests"] == 0
    assert 0 <= result["delayed_fraction"] < 1
    assert result["max_delay_ms"] <= 150


def test_two_level_paired_runs_small():
    result = two_level(apps=[10], base=WorkloadParams(n_inputs=300, noise_burst_prob=0.6, seed=3))
    row = result["rows"][0]
    assert row["enabled"]["max_derived_delay_ms"] <= row["disabled"]["max_derived_delay_ms"]


def test_memory_footprint_small():
    result = memory(n_programs=50)
    assert result["programs"] == 50
    assert 0 < result["mean_bytes_per_program"] < 16 * 1024


def test_run_suite_dispatch():
    with pytest.raises(ValueError):
        run_suite("nope")
