"""Tests of the benchmark itself: its drive and its spans must not change outputs.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from delegauth import auth, loads_scenario  # noqa: E402
from delegauth import engine as engine_module  # noqa: E402
from delegauth.runner import run_with_trace  # noqa: E402
from delegauth.scheduler import ProgramState  # noqa: E402
from measure import Reference, SliceMinimum, drive, set_up  # noqa: E402
from spans import SPAN_NAMES, TRACE_SPAN, Spans, instrument  # noqa: E402
from workloads import WORKLOADS, scenario_text  # noqa: E402

SMALL = 600  # inputs per test scenario
ENQUEUE = vars(ProgramState)["enqueue"]


def small_text(name: str, seed: int = 3) -> str:
    w = WORKLOADS[name]
    return scenario_text(dataclasses.replace(w, params={**w.params, "n_inputs": SMALL}), seed)


def outputs(engine) -> tuple[list[dict], list[dict]]:
    return [d.to_dict() for d in engine.decisions], list(engine.prompts)


def sliced_run(text: str, trace_path: Path, spans: Spans | None = None):
    ref = Reference.of(loads_scenario(text))
    wrap = None if spans is None else (lambda writer: spans.wrap(TRACE_SPAN, writer))
    s = set_up(text, trace_path, wrap_trace=wrap)
    try:
        if spans is None:
            drive(s.engine, ref.input_times)
        else:
            with instrument(s.engine, spans):
                drive(s.engine, ref.input_times)
    finally:
        s.close()
    return s.engine


@pytest.mark.parametrize("name", ["steady", "refusing", "crowded"])
def test_sliced_drive_matches_run_to_quiescence(name, tmp_path):
    text = small_text(name)
    report, _writer = run_with_trace(loads_scenario(text), tmp_path / "whole.trace")
    engine = sliced_run(text, tmp_path / "sliced.trace")
    assert outputs(engine) == (report.decisions, report.prompts)
    assert (tmp_path / "sliced.trace").read_bytes() == (tmp_path / "whole.trace").read_bytes()
    assert report.ambiguous_requests == 0


@pytest.mark.parametrize("name", ["steady", "refusing", "crowded"])
def test_spans_change_no_output(name, tmp_path):
    text = small_text(name)
    plain = sliced_run(text, tmp_path / "plain.trace")
    spans = Spans()
    spanned = sliced_run(text, tmp_path / "spanned.trace", spans)
    assert outputs(spanned) == outputs(plain)
    assert (tmp_path / "spanned.trace").read_bytes() == (tmp_path / "plain.trace").read_bytes()
    totals, _top = spans.totals()
    assert totals["scenario.trace_write"][0] == len((tmp_path / "plain.trace").read_text().splitlines()) - 1
    assert totals["graph.record_input"][0] > 0
    # every wrapper is gone once the block ends
    assert engine_module.render_prompt is auth.render_prompt
    assert engine_module.prompt_marks is auth.prompt_marks
    assert vars(ProgramState)["enqueue"] is ENQUEUE
    assert "record_input" not in vars(spanned.store)
    assert "lookup" not in vars(spanned.cache)


def test_span_self_times_and_check():
    spans = Spans()
    inner = spans.wrap("graph.live_memberships", lambda: sum(range(2000)))
    outer = spans.wrap("graph.attachability", lambda: [inner() for _ in range(3)])
    begin = time.perf_counter_ns()
    for _ in range(4):
        outer()
    end = time.perf_counter_ns()
    totals, top_ns = spans.totals()
    assert totals["graph.attachability"][0] == 4
    assert totals["graph.live_memberships"][0] == 12
    assert 0 < totals["graph.live_memberships"][1] < top_ns <= end - begin
    assert spans.check(begin, end) == []
    # spans outside the drive's window, or left open, are faults
    assert spans.check(begin, spans.start[0]) != []
    inside = []
    spans.wrap("graph.attachability", lambda: inside.extend(spans.check(begin, end)))()
    assert "1 spans still open" in inside


def test_slice_minimum_counts_misaligned_collections():
    fastest = SliceMinimum()
    fastest.add([5, 9, 4], [(1, 0)])
    fastest.add([6, 7, 4], [(1, 0)])
    assert fastest.ns == [5, 7, 4] and fastest.misaligned == 0
    fastest.add([4, 8, 4], [(2, 0)])
    assert fastest.ns == [4, 7, 4] and fastest.misaligned == 1 and fastest.reps == 3


def test_drive_gives_the_same_collections_every_run():
    text = small_text("steady")
    ref = Reference.of(loads_scenario(text))
    fastest = SliceMinimum()
    for _ in range(3):
        gc.collect()
        s = set_up(text)
        fastest.add(*drive(s.engine, ref.input_times))
        del s
    assert fastest.collections and fastest.misaligned == 0


def test_crowded_recorder_requests_are_denied():
    ref = Reference.of(loads_scenario(small_text("crowded")))
    no_attribution = [s for s in ref.decisions.values() if s[:2] == ("denied", "no_attribution")]
    assert no_attribution and ref.ambiguous == 0


def test_run_fails_without_the_package(tmp_path):
    """In a directory that holds only the benchmark, run.py exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_workloads_and_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    layer_names = {m["name"] for m in bench["per_layer"]}
    assert {f"{name}.{part}" for name in SPAN_NAMES for part in ("calls", "self_ms")} <= layer_names
