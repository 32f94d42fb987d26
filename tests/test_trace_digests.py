"""Byte-identical traces: the sha256 of each `run_with_trace` output is pinned.

The pins in `data/trace_digests.json` guard refactors and optimisations of
the engine and graph store, which must not change a single trace record.
Each pins a whole trace file, header and records, in format version
`trace.TRACE_VERSION`, but `pass_through`'s: no trace header names the
unmediated baseline, so no replay could re-run it, and its pin is of the
lines the engine hands its `trace` callable, each with a newline. Re-pin only
for a change that means to alter traces:

    PYTHONPATH=src python tests/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path

import pytest

from delegauth import (
    Mode, WorkloadParams, generate_workload, load_scenario, loads_scenario, run_scenario, run_with_trace,
)
from delegauth.scenario import read_trace_header

from conftest import DATA, scenario_path
from fuzzgen import fuzz_scenario
from oracle import log_from_trace

DIGESTS = DATA / "trace_digests.json"

# An app that asks for the Microphone about every 10 s of virtual time. No
# input ever reaches it, so every request is unattributed, after more and
# more sealed roots.
RECORDER = {"name": "background recorder", "mark": "BR"}
RECORDER_GAP_MS = (9500, 10500)


def many_programs():
    """2,000 inputs, 300 noise apps and the recorder: 304 registered programs."""
    scn = generate_workload(WorkloadParams(n_inputs=2000, noise_apps=300, noise_burst_prob=0.5))
    scn.programs.append(dict(RECORDER))
    rng = random.Random("recorder")
    end = scn.timeline[-1]["t"]
    t = rng.randint(*RECORDER_GAP_MS)
    while t < end:
        scn.timeline.append(
            {"phase": "main", "t": t, "kind": "request", "program": RECORDER["name"],
             "op": "record_audio", "sensor": "Microphone"}
        )
        t += rng.randint(*RECORDER_GAP_MS)
    scn.timeline.sort(key=lambda e: e["t"])  # stable: inputs stay ahead at equal t
    return loads_scenario(scn.dump())


def task_a_cache_denials():
    """task_a with denials cached and its main input repeated after the prompt.

    The repeat finds the denied path in the cache: a `cache: deny` request and
    a `policy` denial.
    """
    text = Path(scenario_path("task_a")).read_text()
    text = text.replace('"window_ms":150}', '"window_ms":150,"cache_denials":true}')
    repeat = '{"kind":"event","phase":"main","t":2000,"input":{"widget":"create a note","program":"Smart Assistant"}}\n'
    text = text.replace('{"kind":"attack"', repeat + '{"kind":"attack"', 1)
    return loads_scenario(text)


def contention(scheduler: bool = True):
    """`data/contention.scn`: held, rejected and expired events and refused handoffs.

    With the scheduler it hits backpressure, hold deadlines, root expiry of
    held tickets, window backstops, merge_rejected, broken_chain and
    unattributable handoffs. Without it, two roots reach one program and its
    request is ambiguous.
    """
    text = (DATA / "contention.scn").read_text()
    if not scheduler:
        text = text.replace('"scheduler":true', '"scheduler":false')
    return loads_scenario(text)


def fuzz_tight_gaps(seeds=range(800)):
    """800 fuzz scenarios (seeds 0-799, or those given) with inputs 1-40 ms apart, inside the window.

    Held tickets reach the gate exactly at their deadline, and repeats find
    their receiver both busy and idle: corners the 10-400 ms corpus misses.
    """
    return [fuzz_scenario(seed, gaps_ms=(1, 40)) for seed in seeds]


# name -> (factory of a scenario or a list of them, mode); together these emit
# every record form the engine writes
SCENARIOS = {
    "task_a": (lambda: load_scenario(scenario_path("task_a")), None),
    "task_b": (lambda: load_scenario(scenario_path("task_b")), None),
    "task_c": (lambda: load_scenario(scenario_path("task_c")), None),
    "workload_15k": (lambda: generate_workload(WorkloadParams()), None),
    "many_programs": (many_programs, None),
    "task_a_first_use": (lambda: load_scenario(scenario_path("task_a")), "first-use"),
    "task_a_cache_denials": (task_a_cache_denials, None),
    "contention": (contention, None),
    "contention_unscheduled": (lambda: contention(scheduler=False), None),
    "pass_through": (contention, Mode.PASS_THROUGH),
    "fuzz_tight_gaps": (fuzz_tight_gaps, None),
}


def trace_digest(name: str, directory: Path) -> str:
    """The sha256 of the scenario's trace, or of a list's traces in order."""
    path = directory / f"{name}.trace"
    make, mode = SCENARIOS[name]
    made = make()
    digest = hashlib.sha256()
    for scn in made if isinstance(made, list) else [made]:
        if mode is Mode.PASS_THROUGH:
            lines = []
            run_scenario(scn, mode=mode, trace=lines.append)
            digest.update("".join(line + "\n" for line in lines).encode())
        else:
            run_with_trace(scn, path, mode=mode)
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_trace_digest_is_pinned(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    assert trace_digest(name, tmp_path) == pinned[name]


@pytest.mark.parametrize("name", ["task_a", "task_b", "task_c", "contention"])
def test_oracle_log_from_a_trace_file_matches_the_in_memory_records(name, tmp_path):
    make, mode = SCENARIOS[name]
    lines = []
    run_scenario(make(), mode=mode, trace=lines.append)
    path = tmp_path / f"{name}.trace"
    run_with_trace(make(), path, mode=mode)
    with open(path) as fh:
        read_trace_header(fh)
        from_file = log_from_trace(fh)
    assert from_file == log_from_trace(lines)
    assert any(e[0] == "handoff" for e in from_file)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: trace_digest(name, Path(tmp)) for name in SCENARIOS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {DIGESTS}")
