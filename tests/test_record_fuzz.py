"""Mutation fuzz of scenario records and trace headers, after Claessen and
Hughes, "QuickCheck" (ICFP 2000).

Each example takes a bundled scenario, or the trace of a run of one, and
changes one line: it drops a key, gives a value another JSON type, repeats
the line, puts a record of an unknown kind before it, cuts it short, or puts
bytes that are not UTF-8 into it. The CLI must answer every mutant with one
of its exit codes; an uncaught exception (exit 1) fails the test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegauth.cli import main
from delegauth.runner import run_with_trace
from delegauth.scenario import load_scenario
from conftest import DATA, scenario_path

SCENARIOS = {name: Path(scenario_path(name)) for name in ("task_a", "task_b", "task_c")}
SCENARIOS["contention"] = DATA / "contention.scn"

# one value of each JSON type, to put in place of a value of another type
VALUES = [None, True, 0, -1, 2.5, "x", ["x"], {"x": 1}]
MUTATIONS = ["drop_key", "change_type", "duplicate", "unknown_kind", "cut", "non_utf8"]


def key_paths(value, path=()):
    """The path of every value inside `value`, a parsed JSON line."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield path + (key,)
        yield from key_paths(inner, path + (key,))


@st.composite
def mutants(draw, text: bytes, line: int | None = None) -> bytes:
    """`text` with one line changed: line `line`, or any line but the header."""
    lines = text.split(b"\n")
    i = line if line is not None else draw(st.integers(1, len(lines) - 2))
    how = draw(st.sampled_from(MUTATIONS))
    if how in ("drop_key", "change_type"):
        record = json.loads(lines[i])
        *parents, key = draw(st.sampled_from(list(key_paths(record))))
        container = record
        for parent in parents:
            container = container[parent]
        if how == "drop_key":
            del container[key]
        else:
            old = container[key]
            container[key] = draw(st.sampled_from([v for v in VALUES if type(v) is not type(old)]))
        lines[i] = json.dumps(record, separators=(",", ":")).encode()
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "unknown_kind":
        lines.insert(i, b'{"kind":"bogus"}')
    elif how == "cut":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    else:
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + b"\xff\xfe" + lines[i][at:]
    return b"\n".join(lines)


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict[str, bytes]:
    out = {}
    for name, path in SCENARIOS.items():
        trace = tmp_path_factory.mktemp("traces") / f"{name}.trace"
        run_with_trace(load_scenario(path), trace)
        out[name] = trace.read_bytes()
    return out


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_no_scenario_mutant_escapes_the_cli_exit_codes(tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(SCENARIOS)))
    mutant = tmp_path_factory.getbasetemp() / "mutant.scn"
    mutant.write_bytes(data.draw(mutants(SCENARIOS[name].read_bytes())))
    assert main(["run", str(mutant)]) in (0, 2, 3)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_no_trace_header_mutant_escapes_the_cli_exit_codes(traces, tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(traces)))
    mutant = tmp_path_factory.getbasetemp() / "mutant.trace"
    mutant.write_bytes(data.draw(mutants(traces[name], line=0)))
    assert main(["replay", str(mutant)]) in (0, 2, 4)
