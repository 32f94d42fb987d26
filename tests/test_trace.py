"""The trace module's place among the package's modules, and what a trace explains.

`trace.py` holds the trace format, and the engine imports its encoders, so it
may import the standard library, `errors` and `model` alone: a module above
the engine would make an import cycle. A trace file alone explains each
decision of its run: its path, its root, its cache outcome and its prompt;
and it gives the end of each handler run, though a run that ends on its own
writes no line. A trace replays byte for byte, and tracing a run changes
nothing it reports.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from delegauth import Mode, run_scenario, run_with_trace
from delegauth.auth import CACHED, POLICY, PROMPTED
from delegauth.engine import Engine
from delegauth.runner import replay, resolve_mode
from delegauth.scenario import loads_scenario, read_trace_header
from delegauth.trace import records

from test_trace_digests import SCENARIOS, fuzz_tight_gaps

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delegauth"


def test_the_trace_module_loads_no_module_above_it():
    # the package's `__init__` imports every module, so the fresh interpreter
    # registers a bare package first: only `trace.py`'s own imports run
    code = (
        "import sys, types\n"
        "package = types.ModuleType('delegauth')\n"
        f"package.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['delegauth'] = package\n"
        "import delegauth.trace\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('delegauth.'))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert not {"delegauth.engine", "delegauth.scenario", "delegauth.runner"} & set(loaded)
    assert loaded == ["delegauth.errors", "delegauth.model", "delegauth.trace"]


def test_the_engine_writes_no_json_itself():
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "json" not in imported


def decision_records(recs) -> dict[str, list[tuple[int, dict]]]:
    """Request id -> the (index, record) of each record of a decision on it.

    A decision made as its request was admitted is that request's `admit`
    record; any other is a `decision` record."""
    found: dict[str, list[tuple[int, dict]]] = {}
    for i, r in enumerate(recs):
        if r["kind"] == "decision":
            found.setdefault(r["request_id"], []).append((i, r))
        elif r["kind"] == "admit" and "reason" in r:
            found.setdefault(r["event"]["id"], []).append((i, r))
    return found


def check_trace_explains(path, decisions) -> None:
    """Check that the trace file at `path` alone explains each of `decisions`, those of a DELEGATION run that wrote it.

    Each decision has one record, with its outcome, reason, detail and path
    key, naming the root of its path or, with no path, none. A decision made
    as its request was admitted, any but a prompted one, is the request's
    `admit` record. A prompted decision is a `decision` record that follows
    its request's `request` record and the prompt of its root, whose paths
    hold its key. A decision the cache answered names an admitted input of
    the key's widget and first program, whose window holds the request's time.
    """
    with open(path) as fh:
        header = read_trace_header(fh)
        recs = list(records(fh))
    config = loads_scenario(header["scenario"]).engine_config(window_override=header.get("window_override"))
    inputs = {r["event"]["id"]: r["event"] for r in recs if r["kind"] == "admit" and "widget" in r["event"]}
    found = decision_records(recs)
    assert sorted(found) == sorted(d.request_id for d in decisions)
    for d in decisions:
        assert len(found[d.request_id]) == 1, d
        (at, rec), = found[d.request_id]
        expected = d.to_dict()
        assert [rec.get(k) for k in ("outcome", "reason", "detail", "path_key")] == [
            expected.get(k) for k in ("outcome", "reason", "detail", "path_key")
        ]
        assert (rec["kind"] == "admit") == (d.reason != PROMPTED), d
        root = rec["root"]
        assert (root is None) == (d.path_key is None), d
        before = recs[:at]
        if d.reason == PROMPTED and root is not None:
            assert {r["event_id"]: r["root"] for r in before if r["kind"] == "request"}.get(d.request_id) == root
            assert any(r["kind"] == "prompt" and r["root"] == root and rec["path_key"] in r["paths"] for r in before)
        elif d.reason in (CACHED, POLICY):
            i = inputs[root]
            assert (i["widget"], i["program"]) == (d.path_key.widget_id, d.path_key.programs[0])
            assert i["t"] <= d.t <= i["t"] + config.window_ms


@pytest.mark.parametrize(
    "name", ["task_a", "task_b", "task_c", "contention", "contention_unscheduled", "task_a_cache_denials"]
)
def test_a_trace_alone_explains_every_decision(name, tmp_path):
    make, mode = SCENARIOS[name]
    path = tmp_path / f"{name}.trace"
    report, _writer = run_with_trace(make(), path, mode=mode)
    assert report.engine_decisions
    check_trace_explains(path, report.engine_decisions)


# the digest cases a trace header can name: all but `pass_through`, with a
# sample of `fuzz_tight_gaps`; together their traces hold every record form
TRACED = [name for name in SCENARIOS if name != "pass_through"]


def runs(name):
    """(scenario, mode) of each run of digest case `name`; of `fuzz_tight_gaps`, every 40th seed."""
    if name == "fuzz_tight_gaps":
        return [(scn, None) for scn in fuzz_tight_gaps(range(0, 800, 40))]
    make, mode = SCENARIOS[name]
    return [(make(), mode)]


def reported(report) -> tuple:
    """What a run reports, but its wall time."""
    return (report.final_t, report.decisions, report.prompts, report.prompt_counts, report.delay_stats,
            report.attack_outcomes, report.ambiguous_requests, report.expect_failures)


@pytest.mark.parametrize("name", TRACED)
def test_replay_re_executes_each_digest_cases_trace_byte_for_byte(name, tmp_path):
    for i, (scn, mode) in enumerate(runs(name)):
        path = tmp_path / f"{name}.{i}.trace"
        report, _writer = run_with_trace(scn, path, mode=mode)
        assert reported(replay(path)) == reported(report)  # `replay` raises at a line that differs


@pytest.mark.parametrize("name", TRACED)
def test_a_traced_run_reports_what_an_untraced_run_does(name, tmp_path):
    for scn, mode in runs(name):
        traced, _writer = run_with_trace(scn, tmp_path / "t.trace", mode=mode)
        untraced, _engine = run_scenario(scn, mode=mode)
        assert reported(traced) == reported(untraced)


def handler_run_ends(path) -> list[tuple[str, int]]:
    """(event id, end time) of each handler run that ends on its own, from the trace file at `path` alone.

    A run starts at each delivery that reaches a handler: an input's, and a
    handoff's but in DELEGATION that of an input-derived handoff that did not
    attach. It ends at the delivery's `t` plus its handler's
    `complete.after_ms`, or plus the config's `default_lag_ms` when no
    handler answers, unless a `complete` record cuts it off first.
    """
    with open(path) as fh:
        header = read_trace_header(fh)
        recs = list(records(fh))
    scn = loads_scenario(header["scenario"])
    _registry, handlers, _ids = scn.build()
    mode = resolve_mode(scn, header["mode"])
    config = scn.engine_config(mode, window_override=header.get("window_override"))
    graphs = mode is Mode.DELEGATION
    admitted, delivering, ends, cut = {}, {}, [], set()

    def delivered(ev, derived, outcome, t):
        if "widget" in ev:
            spec = handlers.lookup(ev["program"], "widget", ev["widget"])
        elif graphs and derived and outcome != "attached":
            return  # attach refused: the handoff reaches no handler
        else:
            spec = handlers.lookup(ev["dst"], "handoff", "*" if ev["action"] is None else ev["action"])
        ends.append((ev["id"], t + (config.default_lag_ms if spec is None else spec.complete.after_ms)))

    for r in recs:
        kind = r["kind"]
        if kind == "admit" and "op" not in r["event"]:
            if r.get("delivered"):
                delivered(r["event"], r["derived"], r.get("outcome"), r["t"])
            else:
                admitted[r["event"]["id"]] = (r["event"], r["derived"])
        elif kind == "deliver":
            ev, derived = admitted.pop(r["event_id"])
            if r["event_kind"] == "input" or not graphs:
                delivered(ev, derived, None, r["t"])
            else:
                delivering[r["event_id"]] = (ev, derived, r["t"])  # its `handoff` record follows
        elif kind == "handoff" and r["event_id"] in delivering:
            ev, derived, t = delivering.pop(r["event_id"])
            delivered(ev, derived, r["outcome"], t)
        elif kind == "complete":
            cut.add(r["event_id"])
    return sorted(end for end in ends if end[0] not in cut)


@pytest.mark.parametrize("name", TRACED)
def test_a_trace_alone_gives_each_handler_runs_end(name, tmp_path, monkeypatch):
    ended = []
    fire_complete = Engine._fire_complete

    def recording(engine, ticket):
        if not ticket.cancelled:
            ended.append((ticket.event.event_id, engine.now))
        fire_complete(engine, ticket)

    monkeypatch.setattr(Engine, "_fire_complete", recording)
    for i, (scn, mode) in enumerate(runs(name)):
        ended.clear()
        path = tmp_path / f"{name}.{i}.trace"
        run_with_trace(scn, path, mode=mode)
        assert ended and handler_run_ends(path) == sorted(ended)
