"""The trace module's place among the package's modules, and what a trace explains.

`trace.py` holds the trace format, and the engine imports its encoders, so it
may import the standard library, `errors` and `model` alone: a module above
the engine would make an import cycle. A trace file alone explains each
decision of its run: its path, its root, its cache outcome and its prompt.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from delegauth import run_with_trace
from delegauth.auth import CACHED, POLICY, PROMPTED
from delegauth.scenario import loads_scenario, read_trace_header
from delegauth.trace import records

from test_trace_digests import SCENARIOS

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


def check_trace_explains(path, decisions) -> None:
    """Check that the trace file at `path` alone explains each of `decisions`, those of the run that wrote it.

    Each decision has one `decision` record, with its outcome, reason, detail
    and path key, naming the root of its path or, with no path, none. A
    prompted decision follows its request's `request` record and the prompt
    of its root, whose paths hold its key. A decision the cache answered
    names an admitted input of the key's widget and first program, whose
    window holds the request's time.
    """
    with open(path) as fh:
        header = read_trace_header(fh)
        recs = list(records(fh))
    config = loads_scenario(header["scenario"]).engine_config(window_override=header.get("window_override"))
    inputs = {r["event"]["id"]: r["event"] for r in recs if r["kind"] == "admit" and "widget" in r["event"]}
    for d in decisions:
        at = [i for i, r in enumerate(recs) if r["kind"] == "decision" and r["request_id"] == d.request_id]
        assert len(at) == 1, d
        rec = recs[at[0]]
        expected = d.to_dict()
        assert [rec.get(k) for k in ("outcome", "reason", "detail", "path_key")] == [
            expected.get(k) for k in ("outcome", "reason", "detail", "path_key")
        ]
        root = rec["root"]
        assert (root is None) == (d.path_key is None), d
        before = recs[:at[0]]
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
