from __future__ import annotations

import json
import re
from dataclasses import fields, replace
from operator import setitem
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegauth import (
    Scenario, WorkloadParams, compare_modes, generate_workload, run_scenario, run_with_trace, runner, scenario, trace,
)
from delegauth.auth import Decision
from delegauth.errors import InvariantViolation, ParseError, UnresolvedReference
from delegauth.graph import PathKey
from delegauth.model import HandoffEvent, InputEvent, OperationRequest
from delegauth.scenario import load_scenario, loads_scenario
from delegauth.trace import (
    admit_line,
    complete_line,
    decided_admit_line,
    deliver_line,
    dump_line,
    expire_line,
    handoff_line,
    hold_line,
    pending_admit_line,
)
from conftest import DATA, scenario_path
from test_trace_digests import SCENARIOS, fuzz_tight_gaps

HEADER = '{"format":"delegauth-scenario","version":1}'

MINIMAL = "\n".join(
    [
        HEADER,
        '{"kind":"program","name":"A","mark":"A"}',
        '{"kind":"program","name":"B","mark":"B"}',
        '{"kind":"widget","label":"go","input":"voice"}',
        '{"kind":"sensor","id":"Camera"}',
        '{"kind":"operation","op":"snap","sensors":["Camera"],"phrase":"capture pictures"}',
        '{"kind":"mode","mode":"delegation"}',
        '{"kind":"event","t":0,"input":{"widget":"go","program":"A"}}',
    ]
)


def test_bundled_scenarios_load(task_a, task_b, task_c):
    assert len(task_a.programs) == 3
    assert task_a.mode == "delegation"
    assert {w["label"] for w in task_a.widgets} == {"create a note", "take a screenshot"}
    assert len(task_b.timeline) == 2
    assert len(task_c.attacks) == 1


def test_minimal_scenario_loads():
    scn = loads_scenario(MINIMAL)
    registry, handlers, name_to_id = scn.build()
    assert set(name_to_id) == {"A", "B"}


def test_bad_json_reports_line():
    with pytest.raises(ParseError) as exc:
        loads_scenario(HEADER + "\n{not json}")
    assert exc.value.line == 2


GOOD_EVENT = '{"kind":"event","t":0,"input":{"widget":"go","program":"A"}}'
# a good event line as `dump()` writes it, `t` last, cut before its time; a second line of one head
# whose time `loads_scenario` cannot read at once takes the path of any other line
T_LAST = '{"input":{"program":"A","widget":"go"},"kind":"event"'
T_LAST_ID = '{"id":"x","input":{"program":"A","widget":"go"},"kind":"event"'


# malformed record lines after MINIMAL's 8: (the lines, the line named, its message)
@pytest.mark.parametrize(
    "lines, line, message",
    [
        pytest.param(['{"kind":"event","t":1'], 9, "invalid JSON (Expecting ',' delimiter)", id="cut-short"),
        pytest.param(['{"kind":"event","t":1,'], 9, "invalid JSON (Expecting property name enclosed in double quotes)",
                     id="cut-after-comma"),
        pytest.param([GOOD_EVENT + " x"], 9, "invalid JSON (Extra data)", id="trailing-garbage"),
        pytest.param([GOOD_EVENT + "," + GOOD_EVENT], 9, "invalid JSON (Extra data)", id="two-records"),
        pytest.param([GOOD_EVENT + GOOD_EVENT], 9, "invalid JSON (Extra data)", id="two-records-no-comma"),
        pytest.param(["[1]"], 9, "record must be a JSON object", id="array"),
        pytest.param(["null"], 9, "record must be a JSON object", id="null"),
        pytest.param(["1,2"], 9, "invalid JSON (Extra data)", id="two-numbers"),
        pytest.param([GOOD_EVENT, "", "   ", "\t", GOOD_EVENT, "", "[1]"], 15, "record must be a JSON object",
                     id="after-blank-lines"),
        pytest.param([GOOD_EVENT] * 1000 + ['{"kind":"event","t":1,"input":'], 1009, "invalid JSON (Expecting value)",
                     id="after-1000-good"),
        # one record split over two lines, after a line of two: as many records as lines, none of them whole
        pytest.param(['{"kind":"sensor","id":"Screen"},{"kind":"widget","label":"stop","aliases":["halt"',
                      '"quit"]}'], 9, "invalid JSON (Extra data)", id="record-split-over-two-lines"),
        pytest.param([T_LAST + ',"t":0}', T_LAST + ',"t":012}'], 10, "invalid JSON (Expecting ',' delimiter)",
                     id="repeated-head-t-leading-zero"),
        pytest.param([T_LAST + ',"t":0}', T_LAST + ',"t":-1}'], 10, "event record: 't' must be an int >= 0, got -1",
                     id="repeated-head-t-negative"),
        pytest.param([T_LAST + ',"t":0}', T_LAST + ',"t":1.5}'], 10,
                     "event record: 't' must be an int >= 0, got 1.5", id="repeated-head-t-fraction"),
        pytest.param([T_LAST + ',"t":0}', T_LAST + ',"t":1e3}'], 10,
                     "event record: 't' must be an int >= 0, got 1000.0", id="repeated-head-t-exponent"),
        pytest.param([T_LAST + ',"t":0}', T_LAST + ',"t":' + "9" * 5000 + "}"], 10,
                     "invalid JSON (Exceeds the limit (4300 digits) for integer string conversion: value has 5000 "
                     "digits; use sys.set_int_max_str_digits() to increase the limit)",
                     id="repeated-head-t-5000-digits"),
        # `5 }` is good JSON: the line is read, and its id is the first line's
        pytest.param([T_LAST_ID + ',"t":0}', T_LAST_ID + ',"t":5 }'], 10,
                     "event record: a second event with id 'x'; the first is on line 9", id="repeated-head-t-space"),
        pytest.param([T_LAST_ID + ',"t":0}', T_LAST_ID + ',"t":1}'], 10,
                     "event record: a second event with id 'x'; the first is on line 9", id="repeated-head-same-id"),
        # a good line whose `t` is not last, then its text up to `,"t":` with a time and no kind
        pytest.param(['{"input":{"program":"A","widget":"go"},"t":5,"kind":"event"}',
                      '{"input":{"program":"A","widget":"go"},"t":7}'], 10, "unknown record kind None",
                     id="head-of-a-t-inside-line"),
    ],
)
def test_malformed_record_lines_name_their_line(lines, line, message):
    with pytest.raises(ParseError) as exc:
        loads_scenario("\n".join([MINIMAL, *lines]))
    assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_records_are_split_at_newlines_only(char):
    # JSON lets these stand raw inside a string; `str.splitlines` would break the record at them
    text = Path(scenario_path("task_a")).read_text(encoding="utf-8")
    text = text.replace('"the Notes app"', f'"the Note{char}s app"')
    scn = loads_scenario(text)
    assert scn.programs[1]["display"] == f"the Note{char}s app"
    assert scn.text() == text
    run_scenario(scn)


def test_crlf_text_loads_as_its_lf_text(task_a):
    crlf = task_a.text().replace("\n", "\r\n")
    assert loads_scenario(crlf) == task_a
    with pytest.raises(ParseError) as exc:
        loads_scenario(crlf.replace('"Notes"', '"Notes', 1))
    assert exc.value.line == 3


def labelled_workload(n_inputs: int) -> Scenario:
    """A workload whose every event has an id of its own, so that no two event lines are alike but for `t`."""
    scn = generate_workload(WorkloadParams(n_inputs=n_inputs))
    scn.timeline[:] = [{**e, "label": f"e{i}"} for i, e in enumerate(scn.timeline)]
    return scn


# event lines of one head whose times are read as any other line's: with a space, `-0`, 19 digits
ODD_TIMES = "\n".join([MINIMAL, *(T_LAST + f',"t":{t}}}' for t in ["0", "-0", "0", "5 ", "5", "1" * 18, "1" * 19])])

# name -> the scenarios whose texts are loaded: the digest cases, workloads with noise apps and with
# labelled events, and a text of odd times
LOADED = {
    **{name: make for name, (make, _mode) in SCENARIOS.items() if name not in ("pass_through", "fuzz_tight_gaps")},
    "fuzz_tight_gaps": lambda: fuzz_tight_gaps(range(0, 800, 40)),
    "noise_apps": lambda: generate_workload(WorkloadParams(n_inputs=2000, noise_apps=300, noise_burst_prob=0.5)),
    "labelled": lambda: labelled_workload(2000),
    "odd_times": lambda: loads_scenario(ODD_TIMES),
}


def loaded(text: str) -> tuple:
    """What `loads_scenario` keeps of `text`, with the key order of each timeline entry and the `dump()`."""
    scn = loads_scenario(text)
    return scn, scn._lines, scn._specs, [list(e.items()) for e in scn.timeline], scn.dump()


@pytest.mark.parametrize("name", list(LOADED))
def test_each_text_loads_as_its_crlf_copy(name):
    # every line of a CRLF copy ends in a carriage return, so none is read but by the decoder
    made = LOADED[name]()
    for scn in made if isinstance(made, list) else [made]:
        text = scn.text()
        got = loaded(text)
        assert got == loaded(text.replace("\n", "\r\n"))
        dump = got[-1]
        assert loaded(dump)[-1] == dump
        if not scn.source_text:  # a generated scenario: its text is its `dump()`
            assert dump == text


def test_empty_text_is_an_empty_scenario_file():
    with pytest.raises(ParseError, match="^line 1: empty scenario file$"):
        loads_scenario("")


def test_non_utf8_file_is_a_parse_error(tmp_path):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(MINIMAL.replace('"name":"B"', '"name":"B\xe9"').encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_scenario(bad)


def test_wrong_header_rejected():
    with pytest.raises(ParseError):
        loads_scenario('{"format":"something-else","version":1}')


def handler(program: str, on: str, to: str | None = None, label: str | None = None) -> str:
    """A handler line of `program` for a handoff of action `on` (`"go"` is the widget), handing off to `to`."""
    actions = [] if to is None else [{"handoff": to, "after": 1, **({"label": label} if label else {})}]
    trigger = {"widget": on} if on == "go" else {"handoff": on}
    return dump_line({"kind": "handler", "program": program, "on": trigger, "actions": [*actions, {"complete": 1}]})


# handlers of A, B and C, from line 10 on: (the handler lines, the cycle named on line 10, or None if none)
@pytest.mark.parametrize(
    "handlers, cycle",
    [
        pytest.param([handler("A", "*", "B"), handler("B", "*", "C"), handler("C", "*", "A")], "A -> B -> C -> A",
                     id="three"),
        pytest.param([handler("A", "*", "B"), handler("B", "*", "C"), handler("C", "*")], None, id="chain"),
        # a labelled handoff reaches its target's handler of that label, else its `*` handler
        pytest.param([handler("A", "*", "B", "x"), handler("B", "x", "C"), handler("B", "*", "A")], None,
                     id="label-leads-out"),
        pytest.param([handler("A", "*", "B", "x"), handler("B", "x", "A"), handler("B", "*", "C")], "A -> B -> A",
                     id="label-leads-back"),
        pytest.param([handler("A", "*", "B", "y"), handler("B", "x", "C"), handler("B", "*", "A")], "A -> B -> A",
                     id="label-falls-back"),
        # an input's handler is run by inputs alone, so no handoff leads back to it
        pytest.param([handler("A", "go", "B"), handler("B", "*", "A")], None, id="from-an-input"),
    ],
)
def test_a_cycle_of_handlers_is_refused_naming_its_first_handler(handlers, cycle):
    text = "\n".join([MINIMAL, '{"kind":"program","name":"C","mark":"C"}', *handlers])
    if cycle is None:
        loads_scenario(text)
        return
    with pytest.raises(ParseError) as exc:
        loads_scenario(text)
    assert str(exc.value) == f"line 10: handler record: a cycle of handoffs, {cycle}, which a run would follow for ever"


def test_out_of_order_timeline_rejected():
    text = MINIMAL + '\n{"kind":"event","t":-5,"input":{"widget":"go","program":"A"}}'
    with pytest.raises(ParseError):
        loads_scenario(text)
    text = "\n".join(
        [
            MINIMAL,
            '{"kind":"event","t":100,"input":{"widget":"go","program":"A"}}',
            '{"kind":"event","t":50,"input":{"widget":"go","program":"A"}}',
        ]
    )
    with pytest.raises(InvariantViolation):
        loads_scenario(text)


def test_preliminary_after_main_rejected():
    text = MINIMAL + '\n{"kind":"event","phase":"preliminary","t":10,"input":{"widget":"go","program":"A"}}'
    with pytest.raises(InvariantViolation):
        loads_scenario(text)


def test_unknown_program_reference_rejected():
    text = MINIMAL + '\n{"kind":"event","t":5,"request":{"program":"Zeta","op":"snap","sensor":"Camera"}}'
    with pytest.raises(UnresolvedReference) as exc:
        loads_scenario(text)
    assert "Zeta" in str(exc.value)


def test_handler_emitting_to_unregistered_program_rejected():
    for handler in [
        '{"kind":"handler","program":"A","on":{"widget":"go"},'
        '"actions":[{"handoff":"Ghost","after":2},{"complete":3}]}',
        '{"kind":"handler","program":"Ghost","on":{"widget":"go"},"actions":[{"complete":3}]}',
    ]:
        with pytest.raises(UnresolvedReference, match="'Ghost'") as exc:
            loads_scenario(MINIMAL + "\n" + handler)
        assert exc.value.line == 9


def test_handler_without_complete_rejected():
    text = "\n".join(
        [
            MINIMAL,
            '{"kind":"handler","program":"A","on":{"widget":"go"},"actions":[{"handoff":"B","after":2}]}',
        ]
    )
    with pytest.raises(ParseError, match="exactly one 'complete'"):
        loads_scenario(text)


def test_zero_lag_emission_rejected():
    text = "\n".join(
        [
            MINIMAL,
            '{"kind":"handler","program":"A","on":{"widget":"go"},'
            '"actions":[{"handoff":"B","after":0},{"complete":3}]}',
        ]
    )
    with pytest.raises(ParseError, match="line 9: .*emission lag"):
        loads_scenario(text)


BAD_NUMBERS = [True, False, 2.5, "5", None]


@pytest.mark.parametrize("t", BAD_NUMBERS, ids=repr)
def test_event_time_must_be_an_int(t):
    text = MINIMAL + '\n{"kind":"event","t":%s,"input":{"widget":"go","program":"A"}}' % json.dumps(t)
    with pytest.raises(ParseError):
        loads_scenario(text)


@pytest.mark.parametrize("lag", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("action", ["handoff", "request", "complete"])
def test_handler_lags_must_be_ints(action, lag):
    actions = {
        "handoff": [{"handoff": "B", "after": lag}, {"complete": 9}],
        "request": [{"request": ["snap", "Camera"], "after": lag}, {"complete": 9}],
        "complete": [{"handoff": "B", "after": 2}, {"complete": lag}],
    }[action]
    handler = {"kind": "handler", "program": "A", "on": {"widget": "go"}, "actions": actions}
    with pytest.raises(ParseError, match="must be int"):
        loads_scenario(MINIMAL + "\n" + json.dumps(handler))


def test_incompatible_attack_triple_rejected():
    text = MINIMAL + '\n{"kind":"attack","name":"x","program":"A","op":"snap","sensor":"Screen"}'
    with pytest.raises(UnresolvedReference):
        loads_scenario(text)


def test_dump_load_round_trip(task_b):
    text = task_b.dump()
    again = loads_scenario(text)
    assert again.dump() == text


def test_dump_round_trip_keeps_event_ids_and_provenance():
    scn = loads_scenario((DATA / "contention.scn").read_text())
    assert any(e.get("label") for e in scn.timeline) and any(e.get("provenance") for e in scn.timeline)
    again = loads_scenario(scn.dump())
    assert again == scn
    traces = []
    for s in (scn, again):
        lines = []
        run_scenario(s, trace=lines.append)
        traces.append(lines)
    assert traces[0] == traces[1] and traces[0]


def test_a_program_name_comes_once_in_a_scenario_built_in_python():
    scn = Scenario(programs=[{"name": "Notes", "mark": "NO"}, {"name": "Notes", "mark": "EVIL"}])
    with pytest.raises(ParseError, match="^a second program 'Notes' record$"):
        scn.build()


GO_A = {"phase": "main", "kind": "input", "widget": "go", "program": "A"}


@pytest.mark.parametrize(
    "timeline, error, message",
    [
        pytest.param([{**GO_A, "t": 0, "program": "Zeta"}], UnresolvedReference, "unknown program 'Zeta'",
                     id="unknown-program"),
        pytest.param([{**GO_A, "t": 0, "widget": "stop"}], UnresolvedReference, "unknown widget 'stop'",
                     id="unknown-widget"),
        pytest.param([{**GO_A, "t": 9}, {**GO_A, "t": 5}], InvariantViolation,
                     "timeline timestamps must be non-decreasing", id="out-of-order"),
        pytest.param([{**GO_A, "t": 0}, {**GO_A, "t": 5, "phase": "preliminary"}], InvariantViolation,
                     "preliminary events must precede main events", id="preliminary-after-main"),
        pytest.param([{**GO_A, "t": 0, "label": "i1"}, {**GO_A, "t": 5, "label": "i1"}], ParseError,
                     "event record: a second event with id 'i1'", id="repeated-id"),
        pytest.param([{"phase": "main", "t": 5, "kind": "handoff", "src": "A", "dst": "B", "provenance": "i1"}],
                     UnresolvedReference, "provenance 'i1' does not name an earlier event id", id="provenance"),
    ],
)
def test_a_timeline_built_in_python_gets_the_checks_of_a_loaded_one(timeline, error, message):
    # `run_scenario` schedules through the checks `loads_scenario` runs; an entry built in Python has no line
    scn = replace(loads_scenario(MINIMAL), timeline=timeline)
    with pytest.raises(error, match=f"^{message}$"):
        run_scenario(scn)


def scheduled(scn) -> list[int]:
    """The time of each timeline entry that set-up queues for a run of `scn`."""
    engine, name_to_id = runner.build_engine(scn)
    runner._schedule_timeline(engine, scn, name_to_id)
    return [t for t, *_ in engine._timeline]


@pytest.fixture
def resolved(monkeypatch) -> list[int]:
    """The time of each timeline entry `timeline_specs` resolves, for loads and runs alike."""
    times, timeline_specs = [], scenario.timeline_specs

    def counting(scn, registry, name_to_id):
        for e, spec in zip(scn.timeline, timeline_specs(scn, registry, name_to_id)):
            times.append(e["t"])
            yield spec

    monkeypatch.setattr(scenario, "timeline_specs", counting)
    monkeypatch.setattr(runner, "timeline_specs", counting)
    return times


def test_a_loaded_scenario_resolves_each_timeline_entry_once(resolved):
    scn = loads_scenario((DATA / "contention.scn").read_text())
    assert resolved == [e["t"] for e in scn.timeline]
    compare_modes(scn)  # two runs
    assert scheduled(scn) == resolved
    assert resolved == [e["t"] for e in scn.timeline]


def test_a_replaced_or_built_scenario_schedules_its_own_timeline(resolved):
    loaded = loads_scenario((DATA / "contention.scn").read_text())
    first = loaded.timeline[0]
    shifted = replace(loaded, timeline=[{**first, "t": first["t"] + 7}])
    assert scheduled(shifted) == [first["t"] + 7]
    run_scenario(shifted)
    built = Scenario(**{f.name: getattr(shifted, f.name) for f in fields(Scenario) if f.init})
    assert scheduled(built) == [first["t"] + 7]
    built.timeline.append({**first, "t": first["t"] + 9, "label": "i9"})  # a list: a run resolves what it holds then
    assert scheduled(built) == [first["t"] + 7, first["t"] + 9]
    assert resolved == [e["t"] for e in loaded.timeline] + [first["t"] + 7] * 3 + [first["t"] + 7, first["t"] + 9]


def test_inputs_alike_share_one_spec_and_keep_their_own_programs():
    at_1 = GOOD_EVENT.replace('"t":0', '"t":1')
    text = "\n".join([MINIMAL, at_1, at_1.replace('"A"', '"B"'), GOOD_EVENT.replace('"t":0', '"t":2,"id":"i2"')])
    specs = loads_scenario(text)._specs
    assert [(s["program"], s.get("label")) for s in specs] == [("P1", None), ("P1", None), ("P2", None), ("P1", "i2")]
    assert specs[0] is specs[1] and len({id(s) for s in specs}) == 3


# a record whose checks fail, after MINIMAL's 8 lines -> the message naming line 9
@pytest.mark.parametrize(
    "record, message",
    [
        pytest.param('{"kind":"event","t":0,"input":{"widget":"go","program":"A"},"request":{}}',
                     "event record: needs exactly one of the keys input, handoff, request, got "
                     "{'t': 0, 'input': {'widget': 'go', 'program': 'A'}, 'request': {}}", id="two-bodies"),
        pytest.param('{"kind":"event","t":0}', "event record: needs exactly one of the keys input, handoff, request, "
                     "got {'t': 0}", id="no-body"),
        pytest.param('{"kind":"event","t":-1,"input":{"widget":"go","program":"A"}}',
                     "event record: 't' must be an int >= 0, got -1", id="negative-time"),
        pytest.param('{"kind":"event","t":0,"input":{"widget":"go","program":7}}',
                     "event record: 'input.program' must be str, got 7", id="nested-type"),
        pytest.param('{"kind":"event","t":0,"input":{"widget":"go"}}',
                     "event record: 'input' needs the key 'program'", id="nested-missing-key"),
        pytest.param('{"kind":"event","t":0,"phase":"late","input":{"widget":"go","program":"A"}}',
                     "event record: 'phase' must be one of 'preliminary', 'main', got 'late'", id="not-one-of"),
        pytest.param('{"kind":"widget","label":"stop","aliases":["halt",3]}',
                     "widget record: 'aliases.1' must be str, got 3", id="list-item"),
        pytest.param('{"kind":"handler","program":"A","on":{"widget":"go"},"actions":[{"complete":3,"after":1}]}',
                     "handler record: 'actions.0' has the key 'after', not one of complete", id="list-item-key"),
        pytest.param('{"kind":"expect","mode":"delegation","attack":{"spy":1}}',
                     "expect record: 'attack.spy' must be bool, got 1", id="other-key"),
        pytest.param('{"kind":"sensor","id":"Mic","range":9}',
                     "sensor record: has the key 'range', not one of id, phrase", id="unknown-key"),
        pytest.param('{"kind":"config","window_ms":"9"}', "config record: window_ms must be int, got '9'",
                     id="config-value"),
    ],
)
def test_record_checks_name_the_key_path(record, message):
    with pytest.raises(ParseError) as exc:
        loads_scenario(MINIMAL + "\n" + record)
    assert str(exc.value) == f"line 9: {message}"


@pytest.mark.parametrize(
    "changes, message",
    [
        pytest.param({"attacks": [{"name": "spy", "program": "Nobody", "op": "capture_screen", "sensor": "Screen"}]},
                     "unknown program 'Nobody'", id="attack-program"),
        pytest.param({"attacks": [{"name": "spy", "program": "Notes", "op": "capture_screen", "sensor": "Camera"}]},
                     "incompatible op/sensor ('capture_screen', 'Camera')", id="attack-op-sensor"),
        pytest.param({"expects": [{"mode": "delegation", "attack": {"nope": True}}]},
                     "expect names unknown attack 'nope'", id="expect-attack"),
    ],
)
def test_attacks_and_expects_built_in_python_get_the_checks_of_loaded_ones(task_a, changes, message):
    with pytest.raises(UnresolvedReference, match=f"^{re.escape(message)}$"):
        run_scenario(replace(task_a, **changes))


# each edit would leave the loaded text stale, so that a trace of the run embeds the old text and does not replay
IN_PLACE_EDITS = {
    "policy": lambda scn: setitem(scn.policies, "main", ["allow * * * *"]),
    "program": lambda scn: scn.programs.append({"name": "Spy", "mark": "SP"}),
    "event-time": lambda scn: setitem(scn.timeline[0], "t", 99),
    "handler-actions": lambda scn: scn.handlers[0]["actions"].append({"complete": 1}),
    "handler-trigger": lambda scn: setitem(scn.handlers[0]["on"], "widget", "take a screenshot"),
    "handler-action": lambda scn: setitem(scn.handlers[0]["actions"][0], "after", 1),
    "config": lambda scn: setitem(scn.config, "window_ms", 5),
    "mode": lambda scn: setattr(scn, "mode", "first_use"),
}


@pytest.mark.parametrize("edit", IN_PLACE_EDITS.values(), ids=list(IN_PLACE_EDITS))
def test_a_loaded_scenario_cannot_be_changed_in_place(task_a, edit):
    before = task_a.dump()
    with pytest.raises((AttributeError, TypeError)):  # a frozen field, a tuple, or a read-only mapping
        edit(task_a)
    assert task_a.dump() == before


def test_provenance_label_must_name_earlier_event():
    text = "\n".join(
        [
            MINIMAL,
            '{"kind":"event","t":5,"handoff":{"from":"A","to":"B","provenance":"nope"}}',
        ]
    )
    with pytest.raises(UnresolvedReference):
        loads_scenario(text)
    ok = "\n".join(
        [
            HEADER,
            '{"kind":"program","name":"A","mark":"A"}',
            '{"kind":"program","name":"B","mark":"B"}',
            '{"kind":"widget","label":"go","input":"voice"}',
            '{"kind":"sensor","id":"Camera"}',
            '{"kind":"operation","op":"snap","sensors":["Camera"],"phrase":"capture pictures"}',
            '{"kind":"mode","mode":"delegation"}',
            '{"kind":"event","t":0,"id":"i1","input":{"widget":"go","program":"A"}}',
            '{"kind":"event","t":5,"handoff":{"from":"A","to":"B","provenance":"i1"}}',
        ]
    )
    loads_scenario(ok)


# st.text() draws non-ASCII and control characters as well as ASCII
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(), JSON_VALUES, max_size=6))
def test_dump_line_matches_json_dumps(obj):
    assert dump_line(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- trace lines -----------------------------------------------------------------


def dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


TEXT = st.text()  # quotes, control characters and non-ASCII among them
INT = st.integers(-(2**70), 2**70)  # negatives, and values past 2**63
MAYBE_TEXT = st.none() | TEXT

EVENTS = (
    st.builds(InputEvent, TEXT, TEXT, TEXT, INT)
    | st.builds(HandoffEvent, TEXT, TEXT, TEXT, INT, MAYBE_TEXT, MAYBE_TEXT)
    | st.builds(OperationRequest, TEXT, TEXT, TEXT, TEXT, INT)
)
PATH_KEYS = st.builds(PathKey, TEXT, st.lists(TEXT, min_size=1, max_size=4).map(tuple), TEXT, TEXT)


def event_payload(ev) -> dict:
    """The `event` of an `admit` record, as a dict."""
    if isinstance(ev, InputEvent):
        return {"id": ev.event_id, "t": ev.t, "widget": ev.widget_id, "program": ev.program_id}
    if isinstance(ev, HandoffEvent):
        return {"id": ev.event_id, "t": ev.t, "src": ev.src, "dst": ev.dst,
                "provenance": ev.provenance, "action": ev.action}
    return {"id": ev.event_id, "t": ev.t, "program": ev.program_id, "op": ev.op, "sensor": ev.sensor}


def decisions(path_key, detail, *more):
    """A decision, the root its line names, and any `more` fields."""
    return st.tuples(st.builds(
        Decision, TEXT, TEXT, TEXT, TEXT, TEXT, TEXT, INT, phase=TEXT, path_key=path_key, detail=detail,
    ), MAYBE_TEXT, *more)


def decided_admission(decision, root, derived) -> tuple[str, dict]:
    """The record of a request decided as it was admitted: its admission and its decision's outcome."""
    d = decision.to_dict()
    event = {"id": d.pop("request_id"), "op": d.pop("op"), "program": d.pop("program"),
             "sensor": d.pop("sensor"), "t": d.pop("t")}
    return "admit", {**d, "derived": derived, "event": event, "root": root}


NO_PATH_KEY, NO_DETAIL, DETAIL = st.none(), st.just(""), st.text(min_size=1)


def keys(*names) -> frozenset:
    return frozenset(("kind", "seq", "t") + names)


# a record's key set -> the line functions that write it, each with a strategy
# for its fields and the record's kind and payload from those fields, as
# `_emit` built them before the engine wrote lines itself
SHAPES = {
    keys("derived", "event", "phase"): [(
        admit_line,
        st.tuples(EVENTS, st.booleans(), TEXT),
        lambda ev, derived, phase: ("admit", {"event": event_payload(ev), "derived": derived, "phase": phase}),
    )],
    # an input or handoff delivered as it was admitted, and a handoff with its outcome in DELEGATION
    keys("delivered", "derived", "event", "phase"): [(
        admit_line,
        st.tuples(EVENTS, st.booleans(), TEXT, st.just(True)),
        lambda ev, derived, phase, delivered: (
            "admit", {"event": event_payload(ev), "derived": derived, "phase": phase, "delivered": delivered}
        ),
    )],
    keys("delivered", "derived", "event", "outcome", "phase"): [(
        admit_line,
        st.tuples(EVENTS, st.booleans(), TEXT, st.just(True), TEXT),
        lambda ev, derived, phase, delivered, outcome: ("admit", {
            "event": event_payload(ev), "derived": derived, "phase": phase, "delivered": delivered,
            "outcome": outcome,
        }),
    )],
    # a request left to its root's prompt
    keys("derived", "event", "evicted", "path_key", "phase", "root"): [(
        pending_admit_line,
        st.tuples(st.builds(OperationRequest, TEXT, TEXT, TEXT, TEXT, INT), st.booleans(), TEXT, TEXT, PATH_KEYS, INT),
        lambda r, derived, phase, root, key, evicted: ("admit", {
            "event": event_payload(r), "derived": derived, "phase": phase, "root": root, "path_key": key.to_dict(),
            "evicted": evicted,
        }),
    )],
    keys("delay", "event_id", "event_kind", "program"): [(
        deliver_line,
        st.tuples(TEXT, TEXT, INT, TEXT),
        lambda event_id, program, delay, event_kind: (
            "deliver", {"event_id": event_id, "program": program, "delay": delay, "event_kind": event_kind}
        ),
    )],
    # a handoff delivered from its queue in DELEGATION, with its outcome
    keys("delay", "event_id", "event_kind", "outcome", "program"): [(
        deliver_line,
        st.tuples(TEXT, TEXT, INT, TEXT, TEXT),
        lambda event_id, program, delay, event_kind, outcome: ("deliver", {
            "event_id": event_id, "program": program, "delay": delay, "event_kind": event_kind, "outcome": outcome,
        }),
    )],
    keys("event_id", "program"): [(
        complete_line,
        st.tuples(TEXT, TEXT),
        lambda event_id, program: ("complete", {"program": program, "event_id": event_id}),
    )],
    keys("event_id", "program", "queue"): [(
        hold_line,
        st.tuples(TEXT, TEXT, TEXT),
        lambda event_id, program, queue: ("hold", {"event_id": event_id, "program": program, "queue": queue}),
    )],
    keys("event_id", "reason"): [(
        expire_line,
        st.tuples(TEXT, TEXT),
        lambda event_id, reason: ("expire", {"event_id": event_id, "reason": reason}),
    )],
    keys("event_id", "outcome", "root"): [(
        handoff_line,
        st.tuples(TEXT, MAYBE_TEXT, TEXT),
        lambda event_id, root, outcome: ("handoff", {"event_id": event_id, "root": root, "outcome": outcome}),
    )],
}
# a request decided as it was admitted: the admission's `t` is the clock's
DECIDED_ADMISSION = keys("derived", "event", "outcome", "phase", "reason", "root")
for extra, strategy in [
    ((), decisions(NO_PATH_KEY, NO_DETAIL, st.booleans())),
    (("path_key",), decisions(PATH_KEYS, NO_DETAIL, st.booleans())),
    (("detail",), decisions(NO_PATH_KEY, DETAIL, st.booleans())),
    (("detail", "path_key"), decisions(PATH_KEYS, DETAIL, st.booleans())),  # no engine path writes both yet
]:
    SHAPES[DECIDED_ADMISSION | set(extra)] = [(decided_admit_line, strategy, decided_admission)]


@pytest.mark.parametrize("keys", sorted(SHAPES, key=sorted), ids=lambda k: ",".join(sorted(k)))
@settings(max_examples=50)  # 700 lines over the 14 key sets
@given(data=st.data())
def test_template_lines_equal_json_dumps(keys, data):
    line, fields, record = data.draw(st.sampled_from(SHAPES[keys]))
    seq, t, args = data.draw(INT), data.draw(INT), data.draw(fields)
    kind, payload = record(*args)
    expected = {"seq": seq, "t": t, "kind": kind, **payload}
    assert expected.keys() == keys
    assert line(seq, t, *args) == dumps(expected)


def test_templates_serve_every_record_but_prompts(tmp_path, monkeypatch):
    """Every record but a prompt is written by its own line function: only
    the header and the prompts go through `dump_line`."""
    fallback = []

    def counting_dump_line(obj):
        fallback.append(obj)
        return dump_line(obj)

    scn = generate_workload(WorkloadParams(n_inputs=2000))
    monkeypatch.setattr(trace, "dump_line", counting_dump_line)
    path = tmp_path / "w.trace"
    run_with_trace(scn, path)
    header, *records = fallback
    assert header["format"] == "delegauth-trace"
    assert records and {r["kind"] for r in records} == {"prompt"}
    assert len(path.read_text().splitlines()) > 100 * len(records)
