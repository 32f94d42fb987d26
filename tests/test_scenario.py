from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delegauth.errors import InvariantViolation, ParseError, UnresolvedReference
from delegauth.scenario import _dump_line, load_scenario, loads_scenario
from conftest import scenario_path

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


def test_wrong_header_rejected():
    with pytest.raises(ParseError):
        loads_scenario('{"format":"something-else","version":1}')


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
    text = "\n".join(
        [
            MINIMAL,
            '{"kind":"handler","program":"A","on":{"widget":"go"},'
            '"actions":[{"handoff":"Ghost","after":2},{"complete":3}]}',
        ]
    )
    with pytest.raises((UnresolvedReference, KeyError)):
        loads_scenario(text)


def test_handler_without_complete_rejected():
    text = "\n".join(
        [
            MINIMAL,
            '{"kind":"handler","program":"A","on":{"widget":"go"},"actions":[{"handoff":"B","after":2}]}',
        ]
    )
    with pytest.raises(InvariantViolation):
        loads_scenario(text)


def test_zero_lag_emission_rejected():
    text = "\n".join(
        [
            MINIMAL,
            '{"kind":"handler","program":"A","on":{"widget":"go"},'
            '"actions":[{"handoff":"B","after":0},{"complete":3}]}',
        ]
    )
    with pytest.raises(InvariantViolation):
        loads_scenario(text)


def test_incompatible_attack_triple_rejected():
    text = MINIMAL + '\n{"kind":"attack","name":"x","program":"A","op":"snap","sensor":"Screen"}'
    with pytest.raises(UnresolvedReference):
        loads_scenario(text)


def test_dump_load_round_trip(task_b):
    text = task_b.dump()
    again = loads_scenario(text)
    assert again.dump() == text


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
    assert _dump_line(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
