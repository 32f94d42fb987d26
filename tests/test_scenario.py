from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegauth import WorkloadParams, generate_workload, run_with_trace
from delegauth import scenario
from delegauth.errors import InvariantViolation, ParseError, UnresolvedReference
from delegauth.scenario import _TEMPLATES, _dump_line, _encode_record, load_scenario, loads_scenario
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


def test_non_utf8_file_is_a_parse_error(tmp_path):
    bad = tmp_path / "latin1.scn"
    bad.write_bytes(MINIMAL.replace('"name":"B"', '"name":"B\xe9"').encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_scenario(bad)


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
    with pytest.raises(InvariantViolation, match="integer"):
        loads_scenario(MINIMAL + "\n" + json.dumps(handler))


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


# -- trace record templates ------------------------------------------------------


def dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**100), 2**100) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=8,
)
NESTED = {  # the key sets a nested dict is templated for
    "event": [frozenset(("id", "program", "t", "widget")),
              frozenset(("action", "dst", "id", "provenance", "src", "t")),
              frozenset(("id", "op", "program", "sensor", "t"))],
    "path_key": [frozenset(("op", "programs", "sensor", "widget"))],
}


@st.composite
def record_with(draw, keys):
    """A dict with the given keys in any order; a nested `event` or `path_key`
    gets one of its templated key sets, maybe with a key added or dropped."""
    record = {}
    for key in draw(st.permutations(sorted(keys))):
        if key in NESTED and draw(st.booleans()):
            record[key] = draw(record_with(draw(st.sampled_from(NESTED[key]))))
        else:
            record[key] = draw(ANY_VALUE)
    change = draw(st.sampled_from(["none", "add", "drop"]))
    if change == "add":
        record[draw(st.text().filter(lambda k: k not in keys))] = draw(ANY_VALUE)
    elif change == "drop" and record:
        del record[draw(st.sampled_from(sorted(record)))]
    return record


@pytest.mark.parametrize("keys", sorted(_TEMPLATES, key=sorted), ids=lambda k: ",".join(sorted(k)))
@settings(max_examples=50)  # 600 records over the 12 key sets
@given(data=st.data())
def test_template_lines_equal_json_dumps(keys, data):
    record = data.draw(record_with(keys))
    assert _encode_record(record) == dumps(record)
    if frozenset(record) in _TEMPLATES:
        assert _TEMPLATES[frozenset(record)](record) == dumps(record)


def test_templates_serve_every_record_but_prompts(tmp_path, monkeypatch):
    fallback = []

    def counting_dump_line(obj):
        fallback.append(obj)
        return _dump_line(obj)

    scn = generate_workload(WorkloadParams(n_inputs=2000))
    monkeypatch.setattr(scenario, "_dump_line", counting_dump_line)
    path = tmp_path / "w.trace"
    run_with_trace(scn, path)
    header, *records = fallback
    assert header["format"] == "delegauth-trace"
    assert records and {r["kind"] for r in records} == {"prompt"}
    assert len(path.read_text().splitlines()) > 100 * len(records)
