from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import pytest

from delegauth.cli import main
from conftest import DATA, scenario_path


def test_run_task_a_exits_zero(capsys):
    assert main(["run", scenario_path("task_a")]) == 0
    out = capsys.readouterr().out
    assert "attack stealth_screen_grab: blocked" in out


def test_run_first_use_mode(capsys):
    assert main(["run", scenario_path("task_a"), "--mode", "first-use"]) == 0
    out = capsys.readouterr().out
    assert "attack stealth_screen_grab: SUCCEEDED" in out


def test_compare_exits_zero(capsys):
    assert main(["compare", scenario_path("task_b")]) == 0
    out = capsys.readouterr().out
    assert "=== first_use ===" in out and "=== delegation ===" in out


def test_missing_file_is_validation_error(capsys):
    assert main(["run", "/nonexistent/path.scn"]) == 2


@pytest.mark.parametrize("argv", [["run", "{dir}"], ["run", "{task_a}", "--policy", "{dir}"], ["replay", "{dir}"]],
                         ids=["scenario", "policy", "trace"])
def test_directory_in_place_of_a_file_is_validation_error(tmp_path, capsys, argv):
    argv = [arg.format(dir=tmp_path, task_a=scenario_path("task_a")) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_policy_file_not_utf8_is_validation_error(tmp_path, capsys):
    policy = tmp_path / "bad.policy"
    policy.write_bytes(b"allow * * * \xff\n")
    assert main(["run", scenario_path("task_a"), "--policy", str(policy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.policy: not UTF-8" in err


def test_second_event_with_one_id_is_validation_error(tmp_path, capsys):
    text = (DATA / "contention.scn").read_text()
    first = '{"kind":"event","t":0,"id":"i0","input":{"widget":"go","program":"A"}}\n'
    assert text.splitlines().index(first.strip()) + 1 == 20
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(first, first + '{"kind":"event","t":5,"id":"i0","input":{"widget":"go","program":"C"}}\n'))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 21: event record: a second event with id 'i0'; the first is on line 20" in err


def test_second_program_with_one_name_is_validation_error(tmp_path, capsys):
    text = open(scenario_path("task_a")).read()
    first = '{"kind":"program","name":"Notes","mark":"NO","display":"the Notes app"}\n'
    assert text.splitlines().index(first.strip()) + 1 == 3
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(first, first + '{"kind":"program","name":"Notes","mark":"EVIL"}\n'))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 4: a second program 'Notes' record; the first is on line 3" in err


def test_invalid_scenario_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text('{"format":"delegauth-scenario","version":1}\n{oops}\n')
    assert main(["run", str(bad)]) == 2


@pytest.mark.parametrize(
    "old, new",
    [
        ('"t":1000,', '"t":true,'),
        ('"after":3,', '"after":"5",'),
        ('"after":3,', '"after":null,'),
        ('"after":3,', '"after":2.5,'),
        ('{"complete":4}', '{"complete":true}'),
    ],
)
def test_non_integer_time_or_lag_is_validation_error(tmp_path, capsys, old, new):
    text = open(scenario_path("task_a")).read()
    assert old in text
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace(old, new, 1))
    assert main(["run", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


# records of task_a that the cases below change
CONFIG = '{"kind":"config","window_ms":150}'
MODE = '{"kind":"mode","mode":"delegation"}'
MAIN_POLICY = '{"kind":"policy","phase":"main","rules":["deny * * * *"]}'
MAIN_INPUT = '"widget":"create a note","program":"Smart Assistant"}'
NOTE_WIDGET = '"label":"create a note","input":"voice"'
NOTES = '{"kind":"program","name":"Notes","mark":"NO","display":"the Notes app"}'
NOTES_HANDLER = '{"kind":"handler","program":"Notes","on":{"handoff":"add_note"},"actions":[{"complete":4}]}'
SENSOR = '{"kind":"sensor","id":"Screen","phrase":"content on the screen"}'
OPERATION = ('{"kind":"operation","op":"capture_screen","sensors":["Screen"],"phrase":"capture",'
             '"first_use_phrase":"capture the content on the screen"}')


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param(',"program":"Smart Assistant"}}\n{"kind":"attack"', '}}\n{"kind":"attack"',
                     id="event-body-without-program"),
        pytest.param('"input":{"widget":"take a screenshot","program":"Smart Assistant"}',
                     '"input":"take a screenshot"', id="event-body-not-an-object"),
        pytest.param('"actions":[{"complete":4}]', '"actions":{"complete":4}', id="actions-not-a-list"),
        pytest.param('"request":["capture_screen","Screen"]', '"request":"capture_screen"', id="request-not-a-pair"),
        pytest.param('"program":"Screen Capture","op":"capture_screen",', '"program":"Screen Capture",',
                     id="attack-without-op"),
        pytest.param('"attack":{"stealth_screen_grab":true}', '"attack":["stealth_screen_grab"]',
                     id="expect-attack-not-an-object"),
        pytest.param('"main_prompts":1,', '"main_prompts":"1",', id="expect-count-a-string"),
        pytest.param('"main_prompts":1,', '"main_prompts":-1,', id="expect-count-negative"),
        pytest.param('"main_prompts":1,', '"main_prompts":true,', id="expect-count-a-bool"),
        pytest.param('"attack":{"stealth_screen_grab":false}', '"attack":{"stealth_screen_grab":0}',
                     id="expect-attack-not-a-bool"),
        pytest.param('"phase":"main","rules":["deny * * * *"]', '"phase":"main"', id="policy-without-rules"),
        pytest.param('"phase":"main","rules":', '"phase":"mian","rules":', id="policy-unknown-phase"),
        pytest.param('"rules":["deny * * * *"]', '"rules":"deny * * * *"', id="policy-rules-a-string"),
        pytest.param('"rules":["deny * * * *"]', '"rules":["deny * *"]', id="policy-rule-too-short"),
        pytest.param('"rules":["deny * * * *"]', '"rules":["deny \'* * * *"]', id="policy-rule-unclosed-quote"),
        pytest.param('"rules":["deny * * * *"]', '"rules":["deny Notes * * *"]', id="policy-without-default"),
        pytest.param(MODE, '{"kind":"mode"}', id="mode-without-mode"),
        pytest.param('"label":"create a note"', '"label":5', id="widget-label-an-int"),
        pytest.param('"id":"Screen"', '"id":["Screen"]', id="sensor-id-a-list"),
        pytest.param('"phase":"main","t":1000,', '"phase":"main","t":1000,"id":["i1"],', id="event-id-a-list"),
        pytest.param(MAIN_INPUT, MAIN_INPUT.replace('"Smart Assistant"', '["x"]'), id="event-program-a-list"),
        pytest.param('"name":"stealth_screen_grab"', '"name":["stealth_screen_grab"]', id="attack-name-a-list"),
        pytest.param('"on":{"widget":"take a screenshot"}', '"on":"x"', id="handler-on-a-string"),
        pytest.param(CONFIG, CONFIG + '\n{"kind":"config","cache_denials":true}', id="second-config"),
        pytest.param(MODE, MODE + '\n{"kind":"mode","mode":"first_use"}', id="second-mode"),
        pytest.param(MAIN_POLICY, MAIN_POLICY + '\n{"kind":"policy","rules":["allow * * * *"]}',
                     id="second-main-policy"),
        pytest.param(NOTE_WIDGET, NOTE_WIDGET + ',"aliases":"xy"', id="widget-aliases-a-string"),
        pytest.param(NOTE_WIDGET, NOTE_WIDGET.replace("voice", "smell"), id="widget-input-unknown"),
        pytest.param('"actions":[{"complete":4}]', '"actions":[{"bogus":1},{"complete":4}]', id="action-of-no-kind"),
        pytest.param('"actions":[{"complete":4}]', '"actions":[{"complete":4},{"complete":9}]', id="two-completes"),
        pytest.param('"name":"Notes","mark":"NO",', '"name":"Notes",', id="program-without-mark"),
        pytest.param('"name":"Notes",', '"name":"Notes","bogus":1,', id="unknown-key-in-program"),
        pytest.param('"sensors":["Screen"]', '"sensors":["Screen"],"bogus":1', id="unknown-key-in-operation"),
        pytest.param('"on":{"widget":"take a screenshot"}', '"on":{"widget":"take a screenshot","bogus":1}',
                     id="unknown-key-in-handler-on"),
        pytest.param('{"complete":5}', '{"complete":5,"after":5}', id="unknown-key-in-complete-action"),
        pytest.param('"window_ms":150}', '"window_ms":150,"bogus":1}', id="unknown-key-in-config"),
        pytest.param('"phase":"main","t":1000,', '"phase":"main","t":1000,"bogus":1,', id="unknown-key-in-event"),
        pytest.param(MAIN_INPUT, MAIN_INPUT[:-1] + ',"x":1}', id="unknown-key-in-event-body"),
        pytest.param('"sensor":"Screen"}', '"sensor":"Screen","bogus":1}', id="unknown-key-in-attack"),
        pytest.param('"mode":"delegation","preliminary_prompts"', '"mode":"delegation","x":1,"preliminary_prompts"',
                     id="unknown-key-in-expect"),
        pytest.param('"request":["capture_screen","Screen"]', '"request":["capture_screen","Camera"]',
                     id="handler-request-incompatible"),
        pytest.param('"actions":[{"complete":4}]', '"actions":[{"handoff":"Notes","after":1},{"complete":4}]',
                     id="handler-handoff-to-itself"),
        pytest.param(MAIN_INPUT + "}", MAIN_INPUT + '}\n{"kind":"event","phase":"main","t":1500,'
                     '"handoff":{"from":"Notes","to":"Notes"}}', id="event-handoff-to-itself"),
        pytest.param(NOTES, NOTES + "\n" + NOTES, id="second-program"),
        pytest.param('"label":"take a screenshot","input":"voice"',
                     '"label":"take a screenshot","input":"voice","aliases":["Create  a Note"]', id="alias-collision"),
        pytest.param('"name":"Notes","mark":"NO"', '"name":"","mark":"NO"', id="program-name-empty"),
        pytest.param(SENSOR, SENSOR + "\n" + SENSOR, id="second-sensor"),
        pytest.param(OPERATION, OPERATION + "\n" + OPERATION, id="second-operation"),
        pytest.param('"after":3,"label":"add_note"', '"after":0,"label":"add_note"', id="handler-zero-lag"),
        pytest.param('{"complete":5}', '{"complete":3}', id="handler-complete-before-an-action"),
        pytest.param(NOTES_HANDLER, NOTES_HANDLER + "\n" + NOTES_HANDLER, id="second-handler-for-a-trigger"),
        pytest.param('"attack":{"stealth_screen_grab":false}', '"attack":{"stealth_screen_grab":false,"nope":true}',
                     id="expect-unknown-attack"),
        pytest.param(MODE, '["kind","mode"]', id="record-a-json-array"),
    ],
)
def test_malformed_record_is_a_validation_error_naming_its_line(tmp_path, capsys, old, new):
    text = open(scenario_path("task_a")).read()
    assert text.count(old) == 1
    bad_text = text.replace(old, new)
    # the error names the line of the first changed character: for a repeated record, the repeat
    line = bad_text[: len(os.path.commonprefix([text, bad_text]))].count("\n") + 1
    bad = tmp_path / "bad.scn"
    bad.write_text(bad_text)
    assert main(["run", str(bad)]) == 2
    assert f"error: line {line}: " in capsys.readouterr().err


def test_run_takes_no_seed(capsys):
    # a run draws no random numbers; `gen` takes the seed of a workload
    with pytest.raises(SystemExit) as exc:
        main(["run", scenario_path("task_a"), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_empty_scenario_file_is_a_validation_error(tmp_path, capsys):
    empty = tmp_path / "empty.scn"
    empty.write_text("")
    assert main(["run", str(empty)]) == 2
    assert capsys.readouterr().err == "error: line 1: empty scenario file\n"


@pytest.mark.parametrize(
    "config",
    ['"window_ms":"5"', '"window_ms":true', '"default_lag_ms":2.5', '"queue_bound":null',
     '"two_level":"no"', '"two_level":1', '"cache_denials":"no"', '"scheduler":"no"',
     '"windw_ms":5', '"mode":"first_use"'],
)
def test_config_value_of_the_wrong_type_is_validation_error(tmp_path, capsys, config):
    text = open(scenario_path("task_a")).read()
    bad = tmp_path / "bad.scn"
    bad.write_text(text.replace('{"kind":"config","window_ms":150}', f'{{"kind":"config",{config}}}'))
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and config.split('"')[1] in err


def test_policy_override_can_flip_expectations(tmp_path, capsys):
    policy = tmp_path / "allow.policy"
    policy.write_text("allow * * * *\n")
    # allowing the attack path still prompts, so the attack stays blocked and
    # expectations hold
    assert main(["run", scenario_path("task_a"), "--policy", str(policy)]) == 0


def test_expectation_failure_exits_three(tmp_path, capsys):
    text = open(scenario_path("task_a")).read().replace(
        '"main_prompts":1', '"main_prompts":7'
    )
    scn = tmp_path / "broken_expect.scn"
    scn.write_text(text)
    assert main(["run", str(scn)]) == 3
    assert "EXPECTATION FAILED" in capsys.readouterr().out


def test_gen_writes_deterministic_file(tmp_path, capsys):
    out1 = tmp_path / "w1.scn"
    out2 = tmp_path / "w2.scn"
    assert main(["gen", str(out1), "--n", "100", "--seed", "4"]) == 0
    assert main(["gen", str(out2), "--n", "100", "--seed", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bench_out_writes_result_and_host_facts(tmp_path, capsys):
    out = tmp_path / "BENCH_memory.json"
    assert main(["bench", "memory", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["suite"] == "memory" and record["result"]["programs"] == 1000
    assert record["python"] == platform.python_version()
    assert record["cpu_count"] == os.cpu_count()
    assert record["git_sha"] == "unknown" or len(record["git_sha"]) == 40


def test_trace_and_replay(tmp_path, capsys):
    trace = tmp_path / "a.trace"
    assert main(["run", scenario_path("task_a"), "--trace", str(trace)]) == 0
    assert main(["replay", str(trace)]) == 0
    lines = trace.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["t"] = rec.get("t", 0) + 50
    lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(trace)]) == 4


@pytest.mark.parametrize(
    "cut, seq, message",
    [
        pytest.param(cut, seq, message, id=f"{cut}-{message}")
        for cut, seq, message in [
            ("at_a_line_end", 143, "truncated"),
            ("inside_a_line", 143, "truncated"),
            ("inside_the_header", 0, "truncated"),
            ("changed_byte", 143, "traces differ"),
        ]
    ],
)
def test_replay_reports_a_cut_trace_as_truncated(tmp_path, capsys, cut, seq, message):
    scn, trace = tmp_path / "w.scn", tmp_path / "w.trace"
    assert main(["gen", str(scn), "--n", "100"]) == 0  # 216 records
    assert main(["run", str(scn), "--trace", str(trace)]) == 0
    lines = trace.read_text().splitlines(keepends=True)
    head, record = "".join(lines[:143]), lines[143]  # the header, records 1-142, and record 143
    if cut == "at_a_line_end":
        trace.write_text(head)
    elif cut == "inside_a_line":
        trace.write_text(head + record[: len(record) // 2])
    elif cut == "inside_the_header":
        trace.write_text(lines[0][:200])
    else:  # record 143 complete, but one byte in it changed
        trace.write_text(head + record.replace('"seq":143', '"seq":134') + "".join(lines[144:]))
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 4
    err = capsys.readouterr().err
    assert f"seq {seq}" in err and message in err
    assert ("truncated" in err) == (message == "truncated")


def test_replay_of_a_trace_whose_line_endings_changed_diverges_at_its_header(tmp_path, capsys):
    trace, crlf = tmp_path / "a.trace", tmp_path / "crlf.trace"
    assert main(["run", scenario_path("task_a"), "--trace", str(trace)]) == 0
    crlf.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 0
    assert main(["replay", str(crlf)]) == 4
    err = capsys.readouterr().err
    assert "trace diverges at seq 0: recorded and re-executed traces differ" in err


@pytest.mark.parametrize("command, path", [("run", "{trace}"), ("replay", "{task_a}")],
                         ids=["run-a-trace", "replay-a-scenario"])
def test_a_trace_in_place_of_a_scenario_or_a_scenario_in_place_of_a_trace_is_validation_error(
        tmp_path, capsys, command, path):
    trace = tmp_path / "a.trace"
    assert main(["run", scenario_path("task_a"), "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main([command, path.format(trace=trace, task_a=scenario_path("task_a"))]) == 2
    kind = "scenario" if command == "run" else "trace"
    assert capsys.readouterr().err.startswith(f"error: line 1: {kind} header record: ")


def test_empty_trace_file_is_validation_error(tmp_path, capsys):
    trace = tmp_path / "empty.trace"
    trace.write_text("")
    assert main(["replay", str(trace)]) == 2
    assert "line 1: empty trace file" in capsys.readouterr().err


def test_unknown_mode_in_trace_header_is_validation_error(tmp_path, capsys):
    trace = tmp_path / "a.trace"
    assert main(["run", scenario_path("task_a"), "--mode", "entrust", "--trace", str(trace)]) == 0
    text = trace.read_text()
    assert '"mode":"entrust"' in text
    trace.write_text(text.replace('"mode":"entrust"', '"mode":"bogus"', 1))
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "line 1: trace header record: 'mode' must be one of" in err and "got 'bogus'" in err


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("scenario", None, id="scenario-missing"),
        ("scenario", 5),
        ("scenario_sha256", 5),
        ("window_override", "5"),
        ("window_override", True),
        ("seed", 2.5),
        pytest.param("policy_override", [5], id="policy_override-[5]"),
        ("format", "delegauth-scenario"),
        ("version", 1),  # a v1 trace
        ("version", 2),  # a v2 trace
    ],
)
def test_malformed_trace_header_is_validation_error(tmp_path, capsys, key, value):
    trace = tmp_path / "a.trace"
    assert main(["run", scenario_path("task_a"), "--trace", str(trace)]) == 0
    first, *records = trace.read_text().splitlines()
    header = json.loads(first)
    if key == "scenario" and value is None:
        del header[key]
    else:
        header[key] = value
    trace.write_text("\n".join([json.dumps(header, sort_keys=True, separators=(",", ":")), *records]) + "\n")
    assert main(["replay", str(trace)]) == 2
    assert "line 1: trace header" in capsys.readouterr().err


DIGITS = "9" * 5000  # more digits than `int` converts from a string
DEEP = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder recurses


@pytest.mark.parametrize(
    "command, bad",
    [
        pytest.param("run", '{"kind":"event","t":' + DIGITS + ',"input":{"widget":"x","program":"y"}}',
                     id="run-a-record-with-a-5000-digit-int"),
        pytest.param("run", DEEP, id="run-a-line-nested-100000-deep"),
        pytest.param("run", '{"kind":"program","name":"Deep","mark":' + DEEP + "}",
                     id="run-a-program-record-nested-100000-deep"),
        pytest.param("replay", DIGITS, id="replay-a-header-with-a-5000-digit-seed"),
    ],
)
def test_json_the_decoder_refuses_is_a_validation_error_naming_its_line(tmp_path, capsys, command, bad):
    if command == "run":
        lines = open(scenario_path("task_a")).read().split("\n")
        lines.insert(1, bad)
        path, line = tmp_path / "bad.scn", 2
    else:
        path, line = tmp_path / "a.trace", 1
        assert main(["run", scenario_path("task_a"), "--trace", str(path)]) == 0
        lines = path.read_text().split("\n")
        assert lines[0].count('"seed":null') == 1
        lines[0] = lines[0].replace('"seed":null', '"seed":' + bad)
    path.write_text("\n".join(lines))
    capsys.readouterr()
    assert main([command, str(path)]) == 2
    assert f"error: line {line}: invalid JSON (" in capsys.readouterr().err


# a record of task_a's, as its second line, holding a value `depth` arrays or objects deep
NESTED = {
    "config-in-nested-arrays": lambda depth: '{"kind":"config","window_ms":' + "[" * depth + "]" * depth + "}",
    "config-in-nested-objects":
        lambda depth: '{"kind":"config","window_ms":' + '{"a":' * depth + "1" + "}" * depth + "}",
    "expect-with-a-nested-attack":
        lambda depth: '{"kind":"expect","mode":"delegation","attack":' + '{"a":' * depth + "true" + "}" * depth + "}",
}


@pytest.mark.parametrize("record", NESTED)
def test_a_value_nested_near_the_decoders_limit_is_a_validation_error_naming_its_line(tmp_path, capsys, record):
    # Just under the decoder's depth limit a value decodes, and then its `repr`
    # in the error message recurses too deep. Where that band lies moves with
    # the caller's stack depth, so every depth around the limit is run.
    lines = open(scenario_path("task_a")).read().split("\n")
    path = tmp_path / "deep.scn"
    errors = []
    for depth in range(900, 1001):
        path.write_text("\n".join([lines[0], NESTED[record](depth), *lines[1:]]))
        assert main(["run", str(path)]) == 2, depth
        errors.append(capsys.readouterr().err)
    assert all(err.startswith("error: line 2: ") for err in errors)
    kind = record.split("-")[0]
    assert any(err.startswith(f"error: line 2: {kind} record: a value nested too deep") for err in errors)


@pytest.mark.parametrize("gaps", ["5", "a,b", "1,2,3"])
def test_gen_bad_gaps_is_validation_error(tmp_path, capsys, gaps):
    out = tmp_path / "w.scn"
    assert main(["gen", str(out), "--n", "10", "--gaps", gaps]) == 2
    assert "--gaps" in capsys.readouterr().err
    assert not out.exists()


def test_interactive_mode_reads_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("y\ny\n"))
    assert main(["run", scenario_path("task_a"), "--interactive", "--mode", "entrust"]) in (0, 3)
    out = capsys.readouterr().out
    assert "[y/n]" in out


def test_interactive_run_with_a_trace_is_refused(tmp_path, monkeypatch, capsys):
    # the trace would not record the answers typed, so replay could not re-run it
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("n\nn\n"))
    trace = tmp_path / "run.trace"
    assert main(["run", scenario_path("task_a"), "--interactive", "--trace", str(trace)]) == 2
    out, err = capsys.readouterr()
    assert "--interactive" in err and "--trace" in err
    assert out == "" and not trace.exists()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "delegauth.cli", "run", scenario_path("task_c")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "mitm_check_capture: blocked" in proc.stdout
