"""Prompt-text goldens for the three task fixtures, via render_prompt directly
and via full scenario runs."""

from __future__ import annotations

from delegauth import run_scenario
from delegauth.auth import prompt_marks, render_prompt
from delegauth.graph import PathKey
from delegauth.model import Registry, WidgetKind
from conftest import golden


def _task_b_registry() -> Registry:
    reg = Registry()
    reg.register_program("Google Assistant", "GA")
    reg.register_program("Basic Camera", "BC", display="the Basic Camera app")
    reg.register_widget("take a selfie", WidgetKind.VOICE, {"take a picture of me"})
    reg.register_sensor("Camera")
    reg.register_sensor("Microphone")
    reg.register_sensor("GpsReceiver", phrase="GPS receiver to record your location")
    reg.register_operation("capture_picture", ["Camera"], "capture pictures")
    reg.register_operation("record_audio", ["Microphone"], "record audio")
    reg.register_operation("read_location", ["GpsReceiver"], "access")
    return reg


def test_task_a_golden_by_construction():
    reg = Registry()
    sa = reg.register_program("Smart Assistant", "SA")
    sc = reg.register_program("Screen Capture", "SC", display="the Screen Capture service")
    w = reg.register_widget("create a note", WidgetKind.VOICE)
    reg.register_sensor("Screen", phrase="content on the screen")
    reg.register_operation("capture_screen", ["Screen"], "capture")
    key = PathKey(w.id, (sa.id, sc.id), "capture_screen", "Screen")
    assert render_prompt([key], reg) == golden("task_a_entrust.golden")
    assert prompt_marks([key], reg) == [["Smart Assistant", "SA"], ["Screen Capture", "SC"]]


def test_task_b_golden_by_construction():
    reg = _task_b_registry()
    ga = reg.program_by_name("Google Assistant")
    bc = reg.program_by_name("Basic Camera")
    w = reg.resolve_widget("take a selfie")
    chain = (ga.id, bc.id)
    keys = [
        PathKey(w.id, chain, "capture_picture", "Camera"),
        PathKey(w.id, chain, "record_audio", "Microphone"),
        PathKey(w.id, chain, "read_location", "GpsReceiver"),
    ]
    assert render_prompt(keys, reg) == golden("task_b_entrust.golden")


def test_task_c_golden_by_construction():
    reg = Registry()
    ga = reg.register_program("Google Assistant", "GA")
    bc = reg.register_program("Basic Camera", "BC", display="the Basic Camera app")
    mb = reg.register_program("Mobile Banking", "MB", display="the Mobile Banking app")
    w = reg.register_widget("deposit bank check", WidgetKind.VOICE)
    reg.register_sensor("Camera")
    reg.register_operation("capture_picture", ["Camera"], "capture pictures")
    keys = [
        PathKey(w.id, (ga.id, bc.id), "capture_picture", "Camera"),
        PathKey(w.id, (ga.id, bc.id, mb.id), "capture_picture", "Camera"),
    ]
    assert render_prompt(keys, reg) == golden("task_c_entrust.golden")


def test_a_chain_that_is_a_prefix_of_the_one_before_is_named_whole():
    reg = Registry()
    ga = reg.register_program("Google Assistant", "GA")
    bc = reg.register_program("Basic Camera", "BC", display="the Basic Camera app")
    mb = reg.register_program("Mobile Banking", "MB", display="the Mobile Banking app")
    w = reg.register_widget("deposit bank check", WidgetKind.VOICE)
    reg.register_sensor("Camera")
    reg.register_sensor("Microphone")
    reg.register_operation("capture_picture", ["Camera"], "capture pictures")
    reg.register_operation("record_audio", ["Microphone"], "record audio")
    keys = [
        PathKey(w.id, (ga.id, bc.id, mb.id), "capture_picture", "Camera"),
        PathKey(w.id, (ga.id, bc.id), "record_audio", "Microphone"),
    ]
    # the second chain diverges nowhere from the first, so it starts at its root
    assert render_prompt(keys, reg) == (
        'In response to your voice command "deposit bank check", allow Google Assistant'
        " to activate the Basic Camera app to activate the Mobile Banking app to capture pictures."
        " Also, allow Google Assistant to activate the Basic Camera app to record audio?"
    )


def test_chains_that_branch_after_their_receiver_are_each_named_from_it():
    reg = Registry()
    ga = reg.register_program("Google Assistant", "GA")
    bc = reg.register_program("Basic Camera", "BC", display="the Basic Camera app")
    sc = reg.register_program("Screen Capture", "SC", display="the Screen Capture service")
    mb = reg.register_program("Mobile Banking", "MB", display="the Mobile Banking app")
    w = reg.register_widget("deposit bank check", WidgetKind.VOICE)
    reg.register_sensor("Camera")
    reg.register_operation("capture_picture", ["Camera"], "capture pictures")
    keys = [
        PathKey(w.id, (ga.id, bc.id, mb.id), "capture_picture", "Camera"),
        PathKey(w.id, (ga.id, sc.id, mb.id), "capture_picture", "Camera"),
    ]
    # the chains part after their first program and meet again at the last: the second
    # is named from the program where they part, not from where they meet again
    assert render_prompt(keys, reg) == (
        'In response to your voice command "deposit bank check", allow Google Assistant'
        " to activate the Basic Camera app to activate the Mobile Banking app to capture pictures."
        " Also, allow Google Assistant to activate the Screen Capture service to activate"
        " the Mobile Banking app to capture pictures?"
    )


def test_goldens_via_full_scenario_runs(task_a, task_b, task_c):
    for scn, name in ((task_a, "task_a"), (task_b, "task_b"), (task_c, "task_c")):
        report, _ = run_scenario(scn, mode="entrust")
        main_prompts = [p for p in report.prompts if p["phase"] == "main"]
        assert len(main_prompts) == 1
        assert main_prompts[0]["text"] == golden(f"{name}_entrust.golden")


def test_first_use_texts_match_table(task_b, task_c):
    report_b, _ = run_scenario(task_b, mode="first-use")
    texts_b = [p["text"] for p in report_b.prompts]
    assert texts_b == [
        "Allow Basic Camera to capture pictures?",
        "Allow Basic Camera to record audio?",
        "Allow Basic Camera to access this device's location?",
    ]
    report_c, _ = run_scenario(task_c, mode="first-use")
    texts_c = [p["text"] for p in report_c.prompts]
    assert texts_c == [
        "Allow Basic Camera to capture pictures?",
        "Allow Mobile Banking to capture pictures?",
    ]


def test_marks_show_each_program_though_two_share_a_name():
    reg = Registry()
    sa = reg.register_program("Smart Assistant", "SA")
    notes = reg.register_program("Notes", "NO")
    impostor = reg.register_program("Notes", "EVIL")
    w = reg.register_widget("create a note", WidgetKind.VOICE)
    reg.register_sensor("Screen", phrase="content on the screen")
    reg.register_operation("capture_screen", ["Screen"], "capture")
    keys = [
        PathKey(w.id, (sa.id, notes.id), "capture_screen", "Screen"),
        PathKey(w.id, (sa.id, impostor.id), "capture_screen", "Screen"),
        PathKey(w.id, (sa.id, notes.id, impostor.id), "capture_screen", "Screen"),
    ]
    # one pair per program, in order of first appearance: the impostor's mark is not hidden
    assert prompt_marks(keys, reg) == [["Smart Assistant", "SA"], ["Notes", "NO"], ["Notes", "EVIL"]]
