from __future__ import annotations

from dataclasses import replace

import pytest

from delegauth import load_scenario, loads_scenario, runner
from delegauth.auth import ScriptedPolicy
from delegauth.engine import Engine, EngineConfig, Mode
from delegauth.errors import Backpressure, InvariantViolation, ProtocolViolation
from delegauth.graph import InputKey, PathKey
from delegauth.model import HandoffEvent, InputEvent, OperationRequest, Registry, WidgetKind
from delegauth.scheduler import Complete, EmitHandoff, EmitRequest, HandlerSpec, HandlerTable, ProgramState
from delegauth.trace import records
from delegauth.workload import WorkloadParams, generate_workload
from conftest import DATA, scenario_path
from fuzzgen import fuzz_scenario
from oracle import log_from_trace

WINDOW = 150


def build_engine(handlers=None, two_level=True, mode=Mode.DELEGATION, cache_denials=False, trace=None, scheduler=True):
    reg = Registry()
    a = reg.register_program("Alpha", "AL")
    b = reg.register_program("Beta", "BE")
    c = reg.register_program("Gamma", "GA")
    reg.register_widget("first cmd", WidgetKind.VOICE)
    reg.register_widget("second cmd", WidgetKind.VOICE)
    reg.register_sensor("Camera")
    reg.register_operation("capture_picture", ["Camera"], "capture pictures")
    config = EngineConfig(window_ms=WINDOW, two_level=two_level, mode=mode, cache_denials=cache_denials,
                          scheduler=scheduler)
    allow = ScriptedPolicy.allow_all()
    engine = Engine(
        reg,
        handlers=HandlerTable(handlers or []),
        config=config,
        authorizers={"preliminary": allow, "main": allow},
        trace=trace,
    )
    return engine, (a.id, b.id, c.id), reg


def wid(engine, label):
    return engine.registry.resolve_widget(label).id


@pytest.mark.parametrize(
    "setting",
    [{"window_ms": True}, {"window_ms": 150.0}, {"default_lag_ms": None}, {"queue_bound": "8"},
     {"two_level": 1}, {"cache_denials": "no"}, {"scheduler": 0}, {"mode": "delegation"}],
    ids=repr,
)
def test_engine_config_rejects_a_setting_of_the_wrong_type(setting):
    with pytest.raises(InvariantViolation, match=f"^{next(iter(setting))} must be "):
        EngineConfig(**setting)


@pytest.mark.parametrize("setting", [{"window_ms": 0}, {"default_lag_ms": -1}, {"queue_bound": 0}], ids=repr)
def test_engine_config_rejects_a_setting_out_of_range(setting):
    with pytest.raises(InvariantViolation, match=f"^{next(iter(setting))} must be "):
        EngineConfig(**setting)


def test_input_to_idle_program_delivers_with_zero_delay():
    engine, (a, _, _), _ = build_engine()
    ticket = engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    assert ticket.status == "delivered"
    assert ticket.delay == 0


def _count_enqueues(monkeypatch) -> list:
    """Make every `ProgramState.enqueue` call append its ticket's event id to the list returned."""
    queued, enqueue = [], ProgramState.enqueue

    def counted(state, ticket, *args):
        queued.append(ticket.event.event_id)
        return enqueue(state, ticket, *args)

    monkeypatch.setattr(ProgramState, "enqueue", counted)
    return queued


def test_a_ticket_settled_at_admission_is_never_queued(monkeypatch):
    queued = _count_enqueues(monkeypatch)
    handlers = [HandlerSpec(program_id="P2", trigger_kind="handoff", trigger_value="*", complete=Complete(after_ms=20))]
    engine, (a, b, c), _ = build_engine(handlers=handlers)
    idle = engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    busy_work = engine.submit(HandoffEvent("n1", c, b, 1))
    # Beta belongs to no root, so only its busy handler run holds the input
    held = engine.submit(InputEvent("x2", wid(engine, "second cmd"), b, 2))
    assert (idle.status, busy_work.status, held.status) == ("delivered", "delivered", "queued")
    assert queued == ["x2"]
    engine.run_to_quiescence()
    assert held.deliver_t == 21


def test_settling_enqueues_only_what_a_run_holds(monkeypatch):
    queued = _count_enqueues(monkeypatch)
    lines = []
    _report, engine = runner.run_scenario(generate_workload(WorkloadParams(n_inputs=1500)), trace=lines.append)
    holds = sum('"kind":"hold"' in line for line in lines)
    assert holds > 0 and len(queued) == holds
    assert engine._waiting == set() and engine._root_tickets == {}


def test_a_settled_ticket_takes_the_sequence_number_of_its_deadline():
    # as a held ticket does, so no entry is numbered by whether a ticket was held
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
            complete=Complete(after_ms=3),
        )
    ]
    engine, (a, _, _), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    # 1 went to the deadline; then the root's expiry, the request and the completion
    assert sorted(seq for _t, seq, _fire, _arg in engine._heap) == [2, 3, 4]


def test_with_one_level_a_ticket_for_an_idle_program_waits_behind_a_blocked_one():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitHandoff(to="P3", after_ms=2),), complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, b, c), _ = build_engine(handlers=handlers, two_level=False)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.advance(10)  # Gamma joined x1 at t=2 and is idle again
    blocked = engine.submit(InputEvent("x2", wid(engine, "second cmd"), c, 10))
    plain = engine.submit(HandoffEvent("n1", b, c, 20))
    assert (blocked.status, plain.status) == ("queued", "queued")
    engine.run_to_quiescence()
    assert blocked.deliver_t == WINDOW + 1 and plain.deliver_t > blocked.deliver_t


def test_second_distinct_input_held_and_delay_recorded():
    engine, (a, _, _), _ = build_engine()
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    t2 = engine.submit(InputEvent("x2", wid(engine, "second cmd"), a, 140))
    assert t2.status == "queued"
    engine.advance(WINDOW + 1)  # first root dies, held input becomes deliverable
    assert t2.status == "delivered"
    assert 0 < t2.delay <= WINDOW
    stats = engine.stats
    assert stats.delayed_events == 1
    assert stats.max_delay_ms == t2.delay


def test_held_input_past_window_expires_never_late():
    engine, (a, _, _), _ = build_engine(
        handlers=[
            HandlerSpec(
                program_id="P1", trigger_kind="widget",
                trigger_value="first cmd", complete=Complete(after_ms=200),
            )
        ]
    )
    # handler completes after the window: occupancy still ends at window backstop,
    # but an input held longer than its own window expires
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    t2 = engine.submit(InputEvent("x2", wid(engine, "second cmd"), a, 0))
    engine.run_to_quiescence()
    assert t2.status == "expired"
    stats = engine.stats
    assert stats.per_kind["input"].expired == 1
    assert stats.max_delay_ms <= WINDOW


def test_repeat_input_classification():
    engine, (a, _, _), _ = build_engine(
        handlers=[
            HandlerSpec(
                program_id="P1", trigger_kind="widget",
                trigger_value="first cmd", complete=Complete(after_ms=100),
            )
        ]
    )
    fresh = engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    assert fresh.status == "delivered" and fresh.delay == 0
    # Alpha is busy with x1: only an input with x1's key gets through
    repeat = engine.submit(InputEvent("x2", wid(engine, "first cmd"), a, 10))
    assert repeat.status == "delivered" and repeat.delay == 0
    assert [i.event_id for i in engine.store.live["x1"].events] == ["x2"]
    held = engine.submit(InputEvent("x3", wid(engine, "second cmd"), a, 10))
    assert held.status == "queued"


def test_an_input_to_an_idle_member_on_the_roots_widget_is_no_repeat():
    # Beta joins x1 through Alpha's handoff and is idle by t=10. An input on
    # x1's widget to Beta has x1's widget but not its receiver: it waits for
    # x1 to seal, then roots a graph of its own.
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitHandoff(to="P2", after_ms=2),), complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, b, _), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    ticket = engine.submit(InputEvent("x2", wid(engine, "first cmd"), b, 10))
    assert b in engine.store.live["x1"].members and b not in engine._busy_exec
    assert ticket.status == "queued" and ticket.root_id is None
    engine.advance(WINDOW + 1)
    assert ticket.status == "delivered" and ticket.deliver_t == WINDOW + 1
    assert ticket.root_id == "x2" and engine.store.live["x2"].root.program_id == b


def test_five_repeats_zero_holds():
    engine, (a, _, _), _ = build_engine(
        handlers=[
            HandlerSpec(
                program_id="P1", trigger_kind="widget",
                trigger_value="first cmd", complete=Complete(after_ms=100),
            )
        ]
    )
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    tickets = [
        engine.submit(InputEvent(f"x{i}", wid(engine, "first cmd"), a, i * 10)) for i in range(2, 7)
    ]
    assert all(t.status == "delivered" and t.delay == 0 for t in tickets)
    assert engine.stats.delayed_events == 0
    # all five repeats joined the original root
    g = engine.store.live["x1"]
    assert [i.event_id for i in g.events] == ["x2", "x3", "x4", "x5", "x6"]


def test_two_level_priority_high_before_low():
    handlers = [
        HandlerSpec(program_id="P2", trigger_kind="handoff", trigger_value="*",
                    complete=Complete(after_ms=20)),
    ]
    engine, (a, b, c), _ = build_engine(handlers=handlers)
    # occupy Beta with a non-derived handoff
    engine.submit(HandoffEvent("n1", a, b, 0))
    # queue: one more non-derived (low), then a fresh input (high)
    low = engine.submit(HandoffEvent("n2", c, b, 1))
    high = engine.submit(InputEvent("x1", wid(engine, "first cmd"), b, 2))
    assert low.status == "queued" and high.status == "queued"
    engine.run_to_quiescence()
    assert high.deliver_t < low.deliver_t


def test_single_level_fifo_when_two_level_disabled():
    handlers = [
        HandlerSpec(program_id="P2", trigger_kind="handoff", trigger_value="*",
                    complete=Complete(after_ms=20)),
    ]
    engine, (a, b, c), _ = build_engine(handlers=handlers, two_level=False)
    engine.submit(HandoffEvent("n1", a, b, 0))
    low = engine.submit(HandoffEvent("n2", c, b, 1))
    high = engine.submit(InputEvent("x1", wid(engine, "first cmd"), b, 2))
    engine.run_to_quiescence()
    assert low.deliver_t < high.deliver_t  # strict arrival order


@pytest.mark.parametrize("two_level", [True, False])
def test_hold_line_names_the_queue_the_ticket_joined(two_level):
    handlers = [
        HandlerSpec(program_id="P2", trigger_kind="handoff", trigger_value="*",
                    complete=Complete(after_ms=20)),
    ]
    lines = []
    engine, (a, b, c), _ = build_engine(handlers=handlers, two_level=two_level, trace=lines.append)
    engine.submit(HandoffEvent("n1", a, b, 0))
    engine.submit(HandoffEvent("n2", c, b, 1))
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), b, 2))
    # an input is derived, so high priority; with one level it still waits in the one FIFO
    holds = {r["event_id"]: r["queue"] for r in records(lines) if r["kind"] == "hold"}
    assert holds == {"n2": "low", "x1": "high" if two_level else "low"}


def test_advance_on_empty_system_returns_nothing():
    records = []
    engine, _, _ = build_engine(trace=records.append)
    assert engine.advance(1000) is None
    assert engine.now == 1000
    assert engine.decisions == [] and records == []
    assert engine.stats.total_events == 0


def test_task_a_style_delivery_order():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitHandoff(to="P2", after_ms=5, label="hop"),), complete=Complete(after_ms=6),
        ),
        HandlerSpec(
            program_id="P2", trigger_kind="handoff", trigger_value="hop",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=4),),
            complete=Complete(after_ms=5),
        ),
    ]
    lines = []
    engine, (a, _, _), _ = build_engine(handlers=handlers, trace=lines.append)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.run_to_quiescence()
    kinds_and_times = [(e[0], e[4] if e[0] != "request" else e[5]) for e in log_from_trace(lines)]
    assert kinds_and_times == [("input", 0), ("handoff", 5), ("request", 9)]
    assert len(engine.decisions) == 1
    d = engine.decisions[0]
    assert d.outcome == "allowed" and d.reason == "prompted"
    assert d.path_key.programs == ("P1", "P2")


def test_backpressure_on_queue_overflow():
    engine, (a, b, _), _ = build_engine(
        handlers=[
            HandlerSpec(program_id="P2", trigger_kind="handoff", trigger_value="*",
                        complete=Complete(after_ms=5000)),
        ]
    )
    engine.config.queue_bound = 3
    engine.submit(HandoffEvent("n0", a, b, 0))  # busy
    for i in range(3):
        engine.submit(HandoffEvent(f"n{i + 1}", a, b, 1))
    with pytest.raises(Backpressure):
        engine.submit(HandoffEvent("n9", a, b, 2))
    assert engine.backpressure_rejections == 1


def test_a_handoff_a_handler_emits_past_the_queue_bound_is_dropped_and_the_run_goes_on():
    lines = []
    engine, (a, b, _), _ = build_engine(
        handlers=[
            HandlerSpec(program_id="P1", trigger_kind="widget", trigger_value="first cmd",
                        actions=tuple(EmitHandoff(to="P2", after_ms=i) for i in (1, 2, 3)),
                        complete=Complete(after_ms=4)),
            HandlerSpec(program_id="P2", trigger_kind="handoff", trigger_value="*", complete=Complete(after_ms=50)),
        ],
        trace=lines.append,
    )
    engine.config.queue_bound = 1
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.run_to_quiescence()
    # e1 is delivered and keeps Beta busy, e2 waits in its queue, and e3 finds the queue full
    assert engine.backpressure_rejections == 1
    refused = [r for r in records(lines) if r.get("reason") == "backpressure"]
    assert [(r["kind"], r["event_id"], r["t"]) for r in refused] == [("expire", "e3", 3)]
    assert engine.stats.per_kind["handoff"].delivered == 2


def test_unattributed_request_denied_without_prompt():
    engine, (_, _, c), _ = build_engine()
    engine.submit(OperationRequest("r1", c, "capture_picture", "Camera", 5))
    engine.run_to_quiescence()
    assert engine.prompt_count() == 0
    d = engine.decisions[0]
    assert d.outcome == "denied" and d.reason == "no_attribution"


def test_request_after_root_expiry_denied_as_expired():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            complete=Complete(after_ms=2),
        ),
    ]
    engine, (a, _, _), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.advance(WINDOW + 1)
    engine.submit(OperationRequest("r1", a, "capture_picture", "Camera", WINDOW + 10))
    engine.run_to_quiescence()
    denied = [d for d in engine.decisions if d.outcome == "denied"]
    assert denied and denied[0].reason == "expired"


def test_scheduler_off_allows_ambiguity_defense_in_depth():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitHandoff(to="P3", after_ms=2, label="hop-a"),), complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P2", trigger_kind="widget", trigger_value="second cmd",
            actions=(EmitHandoff(to="P3", after_ms=2, label="hop-b"),), complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P3", trigger_kind="handoff", trigger_value="*",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=3),),
            complete=Complete(after_ms=4),
        ),
    ]
    engine, (a, b, _), _ = build_engine(handlers=handlers, scheduler=False)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.submit(InputEvent("x2", wid(engine, "second cmd"), b, 1))
    engine.run_to_quiescence()
    assert engine.ambiguous_requests >= 1
    ambiguous = [d for d in engine.decisions if d.detail == "ambiguous"]
    assert ambiguous and all(d.outcome == "denied" for d in ambiguous)


def test_scheduler_on_same_workload_is_unambiguous():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitHandoff(to="P3", after_ms=2, label="hop-a"),), complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P2", trigger_kind="widget", trigger_value="second cmd",
            actions=(EmitHandoff(to="P3", after_ms=2, label="hop-b"),), complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P3", trigger_kind="handoff", trigger_value="*",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=3),),
            complete=Complete(after_ms=4),
        ),
    ]
    engine, (a, b, _), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.submit(InputEvent("x2", wid(engine, "second cmd"), b, 1))
    engine.run_to_quiescence()
    assert engine.ambiguous_requests == 0
    assert all(d.outcome == "allowed" for d in engine.decisions)


def test_stale_provenance_handoff_downgraded_to_busy_work():
    lines = []
    engine, (a, b, _), _ = build_engine(trace=lines.append)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.advance(WINDOW + 1)
    ticket = engine.submit(HandoffEvent("h1", a, b, WINDOW + 5, provenance="x1"))
    assert ticket.derived is False
    engine.run_to_quiescence()
    h1 = [
        (r["kind"], r["t"], r.get("root"), r.get("delivered"), r.get("derived"), r.get("outcome"))
        for r in records(lines) if r.get("event_id", r.get("event", {}).get("id")) == "h1"
    ]
    assert h1 == [
        ("handoff", WINDOW + 5, "x1", None, None, "unattributable"),  # downgraded at admission
        # plain busy work, delivered as it is admitted and attached to no graph;
        # its handler run ends on its own, with no line
        ("admit", WINDOW + 5, None, True, False, "unattributable"),
    ]
    assert [e for e in log_from_trace(lines) if e[0] == "handoff"] == []


def test_cache_hit_is_silent_second_time_around():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
            complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, _, _), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.advance(WINDOW + 1)
    assert engine.prompt_count() == 1
    engine.submit(InputEvent("x2", wid(engine, "first cmd"), a, 2 * WINDOW + 10))
    engine.run_to_quiescence()
    assert engine.prompt_count() == 1  # no new prompt
    assert engine.decisions[-1].reason == "cached"


def test_a_denied_prompt_without_cache_denials_leaves_the_cache_empty():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
            complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, _, _), _ = build_engine(handlers=handlers)
    engine.authorizers["main"] = ScriptedPolicy(["deny * * * *"])
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.run_to_quiescence()
    assert engine.prompt_count() == 1
    assert [(d.outcome, d.reason) for d in engine.decisions] == [("denied", "prompted")]
    assert engine.cache.entries == {}
    assert engine.cache.footprint()["total"] == 0


def test_path_variant_supersedes_and_reprompts():
    # same (requester, op, sensor) under one input key via a different chain;
    # routing is driven by raw timeline handoffs so the chain can change
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P2", trigger_kind="handoff", trigger_value="hop",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
            complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P3", trigger_kind="handoff", trigger_value="detour",
            actions=(EmitHandoff(to="P2", after_ms=2, label="hop"),), complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, b, c), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.submit(HandoffEvent("h1", a, b, 2, provenance="x1", action="hop"))
    engine.advance(WINDOW + 1)
    direct_key = engine.decisions[-1].path_key
    assert direct_key.programs == ("P1", "P2")
    assert engine.cache.lookup(direct_key) == "allow"

    # replay the same input, but route through Gamma this time
    engine.submit(InputEvent("x2", wid(engine, "first cmd"), a, 400))
    engine.submit(HandoffEvent("h2", a, c, 402, provenance="x2", action="detour"))
    engine.run_to_quiescence()
    assert engine.cache.lookup(direct_key) is None  # superseded before the prompt
    long_key = engine.decisions[-1].path_key
    assert long_key.programs == ("P1", "P3", "P2")
    assert engine.cache.lookup(long_key) == "allow"
    assert engine.prompt_count() == 2


def test_first_use_mode_grants_and_stays_silent():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
            complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, _, _), _ = build_engine(handlers=handlers, mode=Mode.FIRST_USE)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.run_to_quiescence()
    assert engine.prompt_count() == 1
    grant = PathKey("*", (a,), "capture_picture", "Camera")
    assert engine.cache.lookup(grant) == "allow"
    engine.submit(OperationRequest("r9", a, "capture_picture", "Camera", 5000))
    engine.run_to_quiescence()
    assert engine.prompt_count() == 1
    assert engine.decisions[-1].silent_allow
    # revoke, then the next request prompts again
    del engine.cache.entries[grant.input_key].decisions[grant]
    engine.submit(OperationRequest("r10", a, "capture_picture", "Camera", 6000))
    engine.run_to_quiescence()
    assert engine.prompt_count() == 2


def test_first_use_allows_regardless_of_provenance():
    engine, (a, _, _), _ = build_engine(mode=Mode.FIRST_USE)
    engine.submit(OperationRequest("r1", a, "capture_picture", "Camera", 0))
    engine.run_to_quiescence()
    assert engine.decisions[0].outcome == "allowed"  # no attribution needed


def test_determinism_identical_transcripts():
    def run():
        records = []
        handlers = [
            HandlerSpec(
                program_id="P1", trigger_kind="widget", trigger_value="first cmd",
                actions=(EmitHandoff(to="P2", after_ms=3, label="hop"),), complete=Complete(after_ms=4),
            ),
            HandlerSpec(
                program_id="P2", trigger_kind="handoff", trigger_value="hop",
                actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
                complete=Complete(after_ms=3),
            ),
        ]
        engine, (a, b, _), _ = build_engine(handlers=handlers)
        engine._trace = records.append
        for i in range(20):
            engine.schedule(i * 40, {"kind": "input", "widget": "first cmd", "program": a, "phase": "main"})
            engine.schedule(i * 40 + 7, {"kind": "handoff", "src": a, "dst": b, "phase": "main"})
        engine.run_to_quiescence()
        return records

    assert run() == run()


def test_root_expiry_dispatches_programs_waiting_outside_the_root():
    # P3 holds a derived handoff from root x1 behind its own root x2, and a
    # plain handoff behind that. x1's expiry drops the held handoff and must
    # dispatch P3 then, although P3 never joined x1.
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitHandoff(to="P3", after_ms=2),), complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P3", trigger_kind="widget", trigger_value="second cmd",
            complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, b, c), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.submit(InputEvent("x2", wid(engine, "second cmd"), c, 1))
    plain = engine.submit(HandoffEvent("n1", b, c, 3))
    engine.advance(WINDOW)
    assert plain.status == "queued"
    assert c not in engine.store.live["x1"].members
    engine.run_to_quiescence()
    assert plain.deliver_t == WINDOW + 1  # x1's expiry, not x2's at WINDOW + 2


def test_only_prompted_roots_keep_a_snapshot_and_the_cache_gets_it():
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
            complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="second cmd",
            actions=(EmitHandoff(to="P2", after_ms=2),), complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P2", trigger_kind="handoff", trigger_value="*",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),),
            complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, _, _), _ = build_engine(handlers=handlers)
    live_blobs = {}  # root -> its graph serialised just before it seals
    expire_graph = engine.store.expire_graph

    def capture(root_id, now, *args, **kwargs):
        live_blobs[root_id] = engine.store.serialize_graph(root_id)
        return expire_graph(root_id, now, *args, **kwargs)

    engine.store.expire_graph = capture
    labels = ["first cmd", "second cmd", "first cmd", "second cmd", "first cmd"]
    for i, label in enumerate(labels):
        engine.submit(InputEvent(f"x{i}", wid(engine, label), a, i * 400))
    engine.run_to_quiescence()

    assert len(live_blobs) == len(labels)
    assert [p["root"] for p in engine.prompts] == ["x0", "x1"]
    assert engine.store.sealed.keys() == {"x0", "x1"}
    for root, label in (("x0", "first cmd"), ("x1", "second cmd")):
        entry = engine.cache.entries[InputKey(wid(engine, label), a)]
        assert entry.graph_blob == live_blobs[root] == engine.store.sealed[root]


def test_submit_in_the_past_is_a_protocol_violation():
    engine, (a, _, _), _ = build_engine()
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 10))
    with pytest.raises(ProtocolViolation, match="in the past"):
        engine.submit(InputEvent("x2", wid(engine, "second cmd"), a, 9))


def test_advance_backwards_is_a_protocol_violation():
    engine, _, _ = build_engine()
    engine.advance(10)
    with pytest.raises(ProtocolViolation, match="backwards"):
        engine.advance(9)


def test_schedule_out_of_time_order_is_a_protocol_violation():
    lines = []
    engine, (a, _, _), _ = build_engine(trace=lines.append)
    spec = {"kind": "input", "widget": "first cmd", "program": a}
    engine.schedule(10, spec)
    with pytest.raises(ProtocolViolation, match="t=9"):
        engine.schedule(9, spec)  # earlier than the entry before it
    engine.advance(20)
    with pytest.raises(ProtocolViolation, match="t=15"):
        engine.schedule(15, spec)  # earlier than the clock
    engine.run_to_quiescence()
    assert [r["t"] for r in records(lines) if r["kind"] == "admit"] == [10]


# what the registry rejects, as an event at t=300 and as its timeline spec: an
# input or a handoff to an unknown program, and a request pairing an op with a
# sensor it cannot use
_REJECTED = {
    "input": (InputEvent("bad", "first cmd", "P9", 300), {"widget": "first cmd", "program": "P9"},
              "unknown program 'P9'"),
    "handoff": (HandoffEvent("bad", "P1", "P9", 300), {"src": "P1", "dst": "P9"}, "unknown program 'P9'"),
    "request": (OperationRequest("bad", "P1", "capture_picture", "Microphone", 300),
                {"program": "P1", "op": "capture_picture", "sensor": "Microphone"}, "incompatible op/sensor"),
}


@pytest.mark.parametrize("kind", _REJECTED)
def test_submit_of_an_event_the_registry_rejects_leaves_the_engine_as_it_was(kind):
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=2),), complete=Complete(after_ms=3),
        ),
    ]
    engine, (a, _, _), _ = build_engine(handlers=handlers)
    engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
    engine.advance(5)  # x1's request waits for its root's prompt, at t=151
    event, _spec, message = _REJECTED[kind]
    with pytest.raises(InvariantViolation, match=message):
        engine.submit(event)
    assert engine.now == 5
    assert engine.store.live.keys() == {"x1"} and engine.decisions == [] and engine.prompts == []
    assert engine.stats.total_events == 2


@pytest.mark.parametrize("kind", _REJECTED)
def test_a_scheduled_entry_the_registry_rejects_raises_when_it_is_admitted(kind):
    engine, _, _ = build_engine()
    _event, spec, message = _REJECTED[kind]
    engine.schedule(300, {"kind": kind, **spec})
    engine.advance(299)
    with pytest.raises(InvariantViolation, match=message):
        engine.advance(300)
    assert engine.stats.total_events == 0


@pytest.mark.parametrize(
    "action, message",
    [(EmitHandoff(to="P9", after_ms=2), "names unknown program 'P9'"),
     (EmitHandoff(to="P1", after_ms=2), "has src == dst"),
     (EmitRequest(op="capture_picture", sensor="Microphone", after_ms=2), "pairs incompatible op/sensor")],
    ids=["handoff_to_unknown_program", "handoff_to_itself", "incompatible_request"],
)
def test_an_engine_is_not_built_with_a_handler_whose_action_the_registry_rejects(action, message):
    handlers = [HandlerSpec(program_id="P1", trigger_kind="widget", trigger_value="first cmd",
                            actions=(action,), complete=Complete(after_ms=3))]
    with pytest.raises(InvariantViolation, match=f"from P1's handlers {message}"):
        build_engine(handlers=handlers)


def test_a_run_checks_each_timeline_entry_once_and_each_event_handlers_emit_at_construction(monkeypatch):
    scn = generate_workload(WorkloadParams(n_inputs=300))
    checked = []
    check = Registry.validate_event
    monkeypatch.setattr(Registry, "validate_event", lambda registry, ev: checked.append(ev) or check(registry, ev))
    engine, name_to_id = runner.build_engine(scn)
    built = len(checked)  # one check per distinct event the handlers can emit, fewer than their actions
    assert 0 < len(set(checked)) == built < sum(len(spec.actions) for spec in engine.handlers)
    runner._schedule_timeline(engine, scn, name_to_id)
    engine.run_to_quiescence()
    assert len(checked) == built + len(scn.timeline)
    assert engine.stats.total_events > len(scn.timeline)  # handlers emitted events, and none was checked again


def test_timeline_entry_and_handler_action_due_together_run_in_sequence_order():
    # Alpha's handler emits a request at t=5, and a request from Beta is
    # scheduled for t=5 as well: whichever was queued first runs first,
    # whether the timeline FIFO or the heap holds it
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitRequest(op="capture_picture", sensor="Camera", after_ms=5),),
            complete=Complete(after_ms=8),
        )
    ]

    def requesters_at_5(schedule_mid_run: bool) -> list[str]:
        lines = []
        engine, (a, b, _), _ = build_engine(handlers=handlers, trace=lines.append)
        spec = {"kind": "request", "program": b, "op": "capture_picture", "sensor": "Camera"}
        if not schedule_mid_run:
            engine.schedule(5, spec)
        engine.submit(InputEvent("x1", wid(engine, "first cmd"), a, 0))
        engine.advance(2)
        if schedule_mid_run:
            engine.schedule(5, spec)  # the handler's action at t=5 is already pending
        engine.run_to_quiescence()
        return [r["event"]["program"] for r in records(lines) if r["kind"] == "admit" and r["t"] == 5]

    assert requesters_at_5(schedule_mid_run=True) == ["P1", "P2"]
    assert requesters_at_5(schedule_mid_run=False) == ["P2", "P1"]


def test_held_tickets_deadline_keeps_the_sequence_of_its_admission():
    # At t=151 root x0 has died but its expiry is not yet processed. A plain
    # handoff, n2, arrives then: its admission drops Gamma's held handoff from
    # x0 and delivers the plain handoff n1 queued behind it, whose handler
    # completes at t=302, the instant n2's hold deadline fires. The deadline
    # takes its sequence number at n2's admission, before n1's completion is
    # pushed, so n2 expires first, as it did when every deadline was pushed.
    # n1's run ends on its own and writes no line, so the order is read from
    # the engine's own calls.
    handlers = [
        HandlerSpec(
            program_id="P1", trigger_kind="widget", trigger_value="first cmd",
            actions=(EmitHandoff(to="P3", after_ms=2),), complete=Complete(after_ms=3),
        ),
        HandlerSpec(
            program_id="P3", trigger_kind="widget", trigger_value="second cmd",
            complete=Complete(after_ms=1),
        ),
        HandlerSpec(
            program_id="P3", trigger_kind="handoff", trigger_value="*",
            complete=Complete(after_ms=WINDOW + 1),
        ),
    ]
    lines = []
    engine, (a, b, c), _ = build_engine(handlers=handlers, trace=lines.append)
    fired = []  # (t, what fired, the event of its ticket), in the order the loop runs them

    def recording(name):
        method = getattr(engine, name)

        def fire(ticket):
            fired.append((engine.now, name, ticket.event.event_id))
            method(ticket)
        return fire

    # the heap holds the bound method each entry was pushed with, so wrap before any push
    engine._fire_deadline = recording("_fire_deadline")
    engine._fire_complete = recording("_fire_complete")
    engine.schedule(WINDOW + 1, {"kind": "handoff", "src": b, "dst": c})
    engine.submit(InputEvent("x0", wid(engine, "first cmd"), a, 0))
    engine.submit(InputEvent("x1", wid(engine, "second cmd"), c, 1))  # Gamma joins a root of its own
    engine.submit(HandoffEvent("n1", b, c, 3))
    engine.run_to_quiescence()
    by_t = {}
    for r in records(lines):
        by_t.setdefault(r["t"], []).append((r["kind"], r.get("event_id") or r["event"]["id"]))
    # e1 is Alpha's handoff from x0 to Gamma, held behind x1's root; e2 is the timeline's n2
    assert by_t[WINDOW + 1] == [
        ("admit", "e2"), ("expire", "e1"), ("deliver", "n1"), ("hold", "e2"),
    ]
    assert by_t[2 * WINDOW + 2] == [("expire", "e2")]
    assert [(name, eid) for t, name, eid in fired if t == 2 * WINDOW + 2] == [
        ("_fire_deadline", "e2"), ("_fire_complete", "n1"),
    ]


def _finds_a_program_in_two_live_roots(scn, scheduler: bool = True) -> bool:
    """Whether, at some trace line of a run, a program belongs to two live roots."""
    found = False

    def check(_line):
        nonlocal found
        store = engine.store
        found = found or any(len(store.live_memberships(p, engine.now)) > 1 for p in store.membership)

    scn = replace(scn, config={**scn.config, "scheduler": scheduler})
    engine, name_to_id = runner.build_engine(scn, mode=Mode.DELEGATION, trace=check)
    runner._schedule_timeline(engine, scn, name_to_id)
    engine.run_to_quiescence()
    return found


def test_a_program_is_in_at_most_one_live_root_with_holds():
    # `_input_gate` relies on this: it takes the first matching root of a
    # program's memberships
    scenarios = [fuzz_scenario(seed, gaps_ms=gaps) for gaps in ((10, 400), (1, 40)) for seed in range(800)]
    scenarios.append(loads_scenario((DATA / "contention.scn").read_text()))
    scenarios += [load_scenario(scenario_path(task)) for task in ("task_a", "task_b", "task_c")]
    broken = [i for i, scn in enumerate(scenarios) if _finds_a_program_in_two_live_roots(scn)]
    assert broken == []
    # without holds the same check does find one, so it can see a violation
    assert any(_finds_a_program_in_two_live_roots(scn, scheduler=False) for scn in scenarios)


# `stats.to_dict()` of a `WorkloadParams(n_inputs=1500)` run: every event is
# input-derived there, and a request is delivered as it is submitted
STATS_1500 = {
    "total_events": 2228, "delayed_events": 12, "expired_events": 0, "max_delay_ms": 10,
    "delayed_fraction": 12 / 2228,
    "per_kind": {
        "input": {"submitted": 1500, "delivered": 1500, "delayed": 12, "expired": 0, "max_delay_ms": 10},
        "handoff": {"submitted": 204, "delivered": 204, "delayed": 0, "expired": 0, "max_delay_ms": 0},
        "request": {"submitted": 524, "delivered": 524, "delayed": 0, "expired": 0, "max_delay_ms": 0},
    },
    "derived": {"submitted": 2228, "delivered": 2228, "delayed": 12, "expired": 0, "max_delay_ms": 10},
}


@pytest.mark.parametrize("which", ["workload_1500", "contention"])
def test_a_finished_run_leaves_no_scheduling_state(which):
    if which == "contention":
        scn = loads_scenario((DATA / "contention.scn").read_text())
    else:
        scn = generate_workload(WorkloadParams(n_inputs=1500))
    engine, name_to_id = runner.build_engine(scn)
    runner._schedule_timeline(engine, scn, name_to_id)
    engine.run_to_quiescence()
    store = engine.store
    assert store.live == {} and store.membership == {}
    assert engine._root_tickets == {} and engine._busy_exec == {} and engine._waiting == set()
    assert engine._heap == []
    prompted = [p["root"] for p in engine.prompts]
    assert prompted and store.sealed.keys() == set(prompted)
    if which == "workload_1500":
        assert engine.stats.to_dict() == STATS_1500


def test_decisions_on_one_path_share_one_key():
    _report, engine = runner.run_scenario(generate_workload(WorkloadParams(n_inputs=1500)))
    keys = [d.path_key for d in engine.decisions if d.path_key is not None]
    first = {}  # each distinct key -> the first decision's object
    for key in keys:
        assert first.setdefault(key, key) is key
    assert len(first) < len(keys)  # some path was decided more than once
