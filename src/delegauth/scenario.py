"""Scenario files and trace streams.

Both formats are line-delimited JSON with a one-line version header, so they
diff cleanly and replay exactly. Scenario records declare the registry
(programs, widgets, sensors, operations), program behavior (handlers), the
event timeline (preliminary and main phases), scripted policies per phase,
attack assertions, and per-mode expectations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .auth import parse_policy_rules
from .engine import EngineConfig, Mode, _dump_line
from .errors import InvariantViolation, ParseError, UnresolvedReference
from .model import Registry, WidgetKind
from .scheduler import Complete, EmitHandoff, EmitRequest, HandlerSpec, HandlerTable

SCENARIO_FORMAT = "delegauth-scenario"
TRACE_FORMAT = "delegauth-trace"
FORMAT_VERSION = 1


# Keys of a config record: `EngineConfig`'s settings, and `scheduler`, which `runner.resolve_mode` reads
_CONFIG_KEYS = frozenset(f.name for f in fields(EngineConfig)) - {"mode"} | {"scheduler"}


@dataclass
class Scenario:
    """Parsed, validated scenario. `build()` produces fresh runtime objects."""

    programs: list[dict] = field(default_factory=list)
    widgets: list[dict] = field(default_factory=list)
    sensors: list[dict] = field(default_factory=list)
    operations: list[dict] = field(default_factory=list)
    handlers: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    mode: str = "delegation"
    policies: dict[str, list[str]] = field(default_factory=dict)  # phase -> rule lines
    timeline: list[dict] = field(default_factory=list)
    attacks: list[dict] = field(default_factory=list)
    expects: list[dict] = field(default_factory=list)
    source_text: str = ""

    def sha256(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()

    def engine_config(self, mode: Mode = Mode.DELEGATION, window_override: int | None = None) -> EngineConfig:
        """The settings of the config record, run in `mode`; `window_override` replaces `window_ms`."""
        settings = dict(self.config)
        unknown = sorted(settings.keys() - _CONFIG_KEYS)
        if unknown:
            raise InvariantViolation(f"unknown config key {unknown[0]!r}; keys: {', '.join(sorted(_CONFIG_KEYS))}")
        if type(settings.pop("scheduler", True)) is not bool:
            raise InvariantViolation(f"scheduler must be bool, got {self.config['scheduler']!r}")
        if window_override is not None:
            settings["window_ms"] = window_override
        return EngineConfig(mode=mode, **settings)

    def build(self) -> tuple[Registry, HandlerTable, dict[str, str]]:
        """Fresh registry + handler table; returns (registry, handlers, name->id)."""
        registry = Registry()
        name_to_id: dict[str, str] = {}
        for p in self.programs:
            prog = registry.register_program(p["name"], p["mark"], p.get("display"))
            name_to_id[p["name"]] = prog.id
        for w in self.widgets:
            kind = WidgetKind.VOICE if w.get("input", "voice") == "voice" else WidgetKind.GUI
            registry.register_widget(w["label"], kind, w.get("aliases", ()))
        for s in self.sensors:
            registry.register_sensor(s["id"], s.get("phrase", ""))
        for o in self.operations:
            registry.register_operation(
                o["op"], o["sensors"], o["phrase"], o.get("first_use_phrase")
            )
        table = HandlerTable()
        for h in self.handlers:
            table.add(self._build_handler(h, registry, name_to_id))
        return registry, table, name_to_id

    def _build_handler(self, h: dict, registry: Registry, name_to_id: dict[str, str]) -> HandlerSpec:
        on = h["on"]
        if "widget" in on:
            trigger_kind, trigger_value = "widget", registry.resolve_widget(on["widget"]).id
        else:
            trigger_kind, trigger_value = "handoff", on["handoff"]
        if not (isinstance(h["actions"], list) and all(isinstance(a, dict) for a in h["actions"])):
            raise ParseError("handler actions must be a list of objects", line=h.get("_line"))
        actions = []
        complete = None
        for a in h["actions"]:
            if "handoff" in a:
                actions.append(
                    EmitHandoff(to=name_to_id[a["handoff"]], after_ms=a["after"], label=a.get("label"))
                )
            elif "request" in a:
                if not (isinstance(a["request"], list) and len(a["request"]) == 2):
                    raise ParseError("handler request must be an [op, sensor] pair", line=h.get("_line"))
                op, sensor = a["request"]
                actions.append(EmitRequest(op=op, sensor=sensor, after_ms=a["after"]))
            elif "complete" in a:
                complete = Complete(after_ms=a["complete"])
        if complete is None:
            raise InvariantViolation(f"handler for {h['program']} does not end with a complete action")
        return HandlerSpec(
            program_id=name_to_id[h["program"]],
            trigger_kind=trigger_kind,
            trigger_value=trigger_value,
            actions=tuple(actions),
            complete=complete,
        )

    # -- serialization ---------------------------------------------------------

    def dump(self) -> str:
        lines = [_dump_line({"format": SCENARIO_FORMAT, "version": FORMAT_VERSION})]
        for p in self.programs:
            lines.append(_dump_line({"kind": "program", **p}))
        for w in self.widgets:
            lines.append(_dump_line({"kind": "widget", **w}))
        for s in self.sensors:
            lines.append(_dump_line({"kind": "sensor", **s}))
        for o in self.operations:
            lines.append(_dump_line({"kind": "operation", **o}))
        for h in self.handlers:
            lines.append(_dump_line({"kind": "handler", **h}))
        if self.config:
            lines.append(_dump_line({"kind": "config", **self.config}))
        lines.append(_dump_line({"kind": "mode", "mode": self.mode}))
        for phase, rules in self.policies.items():
            lines.append(_dump_line({"kind": "policy", "phase": phase, "rules": rules}))
        for e in self.timeline:
            lines.append(_dump_line(self._event_record(e)))
        for a in self.attacks:
            lines.append(_dump_line({"kind": "attack", **a}))
        for x in self.expects:
            lines.append(_dump_line({"kind": "expect", **x}))
        return "\n".join(lines) + "\n"

    @staticmethod
    def _event_record(e: dict) -> dict:
        rec: dict = {"kind": "event", "t": e["t"]}
        if e.get("phase", "main") != "main":
            rec["phase"] = e["phase"]
        if e.get("label"):
            rec["id"] = e["label"]
        if e["kind"] == "input":
            rec["input"] = {"widget": e["widget"], "program": e["program"]}
        elif e["kind"] == "handoff":
            body = {"from": e["src"], "to": e["dst"]}
            if e.get("provenance") is not None:
                body["provenance"] = e["provenance"]
            if e.get("action") is not None:
                body["action"] = e["action"]
            rec["handoff"] = body
        else:
            rec["request"] = {"program": e["program"], "op": e["op"], "sensor": e["sensor"]}
        return rec


def loads_scenario(text: str) -> Scenario:
    scn = Scenario(source_text=text)
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty scenario file", line=1)
    header = _parse_json(lines[0], 1)
    if header.get("format") != SCENARIO_FORMAT:
        raise ParseError(f"not a scenario file (format={header.get('format')!r})", line=1)
    if header.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported scenario version {header.get('version')!r}", line=1)

    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        rec = _parse_json(raw, lineno)
        kind = rec.pop("kind", None)
        rec["_line"] = lineno
        if kind == "program":
            scn.programs.append(rec)
        elif kind == "widget":
            scn.widgets.append(rec)
        elif kind == "sensor":
            scn.sensors.append(rec)
        elif kind == "operation":
            scn.operations.append(rec)
        elif kind == "handler":
            scn.handlers.append(rec)
        elif kind == "config":
            rec.pop("_line")
            scn.config = rec
        elif kind == "mode":
            scn.mode = rec["mode"]
        elif kind == "policy":
            phase, rules = _policy(rec, lineno)
            scn.policies[phase] = rules
        elif kind == "event":
            scn.timeline.append(_normalize_event(rec, lineno))
        elif kind == "attack":
            scn.attacks.append(rec)
        elif kind == "expect":
            scn.expects.append(rec)
        else:
            raise ParseError(f"unknown record kind {kind!r}", line=lineno)

    _validate(scn)
    for rec_list in (scn.programs, scn.widgets, scn.sensors, scn.operations, scn.handlers,
                     scn.timeline, scn.attacks, scn.expects):
        for rec in rec_list:
            rec.pop("_line", None)
    return scn


def load_scenario(path: str | Path) -> Scenario:
    try:
        return loads_scenario(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_json(raw: str, lineno: int) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object", line=lineno)
    return obj


def _policy(rec: dict, lineno: int) -> tuple[str, list[str]]:
    """The phase and rules of a policy record, checked as `ScriptedPolicy` will read them."""
    phase, rules = rec.get("phase", "main"), rec.get("rules")
    if phase not in ("preliminary", "main"):
        raise ParseError(f"unknown phase {phase!r}", line=lineno)
    if not (isinstance(rules, list) and all(isinstance(r, str) for r in rules)):
        raise ParseError(f"policy rules must be a list of strings, got {rules!r}", line=lineno)
    try:
        parse_policy_rules(rules)
    except InvariantViolation as exc:
        raise ParseError(str(exc), line=lineno) from None
    return phase, rules


_EVENT_FIELDS = {"input": {"widget", "program"}, "handoff": {"from", "to"}, "request": {"program", "op", "sensor"}}


def _normalize_event(rec: dict, lineno: int) -> dict:
    out = {"phase": rec.get("phase", "main"), "t": rec.get("t"), "_line": lineno}
    if type(out["t"]) is not int or out["t"] < 0:  # bool is an int subclass: rejected too
        raise ParseError("event needs a non-negative integer t", line=lineno)
    if rec.get("id"):
        out["label"] = rec["id"]
    bodies = [k for k in ("input", "handoff", "request") if k in rec]
    if len(bodies) != 1:
        raise ParseError("event must have exactly one of input/handoff/request", line=lineno)
    kind, body = bodies[0], rec[bodies[0]]
    need = _EVENT_FIELDS[kind]
    if not (isinstance(body, dict) and body.keys() >= need):
        raise ParseError(f"event {kind} must be an object with {', '.join(sorted(need))}", line=lineno)
    if kind == "input":
        out.update(kind="input", widget=body["widget"], program=body["program"])
    elif kind == "handoff":
        out.update(
            kind="handoff", src=body["from"], dst=body["to"],
            provenance=body.get("provenance"), action=body.get("action"),
        )
    else:
        out.update(kind="request", program=body["program"], op=body["op"], sensor=body["sensor"])
    if out["phase"] not in ("preliminary", "main"):
        raise ParseError(f"unknown phase {out['phase']!r}", line=lineno)
    return out


def _validate(scn: Scenario) -> None:
    # cross-reference resolution (deterministic errors with line locations)
    try:
        registry, _table, name_to_id = scn.build()
    except KeyError as exc:
        raise UnresolvedReference(f"unresolved reference {exc.args[0]!r}") from exc

    if scn.mode not in ("delegation", "first_use"):
        raise InvariantViolation(f"unknown mode {scn.mode!r}")
    scn.engine_config()  # rejects unknown config keys and values of the wrong type

    prev_t = -1
    seen_main = False
    labels: set[str] = set()
    for e in scn.timeline:
        line = e["_line"]
        if e["t"] < prev_t:
            raise InvariantViolation(f"line {line}: timeline timestamps must be non-decreasing")
        prev_t = e["t"]
        if e["phase"] == "main":
            seen_main = True
        elif seen_main:
            raise InvariantViolation(f"line {line}: preliminary events must precede main events")
        if e["kind"] == "input":
            _require(_resolves(registry, e["widget"]), f"line {line}: unknown widget {e['widget']!r}")
            _require(e["program"] in name_to_id, f"line {line}: unknown program {e['program']!r}")
        elif e["kind"] == "handoff":
            for ref in (e["src"], e["dst"]):
                _require(ref in name_to_id, f"line {line}: unknown program {ref!r}")
            if e.get("provenance") is not None:
                _require(
                    e["provenance"] in labels,
                    f"line {line}: provenance {e['provenance']!r} does not name an earlier event id",
                )
        else:
            _require(e["program"] in name_to_id, f"line {line}: unknown program {e['program']!r}")
            _require(
                registry.compatible(e["op"], e["sensor"]),
                f"line {line}: incompatible op/sensor ({e['op']!r}, {e['sensor']!r})",
            )
        if e.get("label"):
            labels.add(e["label"])

    for a in scn.attacks:
        line = a.get("_line")
        for key in ("name", "program", "op", "sensor"):
            _require(a.get(key), f"line {line}: attack needs {key!r}")
        _require(a["program"] in name_to_id, f"line {line}: unknown program {a['program']!r}")
        _require(
            registry.compatible(a["op"], a["sensor"]),
            f"line {line}: incompatible op/sensor in attack",
        )
    attack_names = {a["name"] for a in scn.attacks}
    for x in scn.expects:
        line = x.get("_line")
        _require(x.get("mode") in ("delegation", "first_use"), f"line {line}: expect needs a mode")
        _require(isinstance(x.get("attack", {}), dict), f"line {line}: expect attack must be an object")
        for key in ("main_prompts", "preliminary_prompts"):
            count = x.get(key, 0)
            if type(count) is not int or count < 0:  # bool is an int subclass: rejected too
                raise ParseError(f"expect {key} must be a non-negative integer, got {count!r}", line=line)
        for name, succeeded in x.get("attack", {}).items():
            _require(name in attack_names, f"line {line}: expect names unknown attack {name!r}")
            if type(succeeded) is not bool:
                raise ParseError(f"expect attack {name!r} must be true or false, got {succeeded!r}", line=line)


def _resolves(registry: Registry, label: str) -> bool:
    try:
        registry.resolve_widget(label)
        return True
    except Exception:
        return False


def _require(cond, msg: str) -> None:
    if not cond:
        raise UnresolvedReference(msg)


# -- traces ---------------------------------------------------------------------

class TraceWriter:
    """Ordered JSONL trace stream: the header line, then one line per record.

    The engine hands the writer each record as a finished line: it writes the
    line where it knows the fields (`engine._admit_line` and its siblings),
    and the text is `json.dumps(record, sort_keys=True, separators=(",", ":"))`
    of the record's dict. The writer adds the newline.

    Each line goes to `fh.write` as one call, buffered by `fh` itself, so the
    trace on disk is complete once `fh` is closed; a process killed before
    that loses the buffered tail. `runner.replay` reports such a file as
    truncated (`TraceTruncated`, exit code 4) when it ends before the re-run
    does, at a line boundary or inside the line the re-run writes next. `fh`
    may be any object with a `write` method.
    """

    def __init__(self, fh, header: dict):
        self._write = fh.write
        self._write(_dump_line({"format": TRACE_FORMAT, "version": FORMAT_VERSION, **header}) + "\n")

    def __call__(self, line: str) -> None:
        self._write(line + "\n")


def read_trace_header(fh) -> dict:
    """Read and check the header line of an open trace file."""
    first = fh.readline()
    if not first:
        raise ParseError("empty trace file", line=1)
    header = _parse_json(first, 1)
    if header.get("format") != TRACE_FORMAT:
        raise ParseError(f"not a trace file (format={header.get('format')!r})", line=1)
    if header.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported trace version {header.get('version')!r}", line=1)
    for key in ("scenario", "scenario_sha256"):
        if not isinstance(header.get(key), str):
            raise ParseError(f"trace header needs a string {key}", line=1)
    for key in ("window_override", "seed"):
        value = header.get(key)
        if value is not None and type(value) is not int:  # bool is an int subclass: rejected too
            raise ParseError(f"trace header {key} must be an integer or null, got {value!r}", line=1)
    rules = header.get("policy_override")
    if rules is not None and not (isinstance(rules, list) and all(isinstance(r, str) for r in rules)):
        raise ParseError(
            f"trace header policy_override must be a list of strings or null, got {rules!r}", line=1
        )
    return header
