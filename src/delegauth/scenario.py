"""Scenario files and trace streams.

Both formats are line-delimited JSON with a one-line version header, so they
diff cleanly and replay exactly. Scenario records declare the registry
(programs, widgets, sensors, operations), program behavior (handlers), the
event timeline (preliminary and main phases), scripted policies per phase,
attack assertions, and per-mode expectations.

The table below (`_RECORDS`, with `_ONCE` and the two headers) is the one
definition of both formats. Each record is checked against it once, before
anything reads it; one that does not fit raises `ParseError` naming its line,
kind and key. `EngineConfig` checks a config record's values,
`parse_policy_rules` a policy's rules, and `Scenario.build` and `_validate`,
on the one registry that build makes, what needs the registry. The timeline's
checks are in `timeline_specs`, the one path from the timeline to the engine.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path

from .auth import parse_policy_rules
from .engine import EngineConfig, Mode, _dump_line
from .errors import DelegauthError, InvariantViolation, ParseError, TraceTruncated, UnknownWidget, UnresolvedReference
from .model import Registry, WidgetKind
from .scheduler import Complete, EmitHandoff, EmitRequest, HandlerSpec, HandlerTable

SCENARIO_FORMAT = "delegauth-scenario"
TRACE_FORMAT = "delegauth-trace"
FORMAT_VERSION = 1

# Spellings of a mode in the CLI's `--mode` and in trace headers; the
# scenario's `mode` and `expect` records take the last two
MODE_SPELLINGS = {
    "entrust": Mode.DELEGATION,
    "first-use": Mode.FIRST_USE,
    "delegation": Mode.DELEGATION,
    "first_use": Mode.FIRST_USE,
}


# -- the record table -------------------------------------------------------------
# A spec is a type, which a value must be exactly (so a bool is no int, and
# `object` takes any value), a tuple of the values allowed, or one of the
# checks below, which raise `_Bad`.


class _Bad(Exception):
    """A value that does not fit its spec, at key path `path` of its record."""

    path = ""


def _fit(value, spec, key) -> None:
    try:
        if type(spec) is tuple:
            if value not in spec:
                raise _Bad(f"must be one of {', '.join(map(repr, spec))}, got {value!r}")
        elif type(spec) is not type:
            spec(value)
        elif type(value) is not spec and spec is not object:
            raise _Bad(f"must be {spec.__name__}, got {value!r}")
    except _Bad as bad:
        bad.path = f"{key}.{bad.path}" if bad.path else str(key)
        raise


def _object(required: dict, optional: dict | None = None, other=None):
    """A JSON object with the `required` and `optional` keys; another key's value must fit `other`, if given."""
    specs, needed = {**required, **(optional or {})}, frozenset(required)

    def check(value) -> None:
        if type(value) is not dict:
            raise _Bad(f"must be an object, got {value!r}")
        if not value.keys() >= needed:
            raise _Bad(f"needs the key {min(needed - value.keys())!r}")
        for key, v in value.items():
            spec = specs.get(key, other)
            if spec is None:
                raise _Bad(f"has the key {key!r}, not one of {', '.join(specs)}")
            if type(spec) is not type or type(v) is not spec:
                _fit(v, spec, key)
    return check


def _one_of(**shapes):
    """A JSON object that fits one of `shapes`, each named by a key that it has and the others lack."""
    def check(value) -> None:
        keys = shapes.keys() & value.keys() if type(value) is dict else ()
        if len(keys) != 1:
            raise _Bad(f"needs exactly one of the keys {', '.join(shapes)}, got {value!r}")
        shapes[keys.pop()](value)
    return check


def _list(item, length: int | None = None, one: str | None = None):
    """A JSON array of `item`s: `length` of them, if given, and exactly one with the key `one`, if given."""
    def check(value) -> None:
        if type(value) is not list or len(value) != (length or len(value)):
            raise _Bad(f"must be a list{f' of {length}' if length else ''}, got {value!r}")
        for i, v in enumerate(value):
            _fit(v, item, i)
        if one and sum(one in v for v in value) != 1:
            raise _Bad(f"needs exactly one {one!r} item")
    return check


def _count(value) -> None:
    if type(value) is not int or value < 0:
        raise _Bad(f"must be an int >= 0, got {value!r}")


_PHASE, _MODE = ("preliminary", "main"), ("delegation", "first_use")
_BODIES = {  # an event has exactly one of these bodies
    "input": _object({"widget": str, "program": str}),
    "handoff": _object({"from": str, "to": str}, {"provenance": str, "action": str}),
    "request": _object({"program": str, "op": str, "sensor": str}),
}

_RECORDS = {
    "program": _object({"name": str, "mark": str}, {"display": str}),
    "widget": _object({"label": str}, {"input": ("voice", "gui"), "aliases": _list(str)}),
    "sensor": _object({"id": str}, {"phrase": str}),
    "operation": _object({"op": str, "sensors": _list(str), "phrase": str}, {"first_use_phrase": str}),
    "handler": _object({
        "program": str,
        "on": _one_of(widget=_object({"widget": str}), handoff=_object({"handoff": str})),
        "actions": _list(_one_of(
            handoff=_object({"handoff": str, "after": int}, {"label": str}),
            request=_object({"request": _list(str, length=2), "after": int}),
            complete=_object({"complete": int}),
        ), one="complete"),
    }),
    # every `EngineConfig` field but `mode`; `EngineConfig` checks the values
    "config": _object({}, {f.name: object for f in fields(EngineConfig) if f.name != "mode"}),
    "mode": _object({"mode": _MODE}),
    "policy": _object({"rules": _list(str)}, {"phase": _PHASE}),
    "event": _one_of(**{
        name: _object({"t": _count, name: body}, {"phase": _PHASE, "id": str}) for name, body in _BODIES.items()
    }),
    "attack": _object({"name": str, "program": str, "op": str, "sensor": str}),
    "expect": _object({"mode": _MODE}, {"preliminary_prompts": _count, "main_prompts": _count,
                                        "attack": _object({}, other=bool)}),
}
# the kinds that may not repeat: a policy once per phase (`Scenario.build` checks
# that a program name comes once)
_ONCE = {"config", "mode", "policy"}
_SCENARIO_HEADER = _object({"format": (SCENARIO_FORMAT,), "version": (FORMAT_VERSION,)})
# a trace header writes null for each override not given: a null value counts as absent
_TRACE_HEADER = _object(
    {"format": (TRACE_FORMAT,), "version": (FORMAT_VERSION,), "scenario": str, "scenario_sha256": str},
    {"mode": tuple(MODE_SPELLINGS), "policy_override": _list(str), "window_override": int, "seed": int},
)


def _check(lineno: int | None, kind: str, check, *args):
    """Return `check(*args)`, a spec or another module's check, run on a record; a failure names its line."""
    try:
        return check(*args)
    except _Bad as bad:
        where = f"{bad.path!r} " if bad.path else ""
        raise ParseError(f"{kind} record: {where}{bad}", line=lineno) from None
    except DelegauthError as exc:  # a typed error of the check, such as `InvariantViolation`
        raise ParseError(f"{kind} record: {exc}", line=lineno) from None


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
    # the text `loads_scenario` read or a generator wrote, which `replace` drops;
    # a loaded scenario edited in place keeps its old text
    source_text: str = field(default="", init=False, repr=False, compare=False)

    def text(self) -> str:
        """The scenario as text: the text it was read or generated as, else `dump()`."""
        return self.source_text or self.dump()

    def sha256(self) -> str:
        return hashlib.sha256(self.text().encode()).hexdigest()

    def engine_config(self, mode: Mode = Mode.DELEGATION, window_override: int | None = None) -> EngineConfig:
        """The settings of the config record, run in `mode`; `window_override` replaces `window_ms`."""
        settings = dict(self.config)
        if window_override is not None:
            settings["window_ms"] = window_override
        return EngineConfig(mode=mode, **settings)

    def build(self) -> tuple[Registry, HandlerTable, dict[str, str]]:
        """Fresh registry + handler table; returns (registry, handlers, name->id).

        A second program of one name, or a record the registry refuses, raises
        `ParseError`, naming its line during `loads_scenario`.
        """
        registry = Registry()
        name_to_id: dict[str, str] = {}
        first_line: dict[str, int | None] = {}
        for p in self.programs:
            line = p.get("_line")
            first = first_line.setdefault(p["name"], line)
            if p["name"] in name_to_id:
                where = "" if first is None else f"; the first is on line {first}"
                raise ParseError(f"a second program {p['name']!r} record{where}", line=line)
            prog = _check(line, "program", registry.register_program, p["name"], p["mark"], p.get("display"))
            name_to_id[p["name"]] = prog.id
        for w in self.widgets:
            _check(w.get("_line"), "widget", registry.register_widget,
                   w["label"], WidgetKind(w.get("input", "voice")), w.get("aliases", ()))
        for s in self.sensors:
            _check(s.get("_line"), "sensor", registry.register_sensor, s["id"], s.get("phrase", ""))
        for o in self.operations:
            _check(o.get("_line"), "operation", registry.register_operation,
                   o["op"], o["sensors"], o["phrase"], o.get("first_use_phrase"))
        table = HandlerTable()
        for h in self.handlers:
            _check(h.get("_line"), "handler", table.add, self._build_handler(h, registry, name_to_id))
        return registry, table, name_to_id

    def _build_handler(self, h: dict, registry: Registry, name_to_id: dict[str, str]) -> HandlerSpec:
        line = h.get("_line")
        [(trigger_kind, trigger_value)] = h["on"].items()
        if trigger_kind == "widget":
            trigger_value = _widget_id(registry, trigger_value, line)
        program_id = _program_id(name_to_id, h["program"], line)
        actions = []
        for a in h["actions"]:
            if "handoff" in a:
                to = _program_id(name_to_id, a["handoff"], line)
                if to == program_id:
                    raise ParseError(f"handler record: a handoff from {h['program']!r} to itself", line=line)
                actions.append(EmitHandoff(to=to, after_ms=a["after"], label=a.get("label")))
            elif "request" in a:
                _compatible(registry, *a["request"], line)
                actions.append(EmitRequest(*a["request"], after_ms=a["after"]))
            else:
                complete = Complete(after_ms=a["complete"])
        return HandlerSpec(program_id, trigger_kind, trigger_value, tuple(actions), complete)

    # -- serialization ---------------------------------------------------------

    def dump(self) -> str:
        """The scenario as text: its records kind by kind, in the order of `_RECORDS`."""
        records = {
            "config": [self.config] if self.config else [],
            "mode": [{"mode": self.mode}],
            "policy": [{"phase": phase, "rules": rules} for phase, rules in self.policies.items()],
            "event": map(_event_record, self.timeline),
        }
        lines = [_dump_line({"format": SCENARIO_FORMAT, "version": FORMAT_VERSION})]
        for kind in _RECORDS:
            for rec in records[kind] if kind in records else getattr(self, f"{kind}s"):
                lines.append(_dump_line({"kind": kind, **rec}))
        return "\n".join(lines) + "\n"


def loads_scenario(text: str) -> Scenario:
    scn = Scenario()
    scn.source_text = text
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty scenario file", line=1)
    _check(1, "scenario header", _SCENARIO_HEADER, _parse_json(lines[0], 1))

    seen: dict[str, int] = {}  # the name of each record that may not repeat -> its line
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        rec = _parse_json(raw, lineno)
        kind = rec.pop("kind", None)
        spec = _RECORDS.get(kind) if type(kind) is str else None
        if spec is None:
            raise ParseError(f"unknown record kind {kind!r}", line=lineno)
        _check(lineno, kind, spec, rec)
        if kind in _ONCE:
            single = f"{rec.get('phase', 'main')} policy" if kind == "policy" else kind
            first = seen.setdefault(single, lineno)
            if first != lineno:
                raise ParseError(f"a second {single} record; the first is on line {first}", line=lineno)
        if kind == "event":
            scn.timeline.append(_normalize_event(rec, lineno))
        elif kind == "config":
            scn.config = rec
            _check(lineno, kind, scn.engine_config)
        elif kind == "mode":
            scn.mode = rec["mode"]
        elif kind == "policy":
            _check(lineno, kind, parse_policy_rules, rec["rules"])
            scn.policies[rec.get("phase", "main")] = rec["rules"]
        else:  # each other kind is a list of the scenario, named by its plural, as in `dump`
            rec["_line"] = lineno
            getattr(scn, kind + "s").append(rec)

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


def _normalize_event(rec: dict, lineno: int) -> dict:
    """The timeline entry of an event record: one flat dict, with `from` and `to` held as `src` and `dst`."""
    out = {"phase": rec.get("phase", "main"), "t": rec["t"], "_line": lineno}
    if rec.get("id"):
        out["label"] = rec["id"]
    out["kind"] = kind = "input" if "input" in rec else "handoff" if "handoff" in rec else "request"
    body = rec[kind]
    if kind == "input":
        out["widget"], out["program"] = body["widget"], body["program"]
    elif kind == "handoff":
        out["src"], out["dst"] = body["from"], body["to"]
        out["provenance"], out["action"] = body.get("provenance"), body.get("action")
    else:
        out["program"], out["op"], out["sensor"] = body["program"], body["op"], body["sensor"]
    return out


def _event_record(e: dict) -> dict:
    """The event record of timeline entry `e`: `_normalize_event` undone."""
    if e["kind"] == "input":
        body = {"widget": e["widget"], "program": e["program"]}
    elif e["kind"] == "handoff":
        body = {"from": e["src"], "to": e["dst"], "provenance": e.get("provenance"), "action": e.get("action")}
    else:
        body = {"program": e["program"], "op": e["op"], "sensor": e["sensor"]}
    rec = {"t": e["t"], e["kind"]: {key: value for key, value in body.items() if value is not None}}
    if e.get("phase", "main") != "main":
        rec["phase"] = e["phase"]
    if e.get("label"):
        rec["id"] = e["label"]
    return rec


def timeline_specs(scn: Scenario, registry: Registry, name_to_id: dict[str, str]) -> Iterator[tuple[int, dict]]:
    """Yield `(t, spec)` for each timeline entry of `scn`, the spec as `Engine.schedule` takes it.

    Each entry is checked as it is resolved, and a failure names its line when
    it has one (during `loads_scenario`). Each widget label is resolved once.
    """
    prev_t, seen_main = -1, False
    labels: dict[str, int | None] = {}  # event id -> its line
    widget_ids: dict[str, str] = {}  # widget label -> widget id
    for e in scn.timeline:
        t, kind, line = e["t"], e["kind"], e.get("_line")
        if t < prev_t:
            raise InvariantViolation("timeline timestamps must be non-decreasing", line=line)
        prev_t = t
        if e["phase"] == "main":
            seen_main = True
        elif seen_main:
            raise InvariantViolation("preliminary events must precede main events", line=line)
        spec = {"phase": e["phase"], "kind": kind}
        label = e.get("label")
        if label:
            spec["label"] = label
        if kind == "input":
            widget_id = widget_ids.get(e["widget"])
            if widget_id is None:
                widget_id = widget_ids[e["widget"]] = _widget_id(registry, e["widget"], line)
            spec["widget"] = widget_id
            spec["program"] = _program_id(name_to_id, e["program"], line)
        elif kind == "handoff":
            spec["src"] = _program_id(name_to_id, e["src"], line)
            spec["dst"] = _program_id(name_to_id, e["dst"], line)
            if e["src"] == e["dst"]:
                raise ParseError(f"event record: a handoff from {e['src']!r} to itself", line=line)
            provenance = e.get("provenance")
            if provenance is not None and provenance not in labels:
                raise UnresolvedReference(f"provenance {provenance!r} does not name an earlier event id", line=line)
            spec["provenance"], spec["action"] = provenance, e.get("action")
        else:
            spec["program"] = _program_id(name_to_id, e["program"], line)
            _compatible(registry, e["op"], e["sensor"], line)
            spec["op"], spec["sensor"] = e["op"], e["sensor"]
        if label:
            if label in labels:
                first = labels[label]
                where = "" if first is None else f"; the first is on line {first}"
                raise ParseError(f"event record: a second event with id {label!r}{where}", line=line)
            labels[label] = line
        yield t, spec


def _validate(scn: Scenario) -> None:
    """The checks that need the registry: cross-references, and the timeline's in `timeline_specs`."""
    registry, _table, name_to_id = scn.build()
    for _entry in timeline_specs(scn, registry, name_to_id):
        pass
    for a in scn.attacks:
        _program_id(name_to_id, a["program"], a["_line"])
        _compatible(registry, a["op"], a["sensor"], a["_line"])
    attack_names = {a["name"] for a in scn.attacks}
    for x in scn.expects:
        for name in x.get("attack", {}):
            if name not in attack_names:
                raise UnresolvedReference(f"expect names unknown attack {name!r}", line=x["_line"])


def _widget_id(registry: Registry, label: str, line: int | None) -> str:
    try:
        return registry.resolve_widget(label).id
    except UnknownWidget:
        raise UnresolvedReference(f"unknown widget {label!r}", line=line) from None


def _program_id(name_to_id: dict[str, str], name: str, line: int | None) -> str:
    if name not in name_to_id:
        raise UnresolvedReference(f"unknown program {name!r}", line=line)
    return name_to_id[name]


def _compatible(registry: Registry, op: str, sensor: str, line: int | None) -> None:
    if not registry.compatible(op, sensor):
        raise UnresolvedReference(f"incompatible op/sensor ({op!r}, {sensor!r})", line=line)


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
    if not first.endswith("\n"):  # `TraceWriter` ends the header with one: the file is cut inside it
        raise TraceTruncated(0)
    header = _parse_json(first, 1)
    _check(1, "trace header", _TRACE_HEADER, {key: value for key, value in header.items() if value is not None})
    return header
