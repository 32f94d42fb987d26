"""Scenario files, and the grammar of every file the CLI reads.

A scenario is line-delimited JSON with a one-line version header, so it
diffs cleanly and replays exactly. Scenario records declare the registry
(programs, widgets, sensors, operations), program behavior (handlers), the
event timeline (preliminary and main phases), scripted policies per phase,
attack assertions, and per-mode expectations. Traces are written, read and
compared in `trace`; only a trace's header is checked here
(`read_trace_header`), against its entry of the record table below, so that a
bad header fails as a bad scenario record does.

The table below (`_RECORDS`, with `_ONCE` and the two headers) is the one
definition of the scenario's records and of both headers, compiled at import
into one check per record kind. `loads_scenario` splits the text at line feeds
alone (JSON lets U+2028, U+2029 and U+0085 stand raw inside a string, where
`str.splitlines` would break the line), decodes each line with the JSON
decoder's scanner, and checks each record against the table, and
`EngineConfig` a config's values and `parse_policy_rules` a policy's rules, as
it reads them; a failure names the record's line. What needs the registry is
checked at use, by the two steps of every run: `Scenario.build` and
`timeline_specs`. `loads_scenario` takes the same two, so a loaded and a built
scenario pass one set of checks, and it keeps what `timeline_specs` gave, so
that a run of the loaded scenario schedules its timeline without resolving it
again.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from itertools import repeat
from pathlib import Path
from types import MappingProxyType

from .auth import parse_policy_rules
from .engine import EngineConfig, Mode
from .errors import DelegauthError, InvariantViolation, ParseError, TraceTruncated, UnknownWidget, UnresolvedReference
from .model import Registry, WidgetKind
from .scheduler import Complete, EmitHandoff, EmitRequest, HandlerSpec, HandlerTable
from .trace import TRACE_FORMAT, TRACE_VERSION, TraceWriter, dump_line  # `TraceWriter` is imported from here too

SCENARIO_FORMAT = "delegauth-scenario"
SCENARIO_VERSION = 1  # a trace's is `trace.TRACE_VERSION`

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
# checks below, which raise `_Bad`. The table is compiled once, at import:
# each builder turns the specs inside it into what its check compares a
# value with, so a record is checked by one call of its kind's check.


class _Bad(Exception):
    """A value that does not fit its spec, at key path `path` of its record."""

    path = ""

    def at(self, key) -> None:
        """Make this failure's path start from the object or array that holds the value at `key`."""
        self.path = f"{key}.{self.path}" if self.path else str(key)


def _compile(spec):
    """`spec` as a check compares a value with it: a type as it is, anything else as a function that raises `_Bad`."""
    if type(spec) is not tuple:
        return spec

    def check(value) -> None:
        if value not in spec:
            raise _Bad(f"must be one of {', '.join(map(repr, spec))}, got {value!r}")
    return check


def _not_a(spec: type, value) -> _Bad:
    return _Bad(f"must be {spec.__name__}, got {value!r}")


def _object(required: dict, optional: dict | None = None, other=None):
    """A JSON object with the `required` and `optional` keys; another key's value must fit `other`, if given."""
    specs, needed = {**required, **(optional or {})}, frozenset(required)
    fits = {key: _compile(spec) for key, spec in specs.items()}
    other = _compile(other)

    def check(value) -> None:
        if type(value) is not dict:
            raise _Bad(f"must be an object, got {value!r}")
        if not value.keys() >= needed:
            raise _Bad(f"needs the key {min(needed - value.keys())!r}")
        for key, v in value.items():
            fit = fits.get(key, other)
            if fit is None:
                raise _Bad(f"has the key {key!r}, not one of {', '.join(specs)}")
            try:
                if type(fit) is not type:
                    fit(v)
                elif type(v) is not fit and fit is not object:
                    raise _not_a(fit, v)
            except _Bad as bad:
                bad.at(key)
                raise
    check.keys = None if other is not None else frozenset(specs)  # what `_one_of` relies on
    return check


def _one_of(**shapes):
    """A JSON object that fits one of `shapes`, each named by a key that it has and the others lack.

    Each shape is an `_object` that takes no other shape's name as a key, so a
    value with two names fails the check of the first: only then are they counted.
    """
    for name, shape in shapes.items():
        if shape.keys is None or not shape.keys.isdisjoint(shapes.keys() - {name}):
            raise TypeError(f"the shape {name!r} may take another shape's name as a key")

    def check(value) -> None:
        if type(value) is dict:
            for name, shape in shapes.items():
                if name in value:
                    try:
                        return shape(value)
                    except _Bad:
                        if sum(key in value for key in shapes) == 1:
                            raise
                    break
        raise _Bad(f"needs exactly one of the keys {', '.join(shapes)}, got {value!r}")
    return check


def _list(item, length: int | None = None, one: str | None = None):
    """A JSON array of `item`s: `length` of them, if given, and exactly one with the key `one`, if given."""
    fit = _compile(item)

    def check(value) -> None:
        if type(value) is not list or len(value) != (length or len(value)):
            raise _Bad(f"must be a list{f' of {length}' if length else ''}, got {value!r}")
        for i, v in enumerate(value):
            try:
                if type(fit) is not type:
                    fit(v)
                elif type(v) is not fit and fit is not object:
                    raise _not_a(fit, v)
            except _Bad as bad:
                bad.at(i)
                raise
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
_SCENARIO_HEADER = _object({"format": (SCENARIO_FORMAT,), "version": (SCENARIO_VERSION,)})
# a trace header writes null for each override not given: a null value counts as absent
_TRACE_HEADER = _object(
    {"format": (TRACE_FORMAT,), "version": (TRACE_VERSION,), "scenario": str, "scenario_sha256": str},
    {"mode": tuple(MODE_SPELLINGS), "policy_override": _list(str), "window_override": int, "seed": int},
)


def _check(lineno: int | None, kind: str, check, *args):
    """Return `check(*args)`, a spec or another module's check, run on a record; a failure names its line."""
    try:
        return check(*args)
    except (_Bad, RecursionError) as bad:
        raise _misfit(lineno, kind, bad) from None
    except DelegauthError as exc:  # a typed error of the check, such as `InvariantViolation`
        raise ParseError(f"{kind} record: {exc}", line=lineno) from None


def _misfit(lineno: int | None, kind: str, bad: _Bad | RecursionError) -> ParseError:
    """The error of a `kind` record on line `lineno` that fails a spec.

    A value nested nearly as deep as the JSON decoder reads decodes, but its
    `repr` in the error then exceeds the recursion limit.
    """
    if type(bad) is RecursionError:
        return ParseError(f"{kind} record: a value nested too deep", line=lineno)
    where = f"{bad.path!r} " if bad.path else ""
    return ParseError(f"{kind} record: {where}{bad}", line=lineno)


@dataclass(frozen=True)
class Scenario:
    """A scenario's records, checked at use; `build()` produces fresh runtime objects.

    It has text of its own only when read-only: `loads_scenario` gives tuples
    and read-only mappings, nested parts included, and keeps its text as
    `source_text`. One made by `Scenario(...)` or `dataclasses.replace` has
    none, so `text()` is its current `dump()`, whatever its maker changes.

    `loads_scenario` also keeps its timeline resolved, as `_specs`: the spec
    of each entry, from `timeline_specs`, which `runner._schedule_timeline`
    queues, so a run of a loaded scenario resolves no entry again. The ids in
    a spec are those `build()` gives, the same on every call. One made
    otherwise has None, and each run resolves its timeline anew.
    """

    programs: Sequence[Mapping] = ()
    widgets: Sequence[Mapping] = ()
    sensors: Sequence[Mapping] = ()
    operations: Sequence[Mapping] = ()
    handlers: Sequence[Mapping] = ()
    config: Mapping = field(default_factory=dict)
    mode: str = "delegation"
    policies: Mapping[str, Sequence[str]] = field(default_factory=dict)  # phase -> rule lines
    timeline: Sequence[Mapping] = ()
    attacks: Sequence[Mapping] = ()
    expects: Sequence[Mapping] = ()
    # set by `loads_scenario` alone, and dropped by `replace`: the text, each kind's record lines in it,
    # and the timeline's specs
    source_text: str = field(default="", init=False, repr=False, compare=False)
    _lines: Mapping[str, Sequence[int]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _specs: tuple[dict, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def text(self) -> str:
        """The scenario as text: the text it was read from, else `dump()`."""
        return self.source_text or self.dump()

    def _lines_of(self, kind: str) -> Iterable[int | None]:
        """The line of each record of `kind`, or None for each if the scenario has no text."""
        return self._lines.get(kind) or repeat(None)

    def engine_config(self, mode: Mode = Mode.DELEGATION, window_override: int | None = None) -> EngineConfig:
        """The settings of the config record, run in `mode`; `window_override` replaces `window_ms`."""
        settings = dict(self.config)
        if window_override is not None:
            settings["window_ms"] = window_override
        return EngineConfig(mode=mode, **settings)

    def build(self) -> tuple[Registry, HandlerTable, dict[str, str]]:
        """Fresh registry + handler table; returns (registry, handlers, name->id).

        Checks every record but the timeline's: a second program of one name or
        a record the registry refuses raises `ParseError`, a name it lacks
        `UnresolvedReference`.
        """
        registry = Registry()
        name_to_id: dict[str, str] = {}
        first_line: dict[str, int | None] = {}
        for p, line in zip(self.programs, self._lines_of("program")):
            first = first_line.setdefault(p["name"], line)
            if p["name"] in name_to_id:
                where = "" if first is None else f"; the first is on line {first}"
                raise ParseError(f"a second program {p['name']!r} record{where}", line=line)
            prog = _check(line, "program", registry.register_program, p["name"], p["mark"], p.get("display"))
            name_to_id[p["name"]] = prog.id
        for w, line in zip(self.widgets, self._lines_of("widget")):
            _check(line, "widget", registry.register_widget,
                   w["label"], WidgetKind(w.get("input", "voice")), w.get("aliases", ()))
        for s, line in zip(self.sensors, self._lines_of("sensor")):
            _check(line, "sensor", registry.register_sensor, s["id"], s.get("phrase", ""))
        for o, line in zip(self.operations, self._lines_of("operation")):
            _check(line, "operation", registry.register_operation,
                   o["op"], o["sensors"], o["phrase"], o.get("first_use_phrase"))
        table = HandlerTable()
        for h, line in zip(self.handlers, self._lines_of("handler")):
            _check(line, "handler", table.add, self._build_handler(h, line, registry, name_to_id))
        for a, line in zip(self.attacks, self._lines_of("attack")):
            _program_id(name_to_id, a["program"], line)
            _compatible(registry, a["op"], a["sensor"], line)
        attack_names = {a["name"] for a in self.attacks}
        for x, line in zip(self.expects, self._lines_of("expect")):
            for name in x.get("attack", {}):
                if name not in attack_names:
                    raise UnresolvedReference(f"expect names unknown attack {name!r}", line=line)
        return registry, table, name_to_id

    def _build_handler(self, h: Mapping, line: int | None, registry: Registry, name_to_id: dict) -> HandlerSpec:
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
        lines = [dump_line({"format": SCENARIO_FORMAT, "version": SCENARIO_VERSION})]
        for kind in _RECORDS:
            for rec in records[kind] if kind in records else getattr(self, f"{kind}s"):
                lines.append(dump_line({"kind": kind, **rec}))
        return "\n".join(lines) + "\n"


def loads_scenario(text: str) -> Scenario:
    """The read-only scenario of `text`, checked as a run checks it; it keeps `text` as its own.

    A line is one record, or blank. Each is decoded by the JSON decoder's
    scanner; only a line the scanner cannot take whole, or that is no object,
    goes through `json.loads`, which names what is wrong with it, or finds
    nothing wrong: a line may end in whitespace, such as the carriage return
    of a CRLF text. The timeline is resolved once, here, and kept as `_specs`.
    """
    if not text:
        raise ParseError("empty scenario file", line=1)
    lines = text.split("\n")
    _check(1, "scenario header", _SCENARIO_HEADER, _parse_json(lines[0], 1))

    config, mode, policies = MappingProxyType({}), "delegation", {}
    records: dict[str, list] = {kind: [] for kind in _RECORDS if kind not in _ONCE}  # the kinds held as lists
    record_lines: dict[str, list[int]] = {kind: [] for kind in records}
    seen: dict[str, int] = {}  # the name of each record that may not repeat -> its line
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            rec, end = _scan(raw, 0)
        except (StopIteration, ValueError, RecursionError):  # no value at the line's start, or a bad one
            rec, end = None, -1
        if end != len(raw) or type(rec) is not dict:
            if not raw.strip():
                continue
            rec = _parse_json(raw, lineno)
        kind = rec.pop("kind", None)
        spec = _RECORDS.get(kind) if type(kind) is str else None
        if spec is None:
            raise ParseError(f"unknown record kind {kind!r}", line=lineno)
        try:  # `_check`, inline: it runs once per record
            spec(rec)
        except (_Bad, RecursionError) as bad:
            raise _misfit(lineno, kind, bad) from None
        if kind in _ONCE:
            single = f"{rec.get('phase', 'main')} policy" if kind == "policy" else kind
            first = seen.setdefault(single, lineno)
            if first != lineno:
                raise ParseError(f"a second {single} record; the first is on line {first}", line=lineno)
        if kind in records:  # an event's entry is flat, so wrapping it is enough
            records[kind].append(MappingProxyType(_normalize_event(rec)) if kind == "event" else _read_only(rec))
            record_lines[kind].append(lineno)
        elif kind == "config":
            _check(lineno, kind, lambda: EngineConfig(**rec))
            config = MappingProxyType(rec)
        elif kind == "mode":
            mode = rec["mode"]
        elif kind == "policy":
            _check(lineno, kind, parse_policy_rules, rec["rules"])
            policies[rec.get("phase", "main")] = tuple(rec["rules"])

    scn = Scenario(**{"timeline" if kind == "event" else f"{kind}s": tuple(recs) for kind, recs in records.items()},
                   config=config, mode=mode, policies=MappingProxyType(policies))
    object.__setattr__(scn, "source_text", text)  # the dataclass is frozen
    object.__setattr__(scn, "_lines", record_lines)
    registry, _table, name_to_id = scn.build()
    object.__setattr__(scn, "_specs", tuple(timeline_specs(scn, registry, name_to_id)))
    return scn


def _read_only(value):
    """The JSON value `value` with its arrays as tuples and its objects as read-only mappings."""
    if type(value) is dict:
        return MappingProxyType({key: _read_only(item) for key, item in value.items()})
    return tuple(map(_read_only, value)) if type(value) is list else value


def load_scenario(path: str | Path) -> Scenario:
    try:
        return loads_scenario(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


# the scanner under `json.loads`: (the value at an index of a string, the index after it)
_scan = json.JSONDecoder().scan_once


def _parse_json(raw: str, lineno: int) -> dict:
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
    except (ValueError, RecursionError) as exc:  # an int of too many digits, or arrays or objects nested too deep
        raise ParseError(f"invalid JSON ({exc})", line=lineno) from None
    if not isinstance(obj, dict):
        raise ParseError("record must be a JSON object", line=lineno)
    return obj


def _normalize_event(rec: dict) -> dict:
    """Event record `rec` made in place into a timeline entry: one flat dict, `from` and `to` as `src` and `dst`."""
    rec.setdefault("phase", "main")
    label = rec.pop("id", None)
    if label:
        rec["label"] = label
    rec["kind"] = kind = "input" if "input" in rec else "handoff" if "handoff" in rec else "request"
    body = rec.pop(kind)
    if kind == "handoff":
        rec["src"], rec["dst"] = body["from"], body["to"]
        rec["provenance"], rec["action"] = body.get("provenance"), body.get("action")
    else:  # the keys of an input's or a request's body are those of its entry
        rec.update(body)
    return rec


def _event_record(e: Mapping) -> dict:
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


def timeline_specs(scn: Scenario, registry: Registry, name_to_id: dict[str, str]) -> Iterator[dict]:
    """Yield the spec of each timeline entry of `scn`, as `Engine.schedule` takes it with the entry's `t`.

    Each entry is checked as it is resolved, and a failure names its line when
    the scenario was loaded. Inputs alike in all but their time share one
    spec, resolved once: a timeline of 15,000 inputs may have a few dozen.
    """
    prev_t, seen_main = -1, False
    labels: dict[str, int | None] = {}  # event id -> its line
    inputs: dict[tuple, dict] = {}  # an input's (phase, id, widget label, program name) -> its spec
    for e, line in zip(scn.timeline, scn._lines_of("event")):
        t, phase, kind = e["t"], e["phase"], e["kind"]
        if t < prev_t:
            raise InvariantViolation("timeline timestamps must be non-decreasing", line=line)
        prev_t = t
        if phase == "main":
            seen_main = True
        elif seen_main:
            raise InvariantViolation("preliminary events must precede main events", line=line)
        label = e.get("label")
        if kind == "input":
            key = (phase, label, e["widget"], e["program"])
            spec = inputs.get(key)
            if spec is None:
                spec = inputs[key] = {"phase": phase, "kind": kind, "widget": _widget_id(registry, e["widget"], line),
                                      "program": _program_id(name_to_id, e["program"], line)}
        elif kind == "handoff":
            spec = {"phase": phase, "kind": kind, "src": _program_id(name_to_id, e["src"], line),
                    "dst": _program_id(name_to_id, e["dst"], line)}
            if e["src"] == e["dst"]:
                raise ParseError(f"event record: a handoff from {e['src']!r} to itself", line=line)
            provenance = e.get("provenance")
            if provenance is not None and provenance not in labels:
                raise UnresolvedReference(f"provenance {provenance!r} does not name an earlier event id", line=line)
            spec["provenance"], spec["action"] = provenance, e.get("action")
        else:
            spec = {"phase": phase, "kind": kind, "program": _program_id(name_to_id, e["program"], line)}
            _compatible(registry, e["op"], e["sensor"], line)
            spec["op"], spec["sensor"] = e["op"], e["sensor"]
        if label:
            if label in labels:
                first = labels[label]
                where = "" if first is None else f"; the first is on line {first}"
                raise ParseError(f"event record: a second event with id {label!r}{where}", line=line)
            labels[label] = line
            spec["label"] = label  # an input's key holds its id, so its spec is its own
        yield spec


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


# -- trace headers -------------------------------------------------------------

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
