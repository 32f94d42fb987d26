"""Domain model: programs, widgets, sensors, operations, and mediated events.

The registry is populated once during scenario load and read-only afterwards.
All mediated events reference registry objects by id. Their constructors
check nothing: `Registry.validate_event` rejects references that do not
resolve, and the engine calls it where events enter (`Engine.submit`, each
timeline entry as it is admitted, and each event a handler can emit once,
when the engine is built), so malformed tuples never reach the graph or
scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterable, Union

from .errors import (
    AliasCollision,
    DuplicateProgram,
    EmptyName,
    InvariantViolation,
    UnknownWidget,
)


class WidgetKind(str, Enum):
    GUI = "gui"
    VOICE = "voice"


def normalize_label(label: str) -> str:
    """Canonical widget-label form: collapsed whitespace, casefolded."""
    return " ".join(label.split()).casefold()


@dataclass(frozen=True)
class Program:
    id: str
    name: str
    identity_mark: str
    display: str  # phrase used inside delegation prompts, e.g. "the Basic Camera app"


@dataclass(frozen=True)
class Widget:
    id: str  # normalized canonical label; unique by alias disjointness
    kind: WidgetKind
    label: str  # canonical label as declared
    aliases: frozenset[str]  # normalized, includes the canonical label


@dataclass(frozen=True)
class Sensor:
    id: str
    phrase: str = ""  # optional noun phrase for prompts ("content on the screen")


@dataclass(frozen=True)
class Operation:
    op: str
    sensors: frozenset[str]
    phrase: str  # verb phrase for delegation prompts ("capture pictures")
    first_use_phrase: str  # phrase for first-use prompts; defaults to composed form


@dataclass(frozen=True)
class InputEvent:
    kind: ClassVar[str] = "input"
    event_id: str
    widget_id: str
    program_id: str  # receiver
    t: int


@dataclass(frozen=True)
class HandoffEvent:
    kind: ClassVar[str] = "handoff"
    event_id: str
    src: str
    dst: str
    t: int
    provenance: str | None = None  # event_id of the originating input, if any
    action: str | None = None  # routing label for handler matching (plumbing)


@dataclass(frozen=True)
class OperationRequest:
    kind: ClassVar[str] = "request"
    event_id: str
    program_id: str  # requester
    op: str
    sensor: str
    t: int


MediatedEvent = Union[InputEvent, HandoffEvent, OperationRequest]


@dataclass
class Registry:
    """Write-once store of programs, widgets, sensors, and operations."""

    programs: dict[str, Program] = field(default_factory=dict)
    widgets: dict[str, Widget] = field(default_factory=dict)
    sensors: dict[str, Sensor] = field(default_factory=dict)
    operations: dict[str, Operation] = field(default_factory=dict)
    _by_name_mark: dict[tuple[str, str], str] = field(default_factory=dict)
    _alias_index: dict[str, str] = field(default_factory=dict)  # normalized alias -> widget id

    # -- programs --------------------------------------------------------

    def register_program(self, name: str, identity_mark: str, display: str | None = None) -> Program:
        if not name:
            raise EmptyName("program name must be non-empty")
        if not identity_mark:
            raise EmptyName("program identity mark must be non-empty")
        key = (name, identity_mark)
        if key in self._by_name_mark:
            raise DuplicateProgram(f"program {name!r} with mark {identity_mark!r} already registered")
        pid = f"P{len(self.programs) + 1}"  # no program is ever removed
        prog = Program(id=pid, name=name, identity_mark=identity_mark, display=display or name)
        self.programs[pid] = prog
        self._by_name_mark[key] = pid
        return prog

    def program(self, program_id: str) -> Program:
        try:
            return self.programs[program_id]
        except KeyError:
            raise InvariantViolation(f"unknown program id {program_id!r}") from None

    def program_by_name(self, name: str) -> Program:
        for prog in self.programs.values():
            if prog.name == name:
                return prog
        raise InvariantViolation(f"no program named {name!r}")

    # -- widgets ---------------------------------------------------------

    def register_widget(self, label: str, kind: WidgetKind, aliases: Iterable[str] = ()) -> Widget:
        if not label or not label.strip():
            raise EmptyName("widget label must be non-empty")
        canon = normalize_label(label)
        all_aliases = {canon} | {normalize_label(a) for a in aliases}
        for alias in sorted(all_aliases):
            if alias in self._alias_index:
                other = self._alias_index[alias]
                raise AliasCollision(f"alias {alias!r} already resolves to widget {other!r}")
        widget = Widget(id=canon, kind=kind, label=label.strip(), aliases=frozenset(all_aliases))
        self.widgets[widget.id] = widget
        for alias in all_aliases:
            self._alias_index[alias] = widget.id
        return widget

    def resolve_widget(self, label: str) -> Widget:
        wid = self._alias_index.get(normalize_label(label))
        if wid is None:
            raise UnknownWidget(f"no widget resolves {label!r}")
        return self.widgets[wid]

    def widget(self, widget_id: str) -> Widget:
        try:
            return self.widgets[widget_id]
        except KeyError:
            raise InvariantViolation(f"unknown widget id {widget_id!r}") from None

    # -- sensors and operations ------------------------------------------

    def register_sensor(self, sensor_id: str, phrase: str = "") -> Sensor:
        if not sensor_id:
            raise EmptyName("sensor id must be non-empty")
        if sensor_id in self.sensors:
            raise InvariantViolation(f"sensor {sensor_id!r} already registered")
        sensor = Sensor(id=sensor_id, phrase=phrase)
        self.sensors[sensor_id] = sensor
        return sensor

    def register_operation(
        self,
        op: str,
        sensors: Iterable[str],
        phrase: str,
        first_use_phrase: str | None = None,
    ) -> Operation:
        if not op:
            raise EmptyName("operation token must be non-empty")
        if op in self.operations:
            raise InvariantViolation(f"operation {op!r} already registered")
        sensor_set = frozenset(sensors)
        if not sensor_set:
            raise InvariantViolation(f"operation {op!r} must be compatible with at least one sensor")
        for sid in sorted(sensor_set):
            if sid not in self.sensors:
                raise InvariantViolation(f"operation {op!r} names unknown sensor {sid!r}")
        if first_use_phrase is None:
            first_use_phrase = self.compose_request_phrase_parts(phrase, "")
        operation = Operation(op=op, sensors=sensor_set, phrase=phrase, first_use_phrase=first_use_phrase)
        self.operations[op] = operation
        return operation

    def operation(self, op: str) -> Operation:
        try:
            return self.operations[op]
        except KeyError:
            raise InvariantViolation(f"unknown operation {op!r}") from None

    def sensor(self, sensor_id: str) -> Sensor:
        try:
            return self.sensors[sensor_id]
        except KeyError:
            raise InvariantViolation(f"unknown sensor {sensor_id!r}") from None

    def compatible(self, op: str, sensor_id: str) -> bool:
        operation = self.operations.get(op)
        return operation is not None and sensor_id in operation.sensors

    @staticmethod
    def compose_request_phrase_parts(op_phrase: str, sensor_phrase: str) -> str:
        if sensor_phrase:
            return f"{op_phrase} the {sensor_phrase}"
        return op_phrase

    def request_phrase(self, op: str, sensor_id: str) -> str:
        """Delegation-prompt phrase for one (op, sensor) pair."""
        return self.compose_request_phrase_parts(self.operation(op).phrase, self.sensor(sensor_id).phrase)

    # -- event validation --------------------------------------------------

    def validate_event(self, ev: MediatedEvent) -> None:
        """Reject malformed tuples before they reach downstream modules."""
        if ev.t < 0:
            raise InvariantViolation(f"event {ev.event_id} has negative timestamp")
        if isinstance(ev, InputEvent):
            if ev.program_id not in self.programs:
                raise InvariantViolation(f"input {ev.event_id} targets unknown program {ev.program_id!r}")
            if ev.widget_id not in self.widgets:
                raise InvariantViolation(f"input {ev.event_id} uses unknown widget {ev.widget_id!r}")
        elif isinstance(ev, HandoffEvent):
            if ev.src == ev.dst:
                raise InvariantViolation(f"handoff {ev.event_id} has src == dst")
            for pid in (ev.src, ev.dst):
                if pid not in self.programs:
                    raise InvariantViolation(f"handoff {ev.event_id} names unknown program {pid!r}")
        else:
            if ev.program_id not in self.programs:
                raise InvariantViolation(f"request {ev.event_id} from unknown program {ev.program_id!r}")
            if not self.compatible(ev.op, ev.sensor):
                raise InvariantViolation(
                    f"request {ev.event_id} pairs incompatible op/sensor ({ev.op!r}, {ev.sensor!r})"
                )
