"""Scheduler state: per-program two-level queues, tickets, delay accounting.

The delivery gates themselves live in the engine (they consult the graph
store); this module owns the queue mechanics and the statistics the
benchmarks report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

from .errors import Backpressure, InvariantViolation
from .model import MediatedEvent

HIGH = "high"
LOW = "low"

# ticket lifecycle
QUEUED = "queued"
DELIVERED = "delivered"
EXPIRED = "expired"
REJECTED = "rejected"


@dataclass
class KindStats:
    submitted: int = 0
    delivered: int = 0
    delayed: int = 0
    expired: int = 0
    max_delay_ms: int = 0


@dataclass
class DelayStats:
    per_kind: dict[str, KindStats] = field(
        default_factory=lambda: {"input": KindStats(), "handoff": KindStats(), "request": KindStats()}
    )
    derived: KindStats = field(default_factory=KindStats)  # input-derived events only

    @property
    def total_events(self) -> int:
        return sum(k.submitted for k in self.per_kind.values())

    @property
    def delayed_events(self) -> int:
        return sum(k.delayed for k in self.per_kind.values())

    @property
    def expired_events(self) -> int:
        return sum(k.expired for k in self.per_kind.values())

    @property
    def max_delay_ms(self) -> int:
        return max((k.max_delay_ms for k in self.per_kind.values()), default=0)

    def record_submit(self, kind: str, derived: bool) -> None:
        self.per_kind[kind].submitted += 1
        if derived:
            self.derived.submitted += 1

    def record_delivery(self, kind: str, delay: int, derived: bool) -> None:
        ks = self.per_kind[kind]
        ks.delivered += 1
        if delay > 0:
            ks.delayed += 1
            ks.max_delay_ms = max(ks.max_delay_ms, delay)
        if derived:
            self.derived.delivered += 1
            if delay > 0:
                self.derived.delayed += 1
                self.derived.max_delay_ms = max(self.derived.max_delay_ms, delay)

    def record_request(self, derived: bool) -> None:
        """`record_submit` and `record_delivery` of a request in one call: a
        request is delivered as it is submitted, with no delay."""
        ks = self.per_kind["request"]
        ks.submitted += 1
        ks.delivered += 1
        if derived:  # input-derived, like the request's handler run
            self.derived.submitted += 1
            self.derived.delivered += 1

    def record_expiry(self, kind: str, derived: bool) -> None:
        self.per_kind[kind].expired += 1
        if derived:
            self.derived.expired += 1

    def to_dict(self) -> dict:
        return {
            "total_events": self.total_events,
            "delayed_events": self.delayed_events,
            "expired_events": self.expired_events,
            "max_delay_ms": self.max_delay_ms,
            "delayed_fraction": (self.delayed_events / self.total_events) if self.total_events else 0.0,
            "per_kind": {k: asdict(v) for k, v in self.per_kind.items()},
            "derived": asdict(self.derived),
        }


@dataclass(slots=True)
class Ticket:
    """One submitted input or handoff, from admission to the end of the handler
    run its delivery starts in `program_id`."""

    event: MediatedEvent
    program_id: str  # the program it reaches: an input's receiver, a handoff's dst
    derived: bool  # input-derived, so high priority
    # the root whose work this is: a derived handoff's provenance; for an input,
    # the live root it repeats, or from delivery on the root it starts
    root_id: str | None
    deadline: int  # last instant the event may still be delivered
    status: str = QUEUED
    deliver_t: int | None = None
    phase: str = "main"
    cancelled: bool = False  # its handler run was cut off by its root's window

    @property
    def delay(self) -> int:
        return 0 if self.deliver_t is None else self.deliver_t - self.event.t


@dataclass
class ProgramState:
    """Per-program queues; the engine's `_busy_exec` says whether the program is busy."""

    program_id: str
    high: deque = field(default_factory=deque)
    low: deque = field(default_factory=deque)

    def enqueue(self, ticket: Ticket, bound: int, two_level: bool) -> str:
        """Queue `ticket`; returns the queue it joined, HIGH or LOW. Without
        `two_level` every ticket joins the one FIFO, `low`."""
        if len(self.high) + len(self.low) >= bound:
            raise Backpressure(
                f"program {self.program_id} queue bound {bound} exceeded by {ticket.event.event_id}"
            )
        if two_level and ticket.derived:
            self.high.append(ticket)
            return HIGH
        self.low.append(ticket)
        return LOW


# -- handler specifications (scenario-defined program behavior) --------------


@dataclass(frozen=True)
class EmitHandoff:
    to: str  # program id
    after_ms: int
    label: str | None = None


@dataclass(frozen=True)
class EmitRequest:
    op: str
    sensor: str
    after_ms: int


@dataclass(frozen=True)
class Complete:
    after_ms: int


@dataclass(frozen=True)
class HandlerSpec:
    """What a program does when a widget or handoff is delivered to it."""

    program_id: str
    trigger_kind: str  # "widget" | "handoff"
    trigger_value: str  # widget id, or handoff action label ("*" matches any)
    actions: tuple = ()  # EmitHandoff / EmitRequest, time-ordered
    complete: Complete = Complete(after_ms=0)

    def validate(self) -> None:
        # strict path ordering needs emissions at least 1 ms after delivery
        if any(a.after_ms < 1 for a in self.actions):
            raise InvariantViolation(f"handler for {self.program_id}: emission lag must be >= 1 ms")
        if self.complete.after_ms < max((a.after_ms for a in self.actions), default=0):
            raise InvariantViolation(f"handler for {self.program_id}: complete lag must cover all action lags")


class HandlerTable:
    """Lookup of handlers by (program, trigger)."""

    def __init__(self, specs: list[HandlerSpec] | None = None):
        self._table: dict[tuple[str, str, str], HandlerSpec] = {}
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: HandlerSpec) -> None:
        spec.validate()
        key = (spec.program_id, spec.trigger_kind, spec.trigger_value)
        if key in self._table:
            raise InvariantViolation(f"duplicate handler for {key}")
        self._table[key] = spec

    def __iter__(self):
        """The specs, in the order they were added."""
        return iter(self._table.values())

    def lookup(self, program_id: str, trigger_kind: str, trigger_value: str) -> HandlerSpec | None:
        spec = self._table.get((program_id, trigger_kind, trigger_value))
        if spec is None and trigger_kind == "handoff":
            spec = self._table.get((program_id, "handoff", "*"))
        return spec
