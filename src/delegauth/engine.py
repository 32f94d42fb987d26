"""Deterministic engine that mediates events and sensor requests.

Single event loop over a virtual millisecond clock. Occurrences (timeline
submissions, handler actions, completions, window expiries, hold deadlines)
are processed in (time, sequence) order, so identical inputs always produce
identical transcripts. Each is queued as one entry `(t, seq, fire, arg)`,
and processing it is the call `fire(arg)`; `seq` is unique across all
entries, so no comparison reaches `fire`. Timeline submissions come in time
order, so they wait in their own FIFO; the heap holds only the occurrences a
run creates, and the loop takes whichever head is earlier in (time, sequence).

`EngineConfig.mode` picks one of three behaviours (`Mode`):
  * PASS_THROUGH: the unmediated baseline; every event is delivered at once,
    no graph is built and no request is authorized;
  * FIRST_USE: the first-use baseline; events are delivered at once and each
    (program, op, sensor) triple prompts the first time it is requested;
  * DELEGATION: EnTrust; graphs, path prompts and, with `EngineConfig.scheduler`,
    the delivery gates. Without them a request may reach two live roots and be
    denied as ambiguous.

The delivery gates realize the ambiguity-prevention rules:
  * a program processes one event at a time (busy exclusivity);
  * a fresh input is delivered only when the target belongs to no live root
    graph; same-key inputs ride along as repeats;
  * an input-derived handoff is delivered only when the target is idle and
    belongs to no *other* live root graph;
  * pending events wait in per-program two-level queues (input-derived =
    high) and expire rather than deliver late.

An input or handoff whose target is idle with both queues empty, the
common case, is gated and settled as it is admitted: delivered, rejected or
expired there, never queued. Only a ticket the gates block, or one that
finds its program busy or other tickets queued, joins a queue.

Every fresh input roots a graph and queues the root's expiry for the
instant after its window closes, where the root seals. The expiry does more
only for a root that leaves something to do (`_fire_root_expiry`); most
roots, one member and no events, leave nothing, and write no line: a seal
shows in the trace only through what it causes.

Requests are attributed through graph membership only, mirroring what an
OS-level reference monitor can actually observe.

Each event is checked against the registry once, at the door it enters by:
`submit` checks an outside event, `_admit_spec` a timeline entry once its
event is built, and construction checks each event the handlers can emit,
since every event a handler emits is built from one of its actions.

A traced run hands each record to its `trace` callable as one line, numbered
by `_emit` and written by the record's encoder in `trace`, the module that
holds the whole trace format; an untraced run builds no line. An event
settled as it is admitted gets one `admit` record, written once `_admit`
knows how it was settled; a handler run that ends on its own writes no line.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum

from .auth import (
    ALLOWED,
    CACHED,
    DENIED,
    EXPIRED,
    NO_ATTRIBUTION,
    POLICY,
    PROMPTED,
    AuthorizationCache,
    Decision,
    prompt_marks,
    render_first_use_prompt,
    render_prompt,
)
from .errors import (
    AmbiguousAttribution,
    Backpressure,
    BrokenChain,
    InvariantViolation,
    NoAttributableInput,
    ProtocolViolation,
    UnattributableHandoff,
)
from .graph import GraphStore, PathKey
from .model import (
    HandoffEvent,
    InputEvent,
    MediatedEvent,
    OperationRequest,
    Registry,
)
from .scheduler import (
    DELIVERED,
    EXPIRED as T_EXPIRED,
    QUEUED,
    REJECTED,
    DelayStats,
    EmitHandoff,
    EmitRequest,
    HandlerTable,
    ProgramState,
    Ticket,
)
from .trace import (
    admit_line, complete_line, decided_admit_line, decision_line, deliver_line, expire_line, handoff_line, hold_line,
    missed_request_line, prompt_line,
)


class Mode(Enum):
    """What the engine mediates; see the module docstring."""

    PASS_THROUGH = "pass_through"
    FIRST_USE = "first_use"
    DELEGATION = "delegation"


@dataclass
class EngineConfig:
    """Settings of one engine. Every field but `mode` is a key of a scenario's
    config record, under its own name (`Scenario.engine_config`). `mode` is
    read once, when the engine is built. `scheduler` is read only in
    DELEGATION: the other modes keep no graphs and so hold nothing, and
    `scheduler=False` runs them exactly as `True` does."""

    window_ms: int = 150
    default_lag_ms: int = 5  # service time of a delivery no handler answers
    queue_bound: int = 1024
    two_level: bool = True  # two-level priority scheduling of pending events
    cache_denials: bool = False
    scheduler: bool = True  # in DELEGATION, the delivery gates, queues and busy exclusivity
    mode: Mode = Mode.DELEGATION

    def __post_init__(self) -> None:
        for f in fields(self):  # annotations are strings here; exact type, so a bool is no int
            if type(getattr(self, f.name)).__name__ != f.type:
                raise InvariantViolation(f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}")
        if self.window_ms <= 0:
            raise InvariantViolation("window_ms must be > 0")
        if self.default_lag_ms < 0:
            raise InvariantViolation("default_lag_ms must be >= 0")
        if self.queue_bound < 1:
            raise InvariantViolation("queue_bound must be >= 1")


class Engine:
    """Drives one simulation run; see module docstring."""

    def __init__(
        self,
        registry: Registry,
        handlers: HandlerTable | None = None,
        config: EngineConfig | None = None,
        authorizers: dict | None = None,
        cache: AuthorizationCache | None = None,
        trace=None,
    ):
        self.registry = registry
        self.handlers = handlers or HandlerTable()
        self.config = config or EngineConfig()
        self.authorizers = authorizers or {}
        self.cache = cache or AuthorizationCache()
        self.store = GraphStore(self.config.window_ms)
        self.stats = DelayStats()
        # every event a handler emits is one of these but for its id and time:
        # each is checked once, not once per action that emits it
        for example in dict.fromkeys(
            HandoffEvent(f"from {spec.program_id}'s handlers", spec.program_id, action.to, 0)
            if isinstance(action, EmitHandoff)
            else OperationRequest(f"from {spec.program_id}'s handlers", spec.program_id, action.op, action.sensor, 0)
            for spec in self.handlers for action in spec.actions
        ):
            registry.validate_event(example)

        self._graphs = self.config.mode is Mode.DELEGATION  # graphs and path prompts
        self._holds = self._graphs and self.config.scheduler  # delivery gates, queues, busy exclusivity

        self.now = 0
        self._trace = trace
        self._trace_seq = 0
        self._timeline: deque = deque()  # scheduled submissions, in (time, sequence) order
        self._timeline_t = 0  # time of the last scheduled submission
        self._heap: list = []  # occurrences the run creates
        self._occ_seq = 0  # sequence of timeline and heap entries alike
        self._event_seq = 0
        self._programs: dict[str, ProgramState] = {}
        # exactly the programs with a non-empty queue, and so the only ones
        # `_try_dispatch` runs on: `_admit` adds a program as it queues a ticket,
        # and `_try_dispatch`, where tickets leave queues, discards it when empty
        self._waiting: set[str] = set()
        self._rank: dict[str, int] = {}  # program -> registration order
        self._busy_exec: dict[str, Ticket] = {}  # busy program -> the ticket whose handler it runs
        self._root_tickets: dict[str, list[Ticket]] = {}  # root -> the derived tickets held for it
        self._label_ids: dict[str, str] = {}
        self._pending: dict[str, dict[PathKey, list[OperationRequest]]] = {}  # root -> its requests on new paths
        self._keys: dict[PathKey, PathKey] = {}  # each path key mediated so far, to itself

        self.decisions: list[Decision] = []
        self.prompts: list[dict] = []
        self.ambiguous_requests = 0
        self.backpressure_rejections = 0

    # -- plumbing -------------------------------------------------------------

    def next_event_id(self) -> str:
        self._event_seq += 1
        return f"e{self._event_seq}"

    def _emit(self, line, *fields) -> None:
        # every caller checks `self._trace` first, so an untraced run builds no line
        self._trace_seq += 1
        self._trace(line(self._trace_seq, self.now, *fields))

    def _authorizer(self, phase: str):
        auth = self.authorizers.get(phase)
        if auth is None:
            raise InvariantViolation(f"no authorizer configured for phase {phase!r}")
        return auth

    # -- public surface ----------------------------------------------------------

    def schedule(self, t: int, spec: dict) -> None:
        """Queue a timeline entry for admission at virtual time t.

        Entries wait in a FIFO that the loop merges with the heap by (time,
        sequence), so they must come in time order: a `t` earlier than the
        clock or than the entry scheduled before it raises ProtocolViolation.
        The entry's event is checked against the registry when it is admitted.
        """
        if t < self._timeline_t or t < self.now:
            raise ProtocolViolation(
                f"cannot schedule at t={t}: the timeline is at t={self._timeline_t}, the clock at t={self.now}"
            )
        self._timeline_t = t
        self._occ_seq += 1
        self._timeline.append((t, self._occ_seq, self._admit_spec, spec))

    def submit(self, event: MediatedEvent, phase: str = "main") -> Ticket | None:
        """Admit an event now (advancing the clock to event.t first).

        Returns the ticket of an input or a handoff. A request is decided at
        admission, so it gets none: None. An event the registry rejects raises
        InvariantViolation before the clock moves.
        """
        if event.t < self.now:
            raise ProtocolViolation(f"cannot submit {event.event_id} in the past")
        self.registry.validate_event(event)
        self._run_until(event.t)
        self.now = max(self.now, event.t)
        return self._admit(event, phase=phase)

    def advance(self, to: int) -> None:
        """Process everything due up to and including virtual time `to`."""
        if to < self.now:
            raise ProtocolViolation("cannot advance backwards")
        self._run_until(to)
        self.now = max(self.now, to)

    def run_to_quiescence(self) -> int:
        self._run_until(math.inf)
        return self.now

    def prompt_count(self, phase: str | None = None) -> int:
        if phase is None:
            return len(self.prompts)
        return sum(1 for p in self.prompts if p["phase"] == phase)

    # -- event loop -----------------------------------------------------------------

    def _run_until(self, t_limit: float) -> None:
        """Process every occurrence due by `t_limit`, timeline and heap merged."""
        timeline, heap = self._timeline, self._heap
        while True:
            if timeline and (not heap or timeline[0] < heap[0]):
                if timeline[0][0] > t_limit:
                    return
                t, _, fire, arg = timeline.popleft()
            elif heap and heap[0][0] <= t_limit:
                t, _, fire, arg = heapq.heappop(heap)
            else:
                return
            if t < self.now:
                raise InvariantViolation("clock went backwards")
            self.now = t
            fire(arg)

    # -- admission ------------------------------------------------------------------

    def _admit_spec(self, spec: dict) -> None:
        """Build the typed event for a timeline entry and admit it."""
        phase = spec.get("phase", "main")
        self._event_seq += 1  # the id `next_event_id` would give
        eid = f"e{self._event_seq}"
        if spec.get("label"):
            self._label_ids[spec["label"]] = eid
        kind = spec["kind"]
        if kind == "input":
            ev: MediatedEvent = InputEvent(
                event_id=eid, widget_id=spec["widget"], program_id=spec["program"], t=self.now
            )
        elif kind == "handoff":
            prov = spec.get("provenance")
            if prov is not None:
                resolved = self._label_ids.get(prov)
                if resolved is None:
                    raise InvariantViolation(f"handoff provenance label {prov!r} never submitted")
                prov = resolved
            ev = HandoffEvent(
                event_id=eid,
                src=spec["src"],
                dst=spec["dst"],
                t=self.now,
                provenance=prov,
                action=spec.get("action"),
            )
        else:
            ev = OperationRequest(
                event_id=eid, program_id=spec["program"], op=spec["op"], sensor=spec["sensor"], t=self.now
            )
        self.registry.validate_event(ev)
        try:
            self._admit(ev, phase=phase)
        except Backpressure:
            pass  # rejection recorded; the run continues

    def _admit(self, ev: MediatedEvent, phase: str, derived_root: str | None = None) -> Ticket | None:
        """Admit an event at the current instant; returns its ticket, or None for a request.

        A request is mediated at once. Without holds, an input or handoff is
        delivered at once; with them, a repeat input is too. Any other ticket
        whose program is idle with empty queues is gated here and settled,
        unless the gate blocks it: an input on the one scan of `_input_gate`
        that found it no repeat, a handoff by `_gate`. A blocked ticket, or one
        that finds its program busy or tickets queued, joins a queue: it is
        held until `_try_dispatch` settles it or its deadline expires it.
        The admit record is written once the ticket is delivered or found
        not to be, so a delivery at admission is part of it.
        """
        kind = ev.kind

        if kind == "request":
            derived = derived_root is not None
            self.stats.record_request(derived)
            self._mediate_request(ev, phase, derived)
            return None

        if kind == "input":
            program_id, derived, root_id = ev.program_id, True, None
        else:
            program_id, root_id = ev.dst, ev.provenance
            derived = root_id is not None
            if derived and self._holds:
                g = self.store.live.get(root_id)
                if g is None or not g.live_at(self.now):
                    # provenance died before admission: downgrade to plain busy work
                    if self._trace is not None:
                        self._emit(handoff_line, ev.event_id, root_id, "unattributable")
                    derived, root_id = False, None

        ticket = Ticket(
            event=ev, program_id=program_id, derived=derived, root_id=root_id,
            deadline=ev.t + self.config.window_ms, phase=phase,
        )
        self.stats.record_submit(kind, derived)

        # without holds, and for an immediate repeat, which bypasses queues and
        # busy exclusivity, a ticket is delivered as it is admitted
        verdict = "deliver"
        if self._holds:
            if kind == "input":
                ticket.root_id, blocked = self._input_gate(ev)
            if kind != "input" or ticket.root_id is None:  # no repeat
                state = self._programs.get(program_id)
                idle = program_id not in self._busy_exec and (state is None or not (state.high or state.low))
                if not idle:
                    verdict = "blocked"
                elif kind == "input":
                    # no deadline has passed at admission, so an input's verdict is its scan's
                    verdict = "blocked" if blocked else "deliver"
                else:
                    verdict = self._gate(ticket)
                if verdict != "blocked":
                    # the deadline takes its sequence number now, before delivery or
                    # dispatch pushes anything, but enters the heap only if the ticket
                    # is held; so the numbers of later entries do not depend on
                    # whether a ticket was held
                    self._occ_seq += 1  # the number of a deadline never pushed
        outcome = self._deliver(ticket) if verdict == "deliver" else None
        if self._trace is not None:
            self._emit(admit_line, ev, derived, phase, verdict == "deliver", outcome)
        if verdict != "blocked":
            if verdict != "deliver":
                self._settle(ticket, verdict)
            return ticket

        if state is None:
            state = self._programs[program_id] = ProgramState(program_id=program_id)
        try:
            queue = state.enqueue(ticket, self.config.queue_bound, self.config.two_level)
        except Backpressure:
            ticket.status = REJECTED
            self.backpressure_rejections += 1
            if self._trace is not None:
                self._emit(expire_line, ev.event_id, "backpressure")
            raise
        self._waiting.add(state.program_id)
        if derived and root_id is not None:
            self._root_tickets.setdefault(root_id, []).append(ticket)
        self._occ_seq += 1
        deadline_seq = self._occ_seq
        if not idle:  # the new ticket may head the queues, or find a head that time unblocked
            self._try_dispatch(state)
        if ticket.status == QUEUED:
            heapq.heappush(self._heap, (ticket.deadline + 1, deadline_seq, self._fire_deadline, ticket))
            if self._trace is not None:
                self._emit(hold_line, ev.event_id, state.program_id, queue)
        return ticket

    # -- dispatch ----------------------------------------------------------------------

    def _next_ticket(self, state: ProgramState) -> deque | None:
        """The queue whose head is the program's next ticket, high before low;
        None when both are empty. Tickets that left by expiry are dropped here."""
        for queue in (state.high, state.low):
            while queue and queue[0].status != QUEUED:
                queue.popleft()
            if queue:
                return queue
        return None

    def _input_gate(self, ev: InputEvent) -> tuple[str | None, bool]:
        """One pass over the live roots of an input's program: the root the
        input repeats, if any, and whether the gate blocks it.

        The input repeats a root its program received on the input's widget,
        and is delivered with it. Otherwise it is blocked while its program is
        in any live root. With holds a program is in at most one live root, so
        at most one matches.
        """
        now, live = self.now, self.store.live
        blocked = False
        for root_id in self.store.membership.get(ev.program_id, ()):
            g = live[root_id]
            if g.deadline >= now:  # `g.live_at(now)`
                if g.root.program_id == ev.program_id and g.root.widget_id == ev.widget_id:
                    return root_id, False
                blocked = True
        return None, blocked

    def _gate(self, ticket: Ticket) -> str:
        """Delivery verdict for the head-of-queue ticket of an idle program.

        `deliver`, `blocked`, or the reason the ticket is dropped:
        `hold_deadline`, `root_expired` or `merge_rejected`. An input is
        gated by `_input_gate`, which also sets `ticket.root_id` to the root
        it repeats. A new input whose program is idle with empty queues is
        not gated here: `_admit` settles it on the scan it has already made.
        """
        if self.now > ticket.deadline:
            return "hold_deadline"  # bounded delay: never delivered late, even if just unblocked
        ev = ticket.event
        if ev.kind == "input":
            ticket.root_id, blocked = self._input_gate(ev)
            return "blocked" if blocked else "deliver"
        if ticket.derived:
            return self.store.attachability(ev, ticket.root_id, self.now)
        return "deliver"

    def _try_dispatch(self, state: ProgramState) -> None:
        """Deliver or drop head tickets until the program is busy or its head is blocked.

        Called only for a program in `_waiting`: any other has empty queues, so
        there is nothing to dispatch. It leaves `_waiting` here once both of its
        queues are empty."""
        while state.program_id not in self._busy_exec:
            queue = self._next_ticket(state)
            if queue is None:
                break
            ticket = queue[0]
            verdict = self._gate(ticket)
            if verdict == "blocked":
                break  # strict priority: never skip past a blocked high head
            queue.popleft()
            self._settle(ticket, verdict)
        if not (state.high or state.low):
            self._waiting.discard(state.program_id)

    def _settle(self, ticket: Ticket, verdict: str) -> None:
        """Act on a verdict of `_gate` other than `blocked`: deliver the ticket
        from its queue, reject it as `merge_rejected`, or expire it for the
        reason given. `_admit` delivers a ticket settled at admission itself."""
        if verdict == "deliver":
            outcome = self._deliver(ticket)
            if self._trace is not None:
                ev = ticket.event
                self._emit(deliver_line, ev.event_id, ticket.program_id, ticket.delay, ev.kind)
                if outcome is not None:
                    self._emit(handoff_line, ev.event_id, ticket.root_id, outcome)
        elif verdict == "merge_rejected":
            ticket.status = REJECTED
            if self._trace is not None:
                self._emit(handoff_line, ticket.event.event_id, ticket.root_id, verdict)
        else:
            self._expire_ticket(ticket, verdict)

    def _expire_ticket(self, ticket: Ticket, reason: str) -> None:
        ticket.status = T_EXPIRED
        self.stats.record_expiry(ticket.event.kind, ticket.derived)
        if self._trace is not None:
            self._emit(expire_line, ticket.event.event_id, reason)

    # -- delivery ------------------------------------------------------------------------

    def _deliver(self, ticket: Ticket) -> str | None:
        """Deliver a ticket's event: record the delivery, attach the event to its
        root or root a graph, then start the handler of the program it reaches.

        Returns a handoff's outcome in DELEGATION, and None otherwise. It
        writes no line: its caller knows whether the delivery is part of the
        ticket's admit record."""
        ev = ticket.event
        program_id, root_id = ticket.program_id, ticket.root_id
        ticket.status = DELIVERED
        ticket.deliver_t = now = self.now
        self.stats.record_delivery(ev.kind, ticket.delay, ticket.derived)
        outcome = None

        if ev.kind == "input":
            # a repeat (`_input_gate`, so only with holds) joins its root and keeps
            # its receiver busy only if idle; a fresh input roots a graph, whose
            # window closes with the input's ticket's
            occupies_busy = root_id is None or program_id not in self._busy_exec
            if root_id is not None:
                self.store.record_repeat_input(root_id, ev)
            elif self._graphs:
                ticket.root_id = root_id = self.store.record_input(ev, delivered_at=now)
                self._occ_seq += 1
                heapq.heappush(self._heap, (ticket.deadline + 1, self._occ_seq,
                                            self._fire_root_expiry, (root_id, ticket.phase)))
            spec = self.handlers.lookup(program_id, "widget", ev.widget_id)
        else:
            occupies_busy = True
            if self._graphs:
                outcome = "unattributable"  # also the outcome of a handoff of no root
                if ticket.derived:
                    try:
                        self.store.record_handoff(ev, delivered_at=now)
                        outcome = "attached"
                    except AmbiguousAttribution:
                        outcome = "merge_rejected"
                    except BrokenChain:
                        outcome = "broken_chain"
                    except UnattributableHandoff:
                        pass
                if ticket.derived and outcome != "attached":
                    return outcome  # attach refused: the message does not reach a handler
            spec = self.handlers.lookup(program_id, "handoff", "*" if ev.action is None else ev.action)

        if occupies_busy and self._holds:
            self._busy_exec[program_id] = ticket
        # the handler's entries, each numbered as it is pushed
        heap, push, seq = self._heap, heapq.heappush, self._occ_seq
        if spec is None:
            complete_t = now + self.config.default_lag_ms
        else:
            for action in spec.actions:
                seq += 1
                push(heap, (now + action.after_ms, seq, self._fire_action, (ticket, action)))
            complete_t = now + spec.complete.after_ms
        self._occ_seq = seq = seq + 1
        push(heap, (complete_t, seq, self._fire_complete, ticket))
        return outcome

    # -- handler execution ------------------------------------------------------------------

    def _fire_action(self, ticket_action: tuple[Ticket, EmitHandoff | EmitRequest]) -> None:
        ticket, action = ticket_action
        if ticket.cancelled:
            return
        if isinstance(action, EmitHandoff):
            ev = HandoffEvent(
                event_id=self.next_event_id(),
                src=ticket.program_id,
                dst=action.to,
                t=self.now,
                provenance=ticket.root_id,
                action=action.label,
            )
            try:
                self._admit(ev, phase=ticket.phase)
            except Backpressure:
                pass  # rejection already recorded
        elif isinstance(action, EmitRequest):
            ev = OperationRequest(
                event_id=self.next_event_id(),
                program_id=ticket.program_id,
                op=action.op,
                sensor=action.sensor,
                t=self.now,
            )
            self._admit(ev, phase=ticket.phase, derived_root=ticket.root_id)

    def _fire_complete(self, ticket: Ticket) -> None:
        # a run that ends on its own writes no line: the trace gives its end
        # time from its delivery and its handler, as `trace` says
        if ticket.cancelled:
            return
        if self._busy_exec.get(ticket.program_id) is ticket:
            del self._busy_exec[ticket.program_id]
            if ticket.program_id in self._waiting:
                self._try_dispatch(self._programs[ticket.program_id])

    # -- expiries ---------------------------------------------------------------------------

    def _fire_deadline(self, ticket: Ticket) -> None:
        if ticket.status != QUEUED:
            return
        self._expire_ticket(ticket, "hold_deadline")
        self._try_dispatch(self._programs[ticket.program_id])  # still queued, so in `_waiting`

    def _fire_root_expiry(self, root: tuple[str, str]) -> None:
        """Seal a root the instant after its window closes, and settle what it leaves.

        Every root seals, with no line of its own. Each further step runs only
        when there is something for it, and writes the lines that show the
        seal: a root with requests on new paths keeps its snapshot and prompts;
        its held tickets expire; the handler runs it keeps busy are cut off;
        and the waiting programs are dispatched.
        """
        root_id, phase = root  # the root, and the phase of the input that rooted it
        pending = self._pending.pop(root_id, None)
        # only a root that will prompt needs its snapshot: it goes into the cache
        self.store.expire_graph(root_id, self.now, snapshot=pending is not None)
        if pending is not None:
            self._flush_root(root_id, phase, pending)
        tickets = self._root_tickets.pop(root_id, None)
        if tickets is not None:
            for ticket in tickets:
                if ticket.status == QUEUED:
                    self._expire_ticket(ticket, "root_expired")
        if self._busy_exec:
            for pid, busy in list(self._busy_exec.items()):
                if busy.root_id == root_id:
                    busy.cancelled = True
                    if self._trace is not None:
                        self._emit(complete_line, busy.event.event_id, pid, "window_backstop")
                    del self._busy_exec[pid]
        # the sealed root, its dropped tickets and its freed programs can unblock
        # any waiting program, inside the root or not; the others have nothing queued
        if self._waiting:
            for pid in sorted(self._waiting, key=self._registration_rank):
                self._try_dispatch(self._programs[pid])

    def _registration_rank(self, program_id: str) -> int:
        rank = self._rank.get(program_id)
        if rank is None:  # registered after the last refresh
            self._rank = {pid: i for i, pid in enumerate(self.registry.programs)}
            rank = self._rank[program_id]
        return rank

    # -- authorization ------------------------------------------------------------------------

    def _mediate_request(self, r: OperationRequest, phase: str, derived: bool) -> None:
        """Decide request `r` at admission, or leave it to its root's prompt.

        In DELEGATION a request decided here, `derived` or not, is written as
        one record, by `_decide`. Any other request has its admit record
        written here, and in DELEGATION the `request` record of its miss.
        """
        if self._graphs:
            try:
                root_id = self.store.record_request(r)
            except NoAttributableInput as exc:
                self._decide(DENIED, EXPIRED if exc.expired else NO_ATTRIBUTION, r, phase, derived=derived)
                return
            except AmbiguousAttribution:
                self.ambiguous_requests += 1
                self._decide(DENIED, NO_ATTRIBUTION, r, phase, detail="ambiguous", derived=derived)
                return
            key = self.store.compute_path(r)
            key = self._keys.setdefault(key, key)  # so decisions on one path share one key
            cached = self.cache.lookup(key)
            if cached == "allow":
                self._decide(ALLOWED, CACHED, r, phase, root_id, key, derived=derived)
                return
            if cached == "deny" and self.config.cache_denials:
                self._decide(DENIED, POLICY, r, phase, root_id, key, derived=derived)
                return
            evicted = self.cache.invalidate_conflicting(key)
            self._pending.setdefault(root_id, {}).setdefault(key, []).append(r)
        if self._trace is not None:
            self._emit(admit_line, r, derived, phase)
            if self._graphs:
                self._emit(missed_request_line, r.event_id, root_id, evicted)
        if self.config.mode is Mode.FIRST_USE:
            self._first_use_decide(r, phase)

    def _first_use_decide(self, r: OperationRequest, phase: str) -> None:
        """Prompt about the program alone, under no widget, unless the cache holds a grant of that key;
        a grant is cached with an empty graph snapshot, a denial is not. A widget labelled `*` gives the
        same key in DELEGATION: no run mixes modes, but a cache imported from the other mode could collide."""
        key = PathKey("*", (r.program_id,), r.op, r.sensor)
        if self.cache.lookup(key) == "allow":
            self._decide(ALLOWED, CACHED, r, phase)
            return
        keys = [key]
        text = render_first_use_prompt(r.program_id, r.op, self.registry)
        prompt = {"mode": Mode.FIRST_USE.value, "phase": phase, "t": self.now, "text": text,
                  "marks": prompt_marks(keys, self.registry)}
        self.prompts.append(prompt)
        if self._trace is not None:
            self._emit(prompt_line, prompt)
        allowed = self._authorizer(phase).authorize_paths(keys, text, self.registry)
        if allowed:
            self.cache.store_allow(key, b"")
        self._decide(ALLOWED if allowed else DENIED, PROMPTED, r, phase)

    def _flush_root(self, root_id: str, phase: str, pending: dict[PathKey, list[OperationRequest]]) -> None:
        """Prompt for the new paths of a sealed root, and decide the requests on them."""
        keys = list(pending)
        text = render_prompt(keys, self.registry)
        marks = prompt_marks(keys, self.registry)
        prompt = {"mode": Mode.DELEGATION.value, "phase": phase, "t": self.now, "text": text, "marks": marks,
                  "root": root_id}
        self.prompts.append(prompt)
        if self._trace is not None:
            self._emit(prompt_line, {**prompt, "paths": [k.to_dict() for k in keys]})
        allowed = self._authorizer(phase).authorize_paths(keys, text, self.registry)
        outcome = ALLOWED if allowed else DENIED
        blob = self.store.sealed[root_id]  # a root with pending keys seals with its snapshot
        for key, requests in pending.items():
            if allowed:
                self.cache.store_allow(key, blob)
            elif self.config.cache_denials:
                self.cache.store_deny(key)
            for r in requests:
                self._decide(outcome, PROMPTED, r, phase, root_id, key)

    def _decide(
        self, outcome: str, reason: str, r: OperationRequest, phase: str, root: str | None = None,
        path_key: PathKey | None = None, detail: str = "", derived: bool | None = None,
    ) -> None:
        """Record the decision on request `r`, attributed to `root`, or to none.

        `derived` is given for a decision made in DELEGATION as `r` is
        admitted: its record is then the request's admit record."""
        decision = Decision(outcome, reason, r.event_id, r.program_id, r.op, r.sensor, r.t, phase, path_key, detail)
        self.decisions.append(decision)
        if self._trace is not None:
            if derived is None:
                self._emit(decision_line, decision, root)
            else:
                self._emit(decided_admit_line, decision, root, derived)
