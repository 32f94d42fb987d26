"""Delegation graphs: construction, sealing, and the path keys read off their parent trees.

A graph instance is rooted at one input event and grows as handoffs and
operation requests are attributed to it. Program vertices form a tree (each
program has exactly one parent edge); merges and cycles are rejected.
Reachability is temporal: a program is reachable at time t only if it joined
the graph strictly before t, and it joins no earlier than the event that
brings it. So every path in a graph runs strictly forward in time, and a
request's path key is its requester's chain of parents.

A live graph keeps two records: its members, each program with its join
time and parent, and its events, the repeat inputs, handoffs and requests
attributed to it after its root, in record order. Only a snapshot groups the
events, by input, edge and request key.

Requests are attributed by membership: the requester must belong to exactly
one live graph at request time. The engine's delivery gates guarantee that;
with `EngineConfig.scheduler` off, the same query surfaces
AmbiguousAttribution.

When a root's window closes it is sealed: its live state is dropped, and each
of its programs keeps only the earliest deadline of a sealed root it was in,
which is all an unattributed request needs to be told "expired". A JSON
snapshot of the graph is taken at sealing only when the caller asks for one;
the engine asks only for roots whose new paths go into a prompt, because the
snapshot is what their cache entries keep. A reused event id is caught only
for a live root or a live graph's request. The engine mints every id of a
scenario run; only direct `Engine.submit` or `GraphStore` callers can reuse one.

The store does not check events against the registry: the engine checks
each event once, where it enters, before any of them reaches the store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    AmbiguousAttribution,
    BrokenChain,
    DuplicateEvent,
    InvariantViolation,
    NoAttributableInput,
    UnattributableHandoff,
)
from .model import HandoffEvent, InputEvent, OperationRequest


@dataclass(slots=True, unsafe_hash=True)
class InputKey:
    """Timestamp-free identity of an input interaction: (widget, receiver).

    Compares and hashes by its fields; none is assigned after construction."""

    widget_id: str
    program_id: str

    def to_dict(self) -> dict:
        return {"widget": self.widget_id, "program": self.program_id}

    @classmethod
    def from_dict(cls, d: dict) -> "InputKey":
        return cls(widget_id=d["widget"], program_id=d["program"])


@dataclass(slots=True, unsafe_hash=True)
class PathKey:
    """Timestamp-free identity of a delegation path, used for cache lookups.

    Compares and hashes by its fields; none is assigned after construction."""

    widget_id: str
    programs: tuple[str, ...]  # receiver first, requester last
    op: str
    sensor: str

    @property
    def input_key(self) -> InputKey:
        return InputKey(widget_id=self.widget_id, program_id=self.programs[0])

    @property
    def requester(self) -> str:
        return self.programs[-1]

    @property
    def edge_count(self) -> int:
        # input delivery + handoffs + request delivery
        return len(self.programs) + 1

    def to_dict(self) -> dict:
        return {
            "widget": self.widget_id,
            "programs": list(self.programs),
            "op": self.op,
            "sensor": self.sensor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PathKey":
        return cls(
            widget_id=d["widget"],
            programs=tuple(d["programs"]),
            op=d["op"],
            sensor=d["sensor"],
        )


@dataclass
class _LiveGraph:
    """One root's records while its window is open: who joined it, and what it received after the root.

    Only `to_dict`, at snapshot time, groups `events` by input, edge and request key."""

    root: InputEvent
    deadline: int  # last live instant: root.t + window
    members: dict[str, tuple[int, str | None]]  # program -> (join time, parent program; None for the receiver)
    events: list[InputEvent | HandoffEvent | OperationRequest] = field(default_factory=list)  # in record order

    def live_at(self, t: int) -> bool:
        return t <= self.deadline

    def to_dict(self) -> dict:
        root = self.root
        inputs, handoffs, requests = [[root.event_id, root.t]], {}, {}
        for e in self.events:
            if type(e) is HandoffEvent:
                handoffs.setdefault(f"{e.src}>{e.dst}", []).append([e.event_id, e.t])
            elif type(e) is InputEvent:
                inputs.append([e.event_id, e.t])
            else:
                requests.setdefault(f"{e.program_id}|{e.op}|{e.sensor}", []).append([e.event_id, e.t])
        # `serialize_graph` sorts the keys, so an edge's or a request key's place is fixed by its string
        return {
            "root": {"event_id": root.event_id, "widget": root.widget_id, "program": root.program_id, "t": root.t},
            "deadline": self.deadline,
            "inputs": inputs,
            "handoffs": handoffs,
            "requests": requests,
        }


def _delivery_time(ev: InputEvent | HandoffEvent, delivered_at: int | None) -> int:
    """When `ev` reached its target; no earlier than the event itself, which `compute_path` relies on."""
    if delivered_at is None:
        return ev.t
    if delivered_at < ev.t:
        raise InvariantViolation(f"{ev.event_id} delivered at t={delivered_at}, before its own t={ev.t}")
    return delivered_at


class GraphStore:
    """Holds all live graphs, membership indexes, and the snapshots kept at sealing.

    Roots seal one way, through `expire_graph`. `sealed` maps a root sealed
    with `snapshot=True` (the default) to the serialized graph taken as it
    sealed. `expired_deadline` maps a program to the earliest
    deadline of any sealed root that contained it. `live` and `_request_index`
    are the only state keyed by event id, and the scope of `DuplicateEvent`.
    """

    def __init__(self, window_ms: int):
        if window_ms <= 0:
            raise InvariantViolation("window_ms must be positive")
        self.window_ms = window_ms
        self.live: dict[str, _LiveGraph] = {}  # root event_id -> graph
        self.sealed: dict[str, bytes] = {}  # root event_id -> serialized snapshot
        self.expired_deadline: dict[str, int] = {}  # program -> min deadline of its sealed roots
        self.membership: dict[str, set[str]] = {}  # program -> live root ids
        self._request_index: dict[str, tuple[str, OperationRequest]] = {}  # event_id -> (root, r), live roots only

    # -- queries used by the scheduler ------------------------------------

    def live_memberships(self, program_id: str, now: int) -> set[str]:
        return {r for r in self.membership.get(program_id, ()) if self.live[r].live_at(now)}

    def live_roots_reaching(self, program_id: str, t: int) -> list[str]:
        """Live roots whose graph contains program_id with join time < t."""
        out = []
        for root_id in self.membership.get(program_id, set()):
            g = self.live[root_id]
            if g.live_at(t) and g.members[program_id][0] < t:
                out.append(root_id)
        out.sort()
        return out

    def expired_roots_reaching(self, program_id: str, t: int) -> bool:
        """Whether some sealed graph whose window closed before t contained the program."""
        deadline = self.expired_deadline.get(program_id)
        return deadline is not None and t > deadline

    def attachability(self, h: HandoffEvent, root_id: str, t: int) -> str:
        """The delivery gate's verdict on a handoff derived from `root_id`, at `t`.

        `root_expired` once the root is no longer live; `blocked` while the
        target belongs to another live root; `merge_rejected` when the target
        is already in the root under another parent; `deliver` otherwise.
        """
        g = self.live.get(root_id)
        if g is None or not g.live_at(t):
            return "root_expired"
        if self.live_memberships(h.dst, t) - {root_id}:
            return "blocked"
        if h.dst in g.members and g.members[h.dst][1] != h.src:
            return "merge_rejected"
        return "deliver"

    # -- recording ----------------------------------------------------------

    def record_input(self, i: InputEvent, delivered_at: int | None = None) -> str:
        """Start a new graph rooted at i; returns the root id.

        The window runs from the event's own timestamp (when the user acted);
        reachability starts at delivery.
        """
        if i.event_id in self.live:
            raise DuplicateEvent(f"input {i.event_id!r} already roots a live graph")
        members = {i.program_id: (_delivery_time(i, delivered_at), None)}
        self.live[i.event_id] = _LiveGraph(root=i, deadline=i.t + self.window_ms, members=members)
        self.membership.setdefault(i.program_id, set()).add(i.event_id)
        return i.event_id

    def record_repeat_input(self, root_id: str, i: InputEvent) -> None:
        """Attach a same-key repeat instance to an existing live root."""
        g = self.live.get(root_id)
        if g is None or not g.live_at(i.t):
            raise UnattributableHandoff(f"repeat input {i.event_id} names dead root {root_id}")
        if (i.widget_id, i.program_id) != (g.root.widget_id, g.root.program_id):
            raise InvariantViolation("repeat input key does not match root")
        g.events.append(i)

    def record_handoff(self, h: HandoffEvent, delivered_at: int | None = None) -> str:
        """Attach a handoff to its provenance root; returns the root id."""
        root_id = h.provenance
        now = _delivery_time(h, delivered_at)
        g = self.live.get(root_id)
        if g is None or not g.live_at(now):  # also a handoff with no provenance
            raise UnattributableHandoff(f"handoff {h.event_id} provenance {root_id!r} is not live")
        src = g.members.get(h.src)
        if src is None or src[0] >= h.t:
            raise BrokenChain(f"handoff {h.event_id}: source {h.src} not reachable before t={h.t}")
        dst = g.members.get(h.dst)
        if dst is None:
            g.members[h.dst] = (now, h.src)
            self.membership.setdefault(h.dst, set()).add(root_id)
        elif dst[1] != h.src:
            # tree shape: only re-traversal of the existing parent edge is allowed
            raise AmbiguousAttribution(
                f"handoff {h.event_id} would give {h.dst} a second parent in root {root_id}"
            )
        g.events.append(h)
        return root_id

    def record_request(self, r: OperationRequest) -> str:
        """Attribute a request to the unique live root reaching the requester."""
        if r.event_id in self._request_index:
            raise DuplicateEvent(f"request {r.event_id!r} already recorded in a live graph")
        roots = self.live_roots_reaching(r.program_id, r.t)
        if not roots:
            expired = self.expired_roots_reaching(r.program_id, r.t)
            raise NoAttributableInput(
                f"request {r.event_id} from {r.program_id} has no live attribution", expired=expired
            )
        if len(roots) > 1:
            raise AmbiguousAttribution(
                f"request {r.event_id} reachable from {len(roots)} live roots: {roots}"
            )
        root_id = roots[0]
        self.live[root_id].events.append(r)
        self._request_index[r.event_id] = (root_id, r)
        return root_id

    # -- path computation -----------------------------------------------------

    def compute_path(self, r: OperationRequest) -> PathKey:
        """The key of a recorded request's path: the requester's chain of parents, receiver first.

        No instance is searched: as the module docstring says, each hop has one strictly before the next.
        """
        entry = self._request_index.get(r.event_id)
        if entry is None:
            raise NoAttributableInput(f"request {r.event_id} is not recorded in a live graph")
        root_id, req = entry
        g = self.live[root_id]
        chain = []
        prog = req.program_id
        while prog is not None:
            chain.append(prog)
            prog = g.members[prog][1]
        chain.reverse()
        return PathKey(g.root.widget_id, tuple(chain), req.op, req.sensor)

    # -- expiry and sealing ------------------------------------------------------

    def expire_graph(self, root_id: str, now: int, snapshot: bool = True) -> bool:
        """Seal one root if its window has passed; returns whether it sealed.

        With `snapshot`, the graph is serialized into `sealed` first, so that
        `serialize_graph` still answers for it after its live state is gone.
        """
        g = self.live.get(root_id)
        if g is None or g.live_at(now):
            return False
        if snapshot:
            self.sealed[root_id] = self.serialize_graph(root_id)
        for pid in g.members:
            # min, not first: roots need not seal in deadline order
            self.expired_deadline[pid] = min(g.deadline, self.expired_deadline.get(pid, g.deadline))
            roots = self.membership.get(pid)
            if roots is not None:
                roots.discard(root_id)
                if not roots:
                    del self.membership[pid]
        for e in g.events:
            if type(e) is OperationRequest:
                del self._request_index[e.event_id]
        del self.live[root_id]
        return True

    def serialize_graph(self, root_id: str) -> bytes:
        g = self.live.get(root_id)
        if g is not None:
            data = g.to_dict()
        elif root_id in self.sealed:
            return self.sealed[root_id]
        else:
            raise InvariantViolation(f"unknown graph root {root_id!r}")
        return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
