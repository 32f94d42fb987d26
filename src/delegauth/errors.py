"""Exception types raised across the simulator.

Every error that callers are expected to branch on has its own class;
anything else surfaces as InvariantViolation.
"""

from __future__ import annotations


class DelegauthError(Exception):
    """Base class for all simulator errors. One raised for a record of a file
    names the record's `line`, which its message starts with."""

    def __init__(self, msg: str, line: int | None = None):
        super().__init__(msg if line is None else f"line {line}: {msg}")
        self.line = line


# -- registry / domain model ------------------------------------------------

class EmptyName(DelegauthError):
    """A required display string (program name, mark, widget label) is empty."""


class DuplicateProgram(DelegauthError):
    """A (name, identity mark) pair was registered twice."""


class AliasCollision(DelegauthError):
    """A widget alias overlaps an already-registered widget's alias set."""


class UnknownWidget(DelegauthError):
    """No registered widget resolves the given label."""


class InvariantViolation(DelegauthError):
    """A declared invariant does not hold (validation failures, bad configs)."""


# -- delegation graph --------------------------------------------------------

class DuplicateEvent(DelegauthError):
    """An event id was recorded twice."""


class UnattributableHandoff(DelegauthError):
    """Handoff has no provenance, or its provenance root is no longer live."""


class BrokenChain(DelegauthError):
    """Handoff source program is not (yet) reachable in the named root graph."""


class NoAttributableInput(DelegauthError):
    """An operation request cannot be attributed to any live input event."""

    def __init__(self, msg: str, expired: bool = False):
        super().__init__(msg)
        self.expired = expired


class AmbiguousAttribution(DelegauthError):
    """More than one feasible attribution exists (or a graph merge was attempted)."""


# -- scheduler ----------------------------------------------------------------

class Backpressure(DelegauthError):
    """A per-program queue exceeded its configured bound."""


class ProtocolViolation(DelegauthError):
    """Engine API misuse against the virtual clock: scheduling an entry before the
    timeline or the clock, submitting an event in the past, or advancing backwards."""


# -- authorization ------------------------------------------------------------

class MixedRoots(DelegauthError):
    """render_prompt was called with path keys that do not share one input key."""


class CorruptCache(DelegauthError):
    """An imported cache blob failed structural or checksum validation."""


# -- scenarios / CLI ----------------------------------------------------------

class ParseError(DelegauthError):
    """Scenario or trace file is syntactically invalid."""


class UnresolvedReference(DelegauthError):
    """A scenario record references an undeclared program/widget/sensor/op."""


class InfeasibleWorkload(DelegauthError):
    """Workload parameters cannot produce the requested event mix."""


class TraceDivergence(DelegauthError):
    """Replay produced a trace that differs from the recorded one."""

    def __init__(self, seq: int, detail: str = ""):
        super().__init__(f"trace diverges at seq {seq}" + (f": {detail}" if detail else ""))
        self.seq = seq


class TraceTruncated(TraceDivergence):
    """The recorded trace ends before its re-execution does: the file was cut
    short, at a line boundary or inside a line, e.g. by a process killed before
    the trace file was closed. `seq` is the record at which the file ends."""

    def __init__(self, seq: int):
        super().__init__(seq, "the recorded trace is truncated: its file ends at this record")
