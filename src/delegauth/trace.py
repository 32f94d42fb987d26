"""The trace format: every rule that writes, reads or compares a trace line.

A trace is line-delimited JSON, a header line and then one line per record in
the order the engine emits them, each the text `dump_line` gives its dict, so
a replay can compare a re-run's trace with the recorded one byte for byte.
The format's version, `TRACE_VERSION`, is its own. The header's grammar is an
entry of the scenario module's record table, the one grammar of every file
the CLI reads (`scenario.read_trace_header`). This module imports the
standard library, `errors` and `model` alone, since the engine imports it.

Each fact is written once, and a record leaves out what the trace or its
header already holds:
  * each event has one `admit` record. An input or handoff delivered as it was
    admitted is `delivered`, with a handoff's `outcome` in DELEGATION; one
    delivered later, from a queue, has a `deliver` record, with that outcome.
    A request decided as it was admitted, which in FIRST_USE follows its
    prompt if it has one, carries its decision's outcome, reason, detail,
    path key and root. A request left to its root's prompt carries its root,
    path key and `evicted`, and its decision writes no record: its outcome is
    the `allowed` answer of the next `prompt` record of its root;
  * a root's expiry has no line: a seal shows only through what it causes;
  * a handler run that ends on its own has no line: it ends at its delivery's
    `t` plus its handler's `complete.after_ms`, or plus the config's
    `default_lag_ms` when no handler answers, both in the scenario the header
    embeds. A run cut off by its root's window has a `complete` record.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator

from .errors import TraceDivergence, TraceTruncated
from .model import HandoffEvent, InputEvent, MediatedEvent

TRACE_FORMAT = "delegauth-trace"
TRACE_VERSION = 4

# One encoder for every JSON line, a scenario's too: `json.dumps` builds a new
# JSONEncoder per call. `check_circular` only changes how a cycle fails, and
# `default` writes a read-only mapping as the dict it wraps.
dump_line = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False, default=dict).encode

# -- the record encoders ---------------------------------------------------------

# One function per record shape, called as `line(seq, t, *fields)` by
# `Engine._emit`, which hands the line, without its newline, to the engine's
# `trace` callable. Each writes the text `dump_line` gives the record's dict:
# keys in sorted order, no spaces, strings through the escaper the C encoder
# uses with `ensure_ascii`, ints as `int.__repr__` writes them, and `null`
# for a `root`, `provenance` or `action` that is None.
_s = json.encoder.encode_basestring_ascii


def admit_line(
    seq: int, t: int, ev: MediatedEvent, derived: bool, phase: str, delivered: bool = False, outcome: str | None = None,
) -> str:
    """The admission of `ev`: `delivered` as it was admitted or not, and the
    `outcome` of a handoff delivered then in DELEGATION (`handoff_line`'s)."""
    cls = type(ev)
    if cls is InputEvent:
        event = f'{{"id":{_s(ev.event_id)},"program":{_s(ev.program_id)},"t":{ev.t},"widget":{_s(ev.widget_id)}}}'
    elif cls is HandoffEvent:
        action = "null" if ev.action is None else _s(ev.action)
        provenance = "null" if ev.provenance is None else _s(ev.provenance)
        event = (f'{{"action":{action},"dst":{_s(ev.dst)},"id":{_s(ev.event_id)},'
                 f'"provenance":{provenance},"src":{_s(ev.src)},"t":{ev.t}}}')
    else:
        event = _request(ev.event_id, ev.op, ev.program_id, ev.sensor, ev.t)
    head = '{"delivered":true,' if delivered else "{"
    tail = "" if outcome is None else f'"outcome":{_s(outcome)},'
    return (f'{head}"derived":{"true" if derived else "false"},"event":{event},"kind":"admit",{tail}'
            f'"phase":{_s(phase)},"seq":{seq},"t":{t}}}')


def decided_admit_line(seq: int, t: int, d, root: str | None, derived: bool) -> str:
    """The admission of the request of `auth.Decision` `d`, decided as it was
    admitted: `admit_line`'s record with the decision's outcome, reason,
    detail, path key and `root`, the root of its path or, with no path, None."""
    detail = f'"detail":{_s(d.detail)},' if d.detail else ""
    event = _request(d.request_id, d.op, d.program_id, d.sensor, d.t)
    return (f'{{"derived":{"true" if derived else "false"},{detail}"event":{event},"kind":"admit",'
            f'"outcome":{_s(d.outcome)},{_path_key(d.path_key)}"phase":{_s(d.phase)},"reason":{_s(d.reason)},'
            f'"root":{"null" if root is None else _s(root)},"seq":{seq},"t":{t}}}')


def pending_admit_line(seq: int, t: int, r, derived: bool, phase: str, root: str, key, evicted: int) -> str:
    """The admission of request `r`, attributed to `root` on path `key`, that the cache does not
    answer: it evicted `evicted` entries, and its root's prompt decides it."""
    event = _request(r.event_id, r.op, r.program_id, r.sensor, r.t)
    return (f'{{"derived":{"true" if derived else "false"},"event":{event},"evicted":{evicted},"kind":"admit",'
            f'{_path_key(key)}"phase":{_s(phase)},"root":{_s(root)},"seq":{seq},"t":{t}}}')


def deliver_line(seq: int, t: int, event_id: str, program: str, delay: int, event_kind: str,
                 outcome: str | None = None) -> str:
    """The delivery of a queued ticket, with a handoff's `outcome` in DELEGATION (`admit_line`'s)."""
    tail = "" if outcome is None else f'"outcome":{_s(outcome)},'
    return (f'{{"delay":{delay},"event_id":{_s(event_id)},"event_kind":{_s(event_kind)},'
            f'"kind":"deliver",{tail}"program":{_s(program)},"seq":{seq},"t":{t}}}')


def complete_line(seq: int, t: int, event_id: str, program: str) -> str:  # a run cut off by its root's window
    return f'{{"event_id":{_s(event_id)},"kind":"complete","program":{_s(program)},"seq":{seq},"t":{t}}}'


def hold_line(seq: int, t: int, event_id: str, program: str, queue: str) -> str:
    return (f'{{"event_id":{_s(event_id)},"kind":"hold","program":{_s(program)},'
            f'"queue":{_s(queue)},"seq":{seq},"t":{t}}}')


def expire_line(seq: int, t: int, event_id: str, reason: str) -> str:
    return f'{{"event_id":{_s(event_id)},"kind":"expire","reason":{_s(reason)},"seq":{seq},"t":{t}}}'


def handoff_line(seq: int, t: int, event_id: str, root: str | None, outcome: str) -> str:
    """A handoff's outcome apart from its delivery: the root it lost at admission, or its rejection from a queue."""
    root = "null" if root is None else _s(root)
    return f'{{"event_id":{_s(event_id)},"kind":"handoff","outcome":{_s(outcome)},"root":{root},"seq":{seq},"t":{t}}}'


def _request(event_id: str, op: str, program: str, sensor: str, t: int) -> str:
    """The `event` of a request's admit record."""
    return f'{{"id":{_s(event_id)},"op":{_s(op)},"program":{_s(program)},"sensor":{_s(sensor)},"t":{t}}}'


def _path_key(key) -> str:
    """The `path_key` entry of a decision's record, with its comma; none for no key."""
    if key is None:
        return ""
    return (f'"path_key":{{"op":{_s(key.op)},"programs":[{",".join(map(_s, key.programs))}],'
            f'"sensor":{_s(key.sensor)},"widget":{_s(key.widget_id)}}},')


def prompt_line(seq: int, t: int, prompt: dict) -> str:
    return dump_line({"seq": seq, "t": t, "kind": "prompt", **prompt})


# -- trace files ---------------------------------------------------------------


def trace_header(scn, mode: str | None, policy_rules, window_ms, seed) -> dict:
    """The header of a trace of `Scenario` `scn`; a run draws no random numbers, so only an older trace has a `seed`."""
    text = scn.text()
    return {
        "mode": mode,
        "policy_override": policy_rules,
        "window_override": window_ms,
        "seed": seed,
        "scenario_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "scenario": text,
    }


class TraceWriter:
    """Ordered JSONL trace stream: the header line, then each line the engine hands it, with a newline added.

    Each line goes to `fh.write`, any object's `write` method, as one call,
    buffered by `fh` itself: the trace on disk is complete once `fh` is
    closed, and a process killed before that loses the buffered tail, which
    a replay reports as truncated (`TraceTruncated`, exit code 4).
    """

    def __init__(self, fh, header: dict):
        self._write = fh.write
        self._write(dump_line({"format": TRACE_FORMAT, "version": TRACE_VERSION, **header}) + "\n")

    def __call__(self, line: str) -> None:
        self._write(line + "\n")


def records(lines: Iterable[str]) -> Iterator[dict]:
    """The record of each of `lines`: the lines a run hands its `trace` callable, or a trace file's after its header."""
    return map(json.loads, lines)


class TraceCheck:
    """Write target of a replay: compares each re-executed line with the next line of the trace at `path`.

    The file is read a line at a time, as the re-run writes, with its line
    endings as they are: a file whose line feeds became CRLF differs at the
    header. A file that ends before the re-run does, at a line boundary or
    inside the line the re-run writes there, raises `TraceTruncated`; any
    other difference raises `TraceDivergence`. Leaving a `with` block closes
    the file.
    """

    def __init__(self, path):
        self.recorded = open(path, errors="replace", newline="")  # a trace is ASCII: any other byte differs
        self._readline = self.recorded.readline
        self.written = 0

    def __enter__(self) -> TraceCheck:
        return self

    def __exit__(self, *exc) -> None:
        self.recorded.close()

    def write(self, line: str) -> None:
        i = self.written
        expected = self._readline()
        if expected != line and expected != line[:-1]:  # the last line may lack its newline
            if not expected or (not expected.endswith("\n") and line.startswith(expected)):
                raise TraceTruncated(i)  # the file ends before the re-run does, or inside this line
            raise TraceDivergence(i, "recorded and re-executed traces differ")
        self.written = i + 1

    def finish(self) -> None:
        """Raise `TraceDivergence` unless the file ends where the re-run did."""
        if self._readline():
            raise TraceDivergence(self.written, "recorded and re-executed traces differ")
