"""Brute-force attribution oracle.

Independent of the graph store: enumerates every feasible input-to-request
chain over a run's trace, using only facts a reference monitor observes
(event tuples, delivery times, the window).

`log_from_trace` turns trace lines, those the engine hands its `trace`
callable or a trace file's after its header, into the oracle's log. It
decodes them with `delegauth.trace.records`, the package's one trace reader,
and reads two record kinds:
  * `admit` gives each event's fields, and a request entry for a request
    (requests are mediated at admission). An input or handoff `delivered` as
    it was admitted is delivered at the record's `t`;
  * `deliver`, the delivery of a held ticket, at the record's `t`.
A delivered input gives an input entry, and a delivered handoff whose
`outcome` is `attached` a handoff entry. A handoff that did not attach
reaches no graph, so it links nothing.

Rules mirrored by enumeration:
  * input instances group into roots: a same-key instance arriving within
    the open root's window is a repeat and extends nothing; the root's
    window anchors at its first instance's event time;
  * a handoff link requires its source to be reached strictly before the
    handoff was made, and extends reachability at its delivery time, which
    must fall inside the root's window;
  * the request must come strictly after the requester was reached and
    inside the root's window.

Chains that differ only in which event instance they traverse collapse into
one attribution class keyed by (widget, program sequence).

Log entry shapes:
  ("input",   event_id, widget, program, t_event, t_deliver)
  ("handoff", event_id, src, dst, t_event, t_deliver)
  ("request", event_id, program, op, sensor, t)
"""

from __future__ import annotations

from delegauth.trace import records


def log_from_trace(lines) -> list[tuple]:
    """The oracle's log of a run, in delivery order, from its trace lines."""
    admitted: dict[str, dict] = {}  # event id -> admitted input or handoff, held
    log: list[tuple] = []
    for rec in records(lines):
        kind = rec["kind"]
        if kind == "admit":
            ev = rec["event"]
            if "op" in ev:
                log.append(("request", ev["id"], ev["program"], ev["op"], ev["sensor"], ev["t"]))
                continue
            if not rec.get("delivered"):
                admitted[ev["id"]] = ev
                continue
        elif kind == "deliver":
            ev = admitted.pop(rec["event_id"])
        else:
            continue
        if "widget" in ev:
            log.append(("input", ev["id"], ev["widget"], ev["program"], ev["t"], rec["t"]))
        elif rec.get("outcome") == "attached":
            log.append(("handoff", ev["id"], ev["src"], ev["dst"], ev["t"], rec["t"]))
    return log


def input_roots(log, window_ms: int) -> list[tuple[str, str, int, int]]:
    """(widget, receiver, first_event_t, first_deliver_t) per reconstructed root.

    An instance joins the latest same-key root iff it was *delivered* inside
    that root's window (immediate repeats deliver at their own event time;
    held inputs that outlive the previous root start a fresh one).
    """
    roots: list[tuple[str, str, int, int]] = []
    open_root: dict[tuple[str, str], int] = {}
    for e in log:
        if e[0] != "input":
            continue
        _, _eid, widget, program, t_event, t_deliver = e
        key = (widget, program)
        first_t = open_root.get(key)
        if first_t is not None and t_deliver <= first_t + window_ms:
            continue  # repeat: joins the open root
        open_root[key] = t_event
        roots.append((widget, program, t_event, t_deliver))
    return roots


def attribution_classes(log, request_event_id: str, window_ms: int) -> set:
    handoffs = [e for e in log if e[0] == "handoff"]
    request = next(e for e in log if e[0] == "request" and e[1] == request_event_id)
    _, _, req_program, _op, _sensor, req_t = request

    classes: set[tuple[str, tuple[str, ...]]] = set()
    for widget, receiver, t_root, t_reach in input_roots(log, window_ms):
        if req_t > t_root + window_ms:
            continue
        _extend(
            classes, handoffs, widget, (receiver,), t_reach, req_program, req_t, t_root + window_ms
        )
    return classes


def _extend(classes, handoffs, widget, chain, reached_t, req_program, req_t, deadline) -> None:
    if chain[-1] == req_program and reached_t < req_t <= deadline:
        classes.add((widget, chain))
    if len(chain) > 12:  # defensive bound; scenarios are tiny
        return
    for _, _eid, src, dst, t_emit, t_deliver in handoffs:
        if src == chain[-1] and reached_t < t_emit and t_deliver <= deadline:
            _extend(classes, handoffs, widget, chain + (dst,), t_deliver, req_program, req_t, deadline)
