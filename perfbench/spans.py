"""Spans recorded from the benchmark's side, around calls into each layer.

`instrument` swaps the public functions an engine calls for wrappers that
record one span per call: name, start, end and the enclosing span. Spans are
kept in flat arrays while the run goes on; totals and the span file are
computed once the run is over. The program itself is not changed, and every
wrapper is removed when the `with` block ends.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

from delegauth import engine as engine_module
from delegauth.scheduler import ProgramState

# span name -> attribute of the engine that owns the function, and its name
INSTANCE_FUNCTIONS = {
    **{f"graph.{fn}": ("store", fn) for fn in (
        "record_input", "record_handoff", "record_request", "compute_path", "expire_graph",
        "serialize_graph", "expired_roots_reaching", "live_roots_reaching", "live_memberships",
        "attachability",
    )},
    "auth.cache.lookup": ("cache", "lookup"),
    "auth.cache.store_allow": ("cache", "store_allow"),
    "auth.cache.invalidate_conflicting": ("cache", "invalidate_conflicting"),
    "scheduler.handlers.lookup": ("handlers", "lookup"),
    "model.validate_event": ("registry", "validate_event"),
}
# the engine module imports these by name, so they are swapped there
MODULE_FUNCTIONS = {"auth.render_prompt": "render_prompt", "auth.prompt_marks": "prompt_marks"}
POLICY_SPAN = "auth.policy.authorize_paths"
ENQUEUE_SPAN = "scheduler.enqueue"
TRACE_SPAN = "scenario.trace_write"
SPAN_NAMES = (
    *INSTANCE_FUNCTIONS, *MODULE_FUNCTIONS, POLICY_SPAN, ENQUEUE_SPAN, TRACE_SPAN,
)


class Spans:
    """Flat, append-only span store for one run."""

    def __init__(self) -> None:
        self.names = SPAN_NAMES
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.faults: list[str] = []  # found by `check`, and by the caller

    def wrap(self, name: str, fn):
        ix = self.names.index(name)
        names, parents, starts, ends, open_ = self.name, self.parent, self.start, self.end, self._open
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            i = len(starts)
            names.append(ix)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return span

    def totals(self) -> tuple[dict[str, tuple[int, int]], int]:
        """Per name (calls, self ns), and the summed duration of top-level spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        top = 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                top += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            calls[self.name[i]] += 1
            self_ns[self.name[i]] += dur[i] - child[i]
        return {nm: (calls[k], self_ns[k]) for k, nm in enumerate(self.names)}, top

    def check(self, begin_ns: int, end_ns: int) -> list[str]:
        """Faults of the spans of a drive read as running from `begin_ns` to `end_ns`.

        Every span must have ended, and lie inside its parent span, or inside
        the drive if it has none.
        """
        faults = [f"{len(self._open)} spans still open"] if self._open else []
        for i in range(len(self.start)):
            p = self.parent[i]
            lo, hi = (begin_ns, end_ns) if p < 0 else (self.start[p], self.end[p])
            if not lo <= self.start[i] <= self.end[i] <= hi:
                where = "the drive" if p < 0 else f"span {p}"
                faults.append(f"span {i} ({self.names[self.name[i]]}) is not inside {where}")
                break
        return faults

    def write(self, path) -> None:
        """One line per span: name, start ns, end ns, parent index (-1 for none)."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\n")


@contextmanager
def instrument(engine, spans: Spans):
    """Wrap the layer functions `engine` calls; the trace writer is wrapped at set-up."""
    swapped: list[tuple[object, str, object]] = []  # owner, attribute, original (None: delete)

    def swap(owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        swapped.append((owner, attr, original if attr in vars(owner) else None))
        setattr(owner, attr, spans.wrap(name, original))

    try:
        for name, (owner_attr, fn) in INSTANCE_FUNCTIONS.items():
            swap(getattr(engine, owner_attr), fn, name)
        for policy in {id(a): a for a in engine.authorizers.values()}.values():
            swap(policy, "authorize_paths", POLICY_SPAN)
        for name, fn in MODULE_FUNCTIONS.items():
            swap(engine_module, fn, name)
        swap(ProgramState, "enqueue", ENQUEUE_SPAN)
        yield spans
    finally:
        for owner, attr, original in reversed(swapped):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
