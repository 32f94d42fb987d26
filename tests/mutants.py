"""Mutation probe: does the test suite notice each of a fixed list of one-line faults?

Each mutant replaces one line of `src/delegauth` in a temporary copy of the
repository, and `pytest -x -q tests` runs on that copy. A failing run kills the
mutant; a passing run lets it survive. The unmutated copy runs first, and the
probe stops if it fails, since a failing suite would kill every mutant.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list

It uses the standard library alone, and pytest does not collect it. The exit
status is 0 when every mutant run was killed, and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file under src/delegauth, the line's text, the mutated text); the
# text must occur exactly once in the file
MUTANTS = {
    # a ticket gated exactly at its deadline is dropped rather than delivered
    "gate_deadline_inclusive": (
        "engine.py", "if self.now > ticket.deadline:", "if self.now >= ticket.deadline:",
    ),
    # a repeat never occupies its idle receiver
    "repeat_never_busy": (
        "engine.py",
        "occupies_busy = root_id is None or program_id not in self._busy_exec",
        "occupies_busy = root_id is None",
    ),
    # a chain that is a prefix of the one before it loses its first program
    "prompt_prefix_chain": (
        "auth.py", "if common and common < len(chain):", "if common:",
    ),
    # a denial is cached though `cache_denials` is off
    "flush_stores_denial": (
        "engine.py", "elif self.config.cache_denials:", "else:",
    ),
    # a repeat joins a root whose (widget, receiver) key it does not share
    "repeat_key_unchecked": (
        "graph.py",
        "if (i.widget_id, i.program_id) != (g.root.widget_id, g.root.program_id):",
        "if False:",
    ),
    # sealing a root dispatches no waiting program
    "no_dispatch_at_root_expiry": (
        "engine.py", "self._try_dispatch(self._programs[pid])", "pass",
    ),
    # a program that finishes its handler does not take its next ticket
    "no_dispatch_at_completion": (
        "engine.py", "if ticket.program_id in self._waiting:", "if False:",
    ),
    # an input repeats any live root its program is in, on the input's widget
    "repeat_any_member": (
        "engine.py",
        "if g.live_at(self.now) and g.root.program_id == ev.program_id and g.root.widget_id == ev.widget_id:",
        "if g.live_at(self.now) and g.root.widget_id == ev.widget_id:",
    ),
    # a derived handoff to a program already in the root under another parent is delivered
    "attach_no_merge": (
        "graph.py", "if h.dst in g.members and g.members[h.dst][1] != h.src:", "if False:",
    ),
    # a root's snapshot lists the root alone among its inputs, without the repeats that joined it
    "snapshot_drops_repeats": (
        "graph.py", "inputs.append([e.event_id, e.t])", "pass",
    ),
    # sealing a root leaves its requests in the index of live requests
    "expire_keeps_request_index": (
        "graph.py", "if type(e) is OperationRequest:", "if False:",
    ),
    # a derived handoff to a program in another live root is delivered
    "attach_no_conflict": (
        "graph.py", "if self.live_memberships(h.dst, t) - {root_id}:", "if False:",
    ),
    # a root's prompt is put to the main phase's authorizer, whatever the phase of its input
    "expiry_phase_main": (
        "engine.py", "self._fire_root_expiry, (root_id, ticket.phase))", 'self._fire_root_expiry, (root_id, "main"))',
    ),
    # a prompt's marks are keyed by program name, so one of two namesakes hides the other
    "marks_by_name": (
        "auth.py",
        "return [[prog.name, prog.identity_mark] for prog in programs]",
        "return [[name, mark] for name, mark in {p.name: p.identity_mark for p in programs}.items()]",
    ),
    # a hold line names the high queue for a derived ticket, though one level queues it in the FIFO
    "hold_names_priority": (
        "engine.py",
        "self._emit(_hold_line, ev.event_id, state.program_id, queue)",
        "self._emit(_hold_line, ev.event_id, state.program_id, HIGH if derived else LOW)",
    ),
    # a config with `"scheduler": false` keeps the delivery gates
    "holds_ignore_scheduler": (
        "engine.py",
        "self._holds = self._graphs and self.config.scheduler",
        "self._holds = self._graphs",
    ),
    # a handler run cut off by its root's window still acts and completes
    "backstop_not_cancelled": (
        "engine.py", "busy.cancelled = True", "pass",
    ),
    # a fresh input's handler run does not know the root it starts, so its handoffs carry no provenance
    "fresh_input_no_root": (
        "engine.py",
        "ticket.root_id = root_id = self.store.record_input(ev, delivered_at=self.now)",
        "root_id = self.store.record_input(ev, delivered_at=self.now)",
    ),
    # a chain that parts from the one before and meets it again is named from where they meet
    "prompt_common_past_the_branch": (
        "auth.py", "break", "continue",
    ),
    # a timeline entry earlier than the one before it is scheduled
    "timeline_no_order_check": (
        "scenario.py", "if t < prev_t:", "if False:",
    ),
    # a handoff's provenance need not name an earlier event id
    "timeline_no_provenance_check": (
        "scenario.py", "if provenance is not None and provenance not in labels:", "if False:",
    ),
    # inputs on one widget share one spec, whichever program receives them
    "input_spec_key_lacks_program": (
        "scenario.py", 'key = (phase, label, e["widget"], e["program"])', 'key = (phase, label, e["widget"])',
    ),
    # a record line is taken whole once the scanner reads a record at its start, whatever follows it
    "decode_takes_part_of_a_line": (
        "scenario.py", "if end != len(raw) or type(rec) is not dict:", "if end < 0 or type(rec) is not dict:",
    ),
    # a scenario made by `dataclasses.replace` keeps the timeline specs of the one it was made from
    "specs_survive_replace": (
        "scenario.py",
        "_specs: tuple[dict, ...] | None = field(default=None, init=False, repr=False, compare=False)",
        "_specs: tuple[dict, ...] | None = field(default=None, repr=False, compare=False)",
    ),
    # an object with two shapes' names is checked as the first shape alone, and named by its error
    "one_of_no_recount": (
        "scenario.py", "if sum(key in value for key in shapes) == 1:", "if True:",
    ),
    # a scenario with no source text has no text
    "text_no_dump_fallback": (
        "scenario.py", "return self.source_text or self.dump()", "return self.source_text",
    ),
    # a trace embeds the text the scenario was loaded from, though it was changed since
    "trace_embeds_source_text": (
        "runner.py", "text = scn.text()", "text = scn.source_text",
    ),
    # an attack may name a program the scenario lacks
    "attack_no_program_check": (
        "scenario.py", '_program_id(name_to_id, a["program"], line)', "pass",
    ),
    # an expect may name an attack the scenario lacks
    "expect_no_attack_check": (
        "scenario.py", "if name not in attack_names:", "if False:",
    ),
    # a loaded scenario's records, and the objects nested in them, stay writable
    "loaded_records_writable": (
        "scenario.py",
        "return MappingProxyType({key: _read_only(item) for key, item in value.items()})",
        "return {key: _read_only(item) for key, item in value.items()}",
    ),
    # a first-use grant is not kept, so the next request for it prompts again
    "first_use_no_grant": (
        "engine.py", 'self.cache.store_allow(key, b"")', "pass",
    ),
    # a workload may ask for requests but no chains to make them
    "workload_requests_without_chains": (
        "workload.py", "if self.handoff_ratio == 0 and self.request_ratio > 0:", "if False:",
    ),
    # an event submitted from outside reaches the engine unchecked
    "submit_unchecked": (
        "engine.py", "self.registry.validate_event(event)", "pass",
    ),
    # a timeline entry's event reaches the engine unchecked
    "timeline_entry_unchecked": (
        "engine.py", "self.registry.validate_event(ev)", "pass",
    ),
    # an engine is built with handlers whose actions the registry rejects
    "handlers_unchecked_at_construction": (
        "engine.py", "registry.validate_event(example)", "pass",
    ),
    # a record's value nested too deep to show in its error escapes as a RecursionError
    "deep_value_unnamed": (
        "scenario.py", "if type(bad) is RecursionError:", "if False:",
    ),
}


def _pytest(copy: Path) -> tuple[bool, float]:
    """Run the suite in `copy`; returns (passed, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(MUTANTS))
        return 0
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; see --list", file=sys.stderr)
        return 2
    names = argv or list(MUTANTS)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        passed, seconds = _pytest(copy)
        if not passed:
            print(f"the unmutated suite fails ({seconds:.0f} s); no mutant was run", file=sys.stderr)
            return 2
        print(f"unmutated: passed ({seconds:.0f} s)")
        survivors = []
        for name in names:
            filename, line, mutated = MUTANTS[name]
            path = copy / "src" / "delegauth" / filename
            original = path.read_text()
            if original.count(line) != 1:
                print(f"{name}: {line!r} does not occur exactly once in {filename}", file=sys.stderr)
                return 2
            path.write_text(original.replace(line, mutated))
            try:
                passed, seconds = _pytest(copy)
            finally:
                path.write_text(original)
            print(f"{name}: {'SURVIVED' if passed else 'killed'} ({seconds:.0f} s)")
            if passed:
                survivors.append(name)
    print(f"{len(names) - len(survivors)} of {len(names)} killed"
          + (f"; survived: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
