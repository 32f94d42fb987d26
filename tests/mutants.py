"""Mutation probe: does the test suite notice each of a fixed list of one-line faults?

Each mutant replaces one line of `src/delegauth` in a temporary copy of the
repository, and pytest runs on that copy: first the one test the mutant names,
which is known to kill it, then, only if that test passes, `pytest -x -q tests`
without `tests/test_mutants.py`. That file checks the table against the source,
which every mutant changes, so it would kill every mutant. A failing run kills
the mutant; a mutant that passes both runs survives. So the verdict is that of
the rest of the suite, and most mutants cost one test's run. The unmutated copy
runs the whole suite first, and the probe stops if it fails, since a failing
suite would kill every mutant.

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

# name -> (file under src/delegauth, the line's text, the mutated text, the node
# id of a test that kills it); the text must occur exactly once in the file
MUTANTS = {
    # a ticket gated exactly at its deadline is dropped rather than delivered
    "gate_deadline_inclusive": (
        "engine.py", "if self.now > ticket.deadline:", "if self.now >= ticket.deadline:",
        "tests/test_trace_digests.py::test_trace_digest_is_pinned[fuzz_tight_gaps]",
    ),
    # a repeat never occupies its idle receiver
    "repeat_never_busy": (
        "engine.py",
        "occupies_busy = root_id is None or program_id not in self._busy_exec",
        "occupies_busy = root_id is None",
        "tests/test_trace_digests.py::test_trace_digest_is_pinned[fuzz_tight_gaps]",
    ),
    # a chain that is a prefix of the one before it loses its first program
    "prompt_prefix_chain": (
        "auth.py", "if common and common < len(chain):", "if common:",
        "tests/test_prompts.py::test_a_chain_that_is_a_prefix_of_the_one_before_is_named_whole",
    ),
    # a denial is cached though `cache_denials` is off
    "flush_stores_denial": (
        "engine.py", "elif self.config.cache_denials:", "else:",
        "tests/test_engine.py::test_a_denied_prompt_without_cache_denials_leaves_the_cache_empty",
    ),
    # a repeat joins a root whose (widget, receiver) key it does not share
    "repeat_key_unchecked": (
        "graph.py",
        "if (i.widget_id, i.program_id) != (g.root.widget_id, g.root.program_id):",
        "if False:",
        "tests/test_graph.py::test_repeat_input_with_another_key_is_an_invariant_violation",
    ),
    # sealing a root dispatches no waiting program
    "no_dispatch_at_root_expiry": (
        "engine.py", "self._try_dispatch(self._programs[pid])", "pass",
        "tests/test_engine.py::test_root_expiry_dispatches_programs_waiting_outside_the_root",
    ),
    # a program that finishes its handler does not take its next ticket
    "no_dispatch_at_completion": (
        "engine.py", "if ticket.program_id in self._waiting:", "if False:",
        "tests/test_engine.py::test_single_level_fifo_when_two_level_disabled",
    ),
    # an input repeats any live root its program is in, on the input's widget
    "repeat_any_member": (
        "engine.py",
        "if g.root.program_id == ev.program_id and g.root.widget_id == ev.widget_id:",
        "if g.root.widget_id == ev.widget_id:",
        "tests/test_engine.py::test_an_input_to_an_idle_member_on_the_roots_widget_is_no_repeat",
    ),
    # a derived handoff to a program already in the root under another parent is delivered
    "attach_no_merge": (
        "graph.py", "if h.dst in g.members and g.members[h.dst][1] != h.src:", "if False:",
        "tests/test_trace_digests.py::test_trace_digest_is_pinned[contention]",
    ),
    # a root's snapshot lists the root alone among its inputs, without the repeats that joined it
    "snapshot_drops_repeats": (
        "graph.py", "inputs.append([e.event_id, e.t])", "pass",
        "tests/test_graph.py::test_snapshot_bytes_are_pinned",
    ),
    # sealing a root leaves its requests in the index of live requests
    "expire_keeps_request_index": (
        "graph.py", "if type(e) is OperationRequest:", "if False:",
        "tests/test_graph.py::test_sealing_drops_the_roots_requests_from_the_index",
    ),
    # a derived handoff to a program in another live root is delivered
    "attach_no_conflict": (
        "graph.py", "if self.live_memberships(h.dst, t) - {root_id}:", "if False:",
        "tests/test_engine.py::test_scheduler_on_same_workload_is_unambiguous",
    ),
    # a root's prompt is put to the main phase's authorizer, whatever the phase of its input
    "expiry_phase_main": (
        "engine.py", "self._fire_root_expiry, (root_id, ticket.phase))", 'self._fire_root_expiry, (root_id, "main"))',
        "tests/test_acceptance.py::test_prompt_text_goldens",
    ),
    # a prompt's marks are keyed by program name, so one of two namesakes hides the other
    "marks_by_name": (
        "auth.py",
        "return [[prog.name, prog.identity_mark] for prog in programs]",
        "return [[name, mark] for name, mark in {p.name: p.identity_mark for p in programs}.items()]",
        "tests/test_prompts.py::test_marks_show_each_program_though_two_share_a_name",
    ),
    # a hold line names the high queue for a derived ticket, though one level queues it in the FIFO
    "hold_names_priority": (
        "engine.py",
        "self._emit(hold_line, ev.event_id, state.program_id, queue)",
        'self._emit(hold_line, ev.event_id, state.program_id, "high" if derived else "low")',
        "tests/test_engine.py::test_hold_line_names_the_queue_the_ticket_joined[False]",
    ),
    # a config with `"scheduler": false` keeps the delivery gates
    "holds_ignore_scheduler": (
        "engine.py",
        "self._holds = self._graphs and self.config.scheduler",
        "self._holds = self._graphs",
        "tests/test_engine.py::test_scheduler_off_allows_ambiguity_defense_in_depth",
    ),
    # a handler run cut off by its root's window still acts and completes
    "backstop_not_cancelled": (
        "engine.py", "busy.cancelled = True", "pass",
        "tests/test_engine.py::test_scheduler_on_same_workload_is_unambiguous",
    ),
    # a fresh input's handler run does not know the root it starts, so its handoffs carry no provenance
    "fresh_input_no_root": (
        "engine.py",
        "ticket.root_id = root_id = self.store.record_input(ev, delivered_at=now)",
        "root_id = self.store.record_input(ev, delivered_at=now)",
        "tests/test_acceptance.py::test_prompt_text_goldens",
    ),
    # a chain that parts from the one before and meets it again is named from where they meet
    "prompt_common_past_the_branch": (
        "auth.py", "break", "continue",
        "tests/test_prompts.py::test_chains_that_branch_after_their_receiver_are_each_named_from_it",
    ),
    # a timeline entry earlier than the one before it is scheduled
    "timeline_no_order_check": (
        "scenario.py", "if t < prev_t:", "if False:",
        "tests/test_scenario.py::test_out_of_order_timeline_rejected",
    ),
    # a handoff's provenance need not name an earlier event id
    "timeline_no_provenance_check": (
        "scenario.py", "if provenance is not None and provenance not in labels:", "if False:",
        "tests/test_scenario.py::test_provenance_label_must_name_earlier_event",
    ),
    # inputs on one widget share one spec, whichever program receives them
    "input_spec_key_lacks_program": (
        "scenario.py", 'key = (phase, label, e["widget"], e["program"])', 'key = (phase, label, e["widget"])',
        "tests/test_scenario.py::test_inputs_alike_share_one_spec_and_keep_their_own_programs",
    ),
    # a record line is taken whole once the scanner reads a record at its start, whatever follows it
    "decode_takes_part_of_a_line": (
        "scenario.py", "if end != len(raw) or type(rec) is not dict:", "if end < 0 or type(rec) is not dict:",
        "tests/test_scenario.py::test_malformed_record_lines_name_their_line[trailing-garbage]",
    ),
    # a scenario made by `dataclasses.replace` keeps the timeline specs of the one it was made from
    "specs_survive_replace": (
        "scenario.py",
        "_specs: tuple[dict, ...] | None = field(default=None, init=False, repr=False, compare=False)",
        "_specs: tuple[dict, ...] | None = field(default=None, repr=False, compare=False)",
        "tests/test_scenario.py::test_a_replaced_or_built_scenario_schedules_its_own_timeline",
    ),
    # an object with two shapes' names is checked as the first shape alone, and named by its error
    "one_of_no_recount": (
        "scenario.py", "if sum(key in value for key in shapes) == 1:", "if True:",
        "tests/test_scenario.py::test_record_checks_name_the_key_path[two-bodies]",
    ),
    # a scenario with no source text has no text
    "text_no_dump_fallback": (
        "scenario.py", "return self.source_text or self.dump()", "return self.source_text",
        "tests/test_runner.py::test_a_scenario_changed_by_replace_replays",
    ),
    # a trace embeds the text the scenario was loaded from, though it was changed since
    "trace_embeds_source_text": (
        "trace.py", "text = scn.text()", "text = scn.source_text",
        "tests/test_runner.py::test_a_scenario_changed_by_replace_replays",
    ),
    # an attack may name a program the scenario lacks
    "attack_no_program_check": (
        "scenario.py", '_program_id(name_to_id, a["program"], line)', "pass",
        "tests/test_scenario.py::test_attacks_and_expects_built_in_python_get_the_checks_of_loaded_ones[attack-program]",
    ),
    # an expect may name an attack the scenario lacks
    "expect_no_attack_check": (
        "scenario.py", "if name not in attack_names:", "if False:",
        "tests/test_scenario.py::test_attacks_and_expects_built_in_python_get_the_checks_of_loaded_ones[expect-attack]",
    ),
    # a loaded scenario's records, and the objects nested in them, stay writable
    "loaded_records_writable": (
        "scenario.py",
        "return MappingProxyType({key: _read_only(item) for key, item in value.items()})",
        "return {key: _read_only(item) for key, item in value.items()}",
        "tests/test_scenario.py::test_a_loaded_scenario_cannot_be_changed_in_place[handler-action]",
    ),
    # a first-use grant is not kept, so the next request for it prompts again
    "first_use_no_grant": (
        "engine.py", 'self.cache.store_allow(key, b"")', "pass",
        "tests/test_engine.py::test_first_use_mode_grants_and_stays_silent",
    ),
    # a workload may ask for requests but no chains to make them
    "workload_requests_without_chains": (
        "workload.py", "if self.handoff_ratio == 0 and self.request_ratio > 0:", "if False:",
        "tests/test_workload.py::test_infeasible_parameters_rejected",
    ),
    # an event submitted from outside reaches the engine unchecked
    "submit_unchecked": (
        "engine.py", "self.registry.validate_event(event)", "pass",
        "tests/test_engine.py::test_submit_of_an_event_the_registry_rejects_leaves_the_engine_as_it_was[input]",
    ),
    # a timeline entry's event reaches the engine unchecked
    "timeline_entry_unchecked": (
        "engine.py", "self.registry.validate_event(ev)", "pass",
        "tests/test_engine.py::test_a_scheduled_entry_the_registry_rejects_raises_when_it_is_admitted[input]",
    ),
    # an engine is built with handlers whose actions the registry rejects
    "handlers_unchecked_at_construction": (
        "engine.py", "registry.validate_event(example)", "pass",
        "tests/test_engine.py::test_an_engine_is_not_built_with_a_handler_whose_action_the_registry_rejects[handoff_to_itself]",
    ),
    # a record's value nested too deep to show in its error escapes as a RecursionError
    "deep_value_unnamed": (
        "scenario.py", "if type(bad) is RecursionError:", "if False:",
        "tests/test_cli.py::test_a_value_nested_near_the_decoders_limit_is_a_validation_error_naming_its_line[config-in-nested-objects]",
    ),
    # a ticket settled at admission takes no sequence number, so later entries are numbered by what was held
    "settle_skips_deadline_seq": (
        "engine.py", "self._occ_seq += 1  # the number of a deadline never pushed", "pass",
        "tests/test_engine.py::test_a_settled_ticket_takes_the_sequence_number_of_its_deadline",
    ),
    # a ticket for a busy program with empty queues is settled at admission, not held
    "settle_ignores_busy": (
        "engine.py",
        "idle = program_id not in self._busy_exec and (state is None or not (state.high or state.low))",
        "idle = state is None or not (state.high or state.low)",
        "tests/test_engine.py::test_a_ticket_settled_at_admission_is_never_queued",
    ),
    # a ticket for an idle program is settled at admission ahead of tickets queued at low priority
    "settle_sees_high_queue_only": (
        "engine.py",
        "idle = program_id not in self._busy_exec and (state is None or not (state.high or state.low))",
        "idle = program_id not in self._busy_exec and (state is None or not state.high)",
        "tests/test_engine.py::test_with_one_level_a_ticket_for_an_idle_program_waits_behind_a_blocked_one",
    ),
    # a root's expiry never looks at busy programs, so the handler runs it keeps busy go on
    "expiry_skips_busy": (
        "engine.py", "if self._busy_exec:", "if False:",
        "tests/test_trace_digests.py::test_trace_digest_is_pinned[contention]",
    ),
    # an input at the last instant of its program's root is neither its repeat nor blocked by it
    "input_gate_deadline_exclusive": (
        "engine.py", "if g.deadline >= now:", "if g.deadline > now:",
        "tests/test_engine.py::test_a_finished_run_leaves_no_scheduling_state[workload_1500]",
    ),
    # an input-derived request is not counted among the derived events
    "request_stats_not_derived": (
        "scheduler.py", "if derived:  # input-derived, like the request's handler run", "if False:",
        "tests/test_engine.py::test_a_finished_run_leaves_no_scheduling_state[workload_1500]",
    ),
    # each decision keeps the key its own path computation built
    "decision_keys_not_interned": (
        "engine.py", "key = self._keys.setdefault(key, key)  # so decisions on one path share one key", "pass",
        "tests/test_engine.py::test_decisions_on_one_path_share_one_key",
    ),
    # a cache hit's decision line names no root, so the trace no longer ties it to its input
    "cache_hit_decision_no_root": (
        "engine.py", "self._decide(ALLOWED, CACHED, r, phase, root_id, key, derived=derived)",
        "self._decide(ALLOWED, CACHED, r, phase, None, key, derived=derived)",
        "tests/test_trace.py::test_a_trace_alone_explains_every_decision[contention]",
    ),
    # a prompted decision's line names no root, so the trace no longer ties it to its prompt
    "prompted_decision_no_root": (
        "engine.py", "self._decide(outcome, PROMPTED, r, phase, root_id, key)",
        "self._decide(outcome, PROMPTED, r, phase, None, key)",
        "tests/test_trace.py::test_a_trace_alone_explains_every_decision[task_a]",
    ),
    # a request the cache misses writes no line, so its root and evictions are not in the trace
    "miss_writes_no_request": (
        "engine.py", "self._emit(missed_request_line, r.event_id, root_id, evicted)", "pass",
        "tests/test_trace.py::test_a_trace_alone_explains_every_decision[task_a]",
    ),
    # a ticket delivered as it is admitted also writes the `deliver` and `handoff` lines of a queued one
    "admission_delivery_writes_deliver": (
        "engine.py",
        'outcome = self._deliver(ticket) if verdict == "deliver" else None',
        'outcome = self._settle(ticket, verdict) if verdict == "deliver" else None',
        "tests/test_trace.py::test_a_trace_alone_gives_each_handler_runs_end[task_a]",
    ),
    # a handoff delivered as it is admitted loses its outcome, so the trace no longer says whether it attached
    "admission_delivery_drops_outcome": (
        "engine.py",
        'self._emit(admit_line, ev, derived, phase, verdict == "deliver", outcome)',
        'self._emit(admit_line, ev, derived, phase, verdict == "deliver", None)',
        "tests/test_trace.py::test_a_trace_alone_gives_each_handler_runs_end[task_a]",
    ),
    # a handoff delivered from its queue writes no `handoff` line, so the trace no longer says whether it attached
    "queued_delivery_drops_outcome": (
        "engine.py", "if outcome is not None:", "if False:",
        "tests/test_trace.py::test_a_trace_alone_gives_each_handler_runs_end[contention]",
    ),
    # a request decided at admission gets a `decision` record and no admit record
    "admission_decision_not_merged": (
        "engine.py", "if derived is None:", "if True:",
        "tests/test_trace.py::test_a_trace_alone_explains_every_decision[contention]",
    ),
    # the record of a request decided at admission names no root, so the trace no longer ties it to its input
    "admission_decision_no_root": (
        "engine.py", "self._emit(decided_admit_line, decision, root, derived)",
        "self._emit(decided_admit_line, decision, None, derived)",
        "tests/test_trace.py::test_a_trace_alone_explains_every_decision[contention]",
    ),
    # a handler run cut off by its root's window writes no line, so the trace gives it the end of a whole run
    "backstop_writes_no_line": (
        "engine.py", 'self._emit(complete_line, busy.event.event_id, pid, "window_backstop")', "pass",
        "tests/test_trace.py::test_a_trace_alone_gives_each_handler_runs_end[contention]",
    ),
    # a recorded trace whose last line lacks its newline diverges there
    "replay_needs_last_newline": (
        "trace.py", "if expected != line and expected != line[:-1]:", "if expected != line:",
        "tests/test_runner.py::test_replay_accepts_a_trace_without_its_final_newline",
    ),
    # a file cut inside a line is reported as diverging, not as truncated
    "replay_cut_line_diverges": (
        "trace.py",
        'if not expected or (not expected.endswith("\\n") and line.startswith(expected)):',
        "if not expected:",
        "tests/test_cli.py::test_replay_reports_a_cut_trace_as_truncated[inside_a_line-truncated]",
    ),
    # replay reads the recorded file with universal newlines, so CRLF line endings pass as LF
    "replay_translates_line_endings": (
        "trace.py", 'open(path, errors="replace", newline="")', 'open(path, errors="replace")',
        "tests/test_cli.py::test_replay_of_a_trace_whose_line_endings_changed_diverges_at_its_header",
    ),
}


def _pytest(copy: Path, *targets: str) -> tuple[int, float]:
    """Run pytest on `targets` in `copy`; returns (pytest's exit status, seconds)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(MUTANTS))
        return 0
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; see --list", file=sys.stderr)
        return 2
    names = argv or list(MUTANTS)
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        status, seconds = _pytest(copy, "tests")
        if status != 0:
            print(f"the unmutated suite fails ({seconds:.0f} s); no mutant was run", file=sys.stderr)
            return 2
        print(f"unmutated: passed ({seconds:.0f} s)")
        survivors = []
        for name in names:
            filename, line, mutated, test = MUTANTS[name]
            path = copy / "src" / "delegauth" / filename
            original = path.read_text()
            if original.count(line) != 1:
                print(f"{name}: {line!r} does not occur exactly once in {filename}", file=sys.stderr)
                return 2
            path.write_text(original.replace(line, mutated))
            try:
                # any failure counts, as in the whole suite: a mutant that breaks an
                # import leaves the test uncollected; the unmutated suite's
                # `tests/test_mutants.py` has checked that each named test exists
                status, seconds = _pytest(copy, test)
                verdict = "killed by its test"
                if status == 0:
                    status, more = _pytest(copy, "tests", "--ignore=tests/test_mutants.py")
                    seconds += more
                    verdict = "killed by the suite" if status else "SURVIVED"
            finally:
                path.write_text(original)
            print(f"{name}: {verdict} ({seconds:.0f} s)")
            if status == 0:
                survivors.append(name)
    print(f"{len(names) - len(survivors)} of {len(names)} killed in {time.perf_counter() - began:.0f} s"
          + (f"; survived: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
