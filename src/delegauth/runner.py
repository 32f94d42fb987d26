"""End-to-end runs: execute scenarios, compare modes, verify trace replays."""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .auth import AuthorizationCache, Decision, InteractivePrompt, ScriptedPolicy, parse_policy_rules
from .engine import Engine, Mode
from .errors import InvariantViolation, ParseError, TraceDivergence
from .scenario import MODE_SPELLINGS, Scenario, loads_scenario, read_trace_header, timeline_specs
from .trace import TraceCheck, TraceWriter, trace_header


@dataclass
class RunReport:
    mode: str
    final_t: int = 0
    wall_ms: float = 0.0
    prompts: list[dict] = field(default_factory=list)
    prompt_counts: dict = field(default_factory=dict)  # phase -> count
    engine_decisions: list[Decision] = field(default_factory=list)  # the engine's own list
    attack_outcomes: dict = field(default_factory=dict)  # name -> succeeded?
    expect_failures: list[str] = field(default_factory=list)
    delay_stats: dict = field(default_factory=dict)
    path_edge_histogram: dict = field(default_factory=dict)
    ambiguous_requests: int = 0

    @property
    def decisions(self) -> list[dict]:
        """Each decision as a dict, built anew on every read."""
        return [d.to_dict() for d in self.engine_decisions]

    @property
    def main_prompts(self) -> int:
        return self.prompt_counts.get("main", 0)

    @property
    def preliminary_prompts(self) -> int:
        return self.prompt_counts.get("preliminary", 0)


def resolve_mode(scn: Scenario, mode: Mode | str | None) -> Mode:
    """The mode a run of `scn` uses: `mode`, a spelling of one, or (None) the scenario's own."""
    if not isinstance(mode, Mode):
        spelling = scn.mode if mode is None else mode
        mode = MODE_SPELLINGS.get(spelling)
        if mode is None:
            raise ParseError(f"unknown mode {spelling!r}; expected one of {', '.join(MODE_SPELLINGS)}")
    return mode


def build_engine(
    scn: Scenario,
    mode: Mode | str | None = None,
    policy_rules: list[str] | None = None,
    window_ms: int | None = None,
    cache: AuthorizationCache | None = None,
    trace=None,
    interactive: bool = False,
) -> tuple[Engine, dict[str, str]]:
    registry, handlers, name_to_id = scn.build()
    config = scn.engine_config(resolve_mode(scn, mode), window_override=window_ms)
    if interactive:
        prompt = InteractivePrompt()
        authorizers = {"preliminary": prompt, "main": prompt}
    else:
        main_rules = policy_rules if policy_rules is not None else scn.policies.get("main")
        main_policy = ScriptedPolicy(main_rules) if main_rules else ScriptedPolicy.allow_all()
        pre_rules = scn.policies.get("preliminary")
        pre_policy = ScriptedPolicy(pre_rules) if pre_rules else ScriptedPolicy.allow_all()
        authorizers = {"preliminary": pre_policy, "main": main_policy}
    engine = Engine(
        registry, handlers=handlers, config=config, authorizers=authorizers, cache=cache, trace=trace
    )
    return engine, name_to_id


def _schedule_timeline(engine: Engine, scn: Scenario, name_to_id: dict[str, str]) -> None:
    """Queue the timeline of `scn` on `engine`, whose registry and `name_to_id` come from `scn.build()`.

    A loaded scenario's timeline was resolved as it was loaded, and its
    specs are queued from there; any other scenario's is resolved now, by
    `timeline_specs`, and checked as it is. Either way entries alike share
    a spec, so each entry is queued with a copy of its own, which the engine
    frees as it admits the entry and the run's own allocations then reuse:
    a run over the shared specs themselves was about 1% slower per event.
    """
    specs = timeline_specs(scn, engine.registry, name_to_id) if scn._specs is None else scn._specs
    for e, spec in zip(scn.timeline, specs):
        engine.schedule(e["t"], dict(spec))


def evaluate_attacks(engine: Engine, scn: Scenario, name_to_id: dict[str, str]) -> dict:
    """Attack succeeds iff the named triple was allowed silently in the main phase."""
    outcomes = {}
    for a in scn.attacks:
        pid = name_to_id[a["program"]]
        outcomes[a["name"]] = any(
            d.silent_allow and d.phase == "main" and (d.program_id, d.op, d.sensor) == (pid, a["op"], a["sensor"])
            for d in engine.decisions
        )
    return outcomes


def run_scenario(
    scn: Scenario,
    mode: Mode | str | None = None,
    policy_rules: list[str] | None = None,
    window_ms: int | None = None,
    cache: AuthorizationCache | None = None,
    trace=None,
    interactive: bool = False,
) -> tuple[RunReport, Engine]:
    engine, name_to_id = build_engine(
        scn, mode=mode, policy_rules=policy_rules, window_ms=window_ms, cache=cache,
        trace=trace, interactive=interactive,
    )
    _schedule_timeline(engine, scn, name_to_id)
    t0 = time.perf_counter()
    final_t = engine.run_to_quiescence()
    wall_ms = (time.perf_counter() - t0) * 1000.0

    mode = engine.config.mode
    report = RunReport(mode=mode.value, final_t=final_t, wall_ms=wall_ms)
    report.prompts = list(engine.prompts)
    report.prompt_counts = {
        phase: engine.prompt_count(phase) for phase in ("preliminary", "main")
    }
    report.engine_decisions = engine.decisions
    report.attack_outcomes = evaluate_attacks(engine, scn, name_to_id)
    report.delay_stats = engine.stats.to_dict()
    edges = Counter(d.path_key.edge_count for d in engine.decisions if d.path_key is not None)
    report.path_edge_histogram = dict(sorted(edges.items()))
    report.ambiguous_requests = engine.ambiguous_requests
    report.expect_failures = _check_expectations(scn, report, mode)
    return report, engine


def _check_expectations(scn: Scenario, report: RunReport, mode: Mode) -> list[str]:
    failures = []
    for x in scn.expects:
        if resolve_mode(scn, x["mode"]) is not mode:
            continue
        for phase in ("main", "preliminary"):
            expected, actual = x.get(f"{phase}_prompts"), report.prompt_counts.get(phase, 0)
            if expected is not None and actual != expected:
                failures.append(f"mode {x['mode']}: expected {expected} {phase} prompts, got {actual}")
        for name, expected in x.get("attack", {}).items():
            actual = report.attack_outcomes.get(name)
            if actual != expected:
                failures.append(
                    f"mode {x['mode']}: attack {name!r} expected succeeded={expected}, got {actual}"
                )
    return failures


def compare_modes(scn: Scenario, window_ms: int | None = None) -> dict:
    """Run both authorization modes from clean state and tabulate the contrast."""
    reports = {}
    for mode in (Mode.FIRST_USE, Mode.DELEGATION):
        reports[mode.value], _engine = run_scenario(scn, mode=mode, window_ms=window_ms)
    return reports


# -- tracing and replay --------------------------------------------------------------


def run_with_trace(
    scn: Scenario,
    trace_path: str | Path,
    mode: Mode | str | None = None,
    policy_rules: list[str] | None = None,
    window_ms: int | None = None,
) -> tuple[RunReport, TraceWriter]:
    """Run with a trace file at `trace_path`.

    The header names a `Mode` member by its spelling, and a spelling as
    given. `Mode.PASS_THROUGH` has none, so no replay could re-run it. It, an
    unknown spelling, a bad window and bad policy rules each raise before the
    file is created. The file is closed, and so complete, also when the run
    raises.
    """
    if isinstance(mode, Mode):
        if mode.value not in MODE_SPELLINGS:
            raise InvariantViolation(f"mode {mode.value!r} has no spelling in a trace header")
        mode = mode.value
    scn.engine_config(resolve_mode(scn, mode), window_override=window_ms)  # as `build_engine` will
    if policy_rules:  # `build_engine` takes no rules, or an empty list, as allowing all
        parse_policy_rules(policy_rules)
    with open(trace_path, "w") as fh:
        writer = TraceWriter(fh, trace_header(scn, mode, policy_rules, window_ms, None))
        report, _engine = run_scenario(
            scn, mode=mode, policy_rules=policy_rules, window_ms=window_ms, trace=writer,
        )
    return report, writer


def replay(trace_path: str | Path) -> RunReport:
    """Re-execute the embedded scenario and verify a byte-identical trace.

    `TraceCheck` compares the re-run's lines with the recorded file's as they
    are written, and raises at the first that differs.
    """
    with TraceCheck(trace_path) as check:
        header = read_trace_header(check.recorded)
        scn = loads_scenario(header["scenario"])
        mode, policy_rules, window_ms = header.get("mode"), header.get("policy_override"), header.get("window_override")
        rerun_header = trace_header(scn, mode, policy_rules, window_ms, header.get("seed"))
        if rerun_header["scenario_sha256"] != header["scenario_sha256"]:
            raise TraceDivergence(0, "embedded scenario does not match its recorded digest")
        check.recorded.seek(0)  # the re-run's header line is checked too
        report, _engine = run_scenario(scn, mode=mode, policy_rules=policy_rules, window_ms=window_ms,
                                       trace=TraceWriter(check, rerun_header))
        check.finish()
    return report
