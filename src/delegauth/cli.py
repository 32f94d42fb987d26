"""Command-line interface.

Exit codes: 0 ok, 2 validation error, 3 attack-assertion failure,
4 trace divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from .auth import parse_policy_rules
from .bench import SUITES, run_suite
from .errors import DelegauthError, ParseError, TraceDivergence
from .runner import compare_modes, replay, run_scenario, run_with_trace
from .scenario import MODE_SPELLINGS, load_scenario
from .workload import WorkloadParams, generate_workload

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3
EXIT_DIVERGENCE = 4


def _print_report(report, out) -> None:
    print(f"mode: {report.mode}", file=out)
    print(f"virtual end time: {report.final_t} ms  (wall {report.wall_ms:.1f} ms)", file=out)
    print(
        f"prompts: preliminary={report.preliminary_prompts} main={report.main_prompts}",
        file=out,
    )
    for p in report.prompts:
        print(f"  [{p['phase']} t={p['t']}] {p['text']}", file=out)
    decisions = report.decisions
    allowed = sum(1 for d in decisions if d["outcome"] == "allowed")
    denied = len(decisions) - allowed
    print(f"decisions: {allowed} allowed, {denied} denied", file=out)
    for name, success in report.attack_outcomes.items():
        print(f"attack {name}: {'SUCCEEDED' if success else 'blocked'}", file=out)
    stats = report.delay_stats
    print(
        f"events: {stats['total_events']} total, {stats['delayed_events']} delayed "
        f"(max {stats['max_delay_ms']} ms), {stats['expired_events']} expired",
        file=out,
    )
    for fail in report.expect_failures:
        print(f"EXPECTATION FAILED: {fail}", file=out)


def cmd_run(args) -> int:
    if args.interactive and args.trace:
        # a trace records the scenario's policy, not the answers typed, so replay could not re-run it
        raise ParseError("--interactive cannot be combined with --trace")
    scn = load_scenario(args.file)
    policy_rules = None
    if args.policy:
        try:
            policy_rules = Path(args.policy).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.policy}: not UTF-8 text ({exc.reason})") from None
        parse_policy_rules(policy_rules)  # validate eagerly
    if args.trace:
        report, _writer = run_with_trace(
            scn, args.trace, mode=args.mode, policy_rules=policy_rules, window_ms=args.window_ms,
        )
    else:
        report, _engine = run_scenario(
            scn, mode=args.mode, policy_rules=policy_rules, window_ms=args.window_ms,
            interactive=args.interactive,
        )
    _print_report(report, sys.stdout)
    return EXIT_ASSERTION if report.expect_failures else EXIT_OK


def cmd_compare(args) -> int:
    reports = compare_modes(load_scenario(args.file), window_ms=args.window_ms)
    failures = []
    for mode, report in reports.items():
        print(f"=== {mode} ===")
        _print_report(report, sys.stdout)
        failures.extend(report.expect_failures)
        print()
    return EXIT_ASSERTION if failures else EXIT_OK


def cmd_gen(args) -> int:
    try:
        lo, hi = (int(x) for x in args.gaps.split(","))
    except ValueError:
        raise ParseError(f"--gaps must be LO,HI in integer ms, got {args.gaps!r}") from None
    params = WorkloadParams(
        n_inputs=args.n, gap_range_ms=(lo, hi), seed=args.seed, noise_apps=args.noise_apps,
        noise_burst_prob=0.5 if args.noise_apps else 0.0,
    )
    scn = generate_workload(params)
    Path(args.out).write_text(scn.text())
    print(f"wrote {args.out}: {args.n} inputs, seed {args.seed}")
    return EXIT_OK


def git_sha() -> str:
    """Commit of the checkout this package runs from; 'unknown' outside one."""
    root = Path(__file__).resolve().parents[2]
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def cmd_bench(args) -> int:
    result = run_suite(args.suite)
    print(json.dumps(result, indent=2, sort_keys=True))
    if args.out:
        record = {
            "suite": args.suite,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "host_limits": "no CPU pinning, governor changes or cache drops",
            "result": result,
        }
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    report = replay(args.trace)
    print(f"replay ok: {len(report.engine_decisions)} decisions, trace byte-identical")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delegauth",
        description="Deterministic simulator for delegation-path authorization of sensor access.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--mode", choices=list(MODE_SPELLINGS))
    p_run.add_argument("--policy", help="policy file overriding the main-phase scripted policy")
    p_run.add_argument("--interactive", action="store_true", help="prompt on stdin/stdout")
    p_run.add_argument("--window-ms", type=int, default=None, help="overrides the scenario's window_ms")
    p_run.add_argument("--trace", help="write the run trace to this path")
    p_run.set_defaults(fn=cmd_run)

    p_cmp = sub.add_parser("compare", help="run both modes and tabulate the contrast")
    p_cmp.add_argument("file")
    p_cmp.add_argument("--window-ms", type=int, default=None, help="overrides the scenario's window_ms")
    p_cmp.set_defaults(fn=cmd_compare)

    p_gen = sub.add_parser("gen", help="generate a calibrated synthetic workload")
    p_gen.add_argument("out")
    p_gen.add_argument("--n", type=int, default=15000)
    p_gen.add_argument("--gaps", default="140,1500", help="LO,HI gap range in ms")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--noise-apps", type=int, default=0)
    p_gen.set_defaults(fn=cmd_gen)

    p_bench = sub.add_parser("bench", help="run a micro-benchmark suite")
    p_bench.add_argument("suite", choices=list(SUITES))
    p_bench.add_argument("--out", help="also write the result with the git sha and host facts to this path")
    p_bench.set_defaults(fn=cmd_bench)

    p_replay = sub.add_parser("replay", help="re-execute a trace and verify it byte-for-byte")
    p_replay.add_argument("trace")
    p_replay.set_defaults(fn=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TraceDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DelegauthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
