"""End-to-end and per-layer benchmark of the delegauth reference monitor.

Run from the repository root, with no install step:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

The run is batch-style: one process, one thread, on the engine's virtual
clock. It generates the workload from the seed, checks a plain
`run_scenario` of it against the pinned digest (seed 1 only), then repeats
set-up and a sliced drive of the engine until `--seconds` have passed.
Every timed run's decisions and prompts are compared with the reference.

`--trace 0` prints the end-to-end metrics; `--trace 1` is the span run,
which prints the per-layer metrics instead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Without `--workload`, every workload runs in turn, each in its own process.
`--pin-reference` rewrites the pinned digests for seed 1.

Nothing is pinned to a CPU, no frequency governor is changed and no cache is
dropped; the host's state is printed with every run instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"
DEFAULT_SEED = 1
HOST_LIMITS = "no CPU pinning, governor changes or cache drops"


def _load_package() -> None:
    """Import delegauth from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import delegauth
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import delegauth from {src}: {exc}")
    if Path(delegauth.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: delegauth was imported from {delegauth.__file__}, not {src}")


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> str:
    load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    return (
        f"host cpus={os.cpu_count()} python={platform.python_version()} "
        f"git={git_sha()} loadavg={load}"
    )


def pin_reference() -> None:
    from delegauth import loads_scenario
    from measure import Reference
    from workloads import WORKLOADS, scenario_text

    digests = {
        name: Reference.of(loads_scenario(scenario_text(w, DEFAULT_SEED))).digest
        for name, w in WORKLOADS.items()
    }
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n")
    print(f"wrote {DIGESTS}")


def run_workload(workload, seed: int, seconds: float, trace: int) -> tuple[dict, "Check"]:
    from delegauth import loads_scenario
    from measure import Reference
    from metrics import Check, end_to_end, per_layer
    from workloads import scenario_text

    t0 = time.perf_counter()
    text = scenario_text(workload, seed)
    generate_s = time.perf_counter() - t0
    scn = loads_scenario(text)
    ref = Reference.of(scn, OUT_DIR / f"{workload.name}.trace" if workload.traced else None)
    check = Check(ref)
    if ref.ambiguous:
        check.faults.append(f"reference: {ref.ambiguous} ambiguous requests")
    if seed == DEFAULT_SEED:
        pinned = json.loads(DIGESTS.read_text())["digests"][workload.name]
        if ref.digest != pinned:
            check.faults.append(f"reference digest {ref.digest} differs from the pinned {pinned}")
    print(f"inputs={ref.n_inputs} requests={len(ref.decisions)} prompts={len(ref.prompts)}")

    try:
        if trace == 0:
            metrics = end_to_end(workload, text, ref, seconds, check, OUT_DIR)
        else:
            metrics = per_layer(workload, scn, text, ref, seconds, check, OUT_DIR)
            metrics["workload.generate_s"] = (generate_s, "s")
    except Exception:
        check.crashed("measured runs")
        return {}, check
    return metrics, check


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, one after another, each in a process of its own."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    _load_package()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.pin_reference:
        pin_reference()
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    workload = WORKLOADS[args.workload]
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(host_facts())
    print(f"host limits: {HOST_LIMITS}")
    print(f"workload {workload.describe(args.seed)}")
    print(f"why: {workload.why}")
    OUT_DIR.mkdir(exist_ok=True)
    try:
        metrics, check = run_workload(workload, args.seed, args.seconds, args.trace)
    finally:
        for trace_file in OUT_DIR.glob("*.trace"):
            trace_file.unlink()

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    frac = check.failed / check.attempted if check.attempted else 1.0
    print(f"failed_frac = {frac:.6g} ({check.failed} of {check.attempted} requests)")
    for fault in check.faults:
        print(f"FAULT {fault}")
    if not metrics:
        return 1
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
