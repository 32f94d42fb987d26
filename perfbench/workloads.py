"""The benchmark's four workloads, built from `generate_workload` and a seed.

Each workload is turned into scenario text; the engine receives nothing
else. The reasons for choosing each workload are kept next to its
parameters, so that every run can print them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from delegauth import WorkloadParams, generate_workload

# A background app that asks for the Microphone about every 10 s of virtual
# time. None of its requests can be attributed to an input, so each one makes
# the store look through every sealed root.
RECORDER = {"name": "background recorder", "mark": "BR"}
RECORDER_GAP_MS = (9500, 10500)


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict = field(default_factory=dict)  # WorkloadParams overrides
    why: str = ""
    deny_all: bool = False  # main-phase policy "deny * * * *"
    recorder: bool = False  # add RECORDER to the generated scenario
    traced: bool = False  # timed runs write a trace file; the last one is replayed

    def describe(self, seed: int) -> str:
        extras = [k for k in ("deny_all", "recorder", "traced") if getattr(self, k)]
        params = ", ".join(f"{k}={v}" for k, v in self.params.items()) or "defaults"
        return f"{self.name}: WorkloadParams({params}, seed={seed}) {' '.join(extras)}".rstrip()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady",
            why="WorkloadParams(), 15,000 inputs: the common case; 5,174 of 5,250 requests served "
            "from cache, 30 prompts; graph snapshots and the engine loop do the work",
        ),
        Workload(
            "refusing",
            params={"n_inputs": 7500, "handoff_ratio": 0.8, "request_ratio": 1.0, "widget_rotation": 250},
            deny_all=True,
            why="7,500 inputs, most of them start a chain, policy deny * * * *: nothing is cached, "
            "most roots prompt, and 1,250 widgets make loading slow",
        ),
        Workload(
            "crowded",
            params={"n_inputs": 7500, "noise_apps": 300, "noise_burst_prob": 0.5},
            recorder=True,
            why="7,500 inputs, 300 noise apps, and an app asking for the Microphone every ~10 s: "
            "cost that grows with the number of programs and with history",
        ),
        Workload(
            "recorded",
            params={"n_inputs": 7500},
            traced=True,
            why="WorkloadParams() at 7,500 inputs, run with a trace file, then replayed: "
            "the trace encoder and replay, which no other workload runs",
        ),
    )
}


def scenario_text(workload: Workload, seed: int) -> str:
    """Scenario text for one workload; the same seed gives the same text."""
    scn = generate_workload(WorkloadParams(seed=seed, **workload.params))
    if workload.deny_all:
        scn.policies["main"] = ["deny * * * *"]
    if workload.recorder:
        rng = random.Random(f"recorder-{seed}")
        scn.programs.append(dict(RECORDER))
        end = scn.timeline[-1]["t"]
        t = rng.randint(*RECORDER_GAP_MS)
        while t < end:
            scn.timeline.append(
                {"phase": "main", "t": t, "kind": "request", "program": RECORDER["name"],
                 "op": "record_audio", "sensor": "Microphone"}
            )
            t += rng.randint(*RECORDER_GAP_MS)
        scn.timeline.sort(key=lambda e: e["t"])  # stable: inputs stay ahead at equal t
    return scn.dump()
