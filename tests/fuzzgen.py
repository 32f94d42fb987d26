"""Seeded random mini-scenarios for the unambiguity fuzz.

Each scenario has at most 6 programs and chains of at most 4 handoffs; input
gaps dip below the window so that, with the scheduler disabled, overlapping
roots can reach a shared program.
"""

from __future__ import annotations

import random

from delegauth.scenario import Scenario


def fuzz_scenario(seed: int, gaps_ms: tuple[int, int] = (10, 400)) -> Scenario:
    """The scenario of `seed`; consecutive inputs are `gaps_ms` (low, high) apart."""
    rng = random.Random(seed)
    n_programs = rng.randint(2, 6)
    names = [f"prog{i}" for i in range(n_programs)]

    scn = Scenario()
    scn.config = {"window_ms": 150, "default_lag_ms": rng.randint(1, 8)}
    scn.mode = "delegation"
    scn.policies = {"preliminary": ["allow * * * *"], "main": ["allow * * * *"]}
    scn.programs = [{"name": n, "mark": f"P{i}"} for i, n in enumerate(names)]
    scn.sensors = [{"id": "Camera"}, {"id": "Microphone"}]
    scn.operations = [
        {"op": "capture_picture", "sensors": ["Camera"], "phrase": "capture pictures"},
        {"op": "record_audio", "sensors": ["Microphone"], "phrase": "record audio"},
    ]

    n_widgets = rng.randint(2, 5)
    hop_seq = 0
    for w in range(n_widgets):
        label = f"cmd {w}"
        scn.widgets.append({"label": label, "input": "voice"})
        receiver = rng.choice(names)
        depth = rng.randint(0, 4)
        chain = [receiver]
        pool = [n for n in names if n != receiver]
        rng.shuffle(pool)
        chain.extend(pool[:depth])

        for idx, prog in enumerate(chain):
            actions = []
            lag = 0
            if rng.random() < 0.75 or idx == len(chain) - 1:
                lag += rng.randint(1, 10)
                op = rng.choice(scn.operations)
                actions.append({"request": [op["op"], op["sensors"][0]], "after": lag})
            if idx < len(chain) - 1:
                lag += rng.randint(1, 10)
                hop_seq += 1
                actions.append({"handoff": chain[idx + 1], "after": lag, "label": f"hop{hop_seq}"})
                trigger_label = f"hop{hop_seq}"
            actions.append({"complete": lag + rng.randint(0, 5)})
            if idx == 0:
                scn.handlers.append({"program": prog, "on": {"widget": label}, "actions": actions})
            else:
                scn.handlers.append(
                    {"program": prog, "on": {"handoff": prev_trigger}, "actions": actions}
                )
            prev_trigger = trigger_label if idx < len(chain) - 1 else None

    t = 0
    widgets = [w["label"] for w in scn.widgets]
    for _ in range(rng.randint(3, 10)):
        t += rng.randint(*gaps_ms)
        receiver = None
        label = rng.choice(widgets)
        # the receiver is fixed by the widget's first handler
        for h in scn.handlers:
            if h["on"].get("widget") == label:
                receiver = h["program"]
                break
        scn.timeline.append(
            {"phase": "main", "t": t, "kind": "input", "widget": label, "program": receiver}
        )
    scn.source_text = scn.dump()
    return scn
