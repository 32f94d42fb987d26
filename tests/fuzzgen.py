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

    config = {"window_ms": 150, "default_lag_ms": rng.randint(1, 8)}
    operations = [
        {"op": "capture_picture", "sensors": ["Camera"], "phrase": "capture pictures"},
        {"op": "record_audio", "sensors": ["Microphone"], "phrase": "record audio"},
    ]

    n_widgets = rng.randint(2, 5)
    widgets: list[dict] = []
    handlers: list[dict] = []
    hop_seq = 0
    for w in range(n_widgets):
        label = f"cmd {w}"
        widgets.append({"label": label, "input": "voice"})
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
                op = rng.choice(operations)
                actions.append({"request": [op["op"], op["sensors"][0]], "after": lag})
            if idx < len(chain) - 1:
                lag += rng.randint(1, 10)
                hop_seq += 1
                actions.append({"handoff": chain[idx + 1], "after": lag, "label": f"hop{hop_seq}"})
                trigger_label = f"hop{hop_seq}"
            actions.append({"complete": lag + rng.randint(0, 5)})
            if idx == 0:
                handlers.append({"program": prog, "on": {"widget": label}, "actions": actions})
            else:
                handlers.append(
                    {"program": prog, "on": {"handoff": prev_trigger}, "actions": actions}
                )
            prev_trigger = trigger_label if idx < len(chain) - 1 else None

    t = 0
    timeline = []
    labels = [w["label"] for w in widgets]
    for _ in range(rng.randint(3, 10)):
        t += rng.randint(*gaps_ms)
        receiver = None
        label = rng.choice(labels)
        # the receiver is fixed by the widget's first handler
        for h in handlers:
            if h["on"].get("widget") == label:
                receiver = h["program"]
                break
        timeline.append(
            {"phase": "main", "t": t, "kind": "input", "widget": label, "program": receiver}
        )
    return Scenario(
        programs=[{"name": n, "mark": f"P{i}"} for i, n in enumerate(names)],
        widgets=widgets,
        sensors=[{"id": "Camera"}, {"id": "Microphone"}],
        operations=operations,
        handlers=handlers,
        config=config,
        mode="delegation",
        policies={"preliminary": ["allow * * * *"], "main": ["allow * * * *"]},
        timeline=timeline,
    )
