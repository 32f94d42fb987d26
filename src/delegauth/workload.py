"""Calibrated synthetic workloads.

Reproduces the ambiguity-prevention stress shape: a stream of user inputs
with gaps drawn from a configured range, a fraction of which spawn handoff
chains (depth 1 or 2) whose tail programs issue sensor requests. Aggregate
handoff/request counts are hit with error-diffusion quantizers, so a given
seed always produces the same scenario file, byte for byte.

Optional noise apps fire bursts of non-derived handoffs at the shared chain
target around chain activity; that is what the two-level queue benchmark
measures against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import InfeasibleWorkload
from .scenario import Scenario

# reference targets: 2,037 handoffs and 5,252 requests per 15,000 inputs
DEFAULT_HANDOFF_RATIO = 2037 / 15000
DEFAULT_REQUEST_RATIO = 5252 / 15000

# the fixed shape of every workload
INPUT_LAG_RANGE = (1, 22)  # ms from an input's delivery to its handoff; the top is its handler's completion
HANDOFF_LAG_RANGE = (1, 15)  # ms from a handoff's delivery to its actions; the top is its handler's completion
THREE_EDGE_FRACTION = 0.87  # the share of chains with one handoff, whose paths have three edges
WINDOW_MS = 150
NOISE_BURST_SIZE = (1, 2)  # noise handoffs per burst
NOISE_LAG_MS = 10  # the chain target's handler for a noise handoff completes after this


@dataclass
class WorkloadParams:
    n_inputs: int = 15000
    gap_range_ms: tuple[int, int] = (140, 1500)
    handoff_ratio: float = DEFAULT_HANDOFF_RATIO
    request_ratio: float = DEFAULT_REQUEST_RATIO
    seed: int = 1
    widget_rotation: int = 8
    noise_apps: int = 0
    noise_burst_prob: float = 0.0

    def validate(self) -> None:
        if self.n_inputs < 0:
            raise InfeasibleWorkload("n_inputs must be >= 0")
        lo, hi = self.gap_range_ms
        if lo < 1 or hi < lo:
            raise InfeasibleWorkload("gap range must satisfy 1 <= lo <= hi")
        for name, ratio in (("handoff_ratio", self.handoff_ratio), ("request_ratio", self.request_ratio)):
            if not 0.0 <= ratio <= 1.0:
                raise InfeasibleWorkload(f"{name} must be in [0, 1]")
        if self.handoff_ratio == 0 and self.request_ratio > 0:
            raise InfeasibleWorkload("requests need chains: request_ratio > 0 requires handoff_ratio > 0")
        if self.noise_apps < 0 or not 0.0 <= self.noise_burst_prob <= 1.0:
            raise InfeasibleWorkload("bad noise parameters")

    @property
    def chain_prob(self) -> float:
        # chains * (q*1 + (1-q)*2) = handoff target
        return self.handoff_ratio / (2.0 - THREE_EDGE_FRACTION)

    @property
    def requests_per_chain(self) -> float:
        if self.chain_prob == 0:
            return 0.0
        return self.request_ratio / self.chain_prob


_OPS = [
    ("capture_picture", "Camera"),
    ("record_audio", "Microphone"),
    ("read_location", "GpsReceiver"),
    ("capture_screen", "Screen"),
]


@dataclass
class _Carry:
    """Error-diffusion accumulator: deterministic rounding that hits a target rate."""

    rate: float
    acc: float = field(default=0.0)

    def step(self) -> int:
        self.acc += self.rate
        whole = int(self.acc)
        self.acc -= whole
        return whole


def generate_workload(params: WorkloadParams) -> Scenario:
    params.validate()
    rng = random.Random(params.seed)

    programs = [
        {"name": "ui shell", "mark": "UI"},
        {"name": "media service", "mark": "MS"},
        {"name": "relay service", "mark": "RS"},
    ]
    for i in range(params.noise_apps):
        programs.append({"name": f"background app {i + 1}", "mark": f"B{i + 1}"})

    sensors = [
        {"id": "Camera"},
        {"id": "Microphone"},
        {"id": "GpsReceiver", "phrase": "GPS receiver"},
        {"id": "Screen", "phrase": "content on the screen"},
    ]
    operations = [
        {"op": "capture_picture", "sensors": ["Camera"], "phrase": "capture pictures"},
        {"op": "record_audio", "sensors": ["Microphone"], "phrase": "record audio"},
        {"op": "read_location", "sensors": ["GpsReceiver"], "phrase": "access"},
        {"op": "capture_screen", "sensors": ["Screen"], "phrase": "capture"},
    ]

    rpc = params.requests_per_chain
    k_lo, k_hi = int(rpc), int(rpc) + (0 if rpc == int(rpc) else 1)
    rotations = max(1, params.widget_rotation)

    # plain widgets: inputs that never touch sensors (the common case)
    widgets = [{"label": f"plain action {i + 1}", "input": "gui"} for i in range(rotations)]
    handlers: list[dict] = []

    # one widget+handler family per (depth, request-count, rotation) combination
    chain_widgets: dict[tuple[int, int], list[str]] = {}
    for depth in (1, 2):
        for k in sorted({k_lo, k_hi}):
            labels = []
            for i in range(rotations):
                label = f"chain d{depth} k{k} v{i + 1}"
                labels.append(label)
                widgets.append({"label": label, "input": "voice"})
                hop1 = f"hop-d{depth}-k{k}-v{i + 1}"
                handlers.append(
                    {
                        "program": "ui shell",
                        "on": {"widget": label},
                        "actions": [
                            {"handoff": "media service", "after": rng.randint(*INPUT_LAG_RANGE),
                             "label": hop1},
                            {"complete": INPUT_LAG_RANGE[1]},
                        ],
                    }
                )
                req_lags = sorted(rng.randint(*HANDOFF_LAG_RANGE) for _ in range(max(k, 1)))
                actions = [
                    {"request": list(_OPS[(i + j) % len(_OPS)]), "after": req_lags[j] if k else 1}
                    for j in range(k)
                ]
                actions.append({"complete": HANDOFF_LAG_RANGE[1]})
                tail, trigger = "media service", hop1  # the program that requests, and its trigger
                if depth == 2:
                    tail, trigger = "relay service", f"{hop1}-relay"
                    handlers.append(
                        {
                            "program": "media service",
                            "on": {"handoff": hop1},
                            "actions": [
                                {"handoff": "relay service",
                                 "after": rng.randint(*HANDOFF_LAG_RANGE), "label": trigger},
                                {"complete": HANDOFF_LAG_RANGE[1]},
                            ],
                        }
                    )
                handlers.append({"program": tail, "on": {"handoff": trigger}, "actions": actions})
            chain_widgets[(depth, k)] = labels

    if params.noise_apps:
        handlers.append(
            {
                "program": "media service",
                "on": {"handoff": "noise"},
                "actions": [{"complete": NOISE_LAG_MS}],
            }
        )

    chain_carry = _Carry(params.chain_prob)
    depth_carry = _Carry(THREE_EDGE_FRACTION)
    req_carry = _Carry(rpc - k_lo if k_hi != k_lo else 0.0)

    events: list[dict] = []
    t = 0
    plain_idx = 0
    last_widget: str | None = None
    for _ in range(params.n_inputs):
        t += rng.randint(*params.gap_range_ms)
        if chain_carry.step():
            depth = 1 if depth_carry.step() else 2
            k = k_hi if req_carry.step() else k_lo
            options = chain_widgets[(depth, k)]
            label = rng.choice(options)
            if label == last_widget and len(options) > 1:
                label = options[(options.index(label) + 1) % len(options)]
            if params.noise_apps and rng.random() < params.noise_burst_prob:
                burst = rng.randint(*NOISE_BURST_SIZE)
                for _n in range(burst):
                    app = f"background app {rng.randint(1, params.noise_apps)}"
                    events.append(
                        {"phase": "main", "t": t + rng.randint(0, 3), "kind": "handoff",
                         "src": app, "dst": "media service", "provenance": None, "action": "noise"}
                    )
        else:
            label = f"plain action {plain_idx % rotations + 1}"
            plain_idx += 1
        last_widget = label
        events.append({"phase": "main", "t": t, "kind": "input", "widget": label, "program": "ui shell"})

    events.sort(key=lambda e: e["t"])  # stable: preserves insertion order at equal t
    return Scenario(
        programs=programs, widgets=widgets, sensors=sensors, operations=operations, handlers=handlers,
        config={"window_ms": WINDOW_MS, "default_lag_ms": 5}, mode="delegation",
        policies={"preliminary": ["allow * * * *"], "main": ["allow * * * *"]}, timeline=events,
    )


def expected_counts(params: WorkloadParams) -> dict:
    """Aggregate event counts the generator aims for (before repeats)."""
    chains = round(params.chain_prob * params.n_inputs)
    return {
        "inputs": params.n_inputs,
        "chains": chains,
        "handoffs": round(params.handoff_ratio * params.n_inputs),
        "requests": round(params.request_ratio * params.n_inputs),
    }
