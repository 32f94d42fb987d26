"""Deterministic simulator for delegation-path authorization of sensor access
in cooperating programs."""

from .auth import (
    AuthorizationCache,
    Decision,
    InteractivePrompt,
    ScriptedPolicy,
    render_first_use_prompt,
    render_prompt,
)
from .engine import Engine, EngineConfig, Mode
from .graph import GraphStore, InputKey, PathKey
from .model import (
    HandoffEvent,
    InputEvent,
    OperationRequest,
    Registry,
    WidgetKind,
)
from .runner import RunReport, compare_modes, replay, run_scenario, run_with_trace
from .scenario import Scenario, load_scenario, loads_scenario
from .scheduler import DelayStats, HandlerSpec, HandlerTable
from .workload import WorkloadParams, generate_workload

__all__ = [
    "AuthorizationCache",
    "Decision",
    "DelayStats",
    "Engine",
    "EngineConfig",
    "GraphStore",
    "HandlerSpec",
    "HandlerTable",
    "HandoffEvent",
    "InputEvent",
    "InputKey",
    "InteractivePrompt",
    "Mode",
    "OperationRequest",
    "PathKey",
    "Registry",
    "RunReport",
    "Scenario",
    "ScriptedPolicy",
    "WidgetKind",
    "WorkloadParams",
    "compare_modes",
    "generate_workload",
    "load_scenario",
    "loads_scenario",
    "render_first_use_prompt",
    "render_prompt",
    "replay",
    "run_scenario",
    "run_with_trace",
]
