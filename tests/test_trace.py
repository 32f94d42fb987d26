"""The trace module's place among the package's modules.

`trace.py` holds the trace format, and the engine imports its encoders, so it
may import the standard library, `errors` and `model` alone: a module above
the engine would make an import cycle.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "delegauth"


def test_the_trace_module_loads_no_module_above_it():
    # the package's `__init__` imports every module, so the fresh interpreter
    # registers a bare package first: only `trace.py`'s own imports run
    code = (
        "import sys, types\n"
        "package = types.ModuleType('delegauth')\n"
        f"package.__path__ = [{str(PACKAGE)!r}]\n"
        "sys.modules['delegauth'] = package\n"
        "import delegauth.trace\n"
        "print(' '.join(sorted(name for name in sys.modules if name.startswith('delegauth.'))))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert not {"delegauth.engine", "delegauth.scenario", "delegauth.runner"} & set(loaded)
    assert loaded == ["delegauth.errors", "delegauth.model", "delegauth.trace"]


def test_the_engine_writes_no_json_itself():
    tree = ast.parse((PACKAGE / "engine.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "json" not in imported
