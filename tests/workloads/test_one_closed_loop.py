"""One closed loop, pinned by counting call sites — not by reading.

Table 3's streams, Figures 8-9's thread groups, the multi-user mode and
``repro serve-bench``'s session ladder all run through
``WorkloadDriver.closed_loop``: it is the one function in ``src/repro``
that builds ``UserScript``s, constructs a ``WorkloadSimulator`` and calls
``build_serving_run``, so every concurrent run carries the serving
telemetry.  At ca65f83 this walk found 3 ``UserScript`` / 3
``WorkloadSimulator`` / 1 ``build_serving_run`` sites across three
functions (``simulate_streams``, ``simulate_groups`` and
``ConcurrentDriver.run``).
"""

import ast

import pytest

from tests.core.test_one_dispatch_site import _terminal_name, modules

CLOSED_LOOP = ("workloads/driver.py", "closed_loop")


def owners(name):
    """``(module, innermost enclosing function)`` of every call of
    ``name``; ``<module>`` for a call outside any function."""
    found = []
    for module, tree in modules():
        functions = [f for f in ast.walk(tree)
                     if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and _terminal_name(node.func) == name):
                continue
            enclosing = [f for f in functions
                         if f.lineno <= node.lineno <= f.end_lineno]
            inner = max(enclosing, key=lambda f: f.lineno, default=None)
            found.append((module, inner.name if inner else "<module>"))
    return found


@pytest.mark.parametrize("name", [
    "UserScript", "WorkloadSimulator", "build_serving_run"])
def test_only_closed_loop_runs_sessions(name):
    assert owners(name) == [CLOSED_LOOP]
