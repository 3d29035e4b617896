"""One dispatch site, pinned by counting call sites — not by reading.

The lease -> stage -> launch -> fall-back loop lives in
``repro.core.dispatch`` and nowhere else; the three-engine flow-shop
recurrence lives in ``repro.gpu.streams.FlowShop`` and nowhere else.
These guards walk the AST of ``src/repro`` and count, so a twelfth
hand-copied launch block fails here before it can drift.  At 6af174f
they read 11 ``streamed_launch`` / 11 ``try_acquire`` / 11
``record_failure`` / 11 ``record_success`` / 14 scheduler ``release``
call sites, and two functions carrying the recurrence.
"""

import ast
import functools
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
DISPATCH = "core/dispatch.py"
STREAMS = "gpu/streams.py"


@functools.lru_cache(maxsize=None)
def modules():
    """``(relative path, AST)`` of every module under ``src/repro``."""
    return [(path.relative_to(SRC).as_posix(), ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))]


def _terminal_name(node):
    """``scheduler`` for ``scheduler``, ``self.scheduler``, ``a.scheduler``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def call_sites(name, receiver=None):
    """``(module, line)`` of every call of ``name`` — a bare function
    call, or a method call (on ``receiver`` only, when one is given)."""
    found = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == name:
                found.append((module, node.lineno))
            elif isinstance(func, ast.Attribute) and func.attr == name:
                if receiver in (None, _terminal_name(func.value)):
                    found.append((module, node.lineno))
    return found


def test_streamed_launch_is_called_from_one_place():
    sites = [s for s in call_sites("streamed_launch") if s[0] != STREAMS]
    assert [module for module, _ in sites] == [DISPATCH], sites


@pytest.mark.parametrize("method", [
    "try_acquire", "record_failure", "record_success", "release"])
def test_the_lease_protocol_has_one_call_site_each(method):
    sites = call_sites(method, receiver="scheduler")
    assert [module for module, _ in sites] == [DISPATCH], sites


def test_only_the_dispatcher_classifies_gpu_errors():
    """An ``except GpuError`` elsewhere may translate (a kernel that
    rejects its input raises ``Declined``) but never feeds the breaker
    or books a fault fallback."""
    feeds = {"record_failure", "record_success", "record_fault_fallback"}
    offenders = []
    for module, tree in modules():
        if module == DISPATCH:
            continue
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            caught = {n.id for n in ast.walk(handler.type or ast.Pass())
                      if isinstance(n, ast.Name)}
            if not caught & {"GpuError", "PinnedMemoryError"}:
                continue
            called = {_terminal_name(n.func) for n in ast.walk(handler)
                      if isinstance(n, ast.Call)}
            if called & feeds:
                offenders.append((module, handler.lineno))
    assert not offenders


def test_the_flow_shop_recurrence_is_written_once():
    """``DOUBLE_BUFFERS`` indexes a kernel-done list in one function."""
    owners = []
    for module, tree in modules():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            if any(isinstance(sub, ast.Subscript)
                   and any(isinstance(n, ast.Name)
                           and n.id == "DOUBLE_BUFFERS"
                           for n in ast.walk(sub.slice))
                   for sub in ast.walk(function)):
                owners.append((module, function.name))
    assert owners == [(STREAMS, "push")]
