"""One dispatch site, pinned by counting call sites — not by reading.

The lease -> stage -> launch -> fall-back loop lives in
``repro.core.dispatch`` and nowhere else; the three-engine flow-shop
recurrence lives in ``repro.gpu.streams.FlowShop`` and nowhere else.
These guards walk the AST of ``src/repro`` and count, so a twelfth
hand-copied launch block fails here before it can drift.  At 6af174f
they read 11 ``streamed_launch`` / 11 ``try_acquire`` / 11
``record_failure`` / 11 ``record_success`` / 14 scheduler ``release``
call sites, and two functions carrying the recurrence.

The second half counts the *decision* the same way: one plan value
(``SplitPlan``), one ``price``, one gate (``judge``) and one entry point
(``Dispatcher.split``) behind all six "should this operator split?"
sites.  At c3b3edf there were two plan classes told apart by
``isinstance``, three planners, two selectors, three Decision
dataclasses, 4 ``home_devices`` call sites, ``FlowShop()`` built in 5
functions, the path strings spelled by hand in 4-5 modules and the
knobs copied into 7 executor fields.
"""

import ast
import dataclasses
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


# ---------------------------------------------------------------------------
# One plan, one price, one gate
# ---------------------------------------------------------------------------

RETIRED = (
    "FusedDecision", "PartitionDecision", "ShardDecision",
    "PartitionPlan", "ShardPlan",
    "plan_groupby_partitions", "plan_sort_partitions", "plan_sharded",
    "select_fused_path", "select_partitioned_path", "select_sharded_path",
)


def test_the_old_planners_selectors_and_decisions_are_gone():
    """Not behind a switch, not as a thin alias: no class, function,
    assignment or import alias in ``src/repro`` binds a retired name."""
    bound = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            bound += [(module, name) for name in names if name in RETIRED]
    assert not bound


def test_home_devices_has_one_call_site():
    assert [m for m, _ in call_sites("home_devices")] == [DISPATCH]


def _enclosing_functions(call_name):
    """``(module, function)`` of every function whose body calls
    ``call_name`` directly."""
    owners = set()
    for module, tree in modules():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Call)
                        and _terminal_name(node.func) == call_name):
                    owners.add((module, function.name))
    return owners


def test_flow_shops_are_built_in_at_most_three_functions():
    """A launch's chunks, a device's back-to-back pieces, and ``price``
    (one shop for pieces in time, one per home device in space)."""
    assert _enclosing_functions("FlowShop") == {
        (STREAMS, "schedule"), ("gpu/partition.py", "advance"),
        ("gpu/partition.py", "price")}


def test_no_reader_tells_plans_apart_by_type():
    """A split in time and a split in space are one value; the home
    devices (empty in time) tell them apart, never ``isinstance``."""
    offenders = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _terminal_name(node.func) == "isinstance"
                    and len(node.args) == 2
                    and any(isinstance(n, (ast.Name, ast.Attribute))
                            and _terminal_name(n).endswith("Plan")
                            for n in ast.walk(node.args[1]))):
                offenders.append((module, node.lineno))
    assert not offenders


@pytest.mark.parametrize("literal", [
    "pathselect.partition", "pathselect.shard",
    "gpu-partitioned", "gpu-sharded"])
def test_gate_and_path_names_are_spelled_in_one_module(literal):
    spelled = {module for module, tree in modules()
               for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value == literal}
    assert spelled == {"gpu/partition.py"}


def test_executors_carry_no_copy_of_the_knobs():
    """The knobs live on ``SystemConfig`` and are read in one place
    (``Dispatcher.split``), not copied into executor fields."""
    knobs = {"partition_large", "max_partitions", "shard_enabled"}
    copies = []
    for module, tree in modules():
        if not (module.startswith("core/hybrid_")
                or module == "gpu/fusion.py"):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                target = getattr(stmt, "target", None)
                if isinstance(target, ast.Name) and target.id in knobs:
                    copies.append((module, cls.name, target.id))
    assert not copies


def test_executor_constructors_stay_small():
    from repro.core.hybrid_groupby import HybridGroupByExecutor
    from repro.core.hybrid_join import HybridJoinExecutor
    from repro.core.hybrid_sort import HybridSortExecutor

    def fields(cls):
        return [f.name for f in dataclasses.fields(cls)
                if f.name != "last_stats"]

    assert fields(HybridGroupByExecutor) == [
        "dispatch", "moderator", "thresholds", "race_kernels"]
    assert fields(HybridSortExecutor) == ["dispatch", "thresholds"]
    assert fields(HybridJoinExecutor) == ["dispatch", "thresholds"]
