"""No GPUs is a configuration of the one engine, not a second engine.

Every section-5 number is a ratio of the S824 with its K40s to the same
S824 without them, so the GPU-off arm must be the caller's config with
``gpus=()`` — its host, cost model and thresholds — run through
:class:`~repro.core.accelerator.GpuAcceleratedEngine` with no hybrid
hooks installed.  Three kinds of check pin that down:

- a counting guard over ``src/repro``: no stand-in config for the
  baseline, no second engine class constructed beside the accelerated
  one, no facade attributes mirroring :class:`~repro.blu.engine.BluEngine`;
- a fault plan on a config without GPUs is inert;
- metamorphic properties over random scalings of ``CostModel`` /
  ``HostSpec`` fields (a scale-0.01 database built once for the module).
"""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.blu.engine import BluEngine
from repro.config import CostModel, GpuSpec, HostSpec, cpu_only_testbed
from repro.core.accelerator import GpuAcceleratedEngine, make_engine
from repro.faults.plan import FaultPlan
from repro.workloads.bdinsights import bd_insights_queries, queries_by_category
from repro.workloads.driver import WorkloadDriver
from repro.workloads.query import QueryCategory

SRC = Path(repro.__file__).parent


# ---------------------------------------------------------------------------
# Counting guard
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trees():
    return [(path.relative_to(SRC), ast.parse(path.read_text()))
            for path in sorted(SRC.rglob("*.py"))]


def _calls(trees, name):
    """``(file, line, parent node)`` of every call to ``name`` in src."""
    for path, tree in trees:
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None)):
                    yield path, node.lineno, parent


def test_the_baseline_config_is_only_ever_a_default(trees):
    """``cpu_only_testbed()`` is defined in config.py and may stand in
    for a missing argument (``config or cpu_only_testbed()``); it never
    replaces a config the caller passed."""
    stray = [
        f"{path}:{line}"
        for path, line, parent in _calls(trees, "cpu_only_testbed")
        if str(path) != "config.py"
        and not (isinstance(parent, ast.BoolOp)
                 and isinstance(parent.op, ast.Or)
                 and isinstance(parent.values[0], ast.Name))
    ]
    assert stray == []


def test_one_engine_class_is_constructed(trees):
    """The GPU-off arm is the accelerated engine's own class at
    ``gpus=()``: nothing in src builds a plain BluEngine, and the
    subclass mirrors none of its entry points."""
    built = [f"{path}:{line}" for path, line, _ in _calls(trees, "BluEngine")]
    assert built == []
    assert issubclass(GpuAcceleratedEngine, BluEngine)
    mirrored = {"catalog", "execute_sql", "explain_sql", "engine"}
    assert mirrored.isdisjoint(vars(GpuAcceleratedEngine))


def test_no_engine_attribute(small_catalog):
    for config in (cpu_only_testbed(), None):
        assert not hasattr(GpuAcceleratedEngine(small_catalog, config),
                           "engine")


# ---------------------------------------------------------------------------
# A fault plan without GPUs
# ---------------------------------------------------------------------------


FAULT_SQL = (
    "SELECT s_item, SUM(s_qty) AS q FROM sales GROUP BY s_item ORDER BY q",
    "SELECT st_state, SUM(s_paid) AS p FROM sales "
    "JOIN stores ON s_store = st_id GROUP BY st_state ORDER BY p DESC",
)


def test_a_fault_plan_without_gpus_is_inert(small_catalog):
    """Every fault site is a device or pinned-pool seam, which the stock
    chains never reach: under the lossy plan a zero-GPU engine injects
    nothing and returns the stock engine's answers and profiles."""
    config = dataclasses.replace(cpu_only_testbed(),
                                 faults=FaultPlan.lossy())
    engine = make_engine(small_catalog, config, gpu=False)
    stock = BluEngine(small_catalog)
    for sql in FAULT_SQL:
        got = engine.execute_sql(sql, query_id="f")
        want = stock.execute_sql(sql, query_id="f")
        assert got.profile == want.profile
        assert got.table.to_pydict() == want.table.to_pydict()
    assert engine.injector.injected == {}


# ---------------------------------------------------------------------------
# Metamorphic properties of the cost model
# ---------------------------------------------------------------------------


def _numeric_fields(part, cls):
    default = cls()
    return [(part, f.name) for f in dataclasses.fields(cls)
            if type(getattr(default, f.name)) in (int, float)]


SCALABLE = _numeric_fields("cost", CostModel) + _numeric_fields("host",
                                                                HostSpec)
RATES = [key for key in SCALABLE if "_rate" in key[1]] + [
    ("gpu", f.name) for f in dataclasses.fields(GpuSpec)
    if f.name.endswith("_bw")]
SIMPLE = queries_by_category(QueryCategory.SIMPLE)
OFFLOADABLE = (queries_by_category(QueryCategory.INTERMEDIATE)
               + queries_by_category(QueryCategory.COMPLEX))


def scaled(config, factors):
    """``config`` with each ``(part, field)`` multiplied by its factor;
    integer fields stay integers of at least 1."""
    parts = {}
    for (part, name), factor in factors.items():
        spec = parts.get(part) or (config.gpus[0] if part == "gpu"
                                   else getattr(config, part))
        value = getattr(spec, name)
        value = (max(1, round(value * factor)) if isinstance(value, int)
                 else value * factor)
        parts[part] = dataclasses.replace(spec, **{name: value})
    if "gpu" in parts:
        parts["gpus"] = (parts.pop("gpu"),) * len(config.gpus)
    return dataclasses.replace(config, **parts)


@pytest.fixture(scope="module")
def database():
    from repro.workloads.datagen import generate_database, scaled_config

    catalog = generate_database(scale=0.01, seed=7)
    return catalog, scaled_config(catalog)


def _runs(driver):
    """``(query id, arm) -> (operator sequence, elapsed ms)``."""
    return {(q.query_id, gpu): ([e.op for e in driver.profile(q, gpu).events],
                                driver.elapsed_ms(q, gpu))
            for q in OFFLOADABLE for gpu in (True, False)}


@pytest.fixture(scope="module")
def base_runs(database):
    return _runs(WorkloadDriver(*database))


_scalings = st.dictionaries(st.sampled_from(SCALABLE),
                            st.floats(0.25, 4.0), min_size=3, max_size=3)


@given(factors=_scalings)
@settings(max_examples=10, deadline=None)
def test_simple_queries_cost_the_same_with_and_without_gpus(database,
                                                           factors):
    """The 70 simple queries never offload, so the machine with and
    without its GPUs runs them alike — whatever its CPU constants."""
    catalog, config = database
    driver = WorkloadDriver(catalog, scaled(config, factors))
    unequal = [q.query_id for q in SIMPLE
               if driver.elapsed_ms(q, True) != driver.elapsed_ms(q, False)]
    assert unequal == []


@given(factors=_scalings)
@settings(max_examples=4, deadline=None)
def test_the_drivers_off_arm_is_make_engine_without_gpus(database,
                                                          factors):
    catalog, base = database
    config = scaled(base, factors)
    driver = WorkloadDriver(catalog, config)
    engine = make_engine(catalog, config, gpu=False)
    for query in bd_insights_queries()[::4]:
        want = engine.execute_sql(query.sql, query_id=query.query_id,
                                  degree=driver.PROFILE_DEGREE).profile
        assert driver.profile(query, gpu=False) == want, query.query_id


@given(field=st.sampled_from(RATES), factor=st.floats(1.0, 10.0))
@settings(max_examples=6, deadline=None)
def test_raising_a_rate_never_slows_a_query(database, base_runs, field,
                                            factor):
    """A guard, not a hunt: a query that runs the same operators, on
    either arm, never gets slower when a throughput constant rises.

    A rise may also flip a cost gate, and then the chosen path can be
    the slower one: at 5x ``cpu_decode_rate`` the fusion gate declines
    complex query C5's chain as dearer than the per-operator path, which
    then costs more than the fused run did.  That is a misprediction of
    the gate, not a price falling the wrong way, so it is left out here.
    """
    catalog, config = database
    raised = _runs(WorkloadDriver(catalog, scaled(config, {field: factor})))
    slower = [key for key, (ops, elapsed) in raised.items()
              if ops == base_runs[key][0] and elapsed > base_runs[key][1]]
    assert slower == []
