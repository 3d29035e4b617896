"""Deterministic synthetic data generator for the TPC-DS-derived schema.

``generate_database(scale, seed)`` materialises every table of
:mod:`repro.workloads.tpcds_schema` into a :class:`repro.blu.Catalog`.
Facts scale linearly with ``scale``; dimensions scale with sqrt(scale) the
way TPC-DS's dbgen does.  Everything is driven by one seeded numpy
Generator, so two calls with the same arguments produce identical bytes.

``scaled_config`` derives a :class:`~repro.config.SystemConfig` whose GPU
memory and path-selection thresholds preserve the paper's DB-size-to-GPU-
memory proportions (100 GB database against 12 GB K40s) at our laptop
scale, so memory-pressure phenomena — the 12-of-46 ROLAP screen, T3
routing, Figure 9's near-capacity peaks — reproduce faithfully.
"""

from __future__ import annotations

import dataclasses
import numbers

import numpy as np

from repro.blu.catalog import Catalog
from repro.blu.column import Column
from repro.blu.compression import build_dictionary
from repro.blu.table import Field, Schema, Table
from repro.config import GpuSpec, SystemConfig, paper_testbed
from repro.errors import WorkloadError
from repro.workloads.tpcds_schema import (
    ALL_TABLES,
    ColumnSpec,
    TableSpec,
    dimension_rows,
    fact_rows,
)


def generate_database(scale: float = 0.05, seed: int = 7) -> Catalog:
    """Generate the full 24-table database at ``scale``."""
    if not (isinstance(scale, numbers.Real) and 0 < scale < np.inf):
        raise WorkloadError(
            f"scale must be a finite positive number, got {scale!r}")
    rng = np.random.default_rng(seed)
    rows_of: dict[str, int] = {}
    for spec in ALL_TABLES:
        rows_of[spec.name] = (fact_rows(spec.name, scale) if spec.is_fact
                              else dimension_rows(spec.name, scale))
    catalog = Catalog()
    for spec in ALL_TABLES:
        catalog.register(_build_table(spec, rows_of, rng))
    return catalog


def _build_table(spec: TableSpec, rows_of: dict[str, int],
                 rng: np.random.Generator) -> Table:
    n = rows_of[spec.name]
    builder = _SPECIAL_BUILDERS.get(spec.name)
    if builder is not None:
        return builder(spec, n, rng)
    fields = []
    columns = []
    for col in spec.columns:
        fields.append(Field(col.name, col.dtype))
        columns.append(_build_column(col, n, rows_of, rng))
    return Table(spec.name, Schema(fields), columns)


def _build_column(col: ColumnSpec, n: int, rows_of: dict[str, int],
                  rng: np.random.Generator) -> Column:
    if col.kind == "serial":
        data = np.arange(1, n + 1, dtype=np.int64)
    elif col.kind == "fk":
        ref_rows = rows_of[col.ref]
        data = rng.integers(1, ref_rows + 1, size=n, dtype=np.int64)
        if col.null_fraction > 0:
            mask = rng.random(n) < col.null_fraction
            return Column(col.dtype,
                          np.where(mask, 0, data).astype(
                              col.dtype.numpy_dtype, copy=False),
                          null_mask=mask)
    elif col.kind == "skewed_fk":
        ref_rows = rows_of[col.ref]
        raw = rng.zipf(max(col.skew, 1.01), size=n)
        data = ((raw - 1) % ref_rows) + 1
    elif col.kind == "int_uniform":
        data = rng.integers(int(col.lo), int(col.hi) + 1, size=n,
                            dtype=np.int64)
    elif col.kind == "money":
        cents = rng.integers(int(col.lo * 100), int(col.hi * 100) + 1,
                             size=n, dtype=np.int64)
        data = cents
    elif col.kind == "float_uniform":
        values = col.lo + rng.random(n) * (col.hi - col.lo)
        return Column(col.dtype, values.astype(np.float64))
    elif col.kind == "choice":
        return _choice_column(col, n, rng)
    elif col.kind == "derived_serial":
        data = int(col.lo) + (np.arange(n, dtype=np.int64) % col.span)
    else:
        raise WorkloadError(f"unknown generator kind {col.kind!r}")
    return Column(col.dtype, data.astype(col.dtype.numpy_dtype, copy=False))


def _choice_column(col: ColumnSpec, n: int,
                   rng: np.random.Generator) -> Column:
    vocab = np.asarray(col.vocab, dtype=object)
    if col.skew > 0:
        weights = 1.0 / np.arange(1, len(vocab) + 1) ** col.skew
        weights /= weights.sum()
        picks = rng.choice(len(vocab), size=n, p=weights)
    else:
        picks = rng.integers(0, len(vocab), size=n)
    # Encode the vocabulary entries that were drawn, each weighted by its
    # picks, instead of n decoded strings; the rows then map through it.
    counts = np.bincount(picks, minlength=len(vocab))
    drawn = np.flatnonzero(counts)
    dictionary, codes = build_dictionary(vocab[drawn], counts[drawn])
    code_of_entry = np.empty(len(vocab), dtype=np.int32)
    code_of_entry[drawn] = codes
    return Column(col.dtype, code_of_entry[picks], dictionary)


# ---------------------------------------------------------------------------
# Calendar-shaped dimensions need coherent derived columns
# ---------------------------------------------------------------------------


def _build_date_dim(spec: TableSpec, n: int,
                    rng: np.random.Generator) -> Table:
    serial = np.arange(n, dtype=np.int64)
    year = 2010 + serial // 365
    day_of_year = serial % 365
    moy = 1 + day_of_year // 31
    dom = 1 + day_of_year % 28
    qoy = 1 + (moy - 1) // 3
    month_seq = (year - 2010) * 12 + (moy - 1)
    day_names = np.asarray(
        ["Sunday", "Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
         "Saturday"], dtype=object)
    dictionary, codes = build_dictionary(list(day_names[serial % 7]))
    fields = [Field(c.name, c.dtype) for c in spec.columns]
    columns = [
        Column(spec.columns[0].dtype, (serial + 1).astype(np.int32)),
        Column(spec.columns[1].dtype, year.astype(np.int32)),
        Column(spec.columns[2].dtype, moy.astype(np.int32)),
        Column(spec.columns[3].dtype, dom.astype(np.int32)),
        Column(spec.columns[4].dtype, qoy.astype(np.int32)),
        Column(spec.columns[5].dtype, codes, dictionary),
        Column(spec.columns[6].dtype, month_seq.astype(np.int32)),
    ]
    return Table(spec.name, Schema(fields), columns)


def _build_time_dim(spec: TableSpec, n: int,
                    rng: np.random.Generator) -> Table:
    serial = np.arange(n, dtype=np.int64)
    hour = (serial // 60) % 24
    minute = serial % 60
    am_pm = np.where(hour < 12, "AM", "PM").astype(object)
    dictionary, codes = build_dictionary(list(am_pm))
    fields = [Field(c.name, c.dtype) for c in spec.columns]
    columns = [
        Column(spec.columns[0].dtype, (serial + 1).astype(np.int32)),
        Column(spec.columns[1].dtype, hour.astype(np.int32)),
        Column(spec.columns[2].dtype, minute.astype(np.int32)),
        Column(spec.columns[3].dtype, codes, dictionary),
    ]
    return Table(spec.name, Schema(fields), columns)


def _build_income_band(spec: TableSpec, n: int,
                       rng: np.random.Generator) -> Table:
    serial = np.arange(n, dtype=np.int64)
    lower = serial * 5000
    upper = lower + 4999
    fields = [Field(c.name, c.dtype) for c in spec.columns]
    columns = [
        Column(spec.columns[0].dtype, (serial + 1).astype(np.int32)),
        Column(spec.columns[1].dtype, lower.astype(np.int32)),
        Column(spec.columns[2].dtype, upper.astype(np.int32)),
    ]
    return Table(spec.name, Schema(fields), columns)


_SPECIAL_BUILDERS = {
    "date_dim": _build_date_dim,
    "time_dim": _build_time_dim,
    "income_band": _build_income_band,
}


# ---------------------------------------------------------------------------
# Proportionate system configuration
# ---------------------------------------------------------------------------

# Device memory per store_sales row.  Sized so that (as on the paper's
# K40s) the workload's ordinary complex group-bys fit the card — a full-
# fact group-by with ~6 payloads stages ~60 B/row plus a hash table over a
# sub-row group count — while the ticket-granularity ROLAP queries (groups
# ~ rows, 8+ payloads => ~250 B/row of table+staging+result) exceed it.
_DEVICE_BYTES_PER_FACT_ROW = 160
# T3: beyond this many input rows, even staging the rows alone would swamp
# the card, so the optimizer routes the group-by to the CPU up front.
_STAGED_BYTES_PER_ROW = 40


def scaled_config(catalog: Catalog, gpus: int = 2,
                  base: SystemConfig | None = None) -> SystemConfig:
    """System config with GPU memory proportioned to the generated data.

    Rescales device memory and the T1/T3 path-selection thresholds so that
    "too small to offload" and "exceeds device memory" mean the same thing
    relative to our laptop-scale data that they meant relative to the
    paper's 100 GB database on 12 GB K40s — in particular, 12 of the 46
    Cognos ROLAP queries must exceed the card (section 5.1.2).
    """
    base = base or paper_testbed()
    store_sales_rows = catalog.table("store_sales").num_rows
    device_memory = max(store_sales_rows * _DEVICE_BYTES_PER_FACT_ROW,
                        4 * 1024 * 1024)
    gpu_spec = dataclasses.replace(base.gpus[0] if base.gpus else GpuSpec(),
                                   device_memory_bytes=device_memory)
    thresholds = dataclasses.replace(
        base.thresholds,
        t1_min_rows=max(2000, store_sales_rows // 40),
        t3_max_rows=max(10_000, device_memory // _STAGED_BYTES_PER_ROW),
        sort_min_rows=max(2000, store_sales_rows // 40),
    )
    return dataclasses.replace(
        base,
        gpus=tuple(gpu_spec for _ in range(gpus)),
        thresholds=thresholds,
    )
