"""Columnar tables and schemas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.blu.column import Column, as_row_ids, column_from_values
from repro.blu.datatypes import DataType
from repro.errors import SchemaError


@dataclass(frozen=True)
class Field:
    """One named, typed column slot in a schema."""

    name: str
    dtype: DataType


class Schema:
    """Ordered collection of fields with case-insensitive name lookup."""

    def __init__(self, fields: Sequence[Field]) -> None:
        self.fields = list(fields)
        self._index: dict[str, int] = {}
        for position, f in enumerate(self.fields):
            key = f.name.lower()
            if key in self._index:
                raise SchemaError(f"duplicate column name {f.name!r}")
            self._index[key] = position

    @classmethod
    def of(cls, *pairs: tuple[str, DataType]) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs."""
        return cls([Field(name, dtype) for name, dtype in pairs])

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def position(self, name: str) -> int:
        """Ordinal of ``name`` (case-insensitive); SchemaError if absent."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def field(self, name: str) -> Field:
        """The :class:`Field` named ``name`` (case-insensitive)."""
        return self.fields[self.position(name)]

    def names(self) -> list[str]:
        """Column names in schema order."""
        return [f.name for f in self.fields]

    def select(self, names: Sequence[str]) -> "Schema":
        """A new schema holding ``names`` in the given order."""
        return Schema([self.field(n) for n in names])


class Table:
    """An immutable columnar table: a schema plus equal-length columns."""

    def __init__(
        self, name: str, schema: Schema, columns: Sequence[Column]
    ) -> None:
        if len(schema) != len(columns):
            raise SchemaError(
                f"table {name!r}: schema has {len(schema)} fields "
                f"but {len(columns)} columns supplied"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(
                f"table {name!r}: ragged column lengths {sorted(lengths)}"
            )
        for f, c in zip(schema, columns):
            if f.dtype != c.dtype:
                raise SchemaError(
                    f"table {name!r}: column {f.name!r} declared {f.dtype} "
                    f"but stored as {c.dtype}"
                )
        self.name = name
        self.schema = schema
        self.columns = list(columns)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_pydict(
        cls,
        name: str,
        schema: Schema,
        data: Mapping[str, Iterable],
    ) -> "Table":
        """Build a table from ``{column_name: values}``."""
        columns = []
        for f in schema:
            if f.name not in data:
                raise SchemaError(f"missing data for column {f.name!r}")
            columns.append(column_from_values(f.dtype, data[f.name]))
        return cls(name, schema, columns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Row count (0 for a column-less table)."""
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        """Column count."""
        return len(self.columns)

    @property
    def encoded_nbytes(self) -> int:
        """Total encoded size of every column, in bytes."""
        return sum(c.encoded_nbytes for c in self.columns)

    def column(self, name: str) -> Column:
        """The column named ``name`` (case-insensitive)."""
        return self.columns[self.schema.position(name)]

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def take(self, indices: np.ndarray, name: Optional[str] = None) -> "Table":
        """Rows at ``indices`` (row ids or a boolean mask) as a new table.

        Nothing is gathered here (see :meth:`Column.take`); columns that
        share a row-id array — one source table's columns after a join —
        compose it with ``indices`` once between them.
        """
        indices, composed = as_row_ids(indices), {}
        return Table(
            name or self.name,
            self.schema,
            [c.take(indices, composed) for c in self.columns],
        )

    filter = take

    def select(
        self, names: Sequence[str], name: Optional[str] = None
    ) -> "Table":
        """Project to ``names``, in the given order."""
        return Table(
            name or self.name,
            self.schema.select(names),
            [self.column(n) for n in names],
        )

    def head(self, n: int) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(*slice(0, n).indices(self.num_rows)))

    def to_pydict(self) -> dict[str, list]:
        """Decode all columns into python lists (None for NULLs)."""
        out: dict[str, list] = {}
        for f, c in zip(self.schema, self.columns):
            out[f.name] = c.values_at(range(self.num_rows))
        return out

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        cols = ", ".join(f"{f.name}:{f.dtype}" for f in self.schema)
        return f"<Table {self.name!r} rows={self.num_rows} [{cols}]>"
