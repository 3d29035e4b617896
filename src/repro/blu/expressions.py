"""Scalar expressions and predicates evaluated over columnar tables.

Expressions form small immutable trees.  ``evaluate(table)`` returns an
:class:`ExprResult` carrying a numpy value array, an optional null mask and
the result type.  String equality/IN predicates are evaluated on dictionary
*codes* (one dictionary lookup, then integer compares), which is how BLU
evaluates predicates on encoded data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.blu.column import Column
from repro.blu.datatypes import DataType, TypeKind, common_numeric_type, float64, int64
from repro.blu.table import Table
from repro.errors import TypeMismatchError


_BOOL = DataType(TypeKind.INTEGER, 8)


@dataclass
class ExprResult:
    """Evaluated expression: values + optional null mask + type."""

    values: np.ndarray
    nulls: Optional[np.ndarray]
    dtype: DataType


def _merge_nulls(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


class Expr:
    """Base class for expression nodes."""

    def evaluate(self, table: Table) -> ExprResult:
        raise NotImplementedError

    def result_type(self, table: Table) -> DataType:
        raise NotImplementedError

    def columns(self) -> list[str]:
        """Names of the columns this expression reads."""
        return []

    def complexity(self) -> int:
        """Number of per-row operations (drives the scan cost model)."""
        return 1


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a named column."""

    name: str

    def evaluate(self, table: Table) -> ExprResult:
        col = table.column(self.name)
        if col.dictionary is not None:
            # Logical values only materialise when something downstream
            # needs them; comparisons special-case ColumnRef to stay encoded.
            return ExprResult(col.dictionary.decode(col.data), col.null_mask, col.dtype)
        return ExprResult(col.data, col.null_mask, col.dtype)

    def encoded(self, table: Table) -> Column:
        return table.column(self.name)

    def result_type(self, table: Table) -> DataType:
        return table.schema.field(self.name).dtype

    def columns(self) -> list[str]:
        return [self.name]

    def complexity(self) -> int:
        return 0


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value."""

    value: object

    def evaluate(self, table: Table) -> ExprResult:
        dtype = self._dtype()
        if dtype.is_string:
            values = np.full(table.num_rows, self.value, dtype=object)
        else:
            values = np.full(table.num_rows, self.value, dtype=dtype.numpy_dtype)
        return ExprResult(values, None, dtype)

    def _dtype(self) -> DataType:
        if isinstance(self.value, bool):
            return _BOOL
        if isinstance(self.value, int):
            return int64()
        if isinstance(self.value, float):
            return float64()
        if isinstance(self.value, str):
            return DataType(TypeKind.STRING, 8 * max(len(self.value), 1),
                            length=max(len(self.value), 1), variable=True)
        raise TypeMismatchError(f"unsupported literal {self.value!r}")

    def result_type(self, table: Table) -> DataType:
        return self._dtype()

    def complexity(self) -> int:
        return 0


class ArithOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic over numeric operands."""

    op: ArithOp
    left: Expr
    right: Expr

    def evaluate(self, table: Table) -> ExprResult:
        lhs = self.left.evaluate(table)
        rhs = self.right.evaluate(table)
        out_type = common_numeric_type(lhs.dtype, rhs.dtype)
        lv = lhs.values.astype(np.float64 if out_type.kind is TypeKind.FLOAT else np.int64)
        rv = rhs.values.astype(lv.dtype)
        if self.op is ArithOp.ADD:
            values = lv + rv
        elif self.op is ArithOp.SUB:
            values = lv - rv
        elif self.op is ArithOp.MUL:
            values = lv * rv
        else:
            # SQL division on integers stays integral; guard zero divisors.
            nulls = _merge_nulls(lhs.nulls, rhs.nulls)
            zero = rv == 0
            if zero.any():
                nulls = _merge_nulls(nulls, zero)
                rv = np.where(zero, 1, rv)
            if out_type.kind is TypeKind.FLOAT:
                values = lv / rv
            else:
                values = lv // rv
            return ExprResult(values.astype(out_type.numpy_dtype), nulls, out_type)
        nulls = _merge_nulls(lhs.nulls, rhs.nulls)
        return ExprResult(values.astype(out_type.numpy_dtype), nulls, out_type)

    def result_type(self, table: Table) -> DataType:
        return common_numeric_type(
            self.left.result_type(table), self.right.result_type(table)
        )

    def columns(self) -> list[str]:
        return self.left.columns() + self.right.columns()

    def complexity(self) -> int:
        return 1 + self.left.complexity() + self.right.complexity()


class CmpOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Comparison(Expr):
    """Row-wise comparison producing a boolean mask."""

    op: CmpOp
    left: Expr
    right: Expr

    def evaluate(self, table: Table) -> ExprResult:
        encoded = self._evaluate_on_codes(table)
        if encoded is not None:
            return encoded
        lhs = self.left.evaluate(table)
        rhs = self.right.evaluate(table)
        lhs.dtype.validate_comparable(rhs.dtype)
        lv, rv = lhs.values, rhs.values
        if lhs.dtype.is_string:
            lv = lv.astype(object)
            rv = rv.astype(object)
        values = self._apply(lv, rv)
        nulls = _merge_nulls(lhs.nulls, rhs.nulls)
        if nulls is not None:
            values = values & ~nulls
        return ExprResult(values, None, _BOOL)

    def _evaluate_on_codes(self, table: Table) -> Optional[ExprResult]:
        """Fast path: string column vs literal compares on dictionary codes."""
        if not isinstance(self.left, ColumnRef) or not isinstance(self.right, Literal):
            return None
        col = table.column(self.left.name)
        if col.dictionary is None or not isinstance(self.right.value, str):
            return None
        if self.op in (CmpOp.EQ, CmpOp.NE):
            code = col.dictionary.code_of(self.right.value)
            if code < 0:
                hits = np.zeros(len(col), dtype=bool)
            else:
                hits = col.data == code
            values = hits if self.op is CmpOp.EQ else ~hits
        else:
            # Range compare via collation ranks: rank of the literal within
            # the dictionary's sorted values.
            ranks = col.dictionary.sort_rank[col.data]
            sorted_values = np.sort(col.dictionary.values.astype(str))
            boundary = np.searchsorted(sorted_values, self.right.value)
            present = (
                boundary < len(sorted_values)
                and sorted_values[boundary] == self.right.value
            )
            if self.op is CmpOp.LT:
                values = ranks < boundary
            elif self.op is CmpOp.LE:
                values = ranks <= boundary if present else ranks < boundary
            elif self.op is CmpOp.GT:
                values = ranks > boundary if present else ranks >= boundary
            else:  # GE
                values = ranks >= boundary
        if col.null_mask is not None:
            values = values & ~col.null_mask
        return ExprResult(values, None, _BOOL)

    def _apply(self, lv: np.ndarray, rv: np.ndarray) -> np.ndarray:
        if self.op is CmpOp.EQ:
            return lv == rv
        if self.op is CmpOp.NE:
            return lv != rv
        if self.op is CmpOp.LT:
            return lv < rv
        if self.op is CmpOp.LE:
            return lv <= rv
        if self.op is CmpOp.GT:
            return lv > rv
        return lv >= rv

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return self.left.columns() + self.right.columns()

    def complexity(self) -> int:
        return 1 + self.left.complexity() + self.right.complexity()


@dataclass(frozen=True)
class Between(Expr):
    """``expr BETWEEN lo AND hi`` (inclusive)."""

    operand: Expr
    low: Expr
    high: Expr

    def evaluate(self, table: Table) -> ExprResult:
        lower = Comparison(CmpOp.GE, self.operand, self.low).evaluate(table)
        upper = Comparison(CmpOp.LE, self.operand, self.high).evaluate(table)
        return ExprResult(lower.values & upper.values, None, _BOOL)

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return self.operand.columns() + self.low.columns() + self.high.columns()

    def complexity(self) -> int:
        return 2 + self.operand.complexity()


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    operand: Expr
    values: tuple

    def evaluate(self, table: Table) -> ExprResult:
        if isinstance(self.operand, ColumnRef):
            col = table.column(self.operand.name)
            if col.dictionary is not None:
                codes = [col.dictionary.code_of(str(v)) for v in self.values]
                codes = [c for c in codes if c >= 0]
                hits = np.isin(col.data, np.asarray(codes, dtype=col.data.dtype))
                if col.null_mask is not None:
                    hits &= ~col.null_mask
                return ExprResult(hits, None, _BOOL)
        res = self.operand.evaluate(table)
        target = np.asarray(list(self.values))
        hits = np.isin(res.values, target)
        if res.nulls is not None:
            hits &= ~res.nulls
        return ExprResult(hits, None, _BOOL)

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return self.operand.columns()

    def complexity(self) -> int:
        return 1 + self.operand.complexity()


@dataclass(frozen=True)
class Like(Expr):
    """Simplified LIKE supporting prefix%, %suffix, %contains% patterns."""

    operand: Expr
    pattern: str

    def evaluate(self, table: Table) -> ExprResult:
        res = self.operand.evaluate(table)
        if not res.dtype.is_string:
            raise TypeMismatchError("LIKE requires a string operand")
        values = res.values.astype(str)
        body = self.pattern.strip("%")
        if self.pattern.startswith("%") and self.pattern.endswith("%"):
            hits = np.char.find(values, body) >= 0
        elif self.pattern.endswith("%"):
            hits = np.char.startswith(values, body)
        elif self.pattern.startswith("%"):
            hits = np.char.endswith(values, body)
        else:
            hits = values == self.pattern
        if res.nulls is not None:
            hits &= ~res.nulls
        return ExprResult(hits, None, _BOOL)

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return self.operand.columns()

    def complexity(self) -> int:
        return 3 + self.operand.complexity()


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def evaluate(self, table: Table) -> ExprResult:
        res = self.operand.evaluate(table)
        nulls = res.nulls if res.nulls is not None else np.zeros(len(res.values), bool)
        values = ~nulls if self.negated else nulls
        return ExprResult(values, None, _BOOL)

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return self.operand.columns()


@dataclass(frozen=True)
class And(Expr):
    terms: tuple

    def evaluate(self, table: Table) -> ExprResult:
        acc = None
        for term in self.terms:
            res = term.evaluate(table)
            acc = res.values if acc is None else acc & res.values
        if acc is None:
            acc = np.ones(table.num_rows, dtype=bool)
        return ExprResult(acc, None, _BOOL)

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return [c for t in self.terms for c in t.columns()]

    def complexity(self) -> int:
        return sum(t.complexity() for t in self.terms)


@dataclass(frozen=True)
class Or(Expr):
    terms: tuple

    def evaluate(self, table: Table) -> ExprResult:
        acc = None
        for term in self.terms:
            res = term.evaluate(table)
            acc = res.values if acc is None else acc | res.values
        if acc is None:
            acc = np.zeros(table.num_rows, dtype=bool)
        return ExprResult(acc, None, _BOOL)

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return [c for t in self.terms for c in t.columns()]

    def complexity(self) -> int:
        return sum(t.complexity() for t in self.terms)


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def evaluate(self, table: Table) -> ExprResult:
        res = self.operand.evaluate(table)
        return ExprResult(~res.values.astype(bool), None, _BOOL)

    def result_type(self, table: Table) -> DataType:
        return _BOOL

    def columns(self) -> list[str]:
        return self.operand.columns()

    def complexity(self) -> int:
        return 1 + self.operand.complexity()


# ---------------------------------------------------------------------------
# Aggregate function specifications
# ---------------------------------------------------------------------------


class AggFunc(enum.Enum):
    SUM = "SUM"
    COUNT = "COUNT"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"


@dataclass(frozen=True)
class AggSpec:
    """One aggregation in a SELECT list: function, input expression, alias.

    ``expr`` is ``None`` for ``COUNT(*)``.  ``distinct`` applies the
    function over the distinct input values per group (``COUNT(DISTINCT
    x)``, ``SUM(DISTINCT x)``); it is a no-op for MIN/MAX.
    """

    func: AggFunc
    expr: Optional[Expr]
    alias: str
    distinct: bool = False

    def columns(self) -> list[str]:
        return [] if self.expr is None else self.expr.columns()

    def input_type(self, table: Table) -> DataType:
        if self.expr is None:
            return int64()
        return self.expr.result_type(table)

    def output_type(self, table: Table) -> DataType:
        if self.func is AggFunc.COUNT:
            return int64()
        if self.func is AggFunc.AVG:
            return float64()
        in_type = self.input_type(table)
        if self.func is AggFunc.SUM:
            return in_type.result_type_for_sum()
        return in_type


def conjuncts(predicate: Optional[Expr]) -> list[Expr]:
    """Flatten a predicate into its top-level AND terms."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        out: list[Expr] = []
        for term in predicate.terms:
            out.extend(conjuncts(term))
        return out
    return [predicate]
