"""``pivot`` — an FQL operator beyond SQL (contribution 8 / conclusion 3).

The paper's footnote 2 hints at pivot tables: "or for pivot tables it may
be the individual data values of an attribute of the underlying column".
That is precisely a *function* whose input domain is data values: pivoting
``sales`` on ``month`` turns the month values into the attribute domain of
the output tuples. No new model machinery is needed — which is the point.

    pivot(sales, row="region", column="month", value="amount",
          agg=Sum("amount"))

Output: a relation function keyed by ``region`` whose tuple functions map
*each month value* to the aggregated amount.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import OperatorError, UndefinedInputError
from repro.fdm.domains import Domain, PredicateDomain
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import RelationFunction
from repro.fdm.tuples import TupleFunction
from repro.fql.aggregates import Aggregate, Sum

__all__ = ["pivot", "PivotedRelationFunction"]


class PivotedRelationFunction(DerivedFunction):
    """row-key → tuple function over the pivoted column's data values."""

    op_name = "pivot"
    kind = "relation"

    def __init__(
        self,
        source: FDMFunction,
        row: str,
        column: str,
        agg: Aggregate,
        name: str | None = None,
    ):
        super().__init__((source,), name=name or f"pivot({source.name})")
        self._row = row
        self._column = column
        self._agg = agg

    def _cells(self) -> dict[Any, dict[Any, list[Any]]]:
        table: dict[Any, dict[Any, list[Any]]] = {}
        for _key, t in self.source.items():
            try:
                row_value = t(self._row)
                column_value = t(self._column)
            except UndefinedInputError:
                continue  # tuples outside both dimensions contribute nothing
            table.setdefault(row_value, {}).setdefault(
                column_value, []
            ).append(t)
        return table

    def _tuple_for(self, row_value: Any,
                   cells: dict[Any, list[Any]]) -> TupleFunction:
        data = {
            str(column_value): self._agg.compute(members)
            for column_value, members in cells.items()
        }
        return TupleFunction.of(data, f"{self._name}[{row_value!r}]")

    @property
    def domain(self) -> Domain:
        return PredicateDomain(self.defined_at, self.op_name)

    @property
    def is_enumerable(self) -> bool:
        return self.source.is_enumerable

    def _apply(self, key: Any) -> Any:
        table = self._cells()
        if key not in table:
            raise UndefinedInputError(self._name, key)
        return self._tuple_for(key, table[key])

    def defined_at(self, *args: Any) -> bool:
        return len(args) == 1 and args[0] in self._cells()

    def keys(self) -> Iterator[Any]:
        return iter(self._cells().keys())

    def items(self) -> Iterator[tuple[Any, Any]]:
        for row_value, cells in self._cells().items():
            yield row_value, self._tuple_for(row_value, cells)

    def __len__(self) -> int:
        return len(self._cells())

    def column_values(self) -> list[str]:
        """All column headings the pivot produced (the data-value domain)."""
        out: dict[str, None] = {}
        for _row, cells in self._cells().items():
            for column_value in cells:
                out.setdefault(str(column_value), None)
        return list(out)

    def op_params(self) -> dict[str, Any]:
        return {"row": self._row, "column": self._column,
                "agg": repr(self._agg)}

    def rebuild(
        self, children: tuple[FDMFunction, ...]
    ) -> "PivotedRelationFunction":
        (source,) = children
        return PivotedRelationFunction(
            source, self._row, self._column, self._agg, name=self._name
        )

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def pivot(
    source: FDMFunction,
    row: str,
    column: str,
    value: str | None = None,
    agg: Aggregate | None = None,
) -> PivotedRelationFunction:
    """Pivot *source* so that *column*'s data values become attributes.

    ``agg`` defaults to ``Sum(value)``; pass any aggregate for other cell
    semantics (``Count()`` for contingency tables, etc.).
    """
    if agg is None:
        if value is None:
            raise OperatorError("pivot() needs value= or agg=")
        agg = Sum(value)
    return PivotedRelationFunction(source, row, column, agg)
