"""The relational model, classically: a relation is a set (bag) of tuples.

This is the baseline the paper argues against, built for real so every
comparison in the benchmarks runs against executable SQL semantics:
positional rows, a flat column list, NULLs where data is missing, and
duplicate handling by explicit DISTINCT.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import RelationalError
from repro.relational.nulls import NULL, is_null

__all__ = ["Relation"]


class Relation:
    """A named relation: column list + list of positional rows."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
    ):
        self.name = name
        self.columns = list(columns)
        if len(set(self.columns)) != len(self.columns):
            raise RelationalError(
                f"duplicate column names in {name!r}: {self.columns}"
            )
        self.rows: list[tuple[Any, ...]] = []
        for row in rows:
            self.append(row)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_dicts(
        cls,
        name: str,
        dicts: Iterable[dict[str, Any]],
        columns: Sequence[str] | None = None,
    ) -> "Relation":
        """Build from attribute dicts; missing attributes become NULL —
        the relational model cannot express undefinedness any other way."""
        dicts = list(dicts)
        if columns is None:
            seen: dict[str, None] = {}
            for d in dicts:
                for key in d:
                    seen.setdefault(key, None)
            columns = list(seen)
        rel = cls(name, columns)
        for d in dicts:
            rel.append([d.get(c, NULL) for c in columns])
        return rel

    def append(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise RelationalError(
                f"{self.name!r}: row arity {len(row)} != schema arity "
                f"{len(self.columns)}"
            )
        self.rows.append(tuple(NULL if v is None else v for v in row))

    # -- access -----------------------------------------------------------------

    def column_index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise RelationalError(
                f"{self.name!r} has no column {column!r}; columns: "
                f"{self.columns}"
            ) from None

    def column_values(self, column: str) -> Iterator[Any]:
        index = self.column_index(column)
        return (row[index] for row in self.rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def row_dict(self, row: Sequence[Any]) -> dict[str, Any]:
        return dict(zip(self.columns, row))

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    # -- measurement hooks used by the benchmarks -----------------------------------

    def null_count(self) -> int:
        """Number of NULL cells — Figs. 7/8 count these against FDM's zero."""
        return sum(1 for row in self.rows for v in row if is_null(v))

    def cell_count(self) -> int:
        return len(self.rows) * len(self.columns)

    def distinct(self) -> "Relation":
        out = Relation(self.name, self.columns)
        seen: set[tuple] = set()
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                out.rows.append(row)
        return out

    def renamed(self, name: str) -> "Relation":
        out = Relation(name, self.columns)
        out.rows = list(self.rows)
        return out

    def __repr__(self) -> str:
        return (
            f"<Relation {self.name!r}({', '.join(self.columns)}): "
            f"{len(self.rows)} rows>"
        )
