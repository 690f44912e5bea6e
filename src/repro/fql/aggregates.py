"""Aggregate functions for FQL grouping operators (Fig. 4b/4c, Fig. 8).

Each aggregate is a small fold: ``seed() -> acc``, ``step(acc, tuple) ->
acc``, ``result(acc) -> value``, plus a ``compute(tuples)`` convenience.
The *attr* argument selects what to aggregate — an attribute name, a
callable over the tuple function, or nothing (``Count()``).

Tuples where the attribute is *undefined* simply do not contribute. This is
the principled version of SQL's "aggregates ignore NULLs": there is no NULL
to ignore, the function just isn't defined there.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro._util import MISSING
from repro.errors import OperatorError
from repro.fdm.functions import FDMFunction

__all__ = [
    "Aggregate",
    "Count",
    "CountDistinct",
    "Sum",
    "Avg",
    "Min",
    "Max",
    "Collect",
    "First",
    "StdDev",
    "Median",
]

# The undefined-value sentinel is shared with the columnar executor
# (batch columns mark undefined slots with the same object), so
# `step_value` and `extract` agree on what "does not contribute" means.
_MISSING = MISSING


class Aggregate:
    """Base class: a named fold over a group's tuple functions."""

    #: Short label used to auto-name output attributes.
    op_label = "agg"

    #: True when the fold is invertible: ``unstep`` removes one tuple's
    #: contribution, so incremental view maintenance can decrement on
    #: delete instead of refolding the group (DESIGN.md §9).
    decomposable = False

    def __init__(self, attr: str | Callable[[Any], Any] | None = None):
        self.attr = attr

    # -- extraction -------------------------------------------------------------

    def extract(self, t: Any) -> Any:
        """The value this tuple contributes, or ``_MISSING`` if undefined."""
        if self.attr is None:
            raise OperatorError(
                f"{type(self).__name__} needs an attribute or callable "
                "(only Count works bare)"
            )
        if callable(self.attr):
            try:
                return self.attr(t)
            except Exception:
                return _MISSING
        if isinstance(t, FDMFunction):
            try:
                return t(self.attr)
            except Exception:
                return _MISSING
        try:
            return t[self.attr]
        except Exception:
            return _MISSING

    # -- fold interface ------------------------------------------------------------

    def seed(self) -> Any:
        raise NotImplementedError

    def step(self, acc: Any, t: Any) -> Any:
        """Fold one tuple: its extracted value through :meth:`step_value`."""
        return self.step_value(acc, self.extract(t))

    def step_value(self, acc: Any, value: Any) -> Any:
        """Fold one already-extracted value (``_MISSING`` when the tuple
        does not define the attribute).

        The columnar executor extracts whole attribute columns up front
        and folds values directly, skipping the per-tuple
        :meth:`extract` dispatch.
        """
        raise NotImplementedError

    def unstep(self, acc: Any, t: Any) -> Any:
        """Remove one tuple's contribution (decomposable folds only)."""
        raise OperatorError(
            f"{type(self).__name__} is not decomposable; the maintainer "
            "refolds the group instead"
        )

    def result(self, acc: Any) -> Any:
        return acc

    def compute(self, tuples: Iterable[Any]) -> Any:
        acc = self.seed()
        for t in tuples:
            acc = self.step(acc, t)
        return self.result(acc)

    def __repr__(self) -> str:
        attr = self.attr if isinstance(self.attr, str) else (
            "" if self.attr is None else "<fn>"
        )
        return f"{type(self).__name__}({attr})"


class Count(Aggregate):
    """Number of tuples; with an attribute, number of tuples defining it."""

    op_label = "count"
    decomposable = True

    def seed(self) -> int:
        return 0

    def step(self, acc: int, t: Any) -> int:
        if self.attr is None:
            return acc + 1
        return acc if self.extract(t) is _MISSING else acc + 1

    def step_value(self, acc: int, value: Any) -> int:
        if self.attr is None:
            return acc + 1
        return acc if value is _MISSING else acc + 1

    def unstep(self, acc: int, t: Any) -> int:
        if self.attr is None:
            return acc - 1
        return acc if self.extract(t) is _MISSING else acc - 1


class CountDistinct(Aggregate):
    op_label = "count_distinct"

    def seed(self) -> set:
        return set()

    def step_value(self, acc: set, value: Any) -> set:
        if value is not _MISSING:
            try:
                acc.add(value)
            except TypeError:
                acc.add(repr(value))
        return acc

    def result(self, acc: set) -> int:
        return len(acc)


class Sum(Aggregate):
    op_label = "sum"
    decomposable = True

    def seed(self) -> Any:
        return 0

    def step_value(self, acc: Any, value: Any) -> Any:
        return acc if value is _MISSING else acc + value

    def unstep(self, acc: Any, t: Any) -> Any:
        value = self.extract(t)
        return acc if value is _MISSING else acc - value


class Avg(Aggregate):
    op_label = "avg"
    decomposable = True

    def seed(self) -> tuple[Any, int]:
        return (0, 0)

    def step_value(self, acc: tuple[Any, int], value: Any) -> tuple[Any, int]:
        if value is _MISSING:
            return acc
        total, n = acc
        return (total + value, n + 1)

    def unstep(self, acc: tuple[Any, int], t: Any) -> tuple[Any, int]:
        value = self.extract(t)
        if value is _MISSING:
            return acc
        total, n = acc
        return (total - value, n - 1)

    def result(self, acc: tuple[Any, int]) -> float | None:
        total, n = acc
        return total / n if n else None


class Min(Aggregate):
    op_label = "min"

    def seed(self) -> Any:
        return _MISSING

    def step_value(self, acc: Any, value: Any) -> Any:
        if value is _MISSING:
            return acc
        if acc is _MISSING or value < acc:
            return value
        return acc

    def result(self, acc: Any) -> Any:
        return None if acc is _MISSING else acc


class Max(Aggregate):
    op_label = "max"

    def seed(self) -> Any:
        return _MISSING

    def step_value(self, acc: Any, value: Any) -> Any:
        if value is _MISSING:
            return acc
        if acc is _MISSING or value > acc:
            return value
        return acc

    def result(self, acc: Any) -> Any:
        return None if acc is _MISSING else acc


class Collect(Aggregate):
    """All contributed values, in iteration order (beyond-SQL aggregate)."""

    op_label = "collect"

    def seed(self) -> list:
        return []

    def step_value(self, acc: list, value: Any) -> list:
        if value is not _MISSING:
            acc.append(value)
        return acc


class First(Aggregate):
    op_label = "first"

    def seed(self) -> Any:
        return _MISSING

    def step(self, acc: Any, t: Any) -> Any:
        if acc is not _MISSING:
            return acc
        return self.extract(t)

    def step_value(self, acc: Any, value: Any) -> Any:
        if acc is not _MISSING:
            return acc
        return value

    def result(self, acc: Any) -> Any:
        return None if acc is _MISSING else acc


class StdDev(Aggregate):
    """Population standard deviation (Welford's online algorithm)."""

    op_label = "stddev"

    def seed(self) -> tuple[int, float, float]:
        return (0, 0.0, 0.0)

    def step_value(self, acc: tuple[int, float, float], value: Any) -> tuple:
        if value is _MISSING:
            return acc
        n, mean, m2 = acc
        n += 1
        delta = value - mean
        mean += delta / n
        m2 += delta * (value - mean)
        return (n, mean, m2)

    def result(self, acc: tuple[int, float, float]) -> float | None:
        n, _mean, m2 = acc
        if n == 0:
            return None
        return math.sqrt(m2 / n)


class Median(Aggregate):
    op_label = "median"

    def seed(self) -> list:
        return []

    def step_value(self, acc: list, value: Any) -> list:
        if value is not _MISSING:
            acc.append(value)
        return acc

    def result(self, acc: list) -> Any:
        if not acc:
            return None
        ordered = sorted(acc)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2
