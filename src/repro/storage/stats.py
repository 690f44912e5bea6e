"""What a segment knows about its rows: statistics that double as zone
maps (DESIGN.md §13).

Every segment (:class:`~repro.storage.versioned.VersionedTable`) owns
one :class:`TableStatistics` and keeps it in step from its own write
path: each commit's rows fold in once, a column at a time
(:meth:`TableStatistics.fold`), keeping two kinds of fact per attribute:

* **latest-state counts** — rows defining it and a count per distinct
  value — follow every write in both directions, so the optimizer's
  cardinality estimates (:mod:`repro.optimizer.cardinality`; textbook
  formulas, uniformity and independence) see the table as it is now;
* **bounds** — numeric and string min/max, plus an ``other`` flag —
  only ever widen, so they cover every version the segment holds and
  a predicate they rule out is false at every snapshot a reader could
  take. The scan skips such segments (:func:`zone_may_match`); a
  re-partition replays the versions the table holds into new
  statistics, which is what narrows them.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Any

from repro._util import TOMBSTONE
from repro.predicates.ast import may_hold

__all__ = [
    "AttrStatistics", "TableStatistics", "SummedStatistics", "zone_may_match",
]

#: A fold of fewer rows goes row by row: below it a column's fixed cost
#: (its Counters, type set and extremes) is more than the rows save
#: (measured about even at 128 rows of eight attributes).
COLUMN_ROWS = 128


class AttrStatistics:
    """One attribute of one segment: latest-state counts plus
    accumulate-only bounds.

    Numeric and string values keep separate bounds (the two families
    are not mutually comparable), and booleans count as ints (``True ==
    1``). NaN, None, containers and nested functions set ``other``,
    which makes every range test on the attribute inconclusive.
    """

    __slots__ = (
        "defined", "values", "num_min", "num_max", "str_min", "str_max",
        "other",
    )

    def __init__(self) -> None:
        self.defined = 0
        self.values: dict[Any, int] = {}  # value-token → latest-state count
        self.num_min: Any = None
        self.num_max: Any = None
        self.str_min: str | None = None
        self.str_max: str | None = None
        self.other = False

    def add(self, value: Any) -> None:
        """Count a value now defined, and widen the bounds to cover it."""
        self.defined += 1
        token = _token(value)
        self.values[token] = self.values.get(token, 0) + 1
        if isinstance(value, (int, float)) and value == value:  # not NaN
            if value.__class__ is bool:
                value = int(value)
            if self.num_min is None or value < self.num_min:
                self.num_min = value
            if self.num_max is None or value > self.num_max:
                self.num_max = value
        elif isinstance(value, str):
            if self.str_min is None or value < self.str_min:
                self.str_min = value
            if self.str_max is None or value > self.str_max:
                self.str_max = value
        else:
            self.other = True

    def remove(self, value: Any) -> None:
        """Uncount a value no longer current; the bounds keep it."""
        self.defined = max(0, self.defined - 1)
        token = _token(value)
        count = self.values.get(token, 0)
        if count <= 1:
            self.values.pop(token, None)
        else:
            self.values[token] = count - 1

    def fold(self, lost: Counter, won: Counter, added: list) -> None:
        """Uncount *lost*, count *won* (token → occurrences) and widen
        the bounds to the *added* values, as runs of :meth:`remove` and
        :meth:`add` would if no count reaches zero and comes back (the
        caller checks): a ``Counter`` keeps a value's first object, and
        ``min``/``max`` the first of equal extremes, as those runs do."""
        values = self.values
        self.defined += won.total() - lost.total()
        for token, n in lost.items():
            if n < values.get(token, 0):
                values[token] -= n
            else:
                values.pop(token, None)
        for token in won if values else ():
            if token in values:
                won[token] += values[token]
        values.update(won)  # a value counted before keeps its object
        kinds = set(map(type, added))
        if kinds == {int} or kinds == {str}:
            nums, strs = (added, ()) if int in kinds else ((), added)
        else:
            nums = [
                int(v) if v.__class__ is bool else v
                for v in added
                if isinstance(v, (int, float)) and v == v  # not NaN
            ]
            strs = [v for v in added if isinstance(v, str)]
            self.other |= len(nums) + len(strs) < len(added)
        if nums:
            self.num_min = _lower(self.num_min, min(nums))
            self.num_max = _upper(self.num_max, max(nums))
        if strs:
            self.str_min = _lower(self.str_min, min(strs))
            self.str_max = _upper(self.str_max, max(strs))

    def merge(self, other: "AttrStatistics") -> None:
        """Add *other*'s counts and widen to its bounds."""
        self.defined += other.defined
        for token, count in other.values.items():
            self.values[token] = self.values.get(token, 0) + count
        self.num_min = _lower(self.num_min, other.num_min)
        self.num_max = _upper(self.num_max, other.num_max)
        self.str_min = _lower(self.str_min, other.str_min)
        self.str_max = _upper(self.str_max, other.str_max)
        self.other = self.other or other.other

    @property
    def n_distinct(self) -> int:
        """Distinct values among the rows defining the attribute now."""
        return len(self.values)

    def selectivity_eq(self, value: Any) -> float:
        """Estimated fraction of defined rows equal to *value*."""
        if self.defined == 0:
            return 0.0
        count = self.values.get(_token(value))
        if count is not None:
            return count / self.defined
        if self.n_distinct:
            return 1.0 / self.n_distinct
        return 0.0

    def selectivity_range(
        self, lo: float | None, hi: float | None
    ) -> float:
        """Estimated fraction of defined rows inside [lo, hi] (``None``
        leaves that side open), by uniformity between the numeric
        bounds."""
        low, high = self.num_min, self.num_max
        if (
            low is None
            or self.defined == 0
            or not all(_is_number(b) for b in (lo, hi) if b is not None)
        ):
            return 1.0 / 3.0  # the classic guess for un-histogrammed ranges
        span = high - low
        if span <= 0:
            inside = (lo is None or lo <= low) and (hi is None or high <= hi)
            return 1.0 if inside else 0.0
        lo_eff = low if lo is None else max(lo, low)
        hi_eff = high if hi is None else min(hi, high)
        if hi_eff < lo_eff:
            return 0.0
        return min(1.0, (hi_eff - lo_eff) / span)


class TableStatistics:
    """Row count and per-attribute statistics of one segment.

    ``opaque`` is set once a non-dict value (a nested function) is
    written: no per-attribute reasoning applies to such a segment, so
    zone tests never skip it.
    """

    def __init__(self) -> None:
        self.row_count = 0
        self.attrs: dict[str, AttrStatistics] = {}
        self.opaque = False

    def on_write(self, old_data: Any, new_data: Any) -> None:
        """Replace one key's current value *old_data* with *new_data*
        (either may be TOMBSTONE)."""
        if old_data is not TOMBSTONE:
            self.row_count = max(0, self.row_count - 1)
            if isinstance(old_data, dict):
                for attr, value in old_data.items():
                    stats = self.attrs.get(attr)
                    if stats is not None:
                        stats.remove(value)
        if new_data is not TOMBSTONE:
            self.row_count += 1
            if isinstance(new_data, dict):
                attrs = self.attrs
                for attr, value in new_data.items():
                    stats = attrs.get(attr)
                    if stats is None:
                        stats = attrs[attr] = AttrStatistics()
                    stats.add(value)
            else:
                self.opaque = True

    def fold(self, olds: list, news: list) -> None:
        """Replace ``olds[i]`` with ``news[i]`` (either may be
        TOMBSTONE) for each *i* in turn: one commit's writes.

        Rows fold a column at a time, to what a run of :meth:`on_write`
        calls leaves. That run is what fewer than :data:`COLUMN_ROWS`
        rows take, and a fold where a value's count would reach zero and
        come back: it would come back as the run's object (``True``
        where ``1`` was). A replay of versions with history into empty
        statistics (re-partitioning) is always such a fold.
        """
        if len(olds) >= COLUMN_ROWS and (
            self.attrs or not any(isinstance(d, dict) for d in olds)
        ):
            lost_rows = [data for data in olds if data is not TOMBSTONE]
            won_rows = [data for data in news if data is not TOMBSTONE]
            rows = [data for data in won_rows if isinstance(data, dict)]
            gone = _columns([d for d in lost_rows if isinstance(d, dict)])
            came = _columns(rows)
            tallies = {}
            for attr in {**gone, **came}:
                lost, won = _tally(gone.get(attr, ())), _tally(came.get(attr, ()))
                have = self.attrs[attr].values if attr in self.attrs else {}
                if any(n >= have.get(t, 0) and t in won for t, n in lost.items()):
                    break
                tallies[attr] = lost, won
            else:
                self.row_count = max(
                    0, self.row_count + len(won_rows) - len(lost_rows)
                )
                self.opaque |= len(rows) < len(won_rows)
                for attr, (lost, won) in tallies.items():
                    if attr in came or attr in self.attrs:
                        stats = self.attrs.setdefault(attr, AttrStatistics())
                        stats.fold(lost, won, came.get(attr, ()))
                return
        for old_data, new_data in zip(olds, news):
            self.on_write(old_data, new_data)

    def attr(self, name: str) -> AttrStatistics | None:
        """The statistics of attribute *name*, if any version defined it."""
        return self.attrs.get(name)

    def __repr__(self) -> str:
        return f"<Stats {self.row_count} rows, {len(self.attrs)} attrs>"


class SummedStatistics:
    """The statistics of a table of several segments: each figure is
    the sum of its segments', computed when read. The segments keep theirs at commit;
    nothing here is maintained."""

    def __init__(self, parts: list[TableStatistics]):
        self.parts = parts

    @property
    def row_count(self) -> int:
        """Live rows over every segment."""
        return sum(part.row_count for part in self.parts)

    def attr(self, name: str) -> AttrStatistics | None:
        """Attribute *name* summed over the segments that saw it."""
        found = [part.attrs[name] for part in self.parts if name in part.attrs]
        if not found:
            return None
        out = AttrStatistics()
        for stats in found:
            out.merge(stats)
        return out


def _zone_compare(az: AttrStatistics, op: str, const: Any) -> bool:
    """May any observed value satisfy ``value <op> const``?"""
    if az.other:
        return True
    if isinstance(const, bool):
        const = int(const)  # True == 1 in Python: test numeric bounds
    if op == "!=":
        # every value of a *different* family satisfies != trivially
        # ('TX' != 86.0 is simply True), so absent bounds for the
        # constant's family prove nothing; the segment can be skipped
        # only when every observed value is the constant itself — a
        # single-family zone pinned to min == max == const
        if _is_number(const):
            return not (
                az.str_min is None
                and az.num_min is not None
                and az.num_min == az.num_max == const
            )
        if isinstance(const, str):
            return not (
                az.num_min is None
                and az.str_min is not None
                and az.str_min == az.str_max == const
            )
        # None/NaN/containers: no zone-tracked value equals these
        # (None and containers land in ``other``, NaN != everything)
        return True
    if _is_number(const):
        lo, hi = az.num_min, az.num_max
    elif isinstance(const, str):
        lo, hi = az.str_min, az.str_max
    else:
        # None/NaN/container constants: only ``other`` values could
        # compare equal to these (ordering raises → False), and
        # az.other is False here.
        return False
    if lo is None or hi is None:
        return False
    if op == "==":
        return lo <= const <= hi
    if op == "<":
        return lo < const
    if op == "<=":
        return lo <= const
    if op == ">":
        return hi > const
    if op == ">=":
        return hi >= const
    return True  # anything unexpected: inconclusive


def zone_may_match(stats: TableStatistics | None, pred: Any) -> bool:
    """May any version in one segment satisfy *pred*, by its bounds?

    :func:`~repro.predicates.ast.may_hold` over the segment's zone
    test: ``False`` is only returned when *no* version in the segment
    can satisfy the predicate; anything the walk cannot read is
    inconclusive, and so is a segment with no per-attribute facts.
    """
    if stats is None or stats.opaque:
        return True
    return may_hold(pred, lambda atom: _zone_may_hold(stats, atom))


def _zone_may_hold(stats: TableStatistics, atom: Any) -> bool:
    """May any observed value of the atom's attribute satisfy it?"""
    column, op, value = atom
    if column is None:
        return True  # bounds cover attribute values, not keys
    az = stats.attrs.get(column)
    if az is None:
        # The attribute was never defined in any version of this
        # segment, so a direct comparison cannot hold for any row.
        return False
    if op == "in":
        return any(_zone_compare(az, "==", v) for v in value)
    if op == "between":
        lo, hi = value
        return _zone_compare(az, ">=", lo) and _zone_compare(az, "<=", hi)
    return _zone_compare(az, op, value)


def _is_number(value: Any) -> bool:
    """An int, float or bool other than NaN: what numeric bounds order."""
    return isinstance(value, (int, float)) and value == value


def _lower(a: Any, b: Any) -> Any:
    return b if a is None or (b is not None and b < a) else a


def _upper(a: Any, b: Any) -> Any:
    return b if a is None or (b is not None and b > a) else a


def _columns(rows: list) -> dict[str, list]:
    """Each attribute's values over the dicts *rows*, in row order,
    skipping the rows that lack it; attributes in first-seen order."""
    out: dict[str, list] = {}
    for attr in dict.fromkeys(chain.from_iterable(rows)):
        try:
            out[attr] = list(map(itemgetter(attr), rows))
        except KeyError:
            out[attr] = [row[attr] for row in rows if attr in row]
    return out


def _tally(values: Any) -> Counter:
    """Token → occurrences over *values*, each under its first."""
    try:
        return Counter(values)
    except TypeError:  # an unhashable value: count tokens
        return Counter(map(_token, values))


def _token(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)
