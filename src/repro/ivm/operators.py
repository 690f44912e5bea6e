"""``derive_delta(fn, base_deltas)``: the per-operator delta algebra.

One propagation rule per logical operator class, named in the operator
table (:mod:`repro.operators`) and looked up over the derived-function
graph. Rules compose — a delta derived for an operator's source feeds
the operator's own rule — so arbitrary FQL pipelines maintain
incrementally as long as every node on the path has a rule.

Where no sound rule exists (ordering/limits, operators without an
entry, order-sensitive aggregates) derivation returns :data:`FALLBACK`
instead of guessing; the consuming view then recomputes fully. Like
``lower()``, derivation is *total*: it never fails, it only degrades.

Rules (DESIGN.md §9 documents the algebra):

========================  ====================================================
operator                  propagation
========================  ====================================================
base relation             the captured changelog delta (empty if unchanged)
filter                    re-test the predicate on old and new values
restrict                  intersect the delta with the key set
map/project/extend/...    rewrite old and new values through the transform
join                      delta-join each changed atom (restricted to its
                          changed keys) against the other atoms' current and
                          rolled-back states
group                     maintained membership: move members between groups
group + aggregate         per-group accumulators; decomposable aggregates
                          (count/sum/avg) unstep on delete, the rest refold
                          the affected group's members
union/intersect/minus     re-evaluate the set-op at affected keys over both
                          sides' old and new values
order_by / limit          FALLBACK (mark dirty) when the source changed
anything else             FALLBACK when it reads a changed base, else empty
========================  ====================================================
"""

from __future__ import annotations

from typing import Any, Iterator

from repro._util import MISSING, _Sentinel, normalize_key
from repro.errors import UndefinedInputError
from repro.fdm.functions import DerivedFunction, FDMFunction, values_equal
from repro.ivm.delta import Delta, snapshot_value

__all__ = ["FALLBACK", "derive_delta", "clone_aux"]

#: Returned when no sound propagation rule applies: recompute fully.
FALLBACK = _Sentinel("IVM_FALLBACK")

#: Group key of a value that defines no group (mirrors ``_scan`` skips).
_NO_GROUP = _Sentinel("NO_GROUP")


# ---------------------------------------------------------------------------
# State wrappers: old/current views of a changed function
# ---------------------------------------------------------------------------


class _RolledBack(FDMFunction):
    """The *pre-delta* state of a function, reconstructed from its delta.

    Keys inserted by the delta disappear, deleted keys come back with
    their old values, updated keys read their old values; everything
    else falls through to the current function. This is what lets delta
    rules (joins, lazy group-state initialization) evaluate against the
    state a watermark refers to after the base has already moved on.
    """

    def __init__(self, fn: FDMFunction, delta: Delta):
        super().__init__(name=f"old({fn.name})")
        self._fn = fn
        self._delta = delta
        self.kind = fn.kind

    @property
    def key_name(self) -> Any:
        return getattr(self._fn, "key_name", None)

    @property
    def is_enumerable(self) -> bool:
        return self._fn.is_enumerable

    def _apply(self, key: Any) -> Any:
        change = self._delta.changes.get(key)
        if change is not None:
            old, _new = change
            if old is MISSING:
                raise UndefinedInputError(self._name, key)
            return old
        return self._fn._apply(key)

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = normalize_key(args[0] if len(args) == 1 else tuple(args))
        change = self._delta.changes.get(key)
        if change is not None:
            return change[0] is not MISSING
        return self._fn.defined_at(key)

    def keys(self) -> Iterator[Any]:
        changes = self._delta.changes
        for key in self._fn.keys():
            change = changes.get(key)
            if change is not None and change[0] is MISSING:
                continue  # inserted since the watermark
            yield key
        for key, (old, new) in changes.items():
            if old is not MISSING and new is MISSING:
                yield key  # deleted since the watermark

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class _KeysSlice(FDMFunction):
    """Restrict a function to an explicit key set, executor-invisibly.

    Unlike :class:`~repro.fql.filter.RestrictedFunction` this is not a
    derived function, so enumerating it never routes through the plan
    cache — delta-joins build ephemeral slices per sync and must not
    pollute the cache with one-shot fingerprints.
    """

    def __init__(self, fn: FDMFunction, keys: set):
        super().__init__(name=f"{fn.name}↾Δ")
        self._fn = fn
        self._keys = keys
        self.kind = fn.kind

    @property
    def key_name(self) -> Any:
        return getattr(self._fn, "key_name", None)

    @property
    def is_enumerable(self) -> bool:
        return True

    def _apply(self, key: Any) -> Any:
        if key not in self._keys:
            raise UndefinedInputError(self._name, key)
        return self._fn._apply(key)

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = normalize_key(args[0] if len(args) == 1 else tuple(args))
        return key in self._keys and self._fn.defined_at(key)

    def keys(self) -> Iterator[Any]:
        for key in self._keys:
            if self._fn.defined_at(key):
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


# ---------------------------------------------------------------------------
# Group state: maintained membership + accumulators
# ---------------------------------------------------------------------------


class _GroupState:
    """Maintained per-group membership and decomposable accumulators."""

    __slots__ = ("members", "accs", "inexact")

    def __init__(self) -> None:
        #: group key → {source key → member tuple snapshot}
        self.members: dict[Any, dict[Any, Any]] = {}
        #: group key → {aggregate name → accumulator} (decomposable only)
        self.accs: dict[Any, dict[str, Any]] = {}
        #: aggregate names whose contributions were ever floats: their
        #: accumulators would drift under unstep (0.1 + 0.2 - 0.2 !=
        #: 0.1), so they refold from members instead
        self.inexact: set[str] = set()

    def clone(self) -> "_GroupState":
        clone = _GroupState()
        clone.members = {gk: dict(m) for gk, m in self.members.items()}
        clone.accs = {gk: dict(a) for gk, a in self.accs.items()}
        clone.inexact = set(self.inexact)
        return clone

    def _contribution_is_float(self, agg: Any, member: Any) -> bool:
        if agg.attr is None:  # bare Count contributes 1, never a float
            return False
        return isinstance(agg.extract(member), float)

    def _mark_inexact(self, name: str) -> None:
        self.inexact.add(name)
        for accs in self.accs.values():
            accs.pop(name, None)

    @classmethod
    def build(cls, source: FDMFunction, by: Any, aggs: Any) -> "_GroupState":
        """Fold *source*'s current extension into a fresh state."""
        state = cls()
        for key, value in source.items():
            member = snapshot_value(value)
            gk = _group_key_of(by, member)
            if gk is _NO_GROUP:
                continue
            state.add(gk, key, member, aggs)
        return state

    def add(self, gk: Any, key: Any, member: Any, aggs: Any) -> None:
        group = self.members.setdefault(gk, {})
        previous = group.get(key, MISSING)
        group[key] = member
        if aggs:
            accs = self.accs.setdefault(gk, {})
            for name, agg in aggs.items():
                if not getattr(agg, "decomposable", False):
                    continue
                if name in self.inexact:
                    continue
                if self._contribution_is_float(agg, member) or (
                    previous is not MISSING
                    and self._contribution_is_float(agg, previous)
                ):
                    self._mark_inexact(name)
                    continue
                acc = accs[name] if name in accs else agg.seed()
                if previous is not MISSING:
                    acc = agg.unstep(acc, previous)
                accs[name] = agg.step(acc, member)

    def remove(self, gk: Any, key: Any, member: Any, aggs: Any) -> None:
        group = self.members.get(gk)
        if group is None or key not in group:
            return
        del group[key]
        accs = self.accs.get(gk)
        if aggs and accs is not None:
            for name, agg in aggs.items():
                if not getattr(agg, "decomposable", False):
                    continue
                if name in self.inexact or name not in accs:
                    continue
                if self._contribution_is_float(agg, member):
                    self._mark_inexact(name)
                    continue
                accs[name] = agg.unstep(accs[name], member)
        if not group:
            del self.members[gk]
            self.accs.pop(gk, None)


def clone_aux(aux: dict) -> dict:
    """A scratch copy of per-node state (for non-mutating previews)."""
    return {
        node: state.clone() if isinstance(state, _GroupState) else state
        for node, state in aux.items()
    }


def _group_key_of(by: Any, member: Any) -> Any:
    if member is MISSING:
        return _NO_GROUP
    try:
        return by.key_of(member)
    except UndefinedInputError:
        return _NO_GROUP


# ---------------------------------------------------------------------------
# The lookup
# ---------------------------------------------------------------------------


def derive_delta(
    fn: FDMFunction,
    base_deltas: dict[int, Delta],
    aux: dict | None = None,
    stats: Any = None,
) -> Any:
    """Derive the output delta of *fn* given its base relations' deltas.

    *base_deltas* maps ``id(base_function)`` to the net
    :class:`~repro.ivm.delta.Delta` observed since the consumer's
    watermark. *aux* holds per-node maintained state (group membership,
    accumulators) across calls; pass the same dict on every sync of one
    view. Returns a :class:`Delta` over *fn*'s keyspace, or
    :data:`FALLBACK` when no sound rule applies.
    """
    if aux is None:
        aux = {}
    if not isinstance(fn, DerivedFunction):
        delta = base_deltas.get(id(fn))
        if delta is not None:
            return delta
        if _reads_changed_base(fn, base_deltas):
            return FALLBACK  # changed data behind an opaque combinator
        return Delta()
    # local import: the table imports this module for its rules
    from repro.operators import operator_of

    rule = operator_of(fn).delta
    if rule is FALLBACK:
        return fallback_if_changed(fn, base_deltas)
    return rule(fn, base_deltas, aux, stats)


def _reads_changed_base(fn: FDMFunction, base_deltas: dict[int, Delta]) -> bool:
    if id(fn) in base_deltas and base_deltas[id(fn)]:
        return True
    if any(
        _reads_changed_base(child, base_deltas)
        for child in getattr(fn, "children", ())
    ):
        return True
    from repro.fdm.databases import DatabaseFunction

    if isinstance(fn, DatabaseFunction) and not isinstance(
        fn, DerivedFunction
    ):
        # database containers hold their relations as mappings, not
        # children — a changed base behind one must still force FALLBACK
        return any(
            _reads_changed_base(value, base_deltas)
            for _name, value in fn.items()
            if isinstance(value, FDMFunction)
        )
    return False


def fallback_if_changed(fn: FDMFunction, base_deltas: dict[int, Delta]) -> Any:
    """No rule for this operator: transparent while its inputs are quiet."""
    if _reads_changed_base(fn, base_deltas):
        return FALLBACK
    return Delta()


def snapshot_rule(fn, base_deltas, aux, stats):
    """Materialized views read from their snapshot; the consuming
    IVMState guards snapshot-version drift separately, so between
    guarded syncs a nested view is a stable leaf."""
    return Delta()


def presentation_rule(fn, base_deltas, aux, stats):
    """order_by / limit: presentation order cannot be patched in place,
    so any change in the source marks the view dirty."""
    source_delta = derive_delta(fn.source, base_deltas, aux, stats)
    if source_delta is FALLBACK or source_delta:
        return FALLBACK
    return Delta()


# ---------------------------------------------------------------------------
# Key-preserving rules: filter, restrict, map
# ---------------------------------------------------------------------------


def filter_rule(fn, base_deltas, aux, stats):
    from repro.fdm.entry import Entry

    source_delta = derive_delta(fn.source, base_deltas, aux, stats)
    if source_delta is FALLBACK:
        return FALLBACK
    predicate = fn.predicate
    out = Delta()
    for key, (old, new) in source_delta.items():
        old_out = (
            old
            if old is not MISSING and predicate(Entry(key, old))
            else MISSING
        )
        new_out = (
            new
            if new is not MISSING and predicate(Entry(key, new))
            else MISSING
        )
        out.record_snapshotted(key, old_out, new_out)
    return out


def restrict_rule(fn, base_deltas, aux, stats):
    source_delta = derive_delta(fn.source, base_deltas, aux, stats)
    if source_delta is FALLBACK:
        return FALLBACK
    allowed = fn.restricted_keys
    out = Delta()
    for key, (old, new) in source_delta.items():
        if key in allowed:
            out.record_snapshotted(key, old, new)
    return out


def map_rule(fn, base_deltas, aux, stats):
    source_delta = derive_delta(fn.source, base_deltas, aux, stats)
    if source_delta is FALLBACK:
        return FALLBACK
    transform = fn._transform
    out = Delta()
    for key, (old, new) in source_delta.items():
        old_out = (
            snapshot_value(transform(key, old)) if old is not MISSING
            else MISSING
        )
        new_out = (
            snapshot_value(transform(key, new)) if new is not MISSING
            else MISSING
        )
        out.record_snapshotted(key, old_out, new_out)
    return out


# ---------------------------------------------------------------------------
# Grouping: maintained membership and accumulators
# ---------------------------------------------------------------------------


def group_rule(fn, base_deltas, aux, stats, parts=None):
    """``group`` and the fused group-aggregate; *parts* names the
    ``(source, by, aggregates)`` of an ``aggregate(group(x))`` pair,
    whose maintained state stays keyed by *fn*, the view's own node."""
    if parts is None:
        parts = (fn.source, fn._by, getattr(fn, "_aggs", None))
    source, by, aggs = parts
    source_delta = derive_delta(source, base_deltas, aux, stats)
    if source_delta is FALLBACK:
        return FALLBACK
    if not source_delta:
        return Delta()
    if aggs and any(_order_sensitive(agg) for agg in aggs.values()):
        return FALLBACK  # Collect/First depend on enumeration order

    state = aux.get(id(fn))
    if state is None:
        # first sync: rebuild the watermark-time state by rolling the
        # source back, then maintain it incrementally from here on
        state = _GroupState.build(
            _RolledBack(source, source_delta), by, aggs
        )
        aux[id(fn)] = state

    touched: dict[Any, Any] = {}  # group key → output before this batch

    def touch(gk: Any) -> None:
        if gk not in touched:
            touched[gk] = _group_output(fn, state, gk, by, aggs, stats)

    for key, (old, new) in source_delta.items():
        old_gk = _group_key_of(by, old)
        new_gk = _group_key_of(by, new)
        if old_gk is not _NO_GROUP:
            touch(old_gk)
        if new_gk is not _NO_GROUP and new_gk != old_gk:
            touch(new_gk)
        if old_gk is not _NO_GROUP and old_gk != new_gk:
            state.remove(old_gk, key, old, aggs)
        if new_gk is not _NO_GROUP:
            # add() handles the in-place case: the previous member's
            # contribution is unstepped before the new one is stepped in
            state.add(new_gk, key, new, aggs)

    out = Delta()
    for gk, old_output in touched.items():
        new_output = _group_output(fn, state, gk, by, aggs, stats)
        out.record_snapshotted(gk, old_output, new_output)
    return out


def _order_sensitive(agg: Any) -> bool:
    from repro.fql.aggregates import Collect, First

    return isinstance(agg, (Collect, First))


def _group_output(fn, state, gk, by, aggs, stats):
    """The view's value at group key *gk* under the current state."""
    members = state.members.get(gk)
    if not members:
        return MISSING
    if aggs is None:
        from repro.fdm.relations import MaterialRelationFunction

        rel = MaterialRelationFunction(
            name=f"{fn.source.name}[{by.label()}={gk!r}]"
        )
        for key, member in members.items():
            if (
                isinstance(member, FDMFunction)
                and member.kind == "tuple"
                and member.is_enumerable
            ):
                rel._rows[key] = dict(member.items())
            else:
                rel._rows[key] = member
        return rel

    from repro.fdm.tuples import TupleFunction

    data: dict[str, Any] = by.key_attrs(gk)
    accs = state.accs.get(gk, {})
    for name, agg in aggs.items():
        if getattr(agg, "decomposable", False) and name in accs:
            data[name] = agg.result(accs[name])
        else:
            # non-decomposable (min/max/median/...): refold the group
            data[name] = agg.compute(members.values())
            if stats is not None:
                stats.group_refolds += 1
    return TupleFunction(data, name=f"{fn.fn_name}[{gk!r}]")


# ---------------------------------------------------------------------------
# Joins: delta-join changed atoms against old and current states
# ---------------------------------------------------------------------------


def join_rule(fn, base_deltas, aux, stats):
    from repro.fdm.tuples import TupleFunction
    from repro.fql.join import JoinPlan, _merge_binding_into_row

    plan = fn.plan
    order = fn.atom_order
    atom_deltas: dict[str, Delta] = {}
    for name, atom in plan.atoms.items():
        delta = derive_delta(atom, base_deltas, aux, stats)
        if delta is FALLBACK:
            return FALLBACK
        if delta:
            atom_deltas[name] = delta
    if not atom_deltas:
        return Delta()

    current = dict(plan.atoms)
    rolled_back = {
        name: (
            _RolledBack(atom, atom_deltas[name])
            if name in atom_deltas
            else atom
        )
        for name, atom in plan.atoms.items()
    }

    def affected_rows(atoms: dict, changed: str, keys: set) -> dict:
        probe = dict(atoms)
        probe[changed] = _KeysSlice(atoms[changed], keys)
        sub = JoinPlan(
            probe, plan.edges, order_hint=_connected_order(plan, changed)
        )
        rows: dict[Any, Any] = {}
        for binding in sub.bindings(prefetch=False):
            rkey = tuple(binding[name][0] for name in order)
            row = _merge_binding_into_row(binding, probe, order)
            rows[rkey] = TupleFunction(row, name=f"{fn.fn_name}{rkey!r}")
        return rows

    old_rows: dict[Any, Any] = {}
    new_rows: dict[Any, Any] = {}
    for name, delta in atom_deltas.items():
        keys = set(delta.changes)
        old_rows.update(affected_rows(rolled_back, name, keys))
        new_rows.update(affected_rows(current, name, keys))

    out = Delta()
    for rkey in {**old_rows, **new_rows}:
        out.record_snapshotted(
            rkey, old_rows.get(rkey, MISSING), new_rows.get(rkey, MISSING)
        )
    return out


def _connected_order(plan, start: str) -> list[str]:
    """Atom order starting at *start*, preferring edge-connected next
    atoms (so the delta restriction drives the probes, not a full scan
    of an unrelated atom)."""
    remaining = [name for name in plan.atoms if name != start]
    ordered = [start]
    while remaining:
        for name in remaining:
            if any(
                (a.atom == name and b.atom in ordered)
                or (b.atom == name and a.atom in ordered)
                for a, b in plan.edges
            ):
                break
        else:
            name = remaining[0]
        ordered.append(name)
        remaining.remove(name)
    return ordered


# ---------------------------------------------------------------------------
# Set operations
# ---------------------------------------------------------------------------


def setop_rule(fn, base_deltas, aux, stats):
    left_delta = derive_delta(fn.left, base_deltas, aux, stats)
    if left_delta is FALLBACK:
        return FALLBACK
    right_delta = derive_delta(fn.right, base_deltas, aux, stats)
    if right_delta is FALLBACK:
        return FALLBACK

    out = Delta()
    for key in {**left_delta.changes, **right_delta.changes}:
        old_l, new_l = _side_values(fn.left, left_delta, key)
        old_r, new_r = _side_values(fn.right, right_delta, key)
        out.record_snapshotted(
            key,
            _setop_value(fn, old_l, old_r),
            _setop_value(fn, new_l, new_r),
        )
    return out


def _side_values(side: FDMFunction, delta: Delta, key: Any) -> tuple[Any, Any]:
    change = delta.changes.get(key)
    if change is not None:
        return change
    if side.defined_at(key):
        current = snapshot_value(side._apply(key))
        return current, current
    return MISSING, MISSING


def _setop_value(fn, lv: Any, rv: Any) -> Any:
    from repro.errors import MergeConflictError
    from repro.fql.setops import (
        IntersectFunction,
        MinusFunction,
        UnionFunction,
        _both_recursable,
    )

    if isinstance(fn, UnionFunction):
        if lv is MISSING and rv is MISSING:
            return MISSING
        if rv is MISSING:
            return lv
        if lv is MISSING:
            return rv
        if values_equal(lv, rv):
            return lv
        if _both_recursable(lv, rv):
            return snapshot_value(
                UnionFunction(lv, rv, on_conflict=fn._on_conflict)
            )
        if fn._on_conflict == "left":
            return lv
        if fn._on_conflict == "right":
            return rv
        raise MergeConflictError(
            f"union conflict during maintenance: {lv!r} vs {rv!r} "
            "(pass on_conflict='left'/'right' to pick a side)"
        )
    if isinstance(fn, IntersectFunction):
        if lv is MISSING or rv is MISSING:
            return MISSING
        if values_equal(lv, rv):
            return lv
        if _both_recursable(lv, rv):
            nested = IntersectFunction(lv, rv)
            if len(nested):
                return snapshot_value(nested)
        return MISSING
    # minus
    if lv is MISSING:
        return MISSING
    if rv is MISSING:
        return lv
    if values_equal(lv, rv):
        return MISSING
    if _both_recursable(lv, rv):
        nested = MinusFunction(lv, rv)
        if len(nested):
            return snapshot_value(nested)
        return MISSING
    return lv
