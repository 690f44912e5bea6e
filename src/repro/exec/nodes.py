"""Physical pipeline nodes: batched, pull-based execution (DESIGN.md §6).

Each node consumes batches — plain lists of ``(key, value)`` entries —
from its children and yields batches of its own. Pulling is lazy: a
``limit`` above a ``scan`` stops the scan after the first batch it needs.
The contract every node honours is *naive equivalence*: the flattened
entry stream must match the per-key interpretation of the corresponding
logical operator exactly — same keys, same order, extensionally equal
values. The differential test suite enforces this for every operator.

Nodes never call ``items()``/``keys()`` on *derived* functions for their
own subtree (that would re-enter the executor); they pull from their
child nodes, and only leaf :class:`ScanNode`\\ s touch base functions.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Any, Iterator

from repro._util import MISSING
from repro.errors import UndefinedInputError
from repro.exec import kernels
from repro.exec.batch import (
    COLUMNAR_BATCH_SIZE,
    ColumnBatch,
    batch_bytes,
    counters,
    counters_for,
)
from repro.fdm.functions import FDMFunction
from repro.obs.resources import active_meter

__all__ = [
    "BATCH_SIZE",
    "PhysicalNode",
    "ScanNode",
    "NaiveNode",
    "FilterNode",
    "RestrictNode",
    "MapNode",
    "OrderNode",
    "LimitNode",
    "GroupNode",
    "GroupAggregateNode",
    "AggregateOverGroupsNode",
    "FusedGroupAggregateNode",
    "HashJoinNode",
    "UnionNode",
    "IntersectNode",
    "MinusNode",
    "KeyLookupNode",
    "IndexLookupNode",
    "rebatch",
    "fold_group_batches",
]

#: Default number of entries per batch. Large enough to amortize the
#: per-batch Python overhead, small enough to keep pipelines responsive.
BATCH_SIZE = 256


def rebatch(entries: Iterator, size: int = BATCH_SIZE) -> Iterator[list]:
    """Chunk a flat iterator into batches (``repro._util.chunked``)."""
    from repro._util import chunked

    return chunked(entries, size)


class PhysicalNode:
    """One operator of a lowered pipeline."""

    op = "physical"
    children: tuple["PhysicalNode", ...] = ()

    def batches(self) -> Iterator[list]:
        raise NotImplementedError

    def key_batches(self) -> Iterator[list]:
        """Batches of keys only.

        Override where keys are derivable without computing values (map
        preserves keys; scans read them directly): the naive ``keys()``
        path never evaluates transforms, and the batched path must not
        either.
        """
        for batch in self.batches():
            yield [key for key, _value in batch]

    def describe(self) -> str:
        """One-line label for pipeline explain output."""
        return self.op

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class ScanNode(PhysicalNode):
    """Leaf: stream a base (non-derived) function in chunks.

    Uses the function's :meth:`iter_batches` (stored and material
    relations provide direct chunked access) so the pipeline is fed
    without per-tuple dict churn.
    """

    op = "scan"

    def __init__(self, fn: FDMFunction, zone_predicate: Any = None):
        self.fn = fn
        #: Conjunction of the transparent filters directly above this
        #: scan (attached by the lowerer); the columnar scan skips the
        #: segments where it cannot hold — by partition scheme, then by
        #: zone map.
        self.zone_predicate = zone_predicate

    def batches(self) -> Iterator[list]:
        # class-level lookup: FDM functions route instance attribute
        # access through __getattr__ (relation lookup), so a plain
        # getattr(fn, ...) on a database function raises instead of
        # returning the default
        columnar = getattr(type(self.fn), "iter_columnar_batches", None)
        # object.__getattribute__ skips that same __getattr__ hook, so a
        # function without a stored _engine yields AttributeError rather
        # than a spurious relation lookup
        try:
            engine = object.__getattribute__(self.fn, "_engine")
        except AttributeError:
            engine = None
        scoped = counters_for(engine)
        if columnar is None:
            stream = self.fn.iter_batches(BATCH_SIZE)
        else:
            stream = columnar(
                self.fn, COLUMNAR_BATCH_SIZE, zone_predicate=self.zone_predicate
            )
        for batch in stream:
            if isinstance(batch, ColumnBatch):
                counters.columnar_batches += 1
                counters.columnar_rows += len(batch)
                scoped.columnar_batches += 1
                scoped.columnar_rows += len(batch)
            else:
                counters.row_batches += 1
                counters.row_rows += len(batch)
                scoped.row_batches += 1
                scoped.row_rows += len(batch)
            # read per batch, not per generator: the pulls of one
            # enumeration always run under the same meter, but the
            # batch boundary is also the budget checkpoint
            meter = active_meter()
            if meter is not None:
                meter.on_scan_batch(len(batch), batch_bytes(batch))
            yield batch

    def key_batches(self) -> Iterator[list]:
        return rebatch(self.fn.keys())

    def partitioned_table(self) -> Any:
        """The partitioned table this scan reads now, else ``None``."""
        from repro.storage.relation import StoredRelationFunction

        if not isinstance(self.fn, StoredRelationFunction):
            return None
        table = self.fn._engine.tables.get(self.fn.table_name)
        return table if table is not None and table.is_partitioned else None

    def describe(self) -> str:
        from repro.partition.prune import surviving_partitions

        label = f"scan {self.fn.fn_name!r} [{self.fn.kind}]"
        if self.zone_predicate is not None:
            label += f" [zones: {self.zone_predicate.to_source()}]"
        table = self.partitioned_table()
        if table is not None:
            scheme = table.scheme
            total = scheme.n_partitions
            kept = len(surviving_partitions(scheme, self.zone_predicate))
            label += (
                f" [{scheme.describe()}: scan {kept}/{total} "
                f"partitions, {total - kept} pruned]"
            )
        return label


class NaiveNode(PhysicalNode):
    """Fallback leaf: an operator the lowerer does not specialize.

    Streams the function's own per-key enumeration in batches; its
    subtree runs unoptimized, but the surrounding pipeline stays batched.
    """

    op = "naive"

    def __init__(self, fn: FDMFunction):
        self.fn = fn

    def batches(self) -> Iterator[list]:
        return rebatch(self.fn.naive_items())

    def key_batches(self) -> Iterator[list]:
        return rebatch(self.fn.naive_keys())

    def describe(self) -> str:
        return f"naive {getattr(self.fn, 'op_name', '?')}({self.fn.fn_name!r})"


class FilterNode(PhysicalNode):
    """σ over a batch stream with a batch-compiled predicate."""

    op = "filter"

    def __init__(self, child: PhysicalNode, predicate: Any):
        self.children = (child,)
        self.predicate = predicate
        self._compiled = predicate.compile_batch()
        #: ``None`` when the predicate shape has no per-column form
        #: (opaque lambdas, Not, nested paths) — those batches fall back
        #: to the row-compiled loop over materialized pairs.
        self._columnar = predicate.compile_columnar()

    def batches(self) -> Iterator[list]:
        compiled = self._compiled
        columnar = self._columnar
        for batch in self.children[0].batches():
            if isinstance(batch, ColumnBatch):
                if columnar is not None:
                    out = batch.take(columnar(batch))
                    if len(out):
                        yield out
                    continue
                batch = batch.pairs()
            mask = compiled(batch)
            out = [pair for pair, ok in zip(batch, mask) if ok]
            if out:
                yield out

    def key_batches(self) -> Iterator[list]:
        compiled = self._compiled
        columnar = self._columnar
        for batch in self.children[0].batches():
            if isinstance(batch, ColumnBatch):
                if columnar is not None:
                    mask = columnar(batch)
                    out = [k for k, ok in zip(batch.keys, mask) if ok]
                    if out:
                        yield out
                    continue
                batch = batch.pairs()
            mask = compiled(batch)
            out = [pair[0] for pair, ok in zip(batch, mask) if ok]
            if out:
                yield out

    def describe(self) -> str:
        return f"filter [{self.predicate.to_source()}]"


class RestrictNode(PhysicalNode):
    """Key-set restriction (subdatabase reduction, outer partitions)."""

    op = "restrict"

    def __init__(self, child: PhysicalNode, keys: frozenset):
        self.children = (child,)
        self.keys = keys

    def batches(self) -> Iterator[list]:
        keys = self.keys
        for batch in self.children[0].batches():
            if isinstance(batch, ColumnBatch):
                out = batch.take([k in keys for k in batch.keys])
                if len(out):
                    yield out
                continue
            out = [pair for pair in batch if pair[0] in keys]
            if out:
                yield out

    def key_batches(self) -> Iterator[list]:
        keys = self.keys
        for batch in self.children[0].key_batches():
            out = [key for key in batch if key in keys]
            if out:
                yield out

    def describe(self) -> str:
        return f"restrict [{len(self.keys)} keys]"


class MapNode(PhysicalNode):
    """π/extend/rename/map: per-entry value transform, one loop per batch."""

    op = "map"

    def __init__(
        self,
        child: PhysicalNode,
        transform: Any,
        label: str = "map",
        attrs: Any = None,
    ):
        self.children = (child,)
        self.transform = transform
        self.label = label
        #: For ``project`` maps the lowerer passes the attribute list so
        #: columnar batches can be narrowed dict-to-dict without
        #: materializing tuples.
        self.attrs = list(attrs) if attrs is not None else None

    def batches(self) -> Iterator[list]:
        transform = self.transform
        attrs = self.attrs
        for batch in self.children[0].batches():
            if isinstance(batch, ColumnBatch) and attrs is not None:
                yield self._project_columnar(batch, attrs)
                continue
            yield [(key, transform(key, value)) for key, value in batch]

    def _project_columnar(self, batch: ColumnBatch, attrs: list) -> ColumnBatch:
        from repro.fdm.tuples import RowTuple

        out = []
        for row in batch.rows:
            try:
                out.append({a: row[a] for a in attrs})
            except KeyError:
                # Re-raise through the tuple path for the exact
                # UndefinedInputError the naive project would produce.
                RowTuple(row, batch.name).project(attrs)
                raise  # unreachable: project() always raises here
        return ColumnBatch.of(batch.keys, out, batch.name)

    def key_batches(self) -> Iterator[list]:
        # map preserves the key set: never evaluate the transform for keys
        return self.children[0].key_batches()

    def describe(self) -> str:
        return self.label


class OrderNode(PhysicalNode):
    """Sort with the logical operator's sort key, re-batch.

    Over column batches ordered by one attribute the kernels may sort
    the image columns instead (:func:`~repro.exec.kernels.sort_runs`);
    rows then stay views until a consumer — a limit, say — pulls them.
    """

    op = "order"

    def __init__(self, child: PhysicalNode, sort_key: Any, reverse: bool,
                 label: str = "order", attr: str | None = None):
        self.children = (child,)
        self.sort_key = sort_key
        self.reverse = reverse
        self.label = label
        #: the one attribute the sort key reads, when it is one
        self.attr = attr

    def batches(self) -> Iterator[list]:
        held = list(self.children[0].batches())
        if self.attr is not None and all(
            isinstance(b, ColumnBatch) for b in held
        ):
            runs = kernels.sort_runs(held, self.attr, self.reverse)
            if runs is not None:
                for image, name, positions in runs:
                    run = ColumnBatch(image, positions, name)
                    for start in range(0, len(run), BATCH_SIZE):
                        yield run[start:start + BATCH_SIZE]
                return
        pairs = [pair for batch in held for pair in batch]
        pairs.sort(key=lambda kv: self.sort_key(kv[1]), reverse=self.reverse)
        yield from rebatch(iter(pairs))

    def describe(self) -> str:
        return f"{self.label} (reverse={self.reverse})"


class LimitNode(PhysicalNode):
    """Stop pulling after *n* entries."""

    op = "limit"

    def __init__(self, child: PhysicalNode, n: int):
        self.children = (child,)
        self.n = n

    def batches(self) -> Iterator[list]:
        yield from self._truncate(self.children[0].batches())

    def key_batches(self) -> Iterator[list]:
        yield from self._truncate(self.children[0].key_batches())

    def _truncate(self, stream: Iterator[list]) -> Iterator[list]:
        remaining = self.n
        if remaining <= 0:
            return
        for batch in stream:
            if len(batch) >= remaining:
                yield batch[:remaining]
                return
            remaining -= len(batch)
            yield batch

    def describe(self) -> str:
        return f"limit {self.n}"


class GroupNode(PhysicalNode):
    """γ: one pass building group-key → member relation function."""

    op = "group"

    def __init__(self, child: PhysicalNode, grouped_fn: Any):
        self.children = (child,)
        self.fn = grouped_fn  # the logical GroupedDatabaseFunction

    def _scan_groups(self) -> dict:
        by = self.fn.by
        groups: dict[Any, list] = {}
        for batch in self.children[0].batches():
            for key, t in batch:
                try:
                    group_key = by.key_of(t)
                except UndefinedInputError:
                    continue
                groups.setdefault(group_key, []).append((key, t))
        return groups

    def batches(self) -> Iterator[list]:
        groups = self._scan_groups()
        yield from rebatch(
            (gk, self.fn._group_relation(gk, members))
            for gk, members in groups.items()
        )

    def key_batches(self) -> Iterator[list]:
        # group keys only: skip materializing member relations
        return rebatch(iter(self._scan_groups()))

    def describe(self) -> str:
        return f"group [by {self.fn.by.label()}]"


def _column_fold_specs(by: Any, aggs: dict) -> list | None:
    """``(name, agg, attr_or_None)`` specs when every fold is columnar.

    A group-aggregate folds column-at-a-time only when the group-by is
    transparent (named attributes) and every aggregate reads a named
    attribute (or is a bare ``Count``); callable extractors and opaque
    group-bys need real tuples.
    """
    if by.attrs is None:
        return None
    from repro.fql.aggregates import Count

    specs = []
    for agg_name, agg in aggs.items():
        if isinstance(agg.attr, str):
            specs.append((agg_name, agg, agg.attr))
        elif agg.attr is None and isinstance(agg, Count):
            specs.append((agg_name, agg, None))
        else:
            return None
    return specs


def fold_group_batches(stream: Iterator, by: Any, aggs: dict) -> dict:
    """Fold a batch stream into ``group_key → {agg_name: acc}``.

    A stream of column batches grouped by one attribute first goes to
    :func:`~repro.exec.kernels.fold_groups`, which folds the image
    columns or declines. Otherwise column batches fold straight off
    attribute columns via ``step_value`` (when
    :func:`_column_fold_specs` allows), and anything else takes the
    per-tuple ``step`` path. Every path folds in stream order, so
    results are bit-identical across paths (float addition is
    order-sensitive).
    """
    specs = _column_fold_specs(by, aggs)
    attrs = by.attrs
    if specs is not None and len(attrs) == 1:
        held: list = []
        for batch in stream:
            held.append(batch)
            if not isinstance(batch, ColumnBatch):
                break
        else:
            folded = kernels.fold_groups(held, attrs[0], specs)
            if folded is not None:
                return folded
        stream = chain(held, stream)
    accs: dict[Any, dict] = {}
    for batch in stream:
        if specs is not None and isinstance(batch, ColumnBatch):
            group_cols = [batch.col(a) for a in attrs]
            value_cols = [
                batch.col(attr) if attr is not None else None
                for _name, _agg, attr in specs
            ]
            for i in range(len(batch)):
                if len(group_cols) == 1:
                    group_key = group_cols[0][i]
                    if group_key is MISSING:
                        continue
                elif group_cols:
                    group_key = tuple(col[i] for col in group_cols)
                    if any(v is MISSING for v in group_key):
                        continue
                else:
                    group_key = ()
                acc = accs.get(group_key)
                if acc is None:
                    acc = {
                        agg_name: agg.seed()
                        for agg_name, agg in aggs.items()
                    }
                    accs[group_key] = acc
                for (agg_name, agg, _attr), col in zip(specs, value_cols):
                    acc[agg_name] = agg.step_value(
                        acc[agg_name], col[i] if col is not None else MISSING
                    )
            continue
        for _key, t in batch:
            try:
                group_key = by.key_of(t)
            except UndefinedInputError:
                continue
            acc = accs.get(group_key)
            if acc is None:
                acc = {
                    agg_name: agg.seed() for agg_name, agg in aggs.items()
                }
                accs[group_key] = acc
            for agg_name, agg in aggs.items():
                acc[agg_name] = agg.step(acc[agg_name], t)
    return accs


class GroupAggregateNode(PhysicalNode):
    """group+aggregate in one pass without materializing member relations.

    Lowers ``aggregate(group(by, x), **aggs)`` — the unrolled Fig. 4b
    pipeline — into the same one-pass shape as the fused Fig. 4c form.
    """

    op = "group_aggregate"

    def __init__(self, child: PhysicalNode, by: Any, aggs: dict,
                 name: str = "agg"):
        self.children = (child,)
        self.by = by
        self.aggs = dict(aggs)
        self.name = name

    def batches(self) -> Iterator[list]:
        by, aggs = self.by, self.aggs
        accs = fold_group_batches(self.children[0].batches(), by, aggs)
        from repro.fdm.tuples import TupleFunction

        def tuples() -> Iterator[tuple]:
            for group_key, acc in accs.items():
                data = by.key_attrs(group_key)
                for agg_name, agg in aggs.items():
                    data[agg_name] = agg.result(acc[agg_name])
                yield group_key, TupleFunction(
                    data, name=f"{self.name}[{group_key!r}]"
                )

        yield from rebatch(tuples())

    def key_batches(self) -> Iterator[list]:
        # group keys only: fold no aggregates (naive keys() never does)
        by = self.by
        attrs = by.attrs
        seen: dict[Any, None] = {}
        for batch in self.children[0].batches():
            if attrs is not None and isinstance(batch, ColumnBatch):
                if len(attrs) == 1:
                    for group_key in batch.col(attrs[0]):
                        if group_key is not MISSING and group_key not in seen:
                            seen[group_key] = None
                else:
                    group_cols = [batch.col(a) for a in attrs]
                    for i in range(len(batch)):
                        group_key = tuple(col[i] for col in group_cols)
                        if (
                            not any(v is MISSING for v in group_key)
                            and group_key not in seen
                        ):
                            seen[group_key] = None
                continue
            for _key, t in batch:
                try:
                    group_key = by.key_of(t)
                except UndefinedInputError:
                    continue
                if group_key not in seen:
                    seen[group_key] = None
        yield from rebatch(iter(seen), BATCH_SIZE)

    def describe(self) -> str:
        return (
            f"group_aggregate [by {self.by.label()}; "
            f"{', '.join(self.aggs)}]"
        )


class AggregateOverGroupsNode(PhysicalNode):
    """Aggregate a stream of pre-built groups (opaque grouping sources)."""

    op = "aggregate"

    def __init__(self, child: PhysicalNode, aggs: dict, name: str = "agg"):
        self.children = (child,)
        self.aggs = dict(aggs)
        self.name = name

    def batches(self) -> Iterator[list]:
        from repro.errors import OperatorError
        from repro.fdm.tuples import TupleFunction

        for batch in self.children[0].batches():
            out = []
            for group_key, group_rel in batch:
                if not isinstance(group_rel, FDMFunction):
                    raise OperatorError(
                        f"aggregate() expects groups of tuples, found "
                        f"{group_rel!r}"
                    )
                members = list(group_rel.values())
                data: dict[str, Any] = {}
                for agg_name, agg in self.aggs.items():
                    data[agg_name] = agg.compute(members)
                out.append(
                    (
                        group_key,
                        TupleFunction(
                            data, name=f"{self.name}[{group_key!r}]"
                        ),
                    )
                )
            yield out

    def key_batches(self) -> Iterator[list]:
        # aggregate preserves the group-key set: skip the folds
        return self.children[0].key_batches()

    def describe(self) -> str:
        return f"aggregate [{', '.join(self.aggs)}]"


class FusedGroupAggregateNode(GroupAggregateNode):
    """The already-fused physical operator, fed by a batched child."""

    op = "fused_group_aggregate"


def _image_sides(plan: Any, order: list) -> tuple:
    """``(probe side, build side)`` of a join that runs on column images,
    or ``(None, why not)``: two enumerable atoms and no transaction open
    over them, one equi-edge between them, each side the atom's key or
    one attribute, and no tuple key label."""
    if len(order) != 2:
        return None, f"{len(order)} atoms"
    if len(plan.edges) != 1:
        return None, f"{len(plan.edges)} edges"
    sides = sorted(plan.edges[0], key=lambda side: side.atom != order[0])
    if [side.atom for side in sides] != order:
        return None, "edge within one atom"
    if any(s.accessor != "key" and s.accessor[0] != "attr" for s in sides):
        return None, "key component"
    if any(isinstance(_key_label(plan, name), tuple) for name in order):
        return None, "tuple key label"
    atoms = [plan.atoms[name] for name in order]
    if not all(atom.is_enumerable for atom in atoms):
        return None, "non-enumerable atom"
    if any(map(_in_transaction, atoms)):
        return None, "open transaction"
    return tuple(sides), None


def _key_label(plan: Any, name: str) -> Any:
    return getattr(plan.atoms[name], "key_name", None)


def _in_transaction(fn: Any) -> bool:
    """True when a stored table under *fn* has a transaction open on
    this thread: its scans then yield entries, not column images."""
    from repro.storage.relation import StoredRelationFunction

    if isinstance(fn, StoredRelationFunction):
        return fn._manager.current() is not None
    return any(map(_in_transaction, getattr(fn, "children", ())))


def _probe_entries(batch: list, side: Any) -> tuple[list, list, list]:
    """``(keys, rows, join values)`` of an entry batch, each read the way
    the bindings path reads it; entries with no join value are dropped."""
    keys, rows, values = [], [], []
    for key, value in batch:
        try:
            values.append(side.eval(key, value))
        except UndefinedInputError:
            continue
        keys.append(key)
        enumerable = isinstance(value, FDMFunction) and value.is_enumerable
        rows.append(dict(value.items()) if enumerable else {})
    return keys, rows, values


class HashJoinNode(PhysicalNode):
    """⋈ (fig 6). A two-atom equi-join joins its atoms' column images:
    the build atom drains into one dict, and the probe atom streams past
    it batch by batch, its join column read once per batch. Any other
    shape (``_image_sides``, which explain reads too), an atom with no
    plan, or a build batch that is not a column image (an offloaded
    atom, nested functions) takes ``JoinPlan.bindings(prefetch=True)``,
    with enumerable key-joined atoms prefetched into hash maps. Both
    paths give the same rows in the same order (DESIGN.md §13)."""

    op = "hash_join"

    def __init__(self, join_fn: Any):
        self.fn = join_fn  # the logical JoinedRelationFunction

    def batches(self) -> Iterator[list]:
        return self._join(with_rows=True)

    def key_batches(self) -> Iterator[list]:
        # key tuples only: skip denormalizing rows (naive keys() does too)
        return self._join(with_rows=False)

    def _join(self, with_rows: bool) -> Iterator[Any]:
        drained = self._drain()
        if drained is not None:
            yield from self._probe(*drained, with_rows)
            return
        from repro.fql.join import _merge_binding_into_row

        plan, order = self.fn.plan, self.fn.atom_order
        labels = {name: _key_label(plan, name) for name in order}
        for bindings in rebatch(plan.bindings(prefetch=True)):
            keys = [tuple(b[name][0] for name in order) for b in bindings]
            yield ColumnBatch.of(keys, [
                _merge_binding_into_row(b, plan.atoms, order, labels)
                for b in bindings
            ], self.fn.fn_name) if with_rows else keys

    def _drain(self) -> tuple | None:
        """``(sides, probe stream, build dict)``, or ``None`` to take the
        bindings path. The dict maps the build atom's key to its row, or
        each value of its join attribute to the ``(key, row)`` pairs
        holding it, in stream order (``MISSING`` never joins)."""
        from repro.exec.run import route_batches
        from repro.fql.join import _note_build_rows

        sides, _why = _image_sides(self.fn.plan, self.fn.atom_order)
        if sides is None:
            return None
        probe_side, build_side = sides
        atoms = self.fn.plan.atoms
        probe = route_batches(atoms[probe_side.atom])
        build = route_batches(atoms[build_side.atom])
        if probe is None or build is None:
            return None
        table: dict = {}
        built = 0
        for batch in build:
            if not isinstance(batch, ColumnBatch):
                build.close()
                probe.close()
                return None
            if build_side.is_key:
                table.update(zip(batch.keys, batch.rows))
                continue
            for key, row, value in zip(
                batch.keys, batch.rows, batch.col(build_side.accessor[1])
            ):
                if value is not MISSING:
                    table.setdefault(value, []).append((key, row))
                    built += 1
        _note_build_rows(len(table) if build_side.is_key else built)
        return sides, probe, table

    def _probe(self, sides: tuple, probe: Iterator, table: dict,
               with_rows: bool) -> Iterator[Any]:
        """One output batch per probe batch, in probe order and then
        build insertion order; rows are built for matches only."""
        from repro._util import normalize_key
        from repro.fql.join import key_columns, merged_names

        probe_side, build_side = sides
        plan = self.fn.plan
        by_key = build_side.is_key
        p_name, b_name = probe_side.atom, build_side.atom
        p_label = key_columns(p_name, _key_label(plan, p_name), None)[0]
        b_label = key_columns(b_name, _key_label(plan, b_name), None)[0]
        names: dict = {}  # (probe attrs, build attrs) → column names
        get = table.get
        for batch in probe:
            if not isinstance(batch, ColumnBatch):
                keys, rows, col = _probe_entries(batch, probe_side)
            else:
                keys, rows = batch.keys, batch.rows
                col = keys if probe_side.is_key else batch.col(
                    probe_side.accessor[1]
                )
            # MISSING is in no table, so an undefined value never joins; a
            # key is looked up the way normalize_key spells it, which only
            # changes lists and tuples
            needles = col
            if by_key and any(map(isinstance, col, repeat((list, tuple)))):
                needles = [normalize_key(value) for value in col]
            out_keys: list = []
            out_rows: list = []
            for key, row, value, hit in zip(keys, rows, col, map(get, needles)):
                if hit is None:
                    continue
                for b_key, b_row in ((value, hit),) if by_key else hit:
                    out_keys.append((key, b_key))
                    if not with_rows:
                        continue
                    shape = (tuple(row), tuple(b_row))
                    columns = names.get(shape)
                    if columns is None:
                        columns = names[shape] = merged_names((
                            (p_name, p_label + shape[0]),
                            (b_name, b_label + shape[1]),
                        ))
                    out_rows.append(dict(zip(columns, (
                        key, *row.values(), b_key, *b_row.values()
                    ))))
            if out_keys:
                yield ColumnBatch.of(
                    out_keys, out_rows, self.fn.fn_name
                ) if with_rows else out_keys

    def describe(self) -> str:
        atoms = " ⋈ ".join(self.fn.atom_order)
        sides, why = _image_sides(self.fn.plan, self.fn.atom_order)
        if sides is None:
            return f"hash_join [{atoms}; bindings: {why}]"
        build = sides[1]
        on = "key" if build.is_key else build.accessor[1]
        return f"hash_join [{atoms}; image, build {build.atom} on {on}]"


class _SetOpNode(PhysicalNode):
    """Shared plumbing: stream the left side, probe the right lazily.

    The naive set operations are *point-wise* about the right operand:
    membership is a ``defined_at`` probe at each left key, and right
    values are only ever computed for keys where both sides collide.
    Prefetching right entries (or even right keys, for intersect and
    minus) would evaluate values the naive path never touches — and a
    value whose computation raises (say, a Sum fold over an unaddable
    column) must raise exactly when the naive interpretation would,
    never earlier. Collision keys therefore delegate wholesale to the
    logical function's ``_apply``, which also preserves its object-
    identity semantics (``values_equal`` short-circuits on ``f is g``,
    so ``t ∖ t`` is empty even when ``t`` holds NaN values that compare
    unequal to themselves elementwise).
    """

    def __init__(self, left: PhysicalNode, right: PhysicalNode, fn: Any):
        self.children = (left, right)
        self.fn = fn

    def _right_key_order(self) -> list:
        out: list = []
        for batch in self.children[1].key_batches():
            out.extend(batch)
        return out


class UnionNode(_SetOpNode):
    op = "union"

    def batches(self) -> Iterator[list]:
        # union is the one set op that enumerates the right side in
        # full (its keys appear in the output), matching naive keys()
        right_order = self._right_key_order()
        right_keys = set(right_order)
        seen = set()
        for batch in self.children[0].batches():
            out = []
            for key, left_value in batch:
                seen.add(key)
                if key not in right_keys:
                    out.append((key, left_value))
                else:
                    # collision: merge policy, recursion, and conflict
                    # errors all live in the logical operator
                    out.append((key, self.fn._apply(key)))
            if out:
                yield out
        tail = (
            (key, self.fn._apply(key))
            for key in right_order
            if key not in seen
        )
        yield from rebatch(tail)

    def key_batches(self) -> Iterator[list]:
        # naive union keys() never compares values (and so never hits a
        # merge conflict): left keys, then unseen right keys
        seen = set()
        for batch in self.children[0].key_batches():
            seen.update(batch)
            yield batch
        tail: list = []
        for batch in self.children[1].key_batches():
            tail.extend(key for key in batch if key not in seen)
        yield from rebatch(iter(tail))

    def describe(self) -> str:
        return f"union [on_conflict={self.fn._on_conflict}]"


class IntersectNode(_SetOpNode):
    op = "intersect"

    def batches(self) -> Iterator[list]:
        fn = self.fn
        for batch in self.children[0].key_batches():
            out = []
            for key in batch:
                if not fn.right.defined_at(key):
                    continue
                try:
                    out.append((key, fn._apply(key)))
                except UndefinedInputError:
                    continue
            if out:
                yield out

    def describe(self) -> str:
        return "intersect"


class MinusNode(_SetOpNode):
    op = "minus"

    def batches(self) -> Iterator[list]:
        fn = self.fn
        for batch in self.children[0].batches():
            out = []
            for key, left_value in batch:
                if not fn.right.defined_at(key):
                    out.append((key, left_value))
                    continue
                try:
                    out.append((key, fn._apply(key)))
                except UndefinedInputError:
                    continue
            if out:
                yield out

    def describe(self) -> str:
        return "minus"


class KeyLookupNode(PhysicalNode):
    """The FDM fast path: ``__key__ == c`` is a point application."""

    op = "key_lookup"

    def __init__(self, lookup_fn: Any):
        self.fn = lookup_fn  # the KeyLookupFunction physical function

    def batches(self) -> Iterator[list]:
        fn = self.fn
        if fn._hit():
            yield [(fn._key_value, fn.source._apply(fn._key_value))]

    def describe(self) -> str:
        return f"key_lookup [{self.fn._key_value!r}]"


class IndexLookupNode(PhysicalNode):
    """Secondary-index access with a batch-compiled residual predicate."""

    op = "index_lookup"

    def __init__(self, lookup_fn: Any):
        self.fn = lookup_fn  # the IndexLookupFunction physical function
        self._residual = lookup_fn._residual.compile_batch()

    def batches(self) -> Iterator[list]:
        fn = self.fn
        source = fn.source
        residual = self._residual
        for batch in rebatch(
            (key, source._apply(key)) for key in fn._candidates()
        ):
            mask = residual(batch)
            out = [pair for pair, ok in zip(batch, mask) if ok]
            if out:
                yield out

    def describe(self) -> str:
        params = self.fn.op_params()
        return f"index_lookup [{params}]"
