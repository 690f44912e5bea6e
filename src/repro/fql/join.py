"""The FQL ``join`` operator (Fig. 6): n-ary join over a subdatabase.

    join_result: RF = join(subdatabase)
    join_result: RF = join(subdatabase, on=[["customers.cid", "order.cid"],
                                            ["order.pid", "products.pid"]])

Join conditions come from two sources:

* **implicit** — relationship functions inside the database: each
  participant position of ``order(cid, pid)`` joins the corresponding
  relation by *key*, because participants share domains (§3). This is the
  paper's "join the database along the foreign key constraints in the
  schema".
* **explicit** — ``on=`` pairs naming ``"relation.attr"`` sides, where the
  attribute may be a tuple attribute, the relation's key label (its
  ``key_name``), or the literal ``__key__``.

The executor is n-ary: it picks a start atom, then repeatedly attaches the
next connected atom — by direct key lookup when the new atom joins on its
key (the FDM fast path: a relation function *is* its own primary index), by
a built hash map otherwise. Unconnected atoms cross-product, as in SQL.

The machinery (:class:`JoinPlan`, bindings iteration) is shared with the
outer-marking operator (Fig. 7) and ResultDB reduction (Fig. 5), which both
need to know *which tuples participate in the join result*.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator, Sequence

from repro.errors import OperatorError, UndefinedInputError
from repro.fdm.domains import Domain, PredicateDomain
from repro.fdm.functions import DerivedFunction, FDMFunction
from repro.fdm.relations import RelationFunction
from repro.fdm.relationships import RelationshipFunction
from repro.fdm.tuples import TupleFunction, check_attributes

__all__ = ["join", "JoinPlan", "JoinSide", "JoinedRelationFunction"]


class JoinSide:
    """One side of a join condition: an accessor on one named atom."""

    __slots__ = ("atom", "accessor")

    def __init__(self, atom: str, accessor: Any):
        #: accessor: "key" | ("attr", name) | ("keypos", index)
        self.atom = atom
        self.accessor = accessor

    def eval(self, key: Any, value: Any) -> Any:
        """Evaluate against one (key, tuple) binding of this atom.

        Raises :class:`UndefinedInputError` when a tuple does not define
        the joined attribute — such tuples silently fail the (inner) join.
        """
        kind = self.accessor if isinstance(self.accessor, str) else (
            self.accessor[0]
        )
        if kind == "key":
            return key
        if kind == "keypos":
            index = self.accessor[1]
            components = key if isinstance(key, tuple) else (key,)
            try:
                return components[index]
            except IndexError:
                raise UndefinedInputError(self.atom, key) from None
        attr = self.accessor[1]
        if isinstance(value, FDMFunction):
            return value(attr)  # raises UndefinedInputError if absent
        raise UndefinedInputError(self.atom, attr)

    @property
    def is_key(self) -> bool:
        return self.accessor == "key"

    def __repr__(self) -> str:
        if self.accessor == "key":
            return f"{self.atom}.__key__"
        kind, detail = self.accessor
        if kind == "keypos":
            return f"{self.atom}.key[{detail}]"
        return f"{self.atom}.{detail}"


class JoinPlan:
    """Atoms (named enumerable functions) plus equi-join edges."""

    def __init__(self, atoms: dict[str, FDMFunction],
                 edges: list[tuple[JoinSide, JoinSide]],
                 order_hint: list[str] | None = None):
        self.atoms = atoms
        self.edges = edges
        #: When set (by the join-order optimizer), overrides the greedy
        #: connected order. Must name every atom exactly once.
        self.order_hint = order_hint

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_database(
        cls,
        db: FDMFunction,
        on: Sequence[Sequence[Any]] | None = None,
    ) -> "JoinPlan":
        atoms: dict[str, FDMFunction] = {}
        for name, fn in db.items():
            if isinstance(fn, FDMFunction) and fn.is_enumerable:
                atoms[name] = fn
        if not atoms:
            raise OperatorError("join() found no enumerable relations")
        edges: list[tuple[JoinSide, JoinSide]] = []
        if on is not None:
            for pair in on:
                if len(pair) != 2:
                    raise OperatorError(
                        f"each on= condition needs two sides, got {pair!r}"
                    )
                left = cls._parse_side(pair[0], atoms)
                right = cls._parse_side(pair[1], atoms)
                edges.append((left, right))
        else:
            edges.extend(cls._implicit_edges(atoms))
        return cls(atoms, edges)

    @staticmethod
    def _parse_side(spec: Any, atoms: dict[str, FDMFunction]) -> JoinSide:
        if isinstance(spec, JoinSide):
            return spec
        if isinstance(spec, str):
            if "." not in spec:
                raise OperatorError(
                    f"on= side {spec!r} must look like 'relation.attr'"
                )
            atom, attr = spec.split(".", 1)
        elif isinstance(spec, (tuple, list)) and len(spec) == 2:
            atom, attr = spec
        else:
            raise OperatorError(f"cannot interpret on= side {spec!r}")
        if atom not in atoms:
            raise OperatorError(
                f"on= references unknown relation {atom!r}; available: "
                f"{sorted(atoms)}"
            )
        fn = atoms[atom]
        key_name = getattr(fn, "key_name", None)
        if attr == "__key__" or attr == key_name:
            return JoinSide(atom, "key")
        if isinstance(key_name, tuple) and attr in key_name:
            return JoinSide(atom, ("keypos", key_name.index(attr)))
        return JoinSide(atom, ("attr", attr))

    @staticmethod
    def _implicit_edges(
        atoms: dict[str, FDMFunction],
    ) -> Iterator[tuple[JoinSide, JoinSide]]:
        """Edges from relationship functions' shared-domain participants.

        A participant may reference the relation *or any view derived from
        it* (Fig. 5 overlays a filtered customers into the subdatabase), so
        identity matching descends through derived-function children.
        """

        def identities(fn: FDMFunction) -> Iterator[int]:
            yield id(fn)
            for child in getattr(fn, "children", ()):
                yield from identities(child)

        by_identity: dict[int, str] = {}
        for name, fn in atoms.items():
            for fid in identities(fn):
                by_identity.setdefault(fid, name)
        key_labels: dict[str, str] = {}
        for name, fn in atoms.items():
            label = getattr(fn, "key_name", None)
            if isinstance(label, str):
                key_labels.setdefault(label, name)
        for rf_name, fn in atoms.items():
            # relationship-ness is structural (material and stored
            # relationship functions share no base class): anything with
            # participants joins its legs by key
            participants = getattr(fn, "participants", None)
            if participants is None:
                continue
            arity = len(participants)
            for index, part in enumerate(participants):
                target_name = None
                if part.function is not None:
                    for fid in identities(part.function):
                        if fid in by_identity:
                            target_name = by_identity[fid]
                            break
                if target_name is None:
                    target_name = key_labels.get(part.param)
                if target_name is None or target_name == rf_name:
                    continue
                yield (
                    JoinSide(rf_name, ("keypos", index))
                    if arity > 1
                    else JoinSide(rf_name, "key"),
                    JoinSide(target_name, "key"),
                )

    # -- execution ------------------------------------------------------------

    def order_atoms(self) -> list[str]:
        """Greedy connected order: relationships first, then neighbours."""
        if self.order_hint is not None:
            if sorted(self.order_hint) != sorted(self.atoms):
                raise OperatorError(
                    f"order hint {self.order_hint} does not cover atoms "
                    f"{sorted(self.atoms)}"
                )
            return list(self.order_hint)
        remaining = dict(self.atoms)
        ordered: list[str] = []

        def edge_count(name: str) -> int:
            return sum(
                1
                for a, b in self.edges
                if name in (a.atom, b.atom)
            )

        def pick_start() -> str:
            rels = [
                n
                for n, f in remaining.items()
                if getattr(f, "participants", None) is not None
            ]
            pool = rels or list(remaining)
            return max(pool, key=edge_count)

        while remaining:
            start = None
            for a, b in self.edges:
                if a.atom in ordered and b.atom in remaining:
                    start = b.atom
                    break
                if b.atom in ordered and a.atom in remaining:
                    start = a.atom
                    break
            if start is None:
                start = pick_start()
            ordered.append(start)
            del remaining[start]
        return ordered

    def bindings(
        self, prefetch: bool = False
    ) -> Iterator[dict[str, tuple[Any, Any]]]:
        """Iterate complete join bindings: atom name → (key, value).

        With ``prefetch=True`` (the batched executor's mode), each
        enumerable key-joined atom is materialized once into a hash map
        on first pull, replacing the per-binding point probes with O(1)
        dict lookups. Output order and semantics are identical.
        """
        order = self.order_atoms()
        results: Iterator[dict[str, tuple[Any, Any]]] = iter([{}])
        bound: set[str] = set()
        for atom_name in order:
            results = self._attach(
                results, atom_name, frozenset(bound), prefetch=prefetch
            )
            bound.add(atom_name)
        return results

    def _edges_between(
        self, bound: set[str], new_atom: str
    ) -> list[tuple[JoinSide, JoinSide]]:
        """Edges with one side on *new_atom*, the other already bound,
        normalized to (bound_side, new_side)."""
        out = []
        for a, b in self.edges:
            if a.atom == new_atom and b.atom in bound:
                out.append((b, a))
            elif b.atom == new_atom and a.atom in bound:
                out.append((a, b))
        return out

    def _attach(
        self,
        partials: Iterator[dict[str, tuple[Any, Any]]],
        atom_name: str,
        bound: frozenset,
        prefetch: bool = False,
    ) -> Iterator[dict[str, tuple[Any, Any]]]:
        from repro._util import normalize_key

        fn = self.atoms[atom_name]
        connecting = self._edges_between(set(bound), atom_name)

        def side_value(side: JoinSide, binding: dict) -> Any:
            key, value = binding[side.atom]
            return side.eval(key, value)

        if not connecting:
            # cross product (or the very first atom)
            for binding in partials:
                for key, value in _enum_items(fn, prefetch):
                    extended = dict(binding)
                    extended[atom_name] = (key, value)
                    yield extended
            return

        generator, checkers = connecting[0], connecting[1:]
        bound_side, new_side = generator

        probe: dict[Any, list[tuple[Any, Any]]] | None = None
        amap: dict[Any, Any] | None = None
        if not new_side.is_key:
            probe = {}
            for key, value in _enum_items(fn, prefetch):
                try:
                    join_value = new_side.eval(key, value)
                except UndefinedInputError:
                    continue
                probe.setdefault(join_value, []).append((key, value))
            _note_build_rows(sum(len(v) for v in probe.values()))
        elif prefetch and fn.is_enumerable:
            # batched mode: one scan replaces per-binding point probes
            amap = dict(_enum_items(fn, prefetch))
            _note_build_rows(len(amap))

        for binding in partials:
            try:
                needle = side_value(bound_side, binding)
            except UndefinedInputError:
                continue
            if probe is not None:
                candidates = probe.get(needle, [])
            elif amap is not None:
                normalized = normalize_key(needle)
                if normalized not in amap:
                    continue
                candidates = [(needle, amap[normalized])]
            else:
                # FDM fast path: the relation function is its own index
                if not fn.defined_at(needle):
                    continue
                candidates = [(needle, fn(needle))]
            for key, value in candidates:
                ok = True
                for check_bound, check_new in checkers:
                    try:
                        if side_value(check_bound, binding) != check_new.eval(
                            key, value
                        ):
                            ok = False
                            break
                    except UndefinedInputError:
                        ok = False
                        break
                if ok:
                    extended = dict(binding)
                    extended[atom_name] = (key, value)
                    yield extended

    def participating_keys(self) -> dict[str, set]:
        """Per atom, the keys that appear in at least one join result.

        This is the semantic core of both the outer marking (Fig. 7: inner
        = participating, outer = rest) and the ResultDB subdatabase (Fig. 5
        via [35]: the result contains exactly the contributing tuples).
        Bindings come from the batched executor when it is enabled.
        """
        from repro.exec import join_bindings

        used: dict[str, set] = {name: set() for name in self.atoms}
        for binding in join_bindings(self):
            for name, (key, _value) in binding.items():
                used[name].add(key)
        return used


def _note_build_rows(rows: int) -> None:
    """Attribute one hash-build (or prefetch map) size to the active
    resource meter — the memory-shaped cost a row count alone hides."""
    from repro.obs.resources import active_meter

    meter = active_meter()
    if meter is not None:
        meter.join_build_rows += rows


def _enum_items(fn: Any, prefetch: bool) -> Iterator[tuple[Any, Any]]:
    """Enumerate an atom for hash-build/prefetch scans.

    In prefetching (batched) mode a base atom is enumerated through the
    executor too, so a stored or material relation is read off its
    column image rather than key by key.
    """
    from repro.exec.run import route_items

    routed = route_items(fn) if prefetch else None
    return fn.items() if routed is None else routed


@lru_cache(maxsize=1024)
def merged_names(shape: tuple[tuple[str, tuple], ...]) -> tuple:
    """The column names of a merged join row: the naming rule, stated
    once and memoised per shape.

    *shape* lists, per atom in plan order, ``(atom name, names)`` — the
    atom's key label(s), then its attribute names. A name an earlier
    column already took gets a ``<relation>_`` prefix, so a collision is
    disambiguated, never silently overwritten. Every column must be able
    to name a tuple function attribute.
    """
    out: list[Any] = []
    taken: set = set()
    for name, names in shape:
        for attr in names:
            column = f"{name}_{attr}" if attr in taken else attr
            taken.add(column)
            out.append(column)
    check_attributes(out)
    return tuple(out)


def key_columns(name: str, label: Any, key: Any) -> tuple[tuple, tuple]:
    """``(labels, components)`` an atom's key contributes to a merged row:
    a tuple label splits the key, no label names it ``<relation>_key``."""
    if isinstance(label, tuple):
        components = key if isinstance(key, tuple) else (key,)
        n = min(len(label), len(components))
        return label[:n], components[:n]
    return (label if isinstance(label, str) else f"{name}_key",), (key,)


def _merge_binding_into_row(
    binding: dict[str, tuple[Any, Any]],
    atoms: dict[str, FDMFunction],
    order: list[str],
    labels: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Denormalize one binding into a flat attribute dict, named by
    :func:`merged_names`. Keys become attributes named by each relation's
    ``key_name``. A caller merging many bindings passes the ``key_name``
    of each atom once, as *labels*.
    """
    shape: list[tuple[str, tuple]] = []
    values: list[Any] = []
    for name in order:
        key, value = binding[name]
        label = labels[name] if labels else getattr(atoms[name], "key_name", None)
        names, components = key_columns(name, label, key)
        values += components
        if isinstance(value, FDMFunction) and value.is_enumerable:
            attrs = dict(value.items())
            names += tuple(attrs)
            values += attrs.values()
        shape.append((name, names))
    return dict(zip(merged_names(tuple(shape)), values))


class JoinedRelationFunction(DerivedFunction):
    """Fig. 6's output: a single denormalized relation function.

    Keyed by the tuple of participating atom keys (in plan order), so
    point lookups decompose into direct lookups on the joined functions.
    """

    op_name = "join"
    kind = "relation"

    def __init__(self, db: FDMFunction, plan: JoinPlan,
                 name: str | None = None):
        super().__init__((db,), name=name or f"⋈({db.name})")
        self._plan = plan
        self._order = plan.order_atoms()

    @property
    def plan(self) -> JoinPlan:
        return self._plan

    @property
    def atom_order(self) -> list[str]:
        return list(self._order)

    @property
    def domain(self) -> Domain:
        return PredicateDomain(self.defined_at, "join keys")

    @property
    def is_enumerable(self) -> bool:
        return True

    def _binding_for(self, key: Any) -> dict[str, tuple[Any, Any]] | None:
        if not isinstance(key, tuple) or len(key) != len(self._order):
            return None
        binding: dict[str, tuple[Any, Any]] = {}
        for name, atom_key in zip(self._order, key):
            fn = self._plan.atoms[name]
            if not fn.defined_at(atom_key):
                return None
            binding[name] = (atom_key, fn(atom_key))
        # verify every edge holds
        for a, b in self._plan.edges:
            try:
                left = a.eval(*binding[a.atom])
                right = b.eval(*binding[b.atom])
            except UndefinedInputError:
                return None
            if left != right:
                return None
        return binding

    def _apply(self, key: Any) -> Any:
        binding = self._binding_for(key)
        if binding is None:
            raise UndefinedInputError(self._name, key)
        row = _merge_binding_into_row(binding, self._plan.atoms, self._order)
        return TupleFunction(row, name=f"{self._name}{key!r}")

    def defined_at(self, *args: Any) -> bool:
        if not args:
            return False
        key = args[0] if len(args) == 1 else tuple(args)
        return self._binding_for(key) is not None

    def naive_keys(self) -> Iterator[Any]:
        for binding in self._plan.bindings():
            yield tuple(binding[name][0] for name in self._order)

    def naive_items(self) -> Iterator[tuple[Any, Any]]:
        for binding in self._plan.bindings():
            key = tuple(binding[name][0] for name in self._order)
            row = _merge_binding_into_row(
                binding, self._plan.atoms, self._order
            )
            yield key, TupleFunction(row, name=f"{self._name}{key!r}")

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def op_params(self) -> dict[str, Any]:
        return {
            "atoms": self._order,
            "edges": [f"{a!r} = {b!r}" for a, b in self._plan.edges],
        }

    def rebuild(
        self, children: tuple[FDMFunction, ...]
    ) -> "JoinedRelationFunction":
        (db,) = children
        plan = JoinPlan.from_database(db, on=None) if not self._plan.edges else (
            JoinPlan(
                {
                    name: fn
                    for name, fn in db.items()
                    if isinstance(fn, FDMFunction) and fn.is_enumerable
                },
                self._plan.edges,
            )
        )
        return JoinedRelationFunction(db, plan, name=self._name)

    tuples = RelationFunction.tuples
    first = RelationFunction.first
    count = RelationFunction.count
    attributes = RelationFunction.attributes
    to_rows = RelationFunction.to_rows


def join(
    db: FDMFunction,
    on: Sequence[Sequence[Any]] | None = None,
) -> JoinedRelationFunction:
    """Join a subdatabase of n relations into one denormalized relation
    function (Fig. 6). With ``on=None`` the join follows the relationship
    functions in the database ("the foreign key constraints in the
    schema"); otherwise the explicit conditions are used."""
    if not isinstance(db, FDMFunction):
        raise OperatorError(
            f"join() expects a database function, got {db!r}"
        )
    plan = JoinPlan.from_database(db, on=on)
    return JoinedRelationFunction(db, plan)
