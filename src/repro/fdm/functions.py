"""The core abstraction of the FDM: *everything is a function*.

Paper §2.2: "we model everything as a function — including tuples,
relations, databases, and sets of databases". This module defines the
abstract :class:`FDMFunction` all levels share, the generic
:class:`LambdaFunction` for computed data, the :class:`DerivedFunction`
base that FQL operators return (a derived function *is* its own logical
plan node — see DESIGN.md §5), and extensional equality.

Every concrete function level (tuples, relations, databases, relationships)
lives in a sibling module but inherits the exact same interface, which is
what "tearing down the boundaries" (paper contribution 2) means in code:
one set of query-language constructs works at every level.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

from repro._util import MISSING, freeze, normalize_key, short_repr
from repro.errors import (
    NotEnumerableError,
    ReadOnlyFunctionError,
    UndefinedInputError,
)
from repro.fdm.domains import ANY, Domain, ProductDomain, as_domain

__all__ = [
    "FDMFunction",
    "LambdaFunction",
    "FallbackFunction",
    "DerivedFunction",
    "extensionally_equal",
    "values_equal",
    "freeze_function",
]


class FDMFunction:
    """A function in the sense of paper Definition 1.

    Concrete subclasses assign each element of the *domain* exactly one
    element of the *codomain*. The interface deliberately looks like both a
    Python callable and a mapping, because FDM erases the difference:

    * ``f(x)`` — apply the function (the fundamental operation).
    * ``f[x]`` — same thing, mapping spelling.
    * ``f.x`` — same thing for identifier-shaped string inputs
      (the "dot syntax" costume of Fig. 4a).
    * iteration / ``len`` / ``items()`` — enumerate the mappings, available
      only when the domain is enumerable.

    Mutating entry points (``f[x] = v``, ``del f[x]``, ``f.add(v)``) raise
    :class:`ReadOnlyFunctionError` here; stored functions override them
    (Fig. 10 costumes).
    """

    #: A coarse classification used for reprs and operator dispatch. It is
    #: a *hint*, not a type wall — the paper's level-blurring (§2.6) means
    #: any kind can appear anywhere.
    kind = "function"

    _INTERNAL_ATTRS = frozenset(
        {"name", "domain", "codomain", "kind", "children"}
    )

    def __init__(
        self,
        name: str | None = None,
        domain: Any = None,
        codomain: Any = None,
    ):
        self._name = name if name is not None else type(self).__name__
        self._domain = as_domain(domain)
        self._codomain = as_domain(codomain)

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def fn_name(self) -> str:
        """The function's label. Unlike :attr:`name`, this is never shadowed
        by a data attribute called ``'name'`` (tuple functions prefer their
        data for ``.name``, because the paper's running example does)."""
        return self._name

    @property
    def domain(self) -> Domain:
        return self._domain

    @property
    def codomain(self) -> Domain:
        return self._codomain

    # -- application ----------------------------------------------------------

    def _apply(self, key: Any) -> Any:
        """Map one normalized input to its output.

        Subclasses must raise :class:`UndefinedInputError` for inputs the
        function does not map.
        """
        raise NotImplementedError

    def __call__(self, *args: Any) -> Any:
        if not args:
            raise TypeError(
                f"function {self.name!r} requires at least one input"
            )
        key = args[0] if len(args) == 1 else tuple(args)
        return self._apply(normalize_key(key))

    def __getitem__(self, key: Any) -> Any:
        return self._apply(normalize_key(key))

    def __getattr__(self, name: str) -> Any:
        # Fallback only: real attributes and methods win. Underscore names
        # are never treated as data, which keeps dunder protocol lookups
        # (copy, pickle, ...) honest.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self._apply(name)
        except UndefinedInputError:
            raise AttributeError(
                f"{type(self).__name__} {self._name!r} has no attribute or "
                f"mapping {name!r}"
            ) from None

    def __setattr__(self, name: str, value: Any) -> None:
        # Public, non-class attribute names are *data assignments*:
        # ``DB.customers = f`` (Fig. 5, §4.4) routes through ``__setitem__``,
        # which read-only functions reject. Internal state uses underscore
        # names; class-level attributes (``kind`` etc.) behave normally.
        if name.startswith("_") or hasattr(type(self), name):
            object.__setattr__(self, name, value)
        else:
            self[name] = value

    def __delattr__(self, name: str) -> None:
        if name.startswith("_") or hasattr(type(self), name):
            object.__delattr__(self, name)
        else:
            del self[name]

    def get(self, key: Any, default: Any = None) -> Any:
        """Apply the function, returning *default* where it is undefined."""
        try:
            return self._apply(normalize_key(key))
        except UndefinedInputError:
            return default

    def defined_at(self, *args: Any) -> bool:
        """True if the function maps the given input (paper: the tuple
        'exists')."""
        if not args:
            return False
        key = args[0] if len(args) == 1 else tuple(args)
        return self.domain.contains(normalize_key(key))

    # -- enumeration -----------------------------------------------------------

    @property
    def is_enumerable(self) -> bool:
        return self.domain.is_enumerable

    def keys(self) -> Iterator[Any]:
        """Iterate the domain members (the inputs the function maps)."""
        if not self.domain.is_enumerable:
            raise NotEnumerableError(
                f"function {self.name!r} has a non-enumerable domain "
                f"{self.domain!r}; it can be applied pointwise or "
                "constrained, but not scanned"
            )
        return self.domain.iter_values()

    def items(self) -> Iterator[tuple[Any, Any]]:
        for key in self.keys():
            yield key, self._apply(key)

    def values(self) -> Iterator[Any]:
        for key in self.keys():
            yield self._apply(key)

    def iter_batches(self, batch_size: int = 256) -> Iterator[list]:
        """Enumerate mappings in chunks: lists of ``(key, value)`` pairs.

        The feeding end of the physical execution layer (DESIGN.md §6).
        Stored and material relations override this with direct chunked
        access to their row storage.
        """
        from repro._util import chunked

        return chunked(self.items(), batch_size)

    def __iter__(self) -> Iterator[Any]:
        return self.keys()

    def __len__(self) -> int:
        size = self.domain.size()
        if size == float("inf"):
            raise NotEnumerableError(
                f"function {self.name!r} has unbounded size"
            )
        return int(size)

    def __contains__(self, key: Any) -> bool:
        return self.defined_at(key)

    def as_dict(self, deep: bool = False) -> dict[Any, Any]:
        """Materialize the mappings into a plain dict.

        With ``deep=True``, nested FDM functions are materialized
        recursively — useful for snapshots and test assertions.
        """
        out: dict[Any, Any] = {}
        for key, value in self.items():
            if deep and isinstance(value, FDMFunction) and value.is_enumerable:
                value = value.as_dict(deep=True)
            out[key] = value
        return out

    # -- mutation (read-only by default) ----------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        raise ReadOnlyFunctionError(
            f"{type(self).__name__} {self.name!r} is read-only; materialize "
            "it with copy() or assign into a stored database function"
        )

    def __delitem__(self, key: Any) -> None:
        raise ReadOnlyFunctionError(
            f"{type(self).__name__} {self.name!r} is read-only"
        )

    def add(self, value: Any) -> Any:
        raise ReadOnlyFunctionError(
            f"{type(self).__name__} {self.name!r} is read-only"
        )

    # -- plan-graph protocol -----------------------------------------------------

    @property
    def children(self) -> tuple["FDMFunction", ...]:
        """Input functions this function was derived from (empty for base
        data)."""
        return ()

    def op_params(self) -> dict[str, Any]:
        """Operator parameters, for optimizer pattern matching and explain."""
        return {}

    def rebuild(self, children: tuple["FDMFunction", ...]) -> "FDMFunction":
        """Reconstruct this function over new children (optimizer rewrites)."""
        if children:
            raise TypeError(
                f"{type(self).__name__} is a leaf and takes no children"
            )
        return self

    # -- misc ---------------------------------------------------------------------

    def describe(self) -> str:
        """One-line human description."""
        size = len(self) if self.is_enumerable else float("inf")
        extent = f"{int(size)} mappings" if size != float("inf") else "data space"
        return f"{self.kind} function {self.name!r} ({extent})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._name!r}>"

    # Identity semantics by default; value semantics where a subclass
    # (notably tuple functions) opts in.
    __hash__ = object.__hash__


class LambdaFunction(FDMFunction):
    """A computed FDM function wrapping an arbitrary Python callable.

    This is the paper's ``λ`` construct (§2.4 *Computed Relations*): data
    that is computed is indistinguishable from data that is stored. The
    callable receives the normalized input; for product domains it receives
    the components unpacked, matching ``order(cid, pid)`` style calls.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        domain: Any = None,
        codomain: Any = None,
        name: str | None = None,
        kind: str = "function",
    ):
        super().__init__(
            name=name or getattr(fn, "__name__", "λ"),
            domain=domain,
            codomain=codomain,
        )
        self._fn = fn
        self.kind = kind

    def _apply(self, key: Any) -> Any:
        if not self._domain.contains(key):
            raise UndefinedInputError(self._name, key)
        if isinstance(self._domain, ProductDomain) and isinstance(key, tuple):
            return self._fn(*key)
        return self._fn(key)


class FallbackFunction(FDMFunction):
    """Primary function with a computed fallback for undefined inputs.

    Models the paper's ``R4``: stored tuples where they exist, a λ-tuple
    otherwise. The composite domain is the union of both domains, so
    ``R4(10)('foo') == 420`` while ``R4(3)('foo') == 25``.
    """

    def __init__(
        self,
        primary: FDMFunction,
        fallback: FDMFunction,
        name: str | None = None,
    ):
        super().__init__(
            name=name or f"{primary.name}∪λ",
            domain=primary.domain | fallback.domain,
            codomain=primary.codomain | fallback.codomain,
        )
        self._primary = primary
        self._fallback = fallback
        self.kind = primary.kind

    @property
    def primary(self) -> FDMFunction:
        return self._primary

    @property
    def fallback(self) -> FDMFunction:
        return self._fallback

    def _apply(self, key: Any) -> Any:
        try:
            return self._primary._apply(key)
        except UndefinedInputError:
            return self._fallback._apply(key)

    def defined_at(self, *args: Any) -> bool:
        return self._primary.defined_at(*args) or self._fallback.defined_at(
            *args
        )

    @property
    def children(self) -> tuple[FDMFunction, ...]:
        return (self._primary, self._fallback)

    def rebuild(self, children: tuple[FDMFunction, ...]) -> "FallbackFunction":
        primary, fallback = children
        return FallbackFunction(primary, fallback, name=self._name)


class DerivedFunction(FDMFunction):
    """Base class for functions produced by FQL operators.

    A derived function both *evaluates* (its ``_apply``/``naive_keys`` is
    the per-key interpretation) and *describes* (``op_name``/``children``/
    ``op_params`` form the logical plan the optimizer rewrites and the
    executor lowers — DESIGN.md §5/§6). Enumeration routes through the
    batched physical executor by default; ``REPRO_EXEC=naive`` restores
    the per-key path. Operator subclasses implement ``naive_keys`` (and
    ``naive_items`` where they have a specialized enumeration); operators
    the executor does not lower may keep overriding ``keys``/``items``
    directly, which bypasses routing entirely. Derived functions are
    read-only views; materialize with :func:`repro.fql.copy`.
    """

    #: Operator identifier for the optimizer, e.g. ``"filter"``.
    op_name = "derived"

    def __init__(
        self,
        sources: tuple[FDMFunction, ...],
        name: str | None = None,
        domain: Any = None,
        codomain: Any = None,
    ):
        super().__init__(name=name, domain=domain, codomain=codomain)
        self._sources = tuple(sources)

    @property
    def children(self) -> tuple[FDMFunction, ...]:
        return self._sources

    @property
    def source(self) -> FDMFunction:
        """The single input for unary operators."""
        if len(self._sources) != 1:
            raise TypeError(
                f"{type(self).__name__} has {len(self._sources)} inputs"
            )
        return self._sources[0]

    @property
    def key_name(self) -> Any:
        """Key label forwarded from the (single) source.

        Key-preserving operators (filter, restrict, map, order, limit)
        keep the source's key meaning, which implicit join-edge
        resolution relies on. Operators that change the key space
        override this.
        """
        if len(self._sources) == 1:
            try:
                return getattr(self._sources[0], "key_name", None)
            except KeyError:
                # database-kind sources answer attribute probes through
                # their mapping (__getattr__) and may raise undefined-
                # input errors instead of AttributeError
                return None
        return None

    # -- enumeration: route through the physical executor ---------------------

    def keys(self) -> Iterator[Any]:
        from repro.exec import route_keys

        routed = route_keys(self)
        if routed is not None:
            return routed
        return self.naive_keys()

    def items(self) -> Iterator[tuple[Any, Any]]:
        from repro.exec import route_items

        routed = route_items(self)
        if routed is not None:
            return routed
        return self.naive_items()

    def values(self) -> Iterator[Any]:
        return (value for _key, value in self.items())

    def naive_keys(self) -> Iterator[Any]:
        """The per-key enumeration (pre-executor semantics).

        Operator subclasses rename their historical ``keys`` to this; a
        subclass that still overrides ``keys`` directly (bypassing the
        router) is delegated to, so unrouted operators are unaffected.
        """
        cls_keys = type(self).keys
        if cls_keys is not DerivedFunction.keys:
            return cls_keys(self)
        return FDMFunction.keys(self)

    def naive_items(self) -> Iterator[tuple[Any, Any]]:
        """Per-key (key, value) enumeration (pre-executor semantics)."""
        cls_items = type(self).items
        if cls_items not in (DerivedFunction.items, FDMFunction.items):
            return cls_items(self)
        return ((key, self._apply(key)) for key in self.naive_keys())

    def explain(self, indent: int = 0) -> str:
        """Render the operator tree under this function."""
        pad = "  " * indent
        params = ", ".join(
            f"{k}={short_repr(v)}" for k, v in self.op_params().items()
        )
        line = f"{pad}{self.op_name}({params})"
        parts = [line]
        for child in self.children:
            if isinstance(child, DerivedFunction):
                parts.append(child.explain(indent + 1))
            else:
                parts.append(
                    "  " * (indent + 1)
                    + f"scan {child.name!r} [{child.kind}]"
                )
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Extensional equality
# ---------------------------------------------------------------------------


def values_equal(a: Any, b: Any) -> bool:
    """Equality that treats enumerable FDM functions extensionally."""
    a_fn = isinstance(a, FDMFunction)
    b_fn = isinstance(b, FDMFunction)
    if a_fn and b_fn:
        return extensionally_equal(a, b)
    if a_fn or b_fn:
        return False
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def extensionally_equal(f: FDMFunction, g: FDMFunction) -> bool:
    """True if *f* and *g* map the same inputs to equal outputs.

    Non-enumerable functions compare by identity (their graphs cannot be
    inspected), which mirrors the mathematical situation: two intensional
    definitions may or may not denote the same function, and deciding that
    is undecidable in general.
    """
    if f is g:
        return True
    if not (f.is_enumerable and g.is_enumerable):
        return False
    f_keys = set(f.keys())
    g_keys = set(g.keys())
    if f_keys != g_keys:
        return False
    for key in f_keys:
        if not values_equal(f._apply(key), g._apply(key)):
            return False
    return True


def freeze_function(f: FDMFunction) -> Any:
    """A hashable token of an enumerable function's full extension.

    Used to put tuple functions into sets (duplicate-aware alternative
    views, set operations) and to compare databases cheaply.
    """
    if not f.is_enumerable:
        return ("id", id(f))
    items = []
    for key, value in f.items():
        if isinstance(value, FDMFunction):
            items.append((freeze(key), freeze_function(value)))
        else:
            items.append((freeze(key), freeze(value)))
    return ("fn", frozenset(items))
