"""Typed AST for FQL predicates.

Predicates come from four costumes (Fig. 4a): Python lambdas, Django-style
keyword lookups, broken-up ``(att, op, c)`` triples, and textual predicates
with ``$param`` placeholders. All but the lambda compile into this AST,
which makes them **transparent**: the optimizer can read the attributes they
touch, push them below joins, and convert key-equality into index lookups
(paper §4.2's joint optimization space).

Lambdas are wrapped in :class:`OpaquePredicate` — they still run, but they
fence off optimization, which is exactly the trade-off the paper describes.

Injection safety (paper contribution 10): parameters are *values* attached
to :class:`Param` nodes after parsing. A parameter can never introduce
operators, attribute references, or sub-expressions, because binding
happens on the finished tree — there is no textual substitution anywhere.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from repro.errors import (
    PredicateError,
    UnboundParameterError,
    UnknownAttributeError,
)
from repro.fdm.entry import Entry
from repro.fdm.functions import FDMFunction
from repro.fdm.tuples import TupleFunction

__all__ = [
    "EvalContext",
    "ColumnarPredicate",
    "Expr",
    "AttrRef",
    "KeyRef",
    "Literal",
    "Param",
    "BinOp",
    "UnaryOp",
    "FuncCall",
    "Predicate",
    "Comparison",
    "Membership",
    "Between",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "FalsePredicate",
    "OpaquePredicate",
    "as_predicate",
    "Atom",
    "atom_of",
    "may_hold",
]

#: Marker raised internally when an attribute is undefined in non-strict
#: evaluation; comparisons involving it simply do not hold.
class _Undefined(Exception):
    pass


class EvalContext:
    """Evaluation state: the subject entry plus evaluation options."""

    __slots__ = ("key", "subject", "strict")

    def __init__(self, subject: Any, key: Any = None, strict: bool = False):
        if isinstance(subject, Entry):
            self.key = subject.key
            self.subject = subject.value
        else:
            self.key = key
            self.subject = subject
        self.strict = strict

    def lookup(self, path: tuple[str, ...]) -> Any:
        """Resolve an attribute path against the subject function."""
        value = self.subject
        for attr in path:
            if isinstance(value, FDMFunction):
                try:
                    # a tuple function's value(attr) without the call:
                    # its _apply reads _data, and normalize_key leaves a
                    # str name as it is
                    if isinstance(value, TupleFunction):
                        value = value._data[attr]
                    else:
                        value = value(attr)
                except Exception:
                    if self.strict:
                        raise UnknownAttributeError(".".join(path)) from None
                    raise _Undefined() from None
            elif isinstance(value, Mapping):
                if attr not in value:
                    if self.strict:
                        raise UnknownAttributeError(".".join(path))
                    raise _Undefined()
                value = value[attr]
            else:
                value = getattr(value, attr, _MISSING_ATTR)
                if value is _MISSING_ATTR:
                    if self.strict:
                        raise UnknownAttributeError(".".join(path))
                    raise _Undefined()
        return value


_MISSING_ATTR = object()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for value-producing nodes."""

    def eval(self, ctx: EvalContext) -> Any:
        raise NotImplementedError

    def bind(self, params: Mapping[str, Any]) -> "Expr":
        """Return a copy with ``$param`` nodes replaced by literal values."""
        return self

    def attrs(self) -> set[str]:
        """Top-level attribute names this expression references."""
        return set()

    def param_names(self) -> set[str]:
        return set()

    def to_source(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.to_source()}>"


class AttrRef(Expr):
    """A (possibly nested) attribute reference: ``age`` or ``address.city``."""

    __slots__ = ("path",)

    def __init__(self, *path: str):
        if not path:
            raise PredicateError("empty attribute path")
        self.path = tuple(path)

    def eval(self, ctx: EvalContext) -> Any:
        return ctx.lookup(self.path)

    def attrs(self) -> set[str]:
        return {self.path[0]}

    def to_source(self) -> str:
        return ".".join(self.path)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, AttrRef) and other.path == self.path

    def __hash__(self) -> int:
        return hash(("AttrRef", self.path))


class KeyRef(Expr):
    """The mapping key of the entry under test (``__key__`` in text form).

    Fig. 5 filters a database function by relation *name* — the key — and
    this node is how transparent predicates express that.
    """

    def eval(self, ctx: EvalContext) -> Any:
        return ctx.key

    def to_source(self) -> str:
        return "__key__"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, KeyRef)

    def __hash__(self) -> int:
        return hash("KeyRef")


class Literal(Expr):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def eval(self, ctx: EvalContext) -> Any:
        return self.value

    def to_source(self) -> str:
        return repr(self.value)

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        try:
            return hash(("Literal", self.value))
        except TypeError:
            return hash(("Literal", repr(self.value)))


class Param(Expr):
    """A ``$name`` placeholder; unbound until :meth:`bind` supplies a value.

    The *only* thing binding can do is attach a Python value — the syntax
    tree is already fixed, so a parameter cannot smuggle in structure.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def eval(self, ctx: EvalContext) -> Any:
        raise UnboundParameterError(self.name)

    def bind(self, params: Mapping[str, Any]) -> Expr:
        if self.name in params:
            return Literal(params[self.name])
        return self

    def param_names(self) -> set[str]:
        return {self.name}

    def to_source(self) -> str:
        return f"${self.name}"


_ARITH: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


class BinOp(Expr):
    """Arithmetic between two expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _ARITH:
            raise PredicateError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, ctx: EvalContext) -> Any:
        return _ARITH[self.op](self.left.eval(ctx), self.right.eval(ctx))

    def bind(self, params: Mapping[str, Any]) -> Expr:
        return BinOp(self.op, self.left.bind(params), self.right.bind(params))

    def attrs(self) -> set[str]:
        return self.left.attrs() | self.right.attrs()

    def param_names(self) -> set[str]:
        return self.left.param_names() | self.right.param_names()

    def to_source(self) -> str:
        return f"({self.left.to_source()} {self.op} {self.right.to_source()})"


class UnaryOp(Expr):
    """Unary minus."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def eval(self, ctx: EvalContext) -> Any:
        return -self.operand.eval(ctx)

    def bind(self, params: Mapping[str, Any]) -> Expr:
        return UnaryOp(self.operand.bind(params))

    def attrs(self) -> set[str]:
        return self.operand.attrs()

    def param_names(self) -> set[str]:
        return self.operand.param_names()

    def to_source(self) -> str:
        return f"(-{self.operand.to_source()})"


def _fn_contains(container: Any, item: Any) -> bool:
    return item in container


#: Whitelisted functions callable from textual predicates. A fixed table —
#: not ``eval`` — is part of the injection-impossibility story.
SAFE_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "len": len,
    "abs": abs,
    "min": min,
    "max": max,
    "round": round,
    "lower": lambda s: s.lower(),
    "upper": lambda s: s.upper(),
    "startswith": lambda s, prefix: s.startswith(prefix),
    "endswith": lambda s, suffix: s.endswith(suffix),
    "contains": _fn_contains,
}


class FuncCall(Expr):
    """A call to a whitelisted function: ``lower(name)``."""

    __slots__ = ("fn_name", "args")

    def __init__(self, fn_name: str, args: list[Expr]):
        if fn_name not in SAFE_FUNCTIONS:
            raise PredicateError(
                f"unknown predicate function {fn_name!r}; available: "
                f"{sorted(SAFE_FUNCTIONS)}"
            )
        self.fn_name = fn_name
        self.args = list(args)

    def eval(self, ctx: EvalContext) -> Any:
        return SAFE_FUNCTIONS[self.fn_name](
            *(a.eval(ctx) for a in self.args)
        )

    def bind(self, params: Mapping[str, Any]) -> Expr:
        return FuncCall(self.fn_name, [a.bind(params) for a in self.args])

    def attrs(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.attrs()
        return out

    def param_names(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.param_names()
        return out

    def to_source(self) -> str:
        inner = ", ".join(a.to_source() for a in self.args)
        return f"{self.fn_name}({inner})"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


#: A compiled columnar predicate: ``run(ColumnBatch) -> mask`` where the
#: mask is a list[bool] or numpy bool array over the batch's rows.
#: Produced by :meth:`Predicate.compile_columnar` (``None`` when the
#: predicate shape has no per-column form) and consumed by the columnar
#: filter node (DESIGN.md §13).
ColumnarPredicate = Callable[[Any], Any]


def _atom_mask(
    atom: "Atom | None", negated: bool = False
) -> "ColumnarPredicate | None":
    """The columnar form of one atom (``None`` when there is no atom)."""
    if atom is None:
        return None

    def run(batch: Any) -> Any:
        from repro.exec import kernels

        return kernels.atom_mask(batch, atom, negated)

    return run


#: The one comparison-flip table: ``c <op> x`` reads as ``x <flipped> c``.
_FLIP_OP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Predicate:
    """Base class for boolean-valued nodes; callable on entries/tuples."""

    #: Transparent predicates expose structure to the optimizer.
    is_transparent = True

    def eval(self, ctx: EvalContext) -> bool:
        raise NotImplementedError

    def __call__(self, subject: Any, key: Any = None, strict: bool = False) -> bool:
        try:
            return bool(self.eval(EvalContext(subject, key=key, strict=strict)))
        except _Undefined:
            return False

    def bind(self, params: Mapping[str, Any]) -> "Predicate":
        """A copy with ``$param`` nodes replaced by literal values."""
        return self.map_exprs(lambda expr: expr.bind(params))

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Predicate":
        """A copy with every operand expression *e* replaced by
        ``fn(e)`` (predicates without operands return themselves)."""
        return self

    def select(self, pairs: Any) -> list:
        """The ``(key, value)`` entries of *pairs* where the predicate
        holds, in order — the batched executor's one row loop.

        Each entry is judged exactly as the naive filter's
        ``self(Entry(key, value))`` judges it (an undefined attribute
        does not select, any other error raises), with one
        :class:`EvalContext` per batch instead of per entry.
        """
        ctx = EvalContext(None)
        out = []
        for pair in pairs:
            ctx.key, ctx.subject = pair
            try:
                if self.eval(ctx):
                    out.append(pair)
            except _Undefined:
                pass
        return out

    def compile_columnar(self) -> "ColumnarPredicate | None":
        """Compile into ``run(ColumnBatch) -> mask``, or ``None``.

        Only predicate shapes whose semantics survive whole-column
        evaluation compile: atoms (:func:`atom_of`) and and/or over
        them. ``Not`` deliberately does not — mask negation would turn
        undefined-is-False into undefined-is-True. Callers fall back to
        :meth:`select`, the row loop over :meth:`eval`, on a ``None``.
        """
        return _atom_mask(atom_of(self))

    def attrs(self) -> set[str]:
        return set()

    def param_names(self) -> set[str]:
        return set()

    def references_key(self) -> bool:
        """True if the predicate inspects the mapping key."""
        return any(
            isinstance(e, KeyRef) for e in self._walk_exprs()
        )

    def _walk_exprs(self) -> Iterator[Expr]:
        return iter(())

    def to_source(self) -> str:
        raise NotImplementedError

    # -- combinators ------------------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, as_predicate(other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, as_predicate(other))

    def __invert__(self) -> "Predicate":
        return Not(self)

    def __repr__(self) -> str:
        return f"<Pred {self.to_source()}>"


#: The one comparator table: the row evaluator, the python mask kernels
#: and the SQL compiler's constant folding all read it.
_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Predicate):
    """``left <op> right`` with Python comparison semantics.

    Incomparable operands (``3 < 'x'``) make the comparison *not hold*
    rather than error, consistent with FDM's no-NULL philosophy: an
    impossible comparison simply does not select the tuple.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op == "=":
            op = "=="
        if op == "<>":
            op = "!="
        if op not in _COMPARATORS:
            raise PredicateError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, ctx: EvalContext) -> bool:
        left = self.left.eval(ctx)
        right = self.right.eval(ctx)
        try:
            return _COMPARATORS[self.op](left, right)
        except TypeError:
            if ctx.strict:
                raise
            return False

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Comparison":
        return Comparison(self.op, fn(self.left), fn(self.right))

    def attrs(self) -> set[str]:
        return self.left.attrs() | self.right.attrs()

    def param_names(self) -> set[str]:
        return self.left.param_names() | self.right.param_names()

    def _walk_exprs(self) -> Iterator[Expr]:
        yield self.left
        yield self.right

    def to_source(self) -> str:
        return f"{self.left.to_source()} {self.op} {self.right.to_source()}"


class Membership(Predicate):
    """``expr in collection`` (collection: literal/param list or set)."""

    __slots__ = ("item", "collection", "negated")

    def __init__(self, item: Expr, collection: Expr, negated: bool = False):
        self.item = item
        self.collection = collection
        self.negated = negated

    def eval(self, ctx: EvalContext) -> bool:
        item = self.item.eval(ctx)
        collection = self.collection.eval(ctx)
        try:
            result = item in collection
        except TypeError:
            if ctx.strict:
                raise
            return False
        return (not result) if self.negated else result

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Membership":
        return Membership(fn(self.item), fn(self.collection), self.negated)

    def compile_columnar(self) -> "ColumnarPredicate | None":
        # ``not in`` is no atom, but it keeps a mask of its own: negating
        # the ``in`` mask would also select rows where the item is undefined
        return _atom_mask(
            atom_of(Membership(self.item, self.collection)), self.negated
        )

    def attrs(self) -> set[str]:
        return self.item.attrs() | self.collection.attrs()

    def param_names(self) -> set[str]:
        return self.item.param_names() | self.collection.param_names()

    def _walk_exprs(self) -> Iterator[Expr]:
        yield self.item
        yield self.collection

    def to_source(self) -> str:
        op = "not in" if self.negated else "in"
        return f"{self.item.to_source()} {op} {self.collection.to_source()}"


class Between(Predicate):
    """``lo <= expr <= hi`` — sugar the optimizer maps to range scans."""

    __slots__ = ("item", "lo", "hi")

    def __init__(self, item: Expr, lo: Expr, hi: Expr):
        self.item = item
        self.lo = lo
        self.hi = hi

    def eval(self, ctx: EvalContext) -> bool:
        value = self.item.eval(ctx)
        try:
            return self.lo.eval(ctx) <= value <= self.hi.eval(ctx)
        except TypeError:
            if ctx.strict:
                raise
            return False

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Between":
        return Between(fn(self.item), fn(self.lo), fn(self.hi))

    def attrs(self) -> set[str]:
        return self.item.attrs() | self.lo.attrs() | self.hi.attrs()

    def param_names(self) -> set[str]:
        return (
            self.item.param_names()
            | self.lo.param_names()
            | self.hi.param_names()
        )

    def _walk_exprs(self) -> Iterator[Expr]:
        yield self.item
        yield self.lo
        yield self.hi

    def to_source(self) -> str:
        return (
            f"{self.item.to_source()} between {self.lo.to_source()} and "
            f"{self.hi.to_source()}"
        )


class _Junction(Predicate):
    __slots__ = ("parts",)
    _joiner = ""

    def __init__(self, *parts: Predicate):
        flat: list[Predicate] = []
        for p in parts:
            if isinstance(p, type(self)):
                flat.extend(p.parts)
            else:
                flat.append(p)
        self.parts = tuple(flat)

    @property
    def is_transparent(self) -> bool:  # type: ignore[override]
        return all(p.is_transparent for p in self.parts)

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Predicate":
        return type(self)(*(p.map_exprs(fn) for p in self.parts))

    def attrs(self) -> set[str]:
        out: set[str] = set()
        for p in self.parts:
            out |= p.attrs()
        return out

    def param_names(self) -> set[str]:
        out: set[str] = set()
        for p in self.parts:
            out |= p.param_names()
        return out

    def references_key(self) -> bool:
        return any(p.references_key() for p in self.parts)

    def to_source(self) -> str:
        inner = f" {self._joiner} ".join(p.to_source() for p in self.parts)
        return f"({inner})"


class And(_Junction):
    _joiner = "and"

    def eval(self, ctx: EvalContext) -> bool:
        for p in self.parts:
            try:
                if not p.eval(ctx):
                    return False
            except _Undefined:
                return False
        return True

    def compile_columnar(self) -> "ColumnarPredicate | None":
        compiled = [p.compile_columnar() for p in self.parts]
        if not compiled or any(c is None for c in compiled):
            return None if compiled else (lambda batch: [True] * len(batch))

        # Full-batch masks, no short-circuit: the parts are pure
        # column-vs-literal tests, so evaluating a later conjunct on rows
        # an earlier one rejected cannot change the result (or error).
        def run(batch: Any) -> Any:
            from repro.exec import kernels

            return kernels.and_masks([c(batch) for c in compiled])

        return run


class Or(_Junction):
    _joiner = "or"

    def eval(self, ctx: EvalContext) -> bool:
        for p in self.parts:
            try:
                if p.eval(ctx):
                    return True
            except _Undefined:
                continue
        return False

    def compile_columnar(self) -> "ColumnarPredicate | None":
        compiled = [p.compile_columnar() for p in self.parts]
        if not compiled or any(c is None for c in compiled):
            return None if compiled else (lambda batch: [False] * len(batch))

        def run(batch: Any) -> Any:
            from repro.exec import kernels

            return kernels.or_masks([c(batch) for c in compiled])

        return run


class Not(Predicate):
    __slots__ = ("operand",)

    def __init__(self, operand: Predicate):
        self.operand = operand

    @property
    def is_transparent(self) -> bool:  # type: ignore[override]
        return self.operand.is_transparent

    def eval(self, ctx: EvalContext) -> bool:
        try:
            return not self.operand.eval(ctx)
        except _Undefined:
            # NOT over an undefined attribute still cannot assert anything
            # about the tuple; it does not select it.
            return False

    def map_exprs(self, fn: Callable[[Expr], Expr]) -> "Not":
        return Not(self.operand.map_exprs(fn))

    def attrs(self) -> set[str]:
        return self.operand.attrs()

    def param_names(self) -> set[str]:
        return self.operand.param_names()

    def references_key(self) -> bool:
        return self.operand.references_key()

    def to_source(self) -> str:
        return f"(not {self.operand.to_source()})"


class TruePredicate(Predicate):
    def eval(self, ctx: EvalContext) -> bool:
        return True

    def compile_columnar(self) -> "ColumnarPredicate | None":
        return lambda batch: [True] * len(batch)

    def to_source(self) -> str:
        return "true"


class FalsePredicate(Predicate):
    def eval(self, ctx: EvalContext) -> bool:
        return False

    def compile_columnar(self) -> "ColumnarPredicate | None":
        return lambda batch: [False] * len(batch)

    def to_source(self) -> str:
        return "false"


class OpaquePredicate(Predicate):
    """A predicate carried by an arbitrary Python callable.

    It evaluates fine, but the optimizer cannot look inside: no attribute
    set, no pushdown past operators that change the binding shape, no index
    conversion. This is the measured cost of the lambda costume (bench S1).
    """

    is_transparent = False

    def __init__(self, fn: Callable[..., Any], description: str | None = None):
        self.fn = fn
        self.description = description or getattr(fn, "__name__", "<lambda>")

    def eval(self, ctx: EvalContext) -> bool:
        return bool(self.fn(Entry(ctx.key, ctx.subject)))

    def to_source(self) -> str:
        return f"<python {self.description}>"


# ---------------------------------------------------------------------------
# Reading a predicate: atoms and the may-walk
# ---------------------------------------------------------------------------


class Atom(NamedTuple):
    """A column–literal test in normal form: ``column <op> value``.

    *column* names a single-step attribute, or is ``None`` for the
    mapping key (the convention partition schemes use). *op* is one of
    ``== != < <= > >= in between``; ``in`` carries the collection and
    ``between`` a ``(lo, hi)`` pair.
    """

    column: str | None
    op: str
    value: Any


#: Collections whose ``in`` is element membership (on a string it is
#: substring matching, which no per-value analysis can read).
_COLLECTIONS = (list, tuple, set, frozenset)


def atom_of(pred: Predicate) -> Atom | None:
    """*pred* as one :class:`Atom`, or ``None`` when it is not one.

    The one reading of a column–literal predicate that zone skipping,
    partition pruning, cardinality estimates, index rules and the
    columnar kernels share: a literal on the left is flipped to the
    right, ``in`` counts only over a list/tuple/set/frozenset, and
    negated ``in``, nested paths, arithmetic and non-literal operands
    are not atoms.
    """
    if isinstance(pred, Comparison):
        item, op, literals = pred.left, pred.op, (pred.right,)
        if isinstance(item, Literal):
            item, op, literals = pred.right, _FLIP_OP[op], (pred.left,)
    elif isinstance(pred, Membership) and not pred.negated:
        item, op, literals = pred.item, "in", (pred.collection,)
    elif isinstance(pred, Between):
        item, op, literals = pred.item, "between", (pred.lo, pred.hi)
    else:
        return None
    if isinstance(item, KeyRef):
        column = None
    elif isinstance(item, AttrRef) and len(item.path) == 1:
        column = item.path[0]
    else:
        return None
    if not all(isinstance(lit, Literal) for lit in literals):
        return None
    values = tuple(lit.value for lit in literals)
    if op == "between":
        return Atom(column, op, values)
    if op == "in" and not isinstance(values[0], _COLLECTIONS):
        return None
    return Atom(column, op, values[0])


def may_hold(pred: Predicate, test: Callable[[Atom], bool]) -> bool:
    """May some row satisfy *pred*, given *test* — may some row satisfy
    one atom?

    The one may-walk: ``and`` needs every part, ``or`` any part,
    ``false`` never holds, and anything that is not an atom (``not``,
    opaque callables, arithmetic) may hold. ``False`` therefore proves
    that no row satisfies *pred* wherever *test* is sound.
    """
    if isinstance(pred, And):
        return all(may_hold(part, test) for part in pred.parts)
    if isinstance(pred, Or):
        return any(may_hold(part, test) for part in pred.parts)
    if isinstance(pred, FalsePredicate):
        return False
    atom = atom_of(pred)
    return atom is None or test(atom)


def as_predicate(obj: Any) -> Predicate:
    """Coerce *obj* into a :class:`Predicate`.

    Accepts a Predicate (returned as-is), a Python callable (wrapped
    opaquely), a bool, or textual source (parsed — import cycle avoided by
    a local import).
    """
    if isinstance(obj, Predicate):
        return obj
    if isinstance(obj, bool):
        return TruePredicate() if obj else FalsePredicate()
    if isinstance(obj, str):
        from repro.predicates.parser import parse_predicate

        return parse_predicate(obj)
    if callable(obj):
        return OpaquePredicate(obj)
    raise PredicateError(f"cannot interpret {obj!r} as a predicate")
