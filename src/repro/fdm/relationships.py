"""Relationship functions and relationship predicates (paper §3).

Definition 3: given k functions F1..Fk with domains X1..Xk, a relationship
among them is a function ``RF(X1, ..., Xk) -> Y``. When Y is bool, RF is a
*relationship predicate*.

The crucial FDM trick is **foreign keys as shared domains**: the ``cid``
position of ``order(cid, pid)`` uses the *domain of the customers relation
function itself*, so inserting an order with an unknown customer fails the
domain check — "we enforce these constraints as a side effect by simply
making functions share the same domains". Because participants can be *any*
FDM functions, a relationship can connect a database with a relation
(Fig. 3), two attributes, or entire databases — things ER and relational
modeling cannot express directly.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro._util import normalize_key
from repro.errors import ConstraintViolationError, UndefinedInputError
from repro.fdm.domains import Domain, as_domain
from repro.fdm.functions import FDMFunction
from repro.fdm.relations import MaterialRelationFunction

__all__ = [
    "Participant",
    "RelationshipSurface",
    "RelationshipFunction",
    "relationship",
    "relationship_predicate",
]


class Participant:
    """One leg of a relationship: a parameter name plus what constrains it.

    The constraint may be a :class:`Domain` or — the interesting case — an
    FDM *function*, whose (live) domain then constrains this position. The
    latter is the shared-domain foreign key of §3.
    """

    __slots__ = ("param", "target")

    def __init__(self, param: str, target: Any):
        self.param = param
        self.target = target

    @property
    def domain(self) -> Domain:
        if isinstance(self.target, FDMFunction):
            return self.target.domain
        return as_domain(self.target)

    @property
    def function(self) -> FDMFunction | None:
        """The participating function, if the constraint is one."""
        return self.target if isinstance(self.target, FDMFunction) else None

    def __repr__(self) -> str:
        target = (
            self.target.name
            if isinstance(self.target, FDMFunction)
            else repr(self.target)
        )
        return f"{self.param}:{target}"


class RelationshipSurface:
    """What both relationship carriers share (§3): the participants, the
    shared-domain key check every write passes, and navigation by
    participant. :class:`RelationshipFunction` is the free-standing
    carrier; :class:`repro.storage.relation.StoredRelationshipFunction`
    the stored one."""

    kind = "relationship"

    def _take_participants(self, participants: Any, enforce: bool) -> None:
        if isinstance(participants, Mapping):
            participants = list(participants.items())
        self._participants = tuple(
            p if isinstance(p, Participant) else Participant(*p)
            for p in participants
        )
        if not self._participants:
            raise ConstraintViolationError(
                "a relationship needs at least one participant"
            )
        self._enforce = enforce

    @property
    def participants(self) -> tuple[Participant, ...]:
        return self._participants

    @property
    def arity(self) -> int:
        return len(self._participants)

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.param for p in self._participants)

    def _checked_key(self, key: Any) -> Any:
        """*key* as the relationship stores it, checked: normalized, of
        its arity, and — when enforced — each component inside its
        participant's shared domain."""
        key = normalize_key(key)
        if self.arity == 1:
            components = (key,)
        elif not isinstance(key, tuple) or len(key) != self.arity:
            raise ConstraintViolationError(
                f"relationship {self.fn_name!r} expects {self.arity} "
                f"inputs, got {key!r}"
            )
        else:
            components = key
        if self._enforce:
            for part, component in zip(self._participants, components):
                if not part.domain.contains(component):
                    raise ConstraintViolationError(
                        f"{self.fn_name!r}: input {component!r} for "
                        f"{part.param!r} is outside the shared domain of "
                        f"{part!r} — the FDM form of a foreign key violation"
                    )
        return key

    def partners_of(self, param: str, value: Any) -> Iterator[tuple]:
        """Keys of asserted mappings whose *param* component equals *value*.

        This is the navigation primitive joins compile to: e.g.
        ``order.partners_of('cid', 7)`` yields the (cid, pid) keys of
        customer 7's orders.
        """
        names = self.param_names()
        try:
            index = names.index(param)
        except ValueError:
            raise ConstraintViolationError(
                f"{self.fn_name!r} has no participant named {param!r}; "
                f"participants are {names}"
            ) from None
        for key in self.keys():
            components = key if isinstance(key, tuple) else (key,)
            if components[index] == value:
                yield components


class RelationshipFunction(RelationshipSurface, MaterialRelationFunction):
    """A free-standing k-ary relationship function.

    Keys are k-tuples over the participants' (live) domains; values are the
    relationship's own attributes (``order`` carries ``date``), any nested
    FDM function, or — for predicates — simply ``True``.

    With ``predicate=True`` the function is *total* over its product
    domain: inputs that were never asserted return ``False`` instead of
    being undefined, matching Definition 3's "indicating whether a
    relationship exists ... for a given input".
    """

    def __init__(
        self,
        participants: Iterable[Participant | tuple[str, Any]] | Mapping[str, Any],
        mappings: Mapping[Any, Any] | None = None,
        name: str | None = None,
        predicate: bool = False,
        enforce: bool = True,
    ):
        self._take_participants(participants, enforce)
        self._predicate = predicate
        super().__init__(name=name or "RF", key_name=self.param_names())
        if mappings:
            for key, value in mappings.items():
                self[key] = value

    @property
    def is_predicate(self) -> bool:
        return self._predicate

    # -- application -------------------------------------------------------------

    def _apply(self, key: Any) -> Any:
        try:
            return super()._apply(key)
        except UndefinedInputError:
            if not self._predicate:
                raise
        # Total over the product domain: unasserted pairs are False.
        probe = key if self.arity > 1 else (key,)
        if isinstance(probe, tuple) and len(probe) == self.arity and all(
            p.domain.contains(c) for p, c in zip(self._participants, probe)
        ):
            return False
        raise UndefinedInputError(self._name, key)

    def related(self, *key: Any) -> bool:
        """True if the relationship holds for the given inputs."""
        k = normalize_key(key[0] if len(key) == 1 else tuple(key))
        if self._predicate:
            try:
                return bool(self._apply(k))
            except UndefinedInputError:
                return False
        return self.defined_at(k)

    # -- mutation with shared-domain enforcement ------------------------------------

    def __setitem__(self, key: Any, value: Any) -> None:
        key = self._checked_key(key)
        if self._predicate and not isinstance(value, (Mapping, FDMFunction)):
            # predicates store a bare bool, which _apply returns as is
            self._write_row(key, bool(value))
            return
        super().__setitem__(key, value)

    def assert_related(self, *key: Any, **attrs: Any) -> None:
        """Assert the relationship for *key*, with optional attributes."""
        k = key[0] if len(key) == 1 else tuple(key)
        self[k] = attrs if attrs or not self._predicate else True

    def __repr__(self) -> str:
        sig = ", ".join(repr(p) for p in self._participants)
        tag = "predicate " if self._predicate else ""
        return f"<{tag}RF {self._name!r}({sig}): {len(self)} asserted>"


def relationship(
    name: str,
    participants: Mapping[str, Any],
    mappings: Mapping[Any, Any] | None = None,
    enforce: bool = True,
) -> RelationshipFunction:
    """Build a relationship function: ``relationship('order', {'cid':
    customers, 'pid': products}, {(1, 2): {'date': '2026-01-05'}})``."""
    return RelationshipFunction(
        participants, mappings, name=name, predicate=False, enforce=enforce
    )


def relationship_predicate(
    name: str,
    participants: Mapping[str, Any],
    asserted: Iterable[Any] = (),
    enforce: bool = True,
) -> RelationshipFunction:
    """Build a relationship predicate; *asserted* inputs map to True."""
    rf = RelationshipFunction(
        participants, name=name, predicate=True, enforce=enforce
    )
    for key in asserted:
        rf.assert_related(key)
    return rf
