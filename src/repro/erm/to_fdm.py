"""Compile an ER model directly into FDM functions (Fig. 1, bottom half).

Deshpande [16] argues the DBMS should accept the ER abstraction directly
instead of forcing a hand-translated relational schema; the paper goes one
step further and compiles ERM into FDM:

* entity → relation function keyed by the entity key ("the keys cid and
  pid are not part of the returned attributes"),
* relationship → relationship function whose participants *are* the entity
  relation functions, so foreign keys fall out of shared domains (§3),
* ONE-cardinality roles become uniqueness checks on assertion.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import ConstraintViolationError, ERMValidationError
from repro.fdm.databases import MaterialDatabaseFunction, database
from repro.fdm.relations import relation_from_rows
from repro.fdm.relationships import Participant, RelationshipFunction
from repro.erm.model import ERModel, MANY, ONE, Relationship

__all__ = ["compile_to_fdm", "CardinalityCheckedRelationship"]


class CardinalityCheckedRelationship(RelationshipFunction):
    """A relationship function that also enforces ONE-role cardinalities.

    A role with cardinality ONE may pair each counterpart combination with
    at most one value in that position: asserting a second mapping that
    differs only in a ONE role raises (the FDM form of "a customer has one
    address").
    """

    def __init__(self, *args: Any, one_positions: tuple[int, ...] = (),
                 **kwargs: Any):
        self._one_positions = tuple(one_positions)
        super().__init__(*args, **kwargs)

    def __setitem__(self, key: Any, value: Any) -> None:
        key = self._checked_key(key)
        normalized = key if self.arity > 1 else (key,)
        for position in self._one_positions:
            rest = tuple(
                c for i, c in enumerate(normalized) if i != position
            )
            for existing in self.keys():
                existing_t = (
                    existing if isinstance(existing, tuple) else (existing,)
                )
                existing_rest = tuple(
                    c for i, c in enumerate(existing_t) if i != position
                )
                if (
                    existing_rest == rest
                    and existing_t[position] != normalized[position]
                ):
                    raise ConstraintViolationError(
                        f"{self.fn_name!r}: role at position {position} has "
                        f"cardinality 1; {rest!r} is already related to "
                        f"{existing_t[position]!r}"
                    )
        super().__setitem__(key, value)


def _build_relationship(
    rel: Relationship,
    participants: list[Participant],
) -> RelationshipFunction:
    one_positions = tuple(
        i for i, role in enumerate(rel.roles) if role.cardinality == ONE
    )
    if one_positions:
        return CardinalityCheckedRelationship(
            participants, name=rel.name, one_positions=one_positions
        )
    return RelationshipFunction(participants, name=rel.name)


def compile_to_fdm(
    model: ERModel,
    data: Mapping[str, Iterable[Any]] | None = None,
) -> MaterialDatabaseFunction:
    """Compile *model* (plus optional instance data) to a database function.

    ``data`` maps entity names to row dicts (key attributes included; they
    move into the function input) and relationship names to either
    ``{key_tuple: attrs}`` mappings or iterables of ``(key_tuple, attrs)``.
    """
    model.validate()
    data = dict(data or {})
    db = database(name=model.name)

    for entity in model.entities:
        rows = list(data.get(entity.name, ()))
        for row in rows:
            entity.validate_row(row)
        db[entity.name] = relation_from_rows(
            rows, key=entity.key, name=entity.name
        )

    for rel in model.relationships:
        participants = [
            Participant(role.name, db(role.entity)) for role in rel.roles
        ]
        rf = _build_relationship(rel, participants)
        payload = data.get(rel.name, ())
        items: Iterable[tuple[Any, Any]]
        if isinstance(payload, Mapping):
            items = payload.items()
        else:
            items = payload
        for key, attrs in items:
            for attr in rel.attributes:
                if attr.required and attr.name not in attrs:
                    raise ERMValidationError(
                        f"relationship {rel.name!r}: mapping {key!r} misses "
                        f"required attribute {attr.name!r}"
                    )
            rf[key] = attrs
        db[rel.name] = rf
    return db
