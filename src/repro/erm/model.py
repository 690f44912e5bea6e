"""The entity-relationship model (Chen [11]; elevated per Deshpande [16]).

The paper's Fig. 1 contrasts an ER diagram with its FDM rendering; to
reproduce both sides we need ERM as a first-class object model: entities
with attributes and keys, relationships with role cardinalities, and
validation. Compilers to FDM (:mod:`repro.erm.to_fdm`) and to the
relational model (:mod:`repro.erm.to_rm`) complete the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.errors import ERMValidationError

__all__ = ["Attribute", "Entity", "Role", "Relationship", "ERModel",
           "ONE", "MANY"]

ONE = "1"
MANY = "N"


@dataclass(frozen=True)
class Attribute:
    """One attribute of an entity or relationship."""

    name: str
    type: type | None = None
    required: bool = True

    def accepts(self, value: Any) -> bool:
        if self.type is None:
            return True
        if self.type is float:
            return isinstance(value, (int, float)) and not isinstance(
                value, bool
            )
        if self.type is int:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, self.type)


@dataclass
class Entity:
    """An entity type: attributes plus a key."""

    name: str
    attributes: list[Attribute]
    key: str | tuple[str, ...]

    def key_attrs(self) -> tuple[str, ...]:
        return (self.key,) if isinstance(self.key, str) else tuple(self.key)

    def attr(self, name: str) -> Attribute | None:
        for a in self.attributes:
            if a.name == name:
                return a
        return None

    def validate_row(self, row: dict[str, Any]) -> None:
        for a in self.attributes:
            if a.name not in row:
                if a.required:
                    raise ERMValidationError(
                        f"entity {self.name!r}: row {row!r} misses required "
                        f"attribute {a.name!r}"
                    )
                continue
            if not a.accepts(row[a.name]):
                raise ERMValidationError(
                    f"entity {self.name!r}: attribute {a.name!r} rejects "
                    f"{row[a.name]!r}"
                )


@dataclass(frozen=True)
class Role:
    """One leg of a relationship: a named, cardinality-tagged entity ref."""

    name: str
    entity: str
    cardinality: str = MANY  # ONE or MANY

    def __post_init__(self) -> None:
        if self.cardinality not in (ONE, MANY):
            raise ERMValidationError(
                f"role {self.name!r}: cardinality must be '1' or 'N'"
            )


@dataclass
class Relationship:
    """A relationship type among entities, possibly with attributes."""

    name: str
    roles: list[Role]
    attributes: list[Attribute] = field(default_factory=list)

    def role(self, name: str) -> Role | None:
        for r in self.roles:
            if r.name == name:
                return r
        return None

    @property
    def degree(self) -> int:
        return len(self.roles)

    def is_many_to_many(self) -> bool:
        return all(r.cardinality == MANY for r in self.roles)

    def one_roles(self) -> list[Role]:
        return [r for r in self.roles if r.cardinality == ONE]


@dataclass
class ERModel:
    """A validated collection of entities and relationships."""

    name: str
    entities: list[Entity] = field(default_factory=list)
    relationships: list[Relationship] = field(default_factory=list)

    # -- construction ------------------------------------------------------------

    def entity(
        self,
        name: str,
        attributes: Iterable[Any],
        key: str | tuple[str, ...],
    ) -> Entity:
        attrs = [
            a if isinstance(a, Attribute) else Attribute(a)
            for a in attributes
        ]
        entity = Entity(name, attrs, key)
        self.entities.append(entity)
        return entity

    def relationship(
        self,
        name: str,
        roles: dict[str, tuple[str, str]] | Iterable[Role],
        attributes: Iterable[Any] = (),
    ) -> Relationship:
        """``roles`` maps role name → (entity name, cardinality)."""
        if isinstance(roles, dict):
            role_list = [
                Role(role_name, entity, card)
                for role_name, (entity, card) in roles.items()
            ]
        else:
            role_list = list(roles)
        attrs = [
            a if isinstance(a, Attribute) else Attribute(a)
            for a in attributes
        ]
        rel = Relationship(name, role_list, attrs)
        self.relationships.append(rel)
        return rel

    # -- lookup -------------------------------------------------------------------

    def get_entity(self, name: str) -> Entity:
        for e in self.entities:
            if e.name == name:
                return e
        raise ERMValidationError(f"model has no entity {name!r}")

    def get_relationship(self, name: str) -> Relationship:
        for r in self.relationships:
            if r.name == name:
                return r
        raise ERMValidationError(f"model has no relationship {name!r}")

    # -- validation ------------------------------------------------------------------

    def validate(self) -> None:
        names: set[str] = set()
        for e in self.entities:
            if e.name in names:
                raise ERMValidationError(f"duplicate name {e.name!r}")
            names.add(e.name)
            attr_names = [a.name for a in e.attributes]
            if len(set(attr_names)) != len(attr_names):
                raise ERMValidationError(
                    f"entity {e.name!r} has duplicate attributes"
                )
            for key_attr in e.key_attrs():
                if e.attr(key_attr) is None:
                    raise ERMValidationError(
                        f"entity {e.name!r}: key attribute {key_attr!r} is "
                        "not an attribute"
                    )
        entity_names = {e.name for e in self.entities}
        for r in self.relationships:
            if r.name in names:
                raise ERMValidationError(f"duplicate name {r.name!r}")
            names.add(r.name)
            if r.degree < 2:
                raise ERMValidationError(
                    f"relationship {r.name!r} needs at least two roles"
                )
            role_names = [role.name for role in r.roles]
            if len(set(role_names)) != len(role_names):
                raise ERMValidationError(
                    f"relationship {r.name!r} has duplicate role names"
                )
            for role in r.roles:
                if role.entity not in entity_names:
                    raise ERMValidationError(
                        f"relationship {r.name!r}: role {role.name!r} "
                        f"references unknown entity {role.entity!r}"
                    )

    def __repr__(self) -> str:
        return (
            f"<ERModel {self.name!r}: {len(self.entities)} entities, "
            f"{len(self.relationships)} relationships>"
        )


def retail_model() -> ERModel:
    """The paper's Fig. 1 running example as an ER model."""
    model = ERModel("retail")
    model.entity(
        "customers",
        [Attribute("cid", int), Attribute("name", str),
         Attribute("age", int)],
        key="cid",
    )
    model.entity(
        "products",
        [Attribute("pid", int), Attribute("name", str),
         Attribute("category", str)],
        key="pid",
    )
    model.relationship(
        "order",
        {"cid": ("customers", MANY), "pid": ("products", MANY)},
        [Attribute("date", str)],
    )
    model.validate()
    return model
