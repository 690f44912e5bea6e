"""The Functional Data Model: everything is a function (paper §2).

This package provides the model layer only — domains and the function
hierarchy (tuples, relations, databases, relationships). The operator
algebra over these functions lives in :mod:`repro.fql`.
"""

from repro.fdm.domains import (
    ANY,
    BOOL,
    EMPTY,
    FLOAT,
    INT,
    STR,
    AnyDomain,
    DifferenceDomain,
    DiscreteDomain,
    Domain,
    EmptyDomain,
    IntersectionDomain,
    IntervalDomain,
    PredicateDomain,
    ProductDomain,
    TypeDomain,
    UnionDomain,
    as_domain,
)
from repro.fdm.entry import Entry
from repro.fdm.functions import (
    DerivedFunction,
    FallbackFunction,
    FDMFunction,
    LambdaFunction,
    extensionally_equal,
    freeze_function,
    values_equal,
)
from repro.fdm.tuples import (
    BoundTuple,
    ComputedTupleFunction,
    TupleFunction,
    tuple_function,
)
from repro.fdm.relations import (
    ComputedRelationFunction,
    MaterialRelationFunction,
    RelationFunction,
    alternative_view,
    relation,
    relation_from_rows,
)
from repro.fdm.databases import (
    DatabaseFunction,
    MaterialDatabaseFunction,
    OverlayDatabaseFunction,
    database,
    database_set,
)
from repro.fdm.relationships import (
    Participant,
    RelationshipFunction,
    relationship,
    relationship_predicate,
)

__all__ = [
    # domains
    "ANY", "BOOL", "EMPTY", "FLOAT", "INT", "STR",
    "AnyDomain", "DifferenceDomain", "DiscreteDomain", "Domain",
    "EmptyDomain", "IntersectionDomain", "IntervalDomain",
    "PredicateDomain", "ProductDomain", "TypeDomain", "UnionDomain",
    "as_domain",
    # functions
    "Entry", "DerivedFunction", "FallbackFunction", "FDMFunction",
    "LambdaFunction", "extensionally_equal", "freeze_function",
    "values_equal",
    # tuples
    "BoundTuple", "ComputedTupleFunction", "TupleFunction",
    "tuple_function",
    # relations
    "ComputedRelationFunction", "MaterialRelationFunction",
    "RelationFunction", "alternative_view", "relation",
    "relation_from_rows",
    # databases
    "DatabaseFunction", "MaterialDatabaseFunction",
    "OverlayDatabaseFunction", "database", "database_set",
    # relationships
    "Participant", "RelationshipFunction", "relationship",
    "relationship_predicate",
]
