"""fdmfql — the Functional Data Model and Functional Query Language.

A complete implementation of Dittrich, *"A Functional Data Model and Query
Language is All You Need"* (EDBT 2026): the FDM function hierarchy, the FQL
operator algebra with all figure costumes, an MVCC storage engine with
snapshot-isolated transactions, an injection-safe predicate language, a
joint PL/DB optimizer, an ER-model front end, and a relational/SQL baseline
for comparison.

Quickstart::

    import repro as fql

    db = fql.connect()
    db['customers'] = {1: {'name': 'Alice', 'age': 47},
                       2: {'name': 'Bob', 'age': 25}}
    older = fql.filter(db.customers, "age > $min", {'min': 42})
    assert older(1)('name') == 'Alice'

    fql.begin()
    db.customers[2]['age'] = 26
    fql.commit()
"""

from repro.fdm import *  # noqa: F401,F403 - the data model is the core API
from repro.fdm import __all__ as _fdm_all
from repro.fql import *  # noqa: F401,F403 - the operator algebra
from repro.fql import __all__ as _fql_all
from repro.database import FunctionalDatabase, connect
from repro.ivm import MaintainedView, maintained_view
from repro.partition import hash_partition, range_partition
from repro.txn import (
    Transaction,
    TransactionManager,
    begin,
    commit,
    get_default_database,
    rollback,
    set_default_database,
    transaction,
)

# submodules re-exported for qualified use: repro.fql.filter(...), etc.
from repro import errors, fdm, fql, ivm, partition, predicates  # noqa: F401
from repro import catalog, erm, optimizer, relational, resultdb  # noqa: F401
from repro import obs, storage, txn, types, workloads  # noqa: F401

__version__ = "1.0.0"


def __getattr__(name: str):
    # the client/server and replication subsystems (DESIGN.md §11–§12)
    # load lazily: most embedded uses never open a socket, and both
    # packages import half the library back
    if name in ("server", "client", "replication"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = (
    list(_fdm_all)
    + list(_fql_all)
    + [
        "FunctionalDatabase",
        "MaintainedView",
        "connect",
        "maintained_view",
        "Transaction",
        "TransactionManager",
        "begin",
        "commit",
        "get_default_database",
        "rollback",
        "set_default_database",
        "transaction",
        "hash_partition",
        "range_partition",
        "client",
        "replication",
        "server",
        "errors",
        "fdm",
        "fql",
        "ivm",
        "partition",
        "predicates",
        "catalog",
        "erm",
        "obs",
        "optimizer",
        "relational",
        "resultdb",
        "storage",
        "txn",
        "types",
        "workloads",
        "__version__",
    ]
)
