"""The one written form of committed state (DESIGN.md §4).

Committed state is written down as **records**, and every carrier holds
exactly this dict: ``{"ts", "blocks": {table: block}}`` plus an
optional ``"schemas": {table: schema | null}`` member for the tables
whose catalog entry the record sets (``null`` drops the table). A block
is one table's writes: ``{"keys", "runs": [[n, *attrs], ...], "values",
"deleted"}`` — the written keys, their rows as runs of *n* rows with
the attribute names *attrs* (once a run), the runs' values row by row
in one flat list, and the deleted keys (left out when there are none).

A commit's record is a line of the WAL file and an element of a
``WAL_BATCH`` / ``REPLICA_HELLO`` frame. Every table at one stamp is
one record too (:func:`engine_record`): every table's catalog entry and
one block of its live rows, in scan order. It is a checkpoint file and
a replica snapshot, and it installs as one ``apply_commit`` on an empty
engine. Logs written before blocks hold
``{"ts", "writes": [{"table", "key", "data", "deleted"}]}`` lines;
:func:`decode_record` still reads them.

One key rule: tuple keys travel through
:func:`repro._util.encode_tuple_key`, and attribute names go as JSON
writes a dict's (``1`` as ``"1"``, a tuple refused). One value rule: a
row is a ``dict`` that ``json.dumps`` accepts without a ``default=``
hook. :func:`encode_record` refuses a row that is not a dict and
:func:`dumps` — the one place these dicts become text — refuses a value
JSON cannot hold; both raise :class:`~repro.errors.PersistenceError`
before anything is written. A malformed record raises
:class:`~repro.errors.WALError` from :func:`decode_record` wherever it
came from.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Any, Iterator, NamedTuple

from repro._util import TOMBSTONE, decode_tuple_key, encode_tuple_key
from repro.errors import PersistenceError, WALError

__all__ = [
    "Block",
    "WALRecord",
    "decode_record",
    "decode_records",
    "dumps",
    "encode_pieces",
    "encode_record",
    "encode_records",
    "engine_record",
    "table_schema",
]


class Block(NamedTuple):
    """One table's writes in one commit, in write order: ``rows[i]``
    under ``keys[i]``, then the ``deleted`` keys."""

    keys: list
    rows: list
    deleted: list


class WALRecord:
    """One committed transaction's effects: one :class:`Block` of row
    writes per table, and the new catalog entry of every table whose
    schema the commit changed."""

    __slots__ = ("commit_ts", "writes", "schemas")

    def __init__(self, commit_ts: int, writes: Any, schemas: Any = None):
        self.commit_ts = commit_ts
        #: table → Block; *writes* may also come as a transaction buffers
        #: them (table → key → data-or-TOMBSTONE) or as triples
        self.writes: dict[str, Block] = _blocks(writes)
        self.schemas = schemas  # table → schema dict, or None for a drop

    def to_json(self) -> str:
        """This record as one line of the WAL file."""
        return dumps(encode_record(self))

    @classmethod
    def from_json(cls, line: str | bytes) -> "WALRecord":
        """Invert :meth:`to_json`; anything else raises ``WALError``."""
        try:
            if isinstance(line, bytes):  # decoding here beats json's sniffing
                line = line.decode("utf-8")
            payload = json.loads(line)
        except ValueError as exc:
            raise WALError(f"corrupt WAL record: {exc}") from exc
        return decode_record(payload)

    def __repr__(self) -> str:
        n = sum(len(b.keys) + len(b.deleted) for b in self.writes.values())
        return f"<WAL @{self.commit_ts}: {n} writes>"


def _blocks(writes: Any) -> dict[str, Block]:
    if not isinstance(writes, dict):  # (table, key, data) triples
        tables: dict[str, dict] = {}
        for table, key, data in writes:
            tables.setdefault(table, {})[key] = data
        writes = tables
    return {table: _as_block(rows) for table, rows in writes.items() if rows}


def _as_block(rows: Any) -> Block:
    if not isinstance(rows, dict):
        return rows
    deleted = [key for key, data in rows.items() if data is TOMBSTONE]
    if deleted:
        rows = {key: data for key, data in rows.items() if data is not TOMBSTONE}
    return Block(list(rows), list(rows.values()), deleted)


#: Values per piece of a long list in an encoded record
#: (:func:`encode_pieces`).
PIECE_VALUES = 4096


def dumps(payload: Any) -> str:
    """*payload* (a record or a part of one) as JSON text, or
    :class:`PersistenceError` if a row holds a value JSON cannot."""
    try:
        return json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise PersistenceError(
            f"committed state must be plain JSON data: {exc}"
        ) from exc


def _keys(keys: Any, code: Any) -> list:
    """*keys* through the tuple-key envelope (*code*), in a new list."""
    for key in keys:
        if isinstance(key, (tuple, dict)):
            return [code(key) for key in keys]
    return list(keys)


def _names(attrs: tuple) -> Any:
    """A run's attribute names as JSON writes a dict's: ``1`` as
    ``"1"``; a name JSON refuses (a tuple) raises
    :class:`PersistenceError`."""
    for name in attrs:
        if name.__class__ is not str:
            return [next(iter(json.loads(dumps({n: 0})))) for n in attrs]
    return attrs


def _block(table: str, block: Block) -> dict[str, Any]:
    keys, rows = block.keys, block.rows
    if len(rows) == 1 and isinstance(rows[0], dict):  # one row: no loop
        runs, values = [[1, *_names(tuple(rows[0]))]], [*rows[0].values()]
        keys = [encode_tuple_key(keys[0])]
    else:
        runs, values, shape = [], [], None
        for key, row in zip(keys, rows):
            if not isinstance(row, dict):
                raise PersistenceError(
                    f"{table!r}[{key!r}] holds a non-tuple value {row!r}; "
                    "only stored tuples can be written down"
                )
            attrs = tuple(row)
            if attrs == shape:
                runs[-1][0] += 1
            else:
                runs.append([1, *_names(attrs)])
                shape = attrs
            values += row.values()
        keys = _keys(keys, encode_tuple_key)
    out = {"keys": keys, "runs": runs, "values": values}
    if block.deleted:
        out["deleted"] = _keys(block.deleted, encode_tuple_key)
    return out


def encode_record(record: WALRecord) -> dict[str, Any]:
    """One record as the dict every carrier writes."""
    payload: dict[str, Any] = {
        "ts": record.commit_ts,
        "blocks": {t: _block(t, b) for t, b in record.writes.items()},
    }
    if record.schemas:
        payload["schemas"] = record.schemas
    return payload


def _pieces(value: Any) -> Iterator[str]:
    """``dumps(value)`` as texts whose concatenation it is: a dict with
    text keys member by member, a list longer than
    :data:`PIECE_VALUES` that many values at a time."""
    if isinstance(value, dict) and value:  # a record's dicts have text keys
        sep = "{"
        for name, member in value.items():
            yield f"{sep}{dumps(name)}: "
            yield from _pieces(member)
            sep = ", "
        yield "}"
    elif isinstance(value, list) and len(value) > PIECE_VALUES:
        sep = "["
        for start in range(0, len(value), PIECE_VALUES):
            yield sep + dumps(value[start : start + PIECE_VALUES])[1:-1]
            sep = ", "
        yield "]"
    else:
        yield dumps(value)


def encode_pieces(record: WALRecord) -> Iterator[str]:
    """``dumps(encode_record(record))`` in pieces: their concatenation
    is that text, byte for byte, and encoding one piece holds at most
    :data:`PIECE_VALUES` values' text."""
    payload = encode_record(record)
    blocks = payload["blocks"].values()  # keys, runs, values, deletes
    if sum(len(part) for b in blocks for part in b.values()) <= PIECE_VALUES:
        yield dumps(payload)  # one piece: the line itself
    else:
        yield from _pieces(payload)


def _decoded(block: dict[str, Any]) -> Block:
    values, at, rows = block["values"], 0, []
    for n, *attrs in block["runs"]:
        width = len(attrs)
        end = at + n * width
        if n == 1:  # a one-row commit's run: no iterators to build
            rows.append(dict(zip(attrs, values[at:end])))
        else:
            cut = iter(values[at:end])
            rows += map(dict, map(zip, repeat(attrs), zip(*[cut] * width)))
            if not width:
                rows += map(dict, repeat((), n))
        at = end
    keys = _keys(block["keys"], decode_tuple_key)
    if at != len(values) or len(rows) != len(keys):
        raise WALError("corrupt WAL record: a block's rows miss its keys")
    return Block(keys, rows, _keys(block.get("deleted", []), decode_tuple_key))


def decode_record(payload: dict[str, Any]) -> WALRecord:
    """Invert :func:`encode_record`; a record of the row form written
    before blocks decodes to the same blocks."""
    try:
        if "writes" in payload:  # the row form
            writes: Any = [
                (
                    w["table"],
                    decode_tuple_key(w["key"]),
                    TOMBSTONE if w["deleted"] else w["data"],
                )
                for w in payload["writes"]
            ]
        else:
            writes = {t: _decoded(b) for t, b in payload["blocks"].items()}
        return WALRecord(payload["ts"], writes, payload.get("schemas"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise WALError(f"corrupt WAL record: {exc!r}") from exc


def encode_records(records: list[WALRecord]) -> list[dict[str, Any]]:
    """A batch of records, oldest first."""
    return [encode_record(record) for record in records]


def decode_records(payloads: list[dict[str, Any]]) -> list[WALRecord]:
    """Invert :func:`encode_records`."""
    return [decode_record(payload) for payload in payloads]


def table_schema(engine: Any, name: str) -> dict[str, Any] | None:
    """The catalog entry of one table — everything
    ``StorageEngine.apply_schema`` needs to rebuild it with an identical
    physical layout (a composite key name is a list) — or ``None`` if
    the engine has no such table."""
    table = engine.tables.get(name)
    if table is None:
        return None
    key_name = table.key_name
    indexes = table.indexes
    return {
        "key_name": list(key_name) if isinstance(key_name, tuple) else key_name,
        "partition": table.scheme.spec(),
        "indexes": [
            {"attr": attr, "kind": indexes.get(attr).kind}
            for attr in indexes.attrs()
        ],
    }


def engine_record(engine: Any, ts: int) -> WALRecord:
    """Every table of *engine* as of stamp *ts* as one record: each
    table's catalog entry, and one block of its live rows in scan order
    (no version history)."""
    blocks = {}
    for name, table in engine.tables.items():
        scan = list(table.scan_at(ts))
        blocks[name] = Block([key for key, _ in scan], [data for _, data in scan], [])
    return WALRecord(
        ts, blocks, {name: table_schema(engine, name) for name in engine.tables}
    )
