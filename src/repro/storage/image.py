"""The one written form of committed state (DESIGN.md §4).

Committed state is written down in two shapes, and every carrier uses
exactly these dicts:

* a **record** — one commit —
  ``{"ts", "writes": [{"table", "key", "data", "deleted"}]}`` plus an
  optional ``"schemas": {table: schema | null}`` member for the tables
  whose catalog entry the commit changed (``null`` drops the table).
  It is a line of the WAL file and an element of a ``WAL_BATCH`` /
  ``REPLICA_HELLO`` frame;
* an **image** — every table at one stamp —
  ``{"ts", "tables": {name: {"schema", "rows": [[key, data], ...]}}}``.
  It is a checkpoint file and a replica snapshot.

One key rule: tuple keys travel through
:func:`repro._util.encode_tuple_key`. One value rule: a row is a
``dict`` that ``json.dumps`` accepts without a ``default=`` hook.
:func:`encode_record` and :func:`engine_image` refuse a row that is not
a dict and :func:`dumps` — the one place these dicts become text —
refuses a value JSON cannot hold; both raise
:class:`~repro.errors.PersistenceError` before anything is written. A
malformed record raises :class:`~repro.errors.WALError` from
:func:`decode_record` wherever it came from.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from repro._util import TOMBSTONE, decode_tuple_key, encode_tuple_key
from repro.errors import PersistenceError, WALError

__all__ = [
    "WALRecord",
    "decode_record",
    "decode_records",
    "dumps",
    "encode_pieces",
    "encode_record",
    "encode_records",
    "engine_image",
    "install_image",
    "table_schema",
]


class WALRecord:
    """One committed transaction's effects: row writes, and the new
    catalog entry of every table whose schema the commit changed."""

    __slots__ = ("commit_ts", "writes", "schemas")

    def __init__(
        self,
        commit_ts: int,
        writes: list[tuple[str, Any, Any]],
        schemas: dict[str, Any] | None = None,
    ):
        self.commit_ts = commit_ts
        self.writes = writes  # (table, key, data-or-TOMBSTONE)
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
        return f"<WAL @{self.commit_ts}: {len(self.writes)} writes>"


#: Writes per piece of an encoded record (:func:`encode_pieces`).
PIECE_WRITES = 1024


def dumps(payload: Any) -> str:
    """*payload* (a record, an image or a part of one) as JSON text, or
    :class:`PersistenceError` if a row holds a value JSON cannot."""
    try:
        return json.dumps(payload)
    except (TypeError, ValueError) as exc:
        raise PersistenceError(
            f"committed state must be plain JSON data: {exc}"
        ) from exc


def _row(table: str, key: Any, data: Any) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise PersistenceError(
            f"{table!r}[{key!r}] holds a non-tuple value {data!r}; only "
            "stored tuples can be written down"
        )
    return data


def _write(table: str, key: Any, data: Any) -> dict[str, Any]:
    return {
        "table": table,
        "key": encode_tuple_key(key),
        "data": None if data is TOMBSTONE else _row(table, key, data),
        "deleted": data is TOMBSTONE,
    }


def encode_record(record: WALRecord) -> dict[str, Any]:
    """One record as the dict every carrier writes."""
    payload: dict[str, Any] = {
        "ts": record.commit_ts,
        "writes": [_write(t, k, d) for t, k, d in record.writes],
    }
    if record.schemas:
        payload["schemas"] = record.schemas
    return payload


def encode_pieces(record: WALRecord) -> Iterator[str]:
    """``dumps(encode_record(record))`` in pieces of at most
    :data:`PIECE_WRITES` writes: their concatenation is that text,
    byte for byte, and encoding one piece holds only its own writes'
    dicts."""
    writes = record.writes
    if len(writes) <= PIECE_WRITES:  # one piece: the line itself
        yield dumps(encode_record(record))
        return
    text = dumps(encode_record(WALRecord(record.commit_ts, [], record.schemas)))
    cut = text.index('"writes": [') + len('"writes": [')
    head, tail = text[:cut], text[cut:]  # the tail opens with "]"
    for start in range(0, len(writes), PIECE_WRITES):
        chunk = writes[start : start + PIECE_WRITES]
        piece = dumps([_write(t, k, d) for t, k, d in chunk])
        end = start + PIECE_WRITES >= len(writes)
        yield head + piece[1:-1] + (tail if end else "")
        head = ", "


def decode_record(payload: dict[str, Any]) -> WALRecord:
    """Invert :func:`encode_record`."""
    try:
        writes = [
            (
                w["table"],
                decode_tuple_key(w["key"]),
                TOMBSTONE if w["deleted"] else w["data"],
            )
            for w in payload["writes"]
        ]
        return WALRecord(payload["ts"], writes, payload.get("schemas"))
    except (AttributeError, KeyError, TypeError) as exc:
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


def engine_image(engine: Any, ts: int) -> dict[str, Any]:
    """Every table of *engine* as of stamp *ts* (no version history)."""
    return {
        "ts": ts,
        "tables": {
            name: {
                "schema": table_schema(engine, name),
                "rows": [
                    [encode_tuple_key(key), _row(name, key, data)]
                    for key, data in table.scan_at(ts)
                ],
            }
            for name, table in engine.tables.items()
        },
    }


def install_image(image: dict[str, Any], name: str = "engine") -> Any:
    """A fresh engine holding *image*: every row enters under the
    image's one stamp, through the same ``apply_commit`` recovery and
    replica apply use, so the engine's own log starts with one record
    that replays to the whole image."""
    from repro.storage.engine import StorageEngine

    engine = StorageEngine(name=name)
    try:
        tables = image["tables"]
        engine.apply_commit(
            image["ts"],
            [
                (table, decode_tuple_key(key), data)
                for table, spec in tables.items()
                for key, data in spec["rows"]
            ],
            schemas={table: spec["schema"] for table, spec in tables.items()},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed image: {exc!r}") from exc
    return engine
