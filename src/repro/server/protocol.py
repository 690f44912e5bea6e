"""The wire protocol: length-prefixed JSON frames (DESIGN.md §11).

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON. Requests are ``{"id": n, "verb": "...", ...}``; responses
echo the id with ``{"ok": true, "result": ...}`` or ``{"ok": false,
"error": {"type": ..., "message": ...}}``. Server-initiated frames —
subscription deltas — carry ``"push"`` instead of an id and may arrive
between any request and its response; both sides must tolerate the
interleaving.

Requests may carry an optional ``"trace"`` field — the client-minted
trace context (``{"id", "parent", "sampled"}`` from
:func:`repro.obs.trace.current_context`) that the session resumes so
one span tree covers client, server, and executor. ``WAL_BATCH`` pushes
forward the same field to followers, stitching replica apply into the
originating commit's trace. Untraced traffic omits the field entirely;
servers must treat it as optional and never fail on its absence.

Values cross the boundary through small typed envelopes (``{"@":
"tuple"}``, ``{"@": "relation"}``, ``{"@": "missing"}``) so that FDM
results — tuple functions, relations, grouped databases, deltas with
MISSING endpoints — survive JSON without ambiguity; a relation names
each row shape once, and a row of scalars travels as its key, its
shape's number and its values. Errors travel typed by exception class
name; :func:`raise_remote` rebuilds the matching
:class:`~repro.errors.ReproError` subclass on the client so a remote
write-write conflict raises the same ``TransactionConflictError`` a
local one does.
"""

from __future__ import annotations

import json
import socket
import struct
from contextlib import contextmanager
from itertools import chain
from typing import Any, Iterator

from repro._util import (
    MISSING,
    TOMBSTONE,
    decode_tuple_key,
    encode_tuple_key,
)
from repro.errors import ConnectionClosedError, ProtocolError, RemoteError
from repro.fdm.functions import FDMFunction
from repro.relational.nulls import is_null

__all__ = [
    "MAX_FRAME",
    "send_frame",
    "recv_frame",
    "encode_key",
    "decode_key",
    "encode_value",
    "decode_value",
    "encode_delta",
    "relation_entries",
    "error_payload",
    "raise_remote",
    "RemoteRows",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's JSON body. Large enough for any sane
#: result page, small enough that a corrupt length prefix cannot make
#: the receiver allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024

#: Envelope-recursion guard: deeper nesting than this is almost
#: certainly a cyclic structure, not data.
_MAX_DEPTH = 16


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Serialize *payload* and write one length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME}-byte limit"
        )
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly *n* bytes; ``None`` on a clean EOF at a boundary."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    """Read one frame; ``None`` when the peer closed between frames."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"incoming frame claims {length} bytes (limit {MAX_FRAME}); "
            "stream is corrupt or not speaking this protocol"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionClosedError("connection closed mid-frame")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ---------------------------------------------------------------------------
# Key and value envelopes
# ---------------------------------------------------------------------------


def _encode_key_element(key: Any) -> Any:
    if key is None or isinstance(key, (bool, int, float, str)):
        return key
    # non-JSON key types degrade to their repr — a stable, hashable
    # stand-in, good enough to display a query result (committed state
    # never passes through here: repro.storage.image refuses instead)
    return {"@": "repr", "type": type(key).__name__, "repr": repr(key)}


def _decode_key_element(key: Any) -> Any:
    if isinstance(key, dict) and key.get("@") == "repr":
        return key.get("repr")
    return key


def encode_key(key: Any) -> Any:
    """Tuple keys ride in a marker object (same codec as the WAL)."""
    return encode_tuple_key(key, _encode_key_element)


def decode_key(key: Any) -> Any:
    """Invert :func:`encode_key` back into a (possibly tuple) key."""
    if type(key) in _SCALARS:
        return key
    return decode_tuple_key(key, _decode_key_element)


class RemoteRows(dict):
    """A decoded relation: plain ``{key: row}`` plus result metadata.

    Compares equal to an ordinary dict, so differential tests can diff
    remote results against in-process enumerations directly.
    """

    kind: str = "relation"
    name: str = ""
    truncated: bool = False


#: What JSON carries as itself. Exact types: a subclass (an ``IntEnum``,
#: say) takes the general path, which decides what it becomes.
_SCALARS = frozenset({type(None), bool, int, float, str})
_STRS = frozenset({str})
#: Attribute names a JSON list carries exactly: a shape's names.
_NAMES = frozenset({int, str})


def encode_value(
    value: Any, max_rows: int | None = None, _depth: int = 0
) -> Any:
    """Encode one result value (scalar, row, or FDM function) for JSON.

    Enumerable FDM functions become ``{"@": "relation", "shapes":
    [[name, ...], ...], "rows": [...]}``, recursively, so grouped
    databases and nested relations survive; *max_rows* caps every level
    of the enumeration and marks the envelope ``"truncated"`` when it
    bites — a page limit must degrade to a smaller answer, never to a
    silent lie. A row outside a relation is ``{"@": "tuple", "attrs":
    {str(name): value}}``; names that collide under ``str`` raise
    :class:`ProtocolError` rather than merge.
    """
    if _depth > _MAX_DEPTH:
        raise ProtocolError("result nesting exceeds the protocol depth cap")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        if (
            _depth < _MAX_DEPTH
            and _SCALARS.issuperset(map(type, value.values()))
            and _STRS.issuperset(map(type, value))
        ):
            attrs = dict(value)  # a committed row, nearly always
        else:
            attrs = {
                str(attr): encode_value(v, max_rows, _depth + 1)
                for attr, v in value.items()
            }
            if len(attrs) < len(value):
                raise ProtocolError(
                    f"attribute names {list(value)!r} collide as strings"
                )
        return {"@": "tuple", "attrs": attrs}
    if value is MISSING or value is TOMBSTONE:
        return {"@": "missing"}
    if is_null(value):
        return None
    if isinstance(value, FDMFunction) and value.is_enumerable:
        if value.kind == "tuple":
            return encode_value(dict(value.items()), max_rows, _depth)
        return _encode_relation(value, max_rows, _depth)
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [encode_value(item, max_rows, _depth + 1) for item in value]
        return {"@": "list", "items": items}
    return {"@": "repr", "type": type(value).__name__, "repr": repr(value)}


@contextmanager
def relation_entries(fn: Any, nested: bool = False) -> Iterator[Iterator]:
    """*fn*'s ``(key, value)`` entries from one drain of its executor
    pipeline (``items()`` for a *nested* relation or one the executor
    cannot plan); the query reports once, when the block exits. Rows
    off a column image are its committed row dicts."""
    from repro.exec.batch import ColumnBatch
    from repro.exec.run import route_batches

    batches = None if nested else route_batches(fn)
    try:
        yield chain.from_iterable(
            zip(batch.keys, batch.rows) if type(batch) is ColumnBatch else batch
            for batch in ((fn.items(),) if batches is None else batches)
        )
    finally:
        if batches is not None:
            batches.close()


def _encode_relation(fn: Any, max_rows: int | None, depth: int) -> dict:
    """A relation's envelope, from :func:`relation_entries`. A row of
    scalars under ``int``/``str`` names is one list, ``[key, shape,
    v1, ..., vn]``, whose names are ``shapes[shape]`` (numbered in
    first-seen order); any other value, the empty row included, is
    ``[key, envelope]``."""
    envelope = {"@": "relation", "kind": fn.kind, "name": fn.name}
    shapes = envelope["shapes"] = []
    rows = envelope["rows"] = []
    numbers: dict[tuple, int] = {}
    flat = depth + 1 < _MAX_DEPTH
    with relation_entries(fn, nested=depth > 0) as entries:
        for key, value in entries:
            if max_rows is not None and len(rows) >= max_rows:
                envelope["truncated"] = True
                break
            key = key if type(key) in _SCALARS else encode_key(key)
            if (
                isinstance(value, FDMFunction)
                and value.kind == "tuple"
                and value.is_enumerable
            ):
                value = dict(value.items())
            if (
                flat
                and isinstance(value, dict)
                and value
                and _SCALARS.issuperset(map(type, value.values()))
                and _NAMES.issuperset(map(type, value))
            ):
                names = tuple(value)
                shape = numbers.get(names)
                if shape is None:
                    shape = numbers[names] = len(shapes)
                    shapes.append(list(names))
                rows.append([key, shape, *value.values()])
            else:
                rows.append([key, encode_value(value, max_rows, depth + 1)])
    return envelope


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` into plain Python structures (a row
    of scalars is returned as the envelope's own dict, not a copy)."""
    if not isinstance(value, dict):
        return value
    tag = value.get("@")
    if tag == "tuple":
        attrs = value["attrs"]
        if _SCALARS.issuperset(map(type, attrs.values())):
            return attrs
        return {attr: decode_value(v) for attr, v in attrs.items()}
    if tag == "relation":
        shapes = value["shapes"]
        rows = RemoteRows()
        for row in value["rows"]:
            it = iter(row)
            key = decode_key(next(it))
            if len(row) > 2:  # a shaped row
                rows[key] = dict(zip(shapes[next(it)], it))
            else:
                rows[key] = decode_value(next(it))
        rows.kind = value.get("kind", "relation")
        rows.name = value.get("name", "")
        rows.truncated = bool(value.get("truncated", False))
        return rows
    if tag == "list":
        return [decode_value(item) for item in value["items"]]
    if tag == "missing":
        return MISSING
    if tag == "repr":
        return value.get("repr")
    return {attr: decode_value(v) for attr, v in value.items()}


def encode_delta(delta: Any) -> list[list[Any]]:
    """``Delta`` → ``[[key, old, new], ...]`` with MISSING envelopes."""
    return [
        [encode_key(key), encode_value(old), encode_value(new)]
        for key, (old, new) in delta.items()
    ]


# ---------------------------------------------------------------------------
# Typed errors over the wire
# ---------------------------------------------------------------------------


def error_payload(exc: BaseException) -> dict[str, Any]:
    """The failure half of a response frame: the exception's class
    name and message, typed for :func:`raise_remote` on the client."""
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def raise_remote(error: dict[str, Any]) -> None:
    """Re-raise a server-side error as its local exception class.

    The class is resolved by name against :mod:`repro.errors`; anything
    unknown (or outside the ReproError hierarchy) degrades to
    :class:`RemoteError`. Construction bypasses subclass ``__init__``
    signatures — only the class identity and message survive the wire.
    """
    from repro import errors as errors_module

    type_name = str(error.get("type", "RemoteError"))
    message = str(error.get("message", ""))
    cls = getattr(errors_module, type_name, None)
    if isinstance(cls, type) and issubclass(cls, errors_module.ReproError):
        exc = cls.__new__(cls)
        Exception.__init__(exc, message)
        raise exc
    raise RemoteError(type_name, message)
