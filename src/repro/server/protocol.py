"""The wire protocol: length-prefixed JSON frames (DESIGN.md §11).

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON (with a long reply's columns packed after it: :func:`send_frame`).
Requests are ``{"id": n, "verb": "...", ...}``; responses echo the id
with ``{"ok": true, "result": ...}`` or ``{"ok": false, "error":
{"type": ..., "message": ...}}``. Server-initiated frames — subscription
deltas — carry ``"push"`` instead of an id and may arrive between any
request and its response; both sides must tolerate the interleaving.

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
MISSING endpoints — survive JSON without ambiguity. A relation names
each row shape once and travels as column blocks: a run of rows of one
shape is its keys plus one value list per name, cut straight from the
segment image's columns when the executor serves them. Errors travel
typed by exception class name; :func:`raise_remote` rebuilds the matching
:class:`~repro.errors.ReproError` subclass on the client so a remote
write-write conflict raises the same ``TransactionConflictError`` a
local one does.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from collections import deque
from itertools import repeat
from operator import setitem
from typing import Any

from repro._util import (
    MISSING,
    TOMBSTONE,
    decode_tuple_key,
    encode_tuple_key,
)
from repro.errors import ConnectionClosedError, ProtocolError, RemoteError
from repro.exec.batch import ColumnBatch
from repro.exec.kernels import _derived
from repro.exec.run import route_batches
from repro.fdm.functions import FDMFunction
from repro.relational.nulls import is_null

__all__ = [
    "MAX_FRAME",
    "PACK_MIN_ROWS",
    "send_frame",
    "recv_frame",
    "encode_key",
    "decode_key",
    "encode_value",
    "decode_value",
    "encode_delta",
    "relation_batches",
    "error_payload",
    "raise_remote",
    "RemoteRows",
]

_HEADER = struct.Struct(">I")

#: Upper bound on one frame's JSON body. Large enough for any sane
#: result page, small enough that a corrupt length prefix cannot make
#: the receiver allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024

#: The fewest rows of a reply's column block that travel packed: the
#: measured crossover below which JSON is cheaper (DESIGN.md §11).
PACK_MIN_ROWS = 48

#: A length prefix with this bit set: the body carries a packed tail.
_TAIL = 1 << 31
#: A column's one exact type → its packed code: a little-endian
#: ``struct`` code, or ``s``, the values joined by ``\\x00`` in UTF-8.
_CODES = {str: "s", int: "q", float: "d"}

#: Envelope-recursion guard: deeper nesting than this is almost
#: certainly a cyclic structure, not data.
_MAX_DEPTH = 16


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


def send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    """Serialize *payload* and write one length-prefixed frame. A block
    of a ``result`` relation with at least :data:`PACK_MIN_ROWS` rows
    sends each column :func:`_pack` takes, keys included, as a marker in
    the JSON head and its bytes in a tail (DESIGN.md §11)."""
    tail: list = []
    result = payload.get("result")
    if type(result) is dict and result.get("@") == "relation":
        payload = {**payload, "result": {**result, "blocks": [
            [block[0], *(_pack(column, tail) for column in block[1:])]
            if block[0] >= 0 and len(block[1]) >= PACK_MIN_ROWS else block
            for block in result["blocks"]
        ]}}
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if tail:
        body = b"".join([_HEADER.pack(len(body)), body, *tail])
    if len(body) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME}-byte limit"
        )
    sock.sendall(_HEADER.pack(len(body) | (_TAIL if tail else 0)) + body)


def _pack(column: list, tail: list) -> Any:
    """*column*'s ``{"@": code, "n": bytes}`` marker, its bytes appended
    to *tail*; or *column* itself unless all its values are ``int``
    within int64, all ``float``, or all ``str`` free of ``\\x00`` with a
    UTF-8 form (exact types: no bool)."""
    kinds = set(map(type, column))
    code = _CODES.get(kinds.pop()) if len(kinds) == 1 else None
    try:
        if code in ("q", "d"):
            data = struct.pack(f"<{len(column)}{code}", *column)
        elif code and (text := "\x00".join(column)).count("\x00") < len(column):
            data = text.encode("utf-8")
        else:
            return column  # not one type, or a value holds "\x00"
    except (struct.error, UnicodeEncodeError):
        return column  # past int64, or a lone surrogate
    tail.append(data)
    return {"@": code, "n": len(data)}


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
    """Read one frame; ``None`` when the peer closed between frames. A
    packed tail is put back into the reply's blocks as value lists."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    packed, length = length & _TAIL, length & ~_TAIL
    if length > MAX_FRAME:
        raise ProtocolError(
            f"incoming frame claims {length} bytes (limit {MAX_FRAME}); "
            "stream is corrupt or not speaking this protocol"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ConnectionClosedError("connection closed mid-frame")
    tail = None
    if packed:
        head = 4 + _HEADER.unpack_from(body)[0] if length >= 4 else length + 1
        if head > length:
            raise ProtocolError("packed frame's head runs past its body")
        body, tail = body[4:head], memoryview(body)[head:]
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    if tail is not None:
        try:
            _unpack(payload["result"]["blocks"], tail)
        except (KeyError, TypeError, ValueError, IndexError, struct.error) as exc:
            raise ProtocolError(f"unreadable packed tail: {exc!r}") from exc
    return payload


def _unpack(blocks: list, tail: memoryview) -> None:
    """Replace each marker in *blocks* by its values, read from *tail* in
    order: all of *tail*, and as many values as the block has keys."""
    at = 0
    for block in blocks:
        for i in range(1, len(block)):
            if type(block[i]) is dict:
                code, size = block[i]["@"], block[i]["n"]
                if code not in _CODES.values() or not 0 <= size <= len(tail) - at:
                    raise ValueError(f"a {code!r} column of {size!r} bytes")
                data, at = tail[at:at + size], at + size
                block[i] = str(data, "utf-8").split("\x00") if code == "s" else [
                    *struct.unpack(f"<{size // 8}{code}", data)]
                if len(block[i]) != len(block[1]):
                    raise ValueError(f"{len(block[i])} values, {len(block[1])} keys")
    if at != len(tail):
        raise ValueError(f"{len(tail) - at} tail bytes past the last column")


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

    Enumerable FDM functions become ``{"@": "relation", "kind", "name",
    "shapes": [[name, ...], ...], "blocks": [...]}`` (column blocks, see
    :func:`_encode_relation`), recursively, so grouped databases and
    nested relations survive; *max_rows* caps every level
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


class relation_batches:
    """*fn*'s batches from one drain of its executor pipeline (one
    stream of ``(key, value)`` entries, ``items()``, for a *nested*
    relation or one the executor cannot plan), as ``with
    relation_batches(fn) as batches``; the query reports once, when the
    block exits. A batch is a column batch or a list of entries (see
    :func:`repro.exec.run.route_batches`)."""

    def __init__(self, fn: Any, nested: bool = False) -> None:
        self._fn = fn
        self._batches = None if nested else route_batches(fn)

    def __enter__(self) -> Any:
        batches = self._batches
        return (self._fn.items(),) if batches is None else batches

    def __exit__(self, *exc: Any) -> None:
        if self._batches is not None:
            self._batches.close()


def _shaped(value: Any) -> bool:
    """A non-empty row of JSON scalars under ``int``/``str`` names."""
    return (
        isinstance(value, dict)
        and bool(value)
        and _SCALARS.issuperset(map(type, value.values()))
        and _NAMES.issuperset(map(type, value))
    )


def _wire_rows(image: Any) -> tuple:
    """How a column image's rows go out, derived once per image:
    ``(shapes, codes, keys, one)`` — the names of each row shape in
    first-seen order, each row's number in *shapes* (−1: not
    :func:`_shaped`), the keys as the wire carries them, and the number
    every row shares (``None`` if they differ)."""
    numbers: dict[tuple, int] = {}
    codes = [
        numbers.setdefault(tuple(row), len(numbers)) if _shaped(row) else -1
        for row in image.rows
    ]
    keys = image.keys
    if not _SCALARS.issuperset(map(type, keys)):
        keys = [encode_key(key) for key in keys]
    one = codes[0] if codes and codes.count(codes[0]) == len(codes) else None
    return list(numbers), codes, keys, one


def _column_run(batch: Any) -> tuple | None:
    """``(names, keys, columns)`` of a column batch whose selected rows
    all share one shape, gathered from the image's columns; else
    ``None``."""
    image = batch.image
    shapes, codes, keys, one = _derived(image, ("wire",), _wire_rows)
    if one is None:
        picked = set(batch.gather(codes))
        one = picked.pop() if len(picked) == 1 else -1
    if one < 0:
        return None
    gather = batch.gather
    names = shapes[one]
    return names, gather(keys), [gather(image.column(a)) for a in names]


def _encode_relation(fn: Any, max_rows: int | None, depth: int) -> dict:
    """A relation's envelope, from :func:`relation_batches`: its rows as
    blocks, each a maximal run of consecutive rows of one shape. A run
    of :func:`_shaped` rows is ``[shape, [key, ...], [v1, ...], ...,
    [vn, ...]]``, one value list per name of ``shapes[shape]`` (numbered
    in first-seen order); a run of any other values, the empty row
    included, is ``[-1, [key, ...], [envelope, ...]]``. A column batch
    whose rows share a shape and fit on the page is cut from its
    image's columns; every other entry goes through one per-row loop,
    which also cuts the page. Blocks continue across batches, so the
    envelope depends on the answer alone."""
    envelope = {"@": "relation", "kind": fn.kind, "name": fn.name}
    shapes = envelope["shapes"] = []
    blocks = envelope["blocks"] = []
    numbers: dict[tuple, int] = {}
    flat = depth + 1 < _MAX_DEPTH
    left = math.inf if max_rows is None else max_rows  # room on the page

    def block_for(names: tuple | None) -> list:
        # the open block if it has this shape, else a new one
        shape = -1
        if names is not None:
            shape = numbers.get(names)
            if shape is None:
                shape = numbers[names] = len(shapes)
                shapes.append(list(names))
        if not blocks or blocks[-1][0] != shape:
            width = 1 if names is None else len(names)
            blocks.append([shape, [], *([] for _ in range(width))])
        return blocks[-1]

    with relation_batches(fn, nested=depth > 0) as batches:
        for batch in batches:
            columnar = type(batch) is ColumnBatch
            run = _column_run(batch) if columnar and len(batch) <= left else None
            if run is not None:
                names, keys, cols = run
                left -= len(keys)
                block = block_for(names)
                block[1] += keys
                for have, col in zip(block[2:], cols):
                    have += col
                continue
            if columnar:  # mixed shapes, or the page ends in this batch
                batch = zip(batch.keys, batch.rows)
            run: list = []  # ``(key, *values)`` of consecutive one-shape rows
            names = None
            for key, value in batch:
                if not left:
                    envelope["truncated"] = True
                    break
                left -= 1
                if (
                    isinstance(value, FDMFunction)
                    and value.kind == "tuple"
                    and value.is_enumerable
                ):
                    value = dict(value.items())
                if type(key) not in _SCALARS:
                    key = encode_key(key)
                shape = None
                if (
                    flat
                    and isinstance(value, dict)
                    and value
                    and _SCALARS.issuperset(map(type, value.values()))
                ):
                    shape = tuple(value)
                    if shape != names and not _NAMES.issuperset(map(type, shape)):
                        shape = None  # names JSON cannot carry exactly
                if shape is not None:  # a :func:`_shaped` row
                    if run and shape != names:
                        _extend(block_for(names), run)
                        run = []
                    names = shape
                    run.append((key, *value.values()))
                    continue
                if run:
                    _extend(block_for(names), run)
                    run = []
                block = block_for(None)
                block[1].append(key)
                block[2].append(encode_value(value, max_rows, depth + 1))
            if run:
                _extend(block_for(names), run)
            if "truncated" in envelope:
                break
    return envelope


def _extend(block: list, run: list) -> None:
    """Append a run of ``(key, v1, ..., vn)`` rows to *block*'s key and
    value lists, column by column."""
    for have, column in zip(block[1:], zip(*run)):
        have += column


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
        for shape, keys, *cols in value["blocks"]:
            if not _SCALARS.issuperset(map(type, keys)):
                keys = list(map(decode_key, keys))
            if shape < 0:
                rows.update(zip(keys, map(decode_value, cols[0])))
            else:  # column by column, into one template copy a row
                made = [*map(dict.copy, repeat(dict.fromkeys(shapes[shape]), len(keys)))]
                for name, col in zip(shapes[shape], cols):
                    deque(map(setitem, made, repeat(name), col), 0)
                rows.update(zip(keys, made))
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
