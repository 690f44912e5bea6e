"""Internal helpers shared across the library.

Nothing in this module is part of the public API.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


class _Sentinel:
    """A unique, falsy, self-describing sentinel value."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):  # keep sentinels singleton across pickling
        return (_lookup_sentinel, (self._name,))


_SENTINELS: dict[str, _Sentinel] = {}


def _lookup_sentinel(name: str) -> _Sentinel:
    return _SENTINELS.setdefault(name, _Sentinel(name))


#: Marks "no value supplied" where ``None`` is a legal value.
MISSING = _lookup_sentinel("MISSING")

#: Marks a deleted row inside MVCC versions and diffs.
TOMBSTONE = _lookup_sentinel("TOMBSTONE")

#: A timestamp later than any commit stamp: a read at it sees the newest
#: version of every row.
LATEST = 2**62


_ATTACH_LOCK = threading.Lock()


def attached(
    engine: Any, attr: str, factory: Callable[[], Any], default: Any = None
) -> Any:
    """The object hung on *engine* as *attr*, made by *factory* on first
    use (double-checked, so concurrent sessions agree on one instance);
    *default* when there is no engine to hang it on."""
    if engine is None:
        return default
    got = getattr(engine, attr, None)
    if got is None:
        with _ATTACH_LOCK:
            got = getattr(engine, attr, None)
            if got is None:
                got = factory()
                setattr(engine, attr, got)
    return got


def freeze(value: Any) -> Any:
    """Return a hashable, order-insensitive-for-mappings view of *value*.

    Used to compare and hash tuple-function payloads: dicts become sorted
    attribute/value pairs, lists/sets become tuples/frozensets, and nested
    structures are frozen recursively. Objects that are already hashable are
    returned unchanged.
    """
    if isinstance(value, Mapping):
        return tuple(sorted((k, freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(freeze(v) for v in value)
    return value


def normalize_key(key: Any) -> Any:
    """Normalize a function input so equivalent spellings hash identically.

    Lists become tuples; one-element tuples collapse to their element so that
    ``R(3)`` and ``R((3,))`` address the same mapping.
    """
    if isinstance(key, list):
        key = tuple(key)
    if isinstance(key, tuple) and len(key) == 1:
        return key[0]
    return key


def encode_tuple_key(key: Any, element: Any = None) -> Any:
    """JSON-safe envelope for (possibly nested) tuple keys.

    Tuples become ``{"__tuple__": [...]}`` so they survive JSON and
    decode back to real tuples; non-tuple components pass through
    *element* (identity by default). One codec serves both the WAL and
    the wire protocol — the two must never drift apart, or replayed
    logs and remote results would disagree about key identity.
    """
    if isinstance(key, tuple):
        return {"__tuple__": [encode_tuple_key(k, element) for k in key]}
    return key if element is None else element(key)


def decode_tuple_key(key: Any, element: Any = None) -> Any:
    """Invert :func:`encode_tuple_key`."""
    if isinstance(key, dict) and "__tuple__" in key:
        return tuple(
            decode_tuple_key(k, element) for k in key["__tuple__"]
        )
    return key if element is None else element(key)


def first(iterable: Iterable[Any], default: Any = MISSING) -> Any:
    """Return the first element of *iterable*, or *default* if empty."""
    for item in iterable:
        return item
    if default is MISSING:
        raise ValueError("first() of empty iterable")
    return default


def take(iterable: Iterable[Any], n: int) -> list[Any]:
    """Return up to the first *n* elements of *iterable* as a list."""
    out: list[Any] = []
    for item in iterable:
        if len(out) >= n:
            break
        out.append(item)
    return out


def short_repr(value: Any, limit: int = 40) -> str:
    """A repr truncated to *limit* characters, for error messages."""
    text = repr(value)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def format_table(
    rows: Sequence[Sequence[Any]],
    headers: Sequence[str],
    title: str | None = None,
) -> str:
    """Render an ASCII table, used by the benchmark harness output.

    >>> print(format_table([[1, 'a']], headers=['n', 's']))
    n | s
    --+--
    1 | a
    """
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def chunked(iterable: Iterable[Any], size: int) -> Iterator[list[Any]]:
    """Yield successive lists of at most *size* elements."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    batch: list[Any] = []
    for item in iterable:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


def dedupe_preserving_order(items: Iterable[Any]) -> list[Any]:
    """Remove duplicates while keeping first-seen order."""
    seen: set[Any] = set()
    out: list[Any] = []
    for item in items:
        marker = freeze(item)
        if marker not in seen:
            seen.add(marker)
            out.append(item)
    return out
