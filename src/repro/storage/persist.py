"""Checkpointing: every table at one stamp as one WAL record
(:func:`~repro.storage.image.engine_record`) in a file of one line.

``load`` applies that record to an empty engine, whose clock resumes at
the checkpoint stamp, so recovery is ``load(checkpoint) + replay(WAL
suffix)``.
"""

from __future__ import annotations

import json
import os

from repro.errors import PersistenceError, WALError
from repro.storage.engine import StorageEngine
from repro.storage.image import decode_record, encode_pieces, engine_record

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(engine: StorageEngine, path: str, clock: int) -> None:
    """Write the state of *engine* committed at or before *clock* to
    *path*, atomically: a value JSON cannot hold raises
    :class:`PersistenceError` before any file is touched, and a write
    that fails leaves the previous checkpoint at *path* as it was."""
    pieces = [piece.encode() for piece in encode_pieces(engine_record(engine, clock))]
    pieces[-1] += b"\n"
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(pieces)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        try:
            os.fsync(fd)  # the rename itself
        finally:
            os.close(fd)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise PersistenceError(f"cannot write checkpoint {path!r}: {exc}") from exc


def load_checkpoint(
    path: str, name: str = "engine"
) -> tuple[StorageEngine, int]:
    """Rebuild an engine from a checkpoint; returns (engine, clock).

    All rows re-enter under one commit stamp (the checkpoint clock),
    which preserves snapshot semantics for everything committed after
    the checkpoint. A file of the image form checkpoints had before
    (``{"ts", "tables"}``) loads as the row-form record it maps to.
    """
    try:
        with open(path, "rb") as f:
            payload = json.loads(f.read().decode("utf-8"))
        if "tables" in payload:
            tables = payload["tables"]
            payload = {
                "ts": payload["ts"],
                "writes": [
                    {"table": table, "key": key, "data": data, "deleted": False}
                    for table, spec in tables.items()
                    for key, data in spec["rows"]
                ],
                "schemas": {table: spec["schema"] for table, spec in tables.items()},
            }
        record = decode_record(payload)
        engine = StorageEngine(name=name)
        engine.apply_commit(record.commit_ts, record.writes, record.schemas)
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            WALError) as exc:
        raise PersistenceError(f"cannot load checkpoint {path!r}: {exc!r}") from exc
    return engine, record.commit_ts
