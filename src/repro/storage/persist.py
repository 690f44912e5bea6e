"""Checkpointing: an engine image (:mod:`repro.storage.image`) in a file.

A checkpoint captures the committed state of every table at one stamp
(not the version history) with each table's catalog entry. ``load``
rebuilds an engine whose clock resumes at the checkpoint stamp, so
recovery is ``load(checkpoint) + replay(WAL suffix)``.
"""

from __future__ import annotations

import json

from repro.errors import PersistenceError
from repro.storage.engine import StorageEngine
from repro.storage.image import dumps, engine_image, install_image

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(engine: StorageEngine, path: str, clock: int) -> None:
    """Write the state of *engine* committed at or before *clock* to
    *path*; a value JSON cannot hold raises :class:`PersistenceError`
    before the file is touched."""
    text = dumps(engine_image(engine, clock))
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def load_checkpoint(
    path: str, name: str = "engine"
) -> tuple[StorageEngine, int]:
    """Rebuild an engine from a checkpoint; returns (engine, clock).

    All rows re-enter under one commit stamp (the checkpoint clock),
    which preserves snapshot semantics for everything committed after
    the checkpoint.
    """
    try:
        with open(path, encoding="utf-8") as f:
            image = json.load(f)
    except (OSError, ValueError) as exc:
        raise PersistenceError(
            f"cannot load checkpoint {path!r}: {exc}"
        ) from exc
    engine = install_image(image, name=name)
    return engine, image["ts"]
