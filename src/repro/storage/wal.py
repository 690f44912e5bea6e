"""Write-ahead log: durability for committed transactions.

Every commit appends one record (:class:`~repro.storage.image.WALRecord`:
row writes, plus the new catalog entry of any table whose schema the
commit changed) *before* the versions are applied to the tables.
Recovery replays records in commit order onto a fresh engine,
reproducing exactly the committed state (aborted transactions never
reach the log).

The log lives in memory and optionally mirrors to a JSON-lines file, one
:func:`~repro.storage.image.encode_record` dict per line, written in the
pieces :func:`~repro.storage.image.encode_pieces` cuts it into. A
memory-only log keeps the records as they are and never encodes them.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from typing import Iterator

from repro.errors import WALError
from repro.obs.resources import active_meter
from repro.storage.image import WALRecord, encode_pieces

__all__ = ["WALRecord", "WriteAheadLog"]


class WriteAheadLog:
    """Append-only log of committed transactions."""

    def __init__(self, path: str | None = None):
        self._records: list[WALRecord] = []
        self._path = path
        self._file = None
        self._closed = False
        #: History at or below this stamp is not in the log (it was
        #: truncated away by a checkpoint, or the engine was restored
        #: from a checkpoint into a fresh log). Consumers asking for
        #: records below the floor must resync from a snapshot.
        self._floor = 0
        #: Bytes of a torn final line that :meth:`load` dropped.
        self.torn_bytes = 0
        #: Length of the file once its last append is written.
        self._end = 0
        if path is not None:
            self._open("ab")

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def floor(self) -> int:
        """Newest stamp whose history this log can no longer replay."""
        return self._floor

    def set_floor(self, commit_ts: int) -> None:
        """Record that history at or below *commit_ts* lives elsewhere
        (a checkpoint); :meth:`records_since` refuses requests below it."""
        self._floor = max(self._floor, commit_ts)

    def check_open(self) -> None:
        """Raise :class:`WALError` if appends are refused."""
        if self._closed:
            raise WALError(
                f"write-ahead log {self._path!r} is closed; reopen the "
                "database before committing"
            )

    def append(self, record: WALRecord) -> None:
        """Make *record* durable, then retain it.

        Every piece is encoded before the file is touched: a record
        that cannot be written down raises
        :class:`~repro.errors.PersistenceError` before the file or the
        retained list changes, so a refused commit leaves no phantom
        behind to replay or ship. A write or ``fsync`` that fails cuts
        the file back to its length before the append and raises
        :class:`WALError`; if the cut fails too, the log closes.
        """
        self.check_open()
        pieces: list | None = None
        if self._file is not None:
            pieces = [piece.encode() for piece in encode_pieces(record)]
            pieces[-1] += b"\n"
            self._write(pieces)
        self._records.append(record)
        # meter the DML path's durability cost. Accounting only — this
        # runs mid-commit, after the conflict checks, so it must never
        # raise (budget enforcement happens *before* apply, in
        # TransactionManager.commit).
        meter = active_meter()
        if meter is not None:
            if pieces is None:
                try:
                    pieces = [*encode_pieces(record), "\n"]
                except Exception:
                    pieces = []
            meter.wal_bytes += sum(map(len, pieces))

    def _open(self, mode: str) -> None:
        self._file = open(self._path, mode, buffering=0)
        self._end = os.fstat(self._file.fileno()).st_size

    def _write(self, pieces: list[bytes]) -> None:
        fd = self._file.fileno()
        try:
            for piece in pieces:
                while piece:
                    piece = piece[os.write(fd, piece) :]
            os.fsync(fd)
            self._end += sum(map(len, pieces))
        except OSError as exc:
            try:
                os.ftruncate(fd, self._end)
            except OSError:  # the file may end in this record: refuse more
                self._closed = True
            raise WALError(
                f"write-ahead log {self._path!r}: append failed ({exc})"
            ) from exc

    def records(self) -> Iterator[WALRecord]:
        """Every retained record in commit order (full replay)."""
        return iter(self._records)

    def records_since(self, commit_ts: int) -> list[WALRecord] | None:
        """Records strictly newer than *commit_ts*, or ``None`` if the
        log can no longer answer (history below the floor was truncated
        — the consumer must resync from a checkpoint snapshot).

        Records are kept in commit order, so the suffix is located by
        binary search instead of a full scan: this is the log-shipping
        iterator (DESIGN.md §12) and the reopen-replay path, both of
        which would otherwise re-walk the whole log on every call.
        """
        if commit_ts < self._floor:
            return None
        start = bisect_right(
            self._records, commit_ts, key=lambda r: r.commit_ts
        )
        return self._records[start:]

    def __len__(self) -> int:
        return len(self._records)

    def size_bytes(self) -> int:
        """On-disk size of the log file (0 for a memory-only log)."""
        if self._path is None or not os.path.exists(self._path):
            return 0
        return os.path.getsize(self._path)

    def last_commit_ts(self) -> int:
        """Stamp of the newest retained record (the floor if empty)."""
        return (
            self._records[-1].commit_ts if self._records else self._floor
        )

    def flush(self) -> None:
        """Force written bytes to durable storage."""
        if self._file is not None:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush and release the file handle (idempotent).

        A durable (file-backed) log refuses further appends once
        closed; a memory-only log keeps working — there is no handle to
        protect, and close() on it is a no-op by design.
        """
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None
            self._closed = True

    def reopen(self) -> None:
        """(Re)open the append handle of a file-backed log."""
        if self._path is not None and self._file is None:
            self._open("ab")
            self._closed = False

    def __del__(self) -> None:
        # Belt-and-braces: a database dropped without close() must not
        # leak its file handle for the rest of the process lifetime.
        try:
            self.close()
        except Exception:
            pass

    @classmethod
    def load(cls, path: str) -> "WriteAheadLog":
        """Read a log back from disk (for recovery).

        A crash mid-append leaves a torn final line: a prefix of a
        record, so it has no newline. It was never acknowledged and is
        dropped: the file is cut back to the end of the last good
        record (the next append starts on a line boundary) and
        :attr:`torn_bytes` says how much went. An undecodable *whole*
        line — newline-terminated, so possibly acknowledged, and the
        only kind a good record can follow — is corruption, not a torn
        tail, and raises :class:`WALError`.
        """
        log = cls()
        log._path = path
        end = 0  # offset just past the last good record
        raw = b"\n"
        with open(path, "rb") as f:
            for raw in f:
                if raw.strip():
                    try:
                        log._records.append(WALRecord.from_json(raw))
                    except WALError:
                        if raw.endswith(b"\n"):
                            raise
                        log.torn_bytes = len(raw)
                        break
                end += len(raw)
        if log.torn_bytes:
            with open(path, "r+b") as f:
                f.truncate(end)
        elif not raw.endswith(b"\n"):
            # a whole record that lost only its newline
            with open(path, "ab") as f:
                f.write(b"\n")
        return log

    def truncate(self) -> None:
        """Discard all records (after a checkpoint).

        The floor rises to the newest discarded stamp, so a later
        :meth:`records_since` below it reports the history as gone
        instead of silently returning an incomplete suffix.
        """
        if self._records:
            self._floor = max(self._floor, self._records[-1].commit_ts)
        self._records.clear()
        if self._file is not None and self._path is not None:
            self._file.close()
            self._open("wb")
