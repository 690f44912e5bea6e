"""Every ``REPRO_*`` switch: its name, parser, default and override.

A :class:`Switch` reads its environment variable on every call (a test
or an operator may flip it mid-process) unless a process-wide override
is set, and parses the text only when it differs from the last call's.
The read is one lookup in the dict ``os.environ`` writes through to,
cheap enough for every query to make it.
The module that owns a behaviour binds the switch's ``get`` / ``set`` /
``using`` to its public names (``exec_mode`` / ``set_exec_mode`` /
``using_exec_mode`` and so on); nothing else in ``repro`` reads
``os.environ``. docs/operations.md describes what each
switch does.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["Switch"]

#: The dict behind ``os.environ`` (which writes through to it) and its
#: value codec. A switch reads it directly: ``os.environ.get`` on an
#: unset name raises and catches a KeyError inside the Mapping protocol,
#: ~15x the cost of the lookup, and unset is the common case.
_ENVIRON = os.environ._data
_decode = os.environ.decodevalue


class Switch:
    """One environment switch with an optional process-wide override.

    *parse* maps the raw text (``""`` when unset) to the switch's value;
    an override is stored as text and parsed the same way, so both
    sources accept the same spellings. *valid* restricts what
    :meth:`set` accepts.
    """

    def __init__(
        self,
        env: str,
        parse: Callable[[str], Any],
        valid: Callable[[str], bool] | None = None,
    ):
        self.env = env
        self._key = os.environ.encodekey(env)
        self._parse = parse
        self._valid = valid
        self._override: str | None = None
        #: The last ``(raw text, parsed value)`` :meth:`get` saw.
        self._last: tuple[str | None, Any] = (None, None)

    def get(self) -> Any:
        """The current value: the override if set, else the environment."""
        raw = self._override
        if raw is None:
            raw = _ENVIRON.get(self._key, "")
        last = self._last
        if raw == last[0]:
            return last[1]
        value = self._parse(
            (raw if isinstance(raw, str) else _decode(raw)).strip()
        )
        self._last = (raw, value)
        return value

    def set(self, value: str | None) -> None:
        """Force a value for this process (``None`` restores env control)."""
        if (
            value is not None
            and self._valid is not None
            and not self._valid(value.strip().lower())
        ):
            raise ValueError(f"{self.env} cannot be set to {value!r}")
        self._override = value

    @contextmanager
    def using(self, value: str | None) -> Iterator[None]:
        """Temporarily force a value (tests and benchmarks)."""
        previous = self._override
        self.set(value)
        try:
            yield
        finally:
            self._override = previous


def _mode(env: str, default: str, **spellings: tuple[str, ...]) -> Switch:
    """A switch over a few named modes: each keyword is a mode and the
    extra spellings the environment accepts for it; anything else reads
    as *default*. :meth:`Switch.set` takes the mode names only."""
    table = {
        alias: mode
        for mode, aliases in spellings.items()
        for alias in (mode, *aliases)
    }
    return Switch(
        env,
        lambda raw: table.get(raw.lower(), default),
        {default, *spellings}.__contains__,
    )


def _number(
    kind: type,
    default: Any = None,
    accept: Callable[[Any], bool] = lambda value: True,
) -> Callable[[str], Any]:
    """Parser for a numeric setting: *default* when the text is unset,
    malformed, or a value *accept* refuses."""

    def parse(raw: str) -> Any:
        try:
            value = kind(raw)
        except ValueError:
            return default
        return value if accept(value) else default

    return parse


_TRACE_WORDS = ("off", "on", "false", "no", "none", "true", "yes")

_budget = _number(float, accept=lambda value: value > 0)

#: Physical execution: ``batch`` (default) or the per-key ``naive`` oracle.
EXEC = _mode("REPRO_EXEC", "batch", naive=("perkey", "off", "0"))
#: SQL offload: ``off``, ``auto`` (the cost model decides) or ``force``.
OFFLOAD = _mode(
    "REPRO_OFFLOAD",
    "auto",
    force=("on", "always"),
    off=("0", "never", "disabled"),
)
#: Incremental view maintenance: ``on`` or the diff-based ``off``.
IVM = _mode("REPRO_IVM", "on", off=("0", "diff", "naive"))
#: Columnar kernel backend: ``numpy`` (when importable) or ``python``.
KERNEL = _mode("REPRO_KERNEL", "numpy", python=("pure", "off", "0"))
#: Default budgets for every metered query (unset or <= 0: unlimited).
MAX_ROWS_SCANNED = Switch("REPRO_MAX_ROWS_SCANNED", _budget)
MAX_RESULT_ROWS = Switch("REPRO_MAX_RESULT_ROWS", _budget)
QUERY_DEADLINE_MS = Switch("REPRO_QUERY_DEADLINE_MS", _budget)
#: Tracing: ``off``, ``on``, or a head-sampling rate in ``[0, 1]``.
TRACE = Switch(
    "REPRO_TRACE",
    lambda raw: raw.lower() or "off",
    lambda word: word in _TRACE_WORDS or _number(float)(word) is not None,
)
#: Slow-query capture threshold for new engines, in milliseconds.
SLOW_MS = Switch(
    "REPRO_SLOW_MS", _number(float, accept=lambda value: value >= 0)
)
#: JSON-lines file the lifecycle event ring mirrors to.
EVENTS_PATH = Switch("REPRO_EVENTS_PATH", lambda raw: raw or None)
