"""Vectorized predicate kernels: one dispatch layer, two backends.

The columnar executor (DESIGN.md §13) compiles transparent predicates
into *mask kernels*: ``run(ColumnBatch) -> mask`` where the mask marks
the selected rows. This module is the single place that decides how a
mask is computed:

* the **numpy** backend converts numeric columns to ``float64`` arrays
  (undefined slots become NaN, tracked by a parallel ``defined`` mask)
  and evaluates comparisons in C;
* the **python** backend runs a tight list loop — no third-party
  dependency, same results bit for bit.

Backend selection is per *call*, not per plan: ``REPRO_KERNEL=python``
(or :func:`set_kernel_backend`) flips a cached pipeline over without
replanning, which is what the no-numpy CI leg and the differential
matrix rely on.

Null/NULL-awareness matches the naive predicate semantics exactly
(``predicates/ast.py``): an undefined attribute never satisfies any
comparison (including ``!=``), and incomparable operands select nothing
rather than erroring. The numpy paths preserve this by masking with
``defined`` — NaN comparisons are already false, and the one case where
NaN would wrongly select (``!=``) is covered by the same mask.

Numeric safety: integers with magnitude above 2**53 do not round-trip
through ``float64``, so columns (or constants) containing them fall back
to the python backend instead of silently losing precision.
"""

from __future__ import annotations

from typing import Any

from repro._util import MISSING
from repro.config import KERNEL

try:  # optional accelerator: everything below works without it
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "HAVE_NUMPY",
    "kernel_backend",
    "set_kernel_backend",
    "using_kernel_backend",
    "compare_mask",
    "membership_mask",
    "between_mask",
    "and_masks",
    "or_masks",
    "const_mask",
    "mask_to_list",
]

HAVE_NUMPY = _np is not None

#: Largest integer magnitude float64 represents exactly.
_EXACT_INT = 2**53

def kernel_backend() -> str:
    """``"numpy"`` when numpy is importable (the default), else
    ``"python"``; ``REPRO_KERNEL=python`` forces the pure-Python path."""
    return "numpy" if HAVE_NUMPY and KERNEL.get() == "numpy" else "python"


#: Force a backend for this process (``None`` restores env control), or
#: temporarily (the differential tests).
set_kernel_backend = KERNEL.set
using_kernel_backend = KERNEL.using


# ---------------------------------------------------------------------------
# Column extraction (cached per batch)
# ---------------------------------------------------------------------------


def _operand_col(batch: Any, kind: str, payload: Any) -> list:
    """The raw value column for one compiled operand."""
    if kind == "key":
        return batch.keys
    return batch.col(payload)


def numeric_col(batch: Any, kind: str, payload: Any):
    """``(float64 values, bool defined)`` arrays for a column, or ``None``
    when the column is not numeric-safe (non-numbers, or ints > 2**53).

    Cached on the batch: conjunctions and range predicates over the same
    attribute pay the conversion once.
    """
    cache = batch.np_cache
    token = (kind, payload)
    got = cache.get(token, MISSING)
    if got is not MISSING:
        return got
    values = _operand_col(batch, kind, payload)
    floats: list[float] = []
    defined: list[bool] = []
    append = floats.append
    dappend = defined.append
    for v in values:
        if v is MISSING:
            append(0.0)
            dappend(False)
            continue
        tv = type(v)
        if tv is int:
            if -_EXACT_INT <= v <= _EXACT_INT:
                append(float(v))
                dappend(True)
                continue
            cache[token] = None
            return None
        if tv is float or tv is bool:
            append(float(v))
            dappend(True)
            continue
        cache[token] = None
        return None
    out = (
        _np.array(floats, dtype=_np.float64),
        _np.array(defined, dtype=bool),
    )
    cache[token] = out
    return out


def _numeric_const(value: Any) -> bool:
    """Can *value* take the numpy side of a comparison without changing
    the python semantics?"""
    tv = type(value)
    if tv is float or tv is bool:
        return True
    return tv is int and -_EXACT_INT <= value <= _EXACT_INT


# ---------------------------------------------------------------------------
# Mask kernels
# ---------------------------------------------------------------------------

import operator as _operator

_PY_OPS = {
    "==": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


def _note_dispatch(vectorized: bool) -> None:
    """Tell the active resource meter which backend evaluated a batch.

    The kernel/python split is a per-batch *dispatch* decision (never a
    plan property), so this is the only place that can attribute it.
    """
    from repro.obs.resources import active_meter

    meter = active_meter()
    if meter is not None:
        if vectorized:
            meter.kernel_batches += 1
        else:
            meter.python_batches += 1


def compare_mask(
    batch: Any, kind: str, payload: Any, op: str, const: Any
) -> Any:
    """``column <op> const`` as a selection mask."""
    if kernel_backend() == "numpy" and _numeric_const(const):
        nc = numeric_col(batch, kind, payload)
        if nc is not None:
            values, defined = nc
            _note_dispatch(True)
            return _PY_OPS[op](values, const) & defined
    _note_dispatch(False)
    values = _operand_col(batch, kind, payload)
    py_op = _PY_OPS[op]
    out = [False] * len(values)
    for i, v in enumerate(values):
        if v is MISSING:
            continue
        try:
            if py_op(v, const):
                out[i] = True
        except TypeError:
            pass
    return out


def membership_mask(
    batch: Any, kind: str, payload: Any, collection: Any, negated: bool
) -> Any:
    """``column in collection`` (or ``not in``) as a selection mask."""
    if (
        kernel_backend() == "numpy"
        and isinstance(collection, (list, tuple, set, frozenset))
        and all(_numeric_const(v) and v == v for v in collection)
    ):
        nc = numeric_col(batch, kind, payload)
        if nc is not None:
            values, defined = nc
            hits = _np.isin(values, list(collection))
            if negated:
                hits = ~hits
            _note_dispatch(True)
            return hits & defined
    _note_dispatch(False)
    values = _operand_col(batch, kind, payload)
    out = [False] * len(values)
    for i, v in enumerate(values):
        if v is MISSING:
            continue
        try:
            hit = v in collection
        except TypeError:
            continue
        if hit != negated:
            out[i] = True
    return out


def between_mask(
    batch: Any, kind: str, payload: Any, lo: Any, hi: Any
) -> Any:
    """``lo <= column <= hi`` as a selection mask."""
    if (
        kernel_backend() == "numpy"
        and _numeric_const(lo)
        and _numeric_const(hi)
    ):
        nc = numeric_col(batch, kind, payload)
        if nc is not None:
            values, defined = nc
            _note_dispatch(True)
            return (values >= lo) & (values <= hi) & defined
    _note_dispatch(False)
    values = _operand_col(batch, kind, payload)
    out = [False] * len(values)
    for i, v in enumerate(values):
        if v is MISSING:
            continue
        try:
            if lo <= v <= hi:
                out[i] = True
        except TypeError:
            pass
    return out


def and_masks(masks: list) -> Any:
    """Conjunction of selection masks (mixed list/ndarray tolerated)."""
    if _np is not None and all(isinstance(m, _np.ndarray) for m in masks):
        out = masks[0]
        for m in masks[1:]:
            out = out & m
        return out
    lists = [mask_to_list(m) for m in masks]
    return [all(vals) for vals in zip(*lists)]


def or_masks(masks: list) -> Any:
    """Disjunction of selection masks (mixed list/ndarray tolerated)."""
    if _np is not None and all(isinstance(m, _np.ndarray) for m in masks):
        out = masks[0]
        for m in masks[1:]:
            out = out | m
        return out
    lists = [mask_to_list(m) for m in masks]
    return [any(vals) for vals in zip(*lists)]


def const_mask(n: int, value: bool) -> list:
    return [value] * n


def mask_to_list(mask: Any) -> list:
    """Normalize a mask to a plain list of truthy/falsy values."""
    if isinstance(mask, list):
        return mask
    return mask.tolist()
