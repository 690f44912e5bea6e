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
through ``float64``, so batches selecting them (or constants beyond it)
fall back to the python backend instead of silently losing precision.

Every typed form is derived once per segment image
(:class:`~repro.storage.versioned.ColumnImage`) and sliced per batch.
The group fold and the sort below run on those forms only where the
answer is bit- and type-identical to the naive fold or sort; anywhere
else they decline and the operator keeps its Python loop.
"""

from __future__ import annotations

from itertools import compress
from typing import Any

from repro._util import MISSING
from repro.config import KERNEL
from repro.fql.aggregates import Avg, Count, Max, Min, Sum
from repro.obs.resources import active_meter
from repro.predicates.ast import _COMPARATORS

try:  # optional accelerator: everything below works without it
    import numpy as _np
except Exception:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "HAVE_NUMPY",
    "kernel_backend",
    "set_kernel_backend",
    "using_kernel_backend",
    "atom_mask",
    "and_masks",
    "or_masks",
    "mask_to_list",
    "select",
    "int_keys",
    "int_members",
    "fold_groups",
    "sort_runs",
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
# Column derivations (once per image) and selections
# ---------------------------------------------------------------------------


def _derived(image: Any, token: tuple, derive: Any) -> Any:
    """``derive(image, *token[1:])``, computed once per image."""
    cache = image.derived
    got = cache.get(token, MISSING)
    if got is MISSING:
        got = cache[token] = derive(image, *token[1:])
    return got


def _operand_col(batch: Any, column: str | None) -> list:
    """The raw value column of an atom's *column* (``None``: the key)."""
    return batch.keys if column is None else batch.col(column)


def _numeric(image: Any, column: str | None) -> tuple:
    """``(float64 values, defined, unsafe)`` over a whole image; *unsafe*
    marks values with no exact float64 form (non-numbers, ints beyond
    2**53) and is ``None`` when there are none."""
    values = image.keys if column is None else image.column(column)
    floats: list[float] = []
    defined: list[bool] = []
    unsafe: list[int] = []
    append = floats.append
    dappend = defined.append
    for i, v in enumerate(values):
        tv = type(v)
        if (
            tv is float
            or tv is bool
            or (tv is int and -_EXACT_INT <= v <= _EXACT_INT)
        ):
            append(float(v))
            dappend(True)
            continue
        append(0.0)
        dappend(False)
        if v is not MISSING:
            unsafe.append(i)
    mask = None
    if unsafe:
        mask = _np.zeros(len(values), dtype=bool)
        mask[unsafe] = True
    return (
        _np.array(floats, dtype=_np.float64),
        _np.array(defined, dtype=bool),
        mask,
    )


def numeric_col(batch: Any, column: str | None):
    """``(float64 values, bool defined)`` arrays for a batch's rows, or
    ``None`` when a selected value is not numeric-safe."""
    values, defined, unsafe = _derived(
        batch.image, ("numeric", column), _numeric
    )
    sel = batch.sel
    if unsafe is not None and unsafe[sel].any():
        return None
    return values[sel], defined[sel]


def _int_column(batch: Any, column: str | None) -> tuple | None:
    """``(int64 values, present)`` of a batch's *column* (``None``: key),
    or ``None`` unless the numpy backend is on and it is :func:`_typed` int."""
    if kernel_backend() != "numpy":
        return None
    family, values, present, _info = _derived(
        batch.image, ("typed", column), _typed
    )
    sel = batch.sel
    return (values[sel], present[sel]) if family == "int" else None


def int_keys(batches: list, column: str | None) -> Any:
    """The defined values of *column* over *batches* as one int64
    array, or ``None`` unless every image holds exact ints there."""
    parts = [_int_column(batch, column) for batch in batches]
    if kernel_backend() != "numpy" or None in parts:
        return None
    return _np.concatenate([v[p] for v, p in parts] or [_np.zeros(0, _np.int64)])


def int_members(batch: Any, column: str | None, keys: Any) -> Any:
    """The rows of *batch* whose *column* is in *keys* (an :func:`int_keys`
    array, or ``None``) as a mask, or ``None`` unless the column is int:
    ``True`` and ``1.0`` equal ``1``, so they take the dict probe."""
    got = None if keys is None else _int_column(batch, column)
    if got is None:
        return None
    values, present = got
    return _np.isin(values, keys) & present


def select(sel: Any, mask: Any) -> Any:
    """The positions of selection *sel* that *mask* keeps."""
    if _np is not None and isinstance(mask, _np.ndarray):
        (picked,) = mask.nonzero()  # a mask is one-dimensional
        if type(sel) is slice:
            return picked + sel.start if sel.start else picked
        return _np.asarray(sel)[picked]
    if type(sel) is slice:
        sel = range(sel.start, sel.stop)
    elif type(sel) is not list:
        sel = sel.tolist()
    return list(compress(sel, mask))


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


def _note_dispatch(vectorized: bool) -> None:
    """Tell the active resource meter which backend evaluated a batch.

    The kernel/python split is a per-batch *dispatch* decision (never a
    plan property), so this is the only place that can attribute it.
    """
    meter = active_meter()
    if meter is not None:
        if vectorized:
            meter.kernel_batches += 1
        else:
            meter.python_batches += 1


def atom_mask(batch: Any, atom: Any, negated: bool = False) -> Any:
    """One :class:`~repro.predicates.ast.Atom` as a selection mask
    (*negated* turns ``in`` into ``not in``)."""
    column, op, value = atom
    if op == "in":
        return _membership_mask(batch, column, value, negated)
    if op == "between":
        return _between_mask(batch, column, *value)
    return _compare_mask(batch, column, op, value)


def _compare_mask(
    batch: Any, column: str | None, op: str, const: Any
) -> Any:
    """``column <op> const`` as a selection mask."""
    if kernel_backend() == "numpy" and _numeric_const(const):
        nc = numeric_col(batch, column)
        if nc is not None:
            values, defined = nc
            _note_dispatch(True)
            return _COMPARATORS[op](values, const) & defined
    _note_dispatch(False)
    values = _operand_col(batch, column)
    py_op = _COMPARATORS[op]
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


def _membership_mask(
    batch: Any, column: str | None, collection: Any, negated: bool
) -> Any:
    """``column in collection`` (or ``not in``) as a selection mask."""
    if kernel_backend() == "numpy" and all(
        _numeric_const(v) and v == v for v in collection
    ):
        nc = numeric_col(batch, column)
        if nc is not None:
            values, defined = nc
            hits = _np.isin(values, list(collection))
            if negated:
                hits = ~hits
            _note_dispatch(True)
            return hits & defined
    _note_dispatch(False)
    values = _operand_col(batch, column)
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


def _between_mask(
    batch: Any, column: str | None, lo: Any, hi: Any
) -> Any:
    """``lo <= column <= hi`` as a selection mask."""
    if (
        kernel_backend() == "numpy"
        and _numeric_const(lo)
        and _numeric_const(hi)
    ):
        nc = numeric_col(batch, column)
        if nc is not None:
            values, defined = nc
            _note_dispatch(True)
            return (values >= lo) & (values <= hi) & defined
    _note_dispatch(False)
    values = _operand_col(batch, column)
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


def mask_to_list(mask: Any) -> list:
    """Normalize a mask to a plain list of truthy/falsy values."""
    if isinstance(mask, list):
        return mask
    return mask.tolist()


# ---------------------------------------------------------------------------
# Group fold and sort over image columns
# ---------------------------------------------------------------------------


def _kinds(column: list) -> set:
    """The types of a column's defined values."""
    kinds = set(map(type, column))
    kinds.discard(type(MISSING))
    return kinds


def _typed(image: Any, attr: str | None) -> tuple:
    """``(family, values, present, info)`` of an attribute (``None``: key).

    *family* is ``"int"`` (every present value an ``int``, not a bool,
    all within int64; *info* is the largest magnitude), ``"float"``
    (every present value a ``float``; *info* is ``(has NaN, has -0.0)``),
    ``""`` (no value present) or ``None`` (anything else: no *values*).
    """
    column = image.keys if attr is None else image.column(attr)
    present = _np.array([v is not MISSING for v in column], dtype=bool)
    kinds = _kinds(column)
    if not kinds:
        return "", None, present, None
    if kinds == {int}:
        ints = [v for v in column if v is not MISSING]
        magnitude = max(max(ints), -min(ints))
        if magnitude >= 2**63:
            return None, None, present, None
        values = _np.array(
            [0 if v is MISSING else v for v in column], dtype=_np.int64
        )
        return "int", values, present, magnitude
    if kinds == {float}:
        values = _np.array(
            [0.0 if v is MISSING else v for v in column], dtype=_np.float64
        )
        info = (
            bool(_np.isnan(values).any()),
            bool((_np.signbit(values) & (values == 0)).any()),
        )
        return "float", values, present, info
    return None, None, present, None


def _codes(image: Any, attr: str) -> tuple | None:
    """``(codes, values, index, sparse)``: a code per row (-1 where undefined,
    *sparse* if any is) into the distinct *values* in first-appearance order
    (*index*: value → code); ``None`` unless all present values are ``str``
    or all ``int``, the families where equal means identical (``1 == 1.0 ==
    True``, and NaN is unequal to itself)."""
    column = image.column(attr)
    kinds = _kinds(column)
    if not (kinds <= {str} or kinds <= {int}):
        return None
    index: dict = {}
    codes = [-1 if v is MISSING else index.setdefault(v, len(index))
             for v in column]
    return _np.array(codes, dtype=_np.intp), list(index), index, -1 in codes


def _runs(batches: list) -> list:
    """``(image, name, selection)`` per run of consecutive batches over
    one image, their selections joined once (adjacent slices into one
    slice, anything else into one position array): a kernel pays per
    image, not per batch."""
    runs: list = []
    for b in batches:
        if runs and runs[-1][0] is b.image:
            runs[-1][2].append(b.sel)
        else:
            runs.append((b.image, b.name, [b.sel]))
    return [(image, name, _joined(sels)) for image, name, sels in runs]


def _joined(sels: list) -> Any:
    """One selection holding *sels*' positions in order."""
    if len(sels) == 1:
        return sels[0]
    if all(type(s) is slice for s in sels) and all(
        a.stop == b.start for a, b in zip(sels, sels[1:])
    ):
        return slice(sels[0].start, sels[-1].stop)
    return _np.concatenate([
        _np.arange(s.start, s.stop) if type(s) is slice
        else _np.asarray(s, dtype=_np.intp)
        for s in sels
    ])


def _first_seen(slot: Any, count: Any) -> list:
    """The slots with a *count* in order of first appearance in *slot*,
    read in doubling chunks: only rows of unseen slots are sorted."""
    seen = _np.zeros(len(count), dtype=bool)
    order: list = []
    start, width, need = 0, 16, int(_np.count_nonzero(count))
    while len(order) < need:
        head = slot[start:start + width]
        new, first = _np.unique(head[~seen[head]], return_index=True)
        seen[new] = True
        order += new[_np.argsort(first)].tolist()
        start, width = start + width, 2 * width
    return order


def fold_groups(batches: list, attr: str, specs: list) -> dict | None:
    """Fold column batches grouped by one attribute into ``{group key:
    {name: accumulator}}`` exactly as the per-row fold would, or
    ``None`` to decline.

    *specs* are ``(name, aggregate, attr or None)``. Count runs on
    ``bincount``; Sum/Avg on an int column in int64 with ``add.at``
    while no partial sum can reach 2**63, on a float column on
    ``bincount`` weights (which add in stream order, like the fold);
    Min/Max on one numeric family without NaN or -0.0. Groups come out
    in order of first appearance (:func:`_first_seen`).
    """
    if kernel_backend() != "numpy":
        return None
    if any(type(agg) not in (Count, Sum, Avg, Min, Max) for _n, agg, _a in specs):
        return None
    if not batches:
        return {}
    base: Any = None  # (values, index): the first image's codes are slots
    extra: dict = {}  # the slots of values the first image lacks
    luts: dict = {}
    slots, columns = [], {a: [] for _n, _g, a in specs if a is not None}
    for image, _name, sel in _runs(batches):
        coded = _derived(image, ("codes", attr), _codes)
        if coded is None:
            return None
        codes, values, index, sparse = coded
        if sparse:  # rows without a group key fall out
            sel = select(sel, codes[sel] >= 0)
        chosen = codes[sel]
        base = base or (values, index)
        if base[1] is not index:  # a later image: slots for the codes it selects
            lut = luts.setdefault(id(image), _np.full(len(values), -1))
            seen = _np.bincount(chosen, minlength=len(lut)) > 0
            new = _np.flatnonzero(seen & (lut < 0)).tolist()
            lut[new] = [base[1][v] if v in base[1] else extra.setdefault(
                v, len(base[0]) + len(extra)) for v in map(values.__getitem__, new)]
            chosen = lut[chosen]
        slots.append(chosen)
        for agg_attr, parts in columns.items():
            family, typed, present, info = _derived(image, ("typed", agg_attr), _typed)
            parts.append((family, None if typed is None else typed[sel],
                          None if present.all() else present[sel], info))
    keys = base[0] + list(extra) if extra else base[0]
    slot = slots[0] if len(slots) == 1 else _np.concatenate(slots)
    count = _np.bincount(slot, minlength=len(keys))
    order = _first_seen(slot, count)
    for agg_attr, parts in columns.items():  # one slot array per column
        if all(p is None for _f, _v, p, _i in parts):
            columns[agg_attr] = (slot, count, parts)
            continue
        kept = slot[_np.concatenate([_np.ones(len(s), bool) if m is None else m
                                     for s, (_f, _v, m, _i) in zip(slots, parts)])]
        columns[agg_attr] = (kept, _np.bincount(kept, minlength=len(count)), parts)
    results = {}
    for name, agg, agg_attr in specs:
        if agg_attr is None:
            results[name] = count[order].tolist()
            continue
        folded = _fold_column(type(agg), *columns[agg_attr], order)
        if folded is None:
            return None
        results[name] = folded
    return {
        keys[g]: {name: results[name][i] for name in results}
        for i, g in enumerate(order)
    }


def _fold_column(kind: type, slot: Any, count: Any, parts: list,
                 order: list) -> list | None:
    """One aggregate's accumulators per slot in *order*, or ``None``."""
    groups = len(count)
    counts = count[order].tolist()
    if kind is Count:
        return counts
    families = {f for f, _v, _p, _i in parts} - {""}
    if len(families) > 1 or None in families:
        return None
    family = families.pop() if families else ""
    if family == "":
        seed = (0, 0) if kind is Avg else 0 if kind is Sum else MISSING
        return [seed] * len(order)
    values = [v if p is None else v[p] for f, v, p, _i in parts if f]
    values = values[0] if len(values) == 1 else _np.concatenate(values)
    infos = [i for f, _v, _p, i in parts if f]
    if family == "float" and kind in (Min, Max) and any(
        nan or negzero for nan, negzero in infos
    ):
        return None
    cast = int if family == "int" else float
    if family == "int" and kind in (Sum, Avg) and max(infos) * len(slot) >= 2**63:
        return None
    if kind in (Sum, Avg):
        if family == "int":  # exact in int64
            totals = _np.zeros(groups, values.dtype)
            _np.add.at(totals, slot, values)
        else:  # float64 weights add in stream order, like the fold
            totals = _np.bincount(slot, weights=values, minlength=groups)
        out = [cast(t) if n else 0 for t, n in zip(totals[order].tolist(), counts)]
        return out if kind is Sum else [
            (t, n) for t, n in zip(out, counts)
        ]
    if family == "int":
        info = _np.iinfo(_np.int64)
        seed = info.max if kind is Min else info.min
    else:
        seed = _np.inf if kind is Min else -_np.inf
    best = _np.full(groups, seed, values.dtype)
    (_np.minimum if kind is Min else _np.maximum).at(best, slot, values)
    return [cast(b) if n else MISSING for b, n in zip(best[order].tolist(), counts)]


def sort_runs(batches: list, attr: str, reverse: bool) -> list | None:
    """The batches' rows as ``(image, name, positions)`` runs in the
    order ``list.sort(key=attr, reverse=reverse)`` puts them (ties in
    stream order), or ``None`` to decline: the attribute must be defined
    on every row and all-int or all-float without NaN, where ``<`` is the
    total order the logical sort key falls back to."""
    if kernel_backend() != "numpy" or not batches:
        return None
    keys, positions, owners = [], [], []
    families = set()
    sources: dict = {}  # id(image) -> (index, image, name)
    for image, name, sel in _runs(batches):
        family, typed, present, info = _derived(image, ("typed", attr), _typed)
        if family not in ("int", "float") or (family == "float" and info[0]):
            return None
        if not present[sel].all():
            return None
        families.add(family)
        keys.append(typed[sel])
        positions.append(_np.arange(sel.start, sel.stop) if type(sel) is slice
                         else _np.asarray(sel, dtype=_np.intp))
        owner = sources.setdefault(id(image), (len(sources), image, name))
        owners.append(_np.full(len(keys[-1]), owner[0], _np.intp))
    if len(families) > 1:
        return None
    key = _np.concatenate(keys)
    if reverse:  # descending, equal keys still in stream order
        order = len(key) - 1 - _np.argsort(key[::-1], kind="stable")[::-1]
    else:
        order = _np.argsort(key, kind="stable")
    position = _np.concatenate(positions)[order]
    owner = _np.concatenate(owners)[order]
    by_index = list(sources.values())
    cuts = [0, *(_np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist(), len(owner)]
    return [
        (*by_index[owner[start]][1:], position[start:stop])
        for start, stop in zip(cuts, cuts[1:])
    ]
