"""Incremental view maintenance: delta propagation for FQL views.

The paper (§4.4) frames materialized assignments as deep copies "with all
the trade-offs known for traditional materialized views (storage
requirements, maintenance, freshness)". This package resolves the
maintenance trade-off algebraically: the storage engine's commit path
emits per-commit :class:`~repro.ivm.delta.Delta` sets into a bounded
:class:`~repro.ivm.changelog.ChangeLog`, and
:func:`~repro.ivm.operators.derive_delta` pushes those base deltas
through a derived-function graph, each operator's rule read from the
operator table (:mod:`repro.operators`), so a
:class:`~repro.ivm.view.MaintainedView` touches only the mappings that actually changed (DESIGN.md §9).

``REPRO_IVM=off`` (or :func:`set_ivm_mode`) restores the diff-based
maintenance path everywhere; the differential suite runs every operator
under both modes and asserts identical results.
"""

from __future__ import annotations

from repro.config import IVM
from repro.ivm.changelog import ChangeLog, ensure_capture
from repro.ivm.delta import Delta, snapshot_value
from repro.ivm.operators import FALLBACK, derive_delta
from repro.ivm.registry import ViewRegistry, registry_for
from repro.ivm.view import IVMState, MaintainedView, maintained_view

__all__ = [
    "ChangeLog",
    "Delta",
    "FALLBACK",
    "IVMState",
    "MaintainedView",
    "ViewRegistry",
    "derive_delta",
    "ensure_capture",
    "ivm_mode",
    "maintained_view",
    "registry_for",
    "set_ivm_mode",
    "snapshot_value",
    "using_ivm_mode",
]

#: ``"on"`` (default) or ``"off"`` (the diff-based escape hatch);
#: ``set_`` forces a mode for this process, ``using_`` temporarily (the
#: differential tests).
ivm_mode = IVM.get
set_ivm_mode = IVM.set
using_ivm_mode = IVM.using
